//! The signature database: parse, compile, match.
//!
//! Compilation indexes the *anchor* (longest literal run) of each
//! signature's first part in one Aho–Corasick automaton. Scanning runs the
//! automaton once over the input; each anchor hit is verified against the
//! full wildcard pattern. This mirrors how production engines layer exact
//! multi-pattern search under wildcard verification.

use crate::aho::AhoCorasick;
use crate::sig::{ParseError, Signature};
use std::collections::BTreeSet;

/// Errors from building a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignatureError {
    /// A pattern failed to parse; carries the signature name.
    Parse { name: String, error: ParseError },
    /// Two signatures share a name.
    DuplicateName(String),
    /// Text-format line without a `name:pattern` separator.
    BadLine(usize),
}

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignatureError::Parse { name, error } => write!(f, "signature {name}: {error}"),
            SignatureError::DuplicateName(n) => write!(f, "duplicate signature name {n}"),
            SignatureError::BadLine(n) => write!(f, "line {n}: expected name:pattern"),
        }
    }
}

impl std::error::Error for SignatureError {}

/// A mutable collection of signatures; [`SignatureDb::build`] compiles it.
#[derive(Default)]
pub struct SignatureDb {
    sigs: Vec<Signature>,
}

impl SignatureDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a signature from a hex/wildcard body.
    pub fn add_hex(&mut self, name: &str, pattern: &str) -> Result<(), SignatureError> {
        let sig = Signature::parse(name, pattern).map_err(|error| SignatureError::Parse {
            name: name.to_string(),
            error,
        })?;
        self.sigs.push(sig);
        Ok(())
    }

    /// Adds a signature matching a literal byte string.
    pub fn add_literal(&mut self, name: &str, bytes: &[u8]) -> Result<(), SignatureError> {
        let hex = p2pmal_hashes::to_hex(bytes);
        self.add_hex(name, &hex)
    }

    /// Parses the text format: one `Name:hexpattern` per line, `#` comments.
    pub fn parse_text(text: &str) -> Result<Self, SignatureError> {
        let mut db = SignatureDb::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, pattern) = line.split_once(':').ok_or(SignatureError::BadLine(i + 1))?;
            db.add_hex(name.trim(), pattern.trim())?;
        }
        Ok(db)
    }

    /// Renders back to the text format.
    pub fn to_text(&self) -> String {
        use crate::sig::Token;
        let mut out = String::new();
        for sig in &self.sigs {
            out.push_str(&sig.name);
            out.push(':');
            for (pi, part) in sig.parts.iter().enumerate() {
                if pi > 0 {
                    out.push('*');
                }
                for t in &part.tokens {
                    match t {
                        Token::Byte(b) => out.push_str(&format!("{b:02x}")),
                        Token::Any => out.push_str("??"),
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Number of signatures added so far.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Compiles into a matchable database.
    pub fn build(self) -> Result<CompiledDb, SignatureError> {
        let mut names = BTreeSet::new();
        for s in &self.sigs {
            if !names.insert(s.name.clone()) {
                return Err(SignatureError::DuplicateName(s.name.clone()));
            }
        }
        let anchors: Vec<Vec<u8>> = self
            .sigs
            .iter()
            .map(|s| s.parts[0].anchor.clone())
            .collect();
        let ac = AhoCorasick::new(anchors);
        Ok(CompiledDb {
            sigs: self.sigs,
            ac,
        })
    }
}

/// An immutable, compiled signature database.
pub struct CompiledDb {
    sigs: Vec<Signature>,
    ac: AhoCorasick,
}

impl CompiledDb {
    /// All signature names, in database order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sigs.iter().map(|s| s.name.as_str())
    }

    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// The compiled anchor automaton (e.g. for prefilter diagnostics and
    /// head-to-head benches).
    pub fn automaton(&self) -> &AhoCorasick {
        &self.ac
    }

    /// Verifies one anchor hit against its full wildcard signature.
    #[inline]
    fn verify(&self, data: &[u8], m: crate::aho::AcMatch) -> bool {
        let sig = &self.sigs[m.pattern];
        let part0 = &sig.parts[0];
        let anchor_start = m.end - part0.anchor.len();
        // The anchor sits `anchor_offset` bytes into part 0.
        match anchor_start.checked_sub(part0.anchor_offset) {
            Some(part_start) => sig.matches_with_first_at(data, part_start),
            None => false,
        }
    }

    /// Visits the name of every signature matching `data`, deduplicated, in
    /// database order. Allocation-free up to [`Self::INLINE_SIGS`] signatures
    /// (a stack bitset tracks verified hits), so a clean scan costs nothing
    /// beyond the automaton walk.
    pub fn matches_each<'a, F: FnMut(&'a str)>(&'a self, data: &[u8], mut f: F) {
        if self.sigs.is_empty() {
            return;
        }
        let words = self.sigs.len().div_ceil(64);
        let mut inline = [0u64; Self::INLINE_SIGS / 64];
        let mut spill: Vec<u64>;
        let hit: &mut [u64] = if words <= inline.len() {
            &mut inline[..words]
        } else {
            spill = vec![0u64; words];
            &mut spill
        };
        let mut n_hits = 0u32;
        self.ac.find_each(data, |m| {
            let si = m.pattern;
            if hit[si / 64] & (1u64 << (si % 64)) == 0 && self.verify(data, m) {
                hit[si / 64] |= 1u64 << (si % 64);
                n_hits += 1;
            }
            true
        });
        if n_hits == 0 {
            return;
        }
        for (i, s) in self.sigs.iter().enumerate() {
            if hit[i / 64] & (1u64 << (i % 64)) != 0 {
                f(s.name.as_str());
            }
        }
    }

    /// Signature count covered by the stack bitset in [`Self::matches_each`].
    pub const INLINE_SIGS: usize = 256;

    /// Returns the names of all signatures matching `data`, deduplicated,
    /// in database order.
    pub fn matches(&self, data: &[u8]) -> Vec<&str> {
        let mut out = Vec::new();
        self.matches_each(data, |name| out.push(name));
        out
    }

    /// Returns the name of the first signature verified in stream order, or
    /// `None`. Stops the automaton walk at the first verified hit, so a
    /// "clean?" question on infected data is cheaper than a full census.
    pub fn first_match(&self, data: &[u8]) -> Option<&str> {
        let mut found = None;
        self.ac.find_each(data, |m| {
            if self.verify(data, m) {
                found = Some(m.pattern);
                return false;
            }
            true
        });
        found.map(|si| self.sigs[si].name.as_str())
    }

    /// True if any signature matches.
    pub fn is_infected(&self, data: &[u8]) -> bool {
        self.first_match(data).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(entries: &[(&str, &str)]) -> CompiledDb {
        let mut db = SignatureDb::new();
        for (n, p) in entries {
            db.add_hex(n, p).unwrap();
        }
        db.build().unwrap()
    }

    #[test]
    fn single_signature_hit_and_miss() {
        let db = build(&[("Worm.A", "6576696c20636f6465")]); // "evil code"
        assert_eq!(db.matches(b"here is evil code !"), vec!["Worm.A"]);
        assert!(db.matches(b"here is good code").is_empty());
    }

    #[test]
    fn multiple_signatures_same_file() {
        let db = build(&[
            ("Worm.A", "6161616161"),
            ("Trojan.B", "6262626262"),
            ("Virus.C", "6363636363"),
        ]);
        let got = db.matches(b"xx aaaaa yy bbbbb zz");
        assert_eq!(got, vec!["Worm.A", "Trojan.B"]);
    }

    #[test]
    fn wildcard_signature_through_prefilter() {
        // Anchor is the tail run; the hole must still verify.
        let db = build(&[(
            "Poly.X",
            "4d5a??????${}".replace("${}", "90904c4f4144").as_str(),
        )]);
        let mut data = vec![0u8; 64];
        data[10..12].copy_from_slice(&[0x4d, 0x5a]);
        data[12..15].copy_from_slice(&[1, 2, 3]);
        data[15..21].copy_from_slice(&[0x90, 0x90, 0x4c, 0x4f, 0x41, 0x44]);
        assert_eq!(db.matches(&data), vec!["Poly.X"]);
        // Break a literal byte before the anchor: no match.
        let mut bad = data.clone();
        bad[10] = 0;
        assert!(db.matches(&bad).is_empty());
    }

    #[test]
    fn gap_signature_through_prefilter() {
        let db = build(&[("Gap.Y", "48454144*5441494c")]); // HEAD*TAIL
        assert_eq!(db.matches(b"xx HEAD filler TAIL yy"), vec!["Gap.Y"]);
        assert!(db.matches(b"xx TAIL filler HEAD yy").is_empty());
    }

    #[test]
    fn dedup_multiple_occurrences() {
        let db = build(&[("Rep.Z", "7265706561746564")]); // "repeated"
        let hay = b"repeated and repeated and repeated".to_vec();
        assert_eq!(db.matches(&hay).len(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut db = SignatureDb::new();
        db.add_hex("Same", "11223344").unwrap();
        db.add_hex("Same", "55667788").unwrap();
        assert_eq!(
            db.build().err(),
            Some(SignatureError::DuplicateName("Same".into()))
        );
    }

    #[test]
    fn text_format_roundtrip() {
        let text = "# test db\nWorm.A:deadbeef\nTrojan.B:11223344??55667788*aabbccdd\n";
        let db = SignatureDb::parse_text(text).unwrap();
        assert_eq!(db.len(), 2);
        let rendered = db.to_text();
        let db2 = SignatureDb::parse_text(&rendered).unwrap();
        assert_eq!(db2.to_text(), rendered);
    }

    #[test]
    fn text_format_bad_line() {
        assert_eq!(
            SignatureDb::parse_text("no separator here").err(),
            Some(SignatureError::BadLine(1))
        );
    }

    #[test]
    fn empty_db_matches_nothing() {
        let db = SignatureDb::new().build().unwrap();
        assert!(db.matches(b"anything").is_empty());
        assert!(!db.is_infected(b"anything"));
    }

    #[test]
    fn add_literal_convenience() {
        let mut db = SignatureDb::new();
        db.add_literal("Lit.A", b"MAGIC-MARKER-BYTES").unwrap();
        let db = db.build().unwrap();
        assert!(db.is_infected(b"xxx MAGIC-MARKER-BYTES xxx"));
    }

    #[test]
    fn first_match_agrees_with_matches() {
        let db = build(&[("Worm.A", "6161616161"), ("Trojan.B", "6262626262")]);
        assert_eq!(db.first_match(b"xx aaaaa yy"), Some("Worm.A"));
        assert_eq!(db.first_match(b"xx bbbbb yy"), Some("Trojan.B"));
        assert_eq!(db.first_match(b"clean bytes"), None);
        // Stream order, not db order: whichever verifies first wins.
        assert_eq!(db.first_match(b"bbbbb then aaaaa"), Some("Trojan.B"));
        assert!(db.is_infected(b"aaaaa"));
        assert!(!db.is_infected(b"aaaa"));
    }

    #[test]
    fn matches_each_spills_past_inline_bitset() {
        // More signatures than the stack bitset holds: the heap spill path
        // must behave identically.
        let mut db = SignatureDb::new();
        let n = CompiledDb::INLINE_SIGS + 20;
        for i in 0..n {
            db.add_literal(
                &format!("Sig.{i:04}"),
                format!("needle-{i:04}-x").as_bytes(),
            )
            .unwrap();
        }
        let db = db.build().unwrap();
        let hay = b"xx needle-0001-x yy needle-0270-x zz".to_vec();
        assert_eq!(db.matches(&hay), vec!["Sig.0001", "Sig.0270"]);
    }

    /// `parse_text` either rejects `text` or yields a database that
    /// compiles without a panic and renders to text that parses back to the
    /// same rendering.
    fn parse_text_round_trips(text: &str) {
        let Ok(db) = SignatureDb::parse_text(text) else {
            return;
        };
        let rendered = db.to_text();
        let again = SignatureDb::parse_text(&rendered).expect("a rendering parses");
        assert_eq!(again.to_text(), rendered, "{text:?}");
        let _ = db.build();
    }

    /// Any string: ASCII and any other scalar value, mixed.
    fn any_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<u32>(), 0..64).prop_map(|cs| {
            cs.into_iter()
                .map(|c| match c & 1 {
                    0 => char::from((c >> 1) as u8 & 0x7F),
                    _ => char::from_u32((c >> 1) % 0x11_0000).unwrap_or('\u{FFFD}'),
                })
                .collect()
        })
    }

    /// Lines of `:`, `*`, `?`, `#`, hex digits and whitespace: well-formed
    /// `name:pattern` lines (names from the same alphabet) mixed with noise.
    const LINE_SHAPED: &str = "(([ \t]?[0-9a-fA-F#?* ]{0,4}:[ \t]?([0-9a-fA-F]{2}){4,6}\
        ((\\?\\?|\\*|[ \t])([0-9a-fA-F]{2}){4,6}){0,3}|[0-9a-fA-F:*?# \t]{0,24})\r?\n){0,6}";

    proptest! {
        #[test]
        fn parse_text_never_panics_on_any_text(text in any_text()) {
            parse_text_round_trips(&text);
        }

        #[test]
        fn parse_text_never_panics_on_line_shaped_text(text in LINE_SHAPED) {
            parse_text_round_trips(&text);
        }

        /// The compiled (prefiltered) matcher agrees with the slow
        /// Signature::matches path on random inputs.
        #[test]
        fn compiled_agrees_with_slow_path(
            hay in proptest::collection::vec(any::<u8>(), 0..512),
            needle in proptest::collection::vec(any::<u8>(), 4..12),
        ) {
            let hex = p2pmal_hashes::to_hex(&needle);
            let sig = Signature::parse("P", &hex).unwrap();
            let db = build(&[("P", &hex)]);
            prop_assert_eq!(db.is_infected(&hay), sig.matches(&hay));
            // And a haystack with the needle embedded always matches.
            let mut with = hay.clone();
            with.extend_from_slice(&needle);
            prop_assert!(db.is_infected(&with));
        }
    }
}
