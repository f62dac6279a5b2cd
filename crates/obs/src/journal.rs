//! JSONL journal loading into a compact columnar store.
//!
//! The journal schema is defined in `p2pmal-netsim`'s
//! `telemetry/event.rs` (`TelemetryEvent::write_json`): a flat object per
//! line with envelope fields `t`/`day`/`cat`/`ev`, optional provenance
//! `trace`/`span`/`parent` (16-char hex strings), then body fields.
//!
//! [`scan_line`] is the one parser of that schema in the repository. It
//! validates a whole line as JSON (any document `p2pmal_json::parse`
//! accepts, with keys in any order and the first of a duplicated key
//! winning) and picks out the fields below without building a value tree.
//! [`Journal`] streams a file through it line by line and keeps one
//! 64-byte record per event, so memory is `64 B × events` plus the label
//! tables however long the strings in the journal are.
//!
//! What is kept per event: `t`, `day`, `cat`, `ev`, `trace`/`span`/`parent`
//! and the three body fields the analyses read — `hops`, `detections` and
//! `family`. Every other body field (`name`, `text`, `sha1`, `host`, ...)
//! is validated and dropped; to reach one, read line
//! [`Journal::line_of`]`(idx)` of the file again and hand it to
//! `p2pmal_json::parse`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::BufRead;

use p2pmal_json::{Reader, Value};
use p2pmal_netsim::telemetry_span::parse_span_hex;

/// The fields of one journal line that [`Journal`] keeps, borrowed from
/// the line where no escape had to be decoded.
#[derive(Debug, PartialEq)]
pub struct Line<'a> {
    /// Sim-time in microseconds.
    pub t: u64,
    pub day: u64,
    pub cat: Cow<'a, str>,
    pub ev: Cow<'a, str>,
    pub trace: Option<u64>,
    pub span: Option<u64>,
    pub parent: Option<u64>,
    /// `hops` / `detections`, when present as non-negative integers.
    pub hops: Option<u64>,
    pub detections: Option<u64>,
    /// `family`, when present as a string.
    pub family: Option<Cow<'a, str>>,
}

/// A picked field: the first occurrence of its key decides.
enum Slot<T> {
    Absent,
    /// The key was there with a value of the wrong type or range.
    Unusable,
    Got(T),
}

impl<T> Slot<T> {
    fn got(self) -> Option<T> {
        match self {
            Slot::Got(v) => Some(v),
            _ => None,
        }
    }
}

fn take_u64(slot: &mut Slot<u64>, r: &mut Reader<'_>) -> Result<(), p2pmal_json::ParseError> {
    if !matches!(slot, Slot::Absent) {
        return r.skip_value();
    }
    *slot = match r.peek() {
        Some(b'-' | b'0'..=b'9') => match Value::Num(r.number()?).as_u64() {
            Some(n) => Slot::Got(n),
            None => Slot::Unusable,
        },
        _ => {
            r.skip_value()?;
            Slot::Unusable
        }
    };
    Ok(())
}

fn take_str<'a>(
    slot: &mut Slot<Cow<'a, str>>,
    r: &mut Reader<'a>,
) -> Result<(), p2pmal_json::ParseError> {
    if !matches!(slot, Slot::Absent) {
        return r.skip_value();
    }
    *slot = if r.peek() == Some(b'"') {
        Slot::Got(r.string()?)
    } else {
        r.skip_value()?;
        Slot::Unusable
    };
    Ok(())
}

fn id_field(slot: Slot<Cow<'_, str>>, key: &str) -> Result<Option<u64>, String> {
    match slot {
        Slot::Absent => Ok(None),
        Slot::Unusable => Err(format!("`{key}` is not a string")),
        Slot::Got(s) => parse_span_hex(&s)
            .map(Some)
            .ok_or_else(|| format!("`{key}` is not a hex id: {s:?}")),
    }
}

/// Validates one journal line and picks out its [`Line`]. The error says
/// what is wrong but not where; callers prefix their own line number.
pub fn scan_line(line: &str) -> Result<Line<'_>, String> {
    let (mut t, mut day, mut hops, mut detections) =
        (Slot::Absent, Slot::Absent, Slot::Absent, Slot::Absent);
    let (mut cat, mut ev, mut family) = (Slot::Absent, Slot::Absent, Slot::Absent);
    let (mut trace, mut span, mut parent) = (Slot::Absent, Slot::Absent, Slot::Absent);

    let mut r = Reader::new(line);
    r.skip_ws();
    let syntax = if r.peek() == Some(b'{') {
        r.object(|key, r| match &*key {
            "t" => take_u64(&mut t, r),
            "day" => take_u64(&mut day, r),
            "hops" => take_u64(&mut hops, r),
            "detections" => take_u64(&mut detections, r),
            "cat" => take_str(&mut cat, r),
            "ev" => take_str(&mut ev, r),
            "family" => take_str(&mut family, r),
            "trace" => take_str(&mut trace, r),
            "span" => take_str(&mut span, r),
            "parent" => take_str(&mut parent, r),
            _ => r.skip_value(),
        })
    } else {
        // Any other document is checked as JSON and then fails on `t`.
        r.skip_value()
    };
    syntax
        .and_then(|()| r.finish())
        .map_err(|e| e.to_string())?;

    let line = Line {
        t: t.got().ok_or("missing numeric `t`")?,
        day: day.got().ok_or("missing numeric `day`")?,
        cat: cat.got().ok_or("missing string `cat`")?,
        ev: ev.got().ok_or("missing string `ev`")?,
        trace: id_field(trace, "trace")?,
        span: id_field(span, "span")?,
        parent: id_field(parent, "parent")?,
        hops: hops.got(),
        detections: detections.got(),
        family: family.got(),
    };
    if line.span.is_some() != line.trace.is_some() {
        return Err("`trace` and `span` must appear together".into());
    }
    if line.parent.is_some() && line.span.is_none() {
        return Err("`parent` without `span`".into());
    }
    Ok(line)
}

/// Feeds each line of `source` to `each` with its 1-based number and its
/// line ending (the ones `str::lines` strips) removed, reusing one buffer.
/// The error is the number of the line that failed and what was wrong.
fn for_each_line(
    mut source: impl BufRead,
    mut each: impl FnMut(usize, &str) -> Result<(), String>,
) -> Result<(), (usize, String)> {
    let mut buf = String::new();
    for n in 1usize.. {
        buf.clear();
        match source.read_line(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err((n, e.to_string())),
        }
        let line = buf
            .strip_suffix('\n')
            .map_or(buf.as_str(), |l| l.strip_suffix('\r').unwrap_or(l));
        each(n, line).map_err(|e| (n, e))?;
    }
    Ok(())
}

const HAS_TRACE: u8 = 1;
const HAS_PARENT: u8 = 2;
const HAS_HOPS: u8 = 4;
const HAS_DETECTIONS: u8 = 8;
const HAS_FAMILY: u8 = 16;

/// One event, 64 bytes. `trace` and `span` are set together
/// ([`HAS_TRACE`]); the label fields index the journal's tables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    pub(crate) t: u64,
    day: u64,
    pub(crate) trace: u64,
    pub(crate) span: u64,
    parent: u64,
    hops: u64,
    detections: u64,
    family: u32,
    pub(crate) ev: u16,
    cat: u8,
    flags: u8,
}

impl Record {
    fn opt(&self, flag: u8, v: u64) -> Option<u64> {
        (self.flags & flag != 0).then_some(v)
    }

    pub(crate) fn spanned(&self) -> bool {
        self.flags & HAS_TRACE != 0
    }

    pub(crate) fn parent(&self) -> Option<u64> {
        self.opt(HAS_PARENT, self.parent)
    }

    pub(crate) fn hops(&self) -> Option<u64> {
        self.opt(HAS_HOPS, self.hops)
    }

    pub(crate) fn detections(&self) -> Option<u64> {
        self.opt(HAS_DETECTIONS, self.detections)
    }
}

/// Distinct strings of one field, numbered in order of first appearance.
#[derive(Debug, Default)]
struct Labels {
    names: Vec<String>,
    codes: HashMap<String, u32>,
}

impl Labels {
    /// The code of `label`, or `None` once `max` distinct labels are taken.
    fn intern(&mut self, label: &str, max: u32) -> Option<u32> {
        if let Some(&code) = self.codes.get(label) {
            return Some(code);
        }
        let code = self.names.len() as u32;
        if code > max {
            return None;
        }
        self.names.push(label.to_string());
        self.codes.insert(label.to_string(), code);
        Some(code)
    }
}

/// A borrowed view of one stored event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event<'a> {
    /// Sim-time in microseconds.
    pub t: u64,
    pub day: u64,
    pub cat: &'a str,
    pub ev: &'a str,
    pub trace: Option<u64>,
    pub span: Option<u64>,
    pub parent: Option<u64>,
    pub hops: Option<u64>,
    pub detections: Option<u64>,
    pub family: Option<&'a str>,
}

/// A loaded journal: one fixed-size record per event plus label tables.
#[derive(Debug, Default)]
pub struct Journal {
    records: Vec<Record>,
    cats: Labels,
    evs: Labels,
    families: Labels,
    /// For each blank line of the source, the number of events before it;
    /// non-decreasing and normally empty. Keeps [`Journal::line_of`] exact.
    blanks: Vec<u32>,
}

impl Journal {
    /// Streams a journal: one JSON object per non-blank line. Errors name
    /// the 1-based line.
    pub fn read(source: impl BufRead) -> Result<Journal, String> {
        let mut journal = Journal::default();
        for_each_line(source, |_, line| {
            if journal.records.len() >= u32::MAX as usize {
                return Err(format!("more than {} events", u32::MAX));
            }
            if line.trim().is_empty() {
                journal.blanks.push(journal.records.len() as u32);
                return Ok(());
            }
            journal
                .push(&scan_line(line)?)
                .map_err(|field| format!("too many distinct `{field}` values"))
        })
        .map_err(|(n, e)| format!("line {n}: {e}"))?;
        Ok(journal)
    }

    /// Stores one event; the error names the label field whose table is full.
    fn push(&mut self, line: &Line<'_>) -> Result<(), &'static str> {
        let mut flags = 0;
        for (flag, present) in [
            (HAS_TRACE, line.trace.is_some()),
            (HAS_PARENT, line.parent.is_some()),
            (HAS_HOPS, line.hops.is_some()),
            (HAS_DETECTIONS, line.detections.is_some()),
            (HAS_FAMILY, line.family.is_some()),
        ] {
            if present {
                flags |= flag;
            }
        }
        let family = match &line.family {
            Some(f) => self.families.intern(f, u32::MAX).ok_or("family")?,
            None => 0,
        };
        self.records.push(Record {
            t: line.t,
            day: line.day,
            trace: line.trace.unwrap_or(0),
            span: line.span.unwrap_or(0),
            parent: line.parent.unwrap_or(0),
            hops: line.hops.unwrap_or(0),
            detections: line.detections.unwrap_or(0),
            family,
            ev: self.evs.intern(&line.ev, u16::MAX as u32).ok_or("ev")? as u16,
            cat: self.cats.intern(&line.cat, u8::MAX as u32).ok_or("cat")? as u8,
            flags,
        });
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The event at 0-based `idx`. Panics when out of range.
    pub fn get(&self, idx: usize) -> Event<'_> {
        let r = &self.records[idx];
        Event {
            t: r.t,
            day: r.day,
            cat: &self.cats.names[r.cat as usize],
            ev: self.ev_label(r.ev),
            trace: r.opt(HAS_TRACE, r.trace),
            span: r.opt(HAS_TRACE, r.span),
            parent: r.parent(),
            hops: r.hops(),
            detections: r.detections(),
            family: self.family_of(r),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = Event<'_>> {
        (0..self.len()).map(|idx| self.get(idx))
    }

    /// 1-based line of the source file that event `idx` was read from.
    pub fn line_of(&self, idx: usize) -> usize {
        idx + 1
            + self
                .blanks
                .partition_point(|&before| before as usize <= idx)
    }

    pub(crate) fn records(&self) -> &[Record] {
        &self.records
    }

    pub(crate) fn ev_label(&self, code: u16) -> &str {
        &self.evs.names[code as usize]
    }

    /// The code `label` has in this journal's `ev` table, if it occurs.
    pub(crate) fn ev_code(&self, label: &str) -> Option<u16> {
        self.evs.codes.get(label).map(|&c| c as u16)
    }

    pub(crate) fn family_of(&self, r: &Record) -> Option<&str> {
        (r.flags & HAS_FAMILY != 0).then(|| self.families.names[r.family as usize].as_str())
    }
}

/// Loads a journal held in memory.
pub fn parse_journal(text: &str) -> Result<Journal, String> {
    Journal::read(text.as_bytes())
}

/// Streams a journal file; memory is the [`Journal`] plus one line.
pub fn load_journal(path: &str) -> Result<Journal, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Journal::read(std::io::BufReader::with_capacity(64 * 1024, file))
        .map_err(|e| format!("cannot read {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_64_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 64);
    }

    #[test]
    fn parses_spanned_and_spanless_lines() {
        let text = concat!(
            "{\"t\":1,\"day\":0,\"cat\":\"query\",\"ev\":\"query_matched\",",
            "\"trace\":\"00000000000000aa\",\"span\":\"00000000000000bb\",",
            "\"text\":\"mp3\",\"results\":1,\"hops\":2}\n",
            "\n",
            "{\"t\":2,\"day\":0,\"cat\":\"churn\",\"ev\":\"churn_down\",\"node\":3}\r\n",
            "{\"t\":3,\"day\":0,\"cat\":\"scan\",\"ev\":\"infection\",\"family\":\"w\\u0041\"}",
        );
        let journal = parse_journal(text).unwrap();
        assert_eq!(journal.len(), 3);
        let first = journal.get(0);
        assert_eq!(
            (first.t, first.cat, first.ev),
            (1, "query", "query_matched")
        );
        assert_eq!(first.trace, Some(0xaa));
        assert_eq!(first.span, Some(0xbb));
        assert_eq!(first.parent, None);
        assert_eq!(first.hops, Some(2));
        assert_eq!(first.family, None);
        assert_eq!(journal.get(1).span, None);
        assert_eq!(journal.get(2).family, Some("wA"));
        // The blank line is skipped but still counts as a line.
        assert_eq!(
            [0, 1, 2].map(|i| journal.line_of(i)),
            [1, 3, 4],
            "source lines"
        );
    }

    #[test]
    fn errors_carry_the_line_number() {
        let good = "{\"t\":1,\"day\":0,\"cat\":\"query\",\"ev\":\"q\"}\n";
        let err = parse_journal(&format!("{good}\n{good}{{\"t\":1}}\n")).unwrap_err();
        assert_eq!(err, "line 4: missing numeric `day`");
        let err = parse_journal(&format!("{good}[1,\n")).unwrap_err();
        assert!(
            err.starts_with("line 2: JSON parse error at byte 3"),
            "{err}"
        );
        let err = Journal::read(&b"{\"t\":1}\n\xff\n"[..]).unwrap_err();
        assert!(err.starts_with("line 1: "), "{err}");
        let err = Journal::read(&b"\n\xff\n"[..]).unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
    }

    #[test]
    fn rejects_malformed_provenance() {
        // span without trace
        let bad = "{\"t\":1,\"day\":0,\"cat\":\"query\",\"ev\":\"query_issued\",\"span\":\"01\"}";
        assert!(scan_line(bad).is_err());
        // parent without span
        let bad = "{\"t\":1,\"day\":0,\"cat\":\"query\",\"ev\":\"query_issued\",\"parent\":\"01\"}";
        assert!(scan_line(bad).is_err());
        // non-hex id
        let bad = concat!(
            "{\"t\":1,\"day\":0,\"cat\":\"query\",\"ev\":\"q\",",
            "\"trace\":\"zz\",\"span\":\"01\"}"
        );
        assert!(scan_line(bad).is_err());
    }

    #[test]
    fn label_tables_are_bounded() {
        let mut text = String::new();
        for i in 0..=256 {
            text.push_str(&format!(
                "{{\"t\":1,\"day\":0,\"cat\":\"c{i}\",\"ev\":\"e\"}}\n"
            ));
        }
        assert_eq!(
            parse_journal(&text).unwrap_err(),
            "line 257: too many distinct `cat` values"
        );
    }

    /// The loader this module replaced: build the whole tree, then look
    /// fields up. [`scan_line`] must accept exactly the lines it accepted
    /// and pick the same values.
    fn oracle(line: &str) -> Result<Line<'static>, String> {
        let obj = p2pmal_json::parse(line).map_err(|e| e.to_string())?;
        let need_u64 = |key: &str| {
            obj.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing numeric `{key}`"))
        };
        let need_str = |key: &str| {
            obj.get(key)
                .and_then(Value::as_str)
                .map(|s| Cow::Owned(s.to_string()))
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let id = |key: &str| match obj.get(key) {
            None => Ok(None),
            Some(v) => {
                let s = v
                    .as_str()
                    .ok_or_else(|| format!("`{key}` is not a string"))?;
                parse_span_hex(s)
                    .map(Some)
                    .ok_or_else(|| format!("`{key}` is not a hex id: {s:?}"))
            }
        };
        let line = Line {
            t: need_u64("t")?,
            day: need_u64("day")?,
            cat: need_str("cat")?,
            ev: need_str("ev")?,
            trace: id("trace")?,
            span: id("span")?,
            parent: id("parent")?,
            hops: obj.get("hops").and_then(Value::as_u64),
            detections: obj.get("detections").and_then(Value::as_u64),
            family: need_str("family").ok(),
        };
        if line.span.is_some() != line.trace.is_some() {
            return Err("`trace` and `span` must appear together".into());
        }
        if line.parent.is_some() && line.span.is_none() {
            return Err("`parent` without `span`".into());
        }
        Ok(line)
    }

    #[test]
    fn scanner_agrees_with_the_tree_parser_on_odd_lines() {
        let lines = [
            "",
            "null",
            "[{\"t\":1}]",
            "{}",
            " { \"t\" : 1 , \"day\" : 2 , \"cat\" : \"c\" , \"ev\" : \"e\" } ",
            "{\"ev\":\"e\",\"cat\":\"c\",\"day\":2,\"t\":1}",
            "{\"t\":1,\"t\":\"x\",\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":\"x\",\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"\\u0074\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":1e3,\"day\":2.0,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":1.5,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":-1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":-0,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":1e400,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":18446744073709551616,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"x\":[1,{\"t\":[]}],\"hops\":null}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"x\":[1,}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"} x",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"trace\":7,\"span\":\"1\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"trace\":\"+f\",\"span\":\"1\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"trace\":\"1\",\"span\":\"1\",\"parent\":\"\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"family\":3,\"family\":\"f\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\\\"\\\\\\n\",\"ev\":\"\\q\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"detections\":7,\"hops\":1.5}",
            "{\"t\":1,\"day\":2,\"cat\":tru,\"ev\":\"e\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"unterminated",
        ];
        for line in lines {
            assert_eq!(scan_line(line), oracle(line), "{line:?}");
        }
        let deep = format!(
            "{{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"x\":{}{}}}",
            "[".repeat(200),
            "]".repeat(200)
        );
        assert_eq!(scan_line(&deep), oracle(&deep));
        assert!(scan_line(&deep).is_err());
    }

    const KEYS: [&str; 13] = [
        "t",
        "day",
        "cat",
        "ev",
        "trace",
        "span",
        "parent",
        "hops",
        "detections",
        "family",
        "x",
        "\\u0074",
        "da\\u0079",
    ];
    const VALUES: [&str; 20] = [
        "1",
        "0",
        "-1",
        "2.5",
        "1e3",
        "18446744073709551615",
        "null",
        "true",
        "\"q\"",
        "\"00000000000000aa\"",
        "\"Ab\"",
        "\"zz\"",
        "\"\"",
        "\"a\\n\\u00e9\\\"b\"",
        "\"é\"",
        "[1,{\"t\":2}]",
        "{\"t\":[]}",
        "tru",
        "\"open",
        "[1,",
    ];
    const TAILS: [&str; 5] = ["", " ", "\r", "x", ","];

    proptest::proptest! {
        /// Arbitrary bytes never panic the scanner, and it accepts exactly
        /// what the tree parser plus the old field rules accept.
        #[test]
        fn scanner_matches_oracle_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..120)
        ) {
            let text = String::from_utf8_lossy(&bytes);
            proptest::prop_assert_eq!(scan_line(&text), oracle(&text));
        }

        /// A valid envelope with random fields spliced in anywhere: about
        /// half the lines are accepted, the rest fail in every way the
        /// field rules know.
        #[test]
        fn scanner_matches_oracle_on_journal_shaped_lines(
            edits in proptest::collection::vec(
                (0usize..KEYS.len(), 0usize..VALUES.len(), 0usize..8), 0..5),
            tail in 0usize..TAILS.len()
        ) {
            let mut fields: Vec<(&str, &str)> =
                vec![("t", "7"), ("day", "0"), ("cat", "\"c\""), ("ev", "\"e\"")];
            for (key, value, at) in edits {
                fields.insert(at.min(fields.len()), (KEYS[key], VALUES[value]));
            }
            let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            let text = format!("{{{}}}{}", body.join(","), TAILS[tail]);
            proptest::prop_assert_eq!(scan_line(&text), oracle(&text), "{}", text);
        }

        /// Whatever the bytes, loading either fails with a line number or
        /// stores one event per non-blank line.
        #[test]
        fn journal_read_never_panics(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..200)
        ) {
            match Journal::read(&bytes[..]) {
                Ok(journal) => proptest::prop_assert!(journal.len() <= bytes.len()),
                Err(e) => proptest::prop_assert!(e.starts_with("line "), "{}", e),
            }
        }
    }
}
