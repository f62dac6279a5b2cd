//! The scan engine: signature matching plus recursive archive traversal.

use crate::db::CompiledDb;
use crate::filetype::FileKind;
use p2pmal_archive::zip::ZipArchive;

/// Engine limits, all guarding against adversarial downloads.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Maximum nesting of archives-inside-archives.
    pub max_archive_depth: usize,
    /// Per-entry decompressed-size ceiling.
    pub max_entry_bytes: u64,
    /// Maximum members examined per archive.
    pub max_entries: usize,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            max_archive_depth: 3,
            max_entry_bytes: 32 << 20,
            max_entries: 512,
        }
    }
}

/// One signature hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// Signature name, e.g. `W32.Alcan.A`.
    pub name: String,
    /// Where in the (possibly nested) object the hit occurred, e.g.
    /// `pack.zip!setup.exe`.
    pub location: String,
}

/// Result of scanning one downloaded file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// All distinct signature hits, outermost-first.
    pub detections: Vec<Detection>,
    /// Diagnostics: archives that could not be opened, limits hit.
    pub notes: Vec<String>,
    /// Structured subset of `notes`: content that *failed to decode*
    /// (corrupt archive, unreadable entry). Intentional scan limits (depth,
    /// entry count) are not decode errors. A clean verdict with decode
    /// errors means "could not be scanned", not "benign".
    pub decode_errors: Vec<String>,
}

impl Verdict {
    /// Did any signature match?
    pub fn infected(&self) -> bool {
        !self.detections.is_empty()
    }

    /// The first (primary) detection name, if any. The study attributes
    /// each malicious response to one malware; like the original AV logs we
    /// take the first hit.
    pub fn primary(&self) -> Option<&str> {
        self.detections.first().map(|d| d.name.as_str())
    }

    /// True when nothing matched *and* part of the content failed to
    /// decode: the clean result cannot be trusted. An infected verdict is
    /// never unscannable — a raw-byte signature hit on a corrupt archive is
    /// a real detection.
    pub fn unscannable(&self) -> bool {
        self.detections.is_empty() && !self.decode_errors.is_empty()
    }
}

/// Reusable inflate buffers for archive traversal: one per nesting level.
/// [`Scanner::scan_with_scratch`] inflates deflated members into these
/// instead of allocating a fresh `Vec` per member (stored members are not
/// extracted at all: they are examined where they lie in the enclosing
/// body), so a long batch of scans settles into zero allocator traffic per
/// body. Each worker thread of the batched scan service owns one.
#[derive(Default)]
pub struct ScanScratch {
    levels: Vec<Vec<u8>>,
}

impl ScanScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Detaches the buffer for `depth` (empty if never used) so the caller
    /// can fill it while deeper recursion uses the later levels.
    fn take_level(&mut self, depth: usize) -> Vec<u8> {
        if depth < self.levels.len() {
            std::mem::take(&mut self.levels[depth])
        } else {
            Vec::new()
        }
    }

    /// Returns a buffer (and its capacity) to level `depth` for reuse.
    fn put_level(&mut self, depth: usize, buf: Vec<u8>) {
        if depth >= self.levels.len() {
            self.levels.resize_with(depth + 1, Vec::new);
        }
        self.levels[depth] = buf;
    }
}

/// A configured scanner around a compiled signature database.
pub struct Scanner {
    db: CompiledDb,
    config: ScanConfig,
}

impl Scanner {
    pub fn new(db: CompiledDb) -> Self {
        Scanner {
            db,
            config: ScanConfig::default(),
        }
    }

    pub fn with_config(db: CompiledDb, config: ScanConfig) -> Self {
        Scanner { db, config }
    }

    /// Access to the underlying database (e.g. for listing names).
    pub fn db(&self) -> &CompiledDb {
        &self.db
    }

    /// Scans a downloaded file: signature-matches the raw bytes, and if the
    /// content is a ZIP archive, recurses into its members.
    pub fn scan(&self, name: &str, data: &[u8]) -> Verdict {
        self.scan_with_scratch(name, data, &mut ScanScratch::new())
    }

    /// Like [`Scanner::scan`], reusing the caller's [`ScanScratch`] for
    /// archive-member decompression. Verdicts are identical to `scan`; only
    /// allocator traffic differs.
    pub fn scan_with_scratch(&self, name: &str, data: &[u8], scratch: &mut ScanScratch) -> Verdict {
        let mut walk = Walk {
            root: name,
            path: Vec::new(),
            verdict: Verdict {
                detections: Vec::new(),
                notes: Vec::new(),
                decode_errors: Vec::new(),
            },
            scratch,
            member_budget: self
                .config
                .max_entry_bytes
                .saturating_mul(MEMBER_BUDGET_ENTRIES),
            budget_reached: false,
        };
        self.scan_inner(&mut walk, data, 0, false);
        walk.verdict
    }

    /// `matched`: a matcher pass over an enclosing body already covered
    /// every byte of `data` (it is a stored member, a slice of that body),
    /// so any signature in it is already reported, under the outer location.
    fn scan_inner(&self, walk: &mut Walk<'_>, data: &[u8], depth: usize, matched: bool) {
        if !matched {
            let Walk {
                root,
                path,
                verdict,
                ..
            } = walk;
            self.db.matches_each(data, |hit| {
                // Location strings materialize only for a *new* detection;
                // the common clean scan allocates nothing on this path.
                if !verdict.detections.iter().any(|d| d.name == hit) {
                    verdict.detections.push(Detection {
                        name: hit.to_string(),
                        location: render_location(root, path),
                    });
                }
            });
        }
        if FileKind::from_magic(data) != FileKind::Zip {
            return;
        }
        if depth >= self.config.max_archive_depth {
            walk.note("archive depth limit reached");
            return;
        }
        let archive = match ZipArchive::parse_with_limit(data, self.config.max_entry_bytes) {
            Ok(archive) => archive,
            Err(e) => return walk.decode_error(format_args!("corrupt archive ({e})")),
        };
        // This level's buffer is detached while deeper recursion borrows
        // the scratch for the levels below it.
        let mut buf = walk.scratch.take_level(depth);
        for (i, entry) in archive.entries().iter().enumerate() {
            if i >= self.config.max_entries {
                walk.note("entry limit reached");
                break;
            }
            // Directory entries may alias one member or nest it, so the
            // bytes a body makes the engine examine are budgeted as a whole.
            // An entry over the per-entry ceiling is refused below unread.
            let size = u64::from(entry.uncompressed_size);
            if size <= self.config.max_entry_bytes {
                if size > walk.member_budget {
                    walk.note("member byte budget reached");
                    walk.budget_reached = true;
                    break;
                }
                walk.member_budget -= size;
            }
            walk.path.push(entry.name.clone());
            let member = match archive.stored(i) {
                Ok(Some(slice)) => Ok((slice, true)),
                Ok(None) => archive.read_into(i, &mut buf).map(|()| (&buf[..], false)),
                Err(e) => Err(e),
            };
            match member {
                Ok((bytes, matched)) => self.scan_inner(walk, bytes, depth + 1, matched),
                Err(e) => walk.decode_error(format_args!("unreadable ({e})")),
            }
            walk.path.pop();
            if walk.budget_reached {
                break;
            }
        }
        walk.scratch.put_level(depth, buf);
    }
}

/// Member bytes one top-level body may make the engine examine (CRC-check
/// or inflate), all nesting levels together, in units of
/// [`ScanConfig::max_entry_bytes`]. The largest body a study downloads is
/// a quarter of one unit.
const MEMBER_BUDGET_ENTRIES: u64 = 4;

/// One top-level scan in flight.
struct Walk<'a> {
    root: &'a str,
    /// Member names from the root down to the object being examined.
    path: Vec<String>,
    verdict: Verdict,
    scratch: &'a mut ScanScratch,
    /// Member bytes this scan may still examine.
    member_budget: u64,
    /// The budget note is written; every level stops.
    budget_reached: bool,
}

impl Walk<'_> {
    /// Records a scan limit hit at the current location.
    fn note(&mut self, what: &str) {
        let location = render_location(self.root, &self.path);
        self.verdict.notes.push(format!("{location}: {what}"));
    }

    /// Records content at the current location that failed to decode.
    fn decode_error(&mut self, what: std::fmt::Arguments<'_>) {
        let msg = format!("{}: {what}", render_location(self.root, &self.path));
        self.verdict.notes.push(msg.clone());
        self.verdict.decode_errors.push(msg);
    }
}

/// Renders a nested-object location, e.g. `pack.zip!setup.exe`.
fn render_location(root: &str, path: &[String]) -> String {
    let mut s = String::with_capacity(root.len() + path.iter().map(|p| p.len() + 1).sum::<usize>());
    s.push_str(root);
    for p in path {
        s.push('!');
        s.push_str(p);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::SignatureDb;
    use p2pmal_archive::zip::{Method, ZipWriter};
    use proptest::prelude::*;

    fn scanner(entries: &[(&str, &[u8])]) -> Scanner {
        let mut db = SignatureDb::new();
        for (n, p) in entries {
            db.add_literal(n, p).unwrap();
        }
        Scanner::new(db.build().unwrap())
    }

    #[test]
    fn clean_file() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let v = s.scan("file.exe", b"MZ nothing suspicious at all");
        assert!(!v.infected());
        assert_eq!(v.primary(), None);
    }

    #[test]
    fn infected_exe() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let v = s.scan("file.exe", b"MZ junk EVILBYTES junk");
        assert!(v.infected());
        assert_eq!(v.primary(), Some("Worm.A"));
        assert_eq!(v.detections[0].location, "file.exe");
    }

    /// A compressible executable body carrying the signature: after DEFLATE
    /// the signature bytes are no longer visible in the raw archive, so a
    /// detection proves the engine actually decompressed the member.
    fn infected_exe_body() -> Vec<u8> {
        let mut body = b"MZ ".to_vec();
        body.extend(std::iter::repeat_n(b'x', 400));
        body.extend_from_slice(b"EVILBYTES");
        body.extend(std::iter::repeat_n(b'y', 400));
        body
    }

    #[test]
    fn infected_inside_zip() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut w = ZipWriter::new();
        w.add("setup.exe", &infected_exe_body(), Method::Deflate);
        w.add("readme.txt", b"totally normal", Method::Stored);
        let archive = w.finish();
        // Signature must not be visible raw, or the test proves nothing.
        assert!(!s.db().is_infected(&archive[..archive.len().min(30)]));
        let v = s.scan("bundle.zip", &archive);
        assert!(v.infected());
        assert_eq!(v.detections[0].location, "bundle.zip!setup.exe");
    }

    #[test]
    fn nested_zip_recursion() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut inner = ZipWriter::new();
        inner.add("x.exe", &infected_exe_body(), Method::Deflate);
        let mut outer = ZipWriter::new();
        outer.add("inner.zip", &inner.finish(), Method::Stored);
        let v = s.scan("outer.zip", &outer.finish());
        assert!(v.infected());
        assert_eq!(v.detections[0].location, "outer.zip!inner.zip!x.exe");
    }

    #[test]
    fn depth_limit_stops_recursion() {
        let s = Scanner::with_config(
            {
                let mut db = SignatureDb::new();
                db.add_literal("Worm.A", b"EVILBYTES").unwrap();
                db.build().unwrap()
            },
            ScanConfig {
                max_archive_depth: 1,
                ..Default::default()
            },
        );
        let mut inner = ZipWriter::new();
        inner.add("x.exe", &infected_exe_body(), Method::Deflate);
        let mut outer = ZipWriter::new();
        outer.add("inner.zip", &inner.finish(), Method::Stored);
        let v = s.scan("outer.zip", &outer.finish());
        // Depth 1 allows opening outer but not inner.
        assert!(!v.infected());
        assert!(v.notes.iter().any(|n| n.contains("depth limit")));
    }

    #[test]
    fn corrupt_zip_noted_not_fatal() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut fake = b"PK\x03\x04".to_vec();
        fake.extend_from_slice(b"garbage that is not a zip EVILBYTES");
        let v = s.scan("broken.zip", &fake);
        // Raw-byte signature still fires even though the archive is corrupt.
        assert!(v.infected());
        assert!(v.notes.iter().any(|n| n.contains("corrupt archive")));
    }

    #[test]
    fn truncated_zip_is_unscannable_not_clean() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut w = ZipWriter::new();
        w.add("setup.exe", &infected_exe_body(), Method::Deflate);
        let archive = w.finish();
        let v = s.scan("cut.zip", &archive[..archive.len() / 2]);
        // No silent clean verdict for undecodable bytes: the half archive
        // has no readable member, so the verdict must say so.
        assert!(!v.infected());
        assert!(v.unscannable(), "truncated archive must be unscannable");
        assert!(v.decode_errors[0].contains("corrupt archive"));
    }

    /// Fuzz-style: bit-flipped archives never panic the engine, and any
    /// verdict without detections that saw a decode failure self-reports
    /// as unscannable rather than clean.
    #[test]
    fn bit_flipped_zip_never_panics_never_silently_clean() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut w = ZipWriter::new();
        w.add("setup.exe", &infected_exe_body(), Method::Deflate);
        w.add("notes.txt", b"plain text member", Method::Stored);
        let archive = w.finish();
        let mut rng = StdRng::seed_from_u64(42);
        let mut unscannable = 0;
        for _ in 0..500 {
            let mut garbled = archive.clone();
            let bit = rng.gen_range(0..garbled.len() * 8);
            garbled[bit / 8] ^= 1 << (bit % 8);
            let v = s.scan("flip.zip", &garbled);
            if v.unscannable() {
                unscannable += 1;
                assert!(!v.decode_errors.is_empty());
            }
        }
        // With a single flipped bit a healthy fraction of mutants must be
        // caught as undecodable (CRC mismatch, bad Huffman table, ...).
        assert!(unscannable > 0, "no mutant was flagged unscannable");
    }

    #[test]
    fn infected_but_corrupt_archive_stays_a_detection() {
        // A raw-signature hit on a corrupt archive is a detection, not an
        // unscannable verdict — corruption must never launder a positive.
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut fake = b"PK\x03\x04".to_vec();
        fake.extend_from_slice(b"EVILBYTES but the zip structure is gone");
        let v = s.scan("broken.zip", &fake);
        assert!(v.infected());
        assert!(!v.unscannable());
        assert!(!v.decode_errors.is_empty());
    }

    #[test]
    fn scratch_reuse_matches_fresh_scan() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut inner = ZipWriter::new();
        inner.add("x.exe", &infected_exe_body(), Method::Deflate);
        let mut outer = ZipWriter::new();
        outer.add("inner.zip", &inner.finish(), Method::Stored);
        outer.add("clean.exe", b"MZ nothing here", Method::Deflate);
        let nested = outer.finish();
        let mut flat = ZipWriter::new();
        flat.add("a.exe", &infected_exe_body(), Method::Deflate);
        let flat = flat.finish();
        let mut scratch = ScanScratch::new();
        // Same scratch across differently-shaped bodies; every verdict must
        // equal the fresh-allocation scan.
        for (name, body) in [
            ("outer.zip", nested.as_slice()),
            ("flat.zip", flat.as_slice()),
            ("outer.zip", nested.as_slice()),
            ("plain.exe", b"MZ EVILBYTES".as_slice()),
        ] {
            assert_eq!(
                s.scan_with_scratch(name, body, &mut scratch),
                s.scan(name, body)
            );
        }
    }

    /// `archive` with its central directory repeated `copies` times: every
    /// directory entry then has `copies` aliases, all naming the same local
    /// headers and data.
    fn alias_members(archive: &[u8], copies: usize) -> Vec<u8> {
        let eocd = archive.len() - 22;
        let le32 = |at: usize| u32::from_le_bytes(archive[at..at + 4].try_into().unwrap());
        let (entries, cd_offset) = (
            u16::from_le_bytes(archive[eocd + 10..eocd + 12].try_into().unwrap()),
            le32(eocd + 16) as usize,
        );
        let directory = &archive[cd_offset..eocd];
        let mut out = archive[..cd_offset].to_vec();
        out.extend(directory.repeat(copies));
        let mut tail = archive[eocd..].to_vec();
        let total = (entries as usize * copies) as u16;
        tail[8..10].copy_from_slice(&total.to_le_bytes());
        tail[10..12].copy_from_slice(&total.to_le_bytes());
        tail[12..16].copy_from_slice(&((directory.len() * copies) as u32).to_le_bytes());
        out.extend(tail);
        out
    }

    #[test]
    fn aliased_members_stop_at_the_byte_budget() {
        // 64 directory entries, one 1 MiB member: without a budget on the
        // sum, 64 CRC passes (512 x 32 MiB at the default limits) from one
        // small download.
        let mut db = SignatureDb::new();
        db.add_literal("Worm.A", b"EVILBYTES").unwrap();
        let s = Scanner::with_config(
            db.build().unwrap(),
            ScanConfig {
                max_entry_bytes: 1 << 20,
                ..Default::default()
            },
        );
        let mut member = vec![0x5Au8; 1 << 20];
        member[1000..1009].copy_from_slice(b"EVILBYTES");
        let mut w = ZipWriter::new();
        w.add("big.bin", &member, Method::Stored);
        let bomb = alias_members(&w.finish(), 64);
        assert_eq!(ZipArchive::parse(&bomb).unwrap().len(), 64);
        let v = s.scan("bomb.zip", &bomb);
        // Four members fit the budget; the fifth stops the scan with a
        // note — the content is not corrupt, so no decode error.
        assert_eq!(v.notes, ["bomb.zip: member byte budget reached"]);
        assert!(v.decode_errors.is_empty());
        assert_eq!(v.primary(), Some("Worm.A"), "raw-byte detection intact");
        assert_eq!(v.detections[0].location, "bomb.zip");
    }

    #[test]
    fn the_byte_budget_spans_nesting_levels() {
        // A 1,360-byte budget (4 x 340): the outer archive spends 1,334 on
        // three plain members and a nested archive, whose own 200-byte
        // member no longer fits.
        let mut db = SignatureDb::new();
        db.add_literal("Worm.A", b"EVILBYTES").unwrap();
        let s = Scanner::with_config(
            db.build().unwrap(),
            ScanConfig {
                max_entry_bytes: 340,
                ..Default::default()
            },
        );
        let mut inner = ZipWriter::new();
        inner.add("deep.exe", &infected_exe_body()[..200], Method::Stored);
        let inner = inner.finish();
        assert_eq!(inner.len(), 314);
        let mut outer = ZipWriter::new();
        outer.add("a.bin", &[1u8; 340], Method::Stored);
        outer.add("b.bin", &[2u8; 340], Method::Stored);
        outer.add("c.bin", &[4u8; 340], Method::Stored);
        outer.add("inner.zip", &inner, Method::Stored);
        outer.add("never.bin", &[3u8; 340], Method::Stored);
        let v = s.scan("outer.zip", &outer.finish());
        assert_eq!(
            v.notes,
            ["outer.zip!inner.zip: member byte budget reached"],
            "one note, where the budget ran out; the outer loop stops too"
        );
    }

    /// The traversal as it was before stored members were examined where
    /// they lie: every member is copied out and matched again. Kept as the
    /// oracle for the equivalence proptest (the byte budget is the one rule
    /// the two share).
    fn reference_scan(s: &Scanner, root: &str, data: &[u8]) -> Verdict {
        struct Ref<'a> {
            s: &'a Scanner,
            root: &'a str,
            path: Vec<String>,
            verdict: Verdict,
            budget: u64,
            stop: bool,
        }
        fn go(r: &mut Ref<'_>, data: &[u8], depth: usize) {
            let here = render_location(r.root, &r.path);
            for hit in r.s.db.matches(data) {
                if !r.verdict.detections.iter().any(|d| d.name == hit) {
                    r.verdict.detections.push(Detection {
                        name: hit.to_string(),
                        location: here.clone(),
                    });
                }
            }
            if FileKind::from_magic(data) != FileKind::Zip {
                return;
            }
            let config = &r.s.config;
            if depth >= config.max_archive_depth {
                r.verdict
                    .notes
                    .push(format!("{here}: archive depth limit reached"));
                return;
            }
            let archive = match ZipArchive::parse_with_limit(data, config.max_entry_bytes) {
                Ok(archive) => archive,
                Err(e) => {
                    let msg = format!("{here}: corrupt archive ({e})");
                    r.verdict.notes.push(msg.clone());
                    r.verdict.decode_errors.push(msg);
                    return;
                }
            };
            for (i, entry) in archive.entries().iter().enumerate() {
                if i >= config.max_entries {
                    r.verdict.notes.push(format!("{here}: entry limit reached"));
                    break;
                }
                let size = entry.uncompressed_size as u64;
                if size <= config.max_entry_bytes {
                    if size > r.budget {
                        r.verdict
                            .notes
                            .push(format!("{here}: member byte budget reached"));
                        r.stop = true;
                        break;
                    }
                    r.budget -= size;
                }
                r.path.push(entry.name.clone());
                match archive.read(i) {
                    Ok(member) => go(r, &member, depth + 1),
                    Err(e) => {
                        let msg = format!("{}: unreadable ({e})", render_location(r.root, &r.path));
                        r.verdict.notes.push(msg.clone());
                        r.verdict.decode_errors.push(msg);
                    }
                }
                r.path.pop();
                if r.stop {
                    break;
                }
            }
        }
        let mut r = Ref {
            s,
            root,
            path: Vec::new(),
            verdict: Verdict {
                detections: Vec::new(),
                notes: Vec::new(),
                decode_errors: Vec::new(),
            },
            budget: s
                .config
                .max_entry_bytes
                .saturating_mul(MEMBER_BUDGET_ENTRIES),
            stop: false,
        };
        go(&mut r, data, 0);
        r.verdict
    }

    /// Offsets of the central-directory records of a writer-made archive.
    fn directory_records(archive: &[u8]) -> Vec<usize> {
        let eocd = archive.len() - 22;
        let le16 = |at: usize| u16::from_le_bytes(archive[at..at + 2].try_into().unwrap()) as usize;
        let mut at = u32::from_le_bytes(archive[eocd + 16..eocd + 20].try_into().unwrap()) as usize;
        (0..le16(eocd + 10))
            .map(|_| {
                let record = at;
                at += 46 + le16(at + 28);
                record
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary archives — stored / deflated mixes, stored ZIPs inside
        /// stored ZIPs up to and past the depth limit, more members than
        /// the entry limit, signatures inside members, across a header /
        /// data boundary and across two members, then damaged — get the
        /// verdict the copy-everything-and-match-again traversal gives:
        /// same detections at the same locations, same notes, same decode
        /// errors, in the same order.
        #[test]
        fn prop_verdict_equals_the_copying_reference(
            members in proptest::collection::vec(
                (0u8..10, proptest::collection::vec(any::<u8>(), 0..120)),
                0..9
            ),
            wraps in 0usize..4,
            damage in (0u8..10, any::<u32>(), any::<u8>()),
            limits in (1usize..4, 1usize..24, 0usize..3)
        ) {
            let mut db = SignatureDb::new();
            db.add_literal("Worm.A", b"EVILBYTES").unwrap();
            // Two parts, any gap: can match across two members of a raw
            // body without matching inside either.
            db.add_hex("Trojan.B", "4741505354415254*474150454e445f5f").unwrap();
            let s = Scanner::with_config(
                db.build().unwrap(),
                ScanConfig {
                    max_archive_depth: limits.0,
                    max_entries: limits.1,
                    max_entry_bytes: [150, 1500, 1 << 20][limits.2],
                },
            );
            let mut w = ZipWriter::new();
            for (i, (kind, data)) in members.iter().enumerate() {
                let with = |marker: &[u8]| {
                    let mut body = data.clone();
                    body.splice(data.len() / 2..data.len() / 2, marker.iter().copied());
                    body
                };
                let name = format!("m{i}.bin");
                match kind {
                    0 => w.add(&name, data, Method::Stored),
                    1 => w.add(&name, &data.repeat(4), Method::Deflate),
                    2 => w.add(&name, &with(b"EVILBYTES"), Method::Stored),
                    // Compressible, so the signature is not visible raw.
                    3 | 8 => w.add(&name, &with(b"EVILBYTES").repeat(4), Method::Deflate),
                    // Half the signature in the header, half in the data.
                    4 => {
                        let body = [b"BYTES", &data[..]].concat();
                        w.add(&format!("m{i}EVIL"), &body, Method::Stored);
                    }
                    5 => w.add(&name, &with(b"GAPSTART"), Method::Stored),
                    6 => w.add(&name, &with(b"GAPEND__").repeat(1 + i % 2 * 3), Method::Deflate),
                    // Everything so far becomes a nested archive, followed
                    // by the members still to come.
                    _ => {
                        let inner = std::mem::take(&mut w).finish();
                        let method = [Method::Stored, Method::Deflate][data.len() % 2];
                        w.add(&format!("nest{i}.zip"), &inner, method);
                    }
                }
            }
            let mut bytes = w.finish();
            for level in 0..wraps {
                let mut outer = ZipWriter::new();
                outer.add(&format!("wrap{level}.zip"), &bytes, Method::Stored);
                bytes = outer.finish();
            }
            let (how, x, bit) = (damage.0, damage.1 as usize, 1u8 << (damage.2 % 8));
            let (len, records) = (bytes.len(), directory_records(&bytes));
            match how {
                // A flipped bit anywhere: member data, a header, a name.
                0 => bytes[x % len] ^= bit,
                // ... in a CRC field.
                1 if !records.is_empty() => bytes[records[x % records.len()] + 16 + x % 4] ^= bit,
                // A size field that lies.
                2 if !records.is_empty() => {
                    let at = records[x % records.len()] + 20 + x % 2 * 4;
                    bytes[at..at + 4].copy_from_slice(&((x / 8 % 3000) as u32).to_le_bytes());
                }
                // A truncated tail.
                3 => bytes.truncate(len - 1 - x % 22),
                // Aliased members: the directory several times over.
                4 | 5 => bytes = alias_members(&bytes, 2 + x % 30),
                _ => {}
            }
            prop_assert_eq!(s.scan("top.zip", &bytes), reference_scan(&s, "top.zip", &bytes));
        }

        /// Arbitrary bytes behind the ZIP magic — random, or a real archive
        /// overwritten at random — never panic the engine, and whatever
        /// fails to decode is reported.
        #[test]
        fn prop_hostile_bytes_behind_the_zip_magic_never_panic(
            noise in proptest::collection::vec(any::<u8>(), 0..400),
            edits in proptest::collection::vec((any::<u32>(), any::<u8>()), 0..12),
            real in any::<bool>()
        ) {
            let s = scanner(&[("Worm.A", b"EVILBYTES")]);
            let mut bytes = noise.clone();
            if real {
                let mut inner = ZipWriter::new();
                inner.add("x.exe", &infected_exe_body(), Method::Deflate);
                let mut w = ZipWriter::new();
                w.add("inner.zip", &inner.finish(), Method::Stored);
                w.add("noise.bin", &noise, Method::Deflate);
                bytes = w.finish();
                for (at, byte) in edits {
                    let at = at as usize % bytes.len();
                    bytes[at] = byte;
                }
            }
            bytes.splice(..bytes.len().min(4), *b"PK\x03\x04");
            let v = s.scan("hostile.zip", &bytes);
            prop_assert!(v.decode_errors.iter().all(|e| v.notes.contains(e)));
            prop_assert_eq!(v, reference_scan(&s, "hostile.zip", &bytes));
        }
    }

    #[test]
    fn multiple_distinct_malware_reported_once_each() {
        let s = scanner(&[("Worm.A", b"AAAAAA"), ("Trojan.B", b"BBBBBB")]);
        let v = s.scan("f.exe", b"AAAAAA BBBBBB AAAAAA");
        let names: Vec<&str> = v.detections.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["Worm.A", "Trojan.B"]);
    }

    #[test]
    fn same_malware_in_zip_and_raw_deduped() {
        // Stored members leave the signature visible in the raw archive
        // too; the verdict still reports the name exactly once.
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut w = ZipWriter::new();
        w.add("a.exe", b"EVILBYTES", Method::Stored);
        w.add("b.exe", b"EVILBYTES", Method::Stored);
        let v = s.scan("two.zip", &w.finish());
        assert_eq!(v.detections.len(), 1, "one name, one report");
        assert_eq!(v.detections[0].location, "two.zip");
    }
}
