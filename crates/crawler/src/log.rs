//! The measurement log: what the instrumented clients record.
//!
//! The study's unit of measurement is the *query response*. Every response
//! row carries the query that elicited it, the advertised file name/size,
//! and the advertised source. Downloadable responses (archives and
//! executables, judged by extension exactly as the paper did) are fetched,
//! hashed, and scanned; the resulting verdict is attached to every response
//! that resolves to the same content.
//!
//! Download deduplication mirrors the study's practicality constraint: the
//! same (filename, size) pair is fetched once, and the same (host, size)
//! pair is fetched once — the second rule is what keeps query-echo worms
//! (fresh filename per query, constant payload) from forcing one download
//! per response.

use p2pmal_hashes::Sha1Digest;
use p2pmal_netsim::{FastHash, SimTime};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Which instrumented network produced a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Network {
    Limewire,
    OpenFt,
}

impl Network {
    pub fn label(self) -> &'static str {
        match self {
            Network::Limewire => "LimeWire",
            Network::OpenFt => "OpenFT",
        }
    }
}

/// Extensions the study counted as the "archives and executables" class.
pub const DOWNLOADABLE_EXTENSIONS: [&str; 7] = ["exe", "zip", "rar", "com", "scr", "bat", "msi"];

/// True when `name`'s extension puts it in the downloadable class.
pub fn is_downloadable_name(name: &str) -> bool {
    name.rsplit_once('.').is_some_and(|(_, ext)| {
        DOWNLOADABLE_EXTENSIONS
            .iter()
            .any(|d| ext.eq_ignore_ascii_case(d))
    })
}

/// Immutable text shared by reference count. A month of responses repeats
/// a few thousand distinct queries and file names millions of times, so a
/// record holds handles: cloning one bumps a count, and every comparison,
/// ordering and hash is by content, exactly as for the `String` it
/// replaces. The handle is one pointer (8 bytes, and so is an
/// `Option<Text>`): the length lives in the shared allocation beside the
/// counts, not in every record.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Text(Arc<Box<str>>);

impl Text {
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Heap bytes behind one distinct text: the shared allocation (two
    /// counts and the boxed string's pointer and length) plus its bytes.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        2 * size_of::<usize>() + size_of::<Box<str>>() + self.len()
    }
}

impl std::ops::Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl std::borrow::Borrow<str> for Text {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text(Arc::new(s.into()))
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text(Arc::new(s.into_boxed_str()))
    }
}

/// Dedup table behind [`Text`]: one shared handle per distinct string that
/// passes through it, which is two allocations (the counts with the boxed
/// string, then its bytes). Each log producer (a crawler, a cache loader)
/// owns one; it is deliberately not the world's `NameInterner`, which every
/// node shares and which query-echo worms — a fresh name per query — would
/// grow without bound.
#[derive(Debug, Default)]
pub struct TextTable(HashSet<Text, FastHash>);

impl TextTable {
    pub fn intern(&mut self, s: &str) -> Text {
        if let Some(t) = self.0.get(s) {
            return t.clone();
        }
        let t = Text::from(s);
        self.0.insert(t.clone());
        t
    }
}

/// Identity of a responding host, as well as the crawler can observe it.
/// Gnutella hits carry a stable servent GUID; OpenFT results carry the
/// serving host's address.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HostKey {
    Guid([u8; 16]),
    Addr(Ipv4Addr, u16),
}

/// A [`HostKey`] shared by reference count. A month of responses repeats
/// a few hundred responders millions of times, so a record holds one
/// pointer (8 bytes, and so is an `Option<Host>`) to its responder's one
/// allocation instead of the 18-byte key. It derefs to the key, and every comparison, ordering
/// and hash is the key's — `{:?}` too, so digests that format a record's
/// host print exactly what the key printed.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Host(Arc<HostKey>);

impl std::ops::Deref for Host {
    type Target = HostKey;

    fn deref(&self) -> &HostKey {
        &self.0
    }
}

impl std::borrow::Borrow<HostKey> for Host {
    fn borrow(&self) -> &HostKey {
        &self.0
    }
}

impl fmt::Debug for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl From<HostKey> for Host {
    fn from(key: HostKey) -> Self {
        Host(Arc::new(key))
    }
}

/// Dedup table behind [`Host`]: one shared allocation per distinct
/// responder, kept by each log producer beside its [`TextTable`]. Empty
/// until the first insert, so building one allocates nothing.
#[derive(Debug, Default)]
pub struct HostTable(HashSet<Host, FastHash>);

impl HostTable {
    pub fn intern(&mut self, key: HostKey) -> Host {
        if let Some(h) = self.0.get(&key) {
            return h.clone();
        }
        let h = Host::from(key);
        self.0.insert(h.clone());
        h
    }
}

/// One logged query response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseRecord {
    pub at: SimTime,
    /// Simulated-day index, the time-series bucket. A `u64` of
    /// microseconds spans fewer than 2.2 × 10⁸ days, so [`SimTime::day`]
    /// always fits.
    pub day: u32,
    pub query: Text,
    pub filename: Text,
    /// Advertised size: both wires carry a `u32` (Gnutella's hit result,
    /// OpenFT's search result).
    pub size: u32,
    /// Address the responder *advertised* (RFC 1918 leaks live here).
    pub source_ip: Ipv4Addr,
    pub source_port: u16,
    /// The responder declared it needs a PUSH (Gnutella only).
    pub needs_push: bool,
    pub host: Host,
    /// Extension-classified downloadable (archive/executable) response.
    pub downloadable: bool,
}

/// Content-level result of downloading + scanning one deduplicated object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanOutcome {
    /// Downloaded and scanned.
    Scanned {
        sha1: Sha1Digest,
        len: u64,
        /// Detected malware names (empty = clean).
        detections: Vec<String>,
    },
    /// All download attempts failed.
    Unreachable,
    /// The body was downloaded but its content could not be decoded for
    /// scanning (truncated or bit-flipped archive). Distinct from a silent
    /// clean verdict: the study must not count garbage as benign.
    Unscannable {
        /// First decode error, e.g. `corrupt archive (truncated)`.
        reason: String,
    },
}

impl ScanOutcome {
    pub fn is_malicious(&self) -> bool {
        matches!(self, ScanOutcome::Scanned { detections, .. } if !detections.is_empty())
    }

    /// The primary (first) detection, the paper's attribution rule.
    pub fn primary(&self) -> Option<&str> {
        match self {
            ScanOutcome::Scanned { detections, .. } => detections.first().map(|s| s.as_str()),
            ScanOutcome::Unreachable | ScanOutcome::Unscannable { .. } => None,
        }
    }
}

/// Dedup keys a response resolves through.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NameSizeKey(pub String, pub u32);

impl NameSizeKey {
    /// Re-keys `self` to `r` (lowered file name, size), reusing the
    /// string's storage: a pass over many records keeps one key.
    pub(crate) fn assign(&mut self, r: &ResponseRecord) {
        self.0.clear();
        self.0.push_str(&r.filename);
        self.0.make_ascii_lowercase();
        self.1 = r.size;
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HostSizeKey(pub HostKey, pub u32);

/// Sets in [`JoinMemo`], two rows each.
const MEMO_SETS: usize = 2048;

/// A two-way set-associative memo of the rows [`CrawlLog::resolved`] has
/// joined, by (file name, size, host) content: a way holds a row number,
/// and a probe compares that row's fields with the probing row's. A hit
/// names an earlier row whose joined verdict the output already holds.
/// 16 KiB of stack whatever the log holds, so it adds nothing to the heap
/// the resolved copy peaks with; a triple it has evicted is joined again,
/// to the same verdict.
struct JoinMemo {
    sets: [[u32; 2]; MEMO_SETS],
}

impl JoinMemo {
    /// What an empty way holds.
    const EMPTY: u32 = u32::MAX;

    fn new() -> Self {
        JoinMemo {
            sets: [[Self::EMPTY; 2]; MEMO_SETS],
        }
    }

    /// The set a row's triple goes in.
    fn set_of(r: &ResponseRecord) -> usize {
        use std::hash::BuildHasher;
        let key = (r.filename.as_str(), r.size, &*r.host);
        FastHash::default().hash_one(key) as usize % MEMO_SETS
    }

    /// An earlier row with `rows[row]`'s triple, if the memo holds one;
    /// otherwise `row` goes in as its set's newer way, to be joined.
    fn earlier(&mut self, rows: &[ResponseRecord], row: usize) -> Option<usize> {
        let r = &rows[row];
        let set = &mut self.sets[Self::set_of(r)];
        let holds = |way: u32| {
            let k = (way != Self::EMPTY)
                .then(|| rows.get(way as usize))
                .flatten();
            k.is_some_and(|k| k.size == r.size && k.filename == r.filename && k.host == r.host)
        };
        if holds(set[1]) {
            set.swap(0, 1);
        } else if !holds(set[0]) {
            // Rows past `u32::MAX` are joined without the memo.
            set[1] = u32::try_from(row).unwrap_or(Self::EMPTY);
            set.swap(0, 1);
            return None;
        }
        Some(set[0] as usize)
    }
}

/// A response joined with its scan verdict (produced by
/// [`CrawlLog::resolved`]).
#[derive(Debug, Clone)]
pub struct ResolvedResponse {
    pub record: ResponseRecord,
    /// `None` when the content was never successfully scanned.
    pub malware: Option<Text>,
    /// Whether the content was scanned at all (clean or dirty).
    pub scanned: bool,
    /// SHA-1 of the downloaded content, when scanned.
    pub sha1: Option<Sha1Digest>,
}

/// What a [`CrawlLog`] holds and costs (see [`CrawlLog::footprint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogFootprint {
    pub records: u64,
    pub distinct_queries: u64,
    pub distinct_filenames: u64,
    pub heap_bytes: u64,
}

/// The full measurement log for one network over one collection run.
#[derive(Debug, Default)]
pub struct CrawlLog {
    pub responses: Vec<ResponseRecord>,
    /// Scan outcomes by dedup key.
    pub by_name_size: HashMap<NameSizeKey, ScanOutcome>,
    pub by_host_size: HashMap<HostSizeKey, ScanOutcome>,
    /// Diagnostics.
    pub queries_issued: u64,
    pub downloads_attempted: u64,
    pub downloads_failed: u64,
    /// Failed download *attempts* bucketed by cause (including attempts
    /// that a later retry recovered). Invariant:
    /// `failures.total() == retries_scheduled + downloads_failed`.
    pub failures: crate::retry::FailureBreakdown,
    /// Retry attempts scheduled (backoff mode) or taken in-line (legacy
    /// fallback), beyond each object's first attempt.
    pub retries_scheduled: u64,
    /// Retried objects that ultimately downloaded successfully.
    pub retry_successes: u64,
    /// Gnutella Direct→PUSH fallbacks (a subset of the retries above);
    /// previously these were invisible in the log.
    pub push_fallbacks: u64,
    /// Downloaded bodies recorded [`ScanOutcome::Unscannable`].
    pub unscannable: u64,
    /// Download→hash→scan pipeline counters (mirrored from the crawler's
    /// [`crate::scan::ScanPipeline`] after every scan).
    pub scan: crate::scan::ScanStats,
}

impl CrawlLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Dedup keys for a response.
    pub fn keys_of(r: &ResponseRecord) -> (NameSizeKey, HostSizeKey) {
        let mut by_name = NameSizeKey(String::new(), 0);
        by_name.assign(r);
        (by_name, HostSizeKey(HostKey::clone(&r.host), r.size))
    }

    /// The verdict filed under either dedup key, name+size first.
    pub fn outcome_by(&self, nk: &NameSizeKey, hk: &HostSizeKey) -> Option<&ScanOutcome> {
        self.by_name_size
            .get(nk)
            .or_else(|| self.by_host_size.get(hk))
    }

    /// Whether this response's content already has (or is known to never
    /// get) a verdict.
    pub fn outcome_of(&self, r: &ResponseRecord) -> Option<&ScanOutcome> {
        let (nk, hk) = Self::keys_of(r);
        self.outcome_by(&nk, &hk)
    }

    /// Records a scan outcome under both dedup keys.
    pub fn record_outcome(&mut self, r: &ResponseRecord, outcome: ScanOutcome) {
        let (nk, hk) = Self::keys_of(r);
        self.by_name_size.insert(nk, outcome.clone());
        self.by_host_size.insert(hk, outcome);
    }

    /// Joins every response with its verdict. A verdict depends on the
    /// file name, size and host alone, and a month of responses repeats a
    /// few thousand of those millions of times (2,129 in 1.78 M rows of the
    /// paper's OpenFT run), so a row whose triple a small memo finds in an
    /// earlier row copies that row's verdict and only the others are
    /// joined. Allocates nothing
    /// per record: query and file name are shared with the log, the family
    /// names (tens) are interned once, one lookup key is refilled, and the
    /// memo is a fixed array of row numbers on the stack.
    pub fn resolved(&self) -> Vec<ResolvedResponse> {
        let mut families = TextTable::default();
        let mut nk = NameSizeKey(String::new(), 0);
        let mut memo = JoinMemo::new();
        let mut resolved: Vec<ResolvedResponse> = Vec::with_capacity(self.responses.len());
        for (row, r) in self.responses.iter().enumerate() {
            let (malware, scanned, sha1) = match memo.earlier(&self.responses, row) {
                Some(earlier) => {
                    let e = &resolved[earlier];
                    (e.malware.clone(), e.scanned, e.sha1)
                }
                None => {
                    nk.assign(r);
                    let hk = HostSizeKey(HostKey::clone(&r.host), r.size);
                    let outcome = self.outcome_by(&nk, &hk);
                    let malware = outcome.and_then(|o| o.primary());
                    let (scanned, sha1) = match outcome {
                        Some(ScanOutcome::Scanned { sha1, .. }) => (true, Some(*sha1)),
                        _ => (false, None),
                    };
                    (malware.map(|s| families.intern(s)), scanned, sha1)
                }
            };
            resolved.push(ResolvedResponse {
                record: r.clone(),
                malware,
                scanned,
                sha1,
            });
        }
        resolved
    }

    /// Sizes the log: how many records, how many distinct texts they share
    /// and the heap all of it holds — records by capacity, each distinct
    /// text once (its counted handle and its bytes), each distinct host
    /// allocation once, the two outcome maps. "Distinct" counts
    /// allocations, which a log filled through one [`TextTable`] and one
    /// [`HostTable`] makes distinct strings and responders.
    /// Reported beside the per-node memory estimate, never inside it: the
    /// log belongs to the measurement, not to a node.
    pub fn footprint(&self) -> LogFootprint {
        use std::mem::size_of;
        let mut heap = (self.responses.capacity() * size_of::<ResponseRecord>()) as u64;
        // (shared allocation, bytes behind it) of every text the records
        // point at.
        let at = |t: &Text| (Arc::as_ptr(&t.0), t.heap_bytes());
        let queries: HashSet<_> = self.responses.iter().map(|r| at(&r.query)).collect();
        let filenames: HashSet<_> = self.responses.iter().map(|r| at(&r.filename)).collect();
        // An echoed name can be the query's own allocation: charged once.
        for (_, bytes) in queries.union(&filenames) {
            heap += *bytes as u64;
        }
        let hosts: HashSet<_> = self
            .responses
            .iter()
            .map(|r| Arc::as_ptr(&r.host.0))
            .collect();
        // One shared allocation per host: two counts beside the key.
        heap += (hosts.len() * size_of::<(usize, usize, HostKey)>()) as u64;
        let outcome_bytes = |o: &ScanOutcome| match o {
            ScanOutcome::Scanned { detections, .. } => {
                detections.capacity() * size_of::<String>()
                    + detections.iter().map(String::capacity).sum::<usize>()
            }
            ScanOutcome::Unreachable => 0,
            ScanOutcome::Unscannable { reason } => reason.capacity(),
        };
        heap += p2pmal_corpus::hash_table_bytes(
            self.by_name_size.len(),
            size_of::<(NameSizeKey, ScanOutcome)>(),
        ) + p2pmal_corpus::hash_table_bytes(
            self.by_host_size.len(),
            size_of::<(HostSizeKey, ScanOutcome)>(),
        );
        for (k, o) in &self.by_name_size {
            heap += (k.0.capacity() + outcome_bytes(o)) as u64;
        }
        for o in self.by_host_size.values() {
            heap += outcome_bytes(o) as u64;
        }
        LogFootprint {
            records: self.responses.len() as u64,
            distinct_queries: queries.len() as u64,
            distinct_filenames: filenames.len() as u64,
            heap_bytes: heap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, size: u32, host: HostKey) -> ResponseRecord {
        ResponseRecord {
            at: SimTime::ZERO,
            day: 0,
            query: "q".into(),
            filename: name.into(),
            size,
            source_ip: Ipv4Addr::new(1, 2, 3, 4),
            source_port: 6346,
            needs_push: false,
            host: host.into(),
            downloadable: is_downloadable_name(name),
        }
    }

    #[test]
    fn extension_classification() {
        assert!(is_downloadable_name("setup.exe"));
        assert!(is_downloadable_name("pack.ZIP"));
        assert!(is_downloadable_name("archive.rar"));
        assert!(is_downloadable_name("installer.msi"));
        assert!(!is_downloadable_name("song.mp3"));
        assert!(!is_downloadable_name("movie.avi"));
        assert!(!is_downloadable_name("noextension"));
    }

    #[test]
    fn dedup_by_name_size_spans_hosts() {
        let mut log = CrawlLog::new();
        let a = record(
            "tool.exe",
            1000,
            HostKey::Addr(Ipv4Addr::new(1, 1, 1, 1), 80),
        );
        let b = record(
            "tool.exe",
            1000,
            HostKey::Addr(Ipv4Addr::new(2, 2, 2, 2), 80),
        );
        log.record_outcome(
            &a,
            ScanOutcome::Scanned {
                sha1: p2pmal_hashes::sha1(b"x"),
                len: 1000,
                detections: vec!["W32.Test".into()],
            },
        );
        assert!(
            log.outcome_of(&b).is_some(),
            "same name+size resolves across hosts"
        );
        assert!(log.outcome_of(&b).unwrap().is_malicious());
    }

    #[test]
    fn dedup_by_host_size_spans_names() {
        let mut log = CrawlLog::new();
        let host = HostKey::Guid([7; 16]);
        let a = record("query_one.exe", 58_368, host.clone());
        let b = record("query_two.exe", 58_368, host.clone());
        let c = record("query_two.exe", 1111, host); // different size: miss
        log.record_outcome(
            &a,
            ScanOutcome::Scanned {
                sha1: p2pmal_hashes::sha1(b"worm"),
                len: 58_368,
                detections: vec![],
            },
        );
        assert!(
            log.outcome_of(&b).is_some(),
            "echo worm resolves by host+size"
        );
        assert!(log.outcome_of(&c).is_none());
    }

    #[test]
    fn resolved_joins_verdicts() {
        let mut log = CrawlLog::new();
        let host = HostKey::Guid([1; 16]);
        let a = record("bad.exe", 10, host.clone());
        let b = record("unfetched.exe", 20, host.clone());
        let c = record("dead.exe", 30, host);
        log.responses.extend([a.clone(), b, c.clone()]);
        log.record_outcome(
            &a,
            ScanOutcome::Scanned {
                sha1: p2pmal_hashes::sha1(b"m"),
                len: 10,
                detections: vec!["W32.X".into(), "W32.Y".into()],
            },
        );
        log.record_outcome(&c, ScanOutcome::Unreachable);
        let resolved = log.resolved();
        assert_eq!(
            resolved[0].malware.as_deref(),
            Some("W32.X"),
            "primary detection"
        );
        assert!(resolved[0].scanned);
        assert!(!resolved[1].scanned);
        assert_eq!(resolved[1].malware, None);
        assert!(!resolved[2].scanned, "unreachable is not scanned");
    }

    /// The join as it was before records shared text: fresh keys per
    /// record, every field copied out.
    fn resolved_reference(
        log: &CrawlLog,
    ) -> Vec<(ResponseRecord, Option<String>, bool, Option<Sha1Digest>)> {
        log.responses
            .iter()
            .map(|r| {
                let by_name = NameSizeKey(r.filename.to_ascii_lowercase(), r.size);
                let by_host = HostSizeKey(HostKey::clone(&r.host), r.size);
                let outcome = log
                    .by_name_size
                    .get(&by_name)
                    .or_else(|| log.by_host_size.get(&by_host));
                let sha1 = match outcome {
                    Some(ScanOutcome::Scanned { sha1, .. }) => Some(*sha1),
                    _ => None,
                };
                (
                    r.clone(),
                    outcome.and_then(|o| o.primary()).map(str::to_string),
                    matches!(outcome, Some(ScanOutcome::Scanned { .. })),
                    sha1,
                )
            })
            .collect()
    }

    #[test]
    fn resolved_matches_the_reference_join_through_both_keys() {
        let mut log = CrawlLog::new();
        let mut texts = TextTable::default();
        let worm = HostKey::Guid([7; 16]);
        let other = HostKey::Addr(Ipv4Addr::new(9, 9, 9, 9), 1215);
        let scanned = |name: &str, family: &str| ScanOutcome::Scanned {
            sha1: p2pmal_hashes::sha1(name.as_bytes()),
            len: 58_368,
            detections: vec![family.into(), "W32.Second".into()],
        };
        let mut push = |log: &mut CrawlLog, name: &str, size: u32, host: &HostKey| {
            let mut r = record(name, size, host.clone());
            r.query = texts.intern("some query");
            r.filename = texts.intern(name);
            log.responses.push(r.clone());
            r
        };
        // Scanned: later rows resolve by name+size across hosts (case
        // folded) and by host+size across names — a non-downloadable name
        // included, which nothing ever fetches but the join still resolves.
        let first = push(&mut log, "Echo_One.exe", 58_368, &worm);
        log.record_outcome(&first, scanned("one", "W32.Echo"));
        push(&mut log, "ECHO_ONE.EXE", 58_368, &other);
        push(&mut log, "echo_two.exe", 58_368, &worm);
        let note = push(&mut log, "readme.txt", 58_368, &worm);
        assert!(!note.downloadable);
        // Same host, another size: a miss. Clean, unreachable, unscannable.
        push(&mut log, "echo_two.exe", 1_111, &worm);
        let clean = push(&mut log, "tool.zip", 10, &other);
        log.record_outcome(
            &clean,
            ScanOutcome::Scanned {
                sha1: p2pmal_hashes::sha1(b"clean"),
                len: 10,
                detections: vec![],
            },
        );
        let dead = push(&mut log, "dead.exe", 30, &other);
        log.record_outcome(&dead, ScanOutcome::Unreachable);
        let torn = push(&mut log, "torn.zip", 40, &other);
        log.record_outcome(
            &torn,
            ScanOutcome::Unscannable {
                reason: "corrupt archive (truncated)".into(),
            },
        );
        push(&mut log, "never_fetched.exe", 50, &other);

        let resolved = log.resolved();
        let reference = resolved_reference(&log);
        assert_eq!(resolved.len(), reference.len());
        for (got, (record, malware, scanned, sha1)) in resolved.iter().zip(&reference) {
            assert_eq!(&got.record, record);
            assert_eq!(got.malware.as_deref(), malware.as_deref(), "{record:?}");
            assert_eq!(got.scanned, *scanned, "{record:?}");
            assert_eq!(got.sha1, *sha1, "{record:?}");
        }
        let families: Vec<Option<&str>> = resolved.iter().map(|r| r.malware.as_deref()).collect();
        let echo = Some("W32.Echo");
        assert_eq!(
            families,
            [echo, echo, echo, echo, None, None, None, None, None]
        );
        // One allocation per family, however many records carry it.
        let (a, b) = (&resolved[0].malware, &resolved[3].malware);
        assert_eq!(a.as_ref().unwrap().as_ptr(), b.as_ref().unwrap().as_ptr());
    }

    /// The memo joins by content: rows whose equal names and hosts are
    /// separate allocations, names that differ only in case (one name+size
    /// verdict), names only a host+size verdict resolves, and more distinct
    /// triples than the memo holds, revisited out of order, all join as
    /// the per-row reference does.
    #[test]
    fn resolved_matches_the_reference_join_row_by_row() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(48);
        let mut log = CrawlLog::new();
        let host = |h: u32| match h % 3 {
            0 => HostKey::Guid([h as u8; 16]),
            _ => HostKey::Addr(Ipv4Addr::from(0x0A00_0000 + h), 1215 + (h % 2) as u16),
        };
        let spell = |i: u32, upper: bool| {
            let name = format!("Tool_{i}.exe");
            if upper {
                name.to_ascii_uppercase()
            } else {
                name
            }
        };
        for n in 0..30_000u32 {
            // 3,000 names × 4 sizes × 40 hosts, skewed towards the first.
            let (i, h) = (rng.gen_range(0..3_000u32), rng.gen_range(0..40u32));
            let (i, h) = (i * i / 3_000, h * h / 40);
            let size = 100 + (i + h) % 4;
            // Separate allocations for equal content, case varying.
            let mut r = record(&spell(i, rng.gen_bool(0.5)), size, host(h));
            if n % 5 == 0 {
                r.filename = Text::from(format!("echo_{n}.exe"));
            }
            log.responses.push(r);
        }
        for (k, r) in log.responses.clone().iter().enumerate() {
            let outcome = match k % 7 {
                0 => ScanOutcome::Scanned {
                    sha1: p2pmal_hashes::sha1(r.filename.as_bytes()),
                    len: u64::from(r.size),
                    detections: vec![format!("W32.Family{}", k % 5)],
                },
                1 => ScanOutcome::Scanned {
                    sha1: p2pmal_hashes::sha1(b"clean"),
                    len: u64::from(r.size),
                    detections: vec![],
                },
                2 => ScanOutcome::Unreachable,
                3 => ScanOutcome::Unscannable {
                    reason: "corrupt archive (truncated)".into(),
                },
                _ => continue,
            };
            if k % 11 == 0 {
                // Filed under host+size only: name+size misses.
                let (_, hk) = CrawlLog::keys_of(r);
                log.by_host_size.insert(hk, outcome);
            } else if k < 20_000 {
                log.record_outcome(r, outcome);
            }
        }
        let resolved = log.resolved();
        let reference = resolved_reference(&log);
        assert_eq!(resolved.len(), reference.len());
        let (mut by_name, mut by_host_only) = (0, 0);
        for (got, (record, malware, scanned, sha1)) in resolved.iter().zip(&reference) {
            assert_eq!(&got.record, record);
            assert_eq!(got.malware.as_deref(), malware.as_deref(), "{record:?}");
            assert_eq!(got.scanned, *scanned, "{record:?}");
            assert_eq!(got.sha1, *sha1, "{record:?}");
            let (nk, hk) = CrawlLog::keys_of(record);
            by_name += usize::from(log.by_name_size.contains_key(&nk));
            by_host_only += usize::from(
                !log.by_name_size.contains_key(&nk) && log.by_host_size.contains_key(&hk),
            );
        }
        assert!(
            by_name > 10_000 && by_host_only > 1_000,
            "{by_name} {by_host_only}"
        );
        let triples: HashSet<(&str, u32, &HostKey)> = log
            .responses
            .iter()
            .map(|r| (r.filename.as_str(), r.size, &*r.host))
            .collect();
        assert!(
            triples.len() > 2 * 2 * MEMO_SETS,
            "{} triples",
            triples.len()
        );
    }

    /// Triples that share a memo set are told apart by every field a
    /// verdict depends on: the size, and the host when only a host+size
    /// verdict exists.
    #[test]
    fn resolved_tells_apart_triples_that_share_a_memo_set() {
        let guid = HostKey::Guid([3; 16]);
        let a = record("Same.exe", 100, guid.clone());
        let mut log = CrawlLog::new();
        // Another size, and another host with the same name and size.
        let other_size = (101..)
            .map(|size| record("Same.exe", size, guid.clone()))
            .find(|b| JoinMemo::set_of(b) == JoinMemo::set_of(&a))
            .expect("a size in the same set");
        let other_host = (0..)
            .map(|ip: u32| record("Same.exe", 100, HostKey::Addr(Ipv4Addr::from(ip), 1215)))
            .find(|b| JoinMemo::set_of(b) == JoinMemo::set_of(&a))
            .expect("a host in the same set");
        let dirty = |family: &str| ScanOutcome::Scanned {
            sha1: p2pmal_hashes::sha1(family.as_bytes()),
            len: 100,
            detections: vec![family.into()],
        };
        let (_, hk) = CrawlLog::keys_of(&a);
        log.by_host_size.insert(hk, dirty("W32.HostOnly"));
        log.record_outcome(&other_size, dirty("W32.OtherSize"));
        for r in [&a, &other_size, &other_host, &a, &other_host, &other_size] {
            log.responses.push(r.clone());
        }
        let families: Vec<Option<String>> = log
            .resolved()
            .iter()
            .map(|r| r.malware.as_deref().map(str::to_string))
            .collect();
        let reference: Vec<Option<String>> = resolved_reference(&log)
            .into_iter()
            .map(|row| row.1)
            .collect();
        assert_eq!(families, reference);
        assert_eq!(families[0].as_deref(), Some("W32.HostOnly"));
        assert_eq!(families[1].as_deref(), Some("W32.OtherSize"));
        assert_eq!(families[2], None);
    }

    #[test]
    fn text_compares_and_hashes_by_content() {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        let (a, b) = (Text::from("same.exe"), Text::from(String::from("same.exe")));
        assert_ne!(a.as_ptr(), b.as_ptr(), "two allocations");
        assert_eq!(a, b);
        assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b));
        assert_eq!(
            hasher.hash_one(&a),
            hasher.hash_one("same.exe"),
            "Borrow<str>"
        );
        assert!(Text::from("a") < Text::from("b"));
        assert_eq!(format!("{a} {a:?}"), "same.exe \"same.exe\"");
        // Records built from either compare (and so dedup) as equal.
        let host = HostKey::Guid([1; 16]);
        let (mut ra, mut rb) = (record("x", 1, host.clone()), record("x", 1, host));
        (ra.filename, rb.filename) = (a.clone(), b);
        assert_eq!(ra, rb);
        // The table hands back the first allocation for equal content.
        let mut table = TextTable::default();
        let first = table.intern("same.exe");
        assert_eq!(first.as_ptr(), table.intern(&a).as_ptr());
        assert_eq!(first, a);
    }

    /// A `Host` is its key to everything that formats, hashes, compares
    /// or sorts a record: the trajectory digests print it with `{:?}`.
    #[test]
    fn host_formats_hashes_and_orders_as_its_key() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        let mut rng = StdRng::seed_from_u64(43);
        let mut keys: Vec<HostKey> = (0..64)
            .map(|i| {
                if i % 2 == 0 {
                    let mut guid = [0u8; 16];
                    rng.fill(&mut guid);
                    HostKey::Guid(guid)
                } else {
                    HostKey::Addr(Ipv4Addr::from(rng.gen::<u32>()), rng.gen())
                }
            })
            .collect();
        // Equal keys behind distinct allocations.
        keys.extend([keys[0].clone(), keys[1].clone()]);
        let hosts: Vec<Host> = keys.iter().cloned().map(Host::from).collect();
        for (a, ha) in keys.iter().zip(&hosts) {
            assert_eq!(**ha, *a);
            assert_eq!(format!("{ha:?}"), format!("{a:?}"));
            assert_eq!(format!("{ha:#?}"), format!("{a:#?}"));
            assert_eq!(hasher.hash_one(ha), hasher.hash_one(a));
            for (b, hb) in keys.iter().zip(&hosts) {
                assert_eq!(ha == hb, a == b, "{a:?} vs {b:?}");
                assert_eq!(ha.cmp(hb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(
            format!("{:?}", Host::from(HostKey::Guid([7; 16]))),
            "Guid([7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7])"
        );
        let HostKey::Addr(ip, port) = &keys[1] else {
            unreachable!("odd keys are addresses")
        };
        assert_eq!(format!("{:?}", hosts[1]), format!("Addr({ip}, {port})"));
        // The table hands back the first allocation for an equal key.
        let mut table = HostTable::default();
        let first = table.intern(keys[0].clone());
        assert!(std::ptr::eq(&*first, &*table.intern(keys[0].clone())));
        assert!(!std::ptr::eq(&*first, &*hosts[0]));
        assert_eq!(first, hosts[0]);
    }

    #[test]
    fn footprint_charges_each_text_once() {
        let mut log = CrawlLog::new();
        let mut texts = TextTable::default();
        let mut hosts = HostTable::default();
        for (query, name, host) in [
            ("q1", "a.exe", 2),
            ("q1", "b.exe", 3),
            ("q2", "a.exe", 2),
            ("q2", "q2", 2),
        ] {
            let mut r = record(name, 5, HostKey::Guid([0; 16]));
            r.query = texts.intern(query);
            r.filename = texts.intern(name);
            r.host = hosts.intern(HostKey::Guid([host; 16]));
            log.responses.push(r);
        }
        let empty_maps = log.footprint();
        assert_eq!(
            (
                empty_maps.records,
                empty_maps.distinct_queries,
                empty_maps.distinct_filenames
            ),
            (4, 2, 3)
        );
        // q1, q2, a.exe, b.exe — the echoed "q2" is the query's allocation.
        // Each is one counted handle (two counts and a boxed string's
        // pointer and length) plus its bytes.
        use std::mem::size_of;
        let handle = 2 * size_of::<usize>() + size_of::<Box<str>>();
        let texts_bytes = 4 * handle + (2 + 2 + 5 + 5);
        // Two responders, each one allocation: two counts beside the key,
        // padded to the pointer's alignment.
        let host_alloc = (2 * size_of::<usize>() + size_of::<HostKey>())
            .next_multiple_of(std::mem::align_of::<usize>());
        let records = log.responses.capacity() * size_of::<ResponseRecord>();
        assert_eq!(
            empty_maps.heap_bytes,
            (records + texts_bytes + 2 * host_alloc) as u64
        );
        let r = log.responses[0].clone();
        log.record_outcome(&r, ScanOutcome::Unreachable);
        assert!(log.footprint().heap_bytes > empty_maps.heap_bytes);
    }

    /// A month of responses is millions of these: a field added to either
    /// fails here instead of showing up as peak RSS in a benchmark run.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn record_layout_stays_small() {
        use std::mem::size_of;
        assert_eq!(size_of::<Text>(), 8, "a text is one thin pointer");
        assert_eq!(size_of::<Option<Text>>(), 8, "and `None` costs nothing");
        assert_eq!(size_of::<Host>(), 8, "a host is one pointer");
        assert_eq!(size_of::<Option<Host>>(), 8);
        assert_eq!(size_of::<ResponseRecord>(), 48);
        assert_eq!(size_of::<ResolvedResponse>(), 80);
    }

    #[test]
    fn the_last_instant_has_a_day_that_fits_the_record() {
        let last = SimTime::from_micros(u64::MAX).day();
        assert!(last < 220_000_000);
        assert!(u32::try_from(last).is_ok());
    }
}
