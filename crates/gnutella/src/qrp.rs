//! QRP — the Query Routing Protocol.
//!
//! Leaves summarize their shared-file keywords into a hash table and send it
//! to their ultrapeers as ROUTE_TABLE_UPDATE (type 0x30) RESET + PATCH
//! messages. An ultrapeer then forwards a last-hop query to a leaf only when
//! every keyword of the query hashes into the leaf's table — sparing leaves
//! almost all non-matching traffic.
//!
//! The hash is the canonical QRP multiplicative hash (Rohrs' spec, as
//! implemented by LimeWire): lower-case the word, XOR its bytes into a
//! little-endian accumulator, multiply by 0x4F1BBCDC and keep the top
//! `bits`. Tables here use 8-bit patch entries and optional raw-DEFLATE
//! patch compression (the giFT/LimeWire lineage used zlib; raw DEFLATE
//! preserves the code path with our from-scratch inflater).

use p2pmal_archive::{deflate, inflate};
use std::borrow::Cow;
use std::fmt;

/// Default table size: 2^16 slots, LimeWire's default.
pub const DEFAULT_LOG2_SIZE: u8 = 16;
/// The "infinity" TTL value marking an absent keyword.
pub const DEFAULT_INFINITY: u8 = 7;

/// The size-independent full-width form of [`qrp_hash`]: hash a word once,
/// then derive any table's slot as `h >> (64 - log2_size)`. This is what
/// lets an ultrapeer hash a query's keywords once and test them against
/// every leaf table instead of re-hashing per leaf.
pub fn qrp_hash_full(word: &str) -> u64 {
    let mut xor: u32 = 0;
    let mut j = 0u32;
    for b in word.bytes() {
        let b = b.to_ascii_lowercase() as u32;
        xor ^= b << (j * 8);
        j = (j + 1) & 3;
    }
    (xor as u64).wrapping_mul(0x4F1B_BCDC) << 32
}

/// The canonical QRP hash of `word` into `bits` bits.
pub fn qrp_hash(word: &str, bits: u8) -> u32 {
    (qrp_hash_full(word) >> (64 - bits as u64)) as u32
}

/// Extracts the keywords of a filename / query for QRP purposes: maximal
/// alphanumeric runs of length >= 3, lower-cased.
pub fn keywords(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| w.len() >= 3)
        .map(|w| w.to_ascii_lowercase())
        .collect()
}

/// A query routing table: one entry per hash slot; an entry strictly below
/// `infinity` means "keyword present".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QrpTable {
    log2_size: u8,
    infinity: u8,
    entries: Vec<u8>,
}

impl QrpTable {
    pub fn new(log2_size: u8, infinity: u8) -> Self {
        assert!((8..=24).contains(&log2_size), "unreasonable QRP table size");
        assert!(infinity >= 1);
        QrpTable {
            log2_size,
            infinity,
            entries: vec![infinity; 1usize << log2_size],
        }
    }

    /// LimeWire-default table.
    pub fn default_table() -> Self {
        Self::new(DEFAULT_LOG2_SIZE, DEFAULT_INFINITY)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        false // size is fixed at construction
    }

    pub fn log2_size(&self) -> u8 {
        self.log2_size
    }

    pub fn infinity(&self) -> u8 {
        self.infinity
    }

    /// Number of present slots (diagnostics).
    pub fn population(&self) -> usize {
        self.entries.iter().filter(|&&e| e < self.infinity).count()
    }

    /// Heap bytes held by this table (memory-accounting diagnostics).
    pub fn heap_bytes(&self) -> u64 {
        self.entries.capacity() as u64
    }

    /// Marks every keyword of `name` present (entry value 1 — directly
    /// shared).
    pub fn insert_name(&mut self, name: &str) {
        for w in keywords(name) {
            let slot = qrp_hash(&w, self.log2_size) as usize;
            self.entries[slot] = 1;
        }
    }

    /// True when every keyword of `query` hashes to a present slot — the
    /// last-hop forwarding predicate. Queries with no >=3-char keyword are
    /// conservatively forwarded (rare, and real ultrapeers did the same).
    pub fn might_match(&self, query: &str) -> bool {
        let kws = keywords(query);
        if kws.is_empty() {
            return true;
        }
        kws.iter().all(|w| {
            let slot = qrp_hash(w, self.log2_size) as usize;
            self.entries[slot] < self.infinity
        })
    }

    /// [`QrpTable::might_match`] for keywords hashed once up front with
    /// [`qrp_hash_full`]. An empty slice (no >=3-char keyword) forwards
    /// conservatively, matching `might_match`.
    pub fn might_match_hashes(&self, hashes: &[u64]) -> bool {
        hashes.iter().all(|&h| {
            let slot = (h >> (64 - self.log2_size as u64)) as usize;
            self.entries[slot] < self.infinity
        })
    }

    /// A table with every slot present (worm saturation): each entry is 1,
    /// exactly what a full table of `-(infinity - 1)` deltas patches to, so
    /// its wire form is identical to one built through a receiver.
    pub fn saturated(log2_size: u8, infinity: u8) -> Self {
        let mut t = Self::new(log2_size, infinity);
        t.entries.fill(1);
        t
    }

    /// Builds the RESET + PATCH message sequence that transmits this table,
    /// chunking patch data into `chunk` bytes per message.
    pub fn to_messages(&self, chunk: usize, compress: bool) -> Vec<RouteMsg> {
        assert!(chunk > 0);
        // seq_no/seq_count are u8 on the wire: never emit more than 255
        // patches, whatever chunk size the caller asked for.
        let chunk = chunk.max(self.entries.len().div_ceil(255));
        let mut msgs = vec![RouteMsg::Reset {
            table_len: self.entries.len() as u32,
            infinity: self.infinity,
        }];
        // Patch values are deltas from a fresh (all-infinity) table.
        let deltas: Vec<u8> = self
            .entries
            .iter()
            .map(|&e| (e as i16 - self.infinity as i16) as i8 as u8)
            .collect();
        let (payloads, compressor) = if compress {
            (vec![deflate(&deltas)], Compressor::Deflate)
        } else {
            (
                deltas.chunks(chunk).map(|c| c.to_vec()).collect(),
                Compressor::None,
            )
        };
        let count = payloads.len() as u8;
        for (i, data) in payloads.into_iter().enumerate() {
            msgs.push(RouteMsg::Patch {
                seq_no: i as u8 + 1,
                seq_count: count,
                compressor,
                entry_bits: 8,
                data,
            });
        }
        msgs
    }
}

/// A received routing table compacted to one *present* bit per slot — the
/// only thing the last-hop forwarding predicate ever reads. An ultrapeer
/// holds one of these per leaf connection, so the 8x compaction versus the
/// full 8-bit entry table (8 KiB versus 64 KiB at the default 2^16 size)
/// is the dominant memory lever at mega populations.
///
/// Exactness: within one RESET cycle the receiver's patch offset strictly
/// advances, so every slot is patched at most once. A slot starts at
/// `infinity` and a single 8-bit delta `d` leaves it at
/// `clamp(infinity + d, 0, 255)`, which is below `infinity` iff `d < 0`.
/// The bit therefore reproduces the full table's `entry < infinity`
/// predicate bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QrpFilter {
    log2_size: u8,
    bits: Vec<u64>,
}

impl QrpFilter {
    fn new(log2_size: u8) -> Self {
        QrpFilter {
            log2_size,
            bits: vec![0u64; (1usize << log2_size) / 64],
        }
    }

    pub fn log2_size(&self) -> u8 {
        self.log2_size
    }

    /// Number of slots (not bytes) in the underlying table.
    pub fn len(&self) -> usize {
        1usize << self.log2_size
    }

    pub fn is_empty(&self) -> bool {
        false // size is fixed at construction
    }

    /// Number of present slots (diagnostics).
    pub fn population(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap bytes held by this filter (memory-accounting diagnostics).
    pub fn heap_bytes(&self) -> u64 {
        (self.bits.capacity() * 8) as u64
    }

    #[inline]
    fn set(&mut self, slot: usize, present: bool) {
        let (w, b) = (slot / 64, slot % 64);
        if present {
            self.bits[w] |= 1u64 << b;
        } else {
            self.bits[w] &= !(1u64 << b);
        }
    }

    #[inline]
    fn present(&self, slot: usize) -> bool {
        self.bits[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// True when every keyword of `query` hashes to a present slot — the
    /// last-hop forwarding predicate, identical to
    /// [`QrpTable::might_match`] on the transmitted table.
    pub fn might_match(&self, query: &str) -> bool {
        let kws = keywords(query);
        if kws.is_empty() {
            return true;
        }
        kws.iter()
            .all(|w| self.present(qrp_hash(w, self.log2_size) as usize))
    }

    /// [`QrpFilter::might_match`] for keywords hashed once up front with
    /// [`qrp_hash_full`]. An empty slice forwards conservatively. Every
    /// slot is read whatever the earlier ones said: an ultrapeer runs this
    /// over one filter per leaf, each on its own cold page, and loads that
    /// hang on no branch miss side by side instead of one after another.
    pub fn might_match_hashes(&self, hashes: &[u64]) -> bool {
        hashes.iter().fold(true, |all, &h| {
            all & self.present((h >> (64 - self.log2_size as u64)) as usize)
        })
    }
}

/// A receiver-side filter under reconstruction from RESET/PATCH messages.
#[derive(Debug, Clone, Default)]
pub struct QrpReceiver {
    filter: Option<QrpFilter>,
    next_offset: usize,
}

impl QrpReceiver {
    pub fn new() -> Self {
        Self::default()
    }

    /// The fully or partially patched filter, if a RESET has been seen.
    pub fn filter(&self) -> Option<&QrpFilter> {
        self.filter.as_ref()
    }

    /// Heap bytes held by the filter under reconstruction, if any.
    pub fn heap_bytes(&self) -> u64 {
        self.filter.as_ref().map_or(0, |f| f.heap_bytes())
    }

    /// Applies one route message. Errors are protocol violations.
    pub fn apply(&mut self, msg: &RouteMsg) -> Result<(), QrpError> {
        match msg {
            RouteMsg::Reset {
                table_len,
                infinity: _,
            } => {
                let log2 = (*table_len as f64).log2();
                if log2.fract() != 0.0 || !(8.0..=24.0).contains(&log2) {
                    return Err(QrpError::BadTableLen(*table_len));
                }
                self.filter = Some(QrpFilter::new(log2 as u8));
                self.next_offset = 0;
            }
            RouteMsg::Patch {
                compressor,
                entry_bits,
                data,
                ..
            } => {
                let filter = self.filter.as_mut().ok_or(QrpError::PatchBeforeReset)?;
                if *entry_bits != 8 {
                    return Err(QrpError::UnsupportedEntryBits(*entry_bits));
                }
                let raw = match compressor {
                    Compressor::None => Cow::Borrowed(data.as_slice()),
                    Compressor::Deflate => Cow::Owned(
                        inflate(data, filter.len() + 1024).map_err(|_| QrpError::BadCompression)?,
                    ),
                };
                if self.next_offset + raw.len() > filter.len() {
                    return Err(QrpError::PatchOverrun);
                }
                for (i, &d) in raw.iter().enumerate() {
                    // See the QrpFilter doc: one patch per slot per cycle,
                    // so `delta < 0` is exactly `entry < infinity`.
                    filter.set(self.next_offset + i, (d as i8) < 0);
                }
                self.next_offset += raw.len();
            }
        }
        Ok(())
    }
}

/// Patch compressor ids (wire values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compressor {
    None,
    /// Raw RFC 1951 DEFLATE (stand-in for the zlib the era's servents used).
    Deflate,
}

/// A ROUTE_TABLE_UPDATE message (payload of descriptor type 0x30).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteMsg {
    Reset {
        table_len: u32,
        infinity: u8,
    },
    Patch {
        seq_no: u8,
        seq_count: u8,
        compressor: Compressor,
        entry_bits: u8,
        data: Vec<u8>,
    },
}

/// QRP errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QrpError {
    Truncated,
    BadVariant(u8),
    BadTableLen(u32),
    PatchBeforeReset,
    UnsupportedEntryBits(u8),
    UnsupportedCompressor(u8),
    BadCompression,
    PatchOverrun,
}

impl fmt::Display for QrpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QrpError::Truncated => write!(f, "truncated route message"),
            QrpError::BadVariant(v) => write!(f, "unknown route variant {v}"),
            QrpError::BadTableLen(n) => write!(f, "table length {n} is not a sane power of two"),
            QrpError::PatchBeforeReset => write!(f, "PATCH before RESET"),
            QrpError::UnsupportedEntryBits(b) => write!(f, "unsupported entry bits {b}"),
            QrpError::UnsupportedCompressor(c) => write!(f, "unsupported compressor {c}"),
            QrpError::BadCompression => write!(f, "patch decompression failed"),
            QrpError::PatchOverrun => write!(f, "patch data overruns table"),
        }
    }
}

impl std::error::Error for QrpError {}

impl RouteMsg {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            RouteMsg::Reset {
                table_len,
                infinity,
            } => {
                let mut out = vec![0x00];
                out.extend_from_slice(&table_len.to_le_bytes());
                out.push(*infinity);
                out
            }
            RouteMsg::Patch {
                seq_no,
                seq_count,
                compressor,
                entry_bits,
                data,
            } => {
                let mut out = vec![0x01, *seq_no, *seq_count];
                out.push(match compressor {
                    Compressor::None => 0x00,
                    Compressor::Deflate => 0x01,
                });
                out.push(*entry_bits);
                out.extend_from_slice(data);
                out
            }
        }
    }

    pub fn parse(data: &[u8]) -> Result<Self, QrpError> {
        match data.first() {
            None => Err(QrpError::Truncated),
            Some(0x00) => {
                if data.len() < 6 {
                    return Err(QrpError::Truncated);
                }
                let table_len = u32::from_le_bytes([data[1], data[2], data[3], data[4]]);
                Ok(RouteMsg::Reset {
                    table_len,
                    infinity: data[5],
                })
            }
            Some(0x01) => {
                if data.len() < 5 {
                    return Err(QrpError::Truncated);
                }
                let compressor = match data[3] {
                    0x00 => Compressor::None,
                    0x01 => Compressor::Deflate,
                    other => return Err(QrpError::UnsupportedCompressor(other)),
                };
                Ok(RouteMsg::Patch {
                    seq_no: data[1],
                    seq_count: data[2],
                    compressor,
                    entry_bits: data[4],
                    data: data[5..].to_vec(),
                })
            }
            Some(&v) => Err(QrpError::BadVariant(v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_case_insensitive_and_in_range() {
        for bits in [8u8, 13, 16] {
            for w in ["hello", "HELLO", "HeLLo"] {
                let h = qrp_hash(w, bits);
                assert_eq!(h, qrp_hash("hello", bits));
                assert!(h < (1 << bits));
            }
        }
        assert_ne!(qrp_hash("hello", 16), qrp_hash("world", 16));
    }

    #[test]
    fn keyword_extraction() {
        assert_eq!(
            keywords("crimson_horizon-remix.mp3"),
            vec!["crimson", "horizon", "remix", "mp3"]
        );
        assert_eq!(keywords("a bb ccc"), vec!["ccc"], "short words dropped");
        assert!(keywords("--//--").is_empty());
    }

    #[test]
    fn insert_and_match() {
        let mut t = QrpTable::new(12, 7);
        t.insert_name("crimson_horizon_remix.mp3");
        assert!(t.might_match("crimson horizon"));
        assert!(t.might_match("CRIMSON"));
        assert!(!t.might_match("crimson missingword"));
        assert!(
            t.might_match("zz"),
            "keyword-free queries pass conservatively"
        );
        assert!(t.population() >= 3);
    }

    #[test]
    fn might_match_hashes_agrees_with_might_match() {
        let mut t = QrpTable::new(12, 7);
        t.insert_name("crimson_horizon_remix.mp3");
        for q in [
            "crimson horizon",
            "CRIMSON",
            "crimson missingword",
            "zz",
            "remix mp3",
        ] {
            let hashes: Vec<u64> = keywords(q).iter().map(|w| qrp_hash_full(w)).collect();
            assert_eq!(
                t.might_match_hashes(&hashes),
                t.might_match(q),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn full_hash_derives_sized_hash() {
        for w in ["hello", "WORLD", "a", "crimson_horizon"] {
            for bits in [8u8, 13, 16, 24] {
                assert_eq!(
                    (qrp_hash_full(w) >> (64 - bits as u64)) as u32,
                    qrp_hash(w, bits)
                );
            }
        }
    }

    #[test]
    fn route_msg_roundtrip() {
        let msgs = [
            RouteMsg::Reset {
                table_len: 65536,
                infinity: 7,
            },
            RouteMsg::Patch {
                seq_no: 1,
                seq_count: 2,
                compressor: Compressor::None,
                entry_bits: 8,
                data: vec![0xFA, 0x00, 0x06],
            },
        ];
        for m in msgs {
            assert_eq!(RouteMsg::parse(&m.encode()).unwrap(), m);
        }
        assert_eq!(RouteMsg::parse(&[]), Err(QrpError::Truncated));
        assert_eq!(RouteMsg::parse(&[0x07]), Err(QrpError::BadVariant(0x07)));
    }

    /// The received filter must reproduce the sent table's presence
    /// predicate on every slot.
    fn assert_filter_equals_table(rx: &QrpReceiver, t: &QrpTable) {
        let f = rx.filter().expect("filter built");
        assert_eq!(f.log2_size(), t.log2_size());
        assert_eq!(f.len(), t.len());
        assert_eq!(f.population(), t.population());
        for slot in 0..t.len() {
            assert_eq!(
                f.present(slot),
                t.entries[slot] < t.infinity(),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn table_transfer_uncompressed_roundtrip() {
        let mut t = QrpTable::new(10, 7);
        t.insert_name("silver echo serenade");
        t.insert_name("turbo dynamo toolkit");
        let mut rx = QrpReceiver::new();
        for m in t.to_messages(256, false) {
            let wire = m.encode();
            rx.apply(&RouteMsg::parse(&wire).unwrap()).unwrap();
        }
        assert_filter_equals_table(&rx, &t);
    }

    #[test]
    fn table_transfer_deflate_roundtrip() {
        let mut t = QrpTable::new(14, 7);
        for name in ["alpha beta gamma", "delta epsilon", "zeta_eta_theta.exe"] {
            t.insert_name(name);
        }
        let mut rx = QrpReceiver::new();
        let msgs = t.to_messages(4096, true);
        assert_eq!(msgs.len(), 2, "reset + one compressed patch");
        for m in &msgs {
            rx.apply(m).unwrap();
        }
        assert_filter_equals_table(&rx, &t);
        // Compression must actually compress a sparse table.
        if let RouteMsg::Patch { data, .. } = &msgs[1] {
            assert!(data.len() < (1 << 14) / 4, "patch bytes {}", data.len());
        } else {
            panic!("expected patch");
        }
    }

    #[test]
    fn filter_matches_agree_with_table() {
        let mut t = QrpTable::new(12, 7);
        t.insert_name("crimson_horizon_remix.mp3");
        let mut rx = QrpReceiver::new();
        for m in t.to_messages(2048, true) {
            rx.apply(&m).unwrap();
        }
        let f = rx.filter().unwrap();
        for q in [
            "crimson horizon",
            "CRIMSON",
            "crimson missingword",
            "zz",
            "remix mp3",
            "",
        ] {
            assert_eq!(f.might_match(q), t.might_match(q), "query {q:?}");
            let hashes: Vec<u64> = keywords(q).iter().map(|w| qrp_hash_full(w)).collect();
            assert_eq!(
                f.might_match_hashes(&hashes),
                t.might_match_hashes(&hashes),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn filter_is_8x_smaller_than_table() {
        let t = QrpTable::default_table();
        let mut rx = QrpReceiver::new();
        for m in t.to_messages(4096, true) {
            rx.apply(&m).unwrap();
        }
        assert_eq!(rx.heap_bytes() * 8, t.heap_bytes());
    }

    #[test]
    fn saturated_table_is_all_present_and_delta_clean() {
        let t = QrpTable::saturated(10, 7);
        assert_eq!(t.population(), t.len());
        // Its wire form is the same full-table patch of -(infinity - 1)
        // deltas a receiver-built saturated table produced.
        let msgs = t.to_messages(1 << 10, false);
        let RouteMsg::Patch { data, .. } = &msgs[1] else {
            panic!("expected patch");
        };
        assert!(data.iter().all(|&d| d as i8 == -6));
        let mut rx = QrpReceiver::new();
        for m in &msgs {
            rx.apply(m).unwrap();
        }
        assert_eq!(rx.filter().unwrap().population(), t.len());
    }

    #[test]
    fn receiver_rejects_protocol_violations() {
        let mut rx = QrpReceiver::new();
        let patch = RouteMsg::Patch {
            seq_no: 1,
            seq_count: 1,
            compressor: Compressor::None,
            entry_bits: 8,
            data: vec![0; 16],
        };
        assert_eq!(rx.apply(&patch), Err(QrpError::PatchBeforeReset));
        rx.apply(&RouteMsg::Reset {
            table_len: 1000,
            infinity: 7,
        })
        .unwrap_err(); // not a power of two
        rx.apply(&RouteMsg::Reset {
            table_len: 256,
            infinity: 7,
        })
        .unwrap();
        let overrun = RouteMsg::Patch {
            seq_no: 1,
            seq_count: 1,
            compressor: Compressor::None,
            entry_bits: 8,
            data: vec![0; 257],
        };
        assert_eq!(rx.apply(&overrun), Err(QrpError::PatchOverrun));
        let bad_bits = RouteMsg::Patch {
            seq_no: 1,
            seq_count: 1,
            compressor: Compressor::None,
            entry_bits: 4,
            data: vec![0; 8],
        };
        assert_eq!(rx.apply(&bad_bits), Err(QrpError::UnsupportedEntryBits(4)));
    }

    #[test]
    fn patches_accumulate_across_chunks() {
        let mut t = QrpTable::new(10, 7);
        t.insert_name("one two three four five six seven");
        let msgs = t.to_messages(100, false); // many small chunks
        assert!(msgs.len() > 3);
        let mut rx = QrpReceiver::new();
        for m in msgs {
            rx.apply(&m).unwrap();
        }
        assert_filter_equals_table(&rx, &t);
    }

    proptest::proptest! {
        /// Random tables, chunkings and compression modes: the received
        /// filter always reproduces the table's per-slot presence.
        #[test]
        fn prop_filter_equals_table(
            names in proptest::collection::vec("[a-zA-Z0-9_ .]{0,24}", 0..24),
            log2 in 8u8..13,
            chunk in 1usize..600,
            compress in proptest::any::<bool>(),
        ) {
            let mut t = QrpTable::new(log2, 7);
            for n in &names {
                t.insert_name(n);
            }
            let mut rx = QrpReceiver::new();
            for m in t.to_messages(chunk, compress) {
                rx.apply(&RouteMsg::parse(&m.encode()).unwrap()).unwrap();
            }
            let f = rx.filter().unwrap();
            proptest::prop_assert_eq!(f.population(), t.population());
            for slot in 0..t.len() {
                proptest::prop_assert_eq!(f.present(slot), t.entries[slot] < t.infinity());
            }
        }
    }
}
