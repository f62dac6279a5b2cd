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
use p2pmal_netsim::ConnId;
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

/// A key is one `u64`, a bitset one bit a slot: a table whose present
/// slots number more than `2^log2 / SLOTS_PER_KEY` would cost more as keys
/// than as its bitset, so [`QrpIndex`] holds it as a bitset instead.
const SLOTS_PER_KEY: usize = u64::BITS as usize;

/// The most present slots a `2^log2`-slot table keeps as keys: as many
/// bytes as its bitset, and not one more.
fn sparse_limit(log2: u8) -> usize {
    (1usize << log2) / SLOTS_PER_KEY
}

/// `log2(table_len)` for the sizes a RESET may announce, 2^8 to 2^24.
fn table_log2(table_len: u32) -> Option<u8> {
    (table_len.is_power_of_two() && (1 << 8..=1 << 24).contains(&table_len))
        .then_some(table_len.trailing_zeros() as u8)
}

/// An index key: `(log2 << 56) | (slot << 16) | column`. Sorted, the keys
/// of one table size are one run, and within it the keys of one slot are
/// one run, a key for each peer whose table has that slot present.
fn key(log2: u8, slot: usize, column: u16) -> u64 {
    (log2 as u64) << 56 | (slot as u64) << 16 | column as u64
}

fn key_slot(key: u64) -> usize {
    (key >> 16) as usize & 0xFF_FFFF
}

/// A received table held as one *present* bit per slot: the form
/// [`QrpIndex`] keeps for a table with too many present slots to hold as
/// keys (an echo worm claims every slot). 8 KiB at the default 2^16 size,
/// against 64 KiB for the byte table.
#[derive(Debug, Clone, PartialEq, Eq)]
struct QrpFilter {
    log2_size: u8,
    bits: Box<[u64]>,
}

impl QrpFilter {
    fn new(log2_size: u8) -> Self {
        QrpFilter {
            log2_size,
            bits: vec![0u64; (1usize << log2_size) / 64].into_boxed_slice(),
        }
    }

    fn heap_bytes(&self) -> u64 {
        (self.bits.len() * 8) as u64
    }

    #[inline]
    fn set(&mut self, slot: usize) {
        self.bits[slot / 64] |= 1u64 << (slot % 64);
    }

    #[inline]
    fn present(&self, slot: usize) -> bool {
        self.bits[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// True when every hash's slot is present, for keywords hashed once
    /// with [`qrp_hash_full`]; an empty slice passes. Every slot is read
    /// whatever the earlier ones said, so the loads of one filter go out
    /// side by side.
    fn might_match_hashes(&self, hashes: &[u64]) -> bool {
        hashes.iter().fold(true, |all, &h| {
            all & self.present((h >> (64 - self.log2_size as u64)) as usize)
        })
    }
}

/// `Peer::flags`: the peer is a leaf.
const LEAF: u8 = 1;
/// `Peer::flags`: its table is a bitset in [`QrpIndex::dense`], not keys.
const DENSE: u8 = 2;

/// A peer as every lookup walks it: 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Peer {
    conn: ConnId,
    /// Slots this RESET cycle's PATCHes have covered.
    offset: u32,
    /// The low 16 bits of this peer's keys, and its bit in a lookup's
    /// column masks.
    column: u16,
    /// The table's size, `2^log2` slots; 0 before the first RESET.
    log2: u8,
    flags: u8,
}

/// Directory buckets over the keys of the most common table size:
/// `2^DIR_BITS` `u32` positions, 4 KiB.
const DIR_BITS: u8 = 10;

/// The QRP tables a servent's peers sent it, kept slot-major: the last
/// hop's question, "which of my leaves hold every keyword of this query",
/// costs one directory lookup per keyword rather than a cold bitset read
/// per leaf per keyword.
///
/// Layout. `keys` is one sorted `Vec<u64>` with a key
/// `(log2 << 56) | (slot << 16) | column` for each present slot of each
/// sparse table. `peers`, sorted by [`ConnId`], holds each peer's column,
/// patch offset, table size, and whether it is a leaf. A table with more
/// present slots than `sparse_limit` is held in `dense` as a bitset
/// instead, so a peer's table never takes more bytes than its bitset would.
/// `dir` holds, for the table size with the most keys, where each of 2^10
/// slot ranges starts in `keys`. A lookup ORs, for each keyword, the
/// columns of that slot's run of keys into a mask, ANDs the masks across
/// keywords (one pass per distinct table size), then walks `peers` once to
/// emit the passing leaves in `ConnId` order.
///
/// Exactness. Within one RESET cycle a peer's patch offset strictly
/// advances, so every slot is patched at most once. A slot starts at
/// `infinity` and a single 8-bit delta `d` leaves it at
/// `clamp(infinity + d, 0, 255)`, which is below `infinity` iff `d < 0`.
/// So adding the slots whose delta is negative, and dropping every key at
/// a RESET, reproduces the sent table's `entry < infinity` predicate on
/// every slot.
///
/// Nothing is allocated until the first leaf or RESET.
#[derive(Debug, Default)]
pub struct QrpIndex {
    keys: Vec<u64>,
    peers: Vec<Peer>,
    /// The bitset tables, by column.
    dense: Vec<(u16, QrpFilter)>,
    /// `dir[b]`: the first key of table size `dir_log2` whose slot's top
    /// bits are at least `b`.
    dir: Vec<u32>,
    dir_log2: u8,
    /// Columns in use, a bit each.
    columns: Vec<u64>,
    /// Lookup scratch: the passing, all-keywords and this-keyword masks.
    masks: Vec<u64>,
}

impl QrpIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a leaf connection: it is sent every query until its first
    /// RESET.
    pub fn add_leaf(&mut self, conn: ConnId) {
        let i = self.entry(conn);
        self.peers[i].flags |= LEAF;
    }

    /// The registered leaf connections, in order.
    pub fn leaves(&self) -> impl Iterator<Item = ConnId> + '_ {
        self.peers
            .iter()
            .filter(|p| p.flags & LEAF != 0)
            .map(|p| p.conn)
    }

    /// Forgets `conn` and whatever table it sent.
    pub fn remove(&mut self, conn: ConnId) {
        let Ok(i) = self.find(conn) else {
            return;
        };
        let peer = self.peers.remove(i);
        self.drop_table(peer);
        let column = peer.column as usize;
        self.columns[column / 64] &= !(1u64 << (column % 64));
        while self.columns.last() == Some(&0) {
            self.columns.pop();
        }
    }

    /// Heap bytes held: keys, bitsets, the directory, the peer list and
    /// lookup scratch.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let dense: u64 = self.dense.iter().map(|(_, f)| f.heap_bytes()).sum();
        let words = self.keys.capacity() + self.columns.capacity() + self.masks.capacity();
        (words * 8
            + self.dir.capacity() * size_of::<u32>()
            + self.peers.capacity() * size_of::<Peer>()
            + self.dense.capacity() * size_of::<(u16, QrpFilter)>()) as u64
            + dense
    }

    /// Applies one route message from `conn`; errors are protocol
    /// violations and leave the table as it was. A connection never passed
    /// to [`QrpIndex::add_leaf`] is an ultrapeer: its table is kept, and
    /// its errors are the same, but no lookup reads it.
    ///
    /// A compressed PATCH inflates into at most `table_len + 1024` bytes,
    /// freed before this returns; what stays is the table's keys or its
    /// bitset, whichever is smaller.
    pub fn apply(&mut self, conn: ConnId, msg: &RouteMsg) -> Result<(), QrpError> {
        match msg {
            RouteMsg::Reset { table_len, .. } => {
                let log2 = table_log2(*table_len).ok_or(QrpError::BadTableLen(*table_len))?;
                let i = self.entry(conn);
                let old = self.peers[i];
                self.peers[i] = Peer {
                    offset: 0,
                    log2,
                    flags: old.flags & LEAF,
                    ..old
                };
                self.drop_table(old);
            }
            RouteMsg::Patch {
                compressor,
                entry_bits,
                data,
                ..
            } => {
                let i = self.find(conn).map_err(|_| QrpError::PatchBeforeReset)?;
                let peer = self.peers[i];
                if peer.log2 == 0 {
                    return Err(QrpError::PatchBeforeReset);
                }
                if *entry_bits != 8 {
                    return Err(QrpError::UnsupportedEntryBits(*entry_bits));
                }
                let len = 1usize << peer.log2;
                let raw = match compressor {
                    Compressor::None => Cow::Borrowed(data.as_slice()),
                    Compressor::Deflate => {
                        Cow::Owned(inflate(data, len + 1024).map_err(|_| QrpError::BadCompression)?)
                    }
                };
                let start = peer.offset as usize;
                if start + raw.len() > len {
                    return Err(QrpError::PatchOverrun);
                }
                self.peers[i].offset += raw.len() as u32;
                self.patch(i, start, &raw);
            }
        }
        Ok(())
    }

    /// Calls `send` for each leaf but `except` whose table holds every
    /// keyword hash in `hashes` (hashed once with [`qrp_hash_full`]), in
    /// `ConnId` order, and returns how many leaves it kept the query from.
    /// An empty `hashes` (no keyword of three or more characters) passes
    /// every leaf, and so does a leaf that has sent no RESET.
    pub fn route_last_hop(
        &mut self,
        hashes: &[u64],
        except: ConnId,
        mut send: impl FnMut(ConnId),
    ) -> u64 {
        let words = self.columns.len();
        self.masks.clear();
        self.masks.resize(3 * words, 0);
        let (pass, rest) = self.masks.split_at_mut(words);
        let (all, this) = rest.split_at_mut(words);
        let keys = &self.keys[..];
        let mut start = if hashes.is_empty() { keys.len() } else { 0 };
        while start < keys.len() {
            let log2 = (keys[start] >> 56) as u8;
            let size = |k: u64| k >> 56 == log2 as u64;
            let end = match keys.last() {
                Some(&last) if size(last) => keys.len(),
                _ => start + keys[start..].partition_point(|&k| size(k)),
            };
            all.fill(u64::MAX);
            for &h in hashes {
                let slot = (h >> (64 - log2 as u64)) as usize;
                let target = key(log2, slot, 0);
                let (lo, hi) = if log2 == self.dir_log2 {
                    let b = slot >> (log2 - log2.min(DIR_BITS));
                    let hi = self.dir.get(b + 1).map_or(end, |&i| i as usize);
                    (self.dir[b] as usize, hi)
                } else {
                    (start, end)
                };
                let at = lo + seek(&keys[lo..hi], target);
                this.fill(0);
                for &k in keys[at..end]
                    .iter()
                    .take_while(|&&k| k < target + (1 << 16))
                {
                    let c = k as u16 as usize;
                    this[c / 64] |= 1u64 << (c % 64);
                }
                let mut left = 0;
                for (a, t) in all.iter_mut().zip(this.iter()) {
                    *a &= t;
                    left |= *a;
                }
                if left == 0 {
                    break;
                }
            }
            for (p, a) in pass.iter_mut().zip(all.iter()) {
                *p |= a;
            }
            start = end;
        }
        let mut suppressed = 0;
        for peer in &self.peers {
            if peer.flags & LEAF == 0 || peer.conn == except {
                continue;
            }
            let c = peer.column as usize;
            let passes = hashes.is_empty()
                || peer.log2 == 0
                || if peer.flags & DENSE != 0 {
                    let (_, f) = self
                        .dense
                        .iter()
                        .find(|(d, _)| *d == peer.column)
                        .expect("a dense peer's bitset");
                    f.might_match_hashes(hashes)
                } else {
                    pass[c / 64] >> (c % 64) & 1 != 0
                };
            if passes {
                send(peer.conn);
            } else {
                suppressed += 1;
            }
        }
        suppressed
    }

    fn find(&self, conn: ConnId) -> Result<usize, usize> {
        self.peers.binary_search_by_key(&conn, |p| p.conn)
    }

    /// `conn`'s place in `peers`, registering it (an ultrapeer, with no
    /// table and the lowest free column) if it has none.
    fn entry(&mut self, conn: ConnId) -> usize {
        let i = match self.find(conn) {
            Ok(i) => return i,
            Err(i) => i,
        };
        let word = match self.columns.iter().position(|&w| w != u64::MAX) {
            Some(word) => word,
            None => {
                self.columns.push(0);
                self.columns.len() - 1
            }
        };
        let bit = self.columns[word].trailing_ones() as usize;
        self.columns[word] |= 1u64 << bit;
        let column = u16::try_from(word * 64 + bit).expect("at most 65,536 peers");
        let peer = Peer {
            conn,
            offset: 0,
            column,
            log2: 0,
            flags: 0,
        };
        self.peers.insert(i, peer);
        i
    }

    /// Drops the keys or the bitset `peer`'s table held.
    fn drop_table(&mut self, peer: Peer) {
        if peer.flags & DENSE != 0 {
            self.dense.retain(|(c, _)| *c != peer.column);
        } else if peer.log2 != 0 {
            let before = self.keys.len();
            self.keys.retain(|&k| k as u16 != peer.column);
            if self.keys.len() != before {
                self.keys.shrink_to_fit();
                self.reindex();
            }
        }
    }

    /// Adds the slots from `start` whose delta in `deltas` is negative to
    /// peer `i`'s table: as one merge into `keys`, or, once the table
    /// would outgrow [`sparse_limit`], by moving it into a bitset.
    fn patch(&mut self, i: usize, start: usize, deltas: &[u8]) {
        let added = || {
            deltas
                .iter()
                .enumerate()
                .filter(|&(_, &d)| (d as i8) < 0)
                .map(move |(j, _)| start + j)
        };
        let Peer {
            column,
            log2,
            flags,
            ..
        } = self.peers[i];
        if flags & DENSE != 0 {
            let (_, f) = self
                .dense
                .iter_mut()
                .find(|(c, _)| *c == column)
                .expect("a dense peer's bitset");
            added().for_each(|slot| f.set(slot));
            return;
        }
        let count = added().count();
        if count == 0 {
            return;
        }
        let present = self.keys.iter().filter(|&&k| k as u16 == column).count();
        if present + count <= sparse_limit(log2) {
            merge_keys(
                &mut self.keys,
                added().rev().map(|slot| key(log2, slot, column)),
                count,
            );
        } else {
            let mut f = QrpFilter::new(log2);
            self.keys.retain(|&k| {
                let mine = k as u16 == column;
                if mine {
                    f.set(key_slot(k));
                }
                !mine
            });
            self.keys.shrink_to_fit();
            added().for_each(|slot| f.set(slot));
            self.dense.push((column, f));
            self.peers[i].flags |= DENSE;
        }
        self.reindex();
    }

    /// Rebuilds `dir` over the table size with the most keys.
    fn reindex(&mut self) {
        let (mut best, mut start) = ((0u8, 0usize, 0usize), 0);
        while let Some(&first) = self.keys.get(start) {
            let log2 = (first >> 56) as u8;
            let len = self.keys[start..].partition_point(|&k| k >> 56 == log2 as u64);
            if len > best.2 {
                best = (log2, start, len);
            }
            start += len;
        }
        let (log2, start, len) = best;
        self.dir_log2 = log2;
        self.dir.clear();
        if len == 0 {
            self.dir = Vec::new();
            return;
        }
        let bits = log2.min(DIR_BITS);
        let shift = log2 - bits;
        self.dir.reserve_exact(1 << bits);
        let mut at = start;
        for b in 0..1usize << bits {
            while at < start + len && key_slot(self.keys[at]) >> shift < b {
                at += 1;
            }
            self.dir
                .push(u32::try_from(at).expect("fewer than 2^32 keys"));
        }
    }
}

/// The first index of sorted `keys` whose key is at least `target`. A
/// directory bucket is short, and a queried slot is usually a popular one
/// whose run fills most of its bucket, so the answer is nearly always
/// among its first eight keys: scan those, and bisect the rest only if it
/// is not.
fn seek(keys: &[u64], target: u64) -> usize {
    match keys.iter().take(8).position(|&k| k >= target) {
        Some(at) => at,
        None => {
            let line = keys.len().min(8);
            line + keys[line..].partition_point(|&k| k < target)
        }
    }
}

/// Merges `count` new keys, given largest first, into the sorted `keys` in
/// place from the back: one pass, and `keys` grows by exactly `count`.
fn merge_keys(keys: &mut Vec<u64>, descending: impl Iterator<Item = u64>, count: usize) {
    let mut old = keys.len();
    keys.reserve_exact(count);
    keys.resize(old + count, 0);
    let mut at = keys.len();
    for k in descending {
        while old > 0 && keys[old - 1] > k {
            at -= 1;
            old -= 1;
            keys[at] = keys[old];
        }
        at -= 1;
        keys[at] = k;
    }
    debug_assert_eq!(at, old, "{count} keys merged");
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
mod tests;
