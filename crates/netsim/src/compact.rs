//! Small-footprint map containers for per-node protocol state.
//!
//! At paper scale (a few hundred nodes) each servent carrying half a dozen
//! `HashMap`s is invisible. At 10^5–10^6 nodes the fixed overhead of those
//! maps — SipHash state, load-factor slack, 48-byte struct headers —
//! dominates the bytes-per-node budget. Three containers cover every
//! per-node table in the protocol crates:
//!
//! * [`VecMap`] — a sorted `Vec<(K, V)>` with binary-search lookup, for
//!   keyspaces bounded by a node's degree (connection tables, in-flight
//!   downloads: typically ≤ 32 entries, never more than a few hundred).
//!   An empty map is one `Vec` (24 bytes, no allocation); a populated map
//!   stores exactly its entries plus growth slack, with no hash state and
//!   no per-slot control bytes.
//! * [`FifoMap`] — an insertion-order ring of entries plus an
//!   open-addressed index of `u32` tags keyed through the [`KeyHash`]
//!   trait, for the count-bounded push-route table. Replaces the
//!   `HashMap` + `VecDeque` pair with one allocation-free-when-empty
//!   structure whose probe reads one index cache line, and the ring only
//!   when an 8-bit tag matches.
//! * [`AgedMap`] — two `FifoMap` generations flipped by sim time, for the
//!   GUID table (duplicate suppression and query routes): an entry lives
//!   between one and two lifetimes, so the table holds what the last few
//!   minutes of traffic need rather than the last 16,384 keys.
//!
//! `VecMap` and `FifoMap` preserve the *exact* observable semantics of the
//! `HashMap`-based code they replace (the proptest suites below drive them
//! against the std-collections reference): full-key equality on every
//! match, value overwrite without FIFO reordering, eviction strictly in
//! insert order. `AgedMap` is driven against a model that records when
//! each key was inserted. Iteration order of [`VecMap`] is sorted by key —
//! already deterministic, unlike `HashMap`, so the fan-out sites that used
//! to collect-and-sort can keep their sort as a no-op safety net.

use crate::{SimDuration, SimTime};

/// A 64-bit hash for open-addressed table keys. Implementors must provide
/// a well-mixed value (the index takes its slot from the high half and a
/// tag from the low half); equality of hashes is *never* trusted — a tag
/// match is confirmed by comparing full keys.
pub trait KeyHash {
    fn key_hash(&self) -> u64;
}

#[inline]
fn mix(h: u64) -> u64 {
    // splitmix64 finalizer: cheap, and forgiving of weak inputs like
    // sequential connection ids.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl KeyHash for u64 {
    #[inline]
    fn key_hash(&self) -> u64 {
        mix(*self)
    }
}

impl KeyHash for crate::ConnId {
    #[inline]
    fn key_hash(&self) -> u64 {
        mix(self.0)
    }
}

// ---------------------------------------------------------------------------
// VecMap
// ---------------------------------------------------------------------------

/// A map stored as a `Vec<(K, V)>` sorted by key: binary-search reads,
/// shift-insert writes. Intended for degree-bounded tables where n stays
/// small; every operation is O(log n) to find plus O(n) to shift, which
/// beats hashing for n up to a few hundred and costs a fraction of the
/// memory.
#[derive(Debug, Clone)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn idx(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.idx(key).is_ok()
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.idx(key).ok().map(|i| &self.entries[i].1)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.idx(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Inserts, returning the previous value if the key was present
    /// (`HashMap::insert` semantics).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.idx(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes, returning the value if the key was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.idx(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// `entry(key).or_insert_with(default)` without the entry-API plumbing:
    /// returns the existing value or inserts the default first.
    pub fn entry_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.idx(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Key-sorted iteration (deterministic, unlike `HashMap`).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Keeps only entries for which `f` returns true (sorted order).
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| f(k, v));
    }

    /// Heap bytes held by the backing storage.
    pub fn heap_bytes(&self) -> u64 {
        (self.entries.capacity() * std::mem::size_of::<(K, V)>()) as u64
    }
}

// ---------------------------------------------------------------------------
// FifoMap
// ---------------------------------------------------------------------------

/// An index entry is `tag | (ring position + 1)`: the position in the low
/// `POS_BITS` bits (so 0 can mean "empty"), 8 bits of the key's hash above.
const POS_BITS: u32 = 24;
const POS_MASK: u32 = (1 << POS_BITS) - 1;

/// A hash map with FIFO capacity eviction: the `HashMap + VecDeque`
/// route-table idiom as one structure. `insert` on a *fresh* key adds it
/// and, once `bound` keys are held, evicts the oldest; `insert` on an
/// *existing* key overwrites the value without changing its age — exactly
/// the semantics of the route tables it replaced.
///
/// Entries live in `ring` in insertion order. Until `bound` are held a
/// fresh key is pushed; from then on `head` is the oldest, and a fresh key
/// overwrites it in place. `index` is open-addressed with linear probing,
/// a power of two at most half full, and each used slot names a ring
/// position and carries a tag: a probe reads the ring only when the tag
/// matches. Eviction deletes by backward shift, so there are no
/// tombstones, and a full map never rehashes. An empty map holds no heap
/// allocation, and a map evicting at its bound stays at the allocation of
/// its first fill.
#[derive(Debug, Clone)]
pub struct FifoMap<K, V> {
    ring: Vec<(K, V)>,
    index: Vec<u32>,
    /// The oldest entry once the ring is full (0 until then). It and
    /// `bound` are ring positions, under 2^24.
    head: u32,
    bound: u32,
}

impl<K: KeyHash + Eq + Copy, V> FifoMap<K, V> {
    pub fn bounded(bound: usize) -> Self {
        assert!(bound > 0, "a FifoMap holds at least one key");
        assert!(
            bound < 1 << POS_BITS,
            "a FifoMap holds fewer than 2^24 keys"
        );
        FifoMap {
            ring: Vec::new(),
            index: Vec::new(),
            head: 0,
            bound: bound as u32,
        }
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The index slot a hash probes first.
    #[inline]
    fn home(&self, h: u64) -> usize {
        (h >> 32) as usize & (self.index.len() - 1)
    }

    #[inline]
    fn tag(h: u64) -> u32 {
        h as u32 & !POS_MASK
    }

    /// The index slot naming `key` (Ok), or the empty slot that ends its
    /// probe chain (Err). The index must be allocated.
    #[inline]
    fn find(&self, key: &K, h: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let tag = Self::tag(h);
        let mut i = self.home(h);
        loop {
            let e = self.index[i];
            if e == 0 {
                return Err(i);
            }
            if e & !POS_MASK == tag && self.ring[(e & POS_MASK) as usize - 1].0 == *key {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The ring position of `key`'s entry.
    #[inline]
    fn position(&self, key: &K) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let i = self.find(key, key.key_hash()).ok()?;
        Some((self.index[i] & POS_MASK) as usize - 1)
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key).is_some()
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.position(key).map(|p| &self.ring[p].1)
    }

    /// Names ring position `pos` in the first empty slot of `h`'s chain.
    fn place(&mut self, h: u64, pos: usize) {
        let mask = self.index.len() - 1;
        let mut i = self.home(h);
        while self.index[i] != 0 {
            i = (i + 1) & mask;
        }
        self.index[i] = Self::tag(h) | (pos as u32 + 1);
    }

    /// Empties index slot `hole` by backward shift: each later entry of its
    /// cluster whose chain passes through the hole moves into it, and the
    /// slot it left becomes the hole, so no probe chain is ever cut.
    fn delete(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let e = self.index[i];
            if e == 0 {
                break;
            }
            let home = self.home(self.ring[(e & POS_MASK) as usize - 1].0.key_hash());
            // The hole lies on this entry's chain when it is no further from
            // the entry's home than the entry itself.
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.index[hole] = e;
                hole = i;
            }
        }
        self.index[hole] = 0;
    }

    /// Doubles the index (8 slots at first use) and places every entry
    /// anew.
    fn grow_index(&mut self) {
        self.index = vec![0; (self.index.len() * 2).max(8)];
        for pos in 0..self.ring.len() {
            self.place(self.ring[pos].0.key_hash(), pos);
        }
    }

    /// Inserts with FIFO bounding. A fresh key evicts the oldest once
    /// `bound` keys are held; overwriting an existing key's value leaves
    /// its age alone.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(p) = self.position(&key) {
            return Some(std::mem::replace(&mut self.ring[p].1, value));
        }
        let h = key.key_hash();
        let len = self.ring.len();
        let bound = self.bound as usize;
        if len < bound {
            if (len + 1) * 2 > self.index.len() {
                self.grow_index();
            }
            if len == self.ring.capacity() {
                // Doubling, but never past the bound.
                let want = (len * 2).max(4).min(bound);
                self.ring.reserve_exact(want - len);
            }
            self.place(h, len);
            self.ring.push((key, value));
        } else {
            // The oldest entry's slot is the first one from its key's home
            // that names `head`: no key is compared on the way.
            let head = self.head as usize;
            let named = self.head + 1;
            let mask = self.index.len() - 1;
            let mut i = self.home(self.ring[head].0.key_hash());
            while self.index[i] & POS_MASK != named {
                i = (i + 1) & mask;
            }
            self.delete(i);
            self.ring[head] = (key, value);
            self.place(h, head);
            self.head = (self.head + 1) % self.bound;
        }
        None
    }

    /// Empties the map, keeping its allocation.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.index.fill(0);
        self.head = 0;
    }

    /// Heap bytes held by the ring and the index.
    pub fn heap_bytes(&self) -> u64 {
        (self.ring.capacity() * std::mem::size_of::<(K, V)>()
            + self.index.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

// ---------------------------------------------------------------------------
// AgedMap
// ---------------------------------------------------------------------------

/// A map that forgets by age: a key inserted at `t` is found throughout
/// `[t, t + L)` and never at or after `t + 2L`, where `L` is
/// `LIFETIME_US` microseconds of sim time.
///
/// Two [`FifoMap`] generations, as in LimeWire's `RouteTable`. Fresh keys
/// go to the young one. Once it is a lifetime old it becomes the old one,
/// and the old one is cleared and reused as the young one, keeping its
/// allocation. Every call takes the clock and ages the map first, so what
/// it holds is a pure function of the inserts and `now`, wherever the
/// calls fall. An overwrite leaves the key in its generation. Each
/// generation evicts FIFO past half the bound, so the two together never
/// hold more than `bound` keys.
#[derive(Debug, Clone)]
pub struct AgedMap<K, V, const LIFETIME_US: u64> {
    young: FifoMap<K, V>,
    old: FifoMap<K, V>,
    /// When `young` began taking keys; it takes them for one lifetime.
    born: SimTime,
}

impl<K: KeyHash + Eq + Copy, V, const LIFETIME_US: u64> AgedMap<K, V, LIFETIME_US> {
    const LIFETIME: SimDuration = SimDuration(LIFETIME_US);

    pub fn new(bound: usize) -> Self {
        assert!(LIFETIME_US > 0, "an AgedMap needs a lifetime");
        AgedMap {
            young: FifoMap::bounded(bound / 2),
            old: FifoMap::bounded(bound / 2),
            born: SimTime::ZERO,
        }
    }

    /// Keys held, counting any `now` has not yet aged out.
    pub fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flips the generations once the young one is a lifetime old; when it
    /// is two, its keys are past their time too and both start empty.
    fn age(&mut self, now: SimTime) {
        if now < self.born + Self::LIFETIME {
            return;
        }
        std::mem::swap(&mut self.young, &mut self.old);
        self.young.clear();
        self.born += Self::LIFETIME;
        if now >= self.born + Self::LIFETIME {
            self.old.clear();
            self.born = now;
        }
    }

    pub fn get(&mut self, now: SimTime, key: &K) -> Option<&V> {
        self.age(now);
        self.young.get(key).or_else(|| self.old.get(key))
    }

    pub fn contains_key(&mut self, now: SimTime, key: &K) -> bool {
        self.get(now, key).is_some()
    }

    /// Inserts at `now`, returning the value a live key held. The
    /// overwritten key keeps its generation, and so its expiry.
    pub fn insert(&mut self, now: SimTime, key: K, value: V) -> Option<V> {
        self.age(now);
        if self.old.contains_key(&key) {
            return self.old.insert(key, value);
        }
        self.young.insert(key, value)
    }

    /// Heap bytes held by both generations.
    pub fn heap_bytes(&self) -> u64 {
        self.young.heap_bytes() + self.old.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn vecmap_basics() {
        let mut m: VecMap<u64, &str> = VecMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "a"), None);
        assert_eq!(m.insert(3, "b"), None);
        assert_eq!(m.insert(5, "c"), Some("a"));
        assert_eq!(m.get(&5), Some(&"c"));
        assert_eq!(m.len(), 2);
        let keys: Vec<u64> = m.iter().map(|(&k, _)| k).collect();
        assert_eq!(keys, vec![3, 5], "iteration is key-sorted");
        assert_eq!(m.remove(&3), Some("b"));
        assert_eq!(m.remove(&3), None);
        *m.entry_or_insert_with(9, || "z") = "y";
        assert_eq!(m.get(&9), Some(&"y"));
        m.retain(|&k, _| k != 9);
        assert!(!m.contains_key(&9));
    }

    /// At steady-state eviction the allocation of the first fill is the
    /// last: nothing grows, however many times the ring wraps.
    #[test]
    fn fifomap_stops_growing_once_full() {
        const BOUND: usize = 16_384;
        let mut m: FifoMap<u64, u64> = FifoMap::bounded(BOUND);
        for k in 0..BOUND as u64 {
            m.insert(k, k);
        }
        let first_fill = m.heap_bytes();
        for k in BOUND as u64..2_000_000 {
            m.insert(k, k);
        }
        assert_eq!(m.len(), BOUND);
        assert_eq!(m.heap_bytes(), first_fill);
        assert_eq!(m.get(&1_999_999), Some(&1_999_999));
        assert!(!m.contains_key(&(2_000_000 - BOUND as u64 - 1)));
    }

    #[test]
    fn fifomap_evicts_in_insert_order() {
        let mut m: FifoMap<u64, u32> = FifoMap::bounded(3);
        for k in 0..3u64 {
            assert_eq!(m.insert(k, k as u32), None);
        }
        // Overwrite must not refresh position 0 in the queue.
        assert_eq!(m.insert(0, 99), Some(0));
        assert_eq!(m.len(), 3);
        m.insert(3, 3); // evicts key 0 despite the recent overwrite
        assert!(!m.contains_key(&0));
        assert!(m.contains_key(&1));
        m.insert(4, 4); // evicts key 1
        assert!(!m.contains_key(&1));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn empty_maps_hold_no_heap() {
        let m: FifoMap<u64, u64> = FifoMap::bounded(16);
        assert_eq!(m.heap_bytes(), 0);
        let v: VecMap<u64, u64> = VecMap::new();
        assert_eq!(v.heap_bytes(), 0);
        let a: AgedMap<u64, u64, 1_000_000> = AgedMap::new(16);
        assert_eq!(a.heap_bytes(), 0);
    }

    /// Steady traffic flips the generations for ever on the allocation of
    /// the first two lifetimes, and holds two lifetimes of keys at most.
    #[test]
    fn agedmap_reuses_its_generations() {
        type Map = AgedMap<u64, u64, 600_000_000>;
        let mut m = Map::new(16_384);
        let insert_each_second = |m: &mut Map, keys: std::ops::Range<u64>| {
            for k in keys {
                m.insert(SimTime::from_secs(k), k, k);
                assert!(m.len() <= 1_200);
            }
        };
        insert_each_second(&mut m, 0..2_000);
        let steady = m.heap_bytes();
        insert_each_second(&mut m, 2_000..100_000);
        assert_eq!(m.heap_bytes(), steady);
        let now = SimTime::from_secs(100_000);
        assert!(m.contains_key(now, &(100_000 - 600)));
        assert!(!m.contains_key(now, &(100_000 - 1_200)));
    }

    /// A full map holds its ring at the bound and its index at twice that.
    #[test]
    fn fifomap_full_size_is_ring_plus_half_full_index() {
        let mut m: FifoMap<u64, ()> = FifoMap::bounded(16_384);
        for k in 0..20_000u64 {
            m.insert(k, ());
        }
        assert_eq!(m.heap_bytes(), 16_384 * 8 + 32_768 * 4);
    }

    /// A key whose hash takes one of two values: every probe collides, so
    /// only the full-key compare tells keys apart, and every eviction
    /// shifts a long cluster back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Clash(u64);

    impl KeyHash for Clash {
        fn key_hash(&self) -> u64 {
            if self.0.is_multiple_of(2) {
                0x0123_4567_89AB_CDEF
            } else {
                0x0123_4568_79AB_CDEF
            }
        }
    }

    std::thread_local! {
        static COMPARES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A key that shares one home slot with every other and has a tag of
    /// its own (its low byte), and counts full-key compares.
    #[derive(Debug, Clone, Copy)]
    struct Tagged(u8);

    impl PartialEq for Tagged {
        fn eq(&self, other: &Self) -> bool {
            COMPARES.with(|c| c.set(c.get() + 1));
            self.0 == other.0
        }
    }

    impl Eq for Tagged {}

    impl KeyHash for Tagged {
        fn key_hash(&self) -> u64 {
            (self.0 as u64) << POS_BITS
        }
    }

    /// A probe reads the ring only where a tag matches: a miss down a
    /// cluster of other tags compares no key, a hit compares one.
    #[test]
    fn probes_compare_keys_only_on_a_tag_match() {
        let mut m: FifoMap<Tagged, u8> = FifoMap::bounded(16);
        for k in 1..=12 {
            m.insert(Tagged(k), k);
        }
        let compares = |m: &FifoMap<Tagged, u8>, k: u8| {
            COMPARES.with(|c| c.set(0));
            let got = m.get(&Tagged(k)).copied();
            (got, COMPARES.with(|c| c.get()))
        };
        assert_eq!(compares(&m, 200), (None, 0));
        assert_eq!(compares(&m, 12), (Some(12), 1));
        assert_eq!(compares(&m, 1), (Some(1), 1));
    }

    /// The `HashMap` + `VecDeque` idiom `FifoMap` replaces.
    struct Reference<K, V> {
        map: HashMap<K, V>,
        order: std::collections::VecDeque<K>,
        bound: usize,
    }

    impl<K: std::hash::Hash + Eq + Copy, V> Reference<K, V> {
        fn new(bound: usize) -> Self {
            Reference {
                map: HashMap::new(),
                order: Default::default(),
                bound,
            }
        }

        fn insert(&mut self, k: K, v: V) -> Option<V> {
            let prev = self.map.insert(k, v);
            if prev.is_none() {
                self.order.push_back(k);
                if self.order.len() > self.bound {
                    let old = self.order.pop_front().unwrap();
                    self.map.remove(&old);
                }
            }
            prev
        }
    }

    /// Drives a `FifoMap` and the reference through one op stream:
    /// op 0 inserts, anything else looks up; every key is checked at the
    /// end.
    fn equivalent<K, F>(bound: usize, keys: u64, ops: &[(u8, u64, u32)], key: F)
    where
        K: KeyHash + Eq + Copy + std::hash::Hash + std::fmt::Debug,
        F: Fn(u64) -> K,
    {
        let mut fm: FifoMap<K, u32> = FifoMap::bounded(bound);
        let mut reference = Reference::new(bound);
        for &(op, k, v) in ops {
            let k = key(k);
            if op == 0 {
                assert_eq!(fm.insert(k, v), reference.insert(k, v), "insert {k:?}");
            } else {
                assert_eq!(fm.get(&k), reference.map.get(&k), "get {k:?}");
            }
            assert_eq!(fm.len(), reference.map.len());
        }
        for k in (0..keys).map(&key) {
            assert_eq!(fm.get(&k), reference.map.get(&k), "final key {k:?}");
        }
    }

    proptest::proptest! {
        /// VecMap vs HashMap under a random op stream.
        #[test]
        fn vecmap_equivalence(ops in proptest::collection::vec(
            (0u8..4, 0u64..32, 0u32..1000), 0..200)) {
            let mut vm: VecMap<u64, u32> = VecMap::new();
            let mut hm: HashMap<u64, u32> = HashMap::new();
            for (op, k, v) in ops {
                match op {
                    0 => proptest::prop_assert_eq!(vm.insert(k, v), hm.insert(k, v)),
                    1 => proptest::prop_assert_eq!(vm.remove(&k), hm.remove(&k)),
                    2 => proptest::prop_assert_eq!(vm.get(&k), hm.get(&k)),
                    _ => proptest::prop_assert_eq!(vm.contains_key(&k), hm.contains_key(&k)),
                }
                proptest::prop_assert_eq!(vm.len(), hm.len());
            }
            let mut reference: Vec<(u64, u32)> = hm.into_iter().collect();
            reference.sort_unstable();
            let got: Vec<(u64, u32)> = vm.iter().map(|(&k, &v)| (k, v)).collect();
            proptest::prop_assert_eq!(got, reference, "sorted iteration matches");
        }

        /// FifoMap vs the HashMap+VecDeque idiom it replaces, over op
        /// streams long enough to wrap the ring many times.
        #[test]
        fn fifomap_equivalence(
            bound in 1usize..40,
            ops in proptest::collection::vec((0u8..2, 0u64..64, 0u32..100), 0..2000),
        ) {
            equivalent(bound, 64, &ops, |k| k);
        }

        /// The same with every probe colliding: the full-key compare and
        /// the backward shift run on every operation.
        #[test]
        fn fifomap_equivalence_under_collisions(
            bound in 1usize..40,
            ops in proptest::collection::vec((0u8..2, 0u64..64, 0u32..100), 0..2000),
        ) {
            equivalent(bound, 64, &ops, Clash);
        }

        /// AgedMap vs its model, never at its bound: every key keeps to
        /// its lifetimes exactly.
        #[test]
        fn agedmap_keeps_to_its_lifetimes(
            ops in proptest::collection::vec((0u8..2, 0u64..AGED_KEYS, 0u32..100, 0u64..450), 0..2000),
        ) {
            aged_equivalent(16_384, &ops);
        }

        /// The same with generations too small for the keys: the map
        /// never holds more than its bound, and a key evicted early is
        /// gone, never stale.
        #[test]
        fn agedmap_stays_within_its_bound(
            bound in 2usize..40,
            ops in proptest::collection::vec((0u8..2, 0u64..AGED_KEYS, 0u32..100, 0u64..450), 0..2000),
        ) {
            aged_equivalent(bound, &ops);
        }
    }

    const AGED_KEYS: u64 = 64;

    /// Drives an `AgedMap` with a lifetime of 100 µs against a model of each
    /// key's value and insert time. Each op first moves the clock on (by
    /// nothing about half the time, by up to 2.5 lifetimes otherwise), then
    /// looks its key up and, for op 0, inserts it. A key inserted at `t` is
    /// found with its latest value throughout `[t, t + 100)` unless the
    /// bound is too small for the keys, and never from `t + 200` on; an
    /// overwrite keeps `t`.
    fn aged_equivalent(bound: usize, ops: &[(u8, u64, u32, u64)]) {
        const L: u64 = 100;
        let mut map: AgedMap<u64, u32, L> = AgedMap::new(bound);
        let mut model: HashMap<u64, (u32, u64)> = HashMap::new();
        let capped = (bound / 2) < AGED_KEYS as usize;
        let mut now = 0;
        for &(op, k, v, dt) in ops {
            now += dt.saturating_sub(200);
            let t = SimTime::from_micros(now);
            let got = map.get(t, &k).copied();
            match model.get(&k) {
                Some(&(want, at)) if now - at < L && !capped => {
                    assert_eq!(got, Some(want), "key {k} at {now}")
                }
                Some(&(want, at)) if now - at < 2 * L => {
                    assert!(got.is_none() || got == Some(want), "key {k} at {now}")
                }
                _ => assert_eq!(got, None, "key {k} at {now}"),
            }
            if op == 0 {
                assert_eq!(map.insert(t, k, v), got);
                let at = if got.is_some() { model[&k].1 } else { now };
                model.insert(k, (v, at));
            }
            assert!(map.len() <= bound);
        }
    }
}
