//! Small-footprint map containers for per-node protocol state.
//!
//! At paper scale (a few hundred nodes) each servent carrying half a dozen
//! `HashMap`s is invisible. At 10^5–10^6 nodes the fixed overhead of those
//! maps — SipHash state, load-factor slack, 48-byte struct headers —
//! dominates the bytes-per-node budget. Two replacements cover every
//! per-node table in the protocol crates:
//!
//! * [`VecMap`] — a sorted `Vec<(K, V)>` with binary-search lookup, for
//!   keyspaces bounded by a node's degree (connection tables, in-flight
//!   downloads: typically ≤ 32 entries, never more than a few hundred).
//!   An empty map is one `Vec` (24 bytes, no allocation); a populated map
//!   stores exactly its entries plus growth slack, with no hash state and
//!   no per-slot control bytes.
//! * [`FifoMap`] / [`FifoSet`] — an open-addressed, power-of-two table
//!   keyed through the [`KeyHash`] trait, paired with a FIFO eviction
//!   queue, for the bounded route/duplicate tables (seen-GUIDs, query
//!   routes, push routes). Replaces the `HashMap` + `VecDeque` pairs with
//!   one allocation-free-when-empty structure and a multiply-shift hash
//!   instead of SipHash.
//!
//! Both preserve the *exact* observable semantics of the `HashMap`-based
//! code they replace (the proptest suites below drive them against the
//! std-collections reference): full-key equality on every probe, value
//! overwrite without FIFO reordering, eviction strictly in insert order.
//! Iteration order of [`VecMap`] is sorted by key — already deterministic,
//! unlike `HashMap`, so the fan-out sites that used to collect-and-sort
//! can keep their sort as a no-op safety net.

use std::collections::VecDeque;

/// A 64-bit hash for open-addressed table keys. Implementors must provide
/// a well-mixed value (the table uses the high bits via multiply-shift);
/// equality of hashes is *never* trusted — every probe compares full keys.
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
// FifoMap / FifoSet
// ---------------------------------------------------------------------------

/// One open-addressing slot. `Tombstone` keeps probe chains intact after
/// removals; tombstones are reclaimed wholesale on rehash.
#[derive(Debug, Clone)]
enum Slot<K, V> {
    Empty,
    Tombstone,
    Full(K, V),
}

/// An open-addressed hash map with FIFO capacity eviction: the
/// `HashMap + VecDeque` route-table idiom as one structure. `insert` on a
/// *fresh* key records it in the eviction queue and, past `bound` live
/// keys, removes the oldest; `insert` on an *existing* key overwrites the
/// value without touching the queue — exactly the semantics of the code
/// it replaces (`remember_seen` / `route_query_back`).
///
/// Unbounded use is supported with `bound = usize::MAX`. An empty map
/// holds no heap allocation, and a map evicting at its bound stays at the
/// allocation of its first fill.
#[derive(Debug, Clone)]
pub struct FifoMap<K, V> {
    slots: Vec<Slot<K, V>>,
    order: VecDeque<K>,
    bound: usize,
    len: usize,
    /// Full (non-tombstone) plus tombstone slots — the rehash trigger.
    used: usize,
}

impl<K: KeyHash + Eq + Copy, V> FifoMap<K, V> {
    pub fn bounded(bound: usize) -> Self {
        assert!(bound > 0, "a FifoMap holds at least one key");
        FifoMap {
            slots: Vec::new(),
            order: VecDeque::new(),
            bound,
            len: 0,
            used: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Finds `key`'s slot (Ok) or the first insertable slot on its probe
    /// chain (Err). Caller guarantees the table is allocated and not full.
    fn probe(&self, key: &K) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = (key.key_hash() >> 32) as usize & mask;
        let mut insert_at = None;
        loop {
            match &self.slots[i] {
                Slot::Empty => return Err(insert_at.unwrap_or(i)),
                Slot::Tombstone => {
                    if insert_at.is_none() {
                        insert_at = Some(i);
                    }
                }
                Slot::Full(k, _) => {
                    if k == key {
                        return Ok(i);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Rebuilds the table without its tombstones: at the same size while
    /// the live keys fill at most half of it — under steady FIFO eviction it
    /// is tombstones, not keys, that reach the load limit — and doubled
    /// otherwise.
    fn rehash(&mut self) {
        let cap = self.slots.len();
        let new_cap = if self.len * 2 <= cap { cap } else { cap * 2 }.max(16);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(new_cap, || Slot::Empty);
        self.used = self.len;
        for slot in old {
            if let Slot::Full(k, v) = slot {
                let i = match self.probe(&k) {
                    Ok(i) | Err(i) => i,
                };
                self.slots[i] = Slot::Full(k, v);
            }
        }
    }

    /// Rehashes so at least one more entry fits below 7/8 load.
    fn reserve_one(&mut self) {
        if self.slots.is_empty() || (self.used + 1) * 8 > self.slots.len() * 7 {
            self.rehash();
        }
    }

    pub fn contains_key(&self, key: &K) -> bool {
        !self.slots.is_empty() && self.probe(key).is_ok()
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        match self.probe(key) {
            Ok(i) => match &self.slots[i] {
                Slot::Full(_, v) => Some(v),
                _ => unreachable!(),
            },
            Err(_) => None,
        }
    }

    /// Removes `key` without touching the eviction queue (the stale queue
    /// entry is skipped at eviction time — same net behavior as the
    /// original idiom, which never removed mid-queue either).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if self.slots.is_empty() {
            return None;
        }
        match self.probe(key) {
            Ok(i) => {
                let slot = std::mem::replace(&mut self.slots[i], Slot::Tombstone);
                self.len -= 1;
                match slot {
                    Slot::Full(_, v) => Some(v),
                    _ => unreachable!(),
                }
            }
            Err(_) => None,
        }
    }

    fn raw_insert(&mut self, key: K, value: V) -> Option<V> {
        self.reserve_one();
        match self.probe(&key) {
            Ok(i) => match &mut self.slots[i] {
                Slot::Full(_, v) => Some(std::mem::replace(v, value)),
                _ => unreachable!(),
            },
            Err(i) => {
                if matches!(self.slots[i], Slot::Empty) {
                    self.used += 1;
                }
                self.slots[i] = Slot::Full(key, value);
                self.len += 1;
                None
            }
        }
    }

    /// Inserts with FIFO bounding. A fresh key joins the eviction queue
    /// (evicting the oldest live key once over `bound`); overwriting an
    /// existing key's value leaves the queue untouched.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let prev = self.raw_insert(key, value);
        if prev.is_none() {
            // Once `bound` keys are queued the oldest leaves the queue before
            // the new one joins, so the queue never outgrows its first fill.
            let oldest = if self.order.len() >= self.bound {
                self.order.pop_front()
            } else {
                None
            };
            self.order.push_back(key);
            if let Some(old) = oldest {
                self.remove(&old);
            }
        }
        prev
    }

    /// Heap bytes held by the table and eviction queue.
    pub fn heap_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<Slot<K, V>>()
            + self.order.capacity() * std::mem::size_of::<K>()) as u64
    }
}

/// [`FifoMap`] with unit values: the bounded duplicate-suppression set.
#[derive(Debug, Clone)]
pub struct FifoSet<K> {
    map: FifoMap<K, ()>,
}

impl<K: KeyHash + Eq + Copy> FifoSet<K> {
    pub fn bounded(bound: usize) -> Self {
        FifoSet {
            map: FifoMap::bounded(bound),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts; returns true when the key was fresh (`HashSet::insert`
    /// semantics), evicting FIFO past the bound.
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    pub fn heap_bytes(&self) -> u64 {
        self.map.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

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

    /// At steady-state eviction the 7/8 trigger is reached by tombstones;
    /// the table must rehash at its size, not double on every cycle.
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
    fn fifoset_matches_manual_idiom() {
        // Reference: the exact remember_seen idiom from the servent.
        let bound = 4;
        let mut set = HashSet::new();
        let mut order = std::collections::VecDeque::new();
        let mut fifo: FifoSet<u64> = FifoSet::bounded(bound);
        for k in [1u64, 2, 3, 1, 4, 5, 6, 2, 2, 7, 1] {
            let fresh_ref = set.insert(k);
            if fresh_ref {
                order.push_back(k);
                if order.len() > bound {
                    let old = order.pop_front().unwrap();
                    set.remove(&old);
                }
            }
            assert_eq!(fifo.insert(k), fresh_ref, "key {k}");
        }
        for k in 0..10u64 {
            assert_eq!(fifo.contains(&k), set.contains(&k), "key {k}");
        }
    }

    #[test]
    fn empty_maps_hold_no_heap() {
        let m: FifoMap<u64, u64> = FifoMap::bounded(16);
        assert_eq!(m.heap_bytes(), 0);
        let v: VecMap<u64, u64> = VecMap::new();
        assert_eq!(v.heap_bytes(), 0);
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

        /// FifoMap vs the HashMap+VecDeque idiom it replaces, including
        /// interleaved removes (which leave stale queue entries in both).
        #[test]
        fn fifomap_equivalence(
            bound in 1usize..8,
            ops in proptest::collection::vec((0u8..3, 0u64..16, 0u32..100), 0..200),
        ) {
            let mut fm: FifoMap<u64, u32> = FifoMap::bounded(bound);
            let mut hm: HashMap<u64, u32> = HashMap::new();
            let mut order: std::collections::VecDeque<u64> = Default::default();
            for (op, k, v) in ops {
                match op {
                    0 => {
                        let prev = hm.insert(k, v);
                        if prev.is_none() {
                            order.push_back(k);
                            if order.len() > bound {
                                let old = order.pop_front().unwrap();
                                hm.remove(&old);
                            }
                        }
                        proptest::prop_assert_eq!(fm.insert(k, v), prev);
                    }
                    1 => proptest::prop_assert_eq!(fm.remove(&k), hm.remove(&k)),
                    _ => proptest::prop_assert_eq!(fm.get(&k), hm.get(&k)),
                }
                proptest::prop_assert_eq!(fm.len(), hm.len());
            }
            for k in 0..16u64 {
                proptest::prop_assert_eq!(fm.get(&k), hm.get(&k), "final key {}", k);
            }
        }

        /// FifoSet vs HashSet+VecDeque (the remember_seen idiom).
        #[test]
        fn fifoset_equivalence(
            bound in 1usize..8,
            keys in proptest::collection::vec(0u64..16, 0..200),
        ) {
            let mut fs: FifoSet<u64> = FifoSet::bounded(bound);
            let mut hs: HashSet<u64> = HashSet::new();
            let mut order: std::collections::VecDeque<u64> = Default::default();
            for k in keys {
                let fresh = hs.insert(k);
                if fresh {
                    order.push_back(k);
                    if order.len() > bound {
                        let old = order.pop_front().unwrap();
                        hs.remove(&old);
                    }
                }
                proptest::prop_assert_eq!(fs.insert(k), fresh);
                proptest::prop_assert_eq!(fs.len(), hs.len());
            }
            for k in 0..16u64 {
                proptest::prop_assert_eq!(fs.contains(&k), hs.contains(&k));
            }
        }
    }
}
