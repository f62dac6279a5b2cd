//! Content-addressed verdict cache.
//!
//! Detection is a pure function of content bytes — the same body always
//! produces the same set of signature names — so a bounded SHA-1 → verdict
//! map turns the P2P workload's extreme payload redundancy (a handful of
//! distinct bodies served hundreds of thousands of times, see EXPERIMENTS.md
//! F2) into cache hits that skip signature matching and archive traversal
//! entirely. This is the feed-forward prefilter shape BitAV/TorrentGuard
//! build their throughput on.
//!
//! Eviction is deterministic FIFO (insertion order), never dependent on wall
//! clock or pointer identity, so a simulation run with the cache enabled is
//! bit-identical to one without it.

use crate::engine::Verdict;
use p2pmal_hashes::Sha1Digest;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Counters describing cache behaviour; cheap to copy into logs/metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VerdictCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Number of `insert` calls — distinct payloads scanned while cached
    /// (re-inserts after eviction count again).
    pub insertions: u64,
}

/// A bounded SHA-1–keyed verdict cache with FIFO eviction.
pub struct VerdictCache {
    capacity: usize,
    map: HashMap<Sha1Digest, Arc<Verdict>>,
    /// Insertion order, oldest first; drives deterministic eviction.
    order: VecDeque<Sha1Digest>,
    stats: VerdictCacheStats,
}

impl VerdictCache {
    /// `capacity` of 0 disables the cache: every lookup misses and inserts
    /// are dropped.
    pub fn new(capacity: usize) -> Self {
        VerdictCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(4096)),
            order: VecDeque::with_capacity(capacity.min(4096)),
            stats: VerdictCacheStats::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn stats(&self) -> VerdictCacheStats {
        self.stats
    }

    /// Looks up a digest, counting a hit or miss.
    pub fn get(&mut self, digest: &Sha1Digest) -> Option<Arc<Verdict>> {
        match self.map.get(digest) {
            Some(v) => {
                self.stats.hits += 1;
                Some(Arc::clone(v))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a verdict, evicting the oldest entry when full. Re-inserting
    /// a present digest refreshes the verdict without growing the queue.
    pub fn insert(&mut self, digest: Sha1Digest, verdict: Arc<Verdict>) {
        if self.capacity == 0 {
            return;
        }
        self.stats.insertions += 1;
        if self.map.insert(digest, verdict).is_some() {
            return;
        }
        self.order.push_back(digest);
        if self.map.len() > self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(n: u8) -> Sha1Digest {
        Sha1Digest([n; 20])
    }

    fn verdict() -> Arc<Verdict> {
        Arc::new(Verdict {
            detections: Vec::new(),
            notes: Vec::new(),
            decode_errors: Vec::new(),
        })
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = VerdictCache::new(8);
        assert!(c.get(&digest(1)).is_none());
        c.insert(digest(1), verdict());
        assert!(c.get(&digest(1)).is_some());
        assert!(c.get(&digest(2)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 2, 1, 0));
    }

    #[test]
    fn capacity_bounds_and_fifo_eviction() {
        let mut c = VerdictCache::new(3);
        for n in 0..5u8 {
            c.insert(digest(n), verdict());
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 2);
        // Oldest two (0, 1) evicted; 2, 3, 4 remain.
        assert!(c.get(&digest(0)).is_none());
        assert!(c.get(&digest(1)).is_none());
        assert!(c.get(&digest(2)).is_some());
        assert!(c.get(&digest(4)).is_some());
    }

    #[test]
    fn reinsert_does_not_duplicate_queue_entry() {
        let mut c = VerdictCache::new(2);
        c.insert(digest(1), verdict());
        c.insert(digest(1), verdict());
        c.insert(digest(2), verdict());
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        // Both still present: the re-insert must not have queued 1 twice.
        assert!(c.get(&digest(1)).is_some());
        assert!(c.get(&digest(2)).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = VerdictCache::new(0);
        assert!(!c.enabled());
        c.insert(digest(1), verdict());
        assert!(c.is_empty());
        assert!(c.get(&digest(1)).is_none());
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn eviction_order_is_insertion_order_not_access_order() {
        let mut c = VerdictCache::new(2);
        c.insert(digest(1), verdict());
        c.insert(digest(2), verdict());
        // Touch 1 (a hit) — FIFO ignores recency, so 1 is still evicted first.
        assert!(c.get(&digest(1)).is_some());
        c.insert(digest(3), verdict());
        assert!(c.get(&digest(1)).is_none());
        assert!(c.get(&digest(2)).is_some());
        assert!(c.get(&digest(3)).is_some());
    }
}
