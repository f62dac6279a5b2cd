//! The crawler's content-addressed download→scan pipeline.
//!
//! Every completed download is SHA-1 hashed (the study's content identity);
//! the digest then consults a bounded [`VerdictCache`] before the signature
//! engine runs. The P2P workload is payload-redundant — a handful of
//! distinct bodies (one characteristic size per malware family,
//! EXPERIMENTS.md F2) answer hundreds of thousands of responses — but the
//! crawler already folds that redundancy *before* it fetches: a response
//! whose (name, size) or (host, size) has an outcome is resolved from the
//! log and never downloaded. What still reaches this cache is the same
//! content under a new name from a new host, which is rare:
//! `crawler.scan_cache_hit_ratio` is 0.046 on the benchmark's `lw_flood`
//! day (263 bodies) and 0 on `ft_search`. The cache is a bound on repeated
//! work, not the reason scanning is cheap.
//!
//! Scanning is a pure function of content bytes, and eviction is
//! deterministic FIFO, so enabling the cache cannot change any logged
//! outcome: the crawler persists only the detection *names* from the
//! verdict, which depend on the body alone.

use p2pmal_hashes::Sha1Digest;
use p2pmal_scanner::{ScanScratch, Scanner, Verdict, VerdictCache};
use std::collections::HashSet;
use std::sync::Arc;

/// Default verdict-cache capacity for crawler configs. The full study sees
/// only dozens of distinct payloads, so this never evicts in practice while
/// still bounding memory against adversarial payload floods.
pub const DEFAULT_SCAN_CACHE_ENTRIES: usize = 4096;

/// Counters for the download→hash→scan pipeline, carried in the crawl log
/// and mirrored into `SimMetrics` / `P2PMAL_TRACE` day lines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanStats {
    /// Bodies that completed download and entered the pipeline.
    pub bodies: u64,
    /// Bytes SHA-1 hashed (every body, hit or miss).
    pub bytes_hashed: u64,
    /// Bodies handed to the signature engine (cache misses, or everything
    /// when the cache is disabled).
    pub bodies_scanned: u64,
    /// Bytes handed to the signature engine (outer bodies; archive members
    /// found during traversal are not re-counted here).
    pub bytes_scanned: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// Distinct payload digests observed over the whole run.
    pub distinct_payloads: u64,
}

impl ScanStats {
    /// Cache hit rate in percent (0 when nothing was looked up).
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 * 100.0 / total as f64
        }
    }
}

/// A scanner fronted by the content-addressed verdict cache.
pub struct ScanPipeline {
    scanner: Arc<Scanner>,
    cache: VerdictCache,
    /// All digests ever seen, for the distinct-payload census. Payloads are
    /// few and digests 20 bytes, so this stays tiny even on month runs.
    seen: HashSet<Sha1Digest>,
    stats: ScanStats,
    /// Inflate/traversal buffers reused from one scan to the next.
    scratch: ScanScratch,
}

impl ScanPipeline {
    /// `cache_entries` of 0 disables caching (every body is fully scanned).
    pub fn new(scanner: Arc<Scanner>, cache_entries: usize) -> Self {
        ScanPipeline {
            scanner,
            cache: VerdictCache::new(cache_entries),
            seen: HashSet::new(),
            stats: ScanStats::default(),
            scratch: ScanScratch::new(),
        }
    }

    /// Snapshot of the pipeline counters.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// Hashes `body`, resolves its verdict (cached or freshly scanned), and
    /// returns both. `name` only decorates detection locations inside the
    /// verdict; outcomes depend on the bytes alone.
    pub fn scan(&mut self, name: &str, body: &[u8]) -> (Sha1Digest, Arc<Verdict>) {
        let digest = p2pmal_hashes::sha1(body);
        self.stats.bodies += 1;
        self.stats.bytes_hashed += body.len() as u64;
        if self.seen.insert(digest) {
            self.stats.distinct_payloads += 1;
        }
        if self.cache.enabled() {
            if let Some(verdict) = self.cache.get(&digest) {
                self.stats.cache_hits += 1;
                return (digest, verdict);
            }
            self.stats.cache_misses += 1;
        }
        let verdict = Arc::new(
            self.scanner
                .scan_with_scratch(name, body, &mut self.scratch),
        );
        self.stats.bodies_scanned += 1;
        self.stats.bytes_scanned += body.len() as u64;
        self.cache.insert(digest, Arc::clone(&verdict));
        self.stats.cache_evictions = self.cache.stats().evictions;
        (digest, verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmal_scanner::SignatureDb;

    fn pipeline(cache_entries: usize) -> ScanPipeline {
        let mut db = SignatureDb::new();
        db.add_literal("W32.Test", b"EVILBYTES").unwrap();
        ScanPipeline::new(Arc::new(Scanner::new(db.build().unwrap())), cache_entries)
    }

    #[test]
    fn cached_and_uncached_verdicts_agree() {
        let mut cached = pipeline(64);
        let mut uncached = pipeline(0);
        let bodies: [&[u8]; 3] = [b"clean body", b"has EVILBYTES inside", b"clean body"];
        for body in bodies {
            let (dc, vc) = cached.scan("f.exe", body);
            let (du, vu) = uncached.scan("f.exe", body);
            assert_eq!(dc, du);
            assert_eq!(vc.infected(), vu.infected());
            assert_eq!(vc.primary(), vu.primary());
        }
        assert_eq!(cached.stats().cache_hits, 1);
        assert_eq!(cached.stats().cache_misses, 2);
        assert_eq!(cached.stats().distinct_payloads, 2);
        assert_eq!(cached.stats().bodies_scanned, 2);
        let u = uncached.stats();
        assert_eq!((u.cache_hits, u.cache_misses), (0, 0));
        assert_eq!(u.bodies_scanned, 3);
        assert_eq!(u.distinct_payloads, 2);
    }

    #[test]
    fn bytes_accounting() {
        let mut p = pipeline(64);
        p.scan("a.exe", b"0123456789");
        p.scan("b.exe", b"0123456789");
        let s = p.stats();
        assert_eq!(s.bodies, 2);
        assert_eq!(s.bytes_hashed, 20);
        assert_eq!(s.bytes_scanned, 10, "second body resolved from cache");
        assert!((s.hit_rate_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_summaries_survive_zero_lookups() {
        // A fresh pipeline (and a cache-disabled one that never counts
        // lookups) must report a finite 0% hit rate, not NaN.
        assert_eq!(ScanStats::default().hit_rate_pct(), 0.0);
        let mut uncached = pipeline(0);
        uncached.scan("f.exe", b"body");
        let s = uncached.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (0, 0));
        assert!(s.hit_rate_pct().is_finite());
        assert_eq!(s.hit_rate_pct(), 0.0);
    }
}
