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

use crate::log::ResponseRecord;
use p2pmal_hashes::Sha1Digest;
use p2pmal_scanner::{ScanJob, ScanPool, ScanScratch, Scanner, Verdict, VerdictCache};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
    /// Reused inflate/traversal buffers for inline (non-batched) scans.
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
        self.scan_prepared(name, body, digest, None)
    }

    /// The bookkeeping half of [`Self::scan`], for callers that already hold
    /// the body's digest (and possibly an off-thread verdict).
    ///
    /// Counter-for-counter identical to the sequential path: the digest is
    /// censused, the cache consulted (hits return immediately), and on a
    /// miss the `precomputed` verdict — produced by the batch workers from
    /// the same `(name, body)` pair — stands in for an engine run. Without
    /// one (sequential callers, or a planned slot that lost a race with FIFO
    /// eviction during replay) the engine runs inline, exactly as before.
    pub fn scan_prepared(
        &mut self,
        name: &str,
        body: &[u8],
        digest: Sha1Digest,
        precomputed: Option<&Arc<Verdict>>,
    ) -> (Sha1Digest, Arc<Verdict>) {
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
        let verdict = match precomputed {
            Some(v) => Arc::clone(v),
            None => Arc::new(
                self.scanner
                    .scan_with_scratch(name, body, &mut self.scratch),
            ),
        };
        self.stats.bodies_scanned += 1;
        self.stats.bytes_scanned += body.len() as u64;
        self.cache.insert(digest, Arc::clone(&verdict));
        self.stats.cache_evictions = self.cache.stats().evictions;
        (digest, verdict)
    }
}

/// Flush the batch once it holds this many bodies...
pub const SCAN_BATCH_MAX_BODIES: usize = 32;
/// ...or this many buffered payload bytes, whichever comes first.
pub const SCAN_BATCH_MAX_BYTES: u64 = 64 << 20;

/// A completed download parked until the next batch flush.
struct DeferredScan {
    record: ResponseRecord,
    body: Arc<Vec<u8>>,
}

/// One merged verdict from a batch flush, in submission order.
pub struct FlushOutcome {
    pub record: ResponseRecord,
    pub body_len: u64,
    pub digest: Sha1Digest,
    pub verdict: Arc<Verdict>,
}

/// Everything a flush produced, plus how long the two phases took. The
/// caller attributes `prepare_nanos` (parallel hash + engine work) to the
/// `scan` profiler bucket and `merge_nanos` (sequential replay) to
/// `scan_merge`.
pub struct FlushResult {
    pub outcomes: Vec<FlushOutcome>,
    pub prepare_nanos: u64,
    pub merge_nanos: u64,
}

/// The batched, deterministic parallel front half of the scan pipeline.
///
/// Completed downloads accumulate here instead of being scanned inline;
/// between sim-time barriers the service hashes and scans the batch on a
/// work-stealing [`ScanPool`], then replays every body through
/// [`ScanPipeline::scan_prepared`] **in submission order**. The replay does
/// all stat/cache bookkeeping on one thread, so logs, counters and
/// trajectory digests are byte-identical to the sequential path — worker
/// threads only ever compute pure functions of the body bytes.
///
/// With one thread ([`Self::deferring`] == false) the service is inert and
/// callers scan inline, reproducing today's behavior exactly.
pub struct ScanService {
    pool: ScanPool,
    pending: Vec<DeferredScan>,
    pending_bytes: u64,
}

impl ScanService {
    pub fn new(threads: usize) -> Self {
        ScanService {
            pool: ScanPool::new(threads),
            pending: Vec::new(),
            pending_bytes: 0,
        }
    }

    /// True when downloads should be parked for batch scanning rather than
    /// scanned inline.
    pub fn deferring(&self) -> bool {
        self.pool.threads() > 1
    }

    /// Number of bodies waiting for the next flush.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Park a completed download for the next flush.
    pub fn submit(&mut self, record: ResponseRecord, body: Vec<u8>) {
        self.pending_bytes += body.len() as u64;
        self.pending.push(DeferredScan {
            record,
            body: Arc::new(body),
        });
    }

    /// Whether the batch has hit its size thresholds and should be flushed
    /// without waiting for the next barrier.
    pub fn should_flush(&self) -> bool {
        self.pending.len() >= SCAN_BATCH_MAX_BODIES || self.pending_bytes >= SCAN_BATCH_MAX_BYTES
    }

    /// Hash + scan the batch on the pool, then merge verdicts back through
    /// `pipeline` in submission order.
    ///
    /// Parallel work is planned so the engine runs exactly as often as the
    /// sequential path would have: with the cache enabled, one scan per
    /// first-occurrence digest not already cached; with it disabled, one
    /// scan per body (each under its own filename, keeping verdict location
    /// strings identical). The replay itself trusts only the cache — a
    /// planned verdict is consumed solely when the replay sees the same
    /// miss the planner predicted, and a miss with no planned verdict (FIFO
    /// eviction between plan and replay) falls back to an inline scan.
    pub fn flush(&mut self, pipeline: &mut ScanPipeline) -> FlushResult {
        if self.pending.is_empty() {
            return FlushResult {
                outcomes: Vec::new(),
                prepare_nanos: 0,
                merge_nanos: 0,
            };
        }
        let items = std::mem::take(&mut self.pending);
        self.pending_bytes = 0;
        let prepare_start = Instant::now();

        // Phase A: hash every body in parallel into index-keyed slots.
        let digest_slots = Arc::new(Mutex::new(vec![None::<Sha1Digest>; items.len()]));
        let jobs: Vec<ScanJob> = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let body = Arc::clone(&item.body);
                let slots = Arc::clone(&digest_slots);
                let job: ScanJob = Box::new(move |_scratch| {
                    let digest = p2pmal_hashes::sha1(&body);
                    slots.lock().unwrap()[i] = Some(digest);
                });
                job
            })
            .collect();
        self.pool.run(jobs);
        let digests: Vec<Sha1Digest> = digest_slots
            .lock()
            .unwrap()
            .iter()
            .map(|d| d.expect("hash job ran"))
            .collect();

        // Phase B: plan which bodies need the engine. `planned` maps a
        // replay key to a verdict slot; cache-enabled keys are digests
        // (first occurrence wins, matching sequential verdict reuse),
        // cache-disabled keys are item indices (every body scans).
        let cache_enabled = pipeline.cache.enabled();
        let mut planned: HashMap<PlanKey, usize> = HashMap::new();
        // Verdict slot -> the item whose `(name, body)` feeds that engine run
        // (the first occurrence, matching sequential verdict reuse).
        let mut plan: Vec<usize> = Vec::new();
        for (i, digest) in digests.iter().enumerate() {
            let key = if cache_enabled {
                if pipeline.cache.contains(digest) {
                    continue;
                }
                PlanKey::Digest(*digest)
            } else {
                PlanKey::Index(i)
            };
            planned.entry(key).or_insert_with(|| {
                plan.push(i);
                plan.len() - 1
            });
        }

        // Phase C: run the planned scans in parallel, each on a worker's
        // reusable scratch buffers.
        let scanner = Arc::clone(&pipeline.scanner);
        let verdict_slots = Arc::new(Mutex::new(vec![None::<Arc<Verdict>>; plan.len()]));
        let jobs: Vec<ScanJob> = plan
            .iter()
            .enumerate()
            .map(|(slot, &item_idx)| {
                let scanner = Arc::clone(&scanner);
                let body = Arc::clone(&items[item_idx].body);
                let name = items[item_idx].record.filename.clone();
                let slots = Arc::clone(&verdict_slots);
                let job: ScanJob = Box::new(move |scratch| {
                    let verdict = Arc::new(scanner.scan_with_scratch(&name, &body, scratch));
                    slots.lock().unwrap()[slot] = Some(verdict);
                });
                job
            })
            .collect();
        self.pool.run(jobs);
        let verdicts: Vec<Arc<Verdict>> = verdict_slots
            .lock()
            .unwrap()
            .iter()
            .map(|v| Arc::clone(v.as_ref().expect("scan job ran")))
            .collect();
        let prepare_nanos = prepare_start.elapsed().as_nanos() as u64;

        // Phase D: sequential replay in submission order. Every stat and
        // cache transition happens here, exactly as the inline path would
        // have performed it.
        let merge_start = Instant::now();
        let outcomes: Vec<FlushOutcome> = items
            .into_iter()
            .zip(digests)
            .enumerate()
            .map(|(i, (item, digest))| {
                let key = if cache_enabled {
                    PlanKey::Digest(digest)
                } else {
                    PlanKey::Index(i)
                };
                let precomputed = planned.get(&key).map(|&slot| &verdicts[slot]);
                let (digest, verdict) =
                    pipeline.scan_prepared(&item.record.filename, &item.body, digest, precomputed);
                FlushOutcome {
                    record: item.record,
                    body_len: item.body.len() as u64,
                    digest,
                    verdict,
                }
            })
            .collect();
        let merge_nanos = merge_start.elapsed().as_nanos() as u64;

        FlushResult {
            outcomes,
            prepare_nanos,
            merge_nanos,
        }
    }
}

/// Replay key for planned engine runs: content identity when the cache can
/// share verdicts, item identity when every body scans on its own.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum PlanKey {
    Digest(Sha1Digest),
    Index(usize),
}

/// A `P2PMAL_SCAN_THREADS` value: `0` or `1` force the sequential inline
/// path; `N` caps at 8 (batches are small, more workers just contend).
pub fn parse_scan_threads(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().map(|n| n.clamp(1, 8))
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

    use crate::log::HostKey;
    use p2pmal_netsim::SimTime;
    use std::net::Ipv4Addr;

    fn record(name: &str) -> ResponseRecord {
        ResponseRecord {
            at: SimTime::ZERO,
            day: 0,
            query: "q".into(),
            filename: name.into(),
            size: 0,
            source_ip: Ipv4Addr::new(10, 0, 0, 1),
            source_port: 6346,
            needs_push: false,
            host: HostKey::Addr(Ipv4Addr::new(10, 0, 0, 1), 6346),
            downloadable: true,
        }
    }

    /// Submit `bodies` through a `threads`-wide service and assert every
    /// digest, verdict and pipeline counter matches the sequential path.
    fn assert_batched_matches_sequential(cache_entries: usize, threads: usize) {
        let bodies: [(&str, &[u8]); 6] = [
            ("a.exe", b"clean body one padding padding"),
            ("b.exe", b"has EVILBYTES inside it"),
            ("c.exe", b"clean body one padding padding"),
            ("d.zip", b"another clean body entirely"),
            ("e.exe", b"has EVILBYTES inside it"),
            ("f.exe", b"clean body one padding padding"),
        ];
        let mut sequential = pipeline(cache_entries);
        let expected: Vec<_> = bodies
            .iter()
            .map(|(name, body)| sequential.scan(name, body))
            .collect();

        let mut batched = pipeline(cache_entries);
        let mut service = ScanService::new(threads);
        for (name, body) in bodies {
            service.submit(record(name), body.to_vec());
        }
        let result = service.flush(&mut batched);

        assert_eq!(result.outcomes.len(), bodies.len());
        for (out, (digest, verdict)) in result.outcomes.iter().zip(&expected) {
            assert_eq!(out.digest, *digest);
            assert_eq!(*out.verdict, **verdict);
        }
        assert_eq!(batched.stats(), sequential.stats());
        assert_eq!(service.pending_len(), 0);
    }

    #[test]
    fn batched_flush_matches_sequential() {
        for threads in [1, 2, 8] {
            assert_batched_matches_sequential(64, threads);
        }
    }

    #[test]
    fn batched_flush_matches_sequential_without_cache() {
        for threads in [1, 2, 8] {
            assert_batched_matches_sequential(0, threads);
        }
    }

    #[test]
    fn eviction_between_plan_and_replay_falls_back_to_inline() {
        // Capacity-1 cache: body A is cached when the batch is planned (so
        // no engine run is scheduled for it), then B's replay insertion
        // evicts it before A replays — forcing the inline-scan fallback.
        let mut db = SignatureDb::new();
        db.add_literal("W32.Test", b"EVILBYTES").unwrap();
        let scanner = Arc::new(Scanner::new(db.build().unwrap()));
        let mut sequential = ScanPipeline::new(Arc::clone(&scanner), 1);
        let mut batched = ScanPipeline::new(scanner, 1);

        let a: &[u8] = b"body A with EVILBYTES";
        let b: &[u8] = b"body B clean";
        let expected = [
            sequential.scan("a.exe", a),
            sequential.scan("b.exe", b),
            sequential.scan("a2.exe", a),
        ];

        let mut service = ScanService::new(2);
        batched.scan("a.exe", a);
        service.submit(record("b.exe"), b.to_vec());
        service.submit(record("a2.exe"), a.to_vec());
        let result = service.flush(&mut batched);

        for (out, (digest, verdict)) in result.outcomes.iter().zip(&expected[1..]) {
            assert_eq!(out.digest, *digest);
            assert_eq!(*out.verdict, **verdict);
        }
        let stats = batched.stats();
        assert_eq!(stats, sequential.stats());
        assert!(stats.cache_evictions > 0, "test must exercise eviction");
        assert_eq!(
            stats.bodies_scanned, 3,
            "evicted digest must re-scan, as the sequential path does"
        );
    }

    #[test]
    fn flush_thresholds_and_empty_flush() {
        let mut p = pipeline(64);
        let mut service = ScanService::new(2);
        assert!(service.deferring());
        assert!(!ScanService::new(1).deferring());
        let empty = service.flush(&mut p);
        assert!(empty.outcomes.is_empty());
        for i in 0..SCAN_BATCH_MAX_BODIES {
            assert!(!service.should_flush());
            service.submit(record(&format!("f{i}.exe")), vec![0u8; 8]);
        }
        assert!(service.should_flush());
        service.flush(&mut p);
        assert!(!service.should_flush());
    }
}
