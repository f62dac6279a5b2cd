//! The crawler's download→scan pipeline.
//!
//! Every completed download is SHA-1 hashed (the study's content identity)
//! and scanned by the signature engine, once, in the callback that delivers
//! it, as the study scanned each download with one AV engine. The P2P
//! workload is payload-redundant — a handful of distinct bodies (one
//! characteristic size per malware family, EXPERIMENTS.md F2) answer
//! hundreds of thousands of responses — but the crawler folds that
//! redundancy *before* it fetches: a response whose (name, size) or
//! (host, size) has an outcome is resolved from the log and never
//! downloaded. What still arrives is the same content under a new name
//! from a new host, which is rare (a few percent of bodies), so a repeated
//! body is simply scanned again.

use p2pmal_hashes::Sha1Digest;
use p2pmal_scanner::{ScanScratch, Scanner, Verdict};
use std::collections::HashSet;
use std::sync::Arc;

/// Selects nothing: there is no verdict cache. Kept only because
/// `benchmark/src/workloads.rs` names it; goes in the next `[benchmark]`
/// PR (ROADMAP item 7).
pub const DEFAULT_SCAN_CACHE_ENTRIES: usize = 4096;

/// Counters for the download→hash→scan pipeline, carried in the crawl log
/// and mirrored into `P2PMAL_TRACE` day lines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanStats {
    /// Bodies that completed download, each hashed and scanned once.
    pub bodies: u64,
    /// Bytes SHA-1 hashed (every body).
    pub bytes_hashed: u64,
    /// Always 0: there is no verdict cache. Kept only because
    /// `benchmark/src/workloads.rs` reads it; goes in the next
    /// `[benchmark]` PR (ROADMAP item 7).
    pub cache_hits: u64,
    /// Always 0, like [`Self::cache_hits`].
    pub cache_misses: u64,
    /// Distinct payload digests observed over the whole run.
    pub distinct_payloads: u64,
}

/// The scanner, the distinct-payload census and the counters.
pub struct ScanPipeline {
    scanner: Arc<Scanner>,
    /// All digests ever seen, for the distinct-payload census. Payloads are
    /// few and digests 20 bytes, so this stays tiny even on month runs.
    seen: HashSet<Sha1Digest>,
    stats: ScanStats,
    /// Inflate/traversal buffers reused from one scan to the next.
    scratch: ScanScratch,
}

impl ScanPipeline {
    pub fn new(scanner: Arc<Scanner>) -> Self {
        ScanPipeline {
            scanner,
            seen: HashSet::new(),
            stats: ScanStats::default(),
            scratch: ScanScratch::new(),
        }
    }

    /// Snapshot of the pipeline counters.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// Hashes and scans `body`, and returns both. `name` only decorates
    /// detection locations inside the verdict; outcomes depend on the bytes
    /// alone.
    pub fn scan(&mut self, name: &str, body: &[u8]) -> (Sha1Digest, Verdict) {
        let digest = p2pmal_hashes::sha1(body);
        self.stats.bodies += 1;
        self.stats.bytes_hashed += body.len() as u64;
        if self.seen.insert(digest) {
            self.stats.distinct_payloads += 1;
        }
        let verdict = self
            .scanner
            .scan_with_scratch(name, body, &mut self.scratch);
        (digest, verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmal_scanner::SignatureDb;

    #[test]
    fn identical_bodies_are_two_bodies_and_one_payload() {
        let mut db = SignatureDb::new();
        db.add_literal("W32.Test", b"EVILBYTES").unwrap();
        let mut p = ScanPipeline::new(Arc::new(Scanner::new(db.build().unwrap())));
        let body = b"has EVILBYTES inside";
        let (da, va) = p.scan("f.exe", body);
        let (db, vb) = p.scan("f.exe", body);
        assert_eq!(da, db);
        assert!(va.infected());
        assert_eq!(va, vb);
        let s = p.stats();
        assert_eq!((s.bodies, s.distinct_payloads), (2, 1));
        assert_eq!(s.bytes_hashed, 2 * body.len() as u64);
        assert_eq!((s.cache_hits, s.cache_misses), (0, 0));
    }
}
