//! Property tests on the filters' invariants.

use p2pmal_crawler::log::{HostKey, ResponseRecord};
use p2pmal_crawler::ResolvedResponse;
use p2pmal_filter::{evaluate, SizeFilter};
use p2pmal_netsim::SimTime;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn resp(name: &str, size: u32, malware: bool) -> ResolvedResponse {
    ResolvedResponse {
        record: ResponseRecord {
            at: SimTime::ZERO,
            day: 0,
            query: "q".into(),
            filename: name.into(),
            size,
            source_ip: Ipv4Addr::new(1, 1, 1, 1),
            source_port: 1,
            needs_push: false,
            host: HostKey::Guid([0; 16]).into(),
            downloadable: p2pmal_crawler::is_downloadable_name(name),
        },
        malware: malware.then(|| "W32.X".into()),
        scanned: true,
        sha1: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tolerant matching agrees with the naive O(n) definition.
    #[test]
    fn tolerance_matches_naive(
        blocked in proptest::collection::btree_set(0u64..100_000, 0..20),
        tolerance in 0u64..5000,
        probe in 0u64..110_000,
    ) {
        let filter = SizeFilter::from_sizes(blocked.iter().copied()).with_tolerance(tolerance);
        let naive = blocked.iter().any(|&b| probe.abs_diff(b) <= tolerance);
        prop_assert_eq!(filter.blocks_size(probe), naive);
    }

    /// Evaluation conserves the universe: TP+FN+FP+TN equals the number of
    /// scanned downloadable responses, and rates stay in [0, 1].
    #[test]
    fn eval_conserves_counts(rows in proptest::collection::vec((0u32..5000, any::<bool>(), any::<bool>()), 0..100)) {
        let responses: Vec<ResolvedResponse> = rows
            .iter()
            .map(|&(size, malware, exe)| resp(if exe { "f.exe" } else { "f.mp3" }, size, malware))
            .collect();
        let filter = SizeFilter::from_sizes([100, 2000, 4000]);
        let ev = evaluate(&filter, &responses);
        let universe = responses.iter().filter(|r| r.record.downloadable).count() as u64;
        prop_assert_eq!(ev.tp + ev.fn_ + ev.fp + ev.tn, universe);
        for rate in [ev.detection_rate(), ev.false_positive_rate(), ev.precision()] {
            prop_assert!((0.0..=1.0).contains(&rate));
        }
    }

    /// A learned filter always blocks the most common size of the most
    /// popular family in its own training data (k >= 1).
    #[test]
    fn learn_blocks_dominant_size(extra in proptest::collection::vec((0u32..9000, any::<bool>()), 0..40)) {
        let mut train: Vec<ResolvedResponse> =
            (0..50).map(|_| resp("worm.exe", 12_345, true)).collect();
        train.extend(extra.iter().map(|&(size, malware)| resp("other.exe", size, malware)));
        let f = SizeFilter::learn(&train, 1, 1);
        // 12,345 appears 50 times for the dominant family; no other single
        // (family,size) pair can beat it (extras are spread or few).
        prop_assert!(f.blocks_size(12_345) || extra.len() >= 50);
    }

    /// Widening the blocklist never reduces detection.
    #[test]
    fn more_sizes_never_hurt_detection(sizes in proptest::collection::vec(0u32..10_000, 1..12)) {
        let universe: Vec<ResolvedResponse> =
            sizes.iter().map(|&s| resp("m.exe", s, true)).collect();
        let mut det = Vec::new();
        for k in 0..=sizes.len() {
            let f = SizeFilter::from_sizes(sizes[..k].iter().copied().map(u64::from));
            det.push(evaluate(&f, &universe).detection_rate());
        }
        for w in det.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
    }
}
