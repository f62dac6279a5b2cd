//! Determinism guard for the batched parallel scan service: the quick
//! seed-2006 studies must produce bit-identical trajectories at every
//! scan-thread count, matching the golden digests recorded in
//! `one_trajectory.rs`. Worker threads only compute pure functions of
//! body bytes; all observable state mutates in submission-order replay, so
//! any divergence here means verdicts or stats leaked out of order.

use p2pmal_core::{LimewireScenario, OpenFtScenario};
use p2pmal_crawler::ScanStats;

#[test]
fn limewire_quick_identical_across_scan_thread_counts() {
    let mut baseline_scan: Option<ScanStats> = None;
    for threads in [1usize, 2, 8] {
        let mut scenario = LimewireScenario::quick(2006);
        scenario.scan_threads = threads;
        let run = scenario.run();
        assert_eq!(
            run.trajectory_digest(),
            "bc030a71f28881906059cd8ff3009bfacf08ccb0",
            "scan_threads={threads} changed the LimeWire quick trajectory"
        );
        match &baseline_scan {
            None => baseline_scan = Some(run.log.scan),
            Some(expected) => assert_eq!(
                run.log.scan, *expected,
                "scan_threads={threads} changed the LimeWire scan-pipeline counters"
            ),
        }
    }
}

#[test]
fn openft_quick_identical_across_scan_thread_counts() {
    let mut baseline_scan: Option<ScanStats> = None;
    for threads in [1usize, 2, 8] {
        // Same seed derivation run_study uses for the OpenFT half.
        let mut scenario = OpenFtScenario::quick(2006 ^ 0xF7);
        scenario.scan_threads = threads;
        let run = scenario.run();
        assert_eq!(
            run.trajectory_digest(),
            "75720da08ca56056d5febdbf350634b7db3566eb",
            "scan_threads={threads} changed the OpenFT quick trajectory"
        );
        match &baseline_scan {
            None => baseline_scan = Some(run.log.scan),
            Some(expected) => assert_eq!(
                run.log.scan, *expected,
                "scan_threads={threads} changed the OpenFT scan-pipeline counters"
            ),
        }
    }
}
