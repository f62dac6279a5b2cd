//! Cross-network golden guard on the query-matching pipeline itself:
//! the number of responses the crawler logs (and the malicious share of
//! them) is a direct function of per-library match decisions, so any
//! behavioural drift in the tokenize-once / fingerprint fast-reject path
//! moves these counts even if it would somehow preserve the trajectory
//! digests in `one_trajectory.rs`.

use p2pmal_core::{LimewireScenario, NetworkRun, OpenFtScenario};

fn counts(run: &NetworkRun) -> (usize, usize, usize) {
    let responses = run.log.responses.len();
    let downloadable = run
        .resolved
        .iter()
        .filter(|r| r.record.downloadable)
        .count();
    let malicious = run
        .resolved
        .iter()
        .filter(|r| r.record.downloadable && r.malware.is_some())
        .count();
    (responses, downloadable, malicious)
}

#[test]
fn limewire_quick_seed_2006_match_counts_unchanged() {
    let run = LimewireScenario::quick(2006).run();
    assert_eq!(
        counts(&run),
        (13827, 8313, 7441),
        "LimeWire quick-study match counts moved: the query-matching \
         overhaul must be observationally identical"
    );
}

#[test]
fn openft_quick_seed_2006_match_counts_unchanged() {
    let run = OpenFtScenario::quick(2006 ^ 0xF7).run();
    assert_eq!(
        counts(&run),
        (8020, 1016, 60),
        "OpenFT quick-study match counts moved: the query-matching \
         overhaul must be observationally identical"
    );
}
