//! Workspace-level integration: determinism and cross-crate consistency.
//!
//! The reproduction's reproducibility claim is itself testable: the same
//! seed must produce the same study, bit for bit, because every layer —
//! catalog generation, population build-out, simulator event ordering,
//! payload bytes — draws from seeded generators only.

use p2pmal::analysis::{source_breakdown, summarize, top_malware};
use p2pmal::core::telemetry::MetricsRegistry;
use p2pmal::core::LimewireScenario;

fn run(seed: u64) -> (u64, u64, u64, String, f64, MetricsRegistry) {
    let mut scenario = LimewireScenario::quick(seed);
    scenario.days = 1; // keep the determinism check fast
    let run = scenario.run();
    let s = summarize("LimeWire", &run.log, &run.resolved);
    let top = top_malware(&run.resolved);
    let private = source_breakdown(&run.resolved).private_pct;
    (
        s.responses,
        s.malicious,
        run.log.queries_issued,
        top.first().map(|t| t.item.clone()).unwrap_or_default(),
        private,
        // The telemetry registry's sim-time histograms are part of the
        // determinism contract.
        run.sim_metrics.telemetry,
    )
}

#[test]
fn same_seed_same_study() {
    let a = run(123);
    let b = run(123);
    assert_eq!(a, b, "identical seeds must reproduce the identical study");
}

#[test]
fn different_seed_different_study() {
    let a = run(123);
    let b = run(124);
    // The *shape* holds across seeds but raw counts almost surely differ.
    assert_ne!(
        (a.0, a.2),
        (b.0, b.2),
        "different seeds should differ in raw counts"
    );
}
