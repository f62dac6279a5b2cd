//! Telemetry-layer integration: the journal must *observe* the simulation
//! without perturbing it, and must itself be deterministic — the same seed
//! writes the same bytes — and pass the `trace_report --strict` gate.

use p2pmal_core::telemetry::{journal_path_for, EventCategory, TelemetryConfig};
use p2pmal_core::{LimewireScenario, NetworkRun, OpenFtScenario};
use p2pmal_hashes::Sha1;

/// Hands `run` a telemetry config journaling to a temp file; returns the
/// run and the text of its `network` journal (the file is cleaned up).
fn journaled(
    network: &str,
    tag: &str,
    run: impl FnOnce(TelemetryConfig) -> NetworkRun,
) -> (NetworkRun, String) {
    let name = format!("p2pmal-telemetry-{}-{tag}.jsonl", std::process::id());
    let base = std::env::temp_dir().join(name);
    let run = run(TelemetryConfig {
        journal: Some(base.clone()),
        ..TelemetryConfig::off()
    });
    let path = journal_path_for(&base, network);
    let text = std::fs::read_to_string(&path).expect("journal file written");
    let _ = std::fs::remove_file(&path);
    (run, text)
}

/// A one-day quick LimeWire study of `seed` with the journal on.
fn run_with_journal(seed: u64, tag: &str) -> (NetworkRun, String) {
    journaled("limewire", tag, |telemetry| {
        LimewireScenario {
            days: 1,
            telemetry,
            ..LimewireScenario::quick(seed)
        }
        .run()
    })
}

#[test]
fn same_seed_writes_byte_identical_journals() {
    let (run_a, journal_a) = run_with_journal(2006, "det-a");
    let (run_b, journal_b) = run_with_journal(2006, "det-b");
    assert!(!journal_a.is_empty(), "quick run should journal events");
    assert_eq!(
        journal_a, journal_b,
        "identical seeds must write byte-identical journals"
    );
    assert_eq!(run_a.trajectory_digest(), run_b.trajectory_digest());
}

#[test]
fn journaling_does_not_perturb_the_simulation() {
    let (journaled, _) = run_with_journal(2006, "perturb");
    let mut plain = LimewireScenario::quick(2006);
    plain.days = 1;
    let plain = plain.run();
    assert_eq!(
        plain.trajectory_digest(),
        journaled.trajectory_digest(),
        "journaling must not change the trajectory"
    );
    // SimMetrics equality covers the whole metrics registry: the
    // deterministic counters/histograms must not depend on sinks.
    assert_eq!(plain.sim_metrics, journaled.sim_metrics);
}

#[test]
fn sampling_drops_a_category_without_touching_others() {
    let (_, text) = journaled("limewire", "sampled", |mut telemetry| {
        telemetry.sample[EventCategory::Query as usize] = 0;
        LimewireScenario {
            days: 1,
            telemetry,
            ..LimewireScenario::quick(2006)
        }
        .run()
    });
    assert!(!text.contains("\"cat\":\"query\""));
    assert!(text.contains("\"cat\":\"download\""));
}

/// The provenance acceptance bar, on both networks: the journal passes the
/// strict gate (every line well-formed, sim time monotone, every span
/// unique and every parent emitted earlier, no orphan), and every
/// journaled scan verdict sits at the end of a complete causal chain
/// (`query_issued -> query_matched -> download_start -> download_complete
/// -> scan_verdict`). The pretty-printed `Analysis::to_json()` is pinned,
/// so a rewrite of the obs store or the forest reconstruction cannot
/// silently change a single reported number.
#[test]
fn provenance_chains_reconstruct_on_both_networks() {
    // The OpenFT half uses run_study's seed derivation.
    let openft = journaled("openft", "prov-ft", |telemetry| {
        OpenFtScenario {
            days: 1,
            telemetry,
            ..OpenFtScenario::quick(2006 ^ 0xF7)
        }
        .run()
    });
    let journals = [
        (
            "limewire",
            run_with_journal(2006, "prov-lw").1,
            "47801b3928a52738a9ff90fce7aa4e4bbea156be",
        ),
        (
            "openft",
            openft.1,
            "2410d76eabb84596dd484163353bd76d5248feb6",
        ),
    ];
    for (network, journal, want) in &journals {
        let events =
            p2pmal_obs::parse_journal(journal).unwrap_or_else(|e| panic!("{network}: {e}"));
        let analysis = p2pmal_obs::analyze(network, &events, 3);
        let failures = p2pmal_obs::strict_failures(&events, &analysis);
        assert!(failures.is_empty(), "{network}: {failures:?}");
        assert_eq!(
            analysis.complete_chains, analysis.spanned_verdicts,
            "{network}: every journaled verdict must close a complete chain"
        );
        // The root of every download chain is a query, so trace ids in the
        // journal can never exceed the queries issued.
        let forest = p2pmal_obs::TraceForest::build(&events);
        assert!(forest.trace_count() <= events.iter().filter(|e| e.ev == "query_issued").count());
        let report = analysis.to_json().to_string_pretty();
        let mut h = Sha1::new();
        h.update(report.as_bytes());
        assert_eq!(h.finalize().to_hex(), *want, "{network} report:\n{report}");
    }
}
