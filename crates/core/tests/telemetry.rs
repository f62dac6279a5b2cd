//! Telemetry-layer integration: the journal must *observe* the simulation
//! without perturbing it, and must itself be deterministic — the same seed
//! writes the same bytes, every line parses, and sim time never goes
//! backwards.

use p2pmal_core::telemetry::{journal_path_for, Counter, EventCategory, SimHist, TelemetryConfig};
use p2pmal_core::{LimewireScenario, NetworkRun};
use p2pmal_hashes::Sha1;
use p2pmal_json::Value;
use std::path::PathBuf;

/// A collision-free journal base path for one test run.
fn journal_base(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "p2pmal-telemetry-{}-{tag}.jsonl",
        std::process::id()
    ));
    p
}

/// Runs a one-day quick LimeWire study journaling to a temp file; returns
/// the run and the journal text (the file itself is cleaned up).
fn run_with_journal(seed: u64, tag: &str) -> (NetworkRun, String) {
    run_scenario_with_journal(LimewireScenario::quick(seed), tag)
}

fn run_scenario_with_journal(mut scenario: LimewireScenario, tag: &str) -> (NetworkRun, String) {
    let base = journal_base(tag);
    scenario.days = 1;
    scenario.telemetry = TelemetryConfig {
        journal: Some(base.clone()),
        ..TelemetryConfig::off()
    };
    let run = scenario.run();
    let path = journal_path_for(&base, "limewire");
    let text = std::fs::read_to_string(&path).expect("journal file written");
    let _ = std::fs::remove_file(&path);
    (run, text)
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

    // Every line is a parseable event record and sim time never rewinds.
    let mut last = 0u64;
    for (i, line) in journal_a.lines().enumerate() {
        let v = p2pmal_json::parse(line).unwrap_or_else(|e| panic!("journal line {}: {e}", i + 1));
        let t = v
            .get("t")
            .and_then(Value::as_u64)
            .expect("event carries a numeric `t`");
        assert!(v.get("day").and_then(Value::as_u64).is_some());
        let cat = v
            .get("cat")
            .and_then(Value::as_str)
            .expect("event carries a `cat`");
        assert!(
            EventCategory::from_label(cat).is_some(),
            "unknown category {cat:?}"
        );
        assert!(v.get("ev").and_then(Value::as_str).is_some());
        assert!(
            t >= last,
            "sim time went backwards at line {}: {t} < {last}",
            i + 1
        );
        last = t;
    }
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
fn registry_reflects_the_crawl_log() {
    let mut scenario = LimewireScenario::quick(2006);
    scenario.days = 1;
    let run = scenario.run();
    let reg = &run.sim_metrics.telemetry;
    assert_eq!(reg.counter(Counter::QueriesIssued), run.log.queries_issued);
    assert_eq!(
        reg.counter(Counter::DownloadsStarted),
        run.log.downloads_attempted
    );
    let lat = reg.hist(SimHist::DownloadLatencyUs).summary();
    assert!(lat.count > 0, "quick run should complete downloads");
    assert!(lat.min <= lat.p50 && lat.p50 <= lat.p90);
    assert!(lat.p90 <= lat.p99 && lat.p99 <= lat.max);
}

#[test]
fn sampling_drops_a_category_without_touching_others() {
    let base = journal_base("sampled");
    let mut scenario = LimewireScenario::quick(2006);
    scenario.days = 1;
    let mut cfg = TelemetryConfig::off();
    cfg.journal = Some(base.clone());
    cfg.sample[EventCategory::Query as usize] = 0;
    scenario.telemetry = cfg;
    scenario.run();
    let path = journal_path_for(&base, "limewire");
    let text = std::fs::read_to_string(&path).expect("journal file written");
    let _ = std::fs::remove_file(&path);
    assert!(!text.contains("\"cat\":\"query\""));
    assert!(text.contains("\"cat\":\"download\""));
}

/// OpenFT counterpart of [`run_with_journal`] (same seed derivation
/// `run_study` uses for the OpenFT half).
fn run_openft_with_journal(seed: u64, tag: &str) -> (NetworkRun, String) {
    run_openft_scenario_with_journal(p2pmal_core::OpenFtScenario::quick(seed ^ 0xF7), tag)
}

fn run_openft_scenario_with_journal(
    mut scenario: p2pmal_core::OpenFtScenario,
    tag: &str,
) -> (NetworkRun, String) {
    let base = journal_base(tag);
    scenario.days = 1;
    scenario.telemetry = TelemetryConfig {
        journal: Some(base.clone()),
        ..TelemetryConfig::off()
    };
    let run = scenario.run();
    let path = journal_path_for(&base, "openft");
    let text = std::fs::read_to_string(&path).expect("journal file written");
    let _ = std::fs::remove_file(&path);
    (run, text)
}

/// The provenance acceptance bar: on both networks, every journaled scan
/// verdict must sit at the end of a complete, orphan-free causal chain
/// (`query_issued -> query_matched -> download_start -> download_complete
/// -> scan_verdict`), with sim-time monotone along every edge.
#[test]
fn provenance_chains_reconstruct_on_both_networks() {
    let journals = [
        ("limewire", run_with_journal(2006, "prov-lw").1),
        ("openft", run_openft_with_journal(2006, "prov-ft").1),
    ];
    for (network, journal) in &journals {
        let events =
            p2pmal_obs::parse_journal(journal).unwrap_or_else(|e| panic!("{network}: {e}"));
        let analysis = p2pmal_obs::analyze(network, &events, 3);
        assert_eq!(
            analysis.orphans.len(),
            0,
            "{network}: every parent span must resolve within the journal"
        );
        assert_eq!(
            analysis.monotone_violations, 0,
            "{network}: sim time must be monotone along causal chains"
        );
        assert!(
            analysis.complete_chains >= 1,
            "{network}: at least one full query->verdict chain expected"
        );
        assert_eq!(
            analysis.complete_chains, analysis.spanned_verdicts,
            "{network}: every journaled verdict must close a complete chain"
        );
        // The root of every download chain is a query, so trace ids in the
        // journal can never exceed the queries issued.
        let forest = p2pmal_obs::TraceForest::build(&events);
        assert!(forest.trace_count() <= events.iter().filter(|e| e.ev == "query_issued").count());
    }
}

/// Pins the trace analysis itself: the pretty-printed `Analysis::to_json()`
/// of the seed-2006 quick journals, so a rewrite of the obs store or the
/// forest reconstruction cannot silently change a single reported number.
#[test]
fn analysis_reports_are_pinned() {
    let limewire = LimewireScenario::quick(2006);
    let openft = p2pmal_core::OpenFtScenario::quick(2006 ^ 0xF7);
    let journals = [
        (
            "limewire",
            run_scenario_with_journal(limewire, "pin-lw").1,
            "47801b3928a52738a9ff90fce7aa4e4bbea156be",
        ),
        (
            "openft",
            run_openft_scenario_with_journal(openft, "pin-ft").1,
            "2410d76eabb84596dd484163353bd76d5248feb6",
        ),
    ];
    for (network, journal, want) in &journals {
        let events =
            p2pmal_obs::parse_journal(journal).unwrap_or_else(|e| panic!("{network}: {e}"));
        let report = p2pmal_obs::analyze(network, &events, 3)
            .to_json()
            .to_string_pretty();
        let mut h = Sha1::new();
        h.update(report.as_bytes());
        assert_eq!(h.finalize().to_hex(), *want, "{network} report:\n{report}");
    }
}
