//! Chaos test: the quick study must survive the `harsh` fault profile on
//! both networks — no panics, every terminal failure classified by cause,
//! retries visibly recovering transfers, and the headline prevalence
//! staying in a sane band even while the network is actively hostile.
//! Each network's failure breakdown is pinned, so a failure counted under
//! the wrong cause fails here.

use p2pmal_core::telemetry::{journal_path_for, TelemetryConfig};
use p2pmal_core::{fault_profile, LimewireScenario, NetworkRun, OpenFtScenario};
use p2pmal_crawler::{FailureBreakdown, RetryPolicy};

/// Malicious share of downloadable responses, in percent.
fn prevalence_pct(run: &NetworkRun) -> f64 {
    let downloadable = run.resolved.iter().filter(|r| r.record.downloadable);
    let (mut total, mut malicious) = (0u64, 0u64);
    for r in downloadable {
        total += 1;
        if r.malware.is_some() {
            malicious += 1;
        }
    }
    assert!(
        total > 0,
        "{}: no downloadable responses",
        run.network.label()
    );
    malicious as f64 * 100.0 / total as f64
}

/// What a harsh run's failures came to: the count per cause, then
/// `[retries_scheduled, retry_successes, push_fallbacks]`.
type Breakdown = (FailureBreakdown, [u64; 3]);

fn assert_chaos_invariants(run: &NetworkRun, prevalence_band: (f64, f64), pinned: Breakdown) {
    let label = run.network.label();
    let log = &run.log;
    let m = &run.sim_metrics;
    eprintln!(
        "{label}: attempted {} failed {} retries {} recovered {} push_fallbacks {} \
         unscannable {} failures {:?} | faults: drop {} corrupt {} reset {} spike {} \
         down {} up {}",
        log.downloads_attempted,
        log.downloads_failed,
        log.retries_scheduled,
        log.retry_successes,
        log.push_fallbacks,
        log.unscannable,
        log.failures,
        m.faults_chunks_dropped,
        m.faults_chunks_corrupted,
        m.faults_resets,
        m.faults_latency_spikes,
        m.faults_churn_downs,
        m.faults_churn_ups,
    );

    // The network was actually hostile.
    assert!(
        m.faults_chunks_dropped > 0,
        "{label}: no chunk loss injected"
    );
    assert!(m.faults_resets > 0, "{label}: no resets injected");
    assert!(m.faults_churn_downs > 0, "{label}: no churn injected");

    // Attempts failed, and every failure carries a cause: each failed
    // attempt either scheduled a retry or went terminal, nothing else.
    assert!(
        log.failures.total() > 0,
        "{label}: harsh profile but no failed attempts"
    );
    assert_eq!(
        log.failures.total(),
        log.retries_scheduled + log.downloads_failed,
        "{label}: unclassified failures ({:?})",
        log.failures
    );
    let nonzero_causes = log.failures.parts().iter().filter(|(_, n)| *n > 0).count();
    assert!(
        nonzero_causes >= 2,
        "{label}: expected several failure causes, got {:?}",
        log.failures
    );

    // The retry pipeline ran and visibly recovered transfers.
    assert!(log.retries_scheduled > 0, "{label}: no retries scheduled");
    assert!(
        log.retry_successes > 0,
        "{label}: retries never recovered a transfer ({} scheduled)",
        log.retries_scheduled
    );
    assert_eq!(m.dl_retries, log.retries_scheduled);
    assert_eq!(m.dl_retry_successes, log.retry_successes);

    // Every failure sits in the bucket it sat in when this was pinned.
    let retries = [
        log.retries_scheduled,
        log.retry_successes,
        log.push_fallbacks,
    ];
    assert_eq!((log.failures, retries), pinned, "{label}: breakdown moved");

    // The study still measures something sane.
    let prev = prevalence_pct(run);
    assert!(
        prev >= prevalence_band.0 && prev <= prevalence_band.1,
        "{label}: prevalence {prev:.1}% outside sane band {prevalence_band:?}"
    );
}

fn harsh_limewire() -> LimewireScenario {
    let (faults, retry) = fault_profile("harsh").expect("harsh profile exists");
    // The stock quick profile only yields a handful of unique downloadable
    // objects — too little traffic for the fault classes to show up in the
    // per-cause breakdown. Give the chaos run extra days, more sharers with
    // bigger libraries, a downloadable-heavy media mix, and a faster query
    // clock so the retry pipeline actually gets exercised. (90 sharers and
    // a 45 s clock: under `harsh` the crawler stops hearing answers some
    // time into day 1 on this seed, so the traffic has to come early.)
    let mut scenario = LimewireScenario::quick(2006).with_faults(faults, retry);
    scenario.days = 5;
    scenario.clean_leaves = 90;
    scenario.files_per_leaf = 30;
    scenario.catalog.media_mix_permille = [300, 100, 300, 220, 50, 30];
    scenario.workload.base_interval_secs = 45;
    scenario
}

#[test]
fn limewire_quick_survives_harsh_faults() {
    let run = harsh_limewire().run();
    // The downloadable-heavy catalog dilutes the echo worms' share well
    // below the calibrated 68%, and churn moves it further; the band only
    // guards against the degenerate ends (no malware seen at all, or
    // nothing but malware).
    let failures = FailureBreakdown {
        timeout: 27,
        reset: 2,
        ..FailureBreakdown::default()
    };
    assert_chaos_invariants(&run, (5.0, 98.0), (failures, [25, 7, 5]));
}

fn harsh_openft() -> OpenFtScenario {
    let (faults, retry) = fault_profile("harsh").expect("harsh profile exists");
    let mut scenario = OpenFtScenario::quick(2006 ^ 0xF7).with_faults(faults, retry);
    scenario.days = 5;
    // As on the LimeWire side, the traffic has to come early and there has
    // to be enough of it: a lost hello leaves a connection that holds its
    // slot without ever becoming a session, so under `harsh` the crawler
    // stops hearing answers within two days on this seed, and the stock
    // population's ~50 distinct downloadable objects fail a handful of
    // times, all by timeout. Twice the sharers, 16 files each, a
    // downloadable-heavy media mix and a 45 s query clock give ~140
    // objects and two failure causes. More than that would push the
    // superspreader past the SEARCH nodes' per-query result cap and
    // silently erase the malicious signal (1.4 % of downloadable
    // responses here, inside the band below).
    scenario.clean_users = 40;
    scenario.files_per_user = 16;
    scenario.catalog.media_mix_permille = [300, 100, 300, 220, 50, 30];
    scenario.workload.base_interval_secs = 45;
    scenario
}

#[test]
fn openft_quick_survives_harsh_faults() {
    let run = harsh_openft().run();
    // Fault-free quick runs measure a few percent malicious; the durable
    // superspreader keeps answering while clean users churn, so the share
    // can drift upward under harsh faults.
    let failures = FailureBreakdown {
        timeout: 7,
        reset: 3,
        ..FailureBreakdown::default()
    };
    assert_chaos_invariants(&run, (0.1, 40.0), (failures, [10, 9, 0]));
}

/// Hands `run` a telemetry config journaling to a temp file, runs it, and
/// asserts the download chains it wrote have no orphans: every
/// `download_*` event's parent span is in the journal.
fn assert_no_orphaned_downloads(network: &str, run: impl FnOnce(TelemetryConfig) -> NetworkRun) {
    let mut base = std::env::temp_dir();
    base.push(format!(
        "p2pmal-chaos-{}-{network}.jsonl",
        std::process::id()
    ));
    let run = run(TelemetryConfig {
        journal: Some(base.clone()),
        ..TelemetryConfig::off()
    });
    let path = journal_path_for(&base, network);
    let text = std::fs::read_to_string(&path).expect("journal file written");
    let _ = std::fs::remove_file(&path);
    assert!(
        run.log.retries_scheduled > 0,
        "{network}: no in-line re-attempt happened, nothing was tested"
    );
    let journal = p2pmal_obs::parse_journal(&text).unwrap_or_else(|e| panic!("{network}: {e}"));
    let orphans: Vec<_> = p2pmal_obs::analyze(network, &journal, 0)
        .orphans
        .into_iter()
        .filter(|(_, _, ev)| ev.starts_with("download_"))
        .collect();
    assert!(orphans.is_empty(), "{network}: {orphans:?}");
}

/// Under the legacy policy a failed attempt is retried in-line, not through
/// the queue; that re-attempt must still journal its `download_start`, or
/// the `download_complete` that follows hangs off a span nobody emitted.
#[test]
fn legacy_retries_leave_no_orphaned_download_spans() {
    assert_no_orphaned_downloads("limewire", |telemetry| {
        LimewireScenario {
            telemetry,
            retry: RetryPolicy::legacy(),
            ..harsh_limewire()
        }
        .run()
    });
    assert_no_orphaned_downloads("openft", |telemetry| {
        OpenFtScenario {
            telemetry,
            retry: RetryPolicy::legacy(),
            ..harsh_openft()
        }
        .run()
    });
}
