//! The five workloads: how each scenario is built, run once under the
//! tracer, reported on, and checked.
//!
//! Scenarios come from the public structs in `p2pmal_core` with every
//! env-derived field set explicitly; `main` also removes every `P2PMAL_*`
//! variable before anything runs, which covers `MegaScenario`'s one
//! internal env read (scan threads). Nothing here touches
//! `p2pmal_bench` or its `target/p2pmal-runs/` disk cache.

use crate::probes;
use crate::stats::{median, percentile};
use crate::tracer::Tracer;
use p2pmal_analysis::{
    daily_fraction, daily_table, host_concentration, host_table, size_census, size_table,
    source_breakdown, source_table, top_malware, top_malware_table,
};
use p2pmal_core::telemetry::{journal_path_for, SimHist, TelemetryConfig};
use p2pmal_core::{
    fault_profile, LimewireScenario, MegaScenario, NetworkRun, OpenFtScenario, StudyReport,
};
use p2pmal_corpus::catalog::Catalog;
use p2pmal_corpus::{ContentStore, Roster};
use p2pmal_crawler::{Network, RetryPolicy, DEFAULT_SCAN_CACHE_ENTRIES};
use p2pmal_filter::{
    evaluate, EchoHeuristicFilter, HashBlacklist, LimewireBuiltin, ResponseFilter, SizeFilter,
};
use p2pmal_gnutella::servent::SharedWorld;
use p2pmal_hashes::Sha1;
use p2pmal_netsim::{process_rss_kb, FaultPlan, SchedulerKind, SimTime, Subsystem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Host seconds spent on back-to-back population builds behind `setup_s`
/// (a build takes 5-40 ms; the host's speed shifts on that scale, so the
/// median needs a second's worth of them).
pub const SETUP_SECONDS: f64 = 1.0;

const MIB: f64 = 1024.0 * 1024.0;

/// The seed the paper-shape bands were calibrated on (ROADMAP: "bands
/// calibrated on one seed"). At the calibrated sizes and this seed the
/// bands are checked; on any other seed or size they are only reported
/// (`analysis.bands_held`, `analysis.band_dev_max`).
pub const CALIBRATED_SEED: u64 = 2006;

/// Parallel download slots of both crawlers (`max_concurrent_downloads`
/// default, which every scenario keeps): the most downloads that can be in
/// flight when a collection stops.
const DOWNLOAD_SLOTS: u64 = 16;

/// One workload's fully resolved scenario.
#[derive(Debug, Clone)]
pub enum Scenario {
    Limewire(LimewireScenario),
    OpenFt(OpenFtScenario),
    Mega(MegaScenario),
}

fn limewire(seed: u64, smoke: bool) -> LimewireScenario {
    let mut s = LimewireScenario {
        days: 1,
        scheduler: SchedulerKind::Calendar,
        scan_cache_entries: DEFAULT_SCAN_CACHE_ENTRIES,
        scan_threads: 1,
        faults: FaultPlan::none(),
        retry: RetryPolicy::legacy(),
        telemetry: TelemetryConfig::off(),
        shards: 1,
        shard_window_us: 1_000_000,
        ..LimewireScenario::paper_scale(seed)
    };
    if smoke {
        // `days` is a whole number, so a smoke run shrinks the population
        // instead of the day.
        s.ultrapeers = 4;
        s.clean_leaves = 48;
    }
    s
}

impl Scenario {
    /// The scenario `workload` runs. `journal` is the journal base path for
    /// `lw_journal` (ignored by the others).
    pub fn for_workload(workload: &str, seed: u64, smoke: bool, journal: &Path) -> Scenario {
        match workload {
            "lw_flood" => Scenario::Limewire(limewire(seed, smoke)),
            "lw_chaos" => {
                let (faults, retry) = fault_profile("mild").expect("mild is a named profile");
                Scenario::Limewire(limewire(seed, smoke).with_faults(faults, retry))
            }
            "lw_journal" => Scenario::Limewire(LimewireScenario {
                telemetry: TelemetryConfig {
                    journal: Some(journal.to_path_buf()),
                    ..TelemetryConfig::off()
                },
                ..limewire(seed, smoke)
            }),
            "ft_search" => Scenario::OpenFt(OpenFtScenario {
                days: if smoke { 7 } else { 35 },
                scheduler: SchedulerKind::Calendar,
                scan_cache_entries: DEFAULT_SCAN_CACHE_ENTRIES,
                scan_threads: 2,
                faults: FaultPlan::none(),
                retry: RetryPolicy::legacy(),
                telemetry: TelemetryConfig::off(),
                shards: 1,
                shard_window_us: 1_000_000,
                // The OpenFT half of `Study::paper_scale(seed)`, which is
                // what the paper bands were calibrated on.
                ..OpenFtScenario::paper_scale(seed ^ 0xF7)
            }),
            "mega_shards2" => Scenario::Mega(MegaScenario {
                days: 1,
                scheduler: SchedulerKind::Calendar,
                telemetry: TelemetryConfig::off(),
                shards: 2,
                // A day of 1 s windows costs ~20 s of barriers whatever the
                // population, so the smoke run widens the window too.
                shard_window_us: if smoke { 30_000_000 } else { 1_000_000 },
                ..MegaScenario::new(seed, if smoke { 1_000 } else { 10_000 })
            }),
            other => panic!("unknown workload {other}"),
        }
    }

    fn days(&self) -> u64 {
        match self {
            Scenario::Limewire(s) => s.days,
            Scenario::OpenFt(s) => s.days,
            Scenario::Mega(s) => s.days,
        }
    }

    fn with_days(&self, days: u64) -> Scenario {
        let mut s = self.clone();
        match &mut s {
            Scenario::Limewire(s) => s.days = days,
            Scenario::OpenFt(s) => s.days = days,
            Scenario::Mega(s) => s.days = days,
        }
        s
    }

    /// Builds the population and runs the collection. A mega run is lifted
    /// into a [`NetworkRun`] (its log resolved, its world rebuilt from the
    /// seed the way `MegaScenario` builds it) so one report path serves
    /// every workload.
    fn run(&self, progress: impl FnMut(u64)) -> NetworkRun {
        match self {
            Scenario::Limewire(s) => s.run_with_progress(progress),
            Scenario::OpenFt(s) => s.run_with_progress(progress),
            Scenario::Mega(s) => {
                let m = s.run_with_progress(progress);
                let mut rng = StdRng::seed_from_u64(s.seed ^ 0x0CA7_A106);
                let world = SharedWorld::new(
                    Arc::new(Catalog::generate(&s.catalog, &mut rng)),
                    Arc::new(Roster::limewire_2006()),
                    Arc::new(ContentStore::new(s.seed)),
                );
                NetworkRun {
                    network: Network::Limewire,
                    resolved: m.log.resolved(),
                    log: m.log,
                    world,
                    sim_metrics: m.sim_metrics,
                    wall: m.wall,
                    shards: m.shards,
                    shard_window_us: m.shard_window_us,
                }
            }
        }
    }
}

/// One correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check { name, ok, detail });
}

/// Everything one collection of one workload produced.
pub struct Sample {
    pub run_s: f64,
    pub total_s: f64,
    pub app_bytes_per_node: f64,
    pub downloads_attempted: u64,
    pub downloads_failed: u64,
    /// Per-layer metrics by spec name (probes only from a traced run).
    pub layers: Vec<(&'static str, f64)>,
    pub digest: String,
    pub checks: Vec<Check>,
}

impl Sample {
    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// The SHA-1 the golden tests use: every resolved response with its verdict
/// plus the log counters.
fn trajectory_digest(run: &NetworkRun) -> String {
    use std::fmt::Write;
    let mut h = Sha1::new();
    let mut line = String::new();
    for r in &run.resolved {
        line.clear();
        let _ = writeln!(
            line,
            "{}|{}|{}|{}|{}|{}:{}|{}|{:?}|{}|{}|{}",
            r.record.at.as_micros(),
            r.record.day,
            r.record.query,
            r.record.filename,
            r.record.size,
            r.record.source_ip,
            r.record.source_port,
            r.record.needs_push,
            r.record.host,
            r.scanned,
            r.malware.as_deref().unwrap_or("-"),
            r.sha1.map(|d| d.to_hex()).unwrap_or_default(),
        );
        h.update(line.as_bytes());
    }
    let counters = format!(
        "queries={} attempted={} failed={} events={}",
        run.log.queries_issued,
        run.log.downloads_attempted,
        run.log.downloads_failed,
        run.sim_metrics.events_processed,
    );
    h.update(counters.as_bytes());
    h.finalize().to_hex()
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// What the obs pass over a written journal found.
#[derive(Default)]
struct ObsPass {
    journal_events: usize,
    journal_bytes: u64,
    load_s: f64,
    analyze_s: f64,
    traces: usize,
    orphans: usize,
    monotone_violations: usize,
    complete_chains: usize,
    spanned_verdicts: usize,
    rss_delta_kb: u64,
}

fn obs_pass(journal_file: &Path, tracer: &mut Tracer) -> ObsPass {
    let path = journal_file.to_str().expect("journal path is UTF-8");
    let journal_bytes = std::fs::metadata(journal_file)
        .map(|m| m.len())
        .unwrap_or(0);
    let rss_before = process_rss_kb().1;
    let (events, load_s) = tracer.span("obs.load", || {
        p2pmal_obs::load_journal(path).expect("journal just written parses")
    });
    let (analysis, analyze_s) = tracer.span("obs.analyze", || {
        p2pmal_obs::analyze("limewire", &events, 3)
    });
    let rss_after = process_rss_kb().1;
    let (report, _) = tracer.span("obs.report_json", || analysis.to_json().to_string_pretty());
    std::hint::black_box(report);
    ObsPass {
        journal_events: events.len(),
        journal_bytes,
        load_s,
        analyze_s,
        traces: analysis.trace_count,
        orphans: analysis.orphans.len(),
        monotone_violations: analysis.monotone_violations,
        complete_chains: analysis.complete_chains,
        spanned_verdicts: analysis.spanned_verdicts,
        rss_delta_kb: rss_after.saturating_sub(rss_before),
    }
}

/// Median host seconds of one population build, over as many builds as fit
/// in `budget_s`.
pub fn setup_s(scenario: &Scenario, budget_s: f64, tracer: &mut Tracer) -> f64 {
    let build = scenario.with_days(0);
    let started = Instant::now();
    let mut secs = Vec::new();
    while secs.is_empty() || started.elapsed().as_secs_f64() < budget_s {
        secs.push(tracer.span("core.setup", || drop(build.run(|_| {}))).1);
    }
    median(&secs)
}

/// Runs `workload` once: collection, report, and (outside every timed
/// region) digest, layer metrics and checks. With the tracer on, the
/// probes run last on inputs taken from this run.
pub fn measure_once(
    workload: &str,
    seed: u64,
    smoke: bool,
    journal: &Path,
    tracer: &mut Tracer,
) -> Sample {
    let t_total = Instant::now();
    let scenario = Scenario::for_workload(workload, seed, smoke, journal);
    let days = scenario.days();

    // Collection. Day spans run from one progress callback to the next, so
    // the first also holds the population build inside `run()`, and
    // `core.extract` runs from the last callback to the return.
    let call = tracer.open("core.run");
    let mut day_s = Vec::with_capacity(days as usize);
    let mut last = Instant::now();
    let mut open_span = Some(tracer.open("netsim.day"));
    let run = scenario.run(|day| {
        day_s.push(last.elapsed().as_secs_f64());
        last = Instant::now();
        let finished = open_span.take().expect("a span is open between callbacks");
        tracer.close(finished);
        open_span = Some(tracer.open(if day == days {
            "core.extract"
        } else {
            "netsim.day"
        }));
    });
    let extract_s = tracer.close(open_span.take().expect("extract span open"));
    tracer.close(call);
    let run_s = run.wall.as_secs_f64();

    // Report: what a user of the study calls once the collection is done.
    let report = match run.network {
        Network::Limewire => StudyReport {
            limewire: Some(run),
            openft: None,
        },
        Network::OpenFt => StudyReport {
            limewire: None,
            openft: Some(run),
        },
    };
    let run = report
        .limewire
        .as_ref()
        .or(report.openft.as_ref())
        .expect("one network ran");
    let t_report = Instant::now();
    let (summaries, _) = tracer.span("analysis.summaries", || report.summaries());
    let label = run.network.label();
    let (tables, _) = tracer.span("analysis.tables", || {
        let resolved = &run.resolved;
        [
            top_malware_table("T2/T3", &top_malware(resolved), 10),
            source_table(label, &source_breakdown(resolved)),
            host_table(label, &host_concentration(resolved), 10),
            daily_table(label, &daily_fraction(resolved)),
            size_table(label, &size_census(resolved)),
        ]
        .map(|t| t.to_markdown())
    });
    // The body of `StudyReport::filter_comparison`, which only looks at a
    // LimeWire log, applied to whichever network ran.
    let (size_detection_pct, learn_eval_s) = tracer.span("filter.learn_eval", || {
        let resolved = &run.resolved;
        let size = SizeFilter::learn(resolved, 3, 2);
        let builtin = LimewireBuiltin::new();
        let echo = EchoHeuristicFilter::new();
        let hash = HashBlacklist::learn(resolved);
        let filters: [&dyn ResponseFilter; 4] = [&builtin, &echo, &hash, &size];
        let evals = filters.map(|f| evaluate(f, resolved));
        evals[3].detection_pct()
    });
    let (comparison, compare_s) = tracer.span("analysis.compare", || report.comparisons());
    let (markdown, render_s) = tracer.span("analysis.render", || report.render_markdown());
    let journal_file = journal_path_for(journal, "limewire");
    let obs = if workload == "lw_journal" {
        obs_pass(&journal_file, tracer)
    } else {
        ObsPass::default()
    };
    let report_s = t_report.elapsed().as_secs_f64();
    let total_s = t_total.elapsed().as_secs_f64();
    std::hint::black_box((&summaries, &tables, &markdown));
    let _ = std::fs::remove_file(&journal_file);

    // Everything below is outside the timed region.
    let m = &run.sim_metrics;
    let log = &run.log;
    let secs = |s: Subsystem| m.timing.nanos(s) as f64 / 1e9;
    let events = m.events_processed;
    day_s.sort_by(f64::total_cmp);
    let window_start = SimTime::from_days(days).as_micros() - 6 * 3_600_000_000;
    let responses_last_6h = log
        .responses
        .iter()
        .filter(|r| r.at.as_micros() >= window_start)
        .count();
    let latency = m.telemetry.hist(SimHist::DownloadLatencyUs);
    let held = comparison.expectations.iter().filter(|e| e.holds()).count();
    let band_dev_max = comparison
        .expectations
        .iter()
        .map(|e| (e.measured - e.paper).abs() / e.tolerance)
        .fold(0.0, f64::max);

    let mut checks = Vec::new();
    check(
        &mut checks,
        "responses_logged",
        !log.responses.is_empty(),
        format!("{} responses", log.responses.len()),
    );
    // Every attempted download ends scanned, unscannable, failed, or is
    // still in flight when the collection stops.
    let settled = log.scan.bodies + log.unscannable + log.downloads_failed;
    check(
        &mut checks,
        "downloads_accounted",
        settled <= log.downloads_attempted && log.downloads_attempted - settled <= DOWNLOAD_SLOTS,
        format!(
            "{} scanned + {} unscannable + {} failed vs {} attempted",
            log.scan.bodies, log.unscannable, log.downloads_failed, log.downloads_attempted
        ),
    );
    check(
        &mut checks,
        "failures_accounted",
        log.failures.total() == log.retries_scheduled + log.downloads_failed,
        format!(
            "{} failed attempts vs {} retries + {} terminal",
            log.failures.total(),
            log.retries_scheduled,
            log.downloads_failed
        ),
    );
    let exchanges = m.timing.calls(Subsystem::ShardExchange);
    check(
        &mut checks,
        "shard_exchange_matches_engine",
        (exchanges > 0) == (run.shards > 1),
        format!("{exchanges} exchanges on {} shard(s)", run.shards),
    );
    if !smoke && seed == CALIBRATED_SEED {
        if workload == "ft_search" {
            check(
                &mut checks,
                "openft_expectations_hold",
                comparison.expectations.len() == 4 && comparison.all_hold(),
                format!("{held} of {} hold", comparison.expectations.len()),
            );
        }
        if workload == "lw_flood" {
            check(
                &mut checks,
                "size_filter_detects",
                size_detection_pct >= 95.0,
                format!("size filter detection {size_detection_pct:.2} %"),
            );
        }
    }
    if workload == "lw_journal" {
        check(
            &mut checks,
            "journal_causally_complete",
            obs.journal_events > 0
                && obs.orphans == 0
                && obs.monotone_violations == 0
                && obs.complete_chains == obs.spanned_verdicts
                && obs.spanned_verdicts as u64 == log.scan.bodies,
            format!(
                "{} events, {} orphans, {} monotonicity violations, {}/{} verdicts on complete chains, {} bodies scanned",
                obs.journal_events,
                obs.orphans,
                obs.monotone_violations,
                obs.complete_chains,
                obs.spanned_verdicts,
                log.scan.bodies
            ),
        );
    }

    let mut layers: Vec<(&'static str, f64)> = vec![
        ("core.report_s", report_s),
        ("core.extract_s", extract_s),
        ("core.day_s.p50", percentile(&day_s, 50.0)),
        ("core.day_s.p70", percentile(&day_s, 70.0)),
        ("core.day_s.max", day_s[day_s.len() - 1]),
        ("netsim.events", events as f64),
        ("netsim.events_per_s", events as f64 / run_s),
        ("netsim.ns_per_event", run_s * 1e9 / events as f64),
        ("netsim.scheduler_s", secs(Subsystem::Scheduler)),
        ("netsim.app_s", secs(Subsystem::App)),
        ("netsim.tcp_pump_s", secs(Subsystem::TcpPump)),
        ("netsim.shard_exchange_s", secs(Subsystem::ShardExchange)),
        ("netsim.timers_fired", m.timers_fired as f64),
        ("netsim.conns_established", m.conns_established as f64),
        ("netsim.conns_failed", m.conns_failed as f64),
        ("netsim.bytes_delivered", m.bytes_delivered as f64),
        (
            "netsim.pool_hit_ratio",
            ratio(m.pool_hits, m.pool_hits + m.pool_misses),
        ),
        ("netsim.queue_high_water", m.queue_high_water as f64),
        (
            "netsim.faults_injected",
            (m.faults_chunks_dropped
                + m.faults_chunks_corrupted
                + m.faults_resets
                + m.faults_latency_spikes) as f64,
        ),
        ("netsim.churn_downs", m.faults_churn_downs as f64),
        ("netsim.journal_events", obs.journal_events as f64),
        ("netsim.journal_mb", obs.journal_bytes as f64 / MIB),
        ("corpus.query_match_s", secs(Subsystem::QueryMatch)),
        (
            "corpus.query_match_calls",
            m.timing.calls(Subsystem::QueryMatch) as f64,
        ),
        (
            "corpus.intern_unique_names",
            run.world.names.stats().unique as f64,
        ),
        ("crawler.queries_issued", log.queries_issued as f64),
        ("crawler.responses", log.responses.len() as f64),
        ("crawler.responses_last_6h", responses_last_6h as f64),
        (
            "crawler.downloads_attempted",
            log.downloads_attempted as f64,
        ),
        ("crawler.downloads_failed", log.downloads_failed as f64),
        ("crawler.retries_scheduled", log.retries_scheduled as f64),
        (
            "crawler.retry_recovery_ratio",
            ratio(log.retry_successes, log.retries_scheduled),
        ),
        ("crawler.push_fallbacks", log.push_fallbacks as f64),
        ("crawler.scan_bodies", log.scan.bodies as f64),
        ("crawler.scan_mb_hashed", log.scan.bytes_hashed as f64 / MIB),
        (
            "crawler.scan_cache_hit_ratio",
            ratio(
                log.scan.cache_hits,
                log.scan.cache_hits + log.scan.cache_misses,
            ),
        ),
        (
            "crawler.download_latency_sim_s.p50",
            latency.percentile(50.0) as f64 / 1e6,
        ),
        (
            "crawler.download_latency_sim_s.p99",
            latency.percentile(99.0) as f64 / 1e6,
        ),
        ("scanner.scan_s", secs(Subsystem::Scan)),
        ("scanner.scan_calls", m.timing.calls(Subsystem::Scan) as f64),
        ("scanner.scan_merge_s", secs(Subsystem::ScanMerge)),
        ("filter.learn_eval_s", learn_eval_s),
        ("analysis.render_s", render_s),
        ("analysis.compare_s", compare_s),
        ("analysis.bands_held", held as f64),
        ("analysis.band_dev_max", band_dev_max),
        ("obs.load_s", obs.load_s),
        ("obs.analyze_s", obs.analyze_s),
        (
            "obs.events_per_s",
            if obs.journal_events == 0 {
                0.0
            } else {
                obs.journal_events as f64 / (obs.load_s + obs.analyze_s)
            },
        ),
        ("obs.traces", obs.traces as f64),
        ("obs.orphans", obs.orphans as f64),
        ("obs.complete_chains", obs.complete_chains as f64),
        ("obs.rss_delta_mb", obs.rss_delta_kb as f64 / 1024.0),
    ];
    if tracer.is_on() {
        // Probes excluded: the overhead is what the spans above cost.
        let overhead_s = tracer.span_count() as f64 * Tracer::cost_per_span_s();
        layers.push(("core.trace_overhead_pct", 100.0 * overhead_s / total_s));
        layers.extend(probes::run_all(run, &scenario, seed, smoke, tracer));
    }

    Sample {
        run_s,
        total_s,
        app_bytes_per_node: m.memory.bytes_per_node() as f64,
        downloads_attempted: log.downloads_attempted,
        downloads_failed: log.downloads_failed,
        layers,
        digest: trajectory_digest(run),
        checks,
    }
}

/// Where a journal base path for this process lives under `out`.
pub fn journal_base(out: &Path) -> PathBuf {
    out.join("tmp")
        .join(format!("{}.jsonl", std::process::id()))
}
