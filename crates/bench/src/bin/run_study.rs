//! Runs the full two-network study, simulating once, and prints every
//! table, figure and paper row, plus machine-readable comparisons. Exits 1
//! at paper scale when a row leaves its band, and whenever the BENCH JSON
//! summary cannot be written; 2 on a bad `P2PMAL_*` variable or a journal
//! it cannot create.
//!
//! ```sh
//! cargo run --release -p p2pmal-bench --bin run_study           # paper scale
//! P2PMAL_QUICK=1 cargo run --release -p p2pmal-bench --bin run_study
//! # Multi-seed sweep, one study per thread:
//! P2PMAL_QUICK=1 P2PMAL_SEEDS=1,2,3 cargo run --release -p p2pmal-bench --bin run_study
//! ```

use p2pmal_analysis::{hist_summary_line, summarize};
use p2pmal_bench::{write_summary, BenchConfig};
use p2pmal_core::{NetworkRun, StudyReport};
use p2pmal_crawler::{LogFootprint, ResolvedResponse};
use p2pmal_json::Value;
use p2pmal_netsim::{HistSummary, Subsystem};

/// One line of scan-pipeline accounting: how many download bodies were
/// hashed and scanned, and how many distinct payloads they carried.
fn scan_line(run: &NetworkRun) -> String {
    let s = &run.log.scan;
    format!(
        "  scan pipeline [{}]: {} bodies ({} KiB hashed), {} distinct payloads",
        run.network.label(),
        s.bodies,
        s.bytes_hashed / 1024,
        s.distinct_payloads,
    )
}

/// Fault-injection and retry-pipeline accounting, printed only when a
/// non-default `P2PMAL_FAULTS` profile is active (the fault-free study's
/// stdout stays byte-identical to the pre-fault-layer build).
fn resilience_lines(run: &NetworkRun, profile: &str) -> String {
    let label = run.network.label();
    let log = &run.log;
    let m = &run.sim_metrics;
    let causes: Vec<String> = log
        .failures
        .parts()
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(k, n)| format!("{k} {n}"))
        .collect();
    let causes = if causes.is_empty() {
        "none".to_string()
    } else {
        causes.join(" / ")
    };
    format!(
        "  resilience [{label}] (profile {profile}): {} retries ({} recovered), {} terminal failures, {} failed attempts by cause: {causes}\n  \
         faults injected [{label}]: {} chunks dropped, {} corrupted, {} resets, {} latency spikes, {} churn downs / {} ups; {} push fallbacks, {} unscannable",
        log.retries_scheduled,
        log.retry_successes,
        log.downloads_failed,
        log.failures.total(),
        m.faults_chunks_dropped,
        m.faults_chunks_corrupted,
        m.faults_resets,
        m.faults_latency_spikes,
        m.faults_churn_downs,
        m.faults_churn_ups,
        log.push_fallbacks,
        log.unscannable,
    )
}

/// Per-network profiler roll-up: the wall time of the simulation loop,
/// event throughput, and the per-subsystem wall-time buckets. Echoed to
/// stderr (stdout is the report and must stay byte-identical across
/// perf-only changes) and serialized into `BENCH_study.json`.
fn timing_entry(label: &str, run: &NetworkRun) -> Value {
    let t = &run.sim_metrics.timing;
    let wall = run.wall.as_secs_f64();
    let events = run.sim_metrics.events_processed;
    let events_per_sec = if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    };
    eprintln!(
        "[run_study] timing {label}: {wall:.1}s wall, {events} events ({events_per_sec:.0}/s); {}",
        t.render_compact(),
    );
    if run.shards > 1 {
        eprintln!(
            "[run_study] sharding {label}: {} shards, {} ms exchange window",
            run.shards,
            run.shard_window_us / 1000,
        );
    }
    let buckets = Value::Obj(
        Subsystem::ALL
            .iter()
            .map(|&s| {
                (
                    s.label().to_string(),
                    Value::Obj(vec![
                        ("secs".into(), (t.nanos(s) as f64 / 1e9).into()),
                        ("calls".into(), t.calls(s).into()),
                    ]),
                )
            })
            .collect(),
    );
    Value::Obj(vec![
        ("network".into(), label.into()),
        ("wall_secs".into(), wall.into()),
        ("events".into(), events.into()),
        ("events_per_sec".into(), events_per_sec.into()),
        ("shards".into(), (run.shards as u64).into()),
        ("window_ms".into(), (run.shard_window_us / 1000).into()),
        ("subsystems".into(), buckets),
        ("memory".into(), memory_entry(run)),
        ("telemetry".into(), telemetry_entry(run)),
    ])
}

/// Memory-accounting section of one network's `BENCH_study.json` entry,
/// echoed to stderr like the timing lines (RSS readings are wall-machine
/// facts and never reach stdout).
fn memory_entry(run: &NetworkRun) -> Value {
    let m = &run.sim_metrics.memory;
    // The response log belongs to the measurement, not to a node: sized
    // beside the per-node estimate, never inside it. So is its resolved
    // copy, whose rows share the log's texts.
    let log = run.log.footprint();
    let resolved = run.resolved.capacity() * std::mem::size_of::<ResolvedResponse>();
    eprintln!(
        "[run_study] memory {}: {} nodes, {} bytes/node app estimate ({} KiB total), queues {} KiB, payloads peak {} KiB, body buffers {} KiB, RSS {} MiB (peak {} MiB); {}, resolved {} KiB",
        run.network.label(),
        m.nodes,
        m.bytes_per_node(),
        m.app_bytes / 1024,
        m.queue_bytes / 1024,
        m.payload_peak_bytes / 1024,
        m.body_buffer_bytes / 1024,
        m.current_rss_kb / 1024,
        m.peak_rss_kb / 1024,
        footprint_part(&log),
        resolved / 1024,
    );
    Value::Obj(vec![
        ("nodes".into(), m.nodes.into()),
        ("app_bytes".into(), m.app_bytes.into()),
        ("bytes_per_node".into(), m.bytes_per_node().into()),
        ("queue_bytes".into(), m.queue_bytes.into()),
        ("payload_peak_bytes".into(), m.payload_peak_bytes.into()),
        ("body_buffer_bytes".into(), m.body_buffer_bytes.into()),
        ("peak_rss_kb".into(), m.peak_rss_kb.into()),
        ("current_rss_kb".into(), m.current_rss_kb.into()),
        ("log_records".into(), log.records.into()),
        ("log_distinct_queries".into(), log.distinct_queries.into()),
        (
            "log_distinct_filenames".into(),
            log.distinct_filenames.into(),
        ),
        ("log_heap_bytes".into(), log.heap_bytes.into()),
        ("resolved_heap_bytes".into(), (resolved as u64).into()),
    ])
}

/// A [`HistSummary`] as the flat object `BENCH_study.json` carries.
fn summary_to_json(s: &HistSummary) -> Value {
    Value::Obj(vec![
        ("count".into(), s.count.into()),
        ("min".into(), s.min.into()),
        ("p50".into(), s.p50.into()),
        ("p90".into(), s.p90.into()),
        ("p99".into(), s.p99.into()),
        ("max".into(), s.max.into()),
    ])
}

/// The telemetry section of one network's `BENCH_study.json` entry: the
/// crawl's counts (see [`NetworkRun::crawl_counts`]) plus
/// count/min/p50/p90/p99/max summaries of every sim-time histogram.
fn telemetry_entry(run: &NetworkRun) -> Value {
    let reg = &run.sim_metrics.telemetry;
    let counters = Value::Obj(
        run.crawl_counts()
            .into_iter()
            .map(|(label, n)| (label.to_string(), n.into()))
            .collect(),
    );
    let hists = Value::Obj(
        reg.sim_summaries()
            .into_iter()
            .map(|(label, s)| (label.to_string(), summary_to_json(&s)))
            .collect(),
    );
    Value::Obj(vec![("counters".into(), counters), ("hists".into(), hists)])
}

/// Filename-interning accounting for one network's world, echoed to
/// stderr (stdout must stay byte-identical across perf-only changes).
fn intern_lines(label: &str, run: &NetworkRun) {
    let s = run.world.names.stats();
    eprintln!(
        "[run_study] interning {label}: {} unique names, {} dedup hits, {} KiB of string bytes saved",
        s.unique,
        s.hits,
        s.bytes_saved / 1024,
    );
    eprintln!(
        "[run_study] interning {label}: {} arena records, {} KiB of match metadata saved",
        s.records,
        s.meta_bytes_saved / 1024,
    );
}

/// Echoes the sim-time histogram summaries to stderr.
fn telemetry_lines(label: &str, run: &NetworkRun) {
    let reg = &run.sim_metrics.telemetry;
    for (name, s) in reg.sim_summaries() {
        if s.count == 0 {
            continue;
        }
        eprintln!(
            "[run_study] hist {label}: {}",
            hist_summary_line(name, s.count, s.min, s.p50, s.p90, s.p99, s.max)
        );
    }
}

/// Writes the machine-readable timing summary next to the human report so
/// the perf trajectory is tracked across commits. False when it could not.
fn write_bench_json(report: &StudyReport, cfg: &BenchConfig) -> bool {
    let networks = report
        .runs()
        .map(|run| timing_entry(run.network.label(), run))
        .collect();
    let doc = Value::Obj(vec![
        ("seed".into(), cfg.seed.into()),
        ("quick".into(), cfg.quick.into()),
        ("faults".into(), cfg.faults.as_str().into()),
        ("networks".into(), Value::Arr(networks)),
    ]);
    write_summary("run_study", &cfg.common.summary, &doc)
}

/// What the crawler's response log held and cost, for a summary line.
fn footprint_part(log: &LogFootprint) -> String {
    format!(
        "log {} records / {} queries / {} names, {} KiB",
        log.records,
        log.distinct_queries,
        log.distinct_filenames,
        log.heap_bytes / 1024,
    )
}

/// A network's response counts, for a sweep line.
fn count_line(run: &NetworkRun, seed: u64) -> String {
    let s = summarize(run.network.label(), &run.log, &run.resolved);
    format!(
        "  {:8} seed={:<6} responses={:<6} downloadable={:<6} malicious={:<5} ({:.1}%)  sim_events={}  {}",
        s.network,
        seed,
        s.responses,
        s.downloadable,
        s.malicious,
        s.malicious_pct,
        run.sim_metrics.events_processed,
        footprint_part(&run.log.footprint()),
    )
}

/// What a sweep prints for one seed's study: counts, scan lines, and how
/// many paper rows hold.
fn seed_lines(report: &StudyReport, seed: u64, faults: &str) -> String {
    let mut lines = vec![format!("seed {seed}:")];
    for run in report.runs() {
        lines.push(count_line(run, seed));
        lines.push(scan_line(run));
        if faults != "none" {
            lines.push(resilience_lines(run, faults));
        }
    }
    let rows = report.comparisons();
    let out: Vec<&str> = rows.failures().iter().map(|e| e.id.as_str()).collect();
    lines.push(format!(
        "  {} / {} rows hold{}",
        rows.expectations.len() - out.len(),
        rows.expectations.len(),
        if out.is_empty() {
            String::new()
        } else {
            format!("; out of band: {}", out.join(", "))
        }
    ));
    lines.join("\n")
}

/// One study per seed, each on its own thread (its two networks on two
/// more). A thread keeps only its printed lines, never the runs.
fn sweep(cfg: &BenchConfig, seeds: &[u64]) {
    eprintln!("[run_study] multi-seed sweep over {seeds:?}, one study per thread");
    let started = std::time::Instant::now();
    let lines: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                scope.spawn(move || {
                    let report = cfg.with_seed(seed).study().run_parallel();
                    seed_lines(&report, seed, &cfg.faults)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seed thread panicked"))
            .collect()
    });
    eprintln!(
        "[run_study] sweep took {:.1}s wall",
        started.elapsed().as_secs_f64()
    );
    println!("# Multi-seed sweep");
    for l in lines {
        println!("{l}");
    }
}

fn main() {
    let cfg = BenchConfig::from_env().unwrap_or_else(|e| {
        eprintln!("[run_study] {e}");
        std::process::exit(2)
    });
    if let Some(seeds) = cfg.seeds.clone() {
        sweep(&cfg, &seeds);
        return;
    }
    let report = cfg
        .study()
        .run_with_progress(|net, day| eprintln!("[run_study] {net}: day {day} done"));

    println!("{}", report.render_markdown());
    for run in report.runs() {
        println!("{}", scan_line(run));
    }
    for run in report.runs() {
        if cfg.faults != "none" {
            println!("{}", resilience_lines(run, &cfg.faults));
        }
        telemetry_lines(run.network.label(), run);
        intern_lines(run.network.label(), run);
    }
    let written = write_bench_json(&report, &cfg);
    let comparisons = report.comparisons();
    eprintln!("{}", comparisons.to_json());
    if comparisons.all_hold() {
        eprintln!(
            "[run_study] all {} expectations hold",
            comparisons.expectations.len()
        );
    } else {
        eprintln!(
            "[run_study] {} expectation(s) out of band",
            comparisons.failures().len()
        );
    }
    if !written || (!comparisons.all_hold() && !cfg.quick) {
        std::process::exit(1);
    }
}
