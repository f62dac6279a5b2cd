//! Runs one mega-tier population (see `p2pmal_core::MegaScenario`) and
//! reports setup throughput, steady-state memory and event throughput.
//!
//! ```sh
//! P2PMAL_MEGA_NODES=50000 P2PMAL_DAYS=2 P2PMAL_SHARDS=4 \
//!     cargo run --release -p p2pmal-bench --bin run_mega
//! ```
//!
//! Writes a machine-readable summary to `P2PMAL_BENCH_JSON`
//! (default `target/telemetry/BENCH_mega.json`).

use p2pmal_core::{MegaRun, MegaScenario};
use p2pmal_json::Value;

fn mem_entry(label: &str, m: &p2pmal_netsim::MemoryStats) -> Value {
    Value::Obj(vec![
        ("phase".into(), label.into()),
        ("nodes".into(), m.nodes.into()),
        ("app_bytes".into(), m.app_bytes.into()),
        ("bytes_per_node".into(), m.bytes_per_node().into()),
        ("peak_rss_kb".into(), m.peak_rss_kb.into()),
        ("current_rss_kb".into(), m.current_rss_kb.into()),
    ])
}

fn report(run: &MegaRun) {
    let setup = &run.setup_memory;
    let steady = &run.sim_metrics.memory;
    let setup_secs = run.setup_wall.as_secs_f64();
    let run_secs = run.wall.as_secs_f64();
    let events = run.sim_metrics.events_processed;
    eprintln!(
        "[run_mega] population: {} nodes ({} ultrapeers + {} leaves + crawler), {} shards",
        run.nodes, run.ups, run.leaves, run.shards,
    );
    eprintln!(
        "[run_mega] setup: {setup_secs:.1}s wall ({:.0} nodes/s), {} bytes/node app estimate, RSS {} MiB (peak {} MiB)",
        run.nodes as f64 / setup_secs.max(1e-9),
        setup.bytes_per_node(),
        setup.current_rss_kb / 1024,
        setup.peak_rss_kb / 1024,
    );
    eprintln!(
        "[run_mega] run: {} sim-days in {run_secs:.1}s wall, {events} events ({:.0}/s)",
        run.days,
        events as f64 / run_secs.max(1e-9),
    );
    eprintln!(
        "[run_mega] steady state: {} bytes/node app estimate ({} MiB total), RSS {} MiB (peak {} MiB)",
        steady.bytes_per_node(),
        steady.app_bytes / (1024 * 1024),
        steady.current_rss_kb / 1024,
        steady.peak_rss_kb / 1024,
    );
    eprintln!(
        "[run_mega] crawl: {} queries, {} responses, {} downloads attempted / {} failed",
        run.log.queries_issued,
        run.log.responses.len(),
        run.log.downloads_attempted,
        run.log.downloads_failed,
    );
}

fn write_json(run: &MegaRun, seed: u64) {
    let run_secs = run.wall.as_secs_f64();
    let events = run.sim_metrics.events_processed;
    let doc = Value::Obj(vec![
        ("seed".into(), seed.into()),
        ("nodes".into(), (run.nodes as u64).into()),
        ("ultrapeers".into(), (run.ups as u64).into()),
        ("leaves".into(), (run.leaves as u64).into()),
        ("days".into(), run.days.into()),
        ("shards".into(), (run.shards as u64).into()),
        ("window_ms".into(), (run.shard_window_us / 1000).into()),
        ("setup_secs".into(), run.setup_wall.as_secs_f64().into()),
        ("run_secs".into(), run_secs.into()),
        ("events".into(), events.into()),
        (
            "events_per_sec".into(),
            (events as f64 / run_secs.max(1e-9)).into(),
        ),
        (
            "memory".into(),
            Value::Arr(vec![
                mem_entry("setup", &run.setup_memory),
                mem_entry("steady", &run.sim_metrics.memory),
            ]),
        ),
    ]);
    let path = std::env::var("P2PMAL_BENCH_JSON")
        .unwrap_or_else(|_| "target/telemetry/BENCH_mega.json".into());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&path, doc.to_string_compact()) {
        Ok(()) => eprintln!("[run_mega] wrote summary to {path}"),
        Err(e) => eprintln!("[run_mega] could not write {path}: {e}"),
    }
}

fn main() {
    let seed = std::env::var("P2PMAL_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let scen = MegaScenario::from_env(seed);
    eprintln!(
        "[run_mega] seed {seed}, {} nodes, {} days, {} shards",
        scen.nodes, scen.days, scen.shards,
    );
    let run = scen.run_with_progress(|day| eprintln!("[run_mega] day {day} done"));
    report(&run);
    write_json(&run, seed);
}
