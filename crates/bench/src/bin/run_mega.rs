//! Runs one mega-tier population (see `p2pmal_core::MegaScenario`) and
//! reports setup throughput, steady-state memory and event throughput.
//!
//! ```sh
//! P2PMAL_MEGA_NODES=50000 P2PMAL_DAYS=2 P2PMAL_SHARDS=4 \
//!     cargo run --release -p p2pmal-bench --bin run_mega
//! ```
//!
//! Writes a machine-readable summary to `P2PMAL_BENCH_JSON`
//! (default `target/telemetry/BENCH_mega.json`) and exits 1 when it
//! cannot; exits 2 on a bad `P2PMAL_*` variable or a journal it cannot
//! create.

use p2pmal_bench::{mega_from_env, write_summary};
use p2pmal_core::MegaRun;
use p2pmal_json::Value;

fn mem_entry(label: &str, m: &p2pmal_netsim::MemoryStats) -> Value {
    Value::Obj(vec![
        ("phase".into(), label.into()),
        ("nodes".into(), m.nodes.into()),
        ("app_bytes".into(), m.app_bytes.into()),
        ("bytes_per_node".into(), m.bytes_per_node().into()),
        ("queue_bytes".into(), m.queue_bytes.into()),
        ("payload_peak_bytes".into(), m.payload_peak_bytes.into()),
        ("body_buffer_bytes".into(), m.body_buffer_bytes.into()),
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
        "[run_mega] setup: {setup_secs:.1}s wall ({:.0} nodes/s), {} bytes/node app estimate, queues {} KiB, payloads peak {} KiB, body buffers {} KiB, RSS {} MiB (peak {} MiB)",
        run.nodes as f64 / setup_secs.max(1e-9),
        setup.bytes_per_node(),
        setup.queue_bytes / 1024,
        setup.payload_peak_bytes / 1024,
        setup.body_buffer_bytes / 1024,
        setup.current_rss_kb / 1024,
        setup.peak_rss_kb / 1024,
    );
    eprintln!(
        "[run_mega] run: {} sim-days in {run_secs:.1}s wall, {events} events ({:.0}/s)",
        run.days,
        events as f64 / run_secs.max(1e-9),
    );
    eprintln!(
        "[run_mega] steady state: {} bytes/node app estimate ({} MiB total), queues {} KiB, payloads peak {} KiB, body buffers {} KiB, RSS {} MiB (peak {} MiB)",
        steady.bytes_per_node(),
        steady.app_bytes / (1024 * 1024),
        steady.queue_bytes / 1024,
        steady.payload_peak_bytes / 1024,
        steady.body_buffer_bytes / 1024,
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

/// False when the summary could not be written.
fn write_bench_json(run: &MegaRun, seed: u64) -> bool {
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
    write_summary("run_mega", "BENCH_mega.json", &doc)
}

fn main() {
    let scen = mega_from_env().unwrap_or_else(|e| {
        eprintln!("[run_mega] {e}");
        std::process::exit(2)
    });
    eprintln!(
        "[run_mega] seed {}, {} nodes, {} days, {} shards",
        scen.seed, scen.nodes, scen.days, scen.shards,
    );
    let run = scen.run_with_progress(|day| eprintln!("[run_mega] day {day} done"));
    report(&run);
    if !write_bench_json(&run, scen.seed) {
        std::process::exit(1);
    }
}
