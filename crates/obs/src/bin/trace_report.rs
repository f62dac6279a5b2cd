//! Reconstructs causal propagation trees from telemetry journals.
//!
//! ```text
//! trace_report [--top-k N] [--json PATH] [--strict] <journal.jsonl>...
//! ```
//!
//! For each journal (produced with `P2PMAL_JOURNAL=path` — see the README
//! Observability section): rebuilds every trace, prints a human summary
//! (chain completeness, per-hop sim-time latency, hop-depth distribution
//! of clean vs malicious verdicts, per-family propagation, top-K deepest
//! and widest traces, orphan diagnostics) and, with `--json`, writes a
//! machine-readable report covering all journals. The last summary line is
//! the process's own peak RSS: 20 bytes per journal event, tables per
//! event kind and per `(trace, parent)` context, and with `--strict` a
//! hash set of span ids.
//!
//! `--strict` makes the bin the CI journal gate: exit 1 unless every
//! journal has **at least one complete** `query_issued -> query_matched ->
//! download_start -> download_complete -> scan_verdict` chain, **no orphan
//! span**, only known categories, unique span ids, sim time that never
//! goes backwards, and every `parent` emitted on an earlier line
//! (`p2pmal_obs::strict_failures`). A journal that cannot be read exits 2.

use p2pmal_json::Value;
use p2pmal_obs::{analyze, load_journal, strict_failures};

fn usage() -> ! {
    eprintln!("usage: trace_report [--top-k N] [--json PATH] [--strict] <journal.jsonl>...");
    std::process::exit(2);
}

fn main() {
    let mut top_k = 3usize;
    let mut json_path: Option<String> = None;
    let mut strict = false;
    let mut journals: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top-k" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => top_k = v,
                None => usage(),
            },
            "--json" => match args.next() {
                Some(v) => json_path = Some(v),
                None => usage(),
            },
            "--strict" => strict = true,
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ => journals.push(arg),
        }
    }
    if journals.is_empty() {
        usage();
    }

    let mut reports = Vec::new();
    let mut strict_ok = true;
    for path in &journals {
        let events = match load_journal(path) {
            Ok(events) => events,
            Err(err) => {
                eprintln!("trace_report: {err}");
                std::process::exit(2);
            }
        };
        let analysis = analyze(path, &events, top_k);
        print!("{}", analysis.render_summary());
        if strict {
            for failure in strict_failures(&events, &analysis) {
                eprintln!("trace_report: {path}: strict check failed: {failure}");
                strict_ok = false;
            }
        }
        reports.push(analysis.to_json());
    }

    println!(
        "trace_report: peak RSS {:.1} MiB",
        p2pmal_netsim::process_rss_kb().0 as f64 / 1024.0
    );

    if let Some(path) = json_path {
        let doc = Value::Obj(vec![("journals".into(), Value::Arr(reports))]);
        if let Err(err) = std::fs::write(&path, doc.to_string_pretty() + "\n") {
            eprintln!("trace_report: cannot write {path}: {err}");
            std::process::exit(2);
        }
        println!("report written to {path}");
    }

    if !strict_ok {
        std::process::exit(1);
    }
}
