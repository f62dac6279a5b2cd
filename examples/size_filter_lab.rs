//! Size-filter laboratory: learn the paper's size-based filter from a
//! measured crawl and explore its parameter space.
//!
//! ```sh
//! cargo run --release --example size_filter_lab
//! ```
//!
//! Runs a quick LimeWire collection, splits it into train/test halves by
//! day, learns the blocklist from the training half, and prints:
//!
//! * the learned (family, size) blocklist,
//! * the filter-panel comparison (built-in vs heuristics vs size-based),
//! * the k-sweep (how many blocked sizes until detection saturates),
//! * the tolerance ablation (exact vs ± matching).

use p2pmal::analysis::Table;
use p2pmal::core::LimewireScenario;
use p2pmal::filter::sweep::{size_filter_sweep, split_by_day, tolerance_ablation};
use p2pmal::filter::{
    evaluate, EchoHeuristicFilter, HashBlacklist, LimewireBuiltin, ResponseFilter, SizeFilter,
};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7u64);
    eprintln!("collecting a quick LimeWire crawl (seed {seed})...");
    let run = LimewireScenario::quick(seed).run_with_progress(|d| eprintln!("  day {d} done"));
    let resolved = run.resolved;
    eprintln!(
        "collected {} responses ({} queries)\n",
        resolved.len(),
        run.log.queries_issued
    );

    let (train, test) = split_by_day(&resolved, 1);
    println!(
        "train: {} responses (day 0); test: {} responses (day 1+)\n",
        train.len(),
        test.len()
    );

    // The paper's recipe.
    let size = SizeFilter::learn(train, 3, 2);
    println!(
        "learned blocklist (top-3 families, <=2 sizes each): {:?}\n",
        size.blocked_sizes()
    );

    // Panel comparison.
    let builtin = LimewireBuiltin::new();
    let echo = EchoHeuristicFilter::new();
    let hash = HashBlacklist::learn(train);
    let mut t = Table::new(
        "Filter panel (tested on the held-out half)",
        &["filter", "detection", "false positives"],
    );
    for f in [&builtin as &dyn ResponseFilter, &echo, &hash, &size] {
        let ev = evaluate(f, test);
        t.row(vec![
            ev.name.clone(),
            format!("{:.2}%", ev.detection_pct()),
            format!("{:.3}%", ev.false_positive_pct()),
        ]);
    }
    println!("{}", t.to_markdown());

    // k-sweep.
    let mut t = Table::new("k-sweep", &["k", "detection", "false positives"]);
    for p in size_filter_sweep(train, test, &[0, 1, 2, 3, 4, 8]) {
        t.row(vec![
            p.k.to_string(),
            format!("{:.2}%", p.eval.detection_pct()),
            format!("{:.3}%", p.eval.false_positive_pct()),
        ]);
    }
    println!("{}", t.to_markdown());

    // Tolerance ablation.
    let mut t = Table::new(
        "tolerance ablation (k=4)",
        &["± bytes", "detection", "false positives"],
    );
    for (tol, ev) in tolerance_ablation(train, test, 4, &[0, 1024, 16384]) {
        t.row(vec![
            tol.to_string(),
            format!("{:.2}%", ev.detection_pct()),
            format!("{:.3}%", ev.false_positive_pct()),
        ]);
    }
    println!("{}", t.to_markdown());
}
