//! A quick (days=2, small population) end-to-end study on both networks.
//! This is the integration test that exercises the complete pipeline; the
//! paper-scale numbers are checked by `run_study` / EXPERIMENTS.md.

use p2pmal_analysis::{source_breakdown, summarize, top_malware};
use p2pmal_core::Study;

/// EXPERIMENTS.md's headline rows: ten on the LimeWire log, four on OpenFT.
const PAPER_ROWS: [&str; 14] = [
    "T1-limewire",
    "T2-limewire-top3",
    "T4-limewire-private",
    "T6-builtin",
    "T6-size-detection",
    "T6-size-fp",
    "F1-mean",
    "F2-few-sizes",
    "F3-knee",
    "F4-amplification",
    "T1-openft",
    "T3-openft-top1",
    "T3-openft-top3",
    "T5-openft-host",
];

#[test]
fn quick_study_runs_and_has_paper_shape() {
    let report = Study::quick(42).run();

    // Both networks produced data.
    let lw = report.limewire.as_ref().expect("limewire ran");
    let ft = report.openft.as_ref().expect("openft ran");
    assert!(
        lw.log.queries_issued > 100,
        "lw queries {}",
        lw.log.queries_issued
    );
    assert!(
        ft.log.queries_issued > 100,
        "ft queries {}",
        ft.log.queries_issued
    );

    let lw_sum = summarize("LimeWire", &lw.log, &lw.resolved);
    let ft_sum = summarize("OpenFT", &ft.log, &ft.resolved);
    eprintln!("LimeWire: {lw_sum:#?}");
    eprintln!("OpenFT: {ft_sum:#?}");
    eprintln!(
        "LW top malware: {:#?}",
        top_malware(&lw.resolved).iter().take(4).collect::<Vec<_>>()
    );
    eprintln!(
        "FT top malware: {:#?}",
        top_malware(&ft.resolved).iter().take(4).collect::<Vec<_>>()
    );
    eprintln!("LW sources: {:#?}", source_breakdown(&lw.resolved));
    let rows = report.comparisons();
    eprintln!("{}", rows.to_table().to_markdown());
    let ids: Vec<&str> = rows.expectations.iter().map(|e| e.id.as_str()).collect();
    assert_eq!(ids, PAPER_ROWS, "EXPERIMENTS.md's 14 rows, in its order");
    let measured = |id: &str| {
        rows.expectations
            .iter()
            .find(|e| e.id == id)
            .unwrap()
            .measured
    };

    // Shape checks (quick scale is noisy; bands are loose).
    assert!(lw_sum.malicious > 0, "LimeWire saw malware");
    assert!(
        lw_sum.malicious_pct > ft_sum.malicious_pct,
        "LimeWire ({:.1}%) must be far dirtier than OpenFT ({:.1}%)",
        lw_sum.malicious_pct,
        ft_sum.malicious_pct
    );
    assert!(
        lw_sum.malicious_pct > 30.0,
        "lw {:.1}%",
        lw_sum.malicious_pct
    );
    assert!(
        ft_sum.malicious_pct < 20.0,
        "ft {:.1}%",
        ft_sum.malicious_pct
    );

    // Top-3 dominance on LimeWire.
    let lw_top = top_malware(&lw.resolved);
    assert!(!lw_top.is_empty());
    let top3 = lw_top.iter().take(3).map(|s| s.pct).sum::<f64>();
    assert!(top3 > 90.0, "LimeWire top-3 share {top3:.1}%");

    // Private addresses appear among LimeWire malicious sources.
    let sources = source_breakdown(&lw.resolved);
    assert!(
        sources.private_pct > 5.0,
        "private share {:.1}%",
        sources.private_pct
    );

    // Filters: size-based beats the built-in by a wide margin.
    let builtin = measured("T6-builtin");
    let size = measured("T6-size-detection");
    let size_fp = measured("T6-size-fp");
    assert!(size > 90.0, "size filter detects {size:.1}%");
    assert!(size_fp < 2.0, "size filter FP {size_fp:.2}%");
    assert!(
        builtin < size / 2.0,
        "builtin {builtin:.1}% vs size {size:.1}%"
    );

    // The report renders.
    let md = report.render_markdown();
    assert!(md.contains("T1 — Data collection summary"));
    assert!(md.contains("T6 — Filter comparison"));
    assert!(md.contains("Paper vs measured"));
    for id in PAPER_ROWS {
        assert!(md.contains(&format!("| {id} |")), "{id} rendered");
    }
}
