//! A month of LimeWire is some 25.7 M journal events, almost all of them
//! `query_matched` children of about 270 k `query_issued` roots. Loading
//! must cost one 20-byte record per event and nothing else that grows with
//! the events; the trace forest and `analyze` must cost the same whatever
//! the number of events under the same roots. A counting allocator follows
//! the live heap and its peak; its counters are per thread, so concurrent
//! tests do not disturb each other.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::peak_of;
use p2pmal_obs::{analyze, parse_journal};

/// `roots` query traces, then `matches` `query_matched` events dealt
/// round-robin under them, as a journal's text.
fn journal_text(roots: u64, matches: u64) -> String {
    let mut text = String::new();
    for r in 0..roots {
        text.push_str(&format!(
            "{{\"t\":{r},\"day\":0,\"cat\":\"query\",\"ev\":\"query_issued\",\
             \"trace\":\"{r:x}\",\"span\":\"{:x}\",\"text\":\"q\"}}\n",
            r << 32
        ));
    }
    for m in 0..matches {
        let r = m % roots;
        text.push_str(&format!(
            "{{\"t\":{},\"day\":0,\"cat\":\"query\",\"ev\":\"query_matched\",\
             \"trace\":\"{r:x}\",\"span\":\"{:x}\",\"parent\":\"{:x}\",\"hops\":{}}}\n",
            roots + m,
            (r << 32) + 1 + m,
            r << 32,
            1 + m % 7
        ));
    }
    text
}

#[test]
fn load_is_20_bytes_an_event_and_analyze_is_per_context() {
    const ROOTS: u64 = 64;
    // Two contexts per root (the root's own and its children's), the label
    // and kind tables and the line buffer.
    let beside = 512 * ROOTS as usize + 16 * 1024;
    let mut analyze_peaks = Vec::new();
    for matches in [10_000, 100_000] {
        let text = journal_text(ROOTS, matches);
        let events = (ROOTS + matches) as usize;

        let (journal, load_peak) = peak_of(|| parse_journal(&text).unwrap());
        assert_eq!(journal.len(), events);
        let budget = 2 * 20 * events + beside;
        assert!(
            load_peak <= budget,
            "{events} events: loading peaked at {load_peak} B, over {budget} B"
        );

        let (analysis, analyze_peak) = peak_of(|| analyze("synthetic", &journal, 3));
        assert_eq!(analysis.trace_count, ROOTS as usize);
        assert_eq!(analysis.spanned, events);
        assert!(analysis.orphans.is_empty());
        assert_eq!(analysis.edges["query_issued->query_matched"].count, matches);
        assert_eq!(analysis.widest[0].fanout, matches.div_ceil(ROOTS) as usize);
        analyze_peaks.push(analyze_peak);
    }
    let [small, large] = analyze_peaks[..] else {
        unreachable!()
    };
    assert!(
        small.abs_diff(large) <= 4 * 1024,
        "analyze peaked at {small} B over 10 k matches and {large} B over 100 k"
    );
}
