//! The report reads every resolved row several times over (1.78 M rows on
//! a month of OpenFT): `summarize` three times, and `evaluate` once per
//! filter. What those passes allocate must follow the filters, hosts,
//! families and distinct queries they meet, never the rows they read. A
//! counting allocator sees every allocation; its counters are per thread,
//! so concurrent tests do not disturb each other.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::measure;
use p2pmal_analysis::report::summarize;
use p2pmal_crawler::{CrawlLog, HostKey, ResolvedResponse, ResponseRecord};
use p2pmal_filter::{
    evaluate, EchoHeuristicFilter, HashBlacklist, LimewireBuiltin, ResponseFilter, SizeFilter,
};
use p2pmal_netsim::SimTime;
use std::net::Ipv4Addr;

const QUERIES: [&str; 4] = ["free music", "Top Hits 2006", "photoshop", "winzip crack"];
const NAMES: [&str; 8] = [
    "free music.exe",
    "free_music.ZIP",
    "Top_Hits_2006.exe",
    "photoshop_KEYGEN.exe",
    "WinZip Crack.zip",
    "holiday photos.zip",
    "song.mp3",
    "setup.exe",
];

/// `n` resolved rows over 4 queries, 8 names and 16 hosts; every fifth
/// one is infected by one of 3 families, one in seven is unscanned.
fn rows(n: usize) -> Vec<ResolvedResponse> {
    (0..n)
        .map(|i| {
            let at = SimTime::from_secs(i as u64 * 60);
            let name = NAMES[i % NAMES.len()];
            let malware = (i % 5 == 0).then(|| format!("W32.Family{}", i % 3).into());
            let sha1 = Some(p2pmal_hashes::sha1(&[(i % 5 == 0) as u8, (i % 3) as u8]));
            ResolvedResponse {
                record: ResponseRecord {
                    at,
                    day: at.day() as u32,
                    query: QUERIES[i % QUERIES.len()].into(),
                    filename: name.into(),
                    size: 1000 + (i % 11) as u32,
                    source_ip: Ipv4Addr::new(10, 0, 0, (i % 16) as u8),
                    source_port: 1215,
                    needs_push: false,
                    host: HostKey::Addr(Ipv4Addr::new(10, 0, 0, (i % 16) as u8), 1215).into(),
                    downloadable: p2pmal_crawler::is_downloadable_name(name),
                },
                scanned: i % 7 != 0,
                malware,
                sha1,
            }
        })
        .collect()
}

#[test]
fn summarize_and_evaluate_allocate_per_report_not_per_row() {
    let log = CrawlLog::new();
    let mut at = Vec::new();
    for n in [10_000, 100_000] {
        let resolved = rows(n);
        let size = SizeFilter::learn(&resolved, 3, 2);
        let hash = HashBlacklist::learn(&resolved);
        // Fresh per measurement: its query cache fills once per distinct
        // query, the same four at either row count.
        let echo = EchoHeuristicFilter::new();
        let builtin = LimewireBuiltin::new();
        let filters: [&dyn ResponseFilter; 4] = [&builtin, &echo, &hash, &size];
        let (summary, counts) = measure(|| summarize("X", &log, &resolved));
        assert_eq!(summary.distinct_hosts, 16);
        let (evals, eval_counts) = measure(|| filters.map(|f| evaluate(f, &resolved)));
        assert!(
            evals.iter().all(|e| e.tp + e.fn_ + e.fp + e.tn > 0),
            "every filter judged rows"
        );
        assert!(evals[0].tp + evals[0].fp > 0, "the built-in blocks some");
        assert!(
            evals[1].tp + evals[1].fp > 0,
            "the echo heuristic blocks some"
        );
        for (what, c) in [("summarize", counts), ("evaluate", eval_counts)] {
            assert!(
                c.allocs < 64 && c.bytes < 8192,
                "{what} over {n} rows: {} bytes in {} allocations",
                c.bytes,
                c.allocs
            );
        }
        at.push((counts.allocs, eval_counts.allocs));
    }
    assert_eq!(at[0], at[1], "nothing grows with the row count");
}
