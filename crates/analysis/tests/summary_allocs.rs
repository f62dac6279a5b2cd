//! `summarize` counts a run's rows, its distinct hosts and its distinct
//! families. The report calls it three times on every resolved log (1.78 M
//! rows on a month of OpenFT), so what it allocates must follow the hosts
//! and families it finds, never the rows it reads. A counting allocator sees
//! every allocation; its counters are per thread, so concurrent tests do
//! not disturb each other.

use p2pmal_analysis::report::summarize;
use p2pmal_crawler::{CrawlLog, HostKey, ResolvedResponse, ResponseRecord};
use p2pmal_netsim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

struct Counting;

thread_local! {
    /// Allocations (a `realloc` counts as one) and their bytes.
    static ALLOCS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn track(size: usize) {
    let _ = ALLOCS.try_with(|a| {
        let (n, bytes) = a.get();
        a.set((n + 1, bytes + size));
    });
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new);
        if !q.is_null() {
            track(new);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `n` resolved rows from 8 hosts, every third one infected by one of 3
/// families.
fn rows(n: usize) -> Vec<ResolvedResponse> {
    (0..n)
        .map(|i| {
            let at = SimTime::from_secs(i as u64 * 60);
            let malware = (i % 3 == 0).then(|| format!("W32.Family{}", i % 9 / 3).into());
            ResolvedResponse {
                record: ResponseRecord {
                    at,
                    day: at.day() as u32,
                    query: "query".into(),
                    filename: "file.exe".into(),
                    size: 1000,
                    source_ip: Ipv4Addr::new(10, 0, 0, (i % 8) as u8),
                    source_port: 1215,
                    needs_push: false,
                    host: HostKey::Addr(Ipv4Addr::new(10, 0, 0, (i % 8) as u8), 1215).into(),
                    downloadable: true,
                },
                scanned: true,
                malware,
                sha1: None,
            }
        })
        .collect()
}

#[test]
fn summarize_allocates_for_hosts_and_families_not_rows() {
    let log = CrawlLog::new();
    let mut at = Vec::new();
    for n in [1_000, 8_000] {
        let resolved = rows(n);
        ALLOCS.with(|a| a.set((0, 0)));
        let s = summarize("X", &log, &resolved);
        let (allocs, bytes) = ALLOCS.with(Cell::get);
        assert_eq!(
            (s.responses, s.distinct_hosts, s.distinct_malware),
            (n as u64, 8, 3)
        );
        assert!(
            bytes < 2048,
            "{n} rows: {bytes} bytes in {allocs} allocations"
        );
        at.push((allocs, bytes));
    }
    assert_eq!(at[0], at[1], "nothing grows with the row count");
}
