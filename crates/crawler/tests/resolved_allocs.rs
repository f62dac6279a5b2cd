//! `CrawlLog::resolved` joins every logged response (1.78 M of them on a
//! month of OpenFT) with its verdict. It must make one buffer for the
//! output and nothing per record: beside the buffer, only the family names
//! (each a counted handle plus its bytes), the table that dedups them and
//! the one lookup key it refills. Logging itself shares each responder:
//! a `HostTable` makes one allocation per distinct host, not one per
//! response. A counting allocator sees every allocation; its counters are
//! per thread, so concurrent tests do not disturb each other.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::measure_sized;
use p2pmal_crawler::{CrawlLog, Host, HostKey, HostTable, ResponseRecord, ScanOutcome, TextTable};
use p2pmal_netsim::SimTime;
use std::net::Ipv4Addr;

/// What `f` allocated on this thread: buffers of exactly `buffer` bytes,
/// then the count and bytes of every other allocation.
fn allocations_of<R>(buffer: usize, f: impl FnOnce() -> R) -> (R, usize, usize, usize) {
    let (r, c) = measure_sized(buffer..=buffer, f);
    (r, c.sized, c.allocs - c.sized, c.bytes - c.sized * buffer)
}

/// `n` responses over 64 names and 8 hosts, their texts and hosts shared
/// through one table each as the crawler's are. Every name is scanned: the first
/// `families` names carry one family each, the rest are clean, so the
/// join resolves most rows by name+size and the rest by host+size.
fn log_of(n: usize, families: usize) -> CrawlLog {
    let mut log = CrawlLog::new();
    let mut texts = TextTable::default();
    let mut hosts = HostTable::default();
    for i in 0..n {
        let name = format!("file_{:02}.exe", i % 64);
        let host = hosts.intern(HostKey::Addr(Ipv4Addr::new(10, 0, 0, (i % 8) as u8), 1215));
        let at = SimTime::from_secs(i as u64 * 60);
        let record = ResponseRecord {
            at,
            day: at.day() as u32,
            query: texts.intern(&format!("query {}", i % 16)),
            // Every seventh row is another spelling: only its host+size
            // key can resolve it.
            filename: texts.intern(if i % 7 == 0 { "echo.exe" } else { &name }),
            size: 1000 + (i % 64) as u32,
            source_ip: Ipv4Addr::new(10, 0, 0, (i % 8) as u8),
            source_port: 1215,
            needs_push: false,
            host,
            downloadable: true,
        };
        if i < 64 {
            let detections = if i < families {
                vec![format!("W32.Family{i}")]
            } else {
                vec![]
            };
            let sha1 = p2pmal_hashes::sha1(name.as_bytes());
            let len = u64::from(record.size);
            log.record_outcome(
                &record,
                ScanOutcome::Scanned {
                    sha1,
                    len,
                    detections,
                },
            );
        }
        log.responses.push(record);
    }
    log
}

/// Rows are 80 bytes on a 64-bit target (`record_layout_stays_small`).
#[cfg(target_pointer_width = "64")]
#[test]
fn resolved_makes_one_buffer_and_nothing_per_record() {
    let families = 6;
    // The family names' handles and bytes; two each for the dedup table
    // (six entries) and the lookup key ("echo.exe", then a longer name).
    let beside = 2 * families + 4;
    let mut others_at = Vec::new();
    for n in [1_000, 8_000] {
        let log = log_of(n, families);
        let buffer = n * 80;
        let (resolved, buffers, others, other_bytes) = allocations_of(buffer, || log.resolved());
        assert_eq!(resolved.len(), n);
        assert_eq!(buffers, 1, "{n} records: one {buffer}-byte output buffer");
        assert!(
            others <= beside,
            "{n} records: {others} allocations beside the buffer, at most {beside}"
        );
        assert!(
            other_bytes < 1024,
            "{n} records: {other_bytes} bytes beside the buffer"
        );
        let malicious = resolved.iter().filter(|r| r.malware.is_some()).count();
        assert!(malicious > 0 && malicious < n, "both verdicts are joined");
        others_at.push(others);
    }
    assert_eq!(
        others_at[0], others_at[1],
        "nothing grows with the record count"
    );
}

#[test]
fn interning_makes_one_allocation_per_responder() {
    // A host's shared allocation: two counts beside the key.
    let host_alloc = std::mem::size_of::<(usize, usize, HostKey)>();
    let responders = 12;
    let key = |i: usize| match i % responders {
        h if h % 2 == 0 => HostKey::Guid([h as u8; 16]),
        h => HostKey::Addr(Ipv4Addr::new(10, 0, 0, h as u8), 6346),
    };
    for n in [1_000, 8_000] {
        let (hosts, allocs, _, _) = allocations_of(host_alloc, || {
            let mut table = HostTable::default();
            (0..n).map(|i| table.intern(key(i))).collect::<Vec<Host>>()
        });
        assert_eq!(
            allocs, responders,
            "{n} responses from {responders} responders"
        );
        for (i, h) in hosts.iter().enumerate() {
            assert_eq!(**h, key(i));
            let first = &hosts[i % responders];
            assert!(std::ptr::eq(&**h, &**first), "row {i} shares its host");
        }
    }
}
