//! The verdict cache must be observationally pure: a run with the cache on
//! produces the same crawl log — every response, every scan outcome, every
//! counter — as a run with the cache disabled. Only wall time (and the scan
//! pipeline's own stats) may differ.

use p2pmal_core::{LimewireScenario, OpenFtScenario};
use p2pmal_crawler::CrawlLog;

fn assert_logs_identical(cached: &CrawlLog, uncached: &CrawlLog, net: &str) {
    assert_eq!(cached.responses, uncached.responses, "{net} responses");
    assert_eq!(
        cached.by_name_size, uncached.by_name_size,
        "{net} name+size outcomes"
    );
    assert_eq!(
        cached.by_host_size, uncached.by_host_size,
        "{net} host+size outcomes"
    );
    assert_eq!(
        cached.queries_issued, uncached.queries_issued,
        "{net} queries"
    );
    assert_eq!(
        cached.downloads_attempted, uncached.downloads_attempted,
        "{net} attempts"
    );
    assert_eq!(
        cached.downloads_failed, uncached.downloads_failed,
        "{net} failures"
    );
    // Hashing happens either way; the cache only skips scanner work.
    assert_eq!(cached.scan.bodies, uncached.scan.bodies, "{net} bodies");
    assert_eq!(
        cached.scan.bytes_hashed, uncached.scan.bytes_hashed,
        "{net} bytes hashed"
    );
    assert_eq!(
        cached.scan.distinct_payloads, uncached.scan.distinct_payloads,
        "{net} distinct payloads"
    );
}

#[test]
fn limewire_cache_on_and_off_agree_byte_for_byte() {
    let scenario = LimewireScenario::quick(1312);
    let cached = scenario.run();

    let mut no_cache = scenario.clone();
    no_cache.scan_cache_entries = 0;
    let uncached = no_cache.run();

    assert_logs_identical(&cached.log, &uncached.log, "LW");

    // The quick workload re-downloads shared payloads, so the cache must
    // actually fire — otherwise this test proves nothing.
    assert!(
        cached.log.scan.cache_hits > 0,
        "cache never hit: {:?}",
        cached.log.scan
    );
    assert_eq!(uncached.log.scan.cache_hits, 0, "disabled cache hit");
    assert_eq!(uncached.log.scan.cache_misses, 0, "disabled cache missed");
    assert_eq!(
        cached.log.scan.bodies,
        cached.log.scan.cache_hits + cached.log.scan.cache_misses,
        "every body is a hit or a miss"
    );
    // Cached run scans each distinct payload at most once (no evictions at
    // quick scale).
    assert_eq!(cached.log.scan.cache_evictions, 0);
    assert_eq!(
        cached.log.scan.bodies_scanned,
        cached.log.scan.distinct_payloads
    );
}

#[test]
fn openft_cache_on_and_off_agree_byte_for_byte() {
    let scenario = OpenFtScenario::quick(1312);
    let cached = scenario.run();

    let mut no_cache = scenario.clone();
    no_cache.scan_cache_entries = 0;
    let uncached = no_cache.run();

    assert_logs_identical(&cached.log, &uncached.log, "FT");
    assert_eq!(
        cached.log.scan.bodies,
        cached.log.scan.cache_hits + cached.log.scan.cache_misses
    );
}
