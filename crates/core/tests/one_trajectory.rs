//! The golden guard: one engine, one trajectory per seed.
//!
//! The seed-2006 quick studies must reproduce the digests below bit for
//! bit, in every process and at every shard count — one lane on the calling
//! thread or eight on worker threads. Any extra RNG draw, reordered event
//! or changed retry path moves them. `SimMetrics` must agree across shard
//! counts too, except the buffer-pool counters (each shard owns a private
//! pool, so hit/miss/recycle totals depend on how nodes partition), and so
//! must the journal, byte for byte. Beside each digest sits a pin of the
//! counts the digest does not cover.

use std::fmt::Write as _;

use std::sync::Arc;

use p2pmal_core::{LimewireScenario, MegaScenario, NetworkRun, OpenFtScenario};
use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, FamilyId, Roster};
use p2pmal_crawler::{Network, RetryPolicy, WorkloadConfig};
use p2pmal_gnutella::servent::SharedWorld;
use p2pmal_netsim::{FaultPlan, SimMetrics, Subsystem, TelemetryConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const LIMEWIRE_GOLDEN: &str = "bc030a71f28881906059cd8ff3009bfacf08ccb0";
const OPENFT_GOLDEN: &str = "75720da08ca56056d5febdbf350634b7db3566eb";

/// [`NetworkRun::trajectory_digest_without_sha1`] of the same runs. A
/// change to the payload *bytes* re-records the two goldens above and must
/// leave these two alone: that is the evidence that only the hashed bytes
/// moved.
const LIMEWIRE_GOLDEN_WITHOUT_SHA1: &str = "245c41ef69f2b84da57a12e25128385498400b2f";
const OPENFT_GOLDEN_WITHOUT_SHA1: &str = "960c8f0d748804d4ee189c22dbd0c60ad6321908";

/// [`pinned_counts`] of the same runs.
const LIMEWIRE_COUNTS: &str = concat!(
    "timers_fired=24717 bytes_delivered=133168926 conns_established=155 ",
    "query_match_calls=21517 scan_calls=38 queries_issued=1063 downloads_started=38 ",
    "download_retries=0 scan_verdicts=38 download_latency_us=38/67108863/268825867 ",
    "responses_per_query=1062/15/33 download_attempts=38/1/1 queue_depth=7064/63/127"
);
const OPENFT_COUNTS: &str = concat!(
    "timers_fired=16613 bytes_delivered=125411367 conns_established=84 ",
    "query_match_calls=4116 scan_calls=32 queries_issued=1029 downloads_started=32 ",
    "download_retries=0 scan_verdicts=32 download_latency_us=32/67108863/325109397 ",
    "responses_per_query=1028/3/28 download_attempts=32/1/1 queue_depth=3767/31/63"
);

/// What the digests do not cover: engine counts, query-match and scan
/// calls, the crawl counts, and each sim-time histogram's count, p50 and
/// p99. A change to download timing can move a latency quantile while
/// every logged response stays the same.
fn pinned_counts(run: &NetworkRun) -> String {
    let m = &run.sim_metrics;
    let mut out = format!(
        "timers_fired={} bytes_delivered={} conns_established={} query_match_calls={} scan_calls={}",
        m.timers_fired,
        m.bytes_delivered,
        m.conns_established,
        m.timing.calls(Subsystem::QueryMatch),
        m.timing.calls(Subsystem::Scan)
    );
    for (label, n) in run.crawl_counts() {
        let _ = write!(out, " {label}={n}");
    }
    for (label, h) in m.telemetry.sim_summaries() {
        let _ = write!(out, " {label}={}/{}/{}", h.count, h.p50, h.p99);
    }
    out
}

/// Metrics with the shard-partition-dependent parts masked out.
fn comparable_metrics(run: &NetworkRun) -> SimMetrics {
    let mut m = run.sim_metrics.clone();
    m.pool_hits = 0;
    m.pool_misses = 0;
    m.pool_recycled_bytes = 0;
    m.pool_high_water = 0;
    m
}

fn limewire(shards: usize) -> LimewireScenario {
    let mut scenario = LimewireScenario::quick(2006);
    scenario.shards = shards;
    scenario
}

fn openft(shards: usize) -> OpenFtScenario {
    // Same seed derivation run_study uses for the OpenFT half.
    let mut scenario = OpenFtScenario::quick(2006 ^ 0xF7);
    scenario.shards = shards;
    scenario
}

/// `run(shards)` must give the golden digest and the pinned counts at
/// shards 1, 2, 4 and 8, with identical metrics.
fn assert_one_trajectory(
    golden: &str,
    without_sha1: &str,
    counts: &str,
    run: impl Fn(usize) -> NetworkRun,
) {
    let base = run(1);
    assert_eq!(base.shards, 1);
    assert_eq!(base.trajectory_digest(), golden, "golden moved at shards=1");
    assert_eq!(
        base.trajectory_digest_without_sha1(),
        without_sha1,
        "more than the logged SHA-1s moved"
    );
    assert_eq!(pinned_counts(&base), counts, "pinned counts moved");
    for shards in [2usize, 4, 8] {
        let other = run(shards);
        assert_eq!(other.shards, shards);
        assert_eq!(
            other.trajectory_digest(),
            golden,
            "shards={shards} diverged from the one-lane trajectory"
        );
        assert_eq!(
            comparable_metrics(&other),
            comparable_metrics(&base),
            "shards={shards} changed the SimMetrics"
        );
        assert_eq!(
            pinned_counts(&other),
            counts,
            "shards={shards} moved the pinned counts"
        );
    }
}

#[test]
fn limewire_quick_seed_2006_golden_at_1_2_4_8_shards() {
    assert_one_trajectory(
        LIMEWIRE_GOLDEN,
        LIMEWIRE_GOLDEN_WITHOUT_SHA1,
        LIMEWIRE_COUNTS,
        |shards| limewire(shards).run(),
    );
}

#[test]
fn openft_quick_seed_2006_golden_at_1_2_4_8_shards() {
    assert_one_trajectory(
        OPENFT_GOLDEN,
        OPENFT_GOLDEN_WITHOUT_SHA1,
        OPENFT_COUNTS,
        |shards| openft(shards).run(),
    );
}

/// An *explicit* empty fault plan must be indistinguishable from the
/// default: the fault layer performs zero RNG draws and schedules zero
/// events when every probability is zero.
#[test]
fn explicit_empty_fault_plan_is_the_fault_free_trajectory() {
    let none = (FaultPlan::none(), RetryPolicy::legacy());
    let run = limewire(1).with_faults(none.0, none.1).run();
    assert_eq!(run.trajectory_digest(), LIMEWIRE_GOLDEN);
    let run = openft(1).with_faults(none.0, none.1).run();
    assert_eq!(run.trajectory_digest(), OPENFT_GOLDEN);
}

/// `scenario` run with the journal on, sampled as `sample` says (see
/// [`TelemetryConfig::parse_sample`]); returns the run and the journal
/// bytes. `tag` keeps the journal files of concurrent tests apart.
fn limewire_journaled(
    mut scenario: LimewireScenario,
    tag: &str,
    sample: &str,
) -> (NetworkRun, String) {
    use p2pmal_core::telemetry::journal_path_for;
    let mut base = std::env::temp_dir();
    base.push(format!(
        "p2pmal-one-trajectory-{}-{tag}-s{}.jsonl",
        std::process::id(),
        scenario.shards
    ));
    scenario.telemetry = TelemetryConfig {
        journal: Some(base.clone()),
        sample: TelemetryConfig::parse_sample(sample).expect("a valid sample spec"),
        ..TelemetryConfig::off()
    };
    let run = scenario.run();
    let path = journal_path_for(&base, "limewire");
    let text = std::fs::read_to_string(&path).expect("journal file written");
    let _ = std::fs::remove_file(&path);
    (run, text)
}

/// Every lane buffers its telemetry and the window boundary replays it in
/// one canonical order, so one lane and four must write byte-identical,
/// span-complete journals and reconstruct identical propagation trees.
#[test]
fn journals_and_propagation_trees_match_at_1_and_4_shards() {
    let (run1, journal1) = limewire_journaled(limewire(1), "full", "");
    let (run4, journal4) = limewire_journaled(limewire(4), "full", "");
    assert!(!journal1.is_empty());
    assert!(
        journal1 == journal4,
        "shards=1 and shards=4 must write byte-identical journals"
    );
    assert_eq!(run1.trajectory_digest(), LIMEWIRE_GOLDEN);
    assert_eq!(run4.trajectory_digest(), LIMEWIRE_GOLDEN);

    // Reconstruct both forests independently and compare the full report:
    // identical trees, identical chain/latency/hop analyses.
    let ev1 = p2pmal_obs::parse_journal(&journal1).expect("journal parses");
    let ev4 = p2pmal_obs::parse_journal(&journal4).expect("journal parses");
    let a1 = p2pmal_obs::analyze("s", &ev1, 5);
    let a4 = p2pmal_obs::analyze("s", &ev4, 5);
    assert_eq!(
        a1.to_json().to_string_compact(),
        a4.to_json().to_string_compact(),
        "reconstructed propagation trees must be identical"
    );
    let failures = p2pmal_obs::strict_failures(&ev1, &a1);
    assert!(failures.is_empty(), "{failures:?}");
    assert_eq!(a1.complete_chains, a1.spanned_verdicts);
}

/// Sampling counts candidates at the one hub, in the replay's global order,
/// so a sampled journal is byte-identical at one lane and four too, and
/// keeps the first of every N candidates of a sampled category.
#[test]
fn sampled_journals_match_at_1_and_4_shards() {
    let day = |shards| LimewireScenario {
        days: 1,
        ..limewire(shards)
    };
    let lines = |journal: &str, cat: &str| {
        let cat = format!("\"cat\":\"{cat}\"");
        journal.lines().filter(|l| l.contains(&cat)).count()
    };
    let (_, full) = limewire_journaled(day(1), "unsampled", "");
    let (_, sampled1) = limewire_journaled(day(1), "sampled", "query=3,download=2");
    let (_, sampled4) = limewire_journaled(day(4), "sampled", "query=3,download=2");
    assert!(
        sampled1 == sampled4,
        "shards=1 and shards=4 must write byte-identical sampled journals"
    );
    for (cat, n) in [("query", 3), ("download", 2), ("scan", 1)] {
        assert!(lines(&full, cat) > n, "{cat}: too few events to sample");
        assert_eq!(
            lines(&sampled1, cat),
            lines(&full, cat).div_ceil(n),
            "{cat}"
        );
    }
}

/// [`NetworkRun::trajectory_digest`] of the small mega world below, lifted
/// into a [`NetworkRun`] the way the benchmark's `mega_shards2` lifts it.
const MEGA_GOLDEN: &str = "fa7febf04af6d087e6ebcf930adffa71021e509a";
/// Its engine counts, the setup / steady `app_bytes` and its scan calls.
const MEGA_COUNTS: &str = concat!(
    "events_processed=128142 timers_fired=34952 bytes_delivered=51181720 ",
    "setup_app_bytes=122962 steady_app_bytes=600946 scan_calls=18"
);

/// 120 servents for one day: 12 ultrapeers in three bootstrap groups of
/// four, five echo-worm and three trojan hosts among the 107 leaves.
fn mega(shards: usize) -> MegaScenario {
    MegaScenario {
        days: 1,
        leaves_per_up: 9,
        bootstrap_fanout: 4,
        echo_hosts_per_10k: 500,
        trojan_hosts_per_10k: 300,
        ambient_every: 10,
        catalog: CatalogConfig {
            titles: 400,
            ..Default::default()
        },
        workload: WorkloadConfig {
            base_interval_secs: 600,
            ..Default::default()
        },
        telemetry: TelemetryConfig::off(),
        shards,
        ..MegaScenario::new(2006, 120)
    }
}

/// Runs [`mega`] at `shards`; returns its digest and [`MEGA_COUNTS`]' line.
fn mega_digest_and_counts(shards: usize) -> (String, String) {
    let s = mega(shards);
    let m = s.run();
    assert_eq!(m.shards, shards);
    assert_eq!((m.ups, m.leaves), (12, 107));
    let counts = format!(
        "events_processed={} timers_fired={} bytes_delivered={} setup_app_bytes={} steady_app_bytes={} scan_calls={}",
        m.sim_metrics.events_processed,
        m.sim_metrics.timers_fired,
        m.sim_metrics.bytes_delivered,
        m.setup_memory.app_bytes,
        m.sim_metrics.memory.app_bytes,
        m.sim_metrics.timing.calls(Subsystem::Scan),
    );
    // The world as the benchmark rebuilds it from the seed.
    let mut rng = StdRng::seed_from_u64(s.seed ^ 0x0CA7_A106);
    let world = SharedWorld::new(
        Arc::new(Catalog::generate(&s.catalog, &mut rng)),
        Arc::new(Roster::limewire_2006()),
        Arc::new(ContentStore::new(s.seed)),
    );
    // Both planted families answer the crawler, and their bodies scan as
    // what they are.
    let resolved = m.log.resolved();
    for family in [0, 3] {
        let name = &world.roster.get(FamilyId(family)).name;
        assert!(
            resolved
                .iter()
                .any(|r| r.malware.as_deref() == Some(name.as_str())),
            "no {name} verdict at shards={shards}"
        );
    }
    let run = NetworkRun {
        network: Network::Limewire,
        resolved,
        log: m.log,
        world,
        sim_metrics: m.sim_metrics,
        wall: m.wall,
        shards: m.shards,
        shard_window_us: m.shard_window_us,
    };
    (run.trajectory_digest(), counts)
}

#[test]
fn mega_small_world_golden_at_1_and_2_shards() {
    for shards in [1usize, 2] {
        let (digest, counts) = mega_digest_and_counts(shards);
        assert_eq!(digest, MEGA_GOLDEN, "mega golden moved at shards={shards}");
        assert_eq!(counts, MEGA_COUNTS, "mega counts moved at shards={shards}");
    }
}
