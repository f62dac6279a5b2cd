//! The one population builder behind every preset: the three presets only
//! choose who joins, and the wiring they share lives here. LimeWire is the
//! mega wiring with a bootstrap window of every ultrapeer, which makes one
//! bootstrap group of the whole backbone; OpenFT's SEARCH nodes use the
//! same backbone.

use crate::scenario::NetworkRun;
use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, HostLibrary, Roster};
use p2pmal_crawler::{CrawlLog, Crawler, CrawlerConfig, Network, Overlay, ScanStats};
use p2pmal_gnutella::servent::{Servent, ServentConfig, SharedWorld};
use p2pmal_netsim::{
    process_rss_kb, App, HostAddr, NodeId, NodeSpec, SimConfig, SimDuration, SimMetrics, SimTime,
    Simulator, TelemetryConfig,
};
use p2pmal_scanner::Scanner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// A population under construction.
pub(crate) struct Population {
    pub world: SharedWorld,
    pub sim: Simulator,
    scanner: Arc<Scanner>,
    /// `P2PMAL_TRACE` level: ≥ 1 prints a [`trace_day`] line per day.
    trace: u8,
    /// Leaf bootstrap groups, set by [`Self::backbone`].
    groups: Vec<Arc<[HostAddr]>>,
    /// Gnutella leaves spawned so far.
    leaves: usize,
}

impl Population {
    /// The world (catalog drawn from `seed ^ 0x0CA7_A106`), its scanner, and
    /// a simulator whose telemetry hub writes under `label`.
    pub(crate) fn new(
        seed: u64,
        catalog: &CatalogConfig,
        roster: Roster,
        engine: SimConfig,
        telemetry: &TelemetryConfig,
        label: &str,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0CA7_A106);
        let world = SharedWorld::new(
            Arc::new(Catalog::generate(catalog, &mut rng)),
            Arc::new(roster),
            Arc::new(ContentStore::new(seed)),
        );
        let scanner = Arc::new(Scanner::new(
            world
                .roster
                .signature_db()
                .expect("roster db")
                .build()
                .expect("db compiles"),
        ));
        let mut sim = Simulator::new(engine, seed);
        sim.set_telemetry(telemetry.build(label));
        Population {
            world,
            sim,
            scanner,
            trace: telemetry.trace,
            groups: Vec::new(),
            leaves: 0,
        }
    }

    /// Spawns `n` public backbone nodes from `node(bootstrap)`, listening on
    /// `port`: node *i* bootstraps off the previous `window` backbone
    /// addresses. Then cuts the backbone into leaf bootstrap groups of
    /// `window` consecutive addresses, each shared by every leaf in it, so
    /// setup is O(nodes), not O(backbone × leaves). The final group is
    /// pulled back so it keeps full width when `window` does not divide `n`.
    pub(crate) fn backbone(
        &mut self,
        n: usize,
        window: usize,
        port: u16,
        node: impl Fn(&[HostAddr]) -> Box<dyn App>,
    ) {
        let window = window.max(1);
        let mut addrs: Vec<HostAddr> = Vec::with_capacity(n);
        for i in 0..n {
            let app = node(&addrs[i.saturating_sub(window)..i]);
            let id = self.sim.spawn(NodeSpec::public().listen(port), app);
            addrs.push(self.sim.node_addr(id));
        }
        self.groups = (0..n.div_ceil(window).max(1))
            .map(|g| {
                let start = (g * window).min(n.saturating_sub(window));
                addrs[start..(start + window).min(n)].into()
            })
            .collect();
    }

    /// A Gnutella ultrapeer backbone (see [`Self::backbone`]) for `leaves`
    /// leaves. Leaf slots must cover the population (every leaf holds
    /// `target_degree` ultrapeer connections) or the overflow would churn
    /// through rejection/retry forever. Saturating, so a host with a narrow
    /// `usize` degrades to "plenty" instead of wrapping.
    pub(crate) fn ultrapeers(&mut self, ups: usize, window: usize, leaves: usize) {
        let slots_needed = leaves.saturating_mul(ServentConfig::leaf().target_degree);
        let slots_per_up = (slots_needed.saturating_mul(13) / 10 / ups.max(1)).max(30);
        let world = self.world.clone();
        self.backbone(ups, window, 6346, |boot| {
            let mut cfg = ServentConfig::ultrapeer().with_bootstrap(boot);
            cfg.max_leaf_slots = slots_per_up;
            Box::new(Servent::new(cfg, world.clone(), HostLibrary::new()))
        });
    }

    /// Bootstrap group `i`, counted round the groups.
    pub(crate) fn bootstrap(&self, i: usize) -> Arc<[HostAddr]> {
        self.groups[i % self.groups.len()].clone()
    }

    /// Spawns the next Gnutella leaf, sharing `lib`, behind NAT or
    /// listening, querying every `ambient` when set. Leaves take the
    /// bootstrap groups in turn.
    pub(crate) fn gnutella_leaf(
        &mut self,
        lib: HostLibrary,
        nat: bool,
        ambient: Option<SimDuration>,
    ) {
        let mut cfg = ServentConfig::leaf().with_bootstrap(self.bootstrap(self.leaves));
        self.leaves += 1;
        cfg.auto_query = ambient;
        let spec = if nat {
            NodeSpec::nat()
        } else {
            NodeSpec::public().listen(6346)
        };
        let servent = Servent::new(cfg, self.world.clone(), lib);
        self.sim.spawn(spec, Box::new(servent));
    }

    /// The instrumented client, listening on `port`. Durable: the
    /// measurement host never churns, only the network around it does.
    pub(crate) fn crawler<O: Overlay>(
        &mut self,
        port: u16,
        node: O::Config,
        config: CrawlerConfig,
    ) -> NodeId {
        let crawler = Crawler::<O>::new(node, self.world.clone(), self.scanner.clone(), config);
        self.sim
            .spawn(NodeSpec::public().listen(port).durable(), Box::new(crawler))
    }

    /// The collection itself, the same for every preset: run `days`
    /// simulated days with the crawler `Crawler<O>` at `crawler`, then take
    /// its log out. Trace lines carry the `net` label; `progress(day)` fires
    /// after each day.
    pub(crate) fn crawl<O: Overlay>(
        mut self,
        crawler: NodeId,
        net: &str,
        days: u64,
        mut progress: impl FnMut(u64),
    ) -> Crawl {
        let sim = &mut self.sim;
        let mut last_events = 0u64;
        let mut wall = std::time::Duration::ZERO;
        for day in 1..=days {
            let t0 = std::time::Instant::now();
            sim.run_until(SimTime::from_days(day));
            let day_wall = t0.elapsed();
            wall += day_wall;
            // Unconditional: every run samples queue depth identically, so
            // the registry stays deterministic whatever the trace level.
            sim.sample_queue_depth();
            let ev = sim.metrics().events_processed;
            if self.trace >= 1 {
                let counts = with_crawler::<O, _>(sim, crawler, |c| {
                    let log = c.log();
                    let retries = (log.retries_scheduled, log.retry_successes);
                    (log.scan, retries, log.failures.total())
                });
                let wall_secs = day_wall.as_secs_f64();
                trace_day(net, day, ev, ev - last_events, wall_secs, sim, counts);
            }
            last_events = ev;
            progress(day);
        }
        sim.flush_telemetry();
        sim.record_memory();
        Crawl {
            log: with_crawler::<O, _>(sim, crawler, Crawler::take_log),
            wall,
            sim_metrics: sim.metrics().clone(),
            shards: sim.shard_count(),
            shard_window_us: sim.shard_window_us(),
            world: self.world,
        }
    }
}

/// What a finished collection leaves.
pub(crate) struct Crawl {
    pub log: CrawlLog,
    /// Wall clock the day loop took (population setup excluded).
    pub wall: std::time::Duration,
    /// Final metrics; `memory` is the steady-state snapshot.
    pub sim_metrics: SimMetrics,
    pub shards: usize,
    pub shard_window_us: u64,
    pub world: SharedWorld,
}

impl Crawl {
    /// The run the study reports, its log resolved. The day loop read the
    /// process's peak resident set before the resolved copy existed; it is
    /// read again once the copy is made, so the run's peak includes it.
    pub(crate) fn into_network_run(mut self, network: Network) -> NetworkRun {
        let resolved = self.log.resolved();
        self.sim_metrics.memory.peak_rss_kb = process_rss_kb().0;
        NetworkRun {
            network,
            resolved,
            log: self.log,
            world: self.world,
            sim_metrics: self.sim_metrics,
            wall: self.wall,
            shards: self.shards,
            shard_window_us: self.shard_window_us,
        }
    }
}

/// A clean host's library: `files` popularity-sampled titles, one random
/// variant each.
pub(crate) fn clean_library(world: &SharedWorld, files: usize, rng: &mut StdRng) -> HostLibrary {
    let mut lib = HostLibrary::with_capacity(files);
    let mut seen = HashSet::new();
    let mut attempts = 0;
    while lib.len() < files && attempts < files * 10 {
        attempts += 1;
        let item = world.catalog.sample(rng);
        if seen.insert(item.id) {
            let variant = rng.gen_range(0..item.variants.len());
            lib.add_benign(item, variant);
        }
    }
    lib
}

/// Runs `f` on the crawler spawned as `node` (durable, so always alive).
fn with_crawler<O: Overlay, R>(
    sim: &mut Simulator,
    node: NodeId,
    f: impl FnOnce(&mut Crawler<O>) -> R,
) -> R {
    sim.with_node(node, |app, _| {
        f(app
            .as_any_mut()
            .expect("crawler downcasts")
            .downcast_mut::<Crawler<O>>()
            .expect("crawler node"))
    })
    .expect("crawler alive")
}

/// `P2PMAL_TRACE=1`: per-day progress line with scheduler and buffer-pool
/// health (queue depth + peak, pool hit rate, bytes recycled), plus the
/// scan-pipeline counters (bodies, distinct payloads, bytes hashed) and the
/// retry/failure tallies from the crawl log (`log`: its scan counters,
/// retries scheduled and recovered, and terminal failures).
///
/// Accepted `P2PMAL_TRACE` values (parsed by
/// `p2pmal_netsim::telemetry::parse_trace_level`): unset, empty, `0`,
/// `off`, `false`, `no` → off; `2` → per-day lines *plus* per-event
/// records on stderr; anything else (the historical `1`) → per-day lines.
fn trace_day(
    net: &str,
    day: u64,
    events: u64,
    delta: u64,
    wall_secs: f64,
    sim: &Simulator,
    log: (ScanStats, (u64, u64), u64),
) {
    let m = sim.metrics();
    let (s, (retries, recovered), failures) = log;
    let scan_part = format!(
        ", scan {} bodies / {} distinct / {} KiB hashed",
        s.bodies,
        s.distinct_payloads,
        s.bytes_hashed / 1024,
    );
    let fault_events = m.faults_chunks_dropped
        + m.faults_chunks_corrupted
        + m.faults_resets
        + m.faults_latency_spikes
        + m.faults_churn_downs;
    let fault_part = if fault_events > 0 {
        format!(
            ", faults {} drop / {} corrupt / {} reset / {} spike / {} down / {} up",
            m.faults_chunks_dropped,
            m.faults_chunks_corrupted,
            m.faults_resets,
            m.faults_latency_spikes,
            m.faults_churn_downs,
            m.faults_churn_ups,
        )
    } else {
        String::new()
    };
    let resilience_part = if retries + failures > 0 {
        format!(
            ", retries {retries} scheduled / {recovered} recovered / {failures} terminal failures"
        )
    } else {
        String::new()
    };
    let timing_part = if m.timing.is_empty() {
        String::new()
    } else {
        format!(", timing {}", m.timing.render_compact())
    };
    eprintln!(
        "[trace] {net} day {day}: {events} events (+{delta}), {wall_secs:.1}s wall, \
         queue {} pending (peak {}), pool {} hits / {} misses / {} KiB recycled (free peak {}){scan_part}{fault_part}{resilience_part}{timing_part}",
        sim.pending_events(),
        m.queue_high_water,
        m.pool_hits,
        m.pool_misses,
        m.pool_recycled_bytes / 1024,
        m.pool_high_water,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    struct Idle;
    impl App for Idle {}

    /// Spawns an `n`-node backbone with `window`; returns each node's
    /// bootstrap list and the groups, as indexes into the backbone.
    fn wiring(n: usize, window: usize) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let catalog = CatalogConfig {
            titles: 10,
            ..Default::default()
        };
        let engine = SimConfig::default();
        let mut pop = Population::new(
            7,
            &catalog,
            Roster::limewire_2006(),
            engine,
            &TelemetryConfig::off(),
            "t",
        );
        let boots = RefCell::new(Vec::new());
        pop.backbone(n, window, 6346, |boot| {
            boots.borrow_mut().push(boot.to_vec());
            Box::new(Idle)
        });
        let addrs: Vec<HostAddr> = (0..n).map(|i| pop.sim.node_addr(NodeId(i))).collect();
        let index = |list: &[HostAddr]| -> Vec<usize> {
            list.iter()
                .map(|a| addrs.iter().position(|b| b == a).unwrap())
                .collect()
        };
        let boots = boots.into_inner().iter().map(|b| index(b)).collect();
        let groups = pop.groups.iter().map(|g| index(g)).collect();
        (boots, groups)
    }

    #[test]
    fn a_window_bounds_each_bootstrap_list_and_cuts_full_width_groups() {
        let (boots, groups) = wiring(10, 4);
        assert_eq!(boots[0], Vec::<usize>::new());
        assert_eq!(boots[3], vec![0, 1, 2]);
        assert_eq!(boots[9], vec![5, 6, 7, 8]);
        // The last group is pulled back to keep four addresses.
        assert_eq!(
            groups,
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![6, 7, 8, 9]]
        );
    }

    #[test]
    fn a_window_of_the_whole_backbone_is_one_group_and_every_earlier_node() {
        let (boots, groups) = wiring(5, 5);
        for (i, boot) in boots.iter().enumerate() {
            assert_eq!(*boot, (0..i).collect::<Vec<_>>());
        }
        assert_eq!(groups, vec![(0..5).collect::<Vec<_>>()]);
        // No backbone: one empty group, so leaves still have one to take.
        assert_eq!(wiring(0, 0).1, vec![Vec::<usize>::new()]);
    }
}
