//! The mega-scale population tier: a single Gnutella world of 50k–1M
//! servents, built for memory/setup-throughput measurement rather than
//! paper-number calibration.
//!
//! It is wired by the same population builder as
//! [`crate::LimewireScenario`]: the same ultrapeer backbone with leaf slots
//! covering the leaves, leaf servents, durable crawler and collection.
//! What differs is who joins:
//!
//! * **the bootstrap window.** Each ultrapeer bootstraps off the previous
//!   `bootstrap_fanout` ultrapeers, and the leaves take turns over groups
//!   of `bootstrap_fanout` consecutive ultrapeers. LimeWire's window is the
//!   whole backbone, so there every node sees every earlier ultrapeer and
//!   there is one group;
//! * **strided infections.** A `nodes` count (`P2PMAL_MEGA_NODES` in
//!   `run_mega`) sizes the backbone and leaves. The echo worm (family 0)
//!   sits on leaves at an even stride, `echo_hosts_per_10k` per 10k
//!   leaves, and the trojan (family 3) on a second stride, instead of
//!   LimeWire's per-family host counts with chosen NAT hosts. Every leaf
//!   whose index ends in 0–2 sits behind NAT;
//! * **sampled ambient queries.** Only every `ambient_every`-th leaf runs
//!   hourly queries. At a million nodes an every-leaf workload would
//!   measure the query flood, not the per-node state this tier exists to
//!   size.
//!
//! The run still carries the full instrumented crawler (queries, downloads,
//! scan pipeline), so a "bounded study run" at 250k+ nodes exercises every
//! layer the paper-scale study does.

use crate::population::{clean_library, Population};
use p2pmal_corpus::catalog::CatalogConfig;
use p2pmal_corpus::{FamilyId, Roster};
use p2pmal_crawler::{CrawlLog, CrawlerConfig, WorkloadConfig};
use p2pmal_gnutella::servent::{Servent, ServentConfig};
use p2pmal_netsim::{
    MemoryStats, SchedulerKind, SimConfig, SimDuration, SimMetrics, TelemetryConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for one mega-tier world.
#[derive(Debug, Clone)]
pub struct MegaScenario {
    pub seed: u64,
    /// Total servents (ultrapeers + leaves + the crawler).
    pub nodes: usize,
    /// Simulated days (bounded: the tier measures state, not longitudes).
    pub days: u64,
    /// Leaves per ultrapeer (sets the backbone size).
    pub leaves_per_up: usize,
    /// Ultrapeer addresses per bootstrap list (backbone window size and
    /// leaf bootstrap-group size).
    pub bootstrap_fanout: usize,
    /// Benign files shared per leaf.
    pub files_per_leaf: usize,
    /// Query-echo infected hosts per 10k leaves (family 0).
    pub echo_hosts_per_10k: usize,
    /// Static-naming trojan hosts per 10k leaves (family 3).
    pub trojan_hosts_per_10k: usize,
    /// Every Nth leaf runs ambient hourly queries (0 = silent population).
    pub ambient_every: usize,
    pub catalog: CatalogConfig,
    pub workload: WorkloadConfig,
    /// Selects nothing (see [`crate::LimewireScenario::scheduler`]).
    pub scheduler: SchedulerKind,
    /// Telemetry sinks and trace level (off; `run_mega` sets them).
    pub telemetry: TelemetryConfig,
    /// Simulation shards (one; `run_mega` sets `P2PMAL_SHARDS`).
    pub shards: usize,
    /// Latency floor / lookahead window (1 s; `run_mega` sets
    /// `P2PMAL_SHARD_WINDOW_MS`).
    pub shard_window_us: u64,
}

/// The result of one mega-tier run.
pub struct MegaRun {
    pub nodes: usize,
    pub ups: usize,
    pub leaves: usize,
    pub days: u64,
    /// Wall clock spent building the population (spawn + libraries).
    pub setup_wall: std::time::Duration,
    /// Wall clock spent in the simulation loop.
    pub wall: std::time::Duration,
    /// Memory snapshot right after setup, before any event ran.
    pub setup_memory: MemoryStats,
    /// Final metrics; `sim_metrics.memory` is the steady-state snapshot.
    pub sim_metrics: SimMetrics,
    pub log: CrawlLog,
    pub shards: usize,
    pub shard_window_us: u64,
}

impl MegaScenario {
    /// Defaults for a `nodes`-servent world; see field docs for the knobs.
    pub fn new(seed: u64, nodes: usize) -> Self {
        MegaScenario {
            seed,
            nodes,
            days: 2,
            leaves_per_up: 25,
            bootstrap_fanout: 8,
            files_per_leaf: 4,
            echo_hosts_per_10k: 20,
            trojan_hosts_per_10k: 5,
            ambient_every: 100,
            catalog: CatalogConfig {
                titles: 2500,
                ..Default::default()
            },
            workload: WorkloadConfig {
                base_interval_secs: 60,
                ..Default::default()
            },
            scheduler: SchedulerKind::Calendar,
            telemetry: TelemetryConfig::off(),
            shards: 1,
            shard_window_us: 1_000_000,
        }
    }

    /// Builds the population, runs the bounded collection, returns the
    /// measurement. `progress(day)` fires after each simulated day.
    pub fn run_with_progress(&self, progress: impl FnMut(u64)) -> MegaRun {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x11FE);
        let mut pop = Population::new(
            self.seed,
            &self.catalog,
            Roster::limewire_2006(),
            SimConfig {
                shards: self.shards,
                shard_window_us: self.shard_window_us,
                ..SimConfig::default()
            },
            &self.telemetry,
            "mega",
        );

        let setup_t0 = std::time::Instant::now();
        let ups = (self.nodes / (self.leaves_per_up + 1)).max(1);
        let leaves = self.nodes.saturating_sub(ups + 1);
        pop.ultrapeers(ups, self.bootstrap_fanout, leaves);

        let echo_total = leaves * self.echo_hosts_per_10k / 10_000;
        let trojan_total = leaves * self.trojan_hosts_per_10k / 10_000;
        let echo_stride = leaves.checked_div(echo_total).unwrap_or(0);
        let trojan_stride = leaves.checked_div(trojan_total).unwrap_or(0);

        for i in 0..leaves {
            let mut lib = clean_library(&pop.world, self.files_per_leaf, &mut rng);
            let world = &pop.world;
            if echo_stride > 0 && i % echo_stride == 0 {
                lib.infect(world.roster.get(FamilyId(0)), &world.catalog, &mut rng);
            } else if trojan_stride > 0 && i % trojan_stride == 1 {
                lib.infect(world.roster.get(FamilyId(3)), &world.catalog, &mut rng);
            }
            let ambient = (self.ambient_every > 0 && i % self.ambient_every == 0)
                .then(|| SimDuration::from_hours(1));
            pop.gnutella_leaf(lib, i % 10 < 3, ambient);
        }

        let node = ServentConfig::leaf().with_bootstrap(pop.bootstrap(0));
        let config = CrawlerConfig {
            workload: self.workload.clone(),
            ..Default::default()
        };
        let crawler = pop.crawler::<Servent>(6346, node, config);
        let setup_wall = setup_t0.elapsed();
        pop.sim.record_memory();
        let setup_memory = pop.sim.metrics().memory;

        let crawl = pop.crawl::<Servent>(crawler, "mega", self.days, progress);
        MegaRun {
            nodes: self.nodes,
            ups,
            leaves,
            days: self.days,
            setup_wall,
            wall: crawl.wall,
            setup_memory,
            sim_metrics: crawl.sim_metrics,
            log: crawl.log,
            shards: crawl.shards,
            shard_window_us: crawl.shard_window_us,
        }
    }

    pub fn run(&self) -> MegaRun {
        self.run_with_progress(|_| {})
    }
}
