//! Calibrated scenario presets: the populations whose measured behaviour
//! reproduces the paper's numbers.
//!
//! Calibration logic (per-number provenance lives in DESIGN.md §4):
//!
//! * **LimeWire 68% / top-3 = 99% / 28% private.** Malicious downloadable
//!   responses are dominated by query-echo worms, each infected host
//!   answering *every* crawler query. With per-query weighted echo volume
//!   `W = padobot_hosts + 2·alcra_hosts + bagle_hosts` (Alcra answers per
//!   extension), the family shares are `padobot/W`, `2·alcra/W`, `bagle/W`
//!   and the private-source share is the NATed fraction of `W`. The default
//!   spec (11 Padobot / 5 NAT, 3 Alcra, 1 Bagle) gives 61% / 33% / 5.6%
//!   shares, 27.8% private, top-3 ≈ 99% (the static tail barely responds).
//!   The 68% headline then fixes the benign side: clean leaves and their
//!   library sizes are set so benign archive/executable responses run at
//!   roughly half the echo volume.
//! * **OpenFT 3% / top-1 = 67% from one host.** No echo worms; the dominant
//!   family lives on a single always-on superspreader sharing it under many
//!   popular bait titles, with a handful of minor infected users supplying
//!   the remaining third of malicious responses.

use crate::population::{clean_library, Population};
use p2pmal_corpus::catalog::CatalogConfig;
use p2pmal_corpus::{FamilyId, HostLibrary, Roster};
use p2pmal_crawler::{
    CrawlLog, CrawlerConfig, Network, ResolvedResponse, RetryPolicy, WorkloadConfig,
    DEFAULT_SCAN_CACHE_ENTRIES,
};
use p2pmal_gnutella::servent::{Servent, ServentConfig, SharedWorld};
use p2pmal_netsim::{
    FaultPlan, NodeSpec, SchedulerKind, SimConfig, SimDuration, SimMetrics, TelemetryConfig,
};
use p2pmal_openft::node::{FtConfig, FtNode};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How many hosts carry one malware family, and how many of them sit
/// behind NAT (advertising RFC 1918 addresses).
#[derive(Debug, Clone, Copy)]
pub struct InfectionSpec {
    pub family: FamilyId,
    pub hosts: usize,
    pub nat_hosts: usize,
}

impl InfectionSpec {
    pub fn new(family: u16, hosts: usize, nat_hosts: usize) -> Self {
        assert!(nat_hosts <= hosts);
        InfectionSpec {
            family: FamilyId(family),
            hosts,
            nat_hosts,
        }
    }
}

/// Named fault/resilience profile: the netsim [`FaultPlan`] paired with the
/// crawler [`RetryPolicy`] calibrated for it. These are the values behind
/// the `P2PMAL_FAULTS=none|mild|harsh` knob.
pub fn fault_profile(name: &str) -> Option<(FaultPlan, RetryPolicy)> {
    match name {
        "none" => Some((FaultPlan::none(), RetryPolicy::legacy())),
        "mild" => Some((FaultPlan::mild(), RetryPolicy::backoff(3, 30))),
        "harsh" => Some((FaultPlan::harsh(), RetryPolicy::backoff(4, 15))),
        _ => None,
    }
}

/// The result of running one network scenario.
pub struct NetworkRun {
    pub network: Network,
    pub log: CrawlLog,
    pub resolved: Vec<ResolvedResponse>,
    pub world: SharedWorld,
    pub sim_metrics: SimMetrics,
    /// Wall-clock time the simulation loop took (sum over the per-day
    /// `run_until` calls; excludes population setup and log extraction).
    pub wall: std::time::Duration,
    /// Shards the simulator ran with.
    pub shards: usize,
    /// Connection-latency floor / lookahead window (microseconds).
    pub shard_window_us: u64,
}

impl NetworkRun {
    /// Canonical SHA-1 over everything the study reports: every resolved
    /// response (with verdict) plus the log counters. Deliberately excludes
    /// wall time, which is allowed to vary. The golden tests pin it; the
    /// benchmark prints the same digest.
    pub fn trajectory_digest(&self) -> String {
        self.digest(true)
    }

    /// [`Self::trajectory_digest`] with each response's SHA-1 left out:
    /// what a change to the payload *bytes* must leave alone.
    pub fn trajectory_digest_without_sha1(&self) -> String {
        self.digest(false)
    }

    fn digest(&self, with_sha1: bool) -> String {
        use std::fmt::Write;
        let mut h = p2pmal_hashes::Sha1::new();
        let mut line = String::new();
        for r in &self.resolved {
            line.clear();
            let _ = write!(
                line,
                "{}|{}|{}|{}|{}|{}:{}|{}|{:?}|{}|{}",
                r.record.at.as_micros(),
                r.record.day,
                r.record.query,
                r.record.filename,
                r.record.size,
                r.record.source_ip,
                r.record.source_port,
                r.record.needs_push,
                r.record.host,
                r.scanned,
                r.malware.as_deref().unwrap_or("-"),
            );
            if with_sha1 {
                let _ = write!(line, "|{}", r.sha1.map(|d| d.to_hex()).unwrap_or_default());
            }
            line.push('\n');
            h.update(line.as_bytes());
        }
        let counters = format!(
            "queries={} attempted={} failed={} events={}",
            self.log.queries_issued,
            self.log.downloads_attempted,
            self.log.downloads_failed,
            self.sim_metrics.events_processed,
        );
        h.update(counters.as_bytes());
        h.finalize().to_hex()
    }
}

// ---------------------------------------------------------------------------
// LimeWire scenario
// ---------------------------------------------------------------------------

/// Population and workload for the Gnutella/LimeWire measurement.
#[derive(Debug, Clone)]
pub struct LimewireScenario {
    pub seed: u64,
    /// Simulated collection length in days ("over a month of data").
    pub days: u64,
    pub ultrapeers: usize,
    pub clean_leaves: usize,
    /// Fraction of clean leaves behind NAT.
    pub clean_nat_fraction: f64,
    /// Benign files shared per clean leaf.
    pub files_per_leaf: usize,
    /// Per-family infected host counts.
    pub infections: Vec<InfectionSpec>,
    /// Benign files an infected host also shares.
    pub infected_benign_files: usize,
    pub catalog: CatalogConfig,
    pub workload: WorkloadConfig,
    /// Ambient query interval for clean leaves (None = silent population).
    pub ambient_query: Option<SimDuration>,
    /// Selects nothing: the simulator has one scheduler, the calendar
    /// queue. Kept only because `benchmark/src/workloads.rs` sets it; goes
    /// in the next `[benchmark]` PR (ROADMAP item 7).
    pub scheduler: SchedulerKind,
    /// Selects nothing: there is no verdict cache, every body is scanned
    /// once. Kept only because `benchmark/src/workloads.rs` sets it; goes
    /// in the next `[benchmark]` PR (ROADMAP item 7).
    pub scan_cache_entries: usize,
    /// Selects nothing: every download is scanned where it lands. Kept
    /// only because `benchmark/src/workloads.rs` sets it; goes in the next
    /// `[benchmark]` PR (ROADMAP item 7).
    pub scan_threads: usize,
    /// Network fault injection ([`FaultPlan::none()`] by default, which is
    /// byte-identical to a fault-free simulator).
    pub faults: FaultPlan,
    /// Crawler download retry policy ([`RetryPolicy::legacy()`] by
    /// default: the historical one-immediate-fallback behavior).
    pub retry: RetryPolicy,
    /// Telemetry sinks and trace level; the presets leave it off, and
    /// `run_study` sets it from `P2PMAL_JOURNAL` / `P2PMAL_TRACE` /
    /// `P2PMAL_JOURNAL_SAMPLE`. With everything off runs are
    /// byte-identical to a build without the telemetry layer.
    pub telemetry: TelemetryConfig,
    /// Simulation shards (see [`SimConfig::shards`]): a host-resource
    /// knob, every count runs the same trajectory. The presets run one;
    /// `run_study` sets `P2PMAL_SHARDS`.
    pub shards: usize,
    /// Connection-latency floor and lookahead window in microseconds (see
    /// [`SimConfig::shard_window_us`]): 1 s in the presets, which
    /// `run_study` replaces with `P2PMAL_SHARD_WINDOW_MS`. Part of the
    /// model: changing it changes the trajectory.
    pub shard_window_us: u64,
}

impl LimewireScenario {
    /// The paper-scale run behind EXPERIMENTS.md.
    pub fn paper_scale(seed: u64) -> Self {
        LimewireScenario {
            seed,
            days: 35,
            ultrapeers: 12,
            clean_leaves: 280,
            clean_nat_fraction: 0.3,
            files_per_leaf: 34,
            infections: Self::default_infections(),
            infected_benign_files: 5,
            catalog: CatalogConfig {
                titles: 2500,
                ..Default::default()
            },
            workload: WorkloadConfig {
                base_interval_secs: 60,
                ..Default::default()
            },
            ambient_query: Some(SimDuration::from_hours(1)),
            scheduler: SchedulerKind::Calendar,
            scan_cache_entries: DEFAULT_SCAN_CACHE_ENTRIES,
            scan_threads: 1,
            faults: FaultPlan::none(),
            retry: RetryPolicy::legacy(),
            telemetry: TelemetryConfig::off(),
            shards: 1,
            shard_window_us: 1_000_000,
        }
    }

    /// Applies a fault/resilience profile (see [`fault_profile`]).
    pub fn with_faults(mut self, faults: FaultPlan, retry: RetryPolicy) -> Self {
        self.faults = faults;
        self.retry = retry;
        self
    }

    /// A minutes-scale configuration for tests and examples.
    pub fn quick(seed: u64) -> Self {
        LimewireScenario {
            days: 2,
            ultrapeers: 4,
            clean_leaves: 30,
            files_per_leaf: 10,
            catalog: CatalogConfig {
                titles: 400,
                ..Default::default()
            },
            workload: WorkloadConfig {
                base_interval_secs: 120,
                ..Default::default()
            },
            ambient_query: None,
            infections: vec![
                InfectionSpec::new(0, 4, 2),
                InfectionSpec::new(1, 1, 0),
                InfectionSpec::new(2, 1, 0),
            ],
            ..Self::paper_scale(seed)
        }
    }

    /// The calibrated default infection population (see module docs).
    pub fn default_infections() -> Vec<InfectionSpec> {
        vec![
            InfectionSpec::new(0, 11, 5), // W32.Padobot.P2P — echo, exe
            InfectionSpec::new(1, 3, 0),  // W32.Alcra.B — echo, exe+zip
            InfectionSpec::new(2, 1, 0),  // W32.Bagle.DL — verbatim echo
            // Static-naming tail, one host each.
            InfectionSpec::new(3, 1, 0),
            InfectionSpec::new(4, 1, 1),
            InfectionSpec::new(5, 1, 0),
            InfectionSpec::new(6, 1, 0),
            InfectionSpec::new(7, 1, 1),
            InfectionSpec::new(8, 1, 0),
            InfectionSpec::new(9, 1, 0),
        ]
    }

    /// Builds the population, runs the collection, returns the measurement.
    pub fn run(&self) -> NetworkRun {
        self.run_with_progress(|_| {})
    }

    /// Like [`LimewireScenario::run`], reporting each finished simulated
    /// day to `progress`.
    pub fn run_with_progress(&self, progress: impl FnMut(u64)) -> NetworkRun {
        let mut pop = Population::new(
            self.seed,
            &self.catalog,
            Roster::limewire_2006(),
            SimConfig {
                faults: self.faults,
                shards: self.shards,
                shard_window_us: self.shard_window_us,
                ..SimConfig::default()
            },
            &self.telemetry,
            "limewire",
        );
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x11FE);

        // One bootstrap group of every ultrapeer, shared by every leaf and
        // the crawler.
        let infected: usize = self.infections.iter().map(|i| i.hosts).sum();
        let leaves = self.clean_leaves + infected + 1; // the crawler
        pop.ultrapeers(self.ultrapeers, self.ultrapeers, leaves);

        // Clean population.
        for i in 0..self.clean_leaves {
            let lib = clean_library(&pop.world, self.files_per_leaf, &mut rng);
            let nat = (i as f64 + 0.5) / self.clean_leaves as f64 <= self.clean_nat_fraction;
            pop.gnutella_leaf(lib, nat, self.ambient_query);
        }

        // Infected population.
        for spec in &self.infections {
            for h in 0..spec.hosts {
                let mut lib = clean_library(&pop.world, self.infected_benign_files, &mut rng);
                lib.infect(
                    pop.world.roster.get(spec.family),
                    &pop.world.catalog,
                    &mut rng,
                );
                pop.gnutella_leaf(lib, h < spec.nat_hosts, None);
            }
        }

        let config = CrawlerConfig {
            workload: self.workload.clone(),
            retry: self.retry,
            ..Default::default()
        };
        let node = ServentConfig::leaf().with_bootstrap(pop.bootstrap(0));
        let crawler = pop.crawler::<Servent>(6346, node, config);
        pop.crawl::<Servent>(crawler, "LW", self.days, progress)
            .into_network_run(Network::Limewire)
    }
}

// ---------------------------------------------------------------------------
// OpenFT scenario
// ---------------------------------------------------------------------------

/// Population and workload for the giFT/OpenFT measurement.
#[derive(Debug, Clone)]
pub struct OpenFtScenario {
    pub seed: u64,
    pub days: u64,
    pub search_nodes: usize,
    pub clean_users: usize,
    pub files_per_user: usize,
    /// Bait titles the superspreader shares (all one family), sampled
    /// uniformly over the catalog: its share of query mass is
    /// `baits / titles`.
    pub superspreader_baits: usize,
    /// Family served by the superspreader.
    pub superspreader_family: FamilyId,
    /// Minor infected users: (family, hosts, bait titles per host).
    pub minor_infections: Vec<(FamilyId, usize, usize)>,
    pub catalog: CatalogConfig,
    pub workload: WorkloadConfig,
    pub ambient_query: Option<SimDuration>,
    /// Selects nothing (see [`LimewireScenario::scheduler`]).
    pub scheduler: SchedulerKind,
    /// Selects nothing (see [`LimewireScenario::scan_cache_entries`]).
    pub scan_cache_entries: usize,
    /// Selects nothing (see [`LimewireScenario::scan_threads`]).
    pub scan_threads: usize,
    /// Network fault injection ([`FaultPlan::none()`] by default).
    pub faults: FaultPlan,
    /// Crawler download retry policy ([`RetryPolicy::legacy()`] default).
    pub retry: RetryPolicy,
    /// Telemetry sinks and trace level (see
    /// [`LimewireScenario::telemetry`]).
    pub telemetry: TelemetryConfig,
    /// Simulation shards (see [`LimewireScenario::shards`]).
    pub shards: usize,
    /// Latency floor / lookahead window (see
    /// [`LimewireScenario::shard_window_us`]).
    pub shard_window_us: u64,
}

impl OpenFtScenario {
    pub fn paper_scale(seed: u64) -> Self {
        OpenFtScenario {
            seed,
            days: 35,
            search_nodes: 6,
            clean_users: 120,
            files_per_user: 16,
            // Calibration (DESIGN.md §4, T3/T5): spreader mass 90/2500 =
            // 3.6% of queries; minors 7 x 7/2500 = 0.28% each, so the top
            // family/host takes ~67% of malicious responses, top-3 ~76%,
            // and the overall malicious share lands near 3% against the
            // benign downloadable volume.
            superspreader_baits: 90,
            superspreader_family: FamilyId(0),
            minor_infections: vec![
                (FamilyId(1), 1, 7),
                (FamilyId(2), 1, 7),
                (FamilyId(3), 1, 7),
                (FamilyId(4), 1, 7),
                (FamilyId(5), 1, 7),
                (FamilyId(6), 1, 7),
                (FamilyId(7), 1, 7),
            ],
            catalog: CatalogConfig {
                titles: 2500,
                ..Default::default()
            },
            workload: WorkloadConfig {
                base_interval_secs: 60,
                ..Default::default()
            },
            ambient_query: Some(SimDuration::from_hours(1)),
            scheduler: SchedulerKind::Calendar,
            scan_cache_entries: DEFAULT_SCAN_CACHE_ENTRIES,
            scan_threads: 1,
            faults: FaultPlan::none(),
            retry: RetryPolicy::legacy(),
            telemetry: TelemetryConfig::off(),
            shards: 1,
            shard_window_us: 1_000_000,
        }
    }

    /// Applies a fault/resilience profile (see [`fault_profile`]).
    pub fn with_faults(mut self, faults: FaultPlan, retry: RetryPolicy) -> Self {
        self.faults = faults;
        self.retry = retry;
        self
    }

    pub fn quick(seed: u64) -> Self {
        OpenFtScenario {
            days: 2,
            search_nodes: 2,
            clean_users: 20,
            files_per_user: 10,
            superspreader_baits: 24,
            minor_infections: vec![
                (FamilyId(1), 1, 4),
                (FamilyId(2), 1, 4),
                (FamilyId(3), 1, 4),
            ],
            catalog: CatalogConfig {
                titles: 400,
                ..Default::default()
            },
            workload: WorkloadConfig {
                base_interval_secs: 120,
                ..Default::default()
            },
            ambient_query: None,
            ..Self::paper_scale(seed)
        }
    }

    pub fn run(&self) -> NetworkRun {
        self.run_with_progress(|_| {})
    }

    pub fn run_with_progress(&self, progress: impl FnMut(u64)) -> NetworkRun {
        let mut pop = Population::new(
            self.seed,
            &self.catalog,
            Roster::openft_2006(),
            SimConfig {
                faults: self.faults,
                shards: self.shards,
                shard_window_us: self.shard_window_us,
                ..SimConfig::default()
            },
            &self.telemetry,
            "openft",
        );
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0F7);

        // The SEARCH backbone, one bootstrap group shared across every USER
        // node and the crawler, as on the LW side.
        let world = pop.world.clone();
        pop.backbone(self.search_nodes, self.search_nodes, 1215, |boot| {
            let cfg = FtConfig::search_node().with_bootstrap(boot);
            Box::new(FtNode::new(cfg, world.clone(), HostLibrary::new()))
        });
        let search_boot = pop.bootstrap(0);

        let user = NodeSpec::public().listen(1215);
        let spawn_user = |pop: &mut Population, lib, ambient, spec| {
            let mut cfg = FtConfig::user().with_bootstrap(search_boot.clone());
            cfg.auto_query = ambient;
            let node = FtNode::new(cfg, world.clone(), lib);
            pop.sim.spawn(spec, Box::new(node))
        };

        for _ in 0..self.clean_users {
            let lib = clean_library(&world, self.files_per_user, &mut rng);
            spawn_user(&mut pop, lib, self.ambient_query, user.clone());
        }

        // The superspreader: one always-on, well-provisioned host sharing
        // the top family under many popular titles. Durable: "always-on"
        // is its defining property, so churn never takes it down.
        let mut spreader_lib = clean_library(&world, self.files_per_user, &mut rng);
        spreader_lib.infect_superspreader(
            world.roster.get(self.superspreader_family),
            &world.catalog,
            self.superspreader_baits,
            &mut rng,
        );
        let spreader = user.clone().upload(512_000).durable();
        spawn_user(&mut pop, spreader_lib, None, spreader);

        // Minor infected users: each baits a few uniformly-chosen titles.
        for (family, hosts, baits) in &self.minor_infections {
            for _ in 0..*hosts {
                let mut lib = clean_library(&world, self.files_per_user / 2, &mut rng);
                lib.infect_superspreader(
                    world.roster.get(*family),
                    &world.catalog,
                    *baits,
                    &mut rng,
                );
                spawn_user(&mut pop, lib, None, user.clone());
            }
        }

        // The instrumented client sessions with every SEARCH node so its
        // searches cover all registration indexes, as the study's
        // instrumented giFT did.
        let node = FtConfig {
            target_sessions: self.search_nodes.max(3),
            ..FtConfig::user().with_bootstrap(search_boot.clone())
        };
        let config = CrawlerConfig {
            workload: self.workload.clone(),
            retry: self.retry,
            ..Default::default()
        };
        let crawler = pop.crawler::<FtNode>(1215, node, config);
        pop.crawl::<FtNode>(crawler, "FT", self.days, progress)
            .into_network_run(Network::OpenFt)
    }
}
