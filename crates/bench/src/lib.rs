//! Shared harness for the experiment benches.
//!
//! Every table/figure of the paper has its own bench target (see
//! `crates/bench/benches/`); they all consume the same two measurement
//! runs (LimeWire, OpenFT). Paper-scale runs simulate 35 days, so the
//! harness caches each run's resolved log on disk under
//! `target/p2pmal-runs/` — the first experiment pays for the simulation,
//! the rest reload it in seconds. Delete the cache directory (or change
//! the seed) to re-measure.
//!
//! Scale control via environment:
//!
//! * `P2PMAL_QUICK=1` — run the minutes-scale `quick()` scenarios;
//! * `P2PMAL_SEED=<n>` — change the seed (default 2006);
//! * `P2PMAL_SEEDS=<a,b,c>` — multi-seed sweep: every seed's two-network
//!   study runs on its own thread (see [`run_seeds`]);
//! * `P2PMAL_DAYS=<n>` — override the collection length;
//! * `P2PMAL_TRACE=<level>` — leveled trace on stderr. Unset, empty, `0`,
//!   `off`, `false` and `no` disable it; `1` prints the per-day
//!   event/wall-time trace, including buffer-pool, queue-depth and
//!   scan-pipeline (cache hit/miss/eviction, bytes hashed) statistics;
//!   `2` additionally renders every telemetry event as it is recorded;
//! * `P2PMAL_JOURNAL=<path>` — write the structured sim-time event journal
//!   (one JSON object per line) to `<path>.limewire.jsonl` and
//!   `<path>.openft.jsonl`, creating parent directories as needed;
//! * `P2PMAL_JOURNAL_SAMPLE=<cat=N,...>` — journal only every Nth event of
//!   a category (`query`, `download`, `scan`, `fault`, `churn`); `cat=0`
//!   drops the category entirely;
//! * `P2PMAL_FAULTS=none|mild|harsh` — network fault profile: packet loss,
//!   spontaneous resets, latency spikes, corruption and host churn, with
//!   the retry policy calibrated for each profile (`none` is the default
//!   and is byte-identical to a fault-free simulator);
//! * `P2PMAL_RETRIES=<n>` — override the per-object retry budget of the
//!   selected fault profile (for retry-budget sweeps).

use p2pmal_core::{fault_profile, LimewireScenario, OpenFtScenario};
use p2pmal_crawler::{
    FailureBreakdown, HostKey, LogFootprint, Network, ResolvedResponse, ResponseRecord,
    RetryPolicy, ScanStats, TextTable,
};
use p2pmal_json::Value;
use p2pmal_netsim::{Counter, FaultPlan, HistSummary, SimConfig, SimTime};
use std::io::Write;
use std::net::Ipv4Addr;
use std::path::PathBuf;

/// The cached form of one network run: everything the analyses consume.
pub struct RunArtifact {
    pub network: Network,
    pub seed: u64,
    pub days: u64,
    pub queries_issued: u64,
    pub downloads_attempted: u64,
    pub downloads_failed: u64,
    pub sim_events: u64,
    /// Scan-pipeline counters (bodies, cache hits, bytes hashed, ...).
    /// Defaults to zero when loading artifacts written before the counters
    /// existed.
    pub scan: ScanStats,
    /// Fault-injection and retry-pipeline counters. All-zero for the
    /// default `none` profile and for artifacts written before the fault
    /// layer existed.
    pub resilience: ResilienceStats,
    /// Deterministic telemetry roll-up: named counters and log2-histogram
    /// summaries keyed on sim time (identical for identical seeds).
    /// All-empty for artifacts written before the telemetry layer existed.
    pub telemetry: TelemetryStats,
    /// What the crawler's response log held and cost when the run ended
    /// (`CrawlLog::footprint`): reported beside the per-node memory
    /// estimate, never inside it. All-zero for artifacts written before
    /// it was recorded.
    pub log: LogFootprint,
    pub resolved: Vec<ResolvedResponse>,
}

/// Telemetry counters and histogram summaries carried by a
/// [`RunArtifact`]. Only sim-time-keyed values appear here — wall-clock
/// histograms are excluded so cached artifacts stay byte-stable.
#[derive(Debug, Default, Clone)]
pub struct TelemetryStats {
    /// `(label, value)` for every counter in the metrics registry.
    pub counters: Vec<(String, u64)>,
    /// `(label, summary)` for every sim-time histogram.
    pub hists: Vec<(String, HistSummary)>,
}

/// Fault/retry accounting carried by a [`RunArtifact`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ResilienceStats {
    pub retries_scheduled: u64,
    pub retry_successes: u64,
    pub push_fallbacks: u64,
    pub unscannable: u64,
    /// Failed download *attempts* by cause.
    pub failures: FailureBreakdown,
    pub faults_chunks_dropped: u64,
    pub faults_chunks_corrupted: u64,
    pub faults_resets: u64,
    pub faults_latency_spikes: u64,
    pub faults_churn_downs: u64,
    pub faults_churn_ups: u64,
}

/// Harness configuration from the environment.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    pub quick: bool,
    pub seed: u64,
    pub days: Option<u64>,
    /// `P2PMAL_SEEDS=a,b,c` — seeds for a multi-seed sweep. When set,
    /// `run_study` runs one full two-network study per seed, each on its
    /// own thread.
    pub seeds: Option<Vec<u64>>,
    /// `P2PMAL_FAULTS=none|mild|harsh` — fault profile name.
    pub faults: String,
    /// `P2PMAL_RETRIES=<n>` — retry-budget override on top of the profile.
    pub retries: Option<u8>,
    /// `P2PMAL_SHARD_WINDOW_MS` in microseconds: the simulator's
    /// connection-latency floor, part of the model (`P2PMAL_SHARDS` is
    /// not: every shard count runs the same trajectory).
    pub shard_window_us: u64,
}

/// Bumped whenever the trajectory a seed produces changes, so a cached run
/// from before the change is never served as current. Epoch 2: the merged
/// lane engine (PR 16). Epoch 3: payload bodies are the counter-mode
/// SplitMix64 stream, so every logged SHA-1 changed (PR 21). Epoch 4: an
/// OpenFT answer is one write and a full node arms no tick (events and
/// response timestamps moved); timers die with their churn session (PR 22).
const TRAJECTORY_EPOCH: u32 = 4;

impl BenchConfig {
    pub fn from_env() -> Self {
        let quick = std::env::var("P2PMAL_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
        let seed = std::env::var("P2PMAL_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2006);
        let days = std::env::var("P2PMAL_DAYS")
            .ok()
            .and_then(|v| v.parse().ok());
        let seeds = std::env::var("P2PMAL_SEEDS").ok().map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<u64>>()
        });
        let faults = std::env::var("P2PMAL_FAULTS").unwrap_or_else(|_| "none".into());
        assert!(
            fault_profile(&faults).is_some(),
            "P2PMAL_FAULTS={faults:?} is not a known profile (none|mild|harsh)"
        );
        let retries = std::env::var("P2PMAL_RETRIES")
            .ok()
            .and_then(|v| v.parse().ok());
        BenchConfig {
            quick,
            seed,
            days,
            seeds: seeds.filter(|s| !s.is_empty()),
            faults,
            retries,
            shard_window_us: SimConfig::shards_from_env().1,
        }
    }

    /// The fault plan + retry policy this configuration selects.
    pub fn fault_plan(&self) -> (FaultPlan, RetryPolicy) {
        let (plan, mut retry) = fault_profile(&self.faults).expect("profile validated in from_env");
        if let Some(n) = self.retries {
            retry.max_retries = n;
        }
        (plan, retry)
    }

    /// This configuration re-keyed to another seed (for sweeps).
    pub fn with_seed(&self, seed: u64) -> Self {
        BenchConfig {
            seed,
            seeds: None,
            ..self.clone()
        }
    }

    fn tag(&self) -> String {
        let days = self
            .days
            .map(|d| d.to_string())
            .unwrap_or_else(|| "default".into());
        let mut tag = format!(
            "t{TRAJECTORY_EPOCH}-{}-{}-{}",
            if self.quick { "quick" } else { "paper" },
            self.seed,
            days
        );
        // Only non-default settings extend the cache key.
        if self.shard_window_us != SimConfig::default().shard_window_us {
            tag.push_str(&format!("-w{}us", self.shard_window_us));
        }
        if self.faults != "none" {
            tag.push('-');
            tag.push_str(&self.faults);
        }
        if let Some(n) = self.retries {
            tag.push_str(&format!("-r{n}"));
        }
        tag
    }
}

fn cache_dir() -> PathBuf {
    // Anchor at the workspace target directory regardless of the CWD the
    // bench harness uses (benches run with CWD = crate dir).
    let mut p = match std::env::var("CARGO_TARGET_DIR") {
        Ok(t) => PathBuf::from(t),
        Err(_) => {
            let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            p.push("../../target");
            p
        }
    };
    p.push("p2pmal-runs");
    p
}

fn cache_path(network: &str, cfg: &BenchConfig) -> PathBuf {
    let mut p = cache_dir();
    p.push(format!("{network}-{}.json", cfg.tag()));
    p
}

fn load(path: &PathBuf) -> Option<RunArtifact> {
    let text = std::fs::read_to_string(path).ok()?;
    artifact_from_json(&p2pmal_json::parse(&text).ok()?)
}

fn store(path: &PathBuf, artifact: &RunArtifact) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Ok(mut f) = std::fs::File::create(path) {
        let _ = f.write_all(artifact_to_json(artifact).to_string_compact().as_bytes());
    }
}

fn host_to_json(h: &HostKey) -> Value {
    match h {
        HostKey::Guid(guid) => {
            Value::Obj(vec![("guid".into(), p2pmal_hashes::to_hex(guid).into())])
        }
        HostKey::Addr(ip, port) => Value::Obj(vec![
            ("ip".into(), ip.to_string().into()),
            ("port".into(), (*port as u64).into()),
        ]),
    }
}

fn host_from_json(v: &Value) -> Option<HostKey> {
    if let Some(hex) = v.get("guid").and_then(Value::as_str) {
        let bytes = p2pmal_hashes::from_hex(hex)?;
        return Some(HostKey::Guid(bytes.try_into().ok()?));
    }
    let ip: Ipv4Addr = v.get("ip")?.as_str()?.parse().ok()?;
    let port = v.get("port")?.as_u64()? as u16;
    Some(HostKey::Addr(ip, port))
}

fn resolved_to_json(r: &ResolvedResponse) -> Value {
    let rec = &r.record;
    Value::Obj(vec![
        ("at".into(), rec.at.as_micros().into()),
        ("day".into(), rec.day.into()),
        ("query".into(), rec.query.as_str().into()),
        ("filename".into(), rec.filename.as_str().into()),
        ("size".into(), rec.size.into()),
        ("source_ip".into(), rec.source_ip.to_string().into()),
        ("source_port".into(), (rec.source_port as u64).into()),
        ("needs_push".into(), rec.needs_push.into()),
        ("host".into(), host_to_json(&rec.host)),
        ("downloadable".into(), rec.downloadable.into()),
        ("malware".into(), r.malware.as_deref().into()),
        ("scanned".into(), r.scanned.into()),
        ("sha1".into(), r.sha1.map(|d| d.to_hex()).into()),
    ])
}

/// `texts` is the artifact's dedup table: a cached log comes back sharing
/// one allocation per distinct query, file name and family, as the
/// crawler built it.
fn resolved_from_json(v: &Value, texts: &mut TextTable) -> Option<ResolvedResponse> {
    let record = ResponseRecord {
        at: SimTime::from_micros(v.get("at")?.as_u64()?),
        day: v.get("day")?.as_u64()?,
        query: texts.intern(v.get("query")?.as_str()?),
        filename: texts.intern(v.get("filename")?.as_str()?),
        size: v.get("size")?.as_u64()?,
        source_ip: v.get("source_ip")?.as_str()?.parse().ok()?,
        source_port: v.get("source_port")?.as_u64()? as u16,
        needs_push: v.get("needs_push")?.as_bool()?,
        host: host_from_json(v.get("host")?)?,
        downloadable: v.get("downloadable")?.as_bool()?,
    };
    let sha1 = match v.get("sha1")? {
        Value::Null => None,
        s => Some(p2pmal_hashes::Sha1Digest(
            p2pmal_hashes::from_hex(s.as_str()?)?.try_into().ok()?,
        )),
    };
    Some(ResolvedResponse {
        record,
        malware: v.get("malware")?.as_str().map(|s| texts.intern(s)),
        scanned: v.get("scanned")?.as_bool()?,
        sha1,
    })
}

fn scan_to_json(s: &ScanStats) -> Value {
    Value::Obj(vec![
        ("bodies".into(), s.bodies.into()),
        ("bytes_hashed".into(), s.bytes_hashed.into()),
        ("bodies_scanned".into(), s.bodies_scanned.into()),
        ("bytes_scanned".into(), s.bytes_scanned.into()),
        ("cache_hits".into(), s.cache_hits.into()),
        ("cache_misses".into(), s.cache_misses.into()),
        ("cache_evictions".into(), s.cache_evictions.into()),
        ("distinct_payloads".into(), s.distinct_payloads.into()),
    ])
}

fn scan_from_json(v: &Value) -> Option<ScanStats> {
    Some(ScanStats {
        bodies: v.get("bodies")?.as_u64()?,
        bytes_hashed: v.get("bytes_hashed")?.as_u64()?,
        bodies_scanned: v.get("bodies_scanned")?.as_u64()?,
        bytes_scanned: v.get("bytes_scanned")?.as_u64()?,
        cache_hits: v.get("cache_hits")?.as_u64()?,
        cache_misses: v.get("cache_misses")?.as_u64()?,
        cache_evictions: v.get("cache_evictions")?.as_u64()?,
        distinct_payloads: v.get("distinct_payloads")?.as_u64()?,
    })
}

fn failures_to_json(f: &FailureBreakdown) -> Value {
    Value::Obj(
        f.parts()
            .iter()
            .map(|&(k, n)| (k.to_string(), n.into()))
            .collect(),
    )
}

fn failures_from_json(v: &Value) -> Option<FailureBreakdown> {
    let n = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    Some(FailureBreakdown {
        timeout: n("timeout"),
        reset: n("reset"),
        truncated: n("truncated"),
        peer_gone: n("peer_gone"),
        corrupt: n("corrupt"),
        not_found: n("not_found"),
        other: n("other"),
    })
}

fn resilience_to_json(r: &ResilienceStats) -> Value {
    Value::Obj(vec![
        ("retries_scheduled".into(), r.retries_scheduled.into()),
        ("retry_successes".into(), r.retry_successes.into()),
        ("push_fallbacks".into(), r.push_fallbacks.into()),
        ("unscannable".into(), r.unscannable.into()),
        ("failures".into(), failures_to_json(&r.failures)),
        (
            "faults_chunks_dropped".into(),
            r.faults_chunks_dropped.into(),
        ),
        (
            "faults_chunks_corrupted".into(),
            r.faults_chunks_corrupted.into(),
        ),
        ("faults_resets".into(), r.faults_resets.into()),
        (
            "faults_latency_spikes".into(),
            r.faults_latency_spikes.into(),
        ),
        ("faults_churn_downs".into(), r.faults_churn_downs.into()),
        ("faults_churn_ups".into(), r.faults_churn_ups.into()),
    ])
}

fn resilience_from_json(v: &Value) -> Option<ResilienceStats> {
    let n = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    Some(ResilienceStats {
        retries_scheduled: n("retries_scheduled"),
        retry_successes: n("retry_successes"),
        push_fallbacks: n("push_fallbacks"),
        unscannable: n("unscannable"),
        failures: v
            .get("failures")
            .and_then(failures_from_json)
            .unwrap_or_default(),
        faults_chunks_dropped: n("faults_chunks_dropped"),
        faults_chunks_corrupted: n("faults_chunks_corrupted"),
        faults_resets: n("faults_resets"),
        faults_latency_spikes: n("faults_latency_spikes"),
        faults_churn_downs: n("faults_churn_downs"),
        faults_churn_ups: n("faults_churn_ups"),
    })
}

fn footprint_to_json(f: &LogFootprint) -> Value {
    Value::Obj(vec![
        ("records".into(), f.records.into()),
        ("distinct_queries".into(), f.distinct_queries.into()),
        ("distinct_filenames".into(), f.distinct_filenames.into()),
        ("heap_bytes".into(), f.heap_bytes.into()),
    ])
}

fn footprint_from_json(v: &Value) -> Option<LogFootprint> {
    Some(LogFootprint {
        records: v.get("records")?.as_u64()?,
        distinct_queries: v.get("distinct_queries")?.as_u64()?,
        distinct_filenames: v.get("distinct_filenames")?.as_u64()?,
        heap_bytes: v.get("heap_bytes")?.as_u64()?,
    })
}

/// Serializes a [`HistSummary`] as the flat object every consumer of
/// `BENCH_study.json` and the run cache shares.
pub fn summary_to_json(s: &HistSummary) -> Value {
    Value::Obj(vec![
        ("count".into(), s.count.into()),
        ("min".into(), s.min.into()),
        ("p50".into(), s.p50.into()),
        ("p90".into(), s.p90.into()),
        ("p99".into(), s.p99.into()),
        ("max".into(), s.max.into()),
    ])
}

fn summary_from_json(v: &Value) -> Option<HistSummary> {
    Some(HistSummary {
        count: v.get("count")?.as_u64()?,
        min: v.get("min")?.as_u64()?,
        p50: v.get("p50")?.as_u64()?,
        p90: v.get("p90")?.as_u64()?,
        p99: v.get("p99")?.as_u64()?,
        max: v.get("max")?.as_u64()?,
    })
}

fn telemetry_to_json(t: &TelemetryStats) -> Value {
    Value::Obj(vec![
        (
            "counters".into(),
            Value::Obj(
                t.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), (*v).into()))
                    .collect(),
            ),
        ),
        (
            "hists".into(),
            Value::Obj(
                t.hists
                    .iter()
                    .map(|(k, s)| (k.clone(), summary_to_json(s)))
                    .collect(),
            ),
        ),
    ])
}

fn telemetry_from_json(v: &Value) -> Option<TelemetryStats> {
    let counters = match v.get("counters")? {
        Value::Obj(pairs) => pairs
            .iter()
            .filter_map(|(k, n)| Some((k.clone(), n.as_u64()?)))
            .collect(),
        _ => Vec::new(),
    };
    let hists = match v.get("hists")? {
        Value::Obj(pairs) => pairs
            .iter()
            .filter_map(|(k, s)| Some((k.clone(), summary_from_json(s)?)))
            .collect(),
        _ => Vec::new(),
    };
    Some(TelemetryStats { counters, hists })
}

fn artifact_to_json(a: &RunArtifact) -> Value {
    Value::Obj(vec![
        (
            "network".into(),
            match a.network {
                Network::Limewire => "limewire",
                Network::OpenFt => "openft",
            }
            .into(),
        ),
        ("seed".into(), a.seed.into()),
        ("days".into(), a.days.into()),
        ("queries_issued".into(), a.queries_issued.into()),
        ("downloads_attempted".into(), a.downloads_attempted.into()),
        ("downloads_failed".into(), a.downloads_failed.into()),
        ("sim_events".into(), a.sim_events.into()),
        ("scan".into(), scan_to_json(&a.scan)),
        ("resilience".into(), resilience_to_json(&a.resilience)),
        ("telemetry".into(), telemetry_to_json(&a.telemetry)),
        ("log".into(), footprint_to_json(&a.log)),
        (
            "resolved".into(),
            Value::Arr(a.resolved.iter().map(resolved_to_json).collect()),
        ),
    ])
}

fn artifact_from_json(v: &Value) -> Option<RunArtifact> {
    let network = match v.get("network")?.as_str()? {
        "limewire" => Network::Limewire,
        "openft" => Network::OpenFt,
        _ => return None,
    };
    let mut texts = TextTable::default();
    let resolved = v
        .get("resolved")?
        .as_arr()?
        .iter()
        .map(|r| resolved_from_json(r, &mut texts))
        .collect::<Option<Vec<_>>>()?;
    Some(RunArtifact {
        network,
        seed: v.get("seed")?.as_u64()?,
        days: v.get("days")?.as_u64()?,
        queries_issued: v.get("queries_issued")?.as_u64()?,
        downloads_attempted: v.get("downloads_attempted")?.as_u64()?,
        downloads_failed: v.get("downloads_failed")?.as_u64()?,
        sim_events: v.get("sim_events")?.as_u64()?,
        // Artifacts written before the scan pipeline carry no counters.
        scan: v.get("scan").and_then(scan_from_json).unwrap_or_default(),
        // Likewise for artifacts predating the fault layer.
        resilience: v
            .get("resilience")
            .and_then(resilience_from_json)
            .unwrap_or_default(),
        // And for artifacts predating the telemetry layer.
        telemetry: v
            .get("telemetry")
            .and_then(telemetry_from_json)
            .unwrap_or_default(),
        // And for artifacts predating the log footprint.
        log: v
            .get("log")
            .and_then(footprint_from_json)
            .unwrap_or_default(),
        resolved,
    })
}

/// Collects the deterministic telemetry roll-up from a finished run.
fn telemetry_of(run: &p2pmal_core::NetworkRun) -> TelemetryStats {
    let reg = &run.sim_metrics.telemetry;
    TelemetryStats {
        counters: Counter::ALL
            .iter()
            .map(|&c| (c.label().to_string(), reg.counter(c)))
            .collect(),
        hists: reg
            .sim_summaries()
            .into_iter()
            .map(|(label, s)| (label.to_string(), s))
            .collect(),
    }
}

/// Collects the artifact's resilience counters from a finished run.
fn resilience_of(run: &p2pmal_core::NetworkRun) -> ResilienceStats {
    let m = &run.sim_metrics;
    ResilienceStats {
        retries_scheduled: run.log.retries_scheduled,
        retry_successes: run.log.retry_successes,
        push_fallbacks: run.log.push_fallbacks,
        unscannable: run.log.unscannable,
        failures: run.log.failures,
        faults_chunks_dropped: m.faults_chunks_dropped,
        faults_chunks_corrupted: m.faults_chunks_corrupted,
        faults_resets: m.faults_resets,
        faults_latency_spikes: m.faults_latency_spikes,
        faults_churn_downs: m.faults_churn_downs,
        faults_churn_ups: m.faults_churn_ups,
    }
}

/// Returns the (possibly cached) LimeWire measurement run.
pub fn limewire_run(cfg: &BenchConfig) -> RunArtifact {
    let path = cache_path("limewire", cfg);
    if let Some(a) = load(&path) {
        eprintln!(
            "[p2pmal] loaded cached LimeWire run from {}",
            path.display()
        );
        return a;
    }
    let mut scenario = if cfg.quick {
        LimewireScenario::quick(cfg.seed)
    } else {
        LimewireScenario::paper_scale(cfg.seed)
    };
    let (plan, retry) = cfg.fault_plan();
    scenario = scenario.with_faults(plan, retry);
    scenario.shard_window_us = cfg.shard_window_us;
    if let Some(days) = cfg.days {
        scenario.days = days;
    }
    eprintln!(
        "[p2pmal] simulating LimeWire: {} days, {} ultrapeers, {} clean leaves, faults={}...",
        scenario.days, scenario.ultrapeers, scenario.clean_leaves, cfg.faults
    );
    let started = std::time::Instant::now();
    let run = scenario.run_with_progress(|d| eprintln!("[p2pmal]   LimeWire day {d} done"));
    eprintln!(
        "[p2pmal] LimeWire run took {:.1}s",
        started.elapsed().as_secs_f64()
    );
    let artifact = RunArtifact {
        network: Network::Limewire,
        seed: cfg.seed,
        days: scenario.days,
        queries_issued: run.log.queries_issued,
        downloads_attempted: run.log.downloads_attempted,
        downloads_failed: run.log.downloads_failed,
        sim_events: run.sim_metrics.events_processed,
        scan: run.log.scan,
        resilience: resilience_of(&run),
        telemetry: telemetry_of(&run),
        log: run.log.footprint(),
        resolved: run.resolved,
    };
    store(&path, &artifact);
    artifact
}

/// Returns the (possibly cached) OpenFT measurement run.
pub fn openft_run(cfg: &BenchConfig) -> RunArtifact {
    let path = cache_path("openft", cfg);
    if let Some(a) = load(&path) {
        eprintln!("[p2pmal] loaded cached OpenFT run from {}", path.display());
        return a;
    }
    let mut scenario = if cfg.quick {
        OpenFtScenario::quick(cfg.seed ^ 0xF7)
    } else {
        OpenFtScenario::paper_scale(cfg.seed ^ 0xF7)
    };
    let (plan, retry) = cfg.fault_plan();
    scenario = scenario.with_faults(plan, retry);
    scenario.shard_window_us = cfg.shard_window_us;
    if let Some(days) = cfg.days {
        scenario.days = days;
    }
    eprintln!(
        "[p2pmal] simulating OpenFT: {} days, {} search nodes, {} users, faults={}...",
        scenario.days, scenario.search_nodes, scenario.clean_users, cfg.faults
    );
    let started = std::time::Instant::now();
    let run = scenario.run_with_progress(|d| eprintln!("[p2pmal]   OpenFT day {d} done"));
    eprintln!(
        "[p2pmal] OpenFT run took {:.1}s",
        started.elapsed().as_secs_f64()
    );
    let artifact = RunArtifact {
        network: Network::OpenFt,
        seed: cfg.seed,
        days: scenario.days,
        queries_issued: run.log.queries_issued,
        downloads_attempted: run.log.downloads_attempted,
        downloads_failed: run.log.downloads_failed,
        sim_events: run.sim_metrics.events_processed,
        scan: run.log.scan,
        resilience: resilience_of(&run),
        telemetry: telemetry_of(&run),
        log: run.log.footprint(),
        resolved: run.resolved,
    };
    store(&path, &artifact);
    artifact
}

/// Runs (or loads) both network measurements, LimeWire and OpenFT each on
/// its own thread. The artifacts are bit-identical to sequential
/// [`limewire_run`] + [`openft_run`] calls: each simulation owns its
/// simulator, world and RNG streams, and the on-disk cache key is the same.
pub fn both_runs(cfg: &BenchConfig) -> (RunArtifact, RunArtifact) {
    std::thread::scope(|scope| {
        let lw = scope.spawn(|| limewire_run(cfg));
        let ft = scope.spawn(|| openft_run(cfg));
        (
            lw.join().expect("LimeWire thread panicked"),
            ft.join().expect("OpenFT thread panicked"),
        )
    })
}

/// One seed's worth of a multi-seed sweep.
pub struct SeedRun {
    pub seed: u64,
    pub limewire: RunArtifact,
    pub openft: RunArtifact,
}

/// Multi-seed sweep: one full two-network study per seed, every study on
/// its own thread (and the two networks within a study on threads of their
/// own). Results come back in the order of `seeds`, and each entry matches
/// what a sequential single-seed run of that seed produces.
pub fn run_seeds(cfg: &BenchConfig, seeds: &[u64]) -> Vec<SeedRun> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                scope.spawn(move || {
                    let cfg = cfg.with_seed(seed);
                    let (limewire, openft) = both_runs(&cfg);
                    SeedRun {
                        seed,
                        limewire,
                        openft,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seed thread panicked"))
            .collect()
    })
}

/// Banner printed by every experiment bench.
pub fn banner(id: &str, what: &str) {
    println!("================================================================");
    println!("{id} — {what}");
    println!("reproduction of Kalafut et al., 'A study of malware in P2P networks' (IMC 2006)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_follows_everything_that_moves_the_trajectory() {
        let base = BenchConfig {
            quick: true,
            seed: 2006,
            days: None,
            seeds: None,
            faults: "none".into(),
            retries: None,
            shard_window_us: SimConfig::default().shard_window_us,
        };
        let path = |cfg: &BenchConfig| cache_path("limewire", cfg);
        assert!(path(&base).ends_with(format!(
            "limewire-t{TRAJECTORY_EPOCH}-quick-2006-default.json"
        )));
        let window = BenchConfig {
            shard_window_us: 250_000,
            ..base.clone()
        };
        assert_ne!(path(&base), path(&window), "window is part of the model");
        assert_ne!(path(&base), path(&base.with_seed(7)));
        let mild = BenchConfig {
            faults: "mild".into(),
            ..base.clone()
        };
        assert_ne!(path(&base), path(&mild));
    }
}
