//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics, and which end-to-end metric
//! each layer is expected to move on which workload. `BENCHMARK.json` at
//! the repository root is generated from these tables (`benchmark-json`
//! subcommand) and a test keeps the two equal.

use p2pmal_json::Value;

/// Wall-clock seconds one run is sized for on the 2-core reference box; the
/// `--seconds` default and `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver gates on it. The driver
    /// compares ten runs with ten different seeds and refuses a benchmark
    /// whose interquartile spread exceeds a metric's bound (25 % at most) on
    /// any listed workload. `lw_chaos` cannot meet that for `peak_rss_mb`
    /// (how much gets crawled before the crawler goes deaf varies four-fold
    /// with the seed) and `mega_shards2` cannot for `run_s` (260 k barrier
    /// wake-ups follow the host's scheduling latency: 13 % spread on one
    /// seed on a quiet host, 40 % on a busy one). Both stay in the suite,
    /// where `compare` judges them on one seed.
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "lw_flood",
        why: "paper-scale LimeWire population, days=1, serial engine, no faults: netsim scheduler/pump plus gnutella servent routing under steady flooding; openft and obs idle",
        gated: true,
    },
    Workload {
        name: "ft_search",
        why: "paper-scale OpenFT population, days=35, 2 scan threads: openft stack, corpus query matching and 1.7M responses through crawler extraction, analysis and filter; gnutella idle",
        gated: true,
    },
    Workload {
        name: "lw_chaos",
        why: "lw_flood population under the mild fault profile with backoff retries, days=1: fault draws, churn, reconnect and QRP-rebuild storms; the only workload with a non-zero failure share",
        gated: false,
    },
    Workload {
        name: "lw_journal",
        why: "lw_flood with the full telemetry journal written, then read back through obs load/analyze/to_json: the only workload that exercises the telemetry sink, obs and json",
        gated: true,
    },
    Workload {
        name: "mega_shards2",
        why: "10k-node mega population, days=1, sharded engine on 2 threads with 1 s windows: mailboxes, barriers and per-node memory; bytes/node is the headline",
        gated: false,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "median of back-to-back population builds (a days=0 run of the workload's scenario), repeated for SETUP_SECONDS",
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "collection loop wall: NetworkRun::wall / MegaRun::wall",
    },
    EndToEnd {
        name: "total_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "scenario construction to rendered report, so log extraction inside run() is counted here",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.2,
        what: "VmHWM of the process that ran the workload",
    },
    EndToEnd {
        name: "app_bytes_per_node",
        unit: "bytes",
        better: "lower",
        bound: 0.25,
        what: "SimMetrics::memory.bytes_per_node() at the end of the run; exact per seed",
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: "higher",
        bound: 0.03,
        what: "1 - fail_share, fail_share = (downloads_failed + checks failed) / (downloads_attempted + checks made); exact per seed",
    },
];

/// End-to-end metrics that repeat exactly for one seed, so `compare`
/// demands equality instead of applying the bound.
pub const EXACT_END_TO_END: [&str; 2] = ["app_bytes_per_node", "ok_share"];

pub struct Layer {
    pub name: &'static str,
    /// `(end-to-end metric, workloads)` the layer's metrics should move;
    /// on every other pairing the prediction is "no change".
    pub moves: &'static [(&'static str, &'static [&'static str])],
    pub note: &'static str,
}

pub const LAYERS: [Layer; 13] = [
    Layer {
        name: "core",
        moves: &[("total_s", &["ft_search"])],
        note: "extraction of 1.7M records is the only sizeable time outside the loop; noise elsewhere",
    },
    Layer {
        name: "netsim",
        moves: &[(
            "run_s",
            &["lw_flood", "ft_search", "lw_chaos", "lw_journal", "mega_shards2"],
        )],
        note: "scheduler + pump are about a fifth of lw_flood/ft_search; shard_exchange_s only on mega_shards2, journal_* only on lw_journal, faults_* only on lw_chaos",
    },
    Layer {
        name: "gnutella",
        moves: &[("run_s", &["lw_flood", "lw_chaos", "lw_journal", "mega_shards2"])],
        note: "servent routing/QRP/codec is most of app time on the LimeWire workloads; no change predicted on ft_search",
    },
    Layer {
        name: "openft",
        moves: &[("run_s", &["ft_search"])],
        note: "only ft_search runs OpenFT nodes",
    },
    Layer {
        name: "corpus",
        moves: &[("run_s", &["ft_search"])],
        note: "query matching is about a fifth of ft_search run time and a few percent elsewhere",
    },
    Layer {
        name: "crawler",
        moves: &[
            ("total_s", &["ft_search"]),
            ("peak_rss_mb", &["ft_search"]),
            ("ok_share", &["lw_chaos"]),
        ],
        note: "1.7M response records dominate ft_search memory and extraction; retries decide lw_chaos failures",
    },
    Layer {
        name: "scanner",
        moves: &[("run_s", &["lw_flood", "ft_search"])],
        note: "under a tenth of run time: every distinct object is downloaded once, so no workload is scan-bound",
    },
    Layer {
        name: "hashes",
        moves: &[("run_s", &["lw_flood", "ft_search"])],
        note: "part of scanner.scan_s; sell a change on the probes plus 'no end-to-end change'",
    },
    Layer {
        name: "archive",
        moves: &[("run_s", &["lw_flood", "ft_search"])],
        note: "part of scanner.scan_s; sell a change on the probes plus 'no end-to-end change'",
    },
    Layer {
        name: "filter",
        moves: &[("total_s", &["ft_search"])],
        note: "learn + evaluate four filters over every resolved response: part of core.report_s, which is 6 % of total_s on ft_search and under 1 % elsewhere",
    },
    Layer {
        name: "analysis",
        moves: &[("total_s", &["ft_search"])],
        note: "tables and paper comparison, the rest of core.report_s; bands_held/band_dev_max report accuracy against the paper and are gated only at the calibrated seed",
    },
    Layer {
        name: "obs",
        moves: &[("total_s", &["lw_journal"]), ("peak_rss_mb", &["lw_journal"])],
        note: "whole-file load plus a full trace forest: a sixth of total_s and most of the peak RSS on lw_journal; zero on every other workload",
    },
    Layer {
        name: "json",
        moves: &[("total_s", &["lw_journal"])],
        note: "journal parsing and report writing; zero on every other workload",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Repeats exactly for one (workload, seed): checked for agreement
    /// across repeats and for equality by `compare`.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// Every per-layer metric; the layer is the name up to the first dot.
/// `probe_*` metrics are measured only in the traced run.
pub const PER_LAYER: [PerLayer; 77] = [
    timed("core.report_s", "s", "lower"),
    timed("core.extract_s", "s", "lower"),
    timed("core.day_s.p50", "s", "lower"),
    timed("core.day_s.p70", "s", "lower"),
    timed("core.day_s.max", "s", "lower"),
    timed("core.trace_overhead_pct", "%", "lower"),
    exact("core.fail_share", "ratio", "lower"),
    exact("core.checks_made", "count", "higher"),
    exact("core.checks_failed", "count", "lower"),
    exact("netsim.events", "count", "lower"),
    timed("netsim.events_per_s", "1/s", "higher"),
    timed("netsim.ns_per_event", "ns", "lower"),
    timed("netsim.scheduler_s", "s", "lower"),
    timed("netsim.app_s", "s", "lower"),
    timed("netsim.tcp_pump_s", "s", "lower"),
    timed("netsim.shard_exchange_s", "s", "lower"),
    exact("netsim.timers_fired", "count", "lower"),
    exact("netsim.conns_established", "count", "lower"),
    exact("netsim.conns_failed", "count", "lower"),
    exact("netsim.bytes_delivered", "bytes", "lower"),
    exact("netsim.pool_hit_ratio", "ratio", "higher"),
    exact("netsim.queue_high_water", "count", "lower"),
    exact("netsim.faults_injected", "count", "lower"),
    exact("netsim.churn_downs", "count", "lower"),
    exact("netsim.journal_events", "count", "lower"),
    exact("netsim.journal_mb", "MiB", "lower"),
    timed("netsim.probe_engine_ns_per_event", "ns", "lower"),
    timed("netsim.probe_queue_ns_per_op", "ns", "lower"),
    timed("gnutella.probe_codec_ns_per_msg", "ns", "lower"),
    timed("gnutella.probe_handshake_ns", "ns", "lower"),
    timed("gnutella.probe_qrp_build_ns_per_name", "ns", "lower"),
    timed("gnutella.probe_qrp_lookup_ns", "ns", "lower"),
    timed("gnutella.probe_overlay_ns_per_event", "ns", "lower"),
    timed("openft.probe_codec_ns_per_packet", "ns", "lower"),
    timed("openft.probe_overlay_ns_per_event", "ns", "lower"),
    timed("corpus.query_match_s", "s", "lower"),
    exact("corpus.query_match_calls", "count", "lower"),
    exact("corpus.intern_unique_names", "count", "lower"),
    timed("corpus.probe_match_ns_per_query", "ns", "lower"),
    timed("corpus.probe_payload_mb_per_s", "MiB/s", "higher"),
    exact("crawler.queries_issued", "count", "higher"),
    exact("crawler.responses", "count", "higher"),
    exact("crawler.responses_last_6h", "count", "higher"),
    exact("crawler.downloads_attempted", "count", "higher"),
    exact("crawler.downloads_failed", "count", "lower"),
    exact("crawler.retries_scheduled", "count", "lower"),
    exact("crawler.retry_recovery_ratio", "ratio", "higher"),
    exact("crawler.push_fallbacks", "count", "lower"),
    exact("crawler.scan_bodies", "count", "higher"),
    exact("crawler.scan_mb_hashed", "MiB", "lower"),
    exact("crawler.scan_cache_hit_ratio", "ratio", "higher"),
    exact("crawler.download_latency_sim_s.p50", "s", "lower"),
    exact("crawler.download_latency_sim_s.p99", "s", "lower"),
    timed("crawler.probe_resolve_ns_per_response", "ns", "lower"),
    timed("scanner.scan_s", "s", "lower"),
    exact("scanner.scan_calls", "count", "lower"),
    timed("scanner.scan_merge_s", "s", "lower"),
    timed("scanner.probe_scan_mb_per_s", "MiB/s", "higher"),
    timed("hashes.probe_sha1_mb_per_s", "MiB/s", "higher"),
    timed("hashes.probe_md5_mb_per_s", "MiB/s", "higher"),
    timed("archive.probe_unzip_mb_per_s", "MiB/s", "higher"),
    timed("archive.probe_crc32_mb_per_s", "MiB/s", "higher"),
    timed("filter.learn_eval_s", "s", "lower"),
    timed("filter.probe_eval_ns_per_response", "ns", "lower"),
    timed("analysis.render_s", "s", "lower"),
    timed("analysis.compare_s", "s", "lower"),
    exact("analysis.bands_held", "count", "higher"),
    exact("analysis.band_dev_max", "ratio", "lower"),
    timed("obs.load_s", "s", "lower"),
    timed("obs.analyze_s", "s", "lower"),
    timed("obs.events_per_s", "1/s", "higher"),
    exact("obs.traces", "count", "higher"),
    exact("obs.orphans", "count", "lower"),
    exact("obs.complete_chains", "count", "higher"),
    timed("obs.rss_delta_mb", "MiB", "lower"),
    timed("json.probe_parse_mb_per_s", "MiB/s", "higher"),
    timed("json.probe_write_mb_per_s", "MiB/s", "higher"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Unit of any metric the benchmark prints.
pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {name} is not in the spec"))
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| (*s).into()).collect());
    obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| obj(vec![("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The spec as recorded in `results.json`: everything in `BENCHMARK.json`
/// plus what its schema has no room for (definitions, exactness, moves).
pub fn spec_json() -> Value {
    obj(vec![
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                            ("bound", m.bound.into()),
                            ("exact", EXACT_END_TO_END.contains(&m.name).into()),
                            ("what", m.what.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                            ("exact", m.exact.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "layers",
            Value::Arr(
                LAYERS
                    .iter()
                    .map(|l| {
                        obj(vec![
                            ("name", l.name.into()),
                            (
                                "moves",
                                Value::Arr(
                                    l.moves
                                        .iter()
                                        .map(|(metric, workloads)| {
                                            obj(vec![
                                                ("metric", (*metric).into()),
                                                (
                                                    "workloads",
                                                    Value::Arr(
                                                        workloads
                                                            .iter()
                                                            .map(|w| (*w).into())
                                                            .collect(),
                                                    ),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            ("note", l.note.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
