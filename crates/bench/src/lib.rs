//! Configuration of the two programs that simulate: `run_study` (both
//! networks, every table, figure and paper row) and `run_mega` (one
//! mega-tier population).
//!
//! Both are driven by `P2PMAL_*` environment variables. [`KNOBS`] is the
//! one list of their names, and README's knob table (kept equal to it by a
//! unit test) says what each takes, its default and which program reads
//! it. Either program exits 2 on a set name outside [`KNOBS`] or on a knob
//! it reads that does not parse; it never falls back to the default.

use p2pmal_core::{fault_profile, LimewireScenario, MegaScenario, OpenFtScenario, Study};
use p2pmal_crawler::{parse_scan_threads, RetryPolicy};
use p2pmal_json::Value;
use p2pmal_netsim::{FaultPlan, SimConfig, TelemetryConfig};
use std::path::Path;
use std::str::FromStr;

/// Every `P2PMAL_*` variable `run_study` and `run_mega` know, in the order
/// of README's knob table.
pub const KNOBS: [&str; 14] = [
    "P2PMAL_QUICK",
    "P2PMAL_SEED",
    "P2PMAL_SEEDS",
    "P2PMAL_DAYS",
    "P2PMAL_FAULTS",
    "P2PMAL_RETRIES",
    "P2PMAL_MEGA_NODES",
    "P2PMAL_SCAN_THREADS",
    "P2PMAL_SHARDS",
    "P2PMAL_SHARD_WINDOW_MS",
    "P2PMAL_TRACE",
    "P2PMAL_JOURNAL",
    "P2PMAL_JOURNAL_SAMPLE",
    "P2PMAL_BENCH_JSON",
];

/// Set `P2PMAL_*` variables, name then value.
type Vars = [(String, String)];

/// This process's `P2PMAL_*` variables.
fn env_vars() -> Vec<(String, String)> {
    std::env::vars_os()
        .map(|(k, v)| {
            let (k, v) = (k.to_string_lossy(), v.to_string_lossy());
            (k.into_owned(), v.into_owned())
        })
        .filter(|(k, _)| k.starts_with("P2PMAL_"))
        .collect()
}

fn var<'a>(vars: &'a Vars, name: &str) -> Option<&'a str> {
    vars.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// `name`'s value read by `parse`, `None` when unset, an error naming both
/// when it does not parse.
fn knob<T>(
    vars: &Vars,
    name: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    var(vars, name)
        .map(|v| parse(v).ok_or_else(|| format!("{name}={v:?} is not a valid value")))
        .transpose()
}

fn parsed<T: FromStr>(vars: &Vars, name: &str) -> Result<Option<T>, String> {
    knob(vars, name, |v| v.parse().ok())
}

/// What both programs check before a preset reads the environment: every
/// set name is one of [`KNOBS`], and each engine knob the presets read
/// parses by the presets' own rule (a preset that meets a malformed one
/// does not fail: it runs as if the knob were unset, or inline for scan
/// threads).
fn check_env(vars: &Vars) -> Result<(), String> {
    if let Some((name, _)) = vars.iter().find(|(k, _)| !KNOBS.contains(&k.as_str())) {
        return Err(format!(
            "{name} is not a known variable ({})",
            KNOBS.join(", ")
        ));
    }
    knob(vars, "P2PMAL_SHARDS", SimConfig::parse_shards)?;
    knob(
        vars,
        "P2PMAL_SHARD_WINDOW_MS",
        SimConfig::parse_shard_window_us,
    )?;
    knob(vars, "P2PMAL_SCAN_THREADS", parse_scan_threads)?;
    knob(vars, "P2PMAL_JOURNAL_SAMPLE", TelemetryConfig::parse_sample)?;
    Ok(())
}

/// `run_study`'s configuration from the environment.
#[derive(Debug, Clone, PartialEq)]
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
}

impl BenchConfig {
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(&env_vars())
    }

    /// [`Self::from_env`] over any set of variables.
    fn from_vars(vars: &Vars) -> Result<Self, String> {
        check_env(vars)?;
        let seeds = match var(vars, "P2PMAL_SEEDS") {
            Some(v) if !v.trim().is_empty() => Some(
                v.split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| format!("P2PMAL_SEEDS={v:?}: {s:?} is not a seed"))
                    })
                    .collect::<Result<Vec<u64>, _>>()?,
            ),
            _ => None,
        };
        let faults = var(vars, "P2PMAL_FAULTS").unwrap_or("none").to_string();
        if fault_profile(&faults).is_none() {
            return Err(format!(
                "P2PMAL_FAULTS={faults:?} is not a known profile (none|mild|harsh)"
            ));
        }
        Ok(BenchConfig {
            quick: var(vars, "P2PMAL_QUICK") == Some("1"),
            seed: parsed(vars, "P2PMAL_SEED")?.unwrap_or(2006),
            days: parsed(vars, "P2PMAL_DAYS")?,
            seeds,
            faults,
            retries: parsed(vars, "P2PMAL_RETRIES")?,
        })
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

    /// The two-network study this configuration selects.
    pub fn study(&self) -> Study {
        let (mut lw, mut ft) = if self.quick {
            (
                LimewireScenario::quick(self.seed),
                OpenFtScenario::quick(self.seed ^ 0xF7),
            )
        } else {
            (
                LimewireScenario::paper_scale(self.seed),
                OpenFtScenario::paper_scale(self.seed ^ 0xF7),
            )
        };
        if let Some(days) = self.days {
            lw.days = days;
            ft.days = days;
        }
        let (plan, retry) = self.fault_plan();
        Study::new()
            .with_limewire(lw.with_faults(plan, retry))
            .with_openft(ft.with_faults(plan, retry))
    }
}

/// The mega-tier world `run_mega` runs: `P2PMAL_MEGA_NODES` servents
/// (default 50,000) for `P2PMAL_DAYS` days at `P2PMAL_SEED` (default 42, the
/// seed `bench/BENCH_mega.json` records).
pub fn mega_from_env() -> Result<MegaScenario, String> {
    mega_from_vars(&env_vars())
}

fn mega_from_vars(vars: &Vars) -> Result<MegaScenario, String> {
    check_env(vars)?;
    let mut scen = MegaScenario::new(
        parsed(vars, "P2PMAL_SEED")?.unwrap_or(42),
        parsed(vars, "P2PMAL_MEGA_NODES")?.unwrap_or(50_000),
    );
    if let Some(days) = parsed(vars, "P2PMAL_DAYS")? {
        scen.days = days;
    }
    Ok(scen)
}

/// Writes `program`'s machine-readable summary to `P2PMAL_BENCH_JSON`, else
/// `target/telemetry/<file>`, and says on stderr where or why not. False
/// when it could not, which both programs turn into exit status 1.
pub fn write_summary(program: &str, file: &str, doc: &Value) -> bool {
    let path =
        std::env::var("P2PMAL_BENCH_JSON").unwrap_or_else(|_| format!("target/telemetry/{file}"));
    let written = write_json(&path, doc);
    match &written {
        Ok(()) => eprintln!("[{program}] wrote summary to {path}"),
        Err(e) => eprintln!("[{program}] {e}"),
    }
    written.is_ok()
}

/// Writes `doc` to `path`, creating the directory it names (a fresh
/// checkout, or `P2PMAL_BENCH_JSON` pointing at a new artifacts directory).
/// The error names the path.
fn write_json(path: &str, doc: &Value) -> Result<(), String> {
    let path = Path::new(path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("could not create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_string_compact())
        .map_err(|e| format!("could not write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(set: &[(&str, &str)]) -> Vec<(String, String)> {
        set.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn config(set: &[(&str, &str)]) -> Result<BenchConfig, String> {
        BenchConfig::from_vars(&vars(set))
    }

    #[test]
    fn knobs_parse_or_fail_naming_the_variable() {
        let defaults = config(&[]).expect("nothing set is valid");
        assert_eq!(
            defaults,
            BenchConfig {
                quick: false,
                seed: 2006,
                days: None,
                seeds: None,
                faults: "none".into(),
                retries: None,
            }
        );
        let set = config(&[
            ("P2PMAL_QUICK", "1"),
            ("P2PMAL_SEED", "7"),
            ("P2PMAL_SEEDS", "1, 2,3"),
            ("P2PMAL_DAYS", "3"),
            ("P2PMAL_FAULTS", "harsh"),
            ("P2PMAL_RETRIES", "4"),
        ])
        .expect("every knob well formed");
        assert_eq!(
            set,
            BenchConfig {
                quick: true,
                seed: 7,
                days: Some(3),
                seeds: Some(vec![1, 2, 3]),
                faults: "harsh".into(),
                retries: Some(4),
            }
        );
        for (name, value) in [
            ("P2PMAL_SEED", "abc"),
            ("P2PMAL_SEEDS", "1,x,3"),
            ("P2PMAL_DAYS", "-1"),
            ("P2PMAL_RETRIES", "300"),
            ("P2PMAL_FAULTS", "gentle"),
        ] {
            let err = config(&[(name, value)]).expect_err(name);
            assert!(
                err.contains(name) && err.contains(value),
                "{name}={value}: {err}"
            );
        }

        let mega = mega_from_vars(&vars(&[])).expect("nothing set is valid");
        assert_eq!((mega.seed, mega.nodes, mega.days), (42, 50_000, 2));
        let mega = mega_from_vars(&vars(&[
            ("P2PMAL_SEED", "7"),
            ("P2PMAL_MEGA_NODES", "1000"),
            ("P2PMAL_DAYS", "1"),
        ]))
        .expect("every mega knob well formed");
        assert_eq!((mega.seed, mega.nodes, mega.days), (7, 1_000, 1));
        for (name, value) in [
            ("P2PMAL_SEED", "4x2"),
            ("P2PMAL_MEGA_NODES", "50k"),
            ("P2PMAL_DAYS", "two"),
        ] {
            let err = mega_from_vars(&vars(&[(name, value)])).expect_err(name);
            assert!(
                err.contains(name) && err.contains(value),
                "{name}={value}: {err}"
            );
        }
    }

    #[test]
    fn malformed_engine_knobs_and_unknown_names_fail_both_programs() {
        let well_formed = vars(&[
            ("P2PMAL_SHARDS", "4"),
            ("P2PMAL_SHARD_WINDOW_MS", "250"),
            ("P2PMAL_SCAN_THREADS", "0"),
            ("P2PMAL_JOURNAL_SAMPLE", "query=10, download=0,"),
        ]);
        BenchConfig::from_vars(&well_formed).expect("engine knobs well formed");
        mega_from_vars(&well_formed).expect("engine knobs well formed");
        for (name, value) in [
            ("P2PMAL_SHARDS", "four"),
            ("P2PMAL_SHARD_WINDOW_MS", "1s"),
            ("P2PMAL_SCAN_THREADS", "x"),
            ("P2PMAL_JOURNAL_SAMPLE", "queries=10"),
            ("P2PMAL_JOURNAL_SAMPLE", "query=-1"),
            ("P2PMAL_SHARD", "4"),
            ("P2PMAL_THREADS", "2"),
        ] {
            let set = vars(&[(name, value)]);
            for err in [
                BenchConfig::from_vars(&set).expect_err(name),
                mega_from_vars(&set).expect_err(name),
            ] {
                assert!(err.contains(name), "{name}={value}: {err}");
            }
        }
    }

    #[test]
    fn readme_knob_table_lists_exactly_the_known_names() {
        let table: Vec<&str> = include_str!("../../../README.md")
            .lines()
            .filter_map(|l| l.strip_prefix("| `P2PMAL_"))
            .map(|rest| &rest[..rest.find('`').expect("closing backtick")])
            .collect();
        let known: Vec<&str> = KNOBS.iter().map(|k| &k["P2PMAL_".len()..]).collect();
        assert_eq!(table, known, "README knob table vs KNOBS");
    }

    #[test]
    fn a_summary_that_cannot_be_written_is_an_error_naming_the_path() {
        let dir = std::env::temp_dir().join(format!("p2pmal-bench-{}", std::process::id()));
        let fresh = dir.join("new").join("BENCH.json");
        write_json(fresh.to_str().unwrap(), &Value::Null).expect("creates its directory");
        assert_eq!(std::fs::read_to_string(&fresh).unwrap(), "null");
        // A path whose parent is a file.
        let blocked = fresh.join("BENCH.json");
        let err =
            write_json(blocked.to_str().unwrap(), &Value::Null).expect_err("parent is a file");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(err.contains(&*fresh.to_string_lossy()), "{err}");
    }
}
