//! Configuration of the two programs that simulate: `run_study` (both
//! networks, every table, figure and paper row) and `run_mega` (one
//! mega-tier population).
//!
//! Both are driven by `P2PMAL_*` environment variables, read once by
//! [`BenchConfig::from_env`] or [`MegaConfig::from_env`] and parsed once
//! into typed values that are set on the scenarios; nothing else in the
//! workspace reads the environment. [`KNOBS`] is the one list of their
//! names, and README's knob table (kept equal to it by a unit test) says
//! what each takes, its default and which program reads it. Either program
//! exits 2 on a set name outside [`KNOBS`], on a knob it reads that does
//! not parse, or on a journal file it cannot create; it never falls back to
//! the default.

use p2pmal_core::{fault_profile, LimewireScenario, MegaScenario, OpenFtScenario, Study};
use p2pmal_crawler::RetryPolicy;
use p2pmal_json::Value;
use p2pmal_netsim::telemetry::{journal_path_for, JsonlSink};
use p2pmal_netsim::{FaultPlan, SimConfig, TelemetryConfig};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Every `P2PMAL_*` variable `run_study` and `run_mega` know, in the order
/// of README's knob table.
pub const KNOBS: [&str; 13] = [
    "P2PMAL_QUICK",
    "P2PMAL_SEED",
    "P2PMAL_SEEDS",
    "P2PMAL_DAYS",
    "P2PMAL_FAULTS",
    "P2PMAL_RETRIES",
    "P2PMAL_MEGA_NODES",
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

/// The knobs both programs read the same way, each parsed once.
#[derive(Debug, Clone, PartialEq)]
pub struct Common {
    /// `P2PMAL_JOURNAL` (unset or empty writes none), `P2PMAL_TRACE` and
    /// `P2PMAL_JOURNAL_SAMPLE`; off when none is set.
    pub telemetry: TelemetryConfig,
    /// `P2PMAL_SHARDS`, default 1.
    pub shards: usize,
    /// `P2PMAL_SHARD_WINDOW_MS` in microseconds, default 1 s.
    pub shard_window_us: u64,
    /// `P2PMAL_BENCH_JSON`, else `target/telemetry/<the program's file>`:
    /// where the machine-readable summary goes.
    pub summary: String,
}

impl Common {
    /// Checks that every set name is one of [`KNOBS`], then parses the
    /// knobs both programs read. `summary_file` is the program's default
    /// summary under `target/telemetry/`. Creates nothing.
    fn from_vars(vars: &Vars, summary_file: &str) -> Result<Self, String> {
        if let Some((name, _)) = vars.iter().find(|(k, _)| !KNOBS.contains(&k.as_str())) {
            return Err(format!(
                "{name} is not a known variable ({})",
                KNOBS.join(", ")
            ));
        }
        Ok(Common {
            telemetry: TelemetryConfig {
                journal: var(vars, "P2PMAL_JOURNAL")
                    .filter(|p| !p.trim().is_empty())
                    .map(PathBuf::from),
                trace: knob(vars, "P2PMAL_TRACE", TelemetryConfig::parse_trace)?.unwrap_or(false),
                sample: knob(vars, "P2PMAL_JOURNAL_SAMPLE", TelemetryConfig::parse_sample)?
                    .unwrap_or(TelemetryConfig::off().sample),
            },
            shards: knob(vars, "P2PMAL_SHARDS", SimConfig::parse_shards)?.unwrap_or(1),
            shard_window_us: knob(
                vars,
                "P2PMAL_SHARD_WINDOW_MS",
                SimConfig::parse_shard_window_us,
            )?
            .unwrap_or(1_000_000),
            summary: var(vars, "P2PMAL_BENCH_JSON").map_or_else(
                || format!("target/telemetry/{summary_file}"),
                str::to_string,
            ),
        })
    }

    /// Creates the journal file of each network in `labels` under the
    /// journal base (see [`journal_path_for`]) the way the run's sink
    /// will, so a journal that cannot be written stops the program before
    /// it simulates instead of leaving a run without one. The run truncates
    /// each file again when it opens its sink.
    fn create_journals(&self, labels: &[&str]) -> Result<(), String> {
        let Some(base) = &self.telemetry.journal else {
            return Ok(());
        };
        for label in labels {
            let path = journal_path_for(base, label);
            JsonlSink::create(&path).map_err(|e| {
                format!(
                    "P2PMAL_JOURNAL={:?}: cannot create {}: {e}",
                    base.display(),
                    path.display()
                )
            })?;
        }
        Ok(())
    }

    /// Creates the summary's directory and opens the file for writing the
    /// way [`write_summary`] will after the run, so a summary that cannot
    /// be written stops the program before it simulates instead of after.
    /// An existing summary is left as it is until the run replaces it.
    fn open_summary(&self) -> Result<(), String> {
        let path = Path::new(&self.summary);
        let opened = create_parent(path).and_then(|()| {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(path);
            file.map(drop)
                .map_err(|e| format!("could not write {}: {e}", path.display()))
        });
        opened.map_err(|e| format!("P2PMAL_BENCH_JSON={:?}: {e}", self.summary))
    }
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
    /// Telemetry, shards, window and summary path.
    pub common: Common,
}

impl BenchConfig {
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(&env_vars())
    }

    /// [`Self::from_env`] over any set of variables.
    fn from_vars(vars: &Vars) -> Result<Self, String> {
        let common = Common::from_vars(vars, "BENCH_study.json")?;
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
        if seeds.is_some() && common.telemetry.journal.is_some() {
            return Err("P2PMAL_SEEDS and P2PMAL_JOURNAL cannot be set together: \
                        every seed of the sweep would write the same journal files"
                .to_string());
        }
        common.create_journals(&["limewire", "openft"])?;
        common.open_summary()?;
        let faults = var(vars, "P2PMAL_FAULTS").unwrap_or("none").to_string();
        if fault_profile(&faults).is_none() {
            return Err(format!(
                "P2PMAL_FAULTS={faults:?} is not a known profile (none|mild|harsh)"
            ));
        }
        Ok(BenchConfig {
            quick: knob(vars, "P2PMAL_QUICK", |v| match v {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            })?
            .unwrap_or(false),
            seed: parsed(vars, "P2PMAL_SEED")?.unwrap_or(2006),
            days: parsed(vars, "P2PMAL_DAYS")?,
            seeds,
            faults,
            retries: parsed(vars, "P2PMAL_RETRIES")?,
            common,
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
        let (lw, ft) = self.scenarios();
        let (plan, retry) = self.fault_plan();
        Study::new()
            .with_limewire(lw.with_faults(plan, retry))
            .with_openft(ft.with_faults(plan, retry))
    }

    /// The study's two networks before the fault profile is applied.
    fn scenarios(&self) -> (LimewireScenario, OpenFtScenario) {
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
        let c = &self.common;
        (lw.telemetry, lw.shards, lw.shard_window_us) =
            (c.telemetry.clone(), c.shards, c.shard_window_us);
        (ft.telemetry, ft.shards, ft.shard_window_us) =
            (c.telemetry.clone(), c.shards, c.shard_window_us);
        (lw, ft)
    }
}

/// `run_mega`'s configuration from the environment.
#[derive(Debug, Clone)]
pub struct MegaConfig {
    /// `P2PMAL_MEGA_NODES` servents (default 50,000) for `P2PMAL_DAYS` days
    /// at `P2PMAL_SEED` (default 42, the seed `bench/BENCH_mega.json`
    /// records), with the [`Common`] engine knobs set on it.
    pub scenario: MegaScenario,
    /// Where the summary goes (see [`Common::summary`]).
    pub summary: String,
}

impl MegaConfig {
    pub fn from_env() -> Result<Self, String> {
        mega_from_vars(&env_vars())
    }
}

fn mega_from_vars(vars: &Vars) -> Result<MegaConfig, String> {
    let common = Common::from_vars(vars, "BENCH_mega.json")?;
    common.create_journals(&["mega"])?;
    common.open_summary()?;
    let defaults = MegaScenario::new(
        parsed(vars, "P2PMAL_SEED")?.unwrap_or(42),
        parsed(vars, "P2PMAL_MEGA_NODES")?.unwrap_or(50_000),
    );
    let scenario = MegaScenario {
        days: parsed(vars, "P2PMAL_DAYS")?.unwrap_or(defaults.days),
        telemetry: common.telemetry,
        shards: common.shards,
        shard_window_us: common.shard_window_us,
        ..defaults
    };
    Ok(MegaConfig {
        scenario,
        summary: common.summary,
    })
}

/// Writes `program`'s machine-readable summary to `path` and says on stderr
/// where or why not. False when it could not, which both programs turn into
/// exit status 1.
pub fn write_summary(program: &str, path: &str, doc: &Value) -> bool {
    let written = write_json(path, doc);
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
    create_parent(path)?;
    std::fs::write(path, doc.to_string_compact())
        .map_err(|e| format!("could not write {}: {e}", path.display()))
}

/// Creates the directory `path` names, if it names one.
fn create_parent(path: &Path) -> Result<(), String> {
    match path.parent().filter(|d| !d.as_os_str().is_empty()) {
        Some(dir) => std::fs::create_dir_all(dir)
            .map_err(|e| format!("could not create {}: {e}", dir.display())),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where the tests' summaries go unless a test names another path:
    /// parsing opens the summary, and the default under `target/` would
    /// leave files in the crate.
    const NO_SUMMARY: &str = "/dev/null";

    /// `set`, with the summary sent to [`NO_SUMMARY`] unless `set` names one.
    fn vars(set: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut vars = raw_vars(set);
        if !set.iter().any(|(k, _)| *k == "P2PMAL_BENCH_JSON") {
            vars.push(("P2PMAL_BENCH_JSON".into(), NO_SUMMARY.into()));
        }
        vars
    }

    fn raw_vars(set: &[(&str, &str)]) -> Vec<(String, String)> {
        set.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn config(set: &[(&str, &str)]) -> Result<BenchConfig, String> {
        BenchConfig::from_vars(&vars(set))
    }

    /// What [`Common`] holds when no knob but the test summary is set.
    fn unset() -> Common {
        Common {
            telemetry: TelemetryConfig::off(),
            shards: 1,
            shard_window_us: 1_000_000,
            summary: NO_SUMMARY.into(),
        }
    }

    #[test]
    fn the_default_summary_is_the_programs_file_under_target() {
        for file in ["BENCH_study.json", "BENCH_mega.json"] {
            let common = Common::from_vars(&raw_vars(&[]), file).expect("nothing set");
            assert_eq!(common.summary, format!("target/telemetry/{file}"));
        }
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
                common: unset(),
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
                common: unset(),
            }
        );
        assert!(!config(&[("P2PMAL_QUICK", "0")]).unwrap().quick);
        for (name, value) in [
            ("P2PMAL_QUICK", "true"),
            ("P2PMAL_QUICK", "2"),
            ("P2PMAL_QUICK", ""),
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

        let mega = mega_from_vars(&vars(&[]))
            .expect("nothing set is valid")
            .scenario;
        assert_eq!((mega.seed, mega.nodes, mega.days), (42, 50_000, 2));
        let mega = mega_from_vars(&vars(&[
            ("P2PMAL_SEED", "7"),
            ("P2PMAL_MEGA_NODES", "1000"),
            ("P2PMAL_DAYS", "1"),
        ]))
        .expect("every mega knob well formed")
        .scenario;
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
    fn each_engine_knob_is_parsed_once_onto_every_scenario() {
        let engine = |s: &LimewireScenario| (s.telemetry.clone(), s.shards, s.shard_window_us);
        let (lw, ft) = config(&[]).unwrap().scenarios();
        let mega = mega_from_vars(&vars(&[])).unwrap().scenario;
        let preset = LimewireScenario::paper_scale(2006);
        assert_eq!(engine(&lw), engine(&preset));
        assert_eq!(engine(&preset), (TelemetryConfig::off(), 1, 1_000_000));
        let preset = OpenFtScenario::paper_scale(2006);
        assert_eq!(
            (ft.telemetry, ft.shards, ft.shard_window_us),
            (preset.telemetry, preset.shards, preset.shard_window_us)
        );
        let preset = MegaScenario::new(42, 50_000);
        assert_eq!(
            (mega.telemetry, mega.shards, mega.shard_window_us),
            (preset.telemetry, preset.shards, preset.shard_window_us)
        );

        let dir = std::env::temp_dir().join(format!("p2pmal-knobs-{}", std::process::id()));
        let base = dir.join("journal.jsonl");
        let summary = dir.join("out").join("summary.json");
        let set = vars(&[
            ("P2PMAL_QUICK", "1"),
            ("P2PMAL_SHARDS", "4"),
            ("P2PMAL_SHARD_WINDOW_MS", "250"),
            ("P2PMAL_JOURNAL_SAMPLE", "query=10"),
            ("P2PMAL_TRACE", "yes"),
            ("P2PMAL_JOURNAL", base.to_str().unwrap()),
            ("P2PMAL_BENCH_JSON", summary.to_str().unwrap()),
        ]);
        let cfg = BenchConfig::from_vars(&set).unwrap();
        let mega = mega_from_vars(&set).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let mut sample = [1; p2pmal_netsim::telemetry::CATEGORY_COUNT];
        sample[p2pmal_netsim::telemetry::EventCategory::Query as usize] = 10;
        let expected = TelemetryConfig {
            journal: Some(base),
            trace: true,
            sample,
        };
        let (lw, ft) = cfg.scenarios();
        assert_eq!(engine(&lw), (expected.clone(), 4, 250_000));
        assert_eq!(
            (ft.telemetry, ft.shards, ft.shard_window_us),
            (expected.clone(), 4, 250_000)
        );
        let m = mega.scenario;
        assert_eq!(
            (m.telemetry, m.shards, m.shard_window_us),
            (expected, 4, 250_000)
        );
        assert_eq!(cfg.common.summary, summary.to_str().unwrap());
        assert_eq!(mega.summary, summary.to_str().unwrap());
    }

    #[test]
    fn malformed_engine_knobs_and_unknown_names_fail_both_programs() {
        let well_formed = vars(&[
            ("P2PMAL_SHARDS", "4"),
            ("P2PMAL_SHARD_WINDOW_MS", "250"),
            ("P2PMAL_JOURNAL_SAMPLE", "query=10, download=0,"),
        ]);
        BenchConfig::from_vars(&well_formed).expect("engine knobs well formed");
        mega_from_vars(&well_formed).expect("engine knobs well formed");
        for (name, value) in [
            ("P2PMAL_TRACE", "2"),
            ("P2PMAL_TRACE", "verbose"),
            ("P2PMAL_SHARDS", "four"),
            ("P2PMAL_SHARD_WINDOW_MS", "1s"),
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
        // Scanning has one mode now: the old thread-count knob, even at a
        // value it used to take, is an unknown name.
        let set = vars(&[("P2PMAL_SCAN_THREADS", "2")]);
        for err in [
            BenchConfig::from_vars(&set).expect_err("run_study"),
            mega_from_vars(&set).expect_err("run_mega"),
        ] {
            assert!(
                err.contains("P2PMAL_SCAN_THREADS is not a known variable"),
                "{err}"
            );
        }
    }

    #[test]
    fn a_seed_sweep_cannot_write_a_journal() {
        let dir = std::env::temp_dir().join(format!("p2pmal-sweep-{}", std::process::id()));
        let base = dir.join("journal.jsonl");
        let set = vars(&[
            ("P2PMAL_SEEDS", "1,2"),
            ("P2PMAL_JOURNAL", base.to_str().unwrap()),
        ]);
        let err = BenchConfig::from_vars(&set).expect_err("sweep with a journal");
        assert!(
            err.contains("P2PMAL_SEEDS") && err.contains("P2PMAL_JOURNAL"),
            "{err}"
        );
        assert!(!dir.exists(), "nothing is created before the error");
        // Either one alone is fine; an empty journal base writes none.
        let empty = vars(&[("P2PMAL_SEEDS", "1,2"), ("P2PMAL_JOURNAL", "")]);
        BenchConfig::from_vars(&empty).expect("no journal");
    }

    #[test]
    fn a_journal_that_cannot_be_created_fails_both_programs() {
        let dir = std::env::temp_dir().join(format!("p2pmal-journal-{}", std::process::id()));
        let base = dir.join("new").join("journal.jsonl");
        let writable = vars(&[("P2PMAL_JOURNAL", base.to_str().unwrap())]);
        BenchConfig::from_vars(&writable).expect("journal directory is created");
        mega_from_vars(&writable).expect("journal directory is created");
        for label in ["limewire", "openft", "mega"] {
            assert!(journal_path_for(&base, label).is_file(), "{label}");
        }
        // A base whose parent is a file.
        let blocked = journal_path_for(&base, "mega").join("journal.jsonl");
        let set = vars(&[("P2PMAL_JOURNAL", blocked.to_str().unwrap())]);
        let errs = [
            (
                BenchConfig::from_vars(&set).expect_err("run_study"),
                "limewire",
            ),
            (mega_from_vars(&set).expect_err("run_mega"), "mega"),
        ];
        std::fs::remove_dir_all(&dir).unwrap();
        for (err, label) in errs {
            let path = journal_path_for(&blocked, label);
            assert!(err.contains("P2PMAL_JOURNAL"), "{err}");
            assert!(err.contains(&*path.to_string_lossy()), "{err}");
        }
    }

    /// A summary path that cannot be written, empty or under a regular
    /// file, stops both programs at the parse, naming the variable; one in
    /// a new directory is created there, and an existing summary is kept.
    #[test]
    fn a_summary_that_cannot_be_opened_fails_both_programs() {
        let dir = std::env::temp_dir().join(format!("p2pmal-summary-{}", std::process::id()));
        let fresh = dir.join("new").join("BENCH.json");
        let set = vars(&[("P2PMAL_BENCH_JSON", fresh.to_str().unwrap())]);
        BenchConfig::from_vars(&set).expect("the directory is created");
        assert!(fresh.is_file());
        std::fs::write(&fresh, "kept").unwrap();
        mega_from_vars(&set).expect("an existing summary opens");
        assert_eq!(std::fs::read_to_string(&fresh).unwrap(), "kept");
        let blocked = fresh.join("BENCH.json");
        let mut errs = Vec::new();
        for path in ["", blocked.to_str().unwrap()] {
            let set = vars(&[("P2PMAL_BENCH_JSON", path)]);
            errs.push((path, BenchConfig::from_vars(&set).expect_err("run_study")));
            errs.push((path, mega_from_vars(&set).expect_err("run_mega")));
        }
        std::fs::remove_dir_all(&dir).unwrap();
        for (path, err) in errs {
            assert!(err.contains("P2PMAL_BENCH_JSON"), "{path:?}: {err}");
            assert!(err.contains(&format!("{path:?}")), "{path:?}: {err}");
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
