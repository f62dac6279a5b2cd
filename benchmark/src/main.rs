//! The p2pmal benchmark.
//!
//! ```text
//! p2pmal-benchmark --workload W --seed S --seconds N --trace 0|1 [--smoke]
//!     one workload in this process (the driver's contract)
//! p2pmal-benchmark run [--seed S] [--repeats R] [--seconds N] [--smoke]
//!     the whole suite, one child at a time; writes out/results.json
//! p2pmal-benchmark compare <a.json> <b.json>
//! p2pmal-benchmark self-check [run options]
//! p2pmal-benchmark benchmark-json
//!     prints the content of BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for workloads, metrics and bounds.

mod child;
mod probes;
mod spec;
mod stats;
mod suite;
mod tracer;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `--flag value` pairs plus bare `--smoke`, in any order.
struct Args {
    pairs: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            pairs: Vec::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--smoke" {
                parsed.smoke = true;
            } else if let Some(flag) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                parsed.pairs.push((flag.to_string(), value.clone()));
            } else {
                parsed.positional.push(a.clone());
            }
        }
        Ok(parsed)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.pairs.iter().find(|(f, _)| f == flag) {
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{flag}: cannot parse {v:?}")),
            None => Ok(default),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown option --{f}")),
            None => Ok(()),
        }
    }
}

fn suite_options(args: &Args) -> Result<suite::Options, String> {
    args.only(&["seed", "repeats", "seconds"])?;
    let repeats = if args.smoke { 1 } else { 3 };
    let seconds = if args.smoke {
        1.0
    } else {
        spec::RUN_SECONDS as f64
    };
    Ok(suite::Options {
        seed: args.get("seed", 2006)?,
        repeats: args.get("repeats", repeats)?,
        seconds: args.get("seconds", seconds)?,
        smoke: args.smoke,
    })
}

fn dispatch(argv: &[String], out: &Path) -> Result<bool, String> {
    let args = Args::parse(argv)?;
    match args.positional.first().map(String::as_str) {
        None => {
            args.only(&["workload", "seed", "seconds", "trace"])?;
            let workload: String = args.get("workload", String::new())?;
            if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
                return Err(format!(
                    "--workload must be one of the {} workloads",
                    spec::WORKLOADS.len()
                ));
            }
            let trace: u8 = args.get("trace", 0)?;
            Ok(child::run(
                &child::Options {
                    workload,
                    seed: args.get("seed", 2006)?,
                    seconds: args.get("seconds", spec::RUN_SECONDS as f64)?,
                    trace: trace != 0,
                    smoke: args.smoke,
                },
                out,
            ))
        }
        Some("run") => suite::run(&suite_options(&args)?, out, "results.json"),
        Some("self-check") => suite::self_check(&suite_options(&args)?, out),
        Some("compare") => match &args.positional[1..] {
            [a, b] => suite::compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two result files".into()),
        },
        Some("benchmark-json") => {
            println!("{}", spec::benchmark_json().to_string_pretty());
            Ok(true)
        }
        Some(other) => Err(format!("unknown subcommand {other}")),
    }
}

fn main() -> ExitCode {
    // Hermetic: no knob of the surrounding shell reaches a scenario. Done
    // before any thread exists.
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("P2PMAL_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    match dispatch(&argv, &out) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("p2pmal-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
