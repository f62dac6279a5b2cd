//! Runs the smoke suite through the real binary and checks what it prints
//! against `BENCHMARK.json`, and that no `P2PMAL_*` knob or run cache of
//! the surrounding shell reaches it.
//!
//! Everything these tests write stays under `benchmark/out/`.

use p2pmal_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const EXE: &str = env!("CARGO_BIN_EXE_p2pmal-benchmark");

fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// One `run --smoke` of the suite: its stdout and the results it wrote.
struct SuiteRun {
    stdout: String,
    results: Value,
}

fn smoke(envs: &[(&str, &str)], cwd: &Path) -> SuiteRun {
    let out = Command::new(EXE)
        .args(["run", "--smoke"])
        .envs(envs.iter().copied())
        .current_dir(cwd)
        .output()
        .expect("launch the suite");
    let stdout = String::from_utf8(out.stdout).expect("suite prints UTF-8");
    assert!(
        out.status.success(),
        "smoke suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = std::fs::read_to_string(benchmark_dir().join("out/results.json"))
        .expect("suite wrote results.json");
    SuiteRun {
        stdout,
        results: p2pmal_json::parse(&results).expect("results.json parses"),
    }
}

/// An empty directory under `out/` to run from.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = benchmark_dir().join("out/test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The suite with no knob set; shared, because two suites must not run at
/// once (they write the same `out/results.json`).
fn clean_run() -> &'static SuiteRun {
    static RUN: OnceLock<SuiteRun> = OnceLock::new();
    RUN.get_or_init(|| smoke(&[], &scratch_dir("clean-cwd")))
}

/// Relative path -> length of every file under `dir`, skipping `skip`.
fn listing(dir: &Path, skip: &[&str]) -> BTreeMap<String, u64> {
    fn walk(root: &Path, dir: &Path, skip: &[&str], into: &mut BTreeMap<String, u64>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            let rel = path
                .strip_prefix(root)
                .expect("under root")
                .to_string_lossy()
                .to_string();
            if skip.contains(&rel.as_str()) {
                continue;
            }
            if path.is_dir() {
                walk(root, &path, skip, into);
            } else {
                into.insert(rel, e.metadata().map_or(0, |m| m.len()));
            }
        }
    }
    let mut into = BTreeMap::new();
    walk(dir, dir, skip, &mut into);
    into
}

/// `workload -> (metric -> unit)` from the `metric` lines of a suite run.
fn printed_metrics(stdout: &str) -> BTreeMap<String, BTreeMap<String, String>> {
    let mut by_workload: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for line in stdout.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", workload, name, .., unit] = tokens.as_slice() {
            let clash = by_workload
                .entry(workload.to_string())
                .or_default()
                .insert(name.to_string(), unit.to_string());
            assert!(clash.is_none(), "{workload} {name} printed twice");
        }
    }
    by_workload
}

fn names(section: &Value) -> BTreeSet<String> {
    section
        .as_arr()
        .expect("an array")
        .iter()
        .map(|m| m["name"].as_str().expect("a name").to_string())
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// A scenario `Debug` string with the journal file's process id removed
/// (`out/tmp/<pid>.jsonl`), the one part that differs between two runs.
fn without_pid(scenario: &str) -> String {
    match scenario.split_once("out/tmp/") {
        Some((head, tail)) => {
            format!(
                "{head}out/tmp/{}",
                tail.trim_start_matches(|c: char| c.is_ascii_digit())
            )
        }
        None => scenario.to_string(),
    }
}

#[test]
fn benchmark_json_is_generated_from_the_spec() {
    let out = Command::new(EXE)
        .arg("benchmark-json")
        .output()
        .expect("launch");
    let generated = p2pmal_json::parse(&String::from_utf8_lossy(&out.stdout)).expect("parses");
    let committed = std::fs::read_to_string(benchmark_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        p2pmal_json::parse(&committed).expect("parses"),
        generated,
        "regenerate with `p2pmal-benchmark benchmark-json > BENCHMARK.json`"
    );
    assert!(committed.len() <= 64 * 1024);
    for w in generated["workloads"].as_arr().unwrap() {
        assert!(is_name(w["name"].as_str().unwrap()));
        let why = w["why"].as_str().unwrap();
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
    }
    assert!(generated["end_to_end"]
        .as_arr()
        .unwrap()
        .iter()
        .any(|m| m["name"] == "setup_s" && m["unit"] == "s" && m["better"] == "lower"));
    for m in generated["end_to_end"].as_arr().unwrap() {
        let bound = m["bound"].as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
}

#[test]
fn printed_names_are_the_names_in_benchmark_json() {
    let run = clean_run();
    let bench = p2pmal_json::parse(
        &std::fs::read_to_string(benchmark_dir().join("../BENCHMARK.json")).unwrap(),
    )
    .unwrap();
    let workloads = names(&bench["workloads"]);
    let end_to_end = names(&bench["end_to_end"]);
    let per_layer = names(&bench["per_layer"]);
    let expected: BTreeSet<String> = end_to_end.union(&per_layer).cloned().collect();
    assert_eq!(
        expected.len(),
        end_to_end.len() + per_layer.len(),
        "a name is used twice"
    );

    // The suite runs every workload; BENCHMARK.json lists the ones steady
    // enough across seeds for the driver to gate on.
    let printed = printed_metrics(&run.stdout);
    let gated = workloads;
    let workloads: BTreeSet<String> = printed.keys().cloned().collect();
    assert_eq!(workloads.len(), 5);
    assert!(gated.is_subset(&workloads), "{gated:?} vs {workloads:?}");
    for (workload, metrics) in &printed {
        assert_eq!(
            metrics.keys().cloned().collect::<BTreeSet<_>>(),
            expected,
            "{workload} prints another metric set than BENCHMARK.json lists"
        );
        for (name, unit) in metrics {
            assert!(is_name(name), "{name}");
            let listed = bench["end_to_end"]
                .as_arr()
                .unwrap()
                .iter()
                .chain(bench["per_layer"].as_arr().unwrap())
                .find(|m| m["name"] == name.as_str())
                .unwrap();
            assert!(
                !unit.is_empty() && listed["unit"] == unit.as_str(),
                "{name} {unit}"
            );
        }
    }

    // Layer -> end-to-end predictions must name things that exist.
    let layers = run.results["spec"]["layers"].as_arr().unwrap();
    let layer_names: BTreeSet<&str> = layers.iter().map(|l| l["name"].as_str().unwrap()).collect();
    for m in &per_layer {
        let layer = m.split('.').next().unwrap();
        assert!(
            layer_names.contains(layer),
            "{m} belongs to no listed layer"
        );
    }
    for layer in layers {
        let moves = layer["moves"].as_arr().unwrap();
        assert!(!moves.is_empty(), "{layer:?}");
        for mv in moves {
            assert!(
                end_to_end.contains(mv["metric"].as_str().unwrap()),
                "{mv:?}"
            );
            for w in mv["workloads"].as_arr().unwrap() {
                assert!(workloads.contains(w.as_str().unwrap()), "{mv:?}");
            }
        }
    }

    // One trace file per workload, spans with parents and self times under
    // one root.
    for w in &workloads {
        let path = benchmark_dir().join(format!("out/trace_{w}.json"));
        let trace = p2pmal_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let spans = trace["spans"].as_arr().unwrap();
        assert_eq!(spans[0]["name"], "benchmark.workload");
        assert_eq!(spans[0]["parent"], Value::Null);
        for s in &spans[1..] {
            let parent = s["parent"].as_u64().expect("every other span has a parent") as usize;
            assert!(parent < s["id"].as_u64().unwrap() as usize);
            let dur = s["end_ns"].as_u64().unwrap() - s["start_ns"].as_u64().unwrap();
            assert!(s["self_ns"].as_u64().unwrap() <= dur);
        }
        for needed in [
            "core.setup",
            "core.run",
            "netsim.day",
            "core.extract",
            "analysis.render",
        ] {
            assert!(
                spans.iter().any(|s| s["name"] == needed),
                "{w} has no {needed} span"
            );
        }
    }
}

#[test]
fn knobs_and_run_cache_do_not_reach_the_benchmark() {
    let clean = clean_run();

    // A populated run cache where `p2pmal_bench` would look for one.
    let fake_target = scratch_dir("fake-target");
    let cache = fake_target.join("p2pmal-runs");
    std::fs::create_dir_all(&cache).unwrap();
    std::fs::write(cache.join("limewire-paper-2006-1.json"), "{\"stale\":true}").unwrap();
    std::fs::write(cache.join("openft-paper-2006-35.json"), "{\"stale\":true}").unwrap();

    let cwd = scratch_dir("knobs-cwd");
    let repo = benchmark_dir().join("..");
    let outside_before = listing(&benchmark_dir(), &["out", "target"]);
    let repo_cache_before = listing(&repo.join("target/p2pmal-runs"), &[]);
    let cache_before = listing(&cache, &[]);

    let knobs = smoke(
        &[
            ("P2PMAL_SHARDS", "4"),
            ("P2PMAL_SCAN_THREADS", "8"),
            ("P2PMAL_JOURNAL", "/nonexistent/x"),
            ("P2PMAL_TRACE", "2"),
            ("P2PMAL_FAULTS", "harsh"),
            ("CARGO_TARGET_DIR", fake_target.to_str().unwrap()),
        ],
        &cwd,
    );

    let Value::Obj(workloads) = &clean.results["workloads"] else {
        panic!("workloads is an object");
    };
    for (w, a) in workloads {
        let b = &knobs.results["workloads"][w.as_str()];
        assert_eq!(a["trajectory_digest"], b["trajectory_digest"], "{w}");
        assert_eq!(
            without_pid(a["scenario"].as_str().unwrap()),
            without_pid(b["scenario"].as_str().unwrap()),
            "{w}"
        );
        for m in clean.results["spec"]["per_layer"].as_arr().unwrap() {
            if m["exact"].as_bool() == Some(true) {
                let name = m["name"].as_str().unwrap();
                assert_eq!(a["per_layer"][name], b["per_layer"][name], "{w} {name}");
            }
        }
        for name in ["app_bytes_per_node", "ok_share"] {
            assert_eq!(
                a["end_to_end"][name]["values"], b["end_to_end"][name]["values"],
                "{w} {name}"
            );
        }
    }

    assert_eq!(
        listing(&cwd, &[]),
        BTreeMap::new(),
        "files appeared in the working directory"
    );
    assert_eq!(
        listing(&cache, &[]),
        cache_before,
        "the run cache was touched"
    );
    assert_eq!(
        listing(&repo.join("target/p2pmal-runs"), &[]),
        repo_cache_before
    );
    assert_eq!(
        listing(&benchmark_dir(), &["out", "target"]),
        outside_before
    );
    assert!(!Path::new("/nonexistent").exists());
    assert_eq!(
        listing(&benchmark_dir().join("out/tmp"), &[]),
        BTreeMap::new(),
        "a journal was left behind"
    );
}
