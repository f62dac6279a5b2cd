//! `run`, `compare` and `self-check`: the whole suite as children of one
//! driver process, its `results.json`, and the verdict between two of them.

use crate::spec::{self, obj};
use crate::stats::{max, median, min, spread};
use p2pmal_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct Options {
    pub seed: u64,
    /// Untraced children per workload, run round-robin across workloads so
    /// a slow minute on a shared host lands on all of them.
    pub repeats: usize,
    pub seconds: f64,
    pub smoke: bool,
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host every number was taken on.
pub fn host_manifest() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string());
    #[cfg(target_arch = "x86_64")]
    let (sha, ssse3, sse41) = (
        std::arch::is_x86_feature_detected!("sha"),
        std::arch::is_x86_feature_detected!("ssse3"),
        std::arch::is_x86_feature_detected!("sse4.1"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (sha, ssse3, sse41) = (false, false, false);
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    obj(vec![
        (
            "nproc",
            (std::thread::available_parallelism().map_or(0, |n| n.get()) as u64).into(),
        ),
        ("cpu_model", model.into()),
        ("sha", sha.into()),
        ("ssse3", ssse3.into()),
        ("sse4.1", sse41.into()),
        (
            "rustc",
            command_line("rustc", &["--version"], manifest_dir).into(),
        ),
        (
            "git_revision",
            command_line("git", &["rev-parse", "HEAD"], manifest_dir).into(),
        ),
    ])
}

/// Launches one child and returns its `detail` object and whether it
/// reported every check passed.
fn child(workload: &str, opts: &Options, trace: bool) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot launch {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| format!("{workload} child printed no detail line ({})", out.status))?;
    let detail = p2pmal_json::parse(detail).map_err(|e| format!("{workload} detail: {e}"))?;
    Ok((detail, out.status.success()))
}

fn values_of(details: &[Value], section: &str, metric: &str) -> Vec<f64> {
    details
        .iter()
        .filter_map(|d| d[section].get(metric).and_then(Value::as_f64))
        .collect()
}

/// Runs every workload `repeats` times untraced (round-robin) and once
/// traced, prints every metric, writes `<out>/<name>` and returns whether
/// every check passed.
pub fn run(opts: &Options, out: &Path, name: &str) -> Result<bool, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let host = host_manifest();
    println!("# p2pmal benchmark");
    println!("host {}", host.to_string_compact());
    println!(
        "seed {} repeats {} seconds {} smoke {}",
        opts.seed, opts.repeats, opts.seconds, opts.smoke
    );

    let mut untraced: Vec<Vec<Value>> = vec![Vec::new(); spec::WORKLOADS.len()];
    let mut all_ok = true;
    for rep in 1..=opts.repeats {
        for (i, w) in spec::WORKLOADS.iter().enumerate() {
            let (detail, ok) = child(w.name, opts, false)?;
            eprintln!(
                "[run] {} repeat {rep}/{}: total_s {:.3}",
                w.name,
                opts.repeats,
                detail["end_to_end"]["total_s"].as_f64().unwrap_or(f64::NAN)
            );
            all_ok &= ok;
            untraced[i].push(detail);
        }
    }

    let mut workloads = Vec::new();
    for (w, details) in spec::WORKLOADS.iter().zip(&untraced) {
        let (traced, ok) = child(w.name, opts, true)?;
        all_ok &= ok;
        eprintln!("[run] {} traced", w.name);
        println!("\n## {} — {}", w.name, w.why);
        println!(
            "{} scenario {}",
            w.name,
            details[0]["scenario"].as_str().unwrap_or("?")
        );

        let mut end_to_end = Vec::new();
        for m in &spec::END_TO_END {
            let v = values_of(details, "end_to_end", m.name);
            println!(
                "metric {} {} median {} min {} max {} n {} {}",
                w.name,
                m.name,
                median(&v),
                min(&v),
                max(&v),
                v.len(),
                m.unit
            );
            end_to_end.push((
                m.name,
                obj(vec![
                    ("median", median(&v).into()),
                    ("min", min(&v).into()),
                    ("max", max(&v).into()),
                    ("n", (v.len() as u64).into()),
                    ("unit", m.unit.into()),
                    (
                        "values",
                        Value::Arr(v.iter().map(|x| (*x).into()).collect()),
                    ),
                ]),
            ));
        }
        for m in &spec::PER_LAYER {
            let value = traced["per_layer"][m.name].as_f64().unwrap_or(f64::NAN);
            println!("metric {} {} {value} {}", w.name, m.name, m.unit);
        }
        // Not a metric: the A/B the span-cost figure stands in for.
        let untraced_total = median(&values_of(details, "end_to_end", "total_s"));
        let traced_total = traced["end_to_end"]["total_s"].as_f64().unwrap_or(f64::NAN);
        println!(
            "{} traced total_s {traced_total} vs untraced median {untraced_total} ({:+.2} %)",
            w.name,
            100.0 * (traced_total - untraced_total) / untraced_total
        );

        // Every child of one workload, traced or not, must tell the same
        // simulated story.
        let mut differing = Vec::new();
        for d in details.iter().chain([&traced]) {
            if d["trajectory_digest"] != details[0]["trajectory_digest"] {
                differing.push("trajectory_digest".to_string());
            }
            for name in spec::PER_LAYER
                .iter()
                .filter(|m| m.exact)
                .map(|m| ("per_layer", m.name))
                .chain(spec::EXACT_END_TO_END.iter().map(|n| ("end_to_end", *n)))
            {
                if d[name.0].get(name.1) != details[0][name.0].get(name.1) {
                    differing.push(name.1.to_string());
                }
            }
        }
        differing.sort();
        differing.dedup();
        if !differing.is_empty() {
            all_ok = false;
        }
        let digest = details[0]["trajectory_digest"].as_str().unwrap_or("?");
        println!("{} trajectory_digest {digest}", w.name);
        println!(
            "{} check children_agree {}",
            w.name,
            if differing.is_empty() {
                "ok".to_string()
            } else {
                format!("FAILED: {}", differing.join(", "))
            }
        );
        let checks = &traced["checks"];
        for c in checks.as_arr().unwrap_or(&[]) {
            let verdict = if c["ok"].as_bool() == Some(true) {
                "ok"
            } else {
                "FAILED"
            };
            println!(
                "{} check {} {verdict}: {}",
                w.name,
                c["name"].as_str().unwrap_or("?"),
                c["detail"].as_str().unwrap_or("")
            );
        }
        println!(
            "{} checks made {} failed {}",
            w.name,
            traced["per_layer"]["core.checks_made"]
                .as_f64()
                .unwrap_or(f64::NAN),
            traced["per_layer"]["core.checks_failed"]
                .as_f64()
                .unwrap_or(f64::NAN)
        );

        workloads.push((
            w.name,
            obj(vec![
                ("why", w.why.into()),
                ("scenario", details[0]["scenario"].clone()),
                ("trajectory_digest", digest.into()),
                (
                    "end_to_end",
                    Value::Obj(
                        end_to_end
                            .into_iter()
                            .map(|(n, v)| (n.to_string(), v))
                            .collect(),
                    ),
                ),
                ("per_layer", traced["per_layer"].clone()),
                ("checks", checks.clone()),
                (
                    "children_disagree_on",
                    Value::Arr(differing.into_iter().map(Value::from).collect()),
                ),
                ("trace_file", format!("trace_{}.json", w.name).into()),
            ]),
        ));
    }

    let results = obj(vec![
        ("host", host),
        ("seed", opts.seed.into()),
        ("repeats", (opts.repeats as u64).into()),
        ("seconds", opts.seconds.into()),
        ("smoke", opts.smoke.into()),
        ("ok", all_ok.into()),
        ("spec", spec::spec_json()),
        (
            "workloads",
            Value::Obj(
                workloads
                    .into_iter()
                    .map(|(n, v)| (n.to_string(), v))
                    .collect(),
            ),
        ),
    ]);
    let path = out.join(name);
    std::fs::write(&path, results.to_string_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "\nresults {} — {}",
        path.display(),
        if all_ok {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_ok)
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    p2pmal_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the verdict for every (end-to-end metric, workload) pairing of
/// two result files; returns false on any `regressed` or `differs`.
pub fn compare(parent: &Path, change: &Path) -> Result<bool, String> {
    let (a, b) = (load(parent)?, load(change)?);
    let mut ok = true;
    println!("workload metric parent_median change_median ratio verdict");
    for w in &spec::WORKLOADS {
        let (wa, wb) = (&a["workloads"][w.name], &b["workloads"][w.name]);
        for m in &spec::END_TO_END {
            let values = |side: &Value| -> Vec<f64> {
                side["end_to_end"][m.name]["values"]
                    .as_arr()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Value::as_f64)
                    .collect()
            };
            let (va, vb) = (values(wa), values(wb));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} {} missing from a result file", w.name, m.name));
            }
            let (ma, mb) = (median(&va), median(&vb));
            // Positive = worse, as a share of the parent's median.
            let sign = if m.better == "lower" { 1.0 } else { -1.0 };
            let worse = |x: f64, y: f64| sign * (x - y) > 0.0;
            let worsening = sign * (mb - ma) / ma.abs();
            let widest = spread(&va).max(spread(&vb));
            let every =
                |f: &dyn Fn(f64, f64) -> bool| vb.iter().all(|&x| va.iter().all(|&y| f(x, y)));
            let verdict = if spec::EXACT_END_TO_END.contains(&m.name) {
                if va == vb {
                    "unchanged"
                } else {
                    "differs"
                }
            } else if every(&|x, y| worse(y, x)) && (mb - ma).abs() > max(&va) - min(&va) {
                "improved"
            } else if worsening > m.bound && (every(&worse) || widest <= m.bound) {
                "regressed"
            } else if widest > m.bound {
                "unresolved"
            } else {
                "unchanged"
            };
            ok &= !matches!(verdict, "regressed" | "differs");
            println!(
                "{} {} {ma} {mb} {:.4} (base {ma} {}) {verdict}",
                w.name,
                m.name,
                mb / ma,
                m.unit
            );
        }
        let digests_equal = wa["trajectory_digest"] == wb["trajectory_digest"];
        let mut differing: Vec<&str> = spec::PER_LAYER
            .iter()
            .filter(|m| m.exact && wa["per_layer"].get(m.name) != wb["per_layer"].get(m.name))
            .map(|m| m.name)
            .collect();
        if !digests_equal {
            differing.insert(0, "trajectory_digest");
        }
        ok &= differing.is_empty();
        println!(
            "{} exact {}",
            w.name,
            if differing.is_empty() {
                "unchanged".to_string()
            } else {
                format!("differs: {}", differing.join(", "))
            }
        );
    }
    Ok(ok)
}

/// Two full suite runs of the same build, compared.
pub fn self_check(opts: &Options, out: &Path) -> Result<bool, String> {
    let names = ["selfcheck_a.json", "selfcheck_b.json"];
    let mut ok = true;
    for name in names {
        ok &= run(opts, out, name)?;
    }
    let paths: Vec<PathBuf> = names.iter().map(|n| out.join(n)).collect();
    println!("\n# self-check: {} vs {}", names[0], names[1]);
    Ok(compare(&paths[0], &paths[1])? && ok)
}
