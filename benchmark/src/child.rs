//! One workload in one process: the unit the driver's contract invokes
//! (`--workload W --seed S --seconds N --trace 0|1`) and the unit `run`
//! launches, one at a time, so `peak_rss_mb` is this process's own `VmHWM`
//! and no two workloads ever share the machine.

use crate::spec::{self, obj};
use crate::stats::median;
use crate::tracer::Tracer;
use crate::workloads::{
    journal_base, measure_once, setup_s, Check, Sample, Scenario, SETUP_SECONDS,
};
use p2pmal_json::Value;
use p2pmal_netsim::process_rss_kb;
use std::path::Path;
use std::time::Instant;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Measuring budget: the collection repeats (same seed, so every repeat
    /// must agree) while another repeat is predicted to fit. The first
    /// always runs, whatever it takes.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn metric_value(name: &str, value: f64) -> Value {
    obj(vec![
        ("value", value.into()),
        ("unit", spec::unit_of(name).into()),
    ])
}

/// Same digest and same value for every exact per-layer metric.
fn samples_agree(samples: &[Sample]) -> Check {
    let first = &samples[0];
    let mut differing = Vec::new();
    for s in &samples[1..] {
        if s.digest != first.digest {
            differing.push("trajectory_digest");
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            if s.layer(m.name) != first.layer(m.name) {
                differing.push(m.name);
            }
        }
    }
    differing.dedup();
    Check {
        name: "repeats_agree",
        ok: differing.is_empty(),
        detail: if differing.is_empty() {
            format!("{} repeat(s) share digest and exact metrics", samples.len())
        } else {
            format!("repeats differ on {}", differing.join(", "))
        },
    }
}

/// Runs the workload and prints its metrics; the last stdout line is the
/// contract's JSON object, the one before it (`detail ...`) carries what
/// `run` aggregates. Returns whether every check passed.
pub fn run(opts: &Options, out: &Path) -> bool {
    let w = opts.workload.as_str();
    let journal = journal_base(out);
    std::fs::create_dir_all(journal.parent().expect("journal base has a parent"))
        .expect("create out/tmp");
    let scenario = Scenario::for_workload(w, opts.seed, opts.smoke, &journal);
    println!(
        "p2pmal-benchmark workload={w} seed={} seconds={} trace={} smoke={}",
        opts.seed, opts.seconds, opts.trace as u8, opts.smoke as u8
    );
    println!("{w} scenario {scenario:?}");

    let mut tracer = Tracer::new(opts.trace);
    let root = tracer.open("benchmark.workload");
    let setup_budget = if opts.smoke {
        SETUP_SECONDS / 5.0
    } else {
        SETUP_SECONDS
    };
    let setup = setup_s(&scenario, setup_budget, &mut tracer);
    let mut samples = Vec::new();
    let started = Instant::now();
    let mut longest = 0f64;
    loop {
        let t0 = Instant::now();
        samples.push(measure_once(
            w,
            opts.seed,
            opts.smoke,
            &journal,
            &mut tracer,
        ));
        longest = longest.max(t0.elapsed().as_secs_f64());
        // A traced run is one collection plus probes.
        if opts.trace || started.elapsed().as_secs_f64() + 1.25 * longest > opts.seconds {
            break;
        }
    }
    tracer.close(root);
    let peak_rss_mb = process_rss_kb().0 as f64 / 1024.0;

    let first = &samples[0];
    let mut checks = first.checks.clone();
    for s in &samples[1..] {
        checks.extend(s.checks.iter().filter(|c| !c.ok).cloned());
    }
    checks.push(samples_agree(&samples));
    let checks_made = checks.len() as u64;
    let checks_failed = checks.iter().filter(|c| !c.ok).count() as u64;
    let fail_share = (first.downloads_failed + checks_failed) as f64
        / (first.downloads_attempted + checks_made) as f64;

    let timing = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let end_to_end = [
        ("setup_s", setup),
        ("run_s", timing(|s| s.run_s)),
        ("total_s", timing(|s| s.total_s)),
        ("peak_rss_mb", peak_rss_mb),
        ("app_bytes_per_node", first.app_bytes_per_node),
        ("ok_share", 1.0 - fail_share),
    ];
    // Timed layer metrics are medians over the repeats like the end-to-end
    // timings; exact ones agree (checked above) so the median is the value.
    let mut layers: Vec<(&'static str, f64)> = first
        .layers
        .iter()
        .map(|(name, _)| {
            let values: Vec<f64> = samples.iter().filter_map(|s| s.layer(name)).collect();
            (*name, median(&values))
        })
        .collect();
    layers.push(("core.fail_share", fail_share));
    layers.push(("core.checks_made", checks_made as f64));
    layers.push(("core.checks_failed", checks_failed as f64));

    for (name, value) in &end_to_end {
        println!("metric {w} {name} {value} {}", spec::unit_of(name));
    }
    for m in &spec::PER_LAYER {
        if let Some((_, value)) = layers.iter().find(|(n, _)| *n == m.name) {
            println!("metric {w} {} {value} {}", m.name, m.unit);
        }
    }
    println!("{w} trajectory_digest {}", first.digest);
    for c in &checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("{w} check {} {verdict}: {}", c.name, c.detail);
    }
    println!("{w} checks made {checks_made} failed {checks_failed}");

    if opts.trace {
        let path = out.join(format!("trace_{w}.json"));
        let doc = obj(vec![
            ("workload", w.into()),
            ("seed", opts.seed.into()),
            ("smoke", opts.smoke.into()),
            ("spans", tracer.to_json()),
        ]);
        std::fs::write(&path, doc.to_string_compact()).expect("write trace file");
        println!(
            "{w} trace {} spans -> {}",
            tracer.span_count(),
            path.display()
        );
    }

    let pairs = |items: &[(&'static str, f64)]| {
        Value::Obj(
            items
                .iter()
                .map(|(n, v)| (n.to_string(), (*v).into()))
                .collect(),
        )
    };
    let detail = obj(vec![
        ("workload", w.into()),
        ("seed", opts.seed.into()),
        ("trace", opts.trace.into()),
        ("smoke", opts.smoke.into()),
        ("repeats", (samples.len() as u64).into()),
        ("scenario", format!("{scenario:?}").into()),
        ("end_to_end", pairs(&end_to_end)),
        ("per_layer", pairs(&layers)),
        ("trajectory_digest", first.digest.as_str().into()),
        (
            "checks",
            Value::Arr(
                checks
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("name", c.name.into()),
                            ("ok", c.ok.into()),
                            ("detail", c.detail.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("detail {}", detail.to_string_compact());

    // The contract's result line: end-to-end metrics from an untraced run,
    // every per-layer metric from a traced one.
    let metrics = if opts.trace {
        Value::Obj(
            spec::PER_LAYER
                .iter()
                .map(|m| {
                    let value = layers
                        .iter()
                        .find(|(n, _)| *n == m.name)
                        .unwrap_or_else(|| panic!("traced run did not measure {}", m.name))
                        .1;
                    (m.name.to_string(), metric_value(m.name, value))
                })
                .collect(),
        )
    } else {
        Value::Obj(
            end_to_end
                .iter()
                .map(|(n, v)| (n.to_string(), metric_value(n, *v)))
                .collect(),
        )
    };
    // Simulated download failures are outcomes of the modelled network and
    // are carried by ok_share; `failed` counts what the benchmark itself
    // got wrong.
    let result = obj(vec![
        ("correct", (checks_failed == 0).into()),
        ("attempted", checks_made.into()),
        ("failed", checks_failed.into()),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_string_compact());
    checks_failed == 0
}
