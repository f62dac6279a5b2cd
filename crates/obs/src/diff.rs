//! Structured diff of two BENCH JSON artifacts (run-comparison tooling).
//!
//! Understands both benchmark shapes the workspace emits:
//!
//! * **study** (`run_study` with `P2PMAL_BENCH_JSON`): `{seed, quick,
//!   faults, networks: [{network, wall_secs, events, events_per_sec,
//!   subsystems: {bucket: {secs, calls}}, memory, telemetry: {counters,
//!   hists}}]}`;
//! * **mega** (`run_mega`): flat `{seed, nodes, …, run_secs, events,
//!   events_per_sec, memory: [{phase, …}]}`.
//!
//! Comparison policy, tuned so the CI gate is meaningful across machines:
//!
//! * **Deterministic fields compare exactly** — event totals, telemetry
//!   counters, histogram counts, histogram quantiles (sim-time valued;
//!   hists whose name contains `wall` are exempt from the quantile check),
//!   subsystem call counts, node counts. Any drift here means the
//!   trajectory changed, which a snapshot refresh must acknowledge.
//! * **Wall-clock buckets compare as share-of-total-wall**, not absolute
//!   seconds: absolute timings differ across hosts, but the *profile* is
//!   stable. Tiny buckets (below [`DiffOptions::min_bucket_secs`] or under
//!   [`DiffOptions::min_bucket_share_pct`] of baseline wall) are skipped;
//!   a bucket fails only if its share grew by more than
//!   [`DiffOptions::max_share_regress_pct`] relative **and** more than
//!   [`DiffOptions::min_share_points`] percentage points absolute.
//! * **Throughput (`events_per_sec`) and absolute wall are report-only**
//!   by default ([`DiffOptions::fail_on_throughput`] opts in).
//! * **`bytes_per_node` has a tolerance** ([`DiffOptions::max_bytes_regress_pct`])
//!   — byte-for-byte identical on the same toolchain, but allocator and
//!   layout shifts across toolchains shouldn't fail the gate.
//! * **A malformed document never passes.** A section the comparison
//!   reads (`subsystems`, `memory`, `telemetry`, `networks`) that is
//!   missing or of the wrong type on either side, an exact field missing or
//!   not a number, and a wall time, bucket time, rate or byte count that is
//!   not a finite non-negative number (a wall time must also be above zero)
//!   are failures, whatever [`DiffOptions::lenient_exact`] says.

use p2pmal_json::Value;

/// Thresholds for [`diff_bench`]. Defaults match the CI gate.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Max relative growth of a wall bucket's share-of-wall, percent.
    pub max_share_regress_pct: f64,
    /// A bucket must also grow by this many share *points* to fail.
    pub min_share_points: f64,
    /// Buckets under this many baseline seconds are skipped.
    pub min_bucket_secs: f64,
    /// Buckets under this baseline share (percent) are skipped.
    pub min_bucket_share_pct: f64,
    /// Max regression of `bytes_per_node`, percent.
    pub max_bytes_regress_pct: f64,
    /// Whether an `events_per_sec` drop beyond
    /// `max_throughput_regress_pct` fails the diff (off by default:
    /// wall-clock throughput is machine-dependent).
    pub fail_on_throughput: bool,
    pub max_throughput_regress_pct: f64,
    /// Downgrade exact-field mismatches from failures to notes. For
    /// comparing runs that are *expected* to differ (e.g. different
    /// seeds), not for the CI gate.
    pub lenient_exact: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            max_share_regress_pct: 15.0,
            min_share_points: 3.0,
            min_bucket_secs: 0.05,
            min_bucket_share_pct: 10.0,
            max_bytes_regress_pct: 10.0,
            fail_on_throughput: false,
            max_throughput_regress_pct: 25.0,
            lenient_exact: false,
        }
    }
}

/// Outcome of a diff: hard failures, informational notes, and a
/// machine-readable report.
#[derive(Debug, Default)]
pub struct Diff {
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    /// Per-bucket share table and headline deltas, for the `--json` dump.
    pub rows: Vec<Value>,
}

impl Diff {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("ok".into(), Value::Bool(self.ok())),
            (
                "failures".into(),
                Value::Arr(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "notes".into(),
                Value::Arr(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
            ("rows".into(), Value::Arr(self.rows.clone())),
        ])
    }
}

fn obj_entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Obj(fields) => fields,
        _ => &[],
    }
}

fn f64_field(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn pct_delta(base: f64, cand: f64) -> f64 {
    if base == 0.0 {
        if cand == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cand - base) / base * 100.0
    }
}

/// Exact comparison of one deterministic numeric field. A field missing
/// (or not a number) on both sides is a failure too: there is nothing to
/// compare, and silence would read as agreement.
fn exact(diff: &mut Diff, opts: &DiffOptions, what: &str, base: Option<f64>, cand: Option<f64>) {
    if base == cand && base.is_some() {
        return;
    }
    let msg = format!(
        "{what}: baseline {} vs candidate {}",
        base.map_or("<missing>".into(), |v| v.to_string()),
        cand.map_or("<missing>".into(), |v| v.to_string()),
    );
    if opts.lenient_exact && base.is_some() && cand.is_some() {
        diff.notes.push(msg);
    } else {
        diff.failures.push(msg);
    }
}

/// `v[key]` when it is a finite number, not negative, and (if `positive`)
/// above zero; otherwise a failure naming `side`, and 0.
fn measured(diff: &mut Diff, side: &str, what: &str, v: &Value, key: &str, positive: bool) -> f64 {
    match f64_field(v, key) {
        Some(x) if x.is_finite() && (x > 0.0 || x == 0.0 && !positive) => x,
        _ => {
            let got = v
                .get(key)
                .map_or("<missing>".into(), Value::to_string_compact);
            let want = if positive { "positive" } else { "non-negative" };
            diff.failures.push(format!(
                "{what}.{key}: {side} has {got}, not a {want} number"
            ));
            0.0
        }
    }
}

/// [`measured`] on both documents.
fn measured_pair(
    diff: &mut Diff,
    what: &str,
    base: &Value,
    cand: &Value,
    key: &str,
    positive: bool,
) -> (f64, f64) {
    (
        measured(diff, "baseline", what, base, key, positive),
        measured(diff, "candidate", what, cand, key, positive),
    )
}

/// The `key` sections of both documents when each is an object (or, with
/// `array`, an array); otherwise a failure and `None`.
fn section<'v>(
    diff: &mut Diff,
    what: &str,
    base: &'v Value,
    cand: &'v Value,
    key: &str,
    array: bool,
) -> Option<(&'v Value, &'v Value)> {
    let usable = |v: Option<&'v Value>| {
        v.filter(|v| match v {
            Value::Obj(_) => !array,
            Value::Arr(_) => array,
            _ => false,
        })
    };
    let kind = if array { "array" } else { "object" };
    match (usable(base.get(key)), usable(cand.get(key))) {
        (Some(b), Some(c)) => return Some((b, c)),
        (None, Some(_)) => diff
            .failures
            .push(format!("{what}{key}: baseline has no {kind} here")),
        (Some(_), None) => diff
            .failures
            .push(format!("{what}{key}: candidate has no {kind} here")),
        (None, None) => diff
            .failures
            .push(format!("{what}{key}: neither document has an {kind} here")),
    }
    None
}

/// Walks two flat numeric objects (counters, one hist) comparing every key
/// exactly, both directions.
fn exact_obj(diff: &mut Diff, opts: &DiffOptions, what: &str, base: &Value, cand: &Value) {
    for (side, v) in [("baseline", base), ("candidate", cand)] {
        if !matches!(v, Value::Obj(_)) {
            diff.failures
                .push(format!("{what}: {side} has no object here"));
        }
    }
    for (key, bval) in obj_entries(base) {
        exact(
            diff,
            opts,
            &format!("{what}.{key}"),
            bval.as_f64(),
            cand.get(key).and_then(Value::as_f64),
        );
    }
    for (key, cval) in obj_entries(cand) {
        if base.get(key).is_none() {
            exact(diff, opts, &format!("{what}.{key}"), None, cval.as_f64());
        }
    }
}

/// Every key of two objects: the baseline's in order, then the
/// candidate's own.
fn union_keys<'v>(base: &'v Value, cand: &'v Value) -> Vec<&'v str> {
    let mut keys: Vec<&str> = obj_entries(base).iter().map(|(k, _)| k.as_str()).collect();
    for (k, _) in obj_entries(cand) {
        if base.get(k).is_none() {
            keys.push(k);
        }
    }
    keys
}

static NULL: Value = Value::Null;

fn diff_memory(diff: &mut Diff, opts: &DiffOptions, what: &str, base: &Value, cand: &Value) {
    exact(
        diff,
        opts,
        &format!("{what}.nodes"),
        f64_field(base, "nodes"),
        f64_field(cand, "nodes"),
    );
    let (b, c) = measured_pair(diff, what, base, cand, "bytes_per_node", false);
    let delta = pct_delta(b, c);
    if delta > opts.max_bytes_regress_pct {
        diff.failures.push(format!(
            "{what}.bytes_per_node: {b:.0} -> {c:.0} (+{delta:.1}% > {:.1}% budget)",
            opts.max_bytes_regress_pct
        ));
    } else if delta != 0.0 {
        diff.notes.push(format!(
            "{what}.bytes_per_node: {b:.0} -> {c:.0} ({delta:+.1}%)"
        ));
    }
}

fn diff_throughput(diff: &mut Diff, opts: &DiffOptions, what: &str, base: &Value, cand: &Value) {
    let (base, cand) = measured_pair(diff, what, base, cand, "events_per_sec", false);
    let delta = pct_delta(base, cand);
    let msg = format!("{what}.events_per_sec: {base:.0} -> {cand:.0} ({delta:+.1}%)");
    if opts.fail_on_throughput && -delta > opts.max_throughput_regress_pct {
        diff.failures.push(msg);
    } else {
        diff.notes.push(msg);
    }
}

/// Share-of-wall comparison of one network's subsystem buckets.
fn diff_buckets(
    diff: &mut Diff,
    opts: &DiffOptions,
    what: &str,
    base_wall: f64,
    cand_wall: f64,
    base: &Value,
    cand: &Value,
) {
    for bucket in union_keys(base, cand) {
        let scope = format!("{what}.{bucket}");
        let bval = base.get(bucket).unwrap_or(&NULL);
        let cval = cand.get(bucket).unwrap_or(&NULL);
        exact(
            diff,
            opts,
            &format!("{scope}.calls"),
            f64_field(bval, "calls"),
            f64_field(cval, "calls"),
        );
        let (b_secs, c_secs) = measured_pair(diff, &scope, bval, cval, "secs", false);
        let b_share = if base_wall > 0.0 {
            b_secs / base_wall * 100.0
        } else {
            0.0
        };
        let c_share = if cand_wall > 0.0 {
            c_secs / cand_wall * 100.0
        } else {
            0.0
        };
        let skipped = b_secs < opts.min_bucket_secs && c_secs < opts.min_bucket_secs
            || b_share < opts.min_bucket_share_pct;
        let regressed = !skipped
            && pct_delta(b_share, c_share) > opts.max_share_regress_pct
            && c_share - b_share > opts.min_share_points;
        diff.rows.push(Value::Obj(vec![
            ("scope".into(), Value::Str(what.to_string())),
            ("bucket".into(), Value::Str(bucket.to_string())),
            ("base_secs".into(), Value::Num(b_secs)),
            ("cand_secs".into(), Value::Num(c_secs)),
            ("base_share_pct".into(), Value::Num(b_share)),
            ("cand_share_pct".into(), Value::Num(c_share)),
            ("skipped".into(), Value::Bool(skipped)),
            ("regressed".into(), Value::Bool(regressed)),
        ]));
        if regressed {
            diff.failures.push(format!(
                "{scope}: wall share {b_share:.1}% -> {c_share:.1}% \
                 (relative +{:.1}% > {:.1}%, absolute +{:.1}pt > {:.1}pt)",
                pct_delta(b_share, c_share),
                opts.max_share_regress_pct,
                c_share - b_share,
                opts.min_share_points,
            ));
        }
    }
}

fn diff_network(diff: &mut Diff, opts: &DiffOptions, base: &Value, cand: &Value) {
    let name = base
        .get("network")
        .and_then(Value::as_str)
        .unwrap_or("<unnamed>")
        .to_string();
    for key in ["events", "shards", "window_ms"] {
        exact(
            diff,
            opts,
            &format!("{name}.{key}"),
            f64_field(base, key),
            f64_field(cand, key),
        );
    }
    diff_throughput(diff, opts, &name, base, cand);
    let (base_wall, cand_wall) = measured_pair(diff, &name, base, cand, "wall_secs", true);
    diff.notes.push(format!(
        "{name}.wall_secs: {base_wall:.2} -> {cand_wall:.2} ({:+.1}%)",
        pct_delta(base_wall, cand_wall)
    ));
    let scope = format!("{name}.");
    if let Some((b, c)) = section(diff, &scope, base, cand, "subsystems", false) {
        let what = format!("{name}.subsystems");
        diff_buckets(diff, opts, &what, base_wall, cand_wall, b, c);
    }
    if let Some((b, c)) = section(diff, &scope, base, cand, "memory", false) {
        diff_memory(diff, opts, &format!("{name}.memory"), b, c);
    }
    let Some((btel, ctel)) = section(diff, &scope, base, cand, "telemetry", false) else {
        return;
    };
    let scope = format!("{name}.telemetry.");
    if let Some((bc, cc)) = section(diff, &scope, btel, ctel, "counters", false) {
        exact_obj(diff, opts, &format!("{name}.counters"), bc, cc);
    }
    if let Some((bh, ch)) = section(diff, &scope, btel, ctel, "hists", false) {
        for hist in union_keys(bh, ch) {
            let bval = bh.get(hist).unwrap_or(&NULL);
            let cval = ch.get(hist).unwrap_or(&NULL);
            // Counts are deterministic for every hist; quantiles only
            // for sim-time-valued ones (wall hists vary per machine).
            if hist.contains("wall") {
                exact(
                    diff,
                    opts,
                    &format!("{name}.hists.{hist}.count"),
                    bval.get("count").and_then(Value::as_f64),
                    cval.get("count").and_then(Value::as_f64),
                );
            } else {
                exact_obj(diff, opts, &format!("{name}.hists.{hist}"), bval, cval);
            }
        }
    }
}

fn diff_study(diff: &mut Diff, opts: &DiffOptions, base: &Value, cand: &Value) {
    for key in ["seed", "quick"] {
        exact(
            diff,
            opts,
            key,
            f64_field(base, key).or_else(|| base.get(key).and_then(Value::as_bool).map(f64::from)),
            f64_field(cand, key).or_else(|| cand.get(key).and_then(Value::as_bool).map(f64::from)),
        );
    }
    let Some((base_nets, cand_nets)) = section(diff, "", base, cand, "networks", true) else {
        return;
    };
    let (base_nets, cand_nets) = (arr(base_nets), arr(cand_nets));
    if base_nets.is_empty() {
        diff.failures
            .push("networks: the baseline has none to compare".into());
    }
    for bnet in base_nets {
        let name = bnet.get("network").and_then(Value::as_str).unwrap_or("");
        match cand_nets
            .iter()
            .find(|c| c.get("network").and_then(Value::as_str) == Some(name))
        {
            Some(cnet) => diff_network(diff, opts, bnet, cnet),
            None => diff
                .failures
                .push(format!("network {name:?} missing from candidate")),
        }
    }
    for cnet in cand_nets {
        let name = cnet.get("network").and_then(Value::as_str).unwrap_or("");
        if !base_nets
            .iter()
            .any(|b| b.get("network").and_then(Value::as_str) == Some(name))
        {
            diff.notes
                .push(format!("network {name:?} only in candidate"));
        }
    }
}

/// The elements of an array value (empty for anything else).
fn arr(v: &Value) -> &[Value] {
    v.as_arr().unwrap_or(&[])
}

fn diff_mega(diff: &mut Diff, opts: &DiffOptions, base: &Value, cand: &Value) {
    for key in [
        "seed",
        "nodes",
        "ultrapeers",
        "leaves",
        "days",
        "shards",
        "window_ms",
        "events",
    ] {
        exact(diff, opts, key, f64_field(base, key), f64_field(cand, key));
    }
    diff_throughput(diff, opts, "mega", base, cand);
    let (b_run, c_run) = measured_pair(diff, "mega", base, cand, "run_secs", true);
    diff.notes
        .push(format!("mega.run_secs: {b_run:.2} -> {c_run:.2}"));
    let Some((base_mem, cand_mem)) = section(diff, "", base, cand, "memory", true) else {
        return;
    };
    let cand_mem = arr(cand_mem);
    for bphase in arr(base_mem) {
        let phase = bphase.get("phase").and_then(Value::as_str).unwrap_or("");
        match cand_mem
            .iter()
            .find(|c| c.get("phase").and_then(Value::as_str) == Some(phase))
        {
            Some(cphase) => diff_memory(diff, opts, &format!("memory.{phase}"), bphase, cphase),
            None => diff
                .failures
                .push(format!("memory phase {phase:?} missing from candidate")),
        }
    }
}

/// Diffs two parsed BENCH documents. `Err` on shape mismatch or an
/// unrecognized document; `Ok` carries failures/notes per the policy above.
pub fn diff_bench(base: &Value, cand: &Value, opts: &DiffOptions) -> Result<Diff, String> {
    let shape = |v: &Value| {
        if v.get("networks").is_some() {
            Some("study")
        } else if v.get("run_secs").is_some() {
            Some("mega")
        } else {
            None
        }
    };
    let (bshape, cshape) = (shape(base), shape(cand));
    if bshape != cshape {
        return Err(format!(
            "shape mismatch: baseline is {}, candidate is {}",
            bshape.unwrap_or("unrecognized"),
            cshape.unwrap_or("unrecognized")
        ));
    }
    let mut diff = Diff::default();
    match bshape {
        Some("study") => diff_study(&mut diff, opts, base, cand),
        Some("mega") => diff_mega(&mut diff, opts, base, cand),
        _ => return Err("unrecognized BENCH shape (neither study nor mega)".into()),
    }
    Ok(diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study(wall: f64, scan_secs: f64, queries: u64, bytes: u64) -> Value {
        p2pmal_json::parse(&format!(
            r#"{{"seed":2006,"quick":true,"faults":"none","networks":[{{
                "network":"LimeWire","wall_secs":{wall},"events":119083,
                "events_per_sec":100000,"shards":1,"window_ms":0,
                "subsystems":{{
                    "app":{{"secs":{app},"calls":119236}},
                    "scan":{{"secs":{scan_secs},"calls":33}}
                }},
                "memory":{{"nodes":41,"app_bytes":1,"bytes_per_node":{bytes},
                           "peak_rss_kb":1,"current_rss_kb":1}},
                "telemetry":{{"counters":{{"queries_issued":{queries}}},
                    "hists":{{"download_latency_us":
                        {{"count":33,"min":1,"p50":2,"p90":3,"p99":4,"max":5}},
                        "scan_wall_us":
                        {{"count":33,"min":9,"p50":9,"p90":9,"p99":9,"max":9}}}}}}
            }}]}}"#,
            app = wall * 0.5,
        ))
        .unwrap()
    }

    #[test]
    fn identical_studies_pass() {
        let base = study(1.0, 0.30, 997, 83617);
        let diff = diff_bench(&base, &base, &DiffOptions::default()).unwrap();
        assert!(diff.ok(), "failures: {:?}", diff.failures);
    }

    #[test]
    fn wall_noise_within_thresholds_passes_but_share_blowup_fails() {
        let base = study(1.0, 0.30, 997, 83617);
        // 10% slower machine, profile unchanged: fine.
        let slower = study(1.1, 0.33, 997, 83617);
        assert!(diff_bench(&base, &slower, &DiffOptions::default())
            .unwrap()
            .ok());
        // Scan share 30% -> 60% of wall: regression.
        let hot = study(1.0, 0.60, 997, 83617);
        let diff = diff_bench(&base, &hot, &DiffOptions::default()).unwrap();
        assert!(!diff.ok());
        assert!(diff.failures[0].contains("scan"), "{:?}", diff.failures);
    }

    #[test]
    fn counter_drift_fails_strict_but_not_lenient() {
        let base = study(1.0, 0.30, 997, 83617);
        let drift = study(1.0, 0.30, 998, 83617);
        assert!(!diff_bench(&base, &drift, &DiffOptions::default())
            .unwrap()
            .ok());
        let lenient = DiffOptions {
            lenient_exact: true,
            ..DiffOptions::default()
        };
        assert!(diff_bench(&base, &drift, &lenient).unwrap().ok());
    }

    #[test]
    fn bytes_per_node_has_a_budget() {
        let base = study(1.0, 0.30, 997, 80000);
        let ok = study(1.0, 0.30, 997, 86000); // +7.5% < 10%
        assert!(diff_bench(&base, &ok, &DiffOptions::default())
            .unwrap()
            .ok());
        let bad = study(1.0, 0.30, 997, 90000); // +12.5% > 10%
        let diff = diff_bench(&base, &bad, &DiffOptions::default()).unwrap();
        assert!(!diff.ok());
        assert!(diff.failures[0].contains("bytes_per_node"));
    }

    #[test]
    fn wall_hist_quantiles_are_exempt_but_counts_are_not() {
        let base = study(1.0, 0.30, 997, 83617);
        let mut cand = study(1.0, 0.30, 997, 83617);
        // Perturb the wall hist quantiles in place: find and rewrite p50.
        let s = cand.to_string_compact().replace(
            r#""scan_wall_us":{"count":33,"min":9,"p50":9"#,
            r#""scan_wall_us":{"count":33,"min":7,"p50":8"#,
        );
        cand = p2pmal_json::parse(&s).unwrap();
        assert!(diff_bench(&base, &cand, &DiffOptions::default())
            .unwrap()
            .ok());
        let s = s.replace(
            r#""scan_wall_us":{"count":33"#,
            r#""scan_wall_us":{"count":32"#,
        );
        cand = p2pmal_json::parse(&s).unwrap();
        assert!(!diff_bench(&base, &cand, &DiffOptions::default())
            .unwrap()
            .ok());
    }

    #[test]
    fn mega_shape_diffs_events_and_memory() {
        let mega = |events: u64, bytes: u64| {
            p2pmal_json::parse(&format!(
                r#"{{"seed":42,"nodes":50000,"ultrapeers":1923,"leaves":48076,
                     "days":2,"shards":4,"window_ms":1000,"setup_secs":0.2,
                     "run_secs":200.0,"events":{events},"events_per_sec":300000,
                     "memory":[{{"phase":"steady","nodes":50000,"app_bytes":1,
                       "bytes_per_node":{bytes},"peak_rss_kb":1,"current_rss_kb":1}}]}}"#
            ))
            .unwrap()
        };
        let base = mega(70907572, 38586);
        assert!(diff_bench(&base, &base, &DiffOptions::default())
            .unwrap()
            .ok());
        let bad = mega(70907573, 38586);
        assert!(!diff_bench(&base, &bad, &DiffOptions::default())
            .unwrap()
            .ok());
        let fat = mega(70907572, 60000);
        let diff = diff_bench(&base, &fat, &DiffOptions::default()).unwrap();
        assert!(diff.failures[0].contains("bytes_per_node"));
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let s = study(1.0, 0.3, 1, 1);
        let m = p2pmal_json::parse(r#"{"run_secs":1,"events":1}"#).unwrap();
        assert!(diff_bench(&s, &m, &DiffOptions::default()).is_err());
    }
}
