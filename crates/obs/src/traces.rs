//! Causal trace reconstruction over a loaded journal.
//!
//! Spanned journal events form, per trace id, a forest: `query_issued`
//! roots, `query_matched` children, and the download / scan / infection
//! chain hanging off each match (the exact shape is documented in
//! `p2pmal-crawler`'s `trace.rs`). This module rebuilds those trees as two
//! flat index vectors over the [`Journal`] — one sorted span table and one
//! parent link per event — checks referential integrity (every `parent`
//! must resolve to a span emitted somewhere in the same trace; sim-time
//! must not decrease from parent to child), and derives the analyses the
//! `trace_report` bin prints: per-edge sim-time latency, hop-depth
//! distributions, per-family propagation stats, and top-K deepest / widest
//! traces. Every ranking breaks ties on ids, so reports are byte-stable.
//! [`strict_failures`] is what `trace_report --strict` rejects.

use std::collections::{BTreeMap, HashSet};

use p2pmal_json::Value;
use p2pmal_netsim::telemetry_span::span_hex;
use p2pmal_netsim::EventCategory;

use crate::journal::Journal;

/// "No resolved parent" in [`TraceForest::parent`]: the event is a root,
/// spanless, or an orphan. A journal holds fewer than `u32::MAX` events.
const NONE: u32 = u32::MAX;

/// All traces of a journal plus integrity bookkeeping.
#[derive(Debug)]
pub struct TraceForest<'j> {
    journal: &'j Journal,
    /// `(trace, span, event)` of every spanned event, sorted. The first
    /// entry of a `(trace, span)` run is the event that defined the span;
    /// the entries of one trace are contiguous.
    spans: Vec<(u64, u64, u32)>,
    /// Per event, the event that defined its `parent` span, or [`NONE`].
    parent: Vec<u32>,
    /// Events whose `parent` span was never emitted, by (trace, event).
    orphans: Vec<u32>,
    /// Events without provenance (fault/churn or sampled-out categories).
    pub spanless: usize,
    /// Events carrying a span.
    pub spanned: usize,
    /// (child event, parent event) where child.t < parent.t.
    pub monotone_violations: Vec<(usize, usize)>,
}

impl<'j> TraceForest<'j> {
    /// Rebuilds the forest. Order-independent: membership and links are
    /// resolved over the whole journal, so a window-merged sharded journal
    /// reconstructs identically however its shards interleaved.
    pub fn build(journal: &'j Journal) -> TraceForest<'j> {
        let records = journal.records();
        let mut spans: Vec<(u64, u64, u32)> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.spanned())
            .map(|(idx, r)| (r.trace, r.span, idx as u32))
            .collect();
        spans.sort_unstable();

        let mut parent = vec![NONE; records.len()];
        let mut orphans = Vec::new();
        let mut monotone_violations = Vec::new();
        for (idx, r) in records.iter().enumerate() {
            let Some(span) = r.parent() else {
                continue;
            };
            let at = spans.partition_point(|&(t, s, _)| (t, s) < (r.trace, span));
            match spans.get(at) {
                Some(&(t, s, owner)) if (t, s) == (r.trace, span) => {
                    parent[idx] = owner;
                    if records[owner as usize].t > r.t {
                        monotone_violations.push((idx, owner as usize));
                    }
                }
                _ => orphans.push(idx as u32),
            }
        }
        orphans.sort_unstable_by_key(|&idx| (records[idx as usize].trace, idx));
        TraceForest {
            journal,
            spanless: records.len() - spans.len(),
            spanned: spans.len(),
            spans,
            parent,
            orphans,
            monotone_violations,
        }
    }

    /// Visits `idx` and then each ancestor up to its root. `false` if a
    /// link is orphaned (or a hash collision formed a cycle); the visits
    /// made until then still happened.
    fn ascend(&self, idx: usize, mut visit: impl FnMut(usize)) -> bool {
        let records = self.journal.records();
        if !records[idx].spanned() {
            return false;
        }
        let mut cur = idx;
        for _ in 0..=records.len() {
            visit(cur);
            if records[cur].parent().is_none() {
                return true;
            }
            if self.parent[cur] == NONE {
                return false;
            }
            cur = self.parent[cur] as usize;
        }
        false // cycle guard
    }

    /// Root-to-event path of event indices, following `parent` links.
    /// `None` if a link is orphaned (or a hash collision formed a cycle).
    pub fn path_of(&self, idx: usize) -> Option<Vec<usize>> {
        let mut path = Vec::new();
        if !self.ascend(idx, |i| path.push(i)) {
            return None;
        }
        path.reverse();
        Some(path)
    }

    /// The span table cut into one slice per trace, ascending trace id.
    fn traces(&self) -> impl Iterator<Item = &[(u64, u64, u32)]> {
        self.spans.chunk_by(|a, b| a.0 == b.0)
    }

    pub fn trace_count(&self) -> usize {
        self.traces().count()
    }

    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }
}

/// Sim-time aggregate for one parent→child edge kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeAgg {
    pub count: u64,
    pub min_us: u64,
    pub max_us: u64,
    pub sum_us: u64,
}

impl EdgeAgg {
    fn push(&mut self, dt: u64) {
        if self.count == 0 || dt < self.min_us {
            self.min_us = dt;
        }
        if dt > self.max_us {
            self.max_us = dt;
        }
        self.count += 1;
        self.sum_us += dt;
    }

    fn merge(&mut self, other: &EdgeAgg) {
        if self.count == 0 || other.min_us < self.min_us {
            self.min_us = other.min_us;
        }
        self.max_us = self.max_us.max(other.max_us);
        self.count += other.count;
        self.sum_us += other.sum_us;
    }

    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

/// Per-malware-family propagation stats, keyed off `infection` events.
#[derive(Debug, Default)]
pub struct FamilyStats {
    pub infections: u64,
    /// Distinct traces (≈ distinct originating queries) that delivered it.
    pub traces: BTreeMap<u64, u64>,
    /// Overlay hop depth (from the chain's `query_matched`) → count.
    pub hops: BTreeMap<u64, u64>,
}

/// A top-K entry: one maximal chain of a trace.
#[derive(Debug)]
pub struct ChainDesc {
    pub trace: u64,
    /// (event label, sim-micros) along the root→leaf path.
    pub path: Vec<(String, u64)>,
}

/// A top-K entry: the bushiest span of a trace.
#[derive(Debug)]
pub struct WidthDesc {
    pub trace: u64,
    /// Label of the widest span's event and its direct child count.
    pub span_ev: String,
    pub fanout: usize,
    /// Total events in the trace.
    pub events: usize,
}

/// Everything `trace_report` prints about one journal.
#[derive(Debug)]
pub struct Analysis {
    pub label: String,
    pub total_events: usize,
    pub spanless: usize,
    pub spanned: usize,
    pub trace_count: usize,
    /// (1-based journal line, missing parent span, event label) of every
    /// event whose `parent` was never emitted, by (trace, line).
    pub orphans: Vec<(usize, u64, String)>,
    pub monotone_violations: usize,
    /// scan_verdict events reached by a full
    /// query→match→start→complete→verdict path.
    pub complete_chains: usize,
    /// scan_verdict events carrying a span at all.
    pub spanned_verdicts: usize,
    /// parent_ev→child_ev → sim-time latency aggregate.
    pub edges: BTreeMap<String, EdgeAgg>,
    /// Hop depth of chains whose verdict had detections > 0 / == 0.
    pub hops_malicious: BTreeMap<u64, u64>,
    pub hops_clean: BTreeMap<u64, u64>,
    pub families: BTreeMap<String, FamilyStats>,
    pub deepest: Vec<ChainDesc>,
    pub widest: Vec<WidthDesc>,
}

/// Walks one journal and derives the full [`Analysis`].
pub fn analyze(label: &str, journal: &Journal, top_k: usize) -> Analysis {
    let forest = TraceForest::build(journal);
    let records = journal.records();
    let ev_of = |idx: usize| journal.ev_label(records[idx].ev);
    let mut analysis = Analysis {
        label: label.to_string(),
        total_events: records.len(),
        spanless: forest.spanless,
        spanned: forest.spanned,
        trace_count: forest.trace_count(),
        orphans: forest
            .orphans
            .iter()
            .map(|&idx| {
                let idx = idx as usize;
                (
                    journal.line_of(idx),
                    records[idx].parent().unwrap_or(0),
                    ev_of(idx).to_string(),
                )
            })
            .collect(),
        monotone_violations: forest.monotone_violations.len(),
        complete_chains: 0,
        spanned_verdicts: 0,
        edges: BTreeMap::new(),
        hops_malicious: BTreeMap::new(),
        hops_clean: BTreeMap::new(),
        families: BTreeMap::new(),
        deepest: Vec::new(),
        widest: Vec::new(),
    };

    // Per-edge sim-time latency and per-span fanout, keyed by label code
    // while counting.
    let mut edges: BTreeMap<(u16, u16), EdgeAgg> = BTreeMap::new();
    let mut fanout = vec![0u32; records.len()];
    for (r, &owner) in records.iter().zip(&forest.parent) {
        if owner == NONE {
            continue;
        }
        let parent = &records[owner as usize];
        fanout[owner as usize] += 1;
        edges
            .entry((parent.ev, r.ev))
            .or_default()
            .push(r.t.saturating_sub(parent.t));
    }
    for ((parent_ev, child_ev), agg) in edges {
        let key = format!(
            "{}->{}",
            journal.ev_label(parent_ev),
            journal.ev_label(child_ev)
        );
        analysis.edges.entry(key).or_default().merge(&agg);
    }

    // Chain completeness + hop depth, anchored on scan verdicts; per-family
    // propagation, anchored on infection events.
    let code = |label: &str| journal.ev_code(label);
    let (issued, matched) = (code("query_issued"), code("query_matched"));
    let (start, complete) = (code("download_start"), code("download_complete"));
    let (verdict, infection) = (code("scan_verdict"), code("infection"));
    // The chain behind `idx`: which stages it passes, the stage at its root,
    // and the `hops` of the `query_matched` nearest the root.
    let chain = |idx: usize| {
        let (mut seen, mut root, mut hops) = ([false; 3], None, None);
        let resolved = forest.ascend(idx, |i| {
            let ev = Some(records[i].ev);
            root = ev;
            for (stage, flag) in [matched, start, complete].iter().zip(&mut seen) {
                *flag |= ev == *stage;
            }
            if ev == matched {
                hops = records[i].hops();
            }
        });
        resolved.then_some((seen, root, hops))
    };
    for (idx, r) in records.iter().enumerate() {
        let ev = Some(r.ev);
        if ev == verdict && r.spanned() {
            analysis.spanned_verdicts += 1;
            let Some((seen, root, hops)) = chain(idx) else {
                continue;
            };
            if root == issued && seen == [true; 3] {
                analysis.complete_chains += 1;
            }
            if let Some(hops) = hops {
                let bucket = if r.detections().unwrap_or(0) > 0 {
                    &mut analysis.hops_malicious
                } else {
                    &mut analysis.hops_clean
                };
                *bucket.entry(hops).or_insert(0) += 1;
            }
        }
        if ev == infection {
            let family = journal.family_of(r).unwrap_or("unknown").to_string();
            let stats = analysis.families.entry(family).or_default();
            stats.infections += 1;
            if r.spanned() {
                *stats.traces.entry(r.trace).or_insert(0) += 1;
                if let Some((_, _, Some(hops))) = chain(idx) {
                    *stats.hops.entry(hops).or_insert(0) += 1;
                }
            }
        }
    }

    // Orphans sharing a missing parent count as that span's fanout too.
    let mut orphan_fanout: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for &idx in &forest.orphans {
        let r = &records[idx as usize];
        *orphan_fanout
            .entry((r.trace, r.parent().unwrap_or(0)))
            .or_insert(0) += 1;
    }

    // Per trace: its longest root→leaf path (the earliest event on ties)
    // and its bushiest span (the largest span id on ties).
    let mut deepest: Vec<(usize, u64, usize)> = Vec::new();
    let mut widest: Vec<WidthDesc> = Vec::new();
    for spans in forest.traces() {
        let trace = spans[0].0;
        let mut best: Option<(usize, usize)> = None;
        for &(_, _, idx) in spans {
            let mut depth = 0;
            let idx = idx as usize;
            if forest.ascend(idx, |_| depth += 1)
                && best.is_none_or(|(d, i)| depth > d || (depth == d && idx < i))
            {
                best = Some((depth, idx));
            }
        }
        if let Some((depth, idx)) = best {
            deepest.push((depth, trace, idx));
        }
        let resolved = spans
            .chunk_by(|a, b| a.1 == b.1)
            .map(|run| (fanout[run[0].2 as usize] as usize, run[0].1, Some(run[0].2)));
        let unresolved = orphan_fanout
            .range((trace, 0)..=(trace, u64::MAX))
            .map(|(&(_, span), &kids)| (kids, span, None));
        if let Some((kids, _, owner)) = resolved
            .chain(unresolved)
            .filter(|&(kids, _, _)| kids > 0)
            .max_by_key(|&(kids, span, _)| (kids, span))
        {
            widest.push(WidthDesc {
                trace,
                span_ev: owner
                    .map_or("<orphaned>", |i| ev_of(i as usize))
                    .to_string(),
                fanout: kids,
                events: spans.len(),
            });
        }
    }
    // Stable ranking: primary metric desc, trace id asc as tiebreak.
    deepest.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    deepest.truncate(top_k);
    analysis.deepest = deepest
        .into_iter()
        .map(|(_, trace, idx)| ChainDesc {
            trace,
            path: forest
                .path_of(idx)
                .expect("ranked by its resolved depth")
                .into_iter()
                .map(|i| (ev_of(i).to_string(), records[i].t))
                .collect(),
        })
        .collect();
    widest.sort_by(|a, b| b.fanout.cmp(&a.fanout).then(a.trace.cmp(&b.trace)));
    widest.truncate(top_k);
    analysis.widest = widest;
    analysis
}

/// Why `journal`, whose [`Analysis`] is `analysis`, fails the strict gate;
/// empty when it passes. From the analysis: an orphan span, sim time
/// decreasing along an edge, or no complete chain. From one pass in file
/// order: a `cat` that is no [`EventCategory`], a span id emitted twice, sim
/// time decreasing from one line to the next, or a `parent` that names no
/// span emitted on an earlier line (a self-parent included).
pub fn strict_failures(journal: &Journal, analysis: &Analysis) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some((line, parent, ev)) = analysis.orphans.first() {
        failures.push(format!(
            "{} orphan spans (first: line {line}, {ev} under {})",
            analysis.orphans.len(),
            span_hex(*parent)
        ));
    }
    if analysis.monotone_violations > 0 {
        failures.push(format!(
            "{} edges where sim time goes backwards",
            analysis.monotone_violations
        ));
    }
    if analysis.complete_chains == 0 {
        failures.push("no complete query->match->download->verdict chain".into());
    }

    // Per check: its name, how many lines fail it, what the first one did.
    let mut checks = [
        "unknown categories",
        "sim-time reversals",
        "parents not emitted earlier",
        "duplicate span ids",
    ]
    .map(|name| (name, 0, String::new()));
    let mut fail = |check: usize, idx: usize, what: String| {
        let (_, count, first) = &mut checks[check];
        if *count == 0 {
            *first = format!("line {}: {what}", journal.line_of(idx));
        }
        *count += 1;
    };
    let mut earlier: HashSet<u64> = HashSet::with_capacity(analysis.spanned);
    let mut last_t = 0;
    for (idx, e) in journal.iter().enumerate() {
        if EventCategory::from_label(e.cat).is_none() {
            fail(0, idx, format!("unknown `cat` {:?}", e.cat));
        }
        if e.t < last_t {
            fail(1, idx, format!("sim time {} after {last_t}", e.t));
        }
        last_t = e.t;
        // Looked up before this line's own span is added: a self-parent
        // names no earlier span.
        if let Some(parent) = e.parent.filter(|p| !earlier.contains(p)) {
            fail(
                2,
                idx,
                format!("parent {} not emitted earlier", span_hex(parent)),
            );
        }
        if let Some(span) = e.span.filter(|&s| !earlier.insert(s)) {
            fail(3, idx, format!("span {} emitted again", span_hex(span)));
        }
    }
    for (name, count, first) in checks {
        if count > 0 {
            failures.push(format!("{count} {name} (first: {first})"));
        }
    }
    failures
}

fn hist_json(hist: &BTreeMap<u64, u64>) -> Value {
    Value::Obj(
        hist.iter()
            .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
            .collect(),
    )
}

impl Analysis {
    /// Machine-readable report fragment for this journal.
    pub fn to_json(&self) -> Value {
        let edges = Value::Obj(
            self.edges
                .iter()
                .map(|(k, agg)| {
                    (
                        k.clone(),
                        Value::Obj(vec![
                            ("count".into(), Value::Num(agg.count as f64)),
                            ("min_us".into(), Value::Num(agg.min_us as f64)),
                            ("mean_us".into(), Value::Num(agg.mean_us() as f64)),
                            ("max_us".into(), Value::Num(agg.max_us as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        let families = Value::Obj(
            self.families
                .iter()
                .map(|(name, f)| {
                    (
                        name.clone(),
                        Value::Obj(vec![
                            ("infections".into(), Value::Num(f.infections as f64)),
                            ("traces".into(), Value::Num(f.traces.len() as f64)),
                            ("hops".into(), hist_json(&f.hops)),
                        ]),
                    )
                })
                .collect(),
        );
        let orphans = Value::Arr(
            self.orphans
                .iter()
                .take(20)
                .map(|(line, parent, ev)| {
                    Value::Obj(vec![
                        ("line".into(), Value::Num(*line as f64)),
                        ("ev".into(), Value::Str(ev.clone())),
                        ("parent".into(), Value::Str(span_hex(*parent))),
                    ])
                })
                .collect(),
        );
        let deepest = Value::Arr(
            self.deepest
                .iter()
                .map(|c| {
                    Value::Obj(vec![
                        ("trace".into(), Value::Str(span_hex(c.trace))),
                        ("depth".into(), Value::Num(c.path.len() as f64)),
                        (
                            "path".into(),
                            Value::Arr(
                                c.path
                                    .iter()
                                    .map(|(ev, t)| {
                                        Value::Obj(vec![
                                            ("ev".into(), Value::Str(ev.clone())),
                                            ("t".into(), Value::Num(*t as f64)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let widest = Value::Arr(
            self.widest
                .iter()
                .map(|w| {
                    Value::Obj(vec![
                        ("trace".into(), Value::Str(span_hex(w.trace))),
                        ("span_ev".into(), Value::Str(w.span_ev.clone())),
                        ("fanout".into(), Value::Num(w.fanout as f64)),
                        ("events".into(), Value::Num(w.events as f64)),
                    ])
                })
                .collect(),
        );
        Value::Obj(vec![
            ("journal".into(), Value::Str(self.label.clone())),
            ("events".into(), Value::Num(self.total_events as f64)),
            ("spanned".into(), Value::Num(self.spanned as f64)),
            ("spanless".into(), Value::Num(self.spanless as f64)),
            ("traces".into(), Value::Num(self.trace_count as f64)),
            ("orphans".into(), Value::Num(self.orphans.len() as f64)),
            ("orphan_examples".into(), orphans),
            (
                "monotone_violations".into(),
                Value::Num(self.monotone_violations as f64),
            ),
            (
                "spanned_verdicts".into(),
                Value::Num(self.spanned_verdicts as f64),
            ),
            (
                "complete_chains".into(),
                Value::Num(self.complete_chains as f64),
            ),
            ("edge_latency".into(), edges),
            ("hops_malicious".into(), hist_json(&self.hops_malicious)),
            ("hops_clean".into(), hist_json(&self.hops_clean)),
            ("families".into(), families),
            ("deepest".into(), deepest),
            ("widest".into(), widest),
        ])
    }

    /// Human-readable summary, one block per journal.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.label);
        let _ = writeln!(
            out,
            "  events: {} ({} spanned, {} spanless), traces: {}",
            self.total_events, self.spanned, self.spanless, self.trace_count
        );
        let _ = writeln!(
            out,
            "  integrity: {} orphan spans, {} sim-time monotonicity violations",
            self.orphans.len(),
            self.monotone_violations
        );
        let _ = writeln!(
            out,
            "  chains: {}/{} scan verdicts reached by a complete query->match->download->verdict path",
            self.complete_chains, self.spanned_verdicts
        );
        if !self.edges.is_empty() {
            let _ = writeln!(out, "  per-hop sim-time latency (min/mean/max us):");
            for (edge, agg) in &self.edges {
                let _ = writeln!(
                    out,
                    "    {:<40} x{:<6} {:>8}/{:>8}/{:>10}",
                    edge,
                    agg.count,
                    agg.min_us,
                    agg.mean_us(),
                    agg.max_us
                );
            }
        }
        if !self.hops_malicious.is_empty() || !self.hops_clean.is_empty() {
            let fmt_hist = |h: &BTreeMap<u64, u64>| {
                h.iter()
                    .map(|(k, v)| format!("{k}:{v}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let _ = writeln!(
                out,
                "  hop depth (malicious verdicts): {}",
                fmt_hist(&self.hops_malicious)
            );
            let _ = writeln!(
                out,
                "  hop depth (clean verdicts):     {}",
                fmt_hist(&self.hops_clean)
            );
        }
        for (family, f) in &self.families {
            let _ = writeln!(
                out,
                "  family {:<24} {} infections over {} traces",
                family,
                f.infections,
                f.traces.len()
            );
        }
        for (i, c) in self.deepest.iter().enumerate() {
            let path = c
                .path
                .iter()
                .map(|(ev, _)| ev.as_str())
                .collect::<Vec<_>>()
                .join(" -> ");
            let _ = writeln!(
                out,
                "  deepest#{i} trace {} depth {}: {}",
                span_hex(c.trace),
                c.path.len(),
                path
            );
        }
        for (i, w) in self.widest.iter().enumerate() {
            let _ = writeln!(
                out,
                "  widest#{i}  trace {} fanout {} at {} ({} events)",
                span_hex(w.trace),
                w.fanout,
                w.span_ev,
                w.events
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::parse_journal;

    fn chain_journal() -> Journal {
        // A hand-built two-retry chain matching the DlTrace shape, plus one
        // spanless churn line and one orphan.
        let text = concat!(
            "{\"t\":10,\"day\":0,\"cat\":\"query\",\"ev\":\"query_issued\",\"trace\":\"0000000000000001\",\"span\":\"0000000000000010\",\"text\":\"a\",\"seq\":0}\n",
            "{\"t\":20,\"day\":0,\"cat\":\"query\",\"ev\":\"query_matched\",\"trace\":\"0000000000000001\",\"span\":\"0000000000000011\",\"parent\":\"0000000000000010\",\"text\":\"a\",\"results\":2,\"hops\":3}\n",
            "{\"t\":30,\"day\":0,\"cat\":\"download\",\"ev\":\"download_start\",\"trace\":\"0000000000000001\",\"span\":\"0000000000000012\",\"parent\":\"0000000000000011\",\"name\":\"a\",\"size\":1,\"host\":\"h\",\"attempt\":0}\n",
            "{\"t\":40,\"day\":0,\"cat\":\"download\",\"ev\":\"download_complete\",\"trace\":\"0000000000000001\",\"span\":\"0000000000000013\",\"parent\":\"0000000000000012\",\"name\":\"a\",\"ok\":true,\"latency_us\":10,\"attempts\":1}\n",
            "{\"t\":50,\"day\":0,\"cat\":\"scan\",\"ev\":\"scan_verdict\",\"trace\":\"0000000000000001\",\"span\":\"0000000000000014\",\"parent\":\"0000000000000013\",\"name\":\"a\",\"sha1\":\"x\",\"len\":1,\"detections\":1}\n",
            "{\"t\":50,\"day\":0,\"cat\":\"scan\",\"ev\":\"infection\",\"trace\":\"0000000000000001\",\"span\":\"0000000000000015\",\"parent\":\"0000000000000014\",\"name\":\"Worm.A\",\"family\":\"worm_a\",\"sha1\":\"x\"}\n",
            "{\"t\":60,\"day\":0,\"cat\":\"churn\",\"ev\":\"churn_down\",\"node\":1}\n",
            "{\"t\":70,\"day\":0,\"cat\":\"download\",\"ev\":\"download_retry\",\"trace\":\"0000000000000002\",\"span\":\"0000000000000021\",\"parent\":\"00000000000000ff\",\"name\":\"b\",\"attempt\":1,\"cause\":\"reset\"}\n",
        );
        parse_journal(text).unwrap()
    }

    #[test]
    fn reconstructs_a_complete_chain() {
        let events = chain_journal();
        let forest = TraceForest::build(&events);
        assert_eq!(forest.trace_count(), 2);
        assert_eq!(forest.spanless, 1);
        assert_eq!(forest.orphan_count(), 1);
        assert!(forest.monotone_violations.is_empty());
        let path = forest.path_of(5).unwrap();
        assert_eq!(path, vec![0, 1, 2, 3, 4, 5]);
        // Orphaned link has no path to a root.
        assert!(forest.path_of(7).is_none());
    }

    #[test]
    fn analysis_counts_chains_hops_and_families() {
        let events = chain_journal();
        let a = analyze("test", &events, 3);
        assert_eq!(a.complete_chains, 1);
        assert_eq!(a.spanned_verdicts, 1);
        assert_eq!(a.hops_malicious.get(&3), Some(&1));
        assert!(a.hops_clean.is_empty());
        let fam = a.families.get("worm_a").unwrap();
        assert_eq!(fam.infections, 1);
        assert_eq!(fam.traces.len(), 1);
        assert_eq!(fam.hops.get(&3), Some(&1));
        assert_eq!(a.orphans.len(), 1);
        assert_eq!(a.deepest[0].path.len(), 6);
        // Every span of the chain has one child: the largest span id wins.
        assert_eq!(a.widest[0].span_ev, "scan_verdict");
        assert_eq!((a.widest[0].fanout, a.widest[0].events), (1, 6));
        assert_eq!(a.widest[1].span_ev, "<orphaned>");
        // Edge latency captured per edge kind.
        assert_eq!(a.edges.get("query_issued->query_matched").unwrap().count, 1);
        assert_eq!(a.edges.get("scan_verdict->infection").unwrap().mean_us(), 0);
        // JSON render is stable and contains the headline numbers.
        let json = a.to_json();
        assert_eq!(json.get("complete_chains").and_then(Value::as_u64), Some(1));
        assert_eq!(json.get("orphans").and_then(Value::as_u64), Some(1));
        assert!(a.render_summary().contains("1/1 scan verdicts"));
    }

    /// The corners the flat tables must keep as the per-trace maps had them:
    /// the first event of a duplicated span owns it, span ids do not resolve
    /// across traces, a cycle has no path, orphans sharing a missing parent
    /// are that span's fanout, and edge kinds whose labels render alike
    /// share one row.
    #[test]
    fn duplicates_cycles_orphans_and_label_collisions() {
        let line = |t: u64, ev: &str, trace: u64, span: u64, parent: Option<u64>, body: &str| {
            let parent = parent.map_or(String::new(), |p| format!(",\"parent\":\"{p:016x}\""));
            format!(
                "{{\"t\":{t},\"day\":0,\"cat\":\"c\",\"ev\":\"{ev}\",\
                 \"trace\":\"{trace:016x}\",\"span\":\"{span:016x}\"{parent}{body}}}\n"
            )
        };
        let text = [
            // 0-4, trace 3: span 0x31 is emitted twice; the first (hops 1) owns it.
            line(80, "query_issued", 3, 0x30, None, ""),
            line(81, "query_matched", 3, 0x31, Some(0x30), ",\"hops\":1"),
            line(82, "query_matched", 3, 0x31, Some(0x30), ",\"hops\":2"),
            line(83, "download_start", 3, 0x32, Some(0x31), ""),
            line(84, "scan_verdict", 3, 0x33, Some(0x32), ",\"detections\":0"),
            // 5-7, trace 2: two orphans share a missing parent, one has its own.
            line(70, "download_retry", 2, 0x21, Some(0xff), ""),
            line(71, "download_retry", 2, 0x22, Some(0xff), ""),
            line(72, "download_retry", 2, 0x23, Some(0xfe), ""),
            // 8-10, trace 4: a two-span cycle with a verdict hanging off it.
            line(90, "query_matched", 4, 0x41, Some(0x42), ""),
            line(91, "query_matched", 4, 0x42, Some(0x41), ""),
            line(92, "scan_verdict", 4, 0x43, Some(0x41), ""),
            // 11, trace 8: span 0x30 exists, but in trace 3.
            line(95, "query_matched", 8, 0x81, Some(0x30), ""),
            // 12-15: ("a->b", "c") and ("a", "b->c") both render "a->b->c".
            line(100, "a->b", 6, 0x60, None, ""),
            line(101, "c", 6, 0x61, Some(0x60), ""),
            line(102, "a", 7, 0x70, None, ""),
            line(105, "b->c", 7, 0x71, Some(0x70), ""),
        ]
        .concat();
        let journal = parse_journal(&text).unwrap();
        let forest = TraceForest::build(&journal);
        assert_eq!(forest.path_of(4), Some(vec![0, 1, 3, 4]));
        assert_eq!(forest.path_of(10), None);
        assert_eq!(forest.path_of(11), None);
        assert_eq!(forest.orphan_count(), 4);

        let a = analyze("odd", &journal, 10);
        assert_eq!(a.trace_count, 6);
        assert_eq!((a.spanned_verdicts, a.complete_chains), (2, 0));
        assert_eq!(a.hops_clean, BTreeMap::from([(1, 1)]));
        // By (trace, line): trace 2's three, then trace 8's.
        let orphan_lines: Vec<usize> = a.orphans.iter().map(|o| o.0).collect();
        assert_eq!(orphan_lines, [6, 7, 8, 12]);
        let merged = a.edges.get("a->b->c").unwrap();
        assert_eq!((merged.count, merged.min_us, merged.max_us), (2, 1, 3));
        // Fanout 2 three times, so by trace: the missing parent of trace 2,
        // the root of trace 3, and one span of trace 4's cycle.
        let widest: Vec<(u64, &str, usize, usize)> = a
            .widest
            .iter()
            .map(|w| (w.trace, w.span_ev.as_str(), w.fanout, w.events))
            .collect();
        assert_eq!(widest[0], (2, "<orphaned>", 2, 3));
        assert_eq!(widest[1], (3, "query_issued", 2, 5));
        assert_eq!(widest[2], (4, "query_matched", 2, 3));
        // Traces 2, 4 and 8 have no resolvable path at all.
        let deepest: Vec<(u64, usize)> =
            a.deepest.iter().map(|c| (c.trace, c.path.len())).collect();
        assert_eq!(deepest, [(3, 4), (6, 2), (7, 2)]);
    }
}
