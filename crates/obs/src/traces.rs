//! Causal trace reconstruction over a loaded journal.
//!
//! Spanned journal events form, per trace id, a forest: `query_issued`
//! roots, `query_matched` children, and the download / scan / infection
//! chain hanging off each match (the exact shape is documented in
//! `p2pmal-crawler`'s `trace.rs`). The siblings under one parent span
//! share a *context* of the [`Journal`] — its `(trace, parent)` pair — so
//! this module rebuilds the trees as a few arrays over contexts, not
//! events: which event emitted the span a context names, how many events
//! it has, and which trace it is in. It checks referential integrity
//! (every `parent` must resolve to a span emitted somewhere in the same
//! trace; sim-time must not decrease from parent to child), and derives the
//! analyses the `trace_report` bin prints in one pass over the events:
//! per-edge sim-time latency, hop-depth distributions, per-family
//! propagation stats, and top-K deepest / widest traces. Every ranking
//! breaks ties on ids, so reports are byte-stable. [`strict_failures`] is
//! what `trace_report --strict` rejects.

use std::collections::{BTreeMap, HashSet};

use p2pmal_json::Value;
use p2pmal_netsim::telemetry_span::span_hex;
use p2pmal_netsim::EventCategory;

use crate::journal::{Ctx, Journal, Record};

/// "No event" in [`TraceForest::owner`]: a root context, or one whose
/// parent span was never emitted. A journal holds fewer than `u32::MAX`
/// events.
const NONE: u32 = u32::MAX;

/// All traces of a journal plus integrity bookkeeping.
#[derive(Debug)]
pub struct TraceForest<'j> {
    journal: &'j Journal,
    /// Per context, the first event in the file that emitted the span its
    /// events name as parent, or [`NONE`].
    owner: Vec<u32>,
    /// Per context, how many events it has: the fanout of the span it
    /// names, resolved or not.
    members: Vec<u32>,
    /// Per context, the position of its trace in `traces`.
    trace_at: Vec<u32>,
    /// The distinct trace ids, ascending.
    traces: Vec<u64>,
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
        let contexts = journal.contexts();
        let mut owner = vec![NONE; contexts.len()];
        let mut members = vec![0u32; contexts.len()];
        for (idx, r) in records.iter().enumerate() {
            let Some(ctx) = journal.context_of(r) else {
                continue;
            };
            members[r.ctx as usize] += 1;
            let named = Ctx {
                trace: ctx.trace,
                parent: Some(r.span),
            };
            if let Some(c) = journal.context_code(&named) {
                let first = &mut owner[c as usize];
                if *first == NONE {
                    *first = idx as u32;
                }
            }
        }

        let mut traces: Vec<u64> = contexts.iter().map(|ctx| ctx.trace).collect();
        traces.sort_unstable();
        traces.dedup();
        let trace_at = contexts
            .iter()
            .map(|ctx| traces.partition_point(|&t| t < ctx.trace) as u32)
            .collect();

        let spanned = members.iter().map(|&n| n as usize).sum();
        let mut forest = TraceForest {
            journal,
            owner,
            members,
            trace_at,
            traces,
            spanless: records.len() - spanned,
            spanned,
            monotone_violations: Vec::new(),
        };
        for (idx, r) in records.iter().enumerate() {
            if let Some(owner) = forest.parent_of(r) {
                if journal.t(owner) > journal.t(idx) {
                    forest.monotone_violations.push((idx, owner));
                }
            }
        }
        forest
    }

    /// The event that emitted `r`'s parent span, if `r` has one and it
    /// resolves.
    fn parent_of(&self, r: &Record) -> Option<usize> {
        r.spanned()
            .then(|| self.owner[r.ctx as usize])
            .filter(|&owner| owner != NONE)
            .map(|owner| owner as usize)
    }

    /// Visits `idx` and then each ancestor up to its root. `false` if a
    /// link is orphaned (or a hash collision formed a cycle); the visits
    /// made until then still happened.
    fn ascend(&self, idx: usize, mut visit: impl FnMut(usize)) -> bool {
        let records = self.journal.records();
        let mut cur = idx;
        for _ in 0..=records.len() {
            let Some(ctx) = self.journal.context_of(&records[cur]) else {
                return false;
            };
            visit(cur);
            if ctx.parent.is_none() {
                return true;
            }
            match self.parent_of(&records[cur]) {
                Some(owner) => cur = owner,
                None => return false,
            }
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

    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    pub fn orphan_count(&self) -> usize {
        self.journal
            .contexts()
            .iter()
            .zip(&self.owner)
            .zip(&self.members)
            .filter(|((ctx, &owner), _)| ctx.parent.is_some() && owner == NONE)
            .map(|(_, &n)| n as usize)
            .sum()
    }
}

/// Sim-time aggregate for one parent→child edge kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeAgg {
    pub count: u64,
    pub min_us: u64,
    pub max_us: u64,
    /// Wide enough for any count of `u64` latencies.
    pub sum_us: u128,
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
        self.sum_us += u128::from(dt);
    }

    fn merge(&mut self, other: &EdgeAgg) {
        if self.count == 0 || other.min_us < self.min_us {
            self.min_us = other.min_us;
        }
        self.max_us = self.max_us.max(other.max_us);
        self.count += other.count;
        self.sum_us += other.sum_us;
    }

    /// The mean, rounded down; it lies between `min_us` and `max_us`.
    pub fn mean_us(&self) -> u64 {
        self.sum_us
            .checked_div(u128::from(self.count))
            .map_or(0, |mean| mean as u64)
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
    let contexts = journal.contexts();
    let ev_of = |idx: usize| journal.ev_label(journal.kind(idx).ev);
    let mut analysis = Analysis {
        label: label.to_string(),
        total_events: records.len(),
        spanless: forest.spanless,
        spanned: forest.spanned,
        trace_count: forest.trace_count(),
        orphans: Vec::new(),
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

    let code = |label: &str| journal.ev_code(label);
    let (issued, matched) = (code("query_issued"), code("query_matched"));
    let (start, complete) = (code("download_start"), code("download_complete"));
    let (verdict, infection) = (code("scan_verdict"), code("infection"));
    // The chain behind `idx`: its depth, which stages it passes, the stage
    // at its root, and the `hops` of the `query_matched` nearest the root.
    let chain = |idx: usize| {
        let (mut depth, mut seen, mut root, mut hops) = (0, [false; 3], None, None);
        let resolved = forest.ascend(idx, |i| {
            let kind = journal.kind(i);
            let ev = Some(kind.ev);
            depth += 1;
            root = ev;
            for (stage, flag) in [matched, start, complete].iter().zip(&mut seen) {
                *flag |= ev == *stage;
            }
            if ev == matched {
                hops = kind.hops;
            }
        });
        resolved.then_some((depth, seen, root, hops))
    };

    // One pass in file order: per-edge sim-time latency keyed by label
    // code, orphans, chains anchored on scan verdicts, per-family
    // propagation anchored on infection events, and per trace its longest
    // root→leaf path (the earliest event on ties).
    let mut edges: BTreeMap<(u16, u16), EdgeAgg> = BTreeMap::new();
    let mut orphans: Vec<(u64, usize)> = Vec::new();
    let mut deepest_at: Vec<(usize, usize)> = vec![(0, 0); forest.trace_count()];
    for (idx, r) in records.iter().enumerate() {
        let ctx = journal.context_of(r);
        let (t, kind) = (journal.t(idx), journal.kind(idx));
        if let Some(owner) = forest.parent_of(r) {
            edges
                .entry((journal.kind(owner).ev, kind.ev))
                .or_default()
                .push(t.saturating_sub(journal.t(owner)));
        } else if let Some(ctx) = ctx.filter(|c| c.parent.is_some()) {
            orphans.push((ctx.trace, idx));
        }
        let chain = chain(idx);
        if let Some((depth, ..)) = chain {
            let best = &mut deepest_at[forest.trace_at[r.ctx as usize] as usize];
            if depth > best.0 {
                *best = (depth, idx);
            }
        }
        let ev = Some(kind.ev);
        if ev == verdict && ctx.is_some() {
            analysis.spanned_verdicts += 1;
            let Some((_, seen, root, hops)) = chain else {
                continue;
            };
            if root == issued && seen == [true; 3] {
                analysis.complete_chains += 1;
            }
            if let Some(hops) = hops {
                let bucket = if kind.detections.unwrap_or(0) > 0 {
                    &mut analysis.hops_malicious
                } else {
                    &mut analysis.hops_clean
                };
                *bucket.entry(hops).or_insert(0) += 1;
            }
        }
        if ev == infection {
            let family = journal.family_of(idx).unwrap_or("unknown").to_string();
            let stats = analysis.families.entry(family).or_default();
            stats.infections += 1;
            if let Some(ctx) = ctx {
                *stats.traces.entry(ctx.trace).or_insert(0) += 1;
                if let Some((.., Some(hops))) = chain {
                    *stats.hops.entry(hops).or_insert(0) += 1;
                }
            }
        }
    }
    for ((parent_ev, child_ev), agg) in edges {
        let key = format!(
            "{}->{}",
            journal.ev_label(parent_ev),
            journal.ev_label(child_ev)
        );
        analysis.edges.entry(key).or_default().merge(&agg);
    }
    orphans.sort_unstable();
    analysis.orphans = orphans
        .into_iter()
        .map(|(_, idx)| {
            let parent = journal.context_of(&records[idx]).and_then(|c| c.parent);
            (
                journal.line_of(idx),
                parent.unwrap_or(0),
                ev_of(idx).to_string(),
            )
        })
        .collect();

    // Per trace: its events, and its bushiest span — the parent a context
    // names, whether emitted or not — by (fanout, span id).
    let mut events_at = vec![0usize; forest.trace_count()];
    let mut widest_at: Vec<Option<(u32, u64, u32)>> = vec![None; forest.trace_count()];
    for (c, ctx) in contexts.iter().enumerate() {
        let at = forest.trace_at[c] as usize;
        let kids = forest.members[c];
        events_at[at] += kids as usize;
        if let Some(span) = ctx.parent {
            let widest = &mut widest_at[at];
            if widest.is_none_or(|(k, s, _)| (kids, span) > (k, s)) {
                *widest = Some((kids, span, forest.owner[c]));
            }
        }
    }
    let mut deepest: Vec<(usize, u64, usize)> = Vec::new();
    let mut widest: Vec<WidthDesc> = Vec::new();
    for (at, &trace) in forest.traces.iter().enumerate() {
        let (depth, idx) = deepest_at[at];
        if depth > 0 {
            deepest.push((depth, trace, idx));
        }
        if let Some((kids, _, owner)) = widest_at[at] {
            widest.push(WidthDesc {
                trace,
                span_ev: match owner {
                    NONE => "<orphaned>",
                    owner => ev_of(owner as usize),
                }
                .to_string(),
                fanout: kids as usize,
                events: events_at[at],
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
                .map(|i| (ev_of(i).to_string(), journal.t(i)))
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

    /// Of two equally deep leaves, the earlier line is the trace's deepest,
    /// though the later one has the smaller span id and sim time.
    #[test]
    fn deepest_ties_go_to_the_earliest_event() {
        let text = concat!(
            "{\"t\":1,\"day\":0,\"cat\":\"query\",\"ev\":\"query_issued\",\"trace\":\"1\",\"span\":\"5\"}\n",
            "{\"t\":4,\"day\":0,\"cat\":\"query\",\"ev\":\"query_matched\",\"trace\":\"1\",\"span\":\"9\",\"parent\":\"5\"}\n",
            "{\"t\":3,\"day\":0,\"cat\":\"query\",\"ev\":\"query_matched\",\"trace\":\"1\",\"span\":\"3\",\"parent\":\"5\"}\n",
        );
        let a = analyze("tie", &parse_journal(text).unwrap(), 1);
        let times: Vec<u64> = a.deepest[0].path.iter().map(|&(_, t)| t).collect();
        assert_eq!(times, [1, 4]);
    }

    /// Two latencies near `u64::MAX` sum past it; the mean stays exact.
    #[test]
    fn edge_latency_sums_do_not_overflow() {
        let text = concat!(
            "{\"t\":0,\"day\":0,\"cat\":\"query\",\"ev\":\"query_issued\",\"trace\":\"1\",\"span\":\"10\"}\n",
            "{\"t\":10000000000000000000,\"day\":0,\"cat\":\"query\",\"ev\":\"query_matched\",\"trace\":\"1\",\"span\":\"11\",\"parent\":\"10\"}\n",
            "{\"t\":10000000000000000000,\"day\":0,\"cat\":\"query\",\"ev\":\"query_matched\",\"trace\":\"1\",\"span\":\"12\",\"parent\":\"10\"}\n",
        );
        let a = analyze("big", &parse_journal(text).unwrap(), 3);
        let edge = a.edges["query_issued->query_matched"];
        let dt = 10_000_000_000_000_000_000;
        assert_eq!(
            (edge.count, edge.min_us, edge.mean_us(), edge.max_us),
            (2, dt, dt, dt)
        );
        assert!(a.render_summary().contains(&format!("{dt}/{dt}/{dt}")));
    }

    const EVS: [(&str, &str); 8] = [
        ("query", "query_issued"),
        ("query", "query_matched"),
        ("download", "download_start"),
        ("download", "download_complete"),
        ("download", "download_retry"),
        ("scan", "scan_verdict"),
        ("scan", "infection"),
        ("bogus", "churn_down"),
    ];

    proptest::proptest! {
        /// Journals of chain-shaped lines over a few traces and spans, with
        /// `t` and `hops` across all of `u64`, duplicate spans, cycles,
        /// orphans and spanless lines: the analysis, both renderings and
        /// the strict gate never panic, and the counts agree.
        #[test]
        fn analysis_never_panics(
            events in proptest::collection::vec(
                (
                    (proptest::any::<u64>(), 0u32..4),
                    (0usize..2 * EVS.len(), 0u8..8),
                    (0u64..2, 0u64..4, 0u64..4),
                    (proptest::any::<u64>(), 0u32..64),
                ),
                0..40,
            ),
            top_k in 0usize..4
        ) {
            let mut text = String::new();
            for ((t, t_shift), (ev, fields), (trace, span, parent), (extra, shift)) in events {
                // Half the lines are matches, so edge kinds repeat.
                let (cat, ev) = *EVS.get(ev).unwrap_or(&EVS[1]);
                text.push_str(&format!(
                    "{{\"t\":{},\"day\":0,\"cat\":\"{cat}\",\"ev\":\"{ev}\"",
                    t >> (t_shift * 21)
                ));
                if fields & 1 != 0 {
                    text.push_str(&format!(",\"trace\":\"{trace:x}\",\"span\":\"{span:x}\""));
                    if fields & 2 != 0 {
                        text.push_str(&format!(",\"parent\":\"{parent:x}\""));
                    }
                }
                match ev {
                    "query_matched" => text.push_str(&format!(",\"hops\":{}", extra >> shift)),
                    "scan_verdict" => text.push_str(&format!(",\"detections\":{}", extra % 3)),
                    "infection" if fields & 4 != 0 => {
                        text.push_str(&format!(",\"family\":\"f{}\"", extra % 3))
                    }
                    _ => {}
                }
                text.push_str("}\n");
            }
            let journal = parse_journal(&text).unwrap();
            let forest = TraceForest::build(&journal);
            for idx in 0..journal.len() {
                if let Some(path) = forest.path_of(idx) {
                    proptest::prop_assert_eq!(path.last(), Some(&idx));
                    proptest::prop_assert!(journal.get(path[0]).parent.is_none());
                }
            }
            let a = analyze("prop", &journal, top_k);
            proptest::prop_assert_eq!(a.spanned + a.spanless, journal.len());
            proptest::prop_assert_eq!(a.orphans.len(), forest.orphan_count());
            proptest::prop_assert_eq!(a.trace_count, forest.trace_count());
            for agg in a.edges.values() {
                proptest::prop_assert!(agg.min_us <= agg.mean_us() && agg.mean_us() <= agg.max_us);
            }
            let _ = a.to_json().to_string_pretty();
            let _ = a.render_summary();
            let _ = strict_failures(&journal, &a);
        }
    }
}
