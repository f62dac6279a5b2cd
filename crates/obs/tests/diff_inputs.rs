//! `diff_bench` on any input: it returns `Err` or a `Diff` and never
//! panics, and a snapshot broken where the comparison reads it never gets
//! a clean verdict.

use p2pmal_json::Value;
use p2pmal_obs::{diff_bench, DiffOptions};
use proptest::prelude::*;

/// The committed snapshots: two studies and two mega runs.
const SNAPSHOTS: [&str; 4] = [
    include_str!("../../../bench/BENCH_study.json"),
    include_str!("../../../bench/BENCH_study_quick.json"),
    include_str!("../../../bench/BENCH_mega.json"),
    include_str!("../../../bench/BENCH_mega_250k.json"),
];

fn snapshot(i: usize) -> Value {
    p2pmal_json::parse(SNAPSHOTS[i]).expect("committed snapshot parses")
}

/// Keys the BENCH shapes use, so arbitrary documents get recognized as one
/// shape or the other often enough to go deep.
const KEYS: &[&str] = &[
    "networks",
    "network",
    "LimeWire",
    "wall_secs",
    "events",
    "events_per_sec",
    "shards",
    "window_ms",
    "subsystems",
    "app",
    "secs",
    "calls",
    "memory",
    "nodes",
    "bytes_per_node",
    "telemetry",
    "counters",
    "hists",
    "scan_wall_us",
    "count",
    "p50",
    "run_secs",
    "phase",
    "seed",
    "quick",
];

/// Numeric fields the diff reads wherever they occur in a snapshot.
const READ_NUMBERS: &[&str] = &[
    "seed",
    "wall_secs",
    "run_secs",
    "events",
    "events_per_sec",
    "shards",
    "window_ms",
    "secs",
    "calls",
    "nodes",
    "bytes_per_node",
    "count",
];

/// Sections the diff walks: an object, or for these two an array.
const SECTIONS: &[&str] = &[
    "networks",
    "subsystems",
    "memory",
    "telemetry",
    "counters",
    "hists",
];

/// A SplitMix64 stream: one proptest seed drives a whole document.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn number(&mut self) -> f64 {
        [
            0.0,
            -1.0,
            0.5,
            12_345.0,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            self.next() as f64,
        ][self.below(9)]
    }

    fn key(&mut self) -> String {
        KEYS[self.below(KEYS.len())].to_string()
    }

    fn value(&mut self, depth: u32) -> Value {
        match self.below(if depth == 0 { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 1),
            2 => Value::Num(self.number()),
            3 => Value::Str(self.key()),
            4 => Value::Arr((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Obj(
                (0..self.below(6))
                    .map(|_| (self.key(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }
}

/// A step down a document: an object key or an array index.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every path below the root.
fn paths(v: &Value, prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    let children: Vec<(Step, &Value)> = match v {
        Value::Obj(fields) => fields
            .iter()
            .map(|(k, v)| (Step::Key(k.clone()), v))
            .collect(),
        Value::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| (Step::Index(i), v))
            .collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        prefix.push(step);
        out.push(prefix.clone());
        paths(child, prefix, out);
        prefix.pop();
    }
}

fn at_mut<'v>(v: &'v mut Value, path: &[Step]) -> &'v mut Value {
    path.iter().fold(v, |v, step| match (v, step) {
        (Value::Obj(fields), Step::Key(k)) => {
            &mut fields.iter_mut().find(|(key, _)| key == k).unwrap().1
        }
        (Value::Arr(items), Step::Index(i)) => &mut items[*i],
        _ => unreachable!("paths come from the document"),
    })
}

/// Deletes the node at `path`, or replaces it with `with`.
fn mutate(doc: &mut Value, path: &[Step], with: Option<Value>) {
    let (last, parent) = path.split_last().unwrap();
    match (at_mut(doc, parent), last, with) {
        (node, _, Some(with)) => *at_mut(node, std::slice::from_ref(last)) = with,
        (Value::Obj(fields), Step::Key(k), None) => fields.retain(|(key, _)| key != k),
        (Value::Arr(items), Step::Index(i), None) => {
            items.remove(*i);
        }
        _ => unreachable!(),
    }
}

fn key_of(step: Option<&Step>) -> &str {
    match step {
        Some(Step::Key(k)) => k,
        _ => "",
    }
}

/// Whether the candidate mutation breaks something the diff reads: a read
/// number deleted or made unusable (not finite, negative, or a zero wall
/// time), a section deleted, retyped or emptied, or an entry of a network,
/// a bucket, a counter, a hist or a mega memory phase deleted.
fn breaks(doc: &Value, path: &[Step], with: &Option<Value>) -> bool {
    let key = key_of(path.last());
    let parent_key = key_of(path.len().checked_sub(2).map(|i| &path[i]));
    let mut doc = doc.clone();
    let parent_is_arr = matches!(at_mut(&mut doc, &path[..path.len() - 1]), Value::Arr(_));
    let original = at_mut(&mut doc, path);
    match with {
        None => {
            READ_NUMBERS.contains(&key)
                || SECTIONS.contains(&key)
                || ["subsystems", "counters", "hists"].contains(&parent_key)
                || parent_is_arr && ["networks", "memory"].contains(&parent_key)
        }
        Some(v) if READ_NUMBERS.contains(&key) => {
            let positive = key == "wall_secs" || key == "run_secs";
            !v.as_f64()
                .is_some_and(|x| x.is_finite() && (x > 0.0 || x == 0.0 && !positive))
        }
        Some(v) if SECTIONS.contains(&key) => match (&*original, v) {
            (Value::Arr(_), Value::Arr(items)) => items.is_empty(),
            (Value::Obj(_), Value::Obj(fields)) => fields.is_empty(),
            _ => true,
        },
        Some(_) => false,
    }
}

fn survives(base: &Value, cand: &Value) -> Option<bool> {
    let diff = diff_bench(base, cand, &DiffOptions::default()).ok()?;
    let _ = diff.to_json().to_string_compact();
    Some(diff.ok())
}

proptest! {
    /// Arbitrary documents, alone or against a committed snapshot; and
    /// studies and mega runs whose every member is arbitrary.
    #[test]
    fn arbitrary_documents_never_panic(seed in any::<u64>(), which in 0usize..4) {
        let mut g = Gen(seed);
        let networks = (0..g.below(3)).map(|_| g.value(4)).collect();
        let study = Value::Obj(vec![("networks".into(), Value::Arr(networks))]);
        let mut mega = g.value(4);
        if let Value::Obj(fields) = &mut mega {
            fields.push(("run_secs".into(), Value::Num(g.number())));
        }
        let snap = snapshot(which);
        for doc in [g.value(5), study, mega] {
            survives(&doc, &doc);
            survives(&doc, &snap);
            survives(&snap, &doc);
        }
    }

    /// A committed snapshot with one node deleted or replaced.
    #[test]
    fn mutated_snapshots_never_panic_nor_pass_broken(seed in any::<u64>(), which in 0usize..4) {
        let mut g = Gen(seed);
        let base = snapshot(which);
        let mut all = Vec::new();
        paths(&base, &mut Vec::new(), &mut all);
        let path = &all[g.below(all.len())];
        let with = match g.below(10) {
            0 => None,
            1 => Some(Value::Null),
            2 => Some(Value::Bool(true)),
            3 => Some(Value::Str("x".into())),
            4 => Some(Value::Num(f64::NAN)),
            5 => Some(Value::Num(-1.0)),
            6 => Some(Value::Num(f64::INFINITY)),
            7 => Some(Value::Obj(Vec::new())),
            8 => Some(Value::Arr(Vec::new())),
            _ => Some(g.value(3)),
        };
        let mut cand = base.clone();
        mutate(&mut cand, path, with.clone());
        survives(&cand, &cand);
        survives(&cand, &base);
        let verdict = survives(&base, &cand);
        if breaks(&base, path, &with) {
            prop_assert!(verdict != Some(true), "{path:?} -> {with:?} passed clean");
        }
    }
}

/// A study snapshot without `subsystems` on either side, or on both, fails.
#[test]
fn a_study_without_subsystems_does_not_pass() {
    let base = snapshot(1);
    let mut bare = base.clone();
    for net in 0..2 {
        mutate(
            &mut bare,
            &[
                Step::Key("networks".into()),
                Step::Index(net),
                Step::Key("subsystems".into()),
            ],
            None,
        );
    }
    for (b, c) in [(&base, &bare), (&bare, &base), (&bare, &bare)] {
        let diff = diff_bench(b, c, &DiffOptions::default()).unwrap();
        assert!(!diff.ok());
        assert!(
            diff.failures.iter().any(|f| f.contains("subsystems")),
            "{:?}",
            diff.failures
        );
    }
}

/// Zero, negative and non-finite wall times fail on either side.
#[test]
fn an_unusable_wall_time_does_not_pass() {
    let base = snapshot(1);
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let mut cand = base.clone();
        let wall = [
            Step::Key("networks".into()),
            Step::Index(0),
            Step::Key("wall_secs".into()),
        ];
        mutate(&mut cand, &wall, Some(Value::Num(bad)));
        for (b, c) in [(&base, &cand), (&cand, &base)] {
            let diff = diff_bench(b, c, &DiffOptions::default()).unwrap();
            assert!(
                diff.failures.iter().any(|f| f.contains("wall_secs")),
                "{bad}: {:?}",
                diff.failures
            );
        }
    }
    let diff = diff_bench(&base, &base, &DiffOptions::default()).unwrap();
    assert!(diff.ok(), "{:?}", diff.failures);
}
