//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Every timed call goes through [`Tracer::open`] / [`Tracer::close`]
//! whether or not tracing is on, so the traced and untraced runs execute
//! the same code; with tracing off nothing is stored. Spans are written out
//! once, when the workload ends.

use p2pmal_json::Value;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An open span: where it started and, when tracing is on, its slot.
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts a span named `<layer>.<call>`, child of the innermost span
    /// still open.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            let at = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                start_ns: at,
                end_ns: at,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, slot }
    }

    /// Ends a span and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        if let Some(slot) = open.slot {
            assert_eq!(self.stack.pop(), Some(slot), "spans close innermost first");
            self.spans[slot].end_ns = self.spans[slot].start_ns + elapsed.as_nanos() as u64;
        }
        elapsed.as_secs_f64()
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name);
        let r = f();
        (r, self.close(open))
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Host seconds one open/close pair costs with tracing on, measured on
    /// a scratch tracer; `spans x this` is the traced run's overhead.
    pub fn cost_per_span_s() -> f64 {
        const PAIRS: usize = 20_000;
        let mut scratch = Tracer::new(true);
        scratch.spans.reserve(PAIRS);
        let t0 = Instant::now();
        for _ in 0..PAIRS {
            let open = scratch.open("probe.span");
            std::hint::black_box(scratch.close(open));
        }
        t0.elapsed().as_secs_f64() / PAIRS as f64
    }

    /// Spans as JSON: `self_ns` is the duration minus the part covered by
    /// child spans (children of one parent never overlap: the benchmark is
    /// sequential).
    pub fn to_json(&self) -> Value {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let layer = s.name.split('.').next().unwrap_or(s.name);
                    Value::Obj(vec![
                        ("id".into(), (id as u64).into()),
                        ("parent".into(), s.parent.map(|p| p as u64).into()),
                        ("name".into(), s.name.into()),
                        ("layer".into(), layer.into()),
                        ("start_ns".into(), s.start_ns.into()),
                        ("end_ns".into(), s.end_ns.into()),
                        (
                            "self_ns".into(),
                            (s.end_ns - s.start_ns).saturating_sub(child_ns[id]).into(),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_untraced_stores_nothing() {
        let mut t = Tracer::new(true);
        let root = t.open("benchmark.workload");
        let (_, inner) = t.span("core.run", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let outer = t.close(root);
        assert!(outer >= inner);
        let spans = t.to_json();
        let root = &spans[0];
        let child = &spans[1];
        assert_eq!(child["parent"].as_u64(), Some(0));
        assert_eq!(child["layer"], "core");
        let covered = child["end_ns"].as_u64().unwrap() - child["start_ns"].as_u64().unwrap();
        let dur = root["end_ns"].as_u64().unwrap() - root["start_ns"].as_u64().unwrap();
        assert_eq!(root["self_ns"].as_u64().unwrap(), dur - covered);

        let mut off = Tracer::new(false);
        let (v, secs) = off.span("core.run", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(off.span_count(), 0);
    }
}
