//! Perf: discrete-event simulator throughput.
//!
//! Two measurements:
//!
//! * **Scheduler head-to-head** — the bucketed calendar queue vs its
//!   ordering oracle, the `(time, seq)` binary heap, on the classic *hold
//!   model* (pre-fill to a working depth, then pop one / push one at a
//!   jittered future time), the access pattern a running simulation
//!   produces. This isolates the scheduler itself; events/second for both
//!   go to stdout.
//! * **Shard scaling** — one simulated day of the quick LimeWire study on
//!   one lane and on four. Same trajectory, so the event counts match and
//!   events/second compares host cost only.

use criterion::{criterion_group, criterion_main, Criterion};
use p2pmal_core::LimewireScenario;
use p2pmal_netsim::queue::{CalendarQueue, HeapQueue, Scheduler};
use p2pmal_netsim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Hold model: `depth` events resident, `ops` pop+push rounds with
/// deliveries jittered up to ~2 simulated seconds ahead (plus rare
/// far-future timers that exercise the calendar's overflow heap).
fn hold_model<S: Scheduler<u64>>(q: &mut S, depth: usize, ops: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(0x401D);
    let mut now = 0u64;
    for i in 0..depth {
        q.push(
            SimTime::from_micros(rng.gen_range(0..2_000_000u64)),
            i as u64,
        );
    }
    let mut acc = 0u64;
    for i in 0..ops {
        let (t, id) = q.pop().expect("hold model never drains");
        now = now.max(t.as_micros());
        acc = acc.wrapping_add(id);
        let ahead = if rng.gen_bool(0.001) {
            rng.gen_range(150_000_000..600_000_000u64) // far-future timer
        } else {
            rng.gen_range(1..2_000_000u64)
        };
        q.push(SimTime::from_micros(now + ahead), i as u64);
    }
    acc
}

/// One simulated day of the quick LimeWire study on `shards` lanes; returns
/// events processed.
fn run_sharded_scenario(seed: u64, shards: usize) -> u64 {
    let mut sc = LimewireScenario::quick(seed);
    sc.days = 1;
    sc.shards = shards;
    sc.run().sim_metrics.events_processed
}

/// Sample count: 10 normally, 2 under `P2PMAL_PERF_SMOKE=1` (CI smoke).
fn samples() -> usize {
    if std::env::var("P2PMAL_PERF_SMOKE").is_ok() {
        2
    } else {
        10
    }
}

const HOLD_DEPTH: usize = 100_000;
const HOLD_OPS: usize = 200_000;

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.sample_size(samples());
    g.bench_function(&format!("heap_hold_{HOLD_DEPTH}"), |b| {
        b.iter(|| {
            let mut q = HeapQueue::default();
            black_box(hold_model(&mut q, HOLD_DEPTH, HOLD_OPS))
        });
    });
    g.bench_function(&format!("calendar_hold_{HOLD_DEPTH}"), |b| {
        b.iter(|| {
            let mut q = CalendarQueue::default();
            black_box(hold_model(&mut q, HOLD_DEPTH, HOLD_OPS))
        });
    });
    g.finish();

    // Head-to-head events/second for the logs (EXPERIMENTS.md records
    // these): same workload, scheduler is the only variable.
    let rate = |f: &dyn Fn() -> u64| {
        let t0 = std::time::Instant::now();
        let mut reps = 0u32;
        while reps < 3 || t0.elapsed().as_millis() < 300 {
            black_box(f());
            reps += 1;
        }
        (reps as u64 * (HOLD_DEPTH + HOLD_OPS) as u64) as f64 / t0.elapsed().as_secs_f64()
    };
    let heap = rate(&|| hold_model(&mut HeapQueue::default(), HOLD_DEPTH, HOLD_OPS));
    let cal = rate(&|| hold_model(&mut CalendarQueue::default(), HOLD_DEPTH, HOLD_OPS));
    println!(
        "scheduler hold({HOLD_DEPTH}): heap {:.0} events/s, calendar {:.0} events/s ({:.2}x)",
        heap,
        cal,
        cal / heap
    );
}

/// Shard scaling: the same quick scenario, hence the same events, on one
/// lane (inline) and on four (worker threads, barriers).
fn bench_shard_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard_scaling");
    g.sample_size(samples());
    for (label, shards) in [
        ("limewire_1day_shards1", 1usize),
        ("limewire_1day_shards4", 4),
    ] {
        g.bench_function(label, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(run_sharded_scenario(seed, shards))
            });
        });
    }
    g.finish();

    for (label, shards) in [("shards=1", 1usize), ("shards=4", 4)] {
        let t0 = std::time::Instant::now();
        let mut events = 0u64;
        for rep in 0..4 {
            events += run_sharded_scenario(7 + rep, shards);
        }
        println!(
            "shard_scaling[{label}]: {events} events in {:.2}s wall = {:.0} events/s",
            t0.elapsed().as_secs_f64(),
            events as f64 / t0.elapsed().as_secs_f64()
        );
    }
}

criterion_group!(benches, bench_scheduler, bench_shard_scaling);
criterion_main!(benches);
