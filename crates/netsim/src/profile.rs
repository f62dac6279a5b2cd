//! Lightweight per-subsystem wall-time profiler.
//!
//! The simulator spends its life in a handful of places: popping the event
//! queue, running app callbacks, pumping bytes through simulated TCP, and —
//! inside app callbacks — scanning download bodies and matching queries
//! against share libraries. This module gives each a named bucket of
//! wall-clock nanoseconds so perf work on the full study can see where the
//! time actually goes instead of inferring it from microbenches.
//!
//! Reading the clock costs as much as a small callback, so the profiler
//! counts every app callback but times one in `SAMPLE` (16), picked by a
//! Fibonacci hash of the lane's callback counter; `App`, `TcpPump` and
//! `QueryMatch` are estimates, each timed interval scaled by `SAMPLE`.
//! `Scan` and `ScanMerge` are rare and long, so they are always timed and
//! exact; a callback adds them to `App` unscaled. Every `calls` count is
//! exact.
//!
//! Wall-clock time is *diagnostics, not simulation state*: two runs of the
//! same seed produce identical event trajectories but different timings.
//! [`SubsystemProfile`] therefore compares equal to everything, so metric
//! snapshots stay usable in determinism assertions.

use std::time::Instant;

/// One app callback in this many is timed.
const SAMPLE: u64 = 16;

/// Number of profiled subsystems (buckets in a [`SubsystemProfile`]).
pub const SUBSYSTEM_COUNT: usize = 7;

/// The profiled buckets.
///
/// `Scheduler`, `App` and `TcpPump` partition the run loop: queue + conn
/// table + dispatch overhead, app callback bodies, and buffered-action
/// application (dominated by the byte pump). `Scan`, `ScanMerge` and
/// `QueryMatch` are *nested* inside `App` — apps opt in via
/// [`crate::Ctx::time`] / [`crate::Ctx::record_profile`] around their
/// scan-pipeline and query-matching work. `App`, `TcpPump` and
/// `QueryMatch` are sampled estimates; `Scheduler` is the run loop's wall
/// time less the `App` and `TcpPump` estimates; the rest are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsystem {
    /// Event queue pop/push, connection table, dispatch overhead.
    Scheduler = 0,
    /// App callback bodies (`on_start`, `on_data`, `on_timer`, ...).
    App = 1,
    /// Applying buffered actions: the simulated-TCP byte pump.
    TcpPump = 2,
    /// Scan-pipeline work: hashing + signature engine, including the
    /// parallel batch phases of the scan service (nested inside `App`).
    Scan = 3,
    /// Deterministic in-order merge of batched scan verdicts back into the
    /// crawl log at a sim-time barrier (nested inside `App`).
    ScanMerge = 4,
    /// Query matching against share libraries (nested inside `App`).
    QueryMatch = 5,
    /// Runs with `shards >= 2` only: cross-shard mailbox exchange, window
    /// sequencing and barrier synchronization (including worker idle time
    /// at the barriers, so per-shard sums can exceed the wall clock). Never
    /// recorded on one lane.
    ShardExchange = 6,
}

impl Subsystem {
    /// Every bucket, in index order.
    pub const ALL: [Subsystem; SUBSYSTEM_COUNT] = [
        Subsystem::Scheduler,
        Subsystem::App,
        Subsystem::TcpPump,
        Subsystem::Scan,
        Subsystem::ScanMerge,
        Subsystem::QueryMatch,
        Subsystem::ShardExchange,
    ];

    /// Stable snake_case label (trace lines, JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::Scheduler => "scheduler",
            Subsystem::App => "app",
            Subsystem::TcpPump => "tcp_pump",
            Subsystem::Scan => "scan",
            Subsystem::ScanMerge => "scan_merge",
            Subsystem::QueryMatch => "query_match",
            Subsystem::ShardExchange => "shard_exchange",
        }
    }

    /// Whether the bucket is timed only inside sampled callbacks.
    fn sampled(self) -> bool {
        matches!(
            self,
            Subsystem::App | Subsystem::TcpPump | Subsystem::QueryMatch
        )
    }
}

/// Whether callback number `n` of a lane is timed: the top bits of its
/// Fibonacci hash are zero. Consecutive multiples of the golden ratio
/// spread evenly, so every residue class of `n` — every periodic pattern
/// of callback kinds — is sampled at close to 1 in `SAMPLE`, where
/// `n % SAMPLE` would time one kind in a period-16 pattern every time.
fn is_timed(n: u64) -> bool {
    n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SAMPLE.trailing_zeros()) == 0
}

/// The clock running through one timed callback.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stopwatch {
    last: Instant,
    /// The gap between two back-to-back clock reads: what each interval
    /// measures on top of the work it brackets.
    latency: u64,
}

impl Stopwatch {
    pub(crate) fn start() -> Self {
        let first = Instant::now();
        let last = Instant::now();
        Stopwatch {
            last,
            latency: (last - first).as_nanos() as u64,
        }
    }

    /// Nanoseconds since the last lap (or the start), less the clock's own
    /// latency.
    pub(crate) fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = (now - self.last).as_nanos() as u64;
        self.last = now;
        ns.saturating_sub(self.latency)
    }
}

/// Accumulated wall-clock nanoseconds and call counts per subsystem.
#[derive(Debug, Default, Clone)]
pub struct SubsystemProfile {
    nanos: [u64; SUBSYSTEM_COUNT],
    calls: [u64; SUBSYSTEM_COUNT],
    /// Whether the callback in progress (or the last one) is timed.
    timed: bool,
    /// Exact nanoseconds recorded inside the callback in progress.
    exact: u64,
}

impl SubsystemProfile {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one exactly measured interval to a bucket. An interval of
    /// `Scan` or `ScanMerge` also counts toward the open callback's `App`.
    #[inline]
    pub fn record(&mut self, s: Subsystem, nanos: u64) {
        self.nanos[s as usize] += nanos;
        self.calls[s as usize] += 1;
        if matches!(s, Subsystem::Scan | Subsystem::ScanMerge) {
            self.exact += nanos;
        }
    }

    /// Counts one interval of a sampled bucket; `nanos`, measured only in
    /// a timed callback (0 in the rest), is scaled to stand for the
    /// untimed ones.
    #[inline]
    pub(crate) fn record_sampled(&mut self, s: Subsystem, nanos: u64) {
        self.nanos[s as usize] += nanos * SAMPLE;
        self.calls[s as usize] += 1;
    }

    /// Runs `f` inside bucket `s`: timed when `s` is exact or the open
    /// callback is timed, counted either way.
    #[inline]
    pub fn time<R>(&mut self, s: Subsystem, f: impl FnOnce() -> R) -> R {
        if s.sampled() && !self.timed {
            self.calls[s as usize] += 1;
            return f();
        }
        let start = Instant::now();
        let r = f();
        let nanos = start.elapsed().as_nanos() as u64;
        if s.sampled() {
            self.record_sampled(s, nanos);
        } else {
            self.record(s, nanos);
        }
        r
    }

    /// Opens an app callback: counts it under `App` and returns whether it
    /// is one of the timed ones.
    #[inline]
    pub(crate) fn open_callback(&mut self) -> bool {
        self.timed = is_timed(self.calls[Subsystem::App as usize]);
        self.calls[Subsystem::App as usize] += 1;
        self.exact = 0;
        self.timed
    }

    /// Closes the callback [`SubsystemProfile::open_callback`] opened.
    /// `measured` is its length when timed. `App` gains the exact spans
    /// recorded inside it, plus, when timed, the rest of `measured` scaled.
    #[inline]
    pub(crate) fn close_callback(&mut self, measured: Option<u64>) {
        let exact = std::mem::take(&mut self.exact);
        let rest = measured.map_or(0, |m| m.saturating_sub(exact));
        self.nanos[Subsystem::App as usize] += rest * SAMPLE + exact;
    }

    /// Accumulated nanoseconds in bucket `s`.
    pub fn nanos(&self, s: Subsystem) -> u64 {
        self.nanos[s as usize]
    }

    /// Number of intervals recorded into bucket `s`.
    pub fn calls(&self, s: Subsystem) -> u64 {
        self.calls[s as usize]
    }

    /// Nanoseconds across the disjoint run-loop buckets (excludes the
    /// nested `Scan`/`ScanMerge`/`QueryMatch`, which are already inside
    /// `App`).
    pub fn total_nanos(&self) -> u64 {
        self.nanos(Subsystem::Scheduler)
            + self.nanos(Subsystem::App)
            + self.nanos(Subsystem::TcpPump)
    }

    /// Folds another profile into this one (bucket-wise sums).
    pub fn merge(&mut self, other: &SubsystemProfile) {
        for i in 0..SUBSYSTEM_COUNT {
            self.nanos[i] += other.nanos[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.calls.iter().all(|&c| c == 0)
    }

    /// Compact one-line rendering, e.g. for `P2PMAL_TRACE` day lines:
    /// `sched 1.2s app 3.4s pump 0.5s scan 0.2s merge 0.0s match 0.1s
    /// xchg 0.0s`.
    pub fn render_compact(&self) -> String {
        let secs = |s: Subsystem| self.nanos(s) as f64 / 1e9;
        format!(
            "sched {:.1}s app {:.1}s pump {:.1}s scan {:.1}s merge {:.1}s match {:.1}s xchg {:.1}s",
            secs(Subsystem::Scheduler),
            secs(Subsystem::App),
            secs(Subsystem::TcpPump),
            secs(Subsystem::Scan),
            secs(Subsystem::ScanMerge),
            secs(Subsystem::QueryMatch),
            secs(Subsystem::ShardExchange),
        )
    }
}

/// Wall-clock never participates in determinism checks: every profile is
/// "equal" to every other, so `SimMetrics` snapshots from identical-seed
/// runs still compare equal even though their timings differ.
impl PartialEq for SubsystemProfile {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for SubsystemProfile {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_bucket() {
        let mut p = SubsystemProfile::new();
        p.record(Subsystem::App, 100);
        p.record(Subsystem::App, 50);
        p.record(Subsystem::Scan, 7);
        assert_eq!(p.nanos(Subsystem::App), 150);
        assert_eq!(p.calls(Subsystem::App), 2);
        assert_eq!(p.nanos(Subsystem::Scan), 7);
        assert_eq!(p.nanos(Subsystem::Scheduler), 0);
        assert_eq!(p.total_nanos(), 150);
        assert!(!p.is_empty());
    }

    #[test]
    fn time_runs_closure_and_records() {
        let mut p = SubsystemProfile::new();
        let v = p.time(Subsystem::QueryMatch, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(p.calls(Subsystem::QueryMatch), 1);
    }

    #[test]
    fn merge_sums_buckets() {
        let mut a = SubsystemProfile::new();
        let mut b = SubsystemProfile::new();
        a.record(Subsystem::TcpPump, 10);
        b.record(Subsystem::TcpPump, 5);
        b.record(Subsystem::Scheduler, 1);
        a.merge(&b);
        assert_eq!(a.nanos(Subsystem::TcpPump), 15);
        assert_eq!(a.calls(Subsystem::TcpPump), 2);
        assert_eq!(a.nanos(Subsystem::Scheduler), 1);
    }

    fn within_ten_percent(timed: u64, callbacks: u64) -> bool {
        let expected = callbacks as f64 / SAMPLE as f64;
        (timed as f64 - expected).abs() <= expected * 0.1
    }

    #[test]
    fn every_callback_is_counted_and_one_in_sixteen_timed() {
        let mut p = SubsystemProfile::new();
        let n = 1 << 16;
        let mut timed = 0;
        for _ in 0..n {
            let t = p.open_callback();
            p.time(Subsystem::QueryMatch, || ());
            p.close_callback(t.then_some(10));
            p.record_sampled(Subsystem::TcpPump, t as u64);
            timed += t as u64;
        }
        for s in [Subsystem::App, Subsystem::TcpPump, Subsystem::QueryMatch] {
            assert_eq!(p.calls(s), n, "{}", s.label());
        }
        assert!(within_ten_percent(timed, n), "{timed} of {n} timed");
        assert_eq!(p.nanos(Subsystem::App), timed * 10 * SAMPLE);
        assert_eq!(p.nanos(Subsystem::TcpPump), timed * SAMPLE);
    }

    /// No pattern of callback kinds with a period up to 64 aliases with
    /// the sample: over 2^14 callbacks of each kind, each is timed 1 in 16
    /// (± 10 %).
    #[test]
    fn periodic_patterns_do_not_alias_with_the_sample() {
        let per_kind = 1 << 14;
        for period in 1..=64u64 {
            let mut p = SubsystemProfile::new();
            let mut timed = vec![0; period as usize];
            for i in 0..per_kind * period {
                timed[(i % period) as usize] += p.open_callback() as u64;
            }
            for (kind, &t) in timed.iter().enumerate() {
                assert!(
                    within_ten_percent(t, per_kind),
                    "period {period}, kind {kind}: {t} of {per_kind} timed"
                );
            }
        }
    }

    /// A scan span is exact: recorded once and unscaled in its own bucket,
    /// and added to `App` unscaled, in timed and untimed callbacks alike.
    #[test]
    fn exact_spans_count_once_and_unscaled() {
        let mut p = SubsystemProfile::new();
        let mut app = 0;
        let (mut timed, mut untimed) = (0, 0);
        while timed < 3 || untimed < 3 {
            let t = p.open_callback();
            p.record(Subsystem::Scan, 1_000);
            p.close_callback(t.then_some(5_000));
            if t {
                timed += 1;
                app += 4_000 * SAMPLE + 1_000;
            } else {
                untimed += 1;
                app += 1_000;
            }
        }
        assert_eq!(p.calls(Subsystem::Scan), timed + untimed);
        assert_eq!(p.nanos(Subsystem::Scan), 1_000 * (timed + untimed));
        assert_eq!(p.nanos(Subsystem::App), app);

        // Timed through `time` outside a sampled callback too.
        let mut p = SubsystemProfile::new();
        while p.open_callback() {
            p.close_callback(Some(0));
        }
        p.time(Subsystem::Scan, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        p.time(Subsystem::QueryMatch, || ());
        p.close_callback(None);
        assert!(p.nanos(Subsystem::Scan) >= 1_000_000);
        assert_eq!(p.nanos(Subsystem::App), p.nanos(Subsystem::Scan));
        assert_eq!(
            (
                p.calls(Subsystem::QueryMatch),
                p.nanos(Subsystem::QueryMatch)
            ),
            (1, 0)
        );
    }

    #[test]
    fn profiles_compare_equal_regardless_of_content() {
        let mut a = SubsystemProfile::new();
        a.record(Subsystem::App, 999);
        assert_eq!(a, SubsystemProfile::new());
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = Subsystem::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "scheduler",
                "app",
                "tcp_pump",
                "scan",
                "scan_merge",
                "query_match",
                "shard_exchange"
            ]
        );
    }
}
