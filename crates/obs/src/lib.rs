//! Observability toolkit: causal provenance analysis and run comparison.
//!
//! Everything downstream of the journal lives here, split in three layers:
//!
//! * [`journal`] — stream JSONL journals (schema: `telemetry/event.rs` in
//!   `p2pmal-netsim`) through the one line scanner into a compact
//!   [`Journal`] of fixed-size records;
//! * [`traces`] — rebuild the per-trace causal forests, check referential
//!   integrity, and derive propagation / latency / hop-depth analyses
//!   (consumed by the `trace_report` bin);
//! * [`diff`] — compare two BENCH JSON artifacts with machine-robust
//!   thresholds (consumed by the `bench_diff` bin, which CI runs as a
//!   perf-regression gate against the committed `bench/` snapshots).
//!
//! The crate deliberately depends only on `p2pmal-json` and
//! `p2pmal-netsim` (for the span-id codec), so simulation crates can use
//! it from tests without dependency cycles.

pub mod diff;
pub mod journal;
pub mod traces;

pub use diff::{diff_bench, Diff, DiffOptions};
pub use journal::{for_each_line, load_journal, parse_journal, scan_line, Event, Journal, Line};
pub use traces::{analyze, Analysis, TraceForest};
