//! Observability toolkit: causal provenance analysis of telemetry journals.
//!
//! Everything downstream of the journal lives here, split in two layers:
//!
//! * [`journal`] — stream JSONL journals (schema: `telemetry/event.rs` in
//!   `p2pmal-netsim`) through the one line scanner into a compact
//!   [`Journal`] of fixed-size records;
//! * [`traces`] — rebuild the per-trace causal forests, check referential
//!   integrity, and derive propagation / latency / hop-depth analyses
//!   (consumed by the `trace_report` bin, whose `--strict` mode is the
//!   journal gate: [`strict_failures`]).
//!
//! Performance is measured elsewhere, by the standalone `benchmark/`
//! package. The crate deliberately depends only on `p2pmal-json` and
//! `p2pmal-netsim` (for the span-id codec and the event categories), so
//! simulation crates can use it from tests without dependency cycles.

pub mod journal;
pub mod traces;

pub use journal::{load_journal, parse_journal, scan_line, Event, Journal, Line};
pub use traces::{analyze, strict_failures, Analysis, TraceForest};
