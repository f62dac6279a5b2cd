//! Structured sim-time telemetry: event journal, metrics registry, sinks.
//!
//! Three pieces, designed so that *disabled telemetry is unobservable*:
//!
//! * [`event`] — sim-time-stamped [`TelemetryEvent`] records (query
//!   issued/matched, download start/retry/complete, scan verdict, fault
//!   injected, churn up/down) with a stable flat-JSON journal schema.
//! * [`sink`] — the [`TelemetrySink`] trait ([`NullSink`], bounded
//!   [`RingSink`], JSONL [`JsonlSink`], stderr [`TraceSink`]) and the
//!   per-simulator [`Telemetry`] hub with per-category 1-in-N sampling,
//!   configured from `P2PMAL_JOURNAL` / `P2PMAL_TRACE` /
//!   `P2PMAL_JOURNAL_SAMPLE` via [`TelemetryConfig`].
//! * [`registry`] + [`hist`] — named counters, gauges and log2-bucket
//!   histograms rolling up into `SimMetrics` without breaking its
//!   `Eq`-based determinism assertions (wall-clock histograms hide behind
//!   the always-equal [`WallHists`] shield).
//!
//! Determinism contract: with no sinks attached (the default), no event is
//! ever constructed, no RNG is drawn, and trajectories stay byte-identical
//! to a build without this module. With sinks attached, identical seeds
//! produce byte-identical journals because every record is keyed on
//! sim-time and emitted in simulation order.

pub mod event;
pub mod hist;
pub mod registry;
pub mod sink;
pub mod span;

pub use event::{EventBody, EventCategory, FaultKind, TelemetryEvent, CATEGORY_COUNT};
pub use hist::{HistSummary, Log2Histogram, LOG2_BUCKETS};
pub use registry::{Counter, Gauge, MetricsRegistry, SimHist, WallHist, WallHists};
pub use sink::{
    journal_path_for, parse_trace_level, JsonlSink, NullSink, RingSink, Telemetry, TelemetryConfig,
    TelemetrySink, TraceSink,
};
pub use span::SpanCtx;
