//! Structured sim-time telemetry: event journal, metrics registry, sink.
//!
//! Three pieces, designed so that *disabled telemetry is unobservable*:
//!
//! * [`event`] — sim-time-stamped [`TelemetryEvent`] records (query
//!   issued/matched, download start/retry/complete, scan verdict, fault
//!   injected, churn up/down) with a stable flat-JSON journal schema.
//! * [`sink`] — the [`TelemetrySink`] trait, its one implementation, the
//!   JSONL journal [`JsonlSink`], and the per-simulator [`Telemetry`] hub
//!   with per-category 1-in-N sampling, configured from `P2PMAL_JOURNAL` /
//!   `P2PMAL_JOURNAL_SAMPLE` via [`TelemetryConfig`] (which also carries
//!   `P2PMAL_TRACE`, the per-day stderr lines). Each simulation lane writes
//!   into its own buffer, which the hub replays in one canonical order.
//! * [`registry`] + [`hist`] — log2-bucket histograms over sim-derived
//!   quantities, rolling up into `SimMetrics` under its `Eq`-based
//!   determinism assertions. Counts the crawl log keeps are not repeated
//!   here.
//!
//! Determinism contract: with no sink attached (the default), no event is
//! ever constructed, no RNG is drawn, and trajectories stay byte-identical
//! to a build without this module. With the journal on, identical seeds
//! produce byte-identical journals because every record is keyed on
//! sim-time and emitted in simulation order.

pub mod event;
pub mod hist;
pub mod registry;
pub mod sink;
pub mod span;

pub use event::{EventBody, EventCategory, FaultKind, TelemetryEvent, CATEGORY_COUNT};
pub use hist::{HistSummary, Log2Histogram, LOG2_BUCKETS};
pub use registry::{MetricsRegistry, SimHist};
pub(crate) use sink::TelemetryBuffer;
pub use sink::{journal_path_for, JsonlSink, Telemetry, TelemetryConfig, TelemetrySink};
pub use span::SpanCtx;
