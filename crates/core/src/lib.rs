//! End-to-end facade for the reproduction of *"A study of malware in
//! peer-to-peer networks"* (Kalafut, Acharya, Gupta — IMC 2006).
//!
//! The original study instrumented LimeWire (Gnutella) and giFT (OpenFT)
//! against the live 2006 networks. This workspace rebuilds everything from
//! scratch — protocol stacks, a deterministic network simulator, a content
//! ecosystem with era-accurate malware behaviours, a signature scanner and
//! the measurement pipeline — and this crate ties it together:
//!
//! * [`scenario`] — calibrated population presets
//!   ([`LimewireScenario`], [`OpenFtScenario`]) with `paper_scale()` and
//!   `quick()` variants;
//! * [`mega`] — the mega-tier preset ([`MegaScenario`]), a Gnutella world
//!   of 50k–1M servents sized by one node count;
//! * `population` (crate-private) — the one builder the three presets wire
//!   their worlds through: world, simulator and telemetry, backbone and
//!   bootstrap groups, crawler, and the collection;
//! * [`study`] — the [`Study`] builder and [`StudyReport`] with every
//!   reconstructed table/figure plus paper-vs-measured comparisons.
//!
//! # Quickstart
//!
//! ```no_run
//! use p2pmal_core::Study;
//!
//! let report = Study::quick(42).run();
//! println!("{}", report.render_markdown());
//! assert!(report.summaries()[0].responses > 0);
//! ```

pub mod mega;
mod population;
pub mod scenario;
pub mod study;

/// The structured telemetry layer (event journal, metrics registry, trace
/// sinks), re-exported so harnesses depending on `p2pmal-core` can
/// configure sinks and read histograms without naming `p2pmal-netsim`.
pub use p2pmal_netsim::telemetry;

pub use mega::{MegaRun, MegaScenario};
pub use scenario::{fault_profile, InfectionSpec, LimewireScenario, NetworkRun, OpenFtScenario};
pub use study::{Study, StudyReport};
