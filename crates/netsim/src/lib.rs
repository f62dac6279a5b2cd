//! A deterministic discrete-event network simulator.
//!
//! The IMC 2006 study ran its instrumented clients against the live Gnutella
//! and OpenFT networks for over a month. Those networks no longer exist, so
//! this crate provides the substitute substrate: a virtual internet with
//! simulated time, IPv4 address allocation (public pools plus RFC 1918
//! private ranges behind NAT), and reliable ordered byte-stream connections
//! with per-link latency and per-direction bandwidth serialization.
//!
//! Protocol implementations are *sans-IO state machines* implementing the
//! [`App`] trait: every callback receives a [`Ctx`] through which the app
//! reads the clock, sends bytes, opens/closes connections and arms timers.
//! The same trait runs unchanged over real TCP sockets via the [`live`]
//! module, which is how `p2pmal-core`'s `live_loopback` test shows
//! wire-level fidelity outside the simulator.
//!
//! Determinism contract: given the same seed and the same sequence of API
//! calls, a simulation produces byte-identical event orderings — at every
//! shard count. Each node draws from its own seeded
//! [`rand::rngs::StdRng`] stream; simultaneous events dispatch in
//! `(source node, per-source counter)` order.
//!
//! ```
//! use p2pmal_netsim::{Simulator, SimConfig, App, Ctx, ConnId, Direction, NodeSpec, SimTime};
//!
//! struct Echo;
//! impl App for Echo {
//!     fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
//!         ctx.send(conn, data); // echo back
//!     }
//! }
//!
//! struct Client { server: p2pmal_netsim::HostAddr, got: usize }
//! impl App for Client {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         let conn = ctx.connect(self.server);
//!         let _ = conn;
//!     }
//!     fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _dir: Direction, _peer: p2pmal_netsim::HostAddr) {
//!         ctx.send(conn, b"ping");
//!     }
//!     fn on_data(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, data: &[u8]) {
//!         self.got += data.len();
//!     }
//! }
//!
//! let mut sim = Simulator::new(SimConfig::default(), 42);
//! let server = sim.spawn(NodeSpec::public().listen(6346), Box::new(Echo));
//! let server_addr = sim.node_addr(server);
//! sim.spawn(NodeSpec::public(), Box::new(Client { server: server_addr, got: 0 }));
//! sim.run_until(SimTime::from_secs(10));
//! ```

mod addr;
mod app;
pub mod compact;
mod faults;
mod framing;
pub mod live;
mod metrics;
mod pool;
mod profile;
pub mod queue;
mod shard;
mod sim;
pub mod telemetry;
mod time;

pub use addr::{ip_class, AddressAllocator, HostAddr, IpClass};
pub use app::{App, ConnId, Ctx, Direction, NodeId, TimerToken};
pub use compact::{AgedMap, FastHash, FifoMap, KeyHash, VecMap};
pub use faults::{ChurnSpec, FaultPlan};
pub use framing::{find_across, Feed, StreamBuf};
pub use metrics::{process_rss_kb, MemoryStats, SimMetrics};
pub use profile::{Subsystem, SubsystemProfile, SUBSYSTEM_COUNT};
pub use queue::{CalendarQueue, Scheduler, SchedulerKind};
pub use shard::shard_of;
pub use sim::{NodeSpec, SimConfig, Simulator};
pub use telemetry::span as telemetry_span;
pub use telemetry::{
    EventBody, EventCategory, FaultKind, HistSummary, Log2Histogram, MetricsRegistry, SimHist,
    SpanCtx, Telemetry, TelemetryConfig, TelemetryEvent, TelemetrySink,
};
pub use time::{SimDuration, SimTime};
