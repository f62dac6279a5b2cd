//! The sans-IO application interface: protocol state machines implement
//! [`App`] and interact with the outside world exclusively through [`Ctx`].

use crate::addr::HostAddr;
use crate::pool::{BufferPool, Payload};
use crate::profile::{Subsystem, SubsystemProfile};
use crate::telemetry::{
    EventBody, EventCategory, MetricsRegistry, SpanCtx, Telemetry, TelemetryEvent,
};
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;

/// Identifies a node within one simulator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a connection. Allocated when `connect` is called (before the
/// connection is established) so apps can correlate the eventual
/// `on_connected` / `on_connect_failed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// App-chosen discriminator delivered back in `on_timer`.
pub type TimerToken = u64;

/// Which side of a connection this node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Outbound,
    Inbound,
}

/// Actions an app can request during a callback; applied by the simulator
/// (or the live-TCP runtime) after the callback returns.
pub(crate) enum Action {
    Connect {
        conn: ConnId,
        target: HostAddr,
    },
    Send {
        conn: ConnId,
        data: Payload,
    },
    Close {
        conn: ConnId,
    },
    Timer {
        delay: SimDuration,
        token: TimerToken,
    },
    Shutdown,
}

/// Execution context handed to every [`App`] callback.
///
/// Commands are buffered and applied after the callback returns, which keeps
/// the callback free of re-entrancy: an app never observes its own sends.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) local_addr: HostAddr,
    pub(crate) external_addr: HostAddr,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) actions: &'a mut Vec<Action>,
    pub(crate) next_conn: &'a mut u64,
    pub(crate) pool: &'a mut BufferPool,
    pub(crate) profile: &'a mut SubsystemProfile,
    pub(crate) registry: &'a mut MetricsRegistry,
    pub(crate) telemetry: &'a mut Telemetry,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The address this node *believes* it has. For NATed nodes this is the
    /// RFC 1918 address — exactly what a 2006 servent would advertise in a
    /// QUERYHIT.
    pub fn local_addr(&self) -> HostAddr {
        self.local_addr
    }

    /// The routable address peers can actually dial (differs from
    /// [`Ctx::local_addr`] behind NAT).
    pub fn external_addr(&self) -> HostAddr {
        self.external_addr
    }

    /// Deterministic per-simulation RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Begins opening a connection to `target`. Returns the [`ConnId`] that
    /// `on_connected` or `on_connect_failed` will later reference.
    pub fn connect(&mut self, target: HostAddr) -> ConnId {
        let conn = ConnId(*self.next_conn);
        *self.next_conn += 1;
        self.actions.push(Action::Connect { conn, target });
        conn
    }

    /// Queues bytes on an established connection. Bytes sent on a closed or
    /// still-pending connection are silently dropped, mirroring how a
    /// real socket write after reset is lost. The copy lands in a pooled
    /// buffer that is recycled once the bytes are delivered.
    pub fn send(&mut self, conn: ConnId, data: &[u8]) {
        self.send_with(conn, |out| out.extend_from_slice(data));
    }

    /// [`Ctx::send`] for bytes the caller encodes on the spot: `fill`
    /// appends them to the (empty) pooled buffer that travels in the
    /// event, so a message is written once instead of being built in a
    /// `Vec` of its own and copied. Same delivery in every other respect.
    pub fn send_with(&mut self, conn: ConnId, fill: impl FnOnce(&mut Vec<u8>)) {
        let mut data = self.pool.acquire();
        fill(&mut data);
        let data = Payload::Owned(data);
        self.actions.push(Action::Send { conn, data });
    }

    /// [`Ctx::send`] for `len` bytes that `fill` writes later, only where
    /// they are needed: normally into the buffer the receiving app is
    /// handed by [`App::on_data_owned`], otherwise for an MSS split or a
    /// corrupting fault. Bytes lost on the way (a closed connection, a
    /// reset, a dropped chunk) are never written. `fill` must append
    /// exactly `len` bytes, or the engine panics, and must draw no
    /// randomness of the simulation's. The link is charged for `len` now,
    /// so delivery is the same as a [`Ctx::send`] of those bytes in every
    /// respect. An upload sends its multi-megabyte body this way.
    pub fn send_deferred(
        &mut self,
        conn: ConnId,
        len: usize,
        fill: impl FnOnce(&mut Vec<u8>) + Send + 'static,
    ) {
        let fill = Box::new(fill);
        let data = Payload::Deferred { len, fill };
        self.actions.push(Action::Send { conn, data });
    }

    /// Closes a connection; the peer receives `on_closed` after any
    /// in-flight data.
    pub fn close(&mut self, conn: ConnId) {
        self.actions.push(Action::Close { conn });
    }

    /// Arms a one-shot timer; `on_timer(token)` fires after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.actions.push(Action::Timer { delay, token });
    }

    /// Takes this node offline: all its connections close and no further
    /// callbacks are delivered. Used to model churn.
    pub fn shutdown(&mut self) {
        self.actions.push(Action::Shutdown);
    }

    /// Times `f` into wall-clock bucket `s` of the simulation's
    /// [`SubsystemProfile`] — how apps attribute their scan-pipeline and
    /// query-matching work. `Scan` is always timed; a sampled bucket such
    /// as `QueryMatch` only inside the callbacks the profiler times, and
    /// counted in the rest. Diagnostics only; never affects determinism.
    #[inline]
    pub fn time<R>(&mut self, s: Subsystem, f: impl FnOnce() -> R) -> R {
        self.profile.time(s, f)
    }

    /// The simulation's metrics registry — where instrumented apps record
    /// named counters, gauges and histograms (rolled up into
    /// `SimMetrics::telemetry`).
    #[inline]
    pub fn registry(&mut self) -> &mut MetricsRegistry {
        self.registry
    }

    /// Whether telemetry events of `cat` go anywhere. Check this before
    /// constructing an expensive [`EventBody`] (string formatting etc.) so
    /// journal-off runs pay nothing.
    #[inline]
    pub fn telemetry_on(&self, cat: EventCategory) -> bool {
        self.telemetry.enabled(cat)
    }

    /// Emits one telemetry event stamped with the current sim-time. A no-op
    /// when no sink is attached (but prefer gating construction on
    /// [`Ctx::telemetry_on`]).
    #[inline]
    pub fn emit(&mut self, body: EventBody) {
        if self.telemetry.enabled(body.category()) {
            self.telemetry.emit(TelemetryEvent::new(self.now, body));
        }
    }

    /// Emits one telemetry event carrying causal identity (see
    /// [`crate::telemetry::span`]). Same discipline as [`Ctx::emit`]: gate
    /// both body *and* span derivation on [`Ctx::telemetry_on`] so
    /// journal-off runs construct nothing.
    #[inline]
    pub fn emit_spanned(&mut self, body: EventBody, span: SpanCtx) {
        if self.telemetry.enabled(body.category()) {
            self.telemetry
                .emit(TelemetryEvent::with_span(self.now, body, span));
        }
    }
}

/// A sans-IO network application (protocol node).
///
/// All methods have default no-op implementations so small test apps only
/// implement what they need. `Send` because runs with several shards migrate
/// each shard's nodes onto a scoped worker thread for the duration of a run
/// (callbacks still never run concurrently *for the same node*, and all
/// cross-node interaction flows through simulator events).
#[allow(unused_variables)]
pub trait App: Send {
    /// Downcast support for harness access via `Simulator::with_node`:
    /// instrumented apps override this to return `Some(self)` so the
    /// harness can recover the concrete type.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// Called once when the node comes online.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {}

    /// An outbound connect completed, or an inbound connection arrived.
    /// `peer` is the remote's routable address (what `accept()` would show).
    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, dir: Direction, peer: HostAddr) {}

    /// An outbound connect failed (no listener, NAT-blocked, or peer gone).
    fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {}

    /// Bytes arrived. Chunk boundaries carry no meaning; apps must frame.
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {}

    /// Bytes arrived in a buffer written for this delivery alone (a
    /// [`Ctx::send_deferred`] payload), which the app may keep instead of
    /// copying. Default: [`App::on_data`] on the same bytes.
    fn on_data_owned(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: Vec<u8>) {
        self.on_data(ctx, conn, &data);
    }

    /// The peer closed the connection (or the node it lived on shut down).
    fn on_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {}

    /// A timer armed with [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {}

    /// Deterministic deep-heap estimate of this app's state in bytes
    /// (container capacities, owned buffers, per-node routing tables).
    /// Summed across live nodes by [`crate::Simulator::record_memory`] into
    /// the bytes-per-node gauge; purely diagnostic, never affects the
    /// trajectory. Default: unaccounted (0).
    fn memory_estimate(&self) -> u64 {
        0
    }
}
