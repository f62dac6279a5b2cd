//! The lane engine: the one event loop behind [`crate::Simulator`].
//!
//! The node population is partitioned into `SimConfig::shards` shards by
//! [`shard_of`] — a pure function of `(seed, node id, shard count)` — and
//! each shard owns a calendar queue, a metrics slice, a buffer pool and a
//! telemetry buffer. A [`Lane`] is one shard's execution context. Execution
//! proceeds in sim-time windows: every lane dispatches the events it owns
//! with timestamps inside the current window, and at the window boundary
//! the next window is derived from the global minimum pending timestamp
//! (classic conservative lookahead, Chandy/Misra style).
//!
//! `shards = 1` is the degenerate case of that loop: one lane runs its
//! windows back to back on the calling thread — no worker threads, no
//! barrier, no mailboxes, no locks, and nothing is ever recorded under
//! `Subsystem::ShardExchange`. With `shards >= 2` each lane runs on a
//! scoped worker thread, cross-shard events travel through per-pair
//! mailboxes and the lanes meet at a barrier three times per window.
//!
//! ## Determinism model
//!
//! One trajectory per seed, at every shard count and on any number of
//! threads. It is built from schedule-independent ingredients only:
//!
//! - **Per-node RNG streams.** Every node draws from its own `StdRng`
//!   seeded by `splitmix64(seed, node id)`; spawn-time draws (addresses,
//!   bandwidth, churn enrollment) and harness `rng()` sampling stay on a
//!   serial *control* stream seeded with the raw seed.
//! - **Total event order.** Every event carries a key
//!   `(source node, per-source counter)` packed into a `u64`; queues
//!   dispatch in `(time, key)` order, so the dispatch order is a pure
//!   function of the event set — not of which lane pushed first.
//! - **Latency floor.** Connection latency is `window + draw(latency_us)`:
//!   `SimConfig::shard_window_us` is part of the network model, not a
//!   tuning knob of the parallel path. It keeps the configured variance
//!   while guaranteeing every potentially-cross-shard event lands at least
//!   one full window past its creation, so the lookahead condition holds by
//!   construction, including under fault-plan latency spikes (they only
//!   push events further out). Zero-delay events (timers, churn, resets to
//!   self) are always shard-local.
//! - **Ordered telemetry.** Lanes buffer events unsampled, tagged with the
//!   dispatch key that produced them; at each window boundary they are
//!   replayed through the real hub in `(time, key, index)` order, so
//!   sampling counters advance in one global order and journals are
//!   byte-identical across shard counts and schedules.
//!
//! Connection establishment is an explicit RTT handshake (`Attempt` →
//! `Established`/`Refused`) because the endpoints may live on different
//! shards: each endpoint owns a local [`View`] of the connection (peer,
//! latency, outgoing bandwidth, link serialization) and all teardown flows
//! through keyed `Close`/`Reset` events.

use crate::addr::HostAddr;
use crate::app::{Action, App, ConnId, Ctx, Direction, NodeId};
use crate::compact::VecMap;
use crate::faults::ChunkFate;
use crate::metrics::SimMetrics;
use crate::pool::{write_deferred, BufferPool, Payload};
use crate::profile::{Stopwatch, Subsystem, SubsystemProfile};
use crate::queue::{CalendarQueue, Scheduler};
use crate::sim::SimConfig;
use crate::telemetry::{EventBody, FaultKind, SimHist, Telemetry, TelemetryBuffer, TelemetryEvent};
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// SplitMix64: the standard 64-bit finalizer used to derive independent
/// per-node seeds from the run seed. Public-domain constants (Steele et
/// al., "Fast splittable pseudorandom number generators").
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Which shard owns `node`: a pure function of `(seed, node, shards)`.
/// `shards <= 1` maps everything to shard 0.
pub fn shard_of(seed: u64, node: usize, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (splitmix64(seed ^ splitmix64(node as u64)) % shards as u64) as usize
}

/// Event keys pack `(source node, per-source sequence)`; control-plane
/// events (spawn-time starts, churn enrollment) use this pseudo-source and
/// a global counter, sorting after node events at equal times.
pub(crate) const CONTROL_SRC: u32 = u32::MAX;

/// Window-end sentinel: nothing is pending at or before the deadline.
const STOP: u64 = u64::MAX;

pub(crate) fn pack(src: u32, seq: u32) -> u64 {
    ((src as u64) << 32) | seq as u64
}

/// Connection events carry everything the receiving endpoint needs — there
/// is no shared connection table to consult.
pub(crate) enum Ev {
    Start {
        node: NodeId,
    },
    Timer {
        node: NodeId,
        token: u64,
        /// The arming node's [`NodeState::session`] at the time: a timer
        /// belongs to the session that armed it.
        session: u32,
    },
    ChurnDown {
        node: NodeId,
    },
    ChurnUp {
        node: NodeId,
    },
    /// SYN: dial arriving at the listener.
    Attempt {
        conn: ConnId,
        to: NodeId,
        initiator: NodeId,
        peer_addr: HostAddr,
        down_bps: u64,
        latency: SimDuration,
    },
    /// SYN-ACK: the listener accepted; the initiator opens its view.
    Established {
        conn: ConnId,
        to: NodeId,
        from: NodeId,
        peer_addr: HostAddr,
        down_bps: u64,
        latency: SimDuration,
    },
    /// The dial failed (no listener, NAT, self-dial, or dead acceptor).
    Refused {
        conn: ConnId,
        to: NodeId,
    },
    Data {
        conn: ConnId,
        to: NodeId,
        data: Payload,
    },
    /// FIN: ordered after queued data on the closer's direction.
    Close {
        conn: ConnId,
        to: NodeId,
    },
    /// Spontaneous reset (fault plan): notification only.
    Reset {
        conn: ConnId,
        to: NodeId,
    },
}

impl Ev {
    fn target(&self) -> NodeId {
        match self {
            Ev::Start { node }
            | Ev::Timer { node, .. }
            | Ev::ChurnDown { node }
            | Ev::ChurnUp { node } => *node,
            Ev::Attempt { to, .. }
            | Ev::Established { to, .. }
            | Ev::Refused { to, .. }
            | Ev::Data { to, .. }
            | Ev::Close { to, .. }
            | Ev::Reset { to, .. } => *to,
        }
    }
}

/// One endpoint's view of an open connection.
struct View {
    peer: NodeId,
    latency: SimDuration,
    /// min(own upload, peer download), the serialization rate outward.
    bandwidth_out: u64,
    /// Earliest time the outgoing link is free.
    next_free: SimTime,
}

pub(crate) struct NodeState {
    pub app: Option<Box<dyn App>>,
    local_addr: HostAddr,
    external_addr: HostAddr,
    upload_bps: u64,
    download_bps: u64,
    pub alive: bool,
    /// Spawn-time listener flag; an alive listener accepts dials (churn
    /// revival re-enables acceptance by restoring `alive`).
    listener: bool,
    /// This node's private random stream.
    rng: StdRng,
    /// ConnId allocator base: `(node id << 32) | local counter`, so ids are
    /// globally unique without cross-shard coordination.
    next_conn: u64,
    /// Event tie-break counter; see [`pack`].
    next_seq: u32,
    /// Counts the times this node went down. Timers carry the value they
    /// were armed under and are discarded once it has moved on: `on_start`
    /// arms a fresh set after a churn restart, and a chain surviving from
    /// the session before would run beside it, twice as often per restart.
    session: u32,
    /// Open connections, by `ConnId`. Degree-bounded, and probed on every
    /// delivery and send: a sorted vector beats hashing the id.
    views: VecMap<u64, View>,
    /// Outbound dials awaiting `Established`/`Refused`.
    pending: VecMap<u64, ()>,
}

impl NodeState {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        seed: u64,
        id: NodeId,
        app: Box<dyn App>,
        local_addr: HostAddr,
        external_addr: HostAddr,
        upload_bps: u64,
        download_bps: u64,
        listener: bool,
    ) -> Self {
        NodeState {
            app: Some(app),
            local_addr,
            external_addr,
            upload_bps,
            download_bps,
            alive: true,
            listener,
            rng: StdRng::seed_from_u64(splitmix64(
                seed ^ splitmix64(id.0 as u64 ^ 0x5EED_0000_0000_0001),
            )),
            next_conn: (id.0 as u64) << 32,
            next_seq: 0,
            session: 0,
            views: VecMap::new(),
            pending: VecMap::new(),
        }
    }
}

/// A cross-shard message: a keyed event in flight between shards.
struct Msg {
    time: u64,
    key: u64,
    ev: Ev,
}

/// A buffered telemetry event tagged with the dispatch key that produced
/// it, for the deterministic replay at the window boundary.
pub(crate) struct Tagged {
    time: u64,
    key: u64,
    idx: u32,
    ev: TelemetryEvent,
}

/// Per-node routing info shared read-only by all lanes.
pub(crate) struct DirEntry {
    pub shard: usize,
    /// Index into the owning shard's `nodes`.
    pub slot: usize,
    pub external_addr: HostAddr,
    pub local_addr: HostAddr,
}

/// One shard: the nodes it owns plus its private queue, metrics slice,
/// buffer pool and telemetry buffer.
pub(crate) struct Shard {
    pub queue: CalendarQueue<Ev>,
    pub nodes: Vec<NodeState>,
    pub metrics: SimMetrics,
    pub pool: BufferPool,
    /// The events this lane's callbacks emit, awaiting the replay.
    pub telemetry: TelemetryBuffer,
    /// Key-tagged events drained after each dispatch, awaiting the window
    /// boundary.
    tel_buf: Vec<Tagged>,
    /// Payload bytes the queued `Data` events hold ([`Payload::held`]),
    /// and the most they ever held at once.
    payload_bytes: u64,
    pub payload_peak: u64,
    /// The lane's one body buffer: every deferred payload that arrives
    /// intact is written into it and lent to the receiving app, which
    /// hands it back through `Ctx::give_back`. Empty until the first such
    /// delivery; it then holds the capacity of the largest body handed back.
    pub body_buf: Vec<u8>,
}

impl Shard {
    pub fn new() -> Self {
        Shard {
            queue: CalendarQueue::default(),
            nodes: Vec::new(),
            metrics: SimMetrics::default(),
            pool: BufferPool::default(),
            telemetry: TelemetryBuffer::default(),
            tel_buf: Vec::new(),
            payload_bytes: 0,
            payload_peak: 0,
            body_buf: Vec::new(),
        }
    }

    /// Queues a node-sent event, counting the bytes a `Data` payload holds.
    fn push(&mut self, time: SimTime, key: u64, ev: Ev) {
        if let Ev::Data { data, .. } = &ev {
            self.payload_bytes += data.held() as u64;
            self.payload_peak = self.payload_peak.max(self.payload_bytes);
        }
        self.queue.push_keyed(time, key, ev);
    }

    fn next_time(&mut self) -> u64 {
        self.queue.peek_time().map_or(u64::MAX, |t| t.as_micros())
    }
}

/// Routing state every lane reads and none writes.
pub(crate) struct World {
    pub dir: Vec<DirEntry>,
    /// Listener address -> node, registered at spawn. Liveness and listener
    /// status are re-checked by the owner at `Attempt` delivery.
    pub addr_owner: HashMap<HostAddr, NodeId>,
    pub config: SimConfig,
    /// `config.shard_window_us` (min 1): the latency floor and lookahead.
    pub window: SimDuration,
}

/// The serial duties of a window boundary: replay the lanes' telemetry in
/// canonical order, record the global queue depth, derive the next window
/// from the global minimum pending timestamp.
pub(crate) struct Boundary<'a> {
    pub telemetry: &'a mut Telemetry,
    pub control: &'a mut SimMetrics,
    pub high_water: &'a mut u64,
    pub deadline_us: u64,
}

impl Boundary<'_> {
    /// Closes a window: `events` is everything the lanes buffered in it,
    /// `depth` the number of events still scheduled. The boundary sequence
    /// is a function of global minimum pending times, so the depth samples
    /// are identical for every shard count.
    fn close_window(&mut self, events: &mut Vec<Tagged>, depth: u64) {
        events.sort_unstable_by_key(|e| (e.time, e.key, e.idx));
        for t in events.drain(..) {
            self.telemetry.emit(t.ev);
        }
        self.control.telemetry.record(SimHist::QueueDepth, depth);
        *self.high_water = (*self.high_water).max(depth);
    }

    /// The exclusive end of the window that starts at `gmin`, the earliest
    /// pending timestamp anywhere, or [`STOP`].
    fn next_window(&self, gmin: u64, window: SimDuration) -> u64 {
        if gmin > self.deadline_us {
            STOP
        } else {
            gmin.saturating_add(window.as_micros())
                .min(self.deadline_us + 1)
        }
    }
}

/// A shard's execution context for one stretch of work: the shard itself
/// plus the shared routing state and an outbox of cross-shard messages.
pub(crate) struct Lane<'a> {
    id: usize,
    shard: &'a mut Shard,
    world: &'a World,
    now: SimTime,
    outbox: Vec<Vec<Msg>>,
    /// The command buffer every callback fills and `apply` drains; one
    /// allocation for the lane's lifetime instead of one per callback.
    actions: Vec<Action>,
}

fn emit_fault(tel: &mut TelemetryBuffer, now: SimTime, kind: FaultKind) {
    tel.push(TelemetryEvent::new(now, EventBody::FaultInjected { kind }));
}

fn drop_chunk(shard: &mut Shard, now: SimTime, payload: Payload) {
    shard.metrics.faults_chunks_dropped += 1;
    emit_fault(&mut shard.telemetry, now, FaultKind::ChunkDrop);
    shard.metrics.bytes_dropped += payload.len() as u64;
    if let Payload::Owned(v) = payload {
        shard.pool.release(v);
    }
}

/// Nanoseconds attributed to callbacks so far (sampled estimates); a run
/// loop's remainder — queue operations, dispatch overhead — goes to
/// `Scheduler` without per-event clock reads of its own.
fn callback_nanos(t: &SubsystemProfile) -> u64 {
    t.nanos(Subsystem::App) + t.nanos(Subsystem::TcpPump)
}

impl<'a> Lane<'a> {
    pub fn new(id: usize, shard: &'a mut Shard, world: &'a World, now: SimTime) -> Self {
        Lane {
            id,
            shard,
            world,
            now,
            outbox: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// `node`'s index in this lane's shard.
    fn slot(&self, node: NodeId) -> usize {
        let d = &self.world.dir[node.0];
        debug_assert_eq!(d.shard, self.id, "node not owned by this lane");
        d.slot
    }

    /// Stamps an event with the sender's next key and routes it.
    fn send_from(&mut self, src: NodeId, time: SimTime, ev: Ev) {
        let slot = self.slot(src);
        let st = &mut self.shard.nodes[slot];
        let key = pack(src.0 as u32, st.next_seq);
        st.next_seq += 1;
        let dst = self.world.dir[ev.target().0].shard;
        if dst == self.id {
            self.shard.push(time, key, ev);
        } else {
            if self.outbox.len() <= dst {
                self.outbox.resize_with(dst + 1, Vec::new);
            }
            self.outbox[dst].push(Msg {
                time: time.as_micros(),
                key,
                ev,
            });
        }
    }

    /// Dispatches every owned event before `window_end` (exclusive), in
    /// `(time, key)` order; returns the last dispatched timestamp.
    fn run_window(&mut self, window_end: u64) -> u64 {
        let mut last = 0;
        while let Some(t) = self.shard.queue.peek_time() {
            if t.as_micros() >= window_end {
                break;
            }
            let (time, key, ev) = self.shard.queue.pop_keyed().expect("peeked");
            if let Ev::Data { data, .. } = &ev {
                self.shard.payload_bytes -= data.held() as u64;
            }
            self.dispatch(time, ev);
            last = time.as_micros();
            // Tag this dispatch's telemetry with its key, preserving
            // emission order, for the boundary replay.
            let shard = &mut *self.shard;
            let events = shard.telemetry.drain().enumerate();
            shard.tel_buf.extend(events.map(|(i, ev)| Tagged {
                time: last,
                key,
                idx: i as u32,
                ev,
            }));
        }
        last
    }

    fn dispatch(&mut self, time: SimTime, ev: Ev) {
        self.now = time;
        self.shard.metrics.events_processed += 1;
        match ev {
            Ev::Start { node } => {
                if self.alive(node) {
                    self.with_app(node, |app, ctx| app.on_start(ctx));
                }
            }
            Ev::Timer {
                node,
                token,
                session,
            } => {
                let st = &self.shard.nodes[self.slot(node)];
                if st.alive && st.session == session {
                    self.shard.metrics.timers_fired += 1;
                    self.with_app(node, |app, ctx| app.on_timer(ctx, token));
                }
            }
            Ev::Attempt {
                conn,
                to,
                initiator,
                peer_addr,
                down_bps,
                latency,
            } => {
                let slot = self.slot(to);
                let shard = &mut *self.shard;
                let st = &mut shard.nodes[slot];
                if st.alive && st.listener {
                    let bw = st.upload_bps.min(down_bps).max(1);
                    st.views.insert(
                        conn.0,
                        View {
                            peer: initiator,
                            latency,
                            bandwidth_out: bw,
                            next_free: time,
                        },
                    );
                    shard.metrics.conns_established += 1;
                    let my_addr = st.external_addr;
                    let my_down = st.download_bps;
                    // SYN-ACK first so it keys ahead of anything the
                    // acceptor's callback sends on the new connection.
                    self.send_from(
                        to,
                        time + latency,
                        Ev::Established {
                            conn,
                            to: initiator,
                            from: to,
                            peer_addr: my_addr,
                            down_bps: my_down,
                            latency,
                        },
                    );
                    self.with_app(to, |app, ctx| {
                        app.on_connected(ctx, conn, Direction::Inbound, peer_addr)
                    });
                } else {
                    self.send_from(
                        to,
                        time + latency,
                        Ev::Refused {
                            conn,
                            to: initiator,
                        },
                    );
                }
            }
            Ev::Established {
                conn,
                to,
                from,
                peer_addr,
                down_bps,
                latency,
            } => {
                let slot = self.slot(to);
                let st = &mut self.shard.nodes[slot];
                if st.alive && st.pending.remove(&conn.0).is_some() {
                    let bw = st.upload_bps.min(down_bps).max(1);
                    st.views.insert(
                        conn.0,
                        View {
                            peer: from,
                            latency,
                            bandwidth_out: bw,
                            next_free: time,
                        },
                    );
                    self.with_app(to, |app, ctx| {
                        app.on_connected(ctx, conn, Direction::Outbound, peer_addr)
                    });
                } else {
                    // Stale accept (initiator died or abandoned the dial):
                    // tell the acceptor to reap its view.
                    self.send_from(to, time + latency, Ev::Close { conn, to: from });
                }
            }
            Ev::Refused { conn, to } => {
                let slot = self.slot(to);
                let shard = &mut *self.shard;
                let st = &mut shard.nodes[slot];
                if st.pending.remove(&conn.0).is_some() {
                    shard.metrics.conns_failed += 1;
                    if st.alive {
                        self.with_app(to, |app, ctx| app.on_connect_failed(ctx, conn));
                    }
                }
            }
            Ev::Data { conn, to, data } => {
                let slot = self.slot(to);
                let shard = &mut *self.shard;
                let st = &shard.nodes[slot];
                if !(st.alive && st.views.contains_key(&conn.0)) {
                    shard.metrics.bytes_dropped += data.len() as u64;
                    shard.pool.recycle(data);
                    return;
                }
                shard.metrics.bytes_delivered += data.len() as u64;
                match data {
                    // Written inside the receiving callback, so the cost
                    // is that node's, into the lane's body buffer, which
                    // the app is lent.
                    Payload::Deferred { len, fill } => {
                        let mut buf = std::mem::take(&mut self.shard.body_buf);
                        self.with_app(to, |app, ctx| {
                            write_deferred(&mut buf, len, fill);
                            app.on_data_owned(ctx, conn, buf)
                        });
                    }
                    data => {
                        self.with_app(to, |app, ctx| app.on_data(ctx, conn, &data));
                        self.shard.pool.recycle(data);
                    }
                }
            }
            Ev::Close { conn, to } => {
                let slot = self.slot(to);
                let shard = &mut *self.shard;
                let st = &mut shard.nodes[slot];
                if st.views.remove(&conn.0).is_some() {
                    shard.metrics.conns_closed += 1;
                    if st.alive {
                        self.with_app(to, |app, ctx| app.on_closed(ctx, conn));
                    }
                }
            }
            Ev::Reset { conn, to } => {
                let slot = self.slot(to);
                let st = &mut self.shard.nodes[slot];
                st.views.remove(&conn.0);
                st.pending.remove(&conn.0);
                if st.alive {
                    self.with_app(to, |app, ctx| app.on_closed(ctx, conn));
                }
            }
            Ev::ChurnDown { node } => self.churn_down(node),
            Ev::ChurnUp { node } => self.churn_up(node),
        }
    }

    fn alive(&self, node: NodeId) -> bool {
        self.shard.nodes[self.slot(node)].alive
    }

    /// Runs `f` against `node`'s app, which appends its commands to
    /// `self.actions` for the caller to apply or discard. Returns `f`'s
    /// result and, when the profiler times this callback, its still
    /// running stopwatch; `None` on a re-entrant dispatch.
    fn call_app<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn App, &mut Ctx<'_>) -> R,
    ) -> Option<(R, Option<Stopwatch>)> {
        let slot = self.slot(node);
        let shard = &mut *self.shard;
        let st = &mut shard.nodes[slot];
        let mut app = st.app.take()?;
        let mut watch = shard.metrics.timing.open_callback().then(Stopwatch::start);
        let r = f(
            app.as_mut(),
            &mut Ctx {
                now: self.now,
                node,
                local_addr: st.local_addr,
                external_addr: st.external_addr,
                rng: &mut st.rng,
                actions: &mut self.actions,
                next_conn: &mut st.next_conn,
                pool: &mut shard.pool,
                profile: &mut shard.metrics.timing,
                registry: &mut shard.metrics.telemetry,
                telemetry: &mut shard.telemetry,
            },
        );
        let measured = watch.as_mut().map(Stopwatch::lap);
        shard.metrics.timing.close_callback(measured);
        st.app = Some(app);
        Some((r, watch))
    }

    /// Runs `f` against `node`'s app, then applies the actions it buffered.
    /// The event loop and the harness (`Simulator::with_node`) share this.
    pub fn with_app<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn App, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        let (r, mut watch) = self.call_app(node, f)?;
        // Most callbacks queue nothing (a dropped duplicate, a routed
        // message with no taker): those count as a pump call of no length
        // rather than costing another clock read.
        let pump = if self.actions.is_empty() {
            0
        } else {
            self.apply(node);
            watch.as_mut().map_or(0, Stopwatch::lap)
        };
        self.shard
            .metrics
            .timing
            .record_sampled(Subsystem::TcpPump, pump);
        Some(r)
    }

    /// Applies, in order, the commands the last callback buffered.
    fn apply(&mut self, node: NodeId) {
        let mut actions = std::mem::take(&mut self.actions);
        for act in actions.drain(..) {
            match act {
                Action::Connect { conn, target } => self.start_dial(node, conn, target),
                Action::Send { conn, data } => self.send_bytes(node, conn, data),
                Action::Close { conn } => self.close_conn(node, conn),
                Action::Timer { delay, token } => {
                    let when = self.now + delay;
                    let session = self.shard.nodes[self.slot(node)].session;
                    self.send_from(
                        node,
                        when,
                        Ev::Timer {
                            node,
                            token,
                            session,
                        },
                    );
                }
                // The larger stays: an app may hand back a buffer it was
                // not lent.
                Action::GiveBack { buf } => {
                    if buf.capacity() > self.shard.body_buf.capacity() {
                        self.shard.body_buf = buf;
                    }
                }
                Action::Shutdown => self.shutdown_node(node),
            }
        }
        self.actions = actions;
    }

    fn start_dial(&mut self, node: NodeId, conn: ConnId, target: HostAddr) {
        let config = &self.world.config;
        let slot = self.slot(node);
        let shard = &mut *self.shard;
        let st = &mut shard.nodes[slot];
        let mut raw = st.rng.gen_range(config.latency_us.0..=config.latency_us.1);
        let mult = config.faults.latency_mult(&mut st.rng);
        if mult > 1 {
            shard.metrics.faults_latency_spikes += 1;
            emit_fault(&mut shard.telemetry, self.now, FaultKind::LatencySpike);
            raw *= mult;
        }
        // The latency floor: one full window on top of the configured draw
        // keeps cross-shard deliveries safely past the current lookahead.
        let latency = self.world.window + SimDuration::from_micros(raw);
        st.pending.insert(conn.0, ());
        let my_addr = st.external_addr;
        let down_bps = st.download_bps;
        let when = self.now + latency;
        let owner = self.world.addr_owner.get(&target).copied();
        match owner.filter(|&o| o != node) {
            Some(acc) => self.send_from(
                node,
                when,
                Ev::Attempt {
                    conn,
                    to: acc,
                    initiator: node,
                    peer_addr: my_addr,
                    down_bps,
                    latency,
                },
            ),
            // Nobody ever listened there (or self-dial): refuse after one
            // latency.
            None => self.send_from(node, when, Ev::Refused { conn, to: node }),
        }
    }

    fn send_bytes(&mut self, from: NodeId, conn: ConnId, data: Payload) {
        let config = &self.world.config;
        let slot = self.slot(from);
        let shard = &mut *self.shard;
        let st = &mut shard.nodes[slot];
        let (to, latency, arrival_base) = match st.views.get_mut(&conn.0) {
            Some(v) => {
                let start = v.next_free.max(self.now);
                let transmit =
                    SimDuration::from_micros(data.len() as u64 * 1_000_000 / v.bandwidth_out);
                v.next_free = start + transmit;
                (v.peer, v.latency, start + transmit + v.latency)
            }
            None => {
                // Closed or still-pending connection: bytes are lost, like
                // a socket write after reset.
                shard.metrics.bytes_dropped += data.len() as u64;
                shard.pool.recycle(data);
                return;
            }
        };
        // Spontaneous reset (fault plan): the connection dies at this
        // write. Both endpoints hear `on_closed` — the sender immediately
        // (RST on write), the peer after one latency — and everything in
        // flight is lost, this send included.
        if config.faults.send_resets(&mut st.rng) {
            st.views.remove(&conn.0);
            shard.metrics.faults_resets += 1;
            emit_fault(&mut shard.telemetry, self.now, FaultKind::Reset);
            shard.metrics.conns_closed += 1;
            shard.metrics.bytes_dropped += data.len() as u64;
            shard.pool.recycle(data);
            self.send_from(from, self.now, Ev::Reset { conn, to: from });
            self.send_from(from, self.now + latency, Ev::Reset { conn, to });
            return;
        }
        match config.mss {
            Some(mss) if data.len() > mss => {
                // Zero-copy fan-out: every fragment is a window into one
                // shared buffer, spread one microsecond apart to preserve
                // order. The buffer returns to the pool when the last
                // fragment is delivered.
                let total = data.len();
                let buf = Arc::new(data.into_vec());
                let mut t = arrival_base;
                let mut start = 0;
                while start < total {
                    let end = (start + mss).min(total);
                    let payload = Payload::Shared {
                        buf: buf.clone(),
                        start,
                        end,
                    };
                    if let Some(data) = self.fault_chunk(from, payload) {
                        self.send_from(from, t, Ev::Data { conn, to, data });
                    }
                    t += SimDuration::from_micros(1);
                    start = end;
                }
            }
            _ => {
                if let Some(data) = self.fault_chunk(from, data) {
                    self.send_from(from, arrival_base, Ev::Data { conn, to, data });
                }
            }
        }
    }

    /// Applies the fault plan's sampled fate to one chunk, returning the
    /// (possibly mutated) payload to deliver, or `None` when it is lost.
    /// The fault-free fast path performs no RNG draw.
    fn fault_chunk(&mut self, from: NodeId, payload: Payload) -> Option<Payload> {
        let faults = self.world.config.faults;
        if faults.chunk_loss == 0.0 && faults.corrupt == 0.0 {
            return Some(payload);
        }
        let slot = self.slot(from);
        let shard = &mut *self.shard;
        let rng = &mut shard.nodes[slot].rng;
        match faults.chunk_fate(rng) {
            ChunkFate::Deliver => Some(payload),
            ChunkFate::Drop => {
                drop_chunk(shard, self.now, payload);
                None
            }
            ChunkFate::Truncate => {
                let len = payload.len();
                let keep = len / 2;
                if keep == 0 {
                    drop_chunk(shard, self.now, payload);
                    return None;
                }
                shard.metrics.faults_chunks_corrupted += 1;
                emit_fault(&mut shard.telemetry, self.now, FaultKind::ChunkTruncate);
                shard.metrics.bytes_dropped += (len - keep) as u64;
                Some(match payload {
                    Payload::Shared { buf, start, .. } => Payload::Shared {
                        buf,
                        start,
                        end: start + keep,
                    },
                    payload => {
                        let mut v = payload.into_vec();
                        v.truncate(keep);
                        Payload::Owned(v)
                    }
                })
            }
            ChunkFate::BitFlip => {
                let len = payload.len();
                if len == 0 {
                    return Some(payload);
                }
                shard.metrics.faults_chunks_corrupted += 1;
                emit_fault(&mut shard.telemetry, self.now, FaultKind::ChunkBitFlip);
                let bit = rng.gen_range(0..len * 8);
                let mut v = payload.into_vec();
                v[bit / 8] ^= 1 << (bit % 8);
                Some(Payload::Owned(v))
            }
        }
    }

    fn close_conn(&mut self, node: NodeId, conn: ConnId) {
        let slot = self.slot(node);
        let st = &mut self.shard.nodes[slot];
        if let Some(view) = st.views.remove(&conn.0) {
            // FIN is ordered after any queued data on this direction; the
            // peer counts the close when the FIN lands.
            let when = view.next_free.max(self.now) + view.latency;
            self.send_from(
                node,
                when,
                Ev::Close {
                    conn,
                    to: view.peer,
                },
            );
        } else {
            // Abandoning a pending dial: a later Established will be
            // answered with a reaping Close, a Refused finds nothing.
            st.pending.remove(&conn.0);
        }
    }

    /// Takes `node` offline: FINs go out on its open connections (in id
    /// order, so they key reproducibly), its pending dials count as failed
    /// and the timers it armed will find their session over.
    /// Returns the ids of both, for callers that notify the dying app.
    fn take_down(&mut self, node: NodeId) -> (Vec<u64>, Vec<u64>) {
        let slot = self.slot(node);
        let st = &mut self.shard.nodes[slot];
        let open: Vec<u64> = st.views.keys().copied().collect();
        let pending: Vec<u64> = std::mem::take(&mut st.pending).keys().copied().collect();
        for &c in &open {
            self.close_conn(node, ConnId(c));
        }
        self.shard.metrics.conns_failed += pending.len() as u64;
        let st = &mut self.shard.nodes[slot];
        st.alive = false;
        st.session += 1;
        self.shard.metrics.nodes_stopped += 1;
        (open, pending)
    }

    /// Harness- or app-requested shutdown; peers of the node's open
    /// connections get `on_closed`.
    pub fn shutdown_node(&mut self, node: NodeId) {
        if self.alive(node) {
            self.take_down(node);
        }
    }

    /// A churn session ends: the node dies mid-whatever-it-was-doing. Open
    /// connections close toward their peers, and the dying app is told
    /// about every connection it had — with its reactions discarded (the
    /// host lost power: bookkeeping updates, nothing leaves the machine) —
    /// so its state is consistent when the session restarts.
    fn churn_down(&mut self, node: NodeId) {
        if !self.alive(node) {
            // The app shut itself down; that death is permanent.
            return;
        }
        let shard = &mut *self.shard;
        shard.metrics.faults_churn_downs += 1;
        shard.telemetry.push(TelemetryEvent::new(
            self.now,
            EventBody::ChurnDown {
                node: node.0 as u64,
            },
        ));
        let (open, pending) = self.take_down(node);
        for c in open {
            self.call_app(node, |app, ctx| app.on_closed(ctx, ConnId(c)));
        }
        for c in pending {
            self.call_app(node, |app, ctx| app.on_connect_failed(ctx, ConnId(c)));
        }
        self.actions.clear();
        let churn = self.world.config.faults.churn;
        let churn = churn.expect("churn event implies plan");
        let slot = self.slot(node);
        let rng = &mut self.shard.nodes[slot].rng;
        let down = rng.gen_range(churn.downtime_secs.0..=churn.downtime_secs.1);
        let when = self.now + SimDuration::from_secs(down);
        self.send_from(node, when, Ev::ChurnUp { node });
    }

    /// A churn session begins: the node comes back online and restarts its
    /// app (`on_start` re-bootstraps), then schedules the next session end.
    fn churn_up(&mut self, node: NodeId) {
        let slot = self.slot(node);
        let shard = &mut *self.shard;
        let st = &mut shard.nodes[slot];
        if st.alive {
            return;
        }
        st.alive = true;
        shard.metrics.faults_churn_ups += 1;
        shard.telemetry.push(TelemetryEvent::new(
            self.now,
            EventBody::ChurnUp {
                node: node.0 as u64,
            },
        ));
        let now = self.now;
        self.send_from(node, now, Ev::Start { node });
        let churn = self.world.config.faults.churn;
        let churn = churn.expect("churn event implies plan");
        let rng = &mut self.shard.nodes[slot].rng;
        let up = rng.gen_range(churn.uptime_secs.0..=churn.uptime_secs.1);
        let when = now + SimDuration::from_secs(up);
        self.send_from(node, when, Ev::ChurnDown { node });
    }
}

/// Barrier-shared coordination state for one threaded run.
struct Coord {
    n: usize,
    barrier: Barrier,
    /// Current window end (exclusive), or [`STOP`].
    window_end: AtomicU64,
    /// Each shard's earliest pending timestamp (`u64::MAX` when empty).
    next_times: Vec<AtomicU64>,
    /// Each shard's queue depth at the last window boundary.
    depths: Vec<AtomicU64>,
    /// `n * n` mailboxes indexed `[src * n + dst]`.
    mailboxes: Vec<Mutex<Vec<Msg>>>,
    /// Per-shard buffered telemetry awaiting the leader's replay.
    tel_slots: Vec<Mutex<Vec<Tagged>>>,
    /// Highest dispatched timestamp across all shards.
    max_time: AtomicU64,
}

/// The window leader: shard 0's worker, which also does the boundary's
/// serial duties for everyone.
struct Leader<'a> {
    boundary: Boundary<'a>,
    first: bool,
}

impl Leader<'_> {
    fn sequence(&mut self, coord: &Coord, window: SimDuration) {
        let t0 = Instant::now();
        if !self.first {
            let mut events: Vec<Tagged> = Vec::new();
            for slot in &coord.tel_slots {
                events.append(&mut slot.lock().unwrap());
            }
            let depth: u64 = coord.depths.iter().map(|d| d.load(Ordering::SeqCst)).sum();
            self.boundary.close_window(&mut events, depth);
        }
        self.first = false;
        let gmin = coord
            .next_times
            .iter()
            .map(|t| t.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        let we = self.boundary.next_window(gmin, window);
        coord.window_end.store(we, Ordering::SeqCst);
        self.boundary
            .control
            .timing
            .record(Subsystem::ShardExchange, t0.elapsed().as_nanos() as u64);
    }
}

/// One lane's window loop on its worker thread. All lanes run this in
/// lock-step; shard 0 (on the calling thread) additionally carries the
/// [`Leader`] duties. Three barrier crossings per window: (A) window
/// published, (B) processing and mailbox deposits done, (C) drains and
/// next-time publications done.
fn worker_loop(mut lane: Lane<'_>, coord: &Coord, mut leader: Option<Leader<'_>>) {
    let (id, n) = (lane.id, coord.n);
    let before_cb = callback_nanos(&lane.shard.metrics.timing);
    let mut proc_nanos = 0u64;
    let mut xchg_nanos = 0u64;
    let mut max_t = 0u64;
    loop {
        let tb = Instant::now();
        if let Some(l) = leader.as_mut() {
            l.sequence(coord, lane.world.window);
        }
        coord.barrier.wait(); // A: window published
        let we = coord.window_end.load(Ordering::SeqCst);
        xchg_nanos += tb.elapsed().as_nanos() as u64;
        if we == STOP {
            break;
        }
        let tp = Instant::now();
        max_t = max_t.max(lane.run_window(we));
        proc_nanos += tp.elapsed().as_nanos() as u64;
        let tx = Instant::now();
        for (dst, msgs) in lane.outbox.iter_mut().enumerate() {
            if !msgs.is_empty() {
                coord.mailboxes[id * n + dst].lock().unwrap().append(msgs);
            }
        }
        coord.barrier.wait(); // B: deposits done
        let shard = &mut *lane.shard;
        for src in 0..n {
            let incoming = std::mem::take(&mut *coord.mailboxes[src * n + id].lock().unwrap());
            for m in incoming {
                shard.push(SimTime::from_micros(m.time), m.key, m.ev);
            }
        }
        coord.next_times[id].store(shard.next_time(), Ordering::SeqCst);
        coord.depths[id].store(shard.queue.len() as u64, Ordering::SeqCst);
        if !shard.tel_buf.is_empty() {
            coord.tel_slots[id]
                .lock()
                .unwrap()
                .append(&mut shard.tel_buf);
        }
        xchg_nanos += tx.elapsed().as_nanos() as u64;
        coord.barrier.wait(); // C: publications done
    }
    coord.max_time.fetch_max(max_t, Ordering::SeqCst);
    let timing = &mut lane.shard.metrics.timing;
    let cb_delta = callback_nanos(timing) - before_cb;
    timing.record(Subsystem::Scheduler, proc_nanos.saturating_sub(cb_delta));
    timing.record(Subsystem::ShardExchange, xchg_nanos);
}

/// Runs every lane up to `boundary.deadline_us` and returns the highest
/// dispatched timestamp (0 when nothing ran).
pub(crate) fn run_windows(shards: &mut [Shard], world: &World, mut boundary: Boundary<'_>) -> u64 {
    if let [shard] = shards {
        // The degenerate case: one lane, windows back to back on this
        // thread. Same boundary sequence as below, so the same telemetry
        // order and depth samples.
        let wall = Instant::now();
        let before_cb = callback_nanos(&shard.metrics.timing);
        let mut lane = Lane::new(0, shard, world, SimTime::ZERO);
        let mut max_t = 0;
        loop {
            let we = boundary.next_window(lane.shard.next_time(), world.window);
            if we == STOP {
                break;
            }
            max_t = max_t.max(lane.run_window(we));
            let depth = lane.shard.queue.len() as u64;
            boundary.close_window(&mut lane.shard.tel_buf, depth);
        }
        let timing = &mut shard.metrics.timing;
        let total = wall.elapsed().as_nanos() as u64;
        let cb_delta = callback_nanos(timing) - before_cb;
        timing.record(Subsystem::Scheduler, total.saturating_sub(cb_delta));
        return max_t;
    }
    let n = shards.len();
    let coord = Coord {
        n,
        barrier: Barrier::new(n),
        window_end: AtomicU64::new(0),
        next_times: shards
            .iter_mut()
            .map(|s| AtomicU64::new(s.next_time()))
            .collect(),
        depths: (0..n).map(|_| AtomicU64::new(0)).collect(),
        mailboxes: (0..n * n).map(|_| Mutex::new(Vec::new())).collect(),
        tel_slots: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        max_time: AtomicU64::new(0),
    };
    let coord = &coord;
    let leader = Leader {
        boundary,
        first: true,
    };
    std::thread::scope(|s| {
        let mut lanes = shards
            .iter_mut()
            .enumerate()
            .map(|(id, shard)| Lane::new(id, shard, world, SimTime::ZERO));
        let lane0 = lanes.next().expect("at least one shard");
        for lane in lanes {
            s.spawn(move || worker_loop(lane, coord, None));
        }
        worker_loop(lane0, coord, Some(leader));
    });
    coord.max_time.load(Ordering::SeqCst)
}

/// Runs `f` on a lane for shard `sh` between windows (the harness entry
/// points), then delivers the lane's outbox and replays its buffered
/// telemetry through the hub.
pub(crate) fn serial_lane<R>(
    shards: &mut [Shard],
    sh: usize,
    world: &World,
    now: SimTime,
    hub: &mut Telemetry,
    f: impl FnOnce(&mut Lane<'_>) -> R,
) -> R {
    let mut lane = Lane::new(sh, &mut shards[sh], world, now);
    let r = f(&mut lane);
    for (dst, msgs) in lane.outbox.into_iter().enumerate() {
        for m in msgs {
            shards[dst].push(SimTime::from_micros(m.time), m.key, m.ev);
        }
    }
    for ev in shards[sh].telemetry.drain() {
        hub.emit(ev);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queue entry stays 72 bytes: a deferred upload body rides in the
    /// same `Data` event as a pooled buffer.
    #[test]
    fn event_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<crate::queue::Entry<Ev>>(), 72);
    }

    #[test]
    fn shard_assignment_is_pure_in_range_and_balanced() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            for shards in [1usize, 2, 3, 4, 8] {
                let mut counts = vec![0usize; shards];
                for node in 0..4096 {
                    let a = shard_of(seed, node, shards);
                    let b = shard_of(seed, node, shards);
                    assert_eq!(a, b, "not a pure function");
                    assert!(a < shards);
                    counts[a] += 1;
                }
                if shards == 1 {
                    assert_eq!(counts[0], 4096);
                } else {
                    // Loose balance: no shard more than 2x the fair share.
                    let fair = 4096 / shards;
                    for &c in &counts {
                        assert!(c > fair / 2 && c < fair * 2, "unbalanced: {counts:?}");
                    }
                }
            }
        }
        // Different seeds shuffle the partition.
        let a: Vec<usize> = (0..64).map(|n| shard_of(1, n, 4)).collect();
        let b: Vec<usize> = (0..64).map(|n| shard_of(2, n, 4)).collect();
        assert_ne!(a, b);
    }
}
