//! The simulator's public face: configuration, node registry and the
//! harness entry points. The event loop itself is the lane engine in
//! [`crate::shard`].

use crate::addr::{AddressAllocator, HostAddr};
use crate::app::{App, Ctx, NodeId};
use crate::faults::FaultPlan;
use crate::metrics::{MemoryStats, SimMetrics};
use crate::queue::Scheduler;
use crate::shard::{
    self, pack, shard_of, Boundary, DirEntry, Ev, Lane, NodeState, Shard, World, CONTROL_SRC,
};
use crate::telemetry::{SimHist, Telemetry};
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Tunables for the simulated internet.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// One-way latency range sampled per connection, in microseconds.
    pub latency_us: (u64, u64),
    /// Default upload bandwidth range (bytes/sec) sampled per node,
    /// modelling the DSL/cable mix of 2006.
    pub upload_bps: (u64, u64),
    /// Default download bandwidth range (bytes/sec) sampled per node.
    pub download_bps: (u64, u64),
    /// When set, delivered data is fragmented into chunks of at most this
    /// many bytes, exercising protocol reframing. `None` delivers each
    /// `send` as one chunk (cheaper for month-scale runs).
    pub mss: Option<usize>,
    /// Seed-deterministic fault injection. The default
    /// [`FaultPlan::none()`] draws no randomness and leaves runs
    /// byte-identical to a fault-free simulator.
    pub faults: FaultPlan,
    /// Number of simulation shards (`0` is read as `1`). Nodes partition
    /// across shards by [`crate::shard_of`], each shard with its own
    /// calendar queue. `1` (the default) runs the one lane on the calling
    /// thread; `>= 2` runs one scoped worker thread per shard,
    /// synchronized in conservative sim-time windows. The trajectory is a
    /// function of the seed alone: every shard count produces the same
    /// events, reports, journals and metrics (buffer-pool counters aside),
    /// so this is purely a host-resource knob.
    pub shards: usize,
    /// The model's connection-latency floor, in microseconds (min 1): every
    /// connection's one-way latency is this plus a draw from `latency_us`.
    /// It is also the lookahead window of the run loop — which is why the
    /// floor exists: anything that can cross shards lands at least one
    /// window after its creation. Changing it changes the trajectory at
    /// every shard count; with `shards >= 2` a shorter window additionally
    /// means more barrier crossings per simulated second.
    pub shard_window_us: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency_us: (20_000, 150_000),
            upload_bps: (16_000, 128_000),
            download_bps: (64_000, 512_000),
            mss: None,
            faults: FaultPlan::none(),
            shards: 1,
            shard_window_us: 1_000_000,
        }
    }
}

impl SimConfig {
    /// A `P2PMAL_SHARDS` value: a shard count, clamped to 1..=64.
    pub fn parse_shards(v: &str) -> Option<usize> {
        v.parse::<usize>().ok().map(|n| n.clamp(1, 64))
    }

    /// A `P2PMAL_SHARD_WINDOW_MS` value (whole milliseconds, min 1) in
    /// microseconds.
    pub fn parse_shard_window_us(v: &str) -> Option<u64> {
        v.parse::<u64>().ok()?.max(1).checked_mul(1_000)
    }
}

/// Pins glibc's mmap threshold at 128 KiB, once per process. By default
/// glibc slides the threshold up to the largest block freed so far, so
/// after the first multi-megabyte download body every later body, log
/// growth chunk and resolved copy is carved from the brk heap, and the
/// heap's high-water mark stays resident. Pinned, blocks that large are
/// mapped and unmapped on their own. It overrides a
/// `MALLOC_MMAP_THRESHOLD_` set in the environment; it does nothing
/// outside glibc.
fn pin_mmap_threshold() {
    #[cfg(target_env = "gnu")]
    {
        static PIN: std::sync::Once = std::sync::Once::new();
        PIN.call_once(|| {
            use std::ffi::c_int;
            extern "C" {
                fn mallopt(param: c_int, value: c_int) -> c_int;
            }
            /// `M_MMAP_THRESHOLD` in glibc's `malloc.h`.
            const M_MMAP_THRESHOLD: c_int = -3;
            // SAFETY: `mallopt` only sets an allocator tunable; glibc
            // takes its arena lock to do so, and any value is accepted or
            // refused (return 0) without other effect.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, 128 * 1024);
            }
        });
    }
}

/// Per-node spawn parameters.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Behind NAT: gets an RFC 1918 local address and rejects inbound dials.
    pub nat: bool,
    /// Port to accept connections on (ignored for NAT nodes, which cannot
    /// be dialed).
    pub listen_port: Option<u16>,
    /// Override the sampled upload bandwidth.
    pub upload_bps: Option<u64>,
    /// Override the sampled download bandwidth.
    pub download_bps: Option<u64>,
    /// Exempt from fault-plan churn (instrumented crawlers, always-on
    /// infrastructure the measurement depends on).
    pub durable: bool,
}

impl NodeSpec {
    /// A publicly addressable node.
    pub fn public() -> Self {
        NodeSpec {
            nat: false,
            listen_port: None,
            upload_bps: None,
            download_bps: None,
            durable: false,
        }
    }

    /// A NATed node: advertises a private address, cannot be dialed.
    pub fn nat() -> Self {
        NodeSpec {
            nat: true,
            ..Self::public()
        }
    }

    /// Listen for inbound connections on `port`.
    pub fn listen(mut self, port: u16) -> Self {
        self.listen_port = Some(port);
        self
    }

    pub fn upload(mut self, bps: u64) -> Self {
        self.upload_bps = Some(bps);
        self
    }

    pub fn download(mut self, bps: u64) -> Self {
        self.download_bps = Some(bps);
        self
    }

    /// Never enrolled in fault-plan churn.
    pub fn durable(mut self) -> Self {
        self.durable = true;
        self
    }
}

/// The discrete-event simulator. See the crate docs for an end-to-end
/// example.
pub struct Simulator {
    seed: u64,
    now: SimTime,
    /// The serial control stream: spawn-time draws and harness `rng()`.
    /// The event loop never touches it.
    control_rng: StdRng,
    alloc: AddressAllocator,
    shards: Vec<Shard>,
    /// Config, node directory and listener registry: what lanes read.
    world: World,
    /// Control-plane metrics slice (spawn counts, boundary depth samples,
    /// the memory snapshot).
    control: SimMetrics,
    /// The merged snapshot handed out by `metrics()`; refreshed after every
    /// mutating entry point.
    merged: SimMetrics,
    /// The real telemetry hub: sinks and global sampling counters.
    telemetry: Telemetry,
    control_seq: u32,
    /// Peak global queue depth over all window boundaries.
    queue_high_water: u64,
}

impl Simulator {
    pub fn new(config: SimConfig, seed: u64) -> Self {
        pin_mmap_threshold();
        Simulator {
            seed,
            now: SimTime::ZERO,
            control_rng: StdRng::seed_from_u64(seed),
            alloc: AddressAllocator::new(),
            shards: (0..config.shards.max(1)).map(|_| Shard::new()).collect(),
            control: SimMetrics::default(),
            merged: SimMetrics::default(),
            telemetry: Telemetry::disabled(),
            control_seq: 0,
            queue_high_water: 0,
            world: World {
                dir: Vec::new(),
                addr_owner: HashMap::new(),
                window: SimDuration::from_micros(config.shard_window_us.max(1)),
                config,
            },
        }
    }

    /// Number of shards this simulator runs on.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The latency floor / lookahead window, in microseconds.
    pub fn shard_window_us(&self) -> u64 {
        self.world.window.as_micros()
    }

    /// Attaches the telemetry sink hub. The default ([`Telemetry::disabled`])
    /// emits nothing, draws no randomness, and leaves trajectories
    /// byte-identical to a simulator without the telemetry layer.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for shard in &mut self.shards {
            shard.telemetry = telemetry.lane_buffer();
        }
        self.telemetry = telemetry;
    }

    /// Flushes every attached telemetry sink (harness end-of-run hook; file
    /// sinks also flush on drop).
    pub fn flush_telemetry(&mut self) {
        self.telemetry.flush();
    }

    /// Samples the scheduled-event queue depth into the metrics registry's
    /// histogram. Deterministic — harness loops call this unconditionally,
    /// e.g. once per simulated day. The run loop additionally samples it at
    /// every window boundary.
    pub fn sample_queue_depth(&mut self) {
        let depth = self.pending_events() as u64;
        self.control.telemetry.record(SimHist::QueueDepth, depth);
        self.refresh_merged();
    }

    fn control_key(&mut self) -> u64 {
        let k = pack(CONTROL_SRC, self.control_seq);
        self.control_seq += 1;
        k
    }

    /// Brings a node online now; `on_start` runs at the current time.
    pub fn spawn(&mut self, spec: NodeSpec, app: Box<dyn App>) -> NodeId {
        let id = NodeId(self.world.dir.len());
        let rng = &mut self.control_rng;
        let external_ip = self.alloc.alloc_public(rng);
        let port = spec.listen_port.unwrap_or(0);
        let external_addr = HostAddr::new(external_ip, port);
        let local_addr = if spec.nat {
            HostAddr::new(self.alloc.alloc_private(rng), port)
        } else {
            external_addr
        };
        let (up, down) = (self.world.config.upload_bps, self.world.config.download_bps);
        let upload = spec
            .upload_bps
            .unwrap_or_else(|| rng.gen_range(up.0..=up.1));
        let download = spec
            .download_bps
            .unwrap_or_else(|| rng.gen_range(down.0..=down.1));
        let listener = spec.listen_port.is_some() && !spec.nat;
        let sh = shard_of(self.seed, id.0, self.shards.len());
        self.world.dir.push(DirEntry {
            shard: sh,
            slot: self.shards[sh].nodes.len(),
            external_addr,
            local_addr,
        });
        self.shards[sh].nodes.push(NodeState::new(
            self.seed,
            id,
            app,
            local_addr,
            external_addr,
            upload,
            download,
            listener,
        ));
        if listener {
            self.world.addr_owner.insert(external_addr, id);
        }
        self.control.nodes_spawned += 1;
        let key = self.control_key();
        self.shards[sh]
            .queue
            .push_keyed(self.now, key, Ev::Start { node: id });
        // Fault-plan churn enrollment: a sampled fraction of non-durable
        // nodes get a first session-end scheduled. No draw when churn is
        // off (the FaultPlan::none() byte-identity contract).
        if let Some(churn) = self.world.config.faults.churn {
            if !spec.durable && churn.fraction > 0.0 && self.control_rng.gen_bool(churn.fraction) {
                let up = self
                    .control_rng
                    .gen_range(churn.uptime_secs.0..=churn.uptime_secs.1);
                let key = self.control_key();
                self.shards[sh].queue.push_keyed(
                    self.now + SimDuration::from_secs(up),
                    key,
                    Ev::ChurnDown { node: id },
                );
            }
        }
        self.refresh_merged();
        id
    }

    /// The routable address of `node` (where peers can dial it).
    pub fn node_addr(&self, node: NodeId) -> HostAddr {
        self.world.dir[node.0].external_addr
    }

    /// The address `node` believes it has (private when behind NAT).
    pub fn node_local_addr(&self, node: NodeId) -> HostAddr {
        self.world.dir[node.0].local_addr
    }

    /// Whether the node is currently online.
    pub fn is_alive(&self, node: NodeId) -> bool {
        let d = &self.world.dir[node.0];
        self.shards[d.shard].nodes[d.slot].alive
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn metrics(&self) -> &SimMetrics {
        &self.merged
    }

    /// Mutable access to the seeded control RNG (for harness-level sampling
    /// that must stay on a deterministic stream).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.control_rng
    }

    /// Number of events currently scheduled.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Records a memory-accounting snapshot into `metrics().memory`: every
    /// live app's [`App::memory_estimate`] summed, every lane's queue and
    /// body buffers, plus the process RSS gauges. Diagnostics only — draws no
    /// randomness, schedules nothing, and the snapshot hides behind an
    /// always-equal `PartialEq` shield.
    pub fn record_memory(&mut self) {
        let mut mem = MemoryStats {
            queue_bytes: self.shards.iter().map(|s| s.queue.heap_bytes()).sum(),
            payload_peak_bytes: self.shards.iter().map(|s| s.payload_peak).sum(),
            body_buffer_bytes: self
                .shards
                .iter()
                .map(|s| s.body_buf.capacity() as u64)
                .sum(),
            ..MemoryStats::default()
        };
        let nodes = self.shards.iter().flat_map(|s| &s.nodes);
        for app in nodes.filter_map(|st| st.app.as_ref()) {
            mem.nodes += 1;
            mem.app_bytes += app.memory_estimate();
        }
        (mem.peak_rss_kb, mem.current_rss_kb) = crate::metrics::process_rss_kb();
        self.control.memory = mem;
        self.refresh_merged();
    }

    /// Runs until the queue drains or the clock passes `deadline`.
    /// Returns the number of events dispatched.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let n = self.run_windows(deadline);
        // Advance the clock to the deadline even if the queue went quiet.
        self.now = self.now.max(deadline);
        n
    }

    /// Runs until the event queue is empty.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_windows(SimTime::from_micros(u64::MAX))
    }

    fn run_windows(&mut self, deadline: SimTime) -> u64 {
        let before = self.merged.events_processed;
        let boundary = Boundary {
            telemetry: &mut self.telemetry,
            control: &mut self.control,
            high_water: &mut self.queue_high_water,
            // `deadline + 1` must stay below the STOP sentinel.
            deadline_us: deadline.as_micros().min(u64::MAX - 2),
        };
        let last = shard::run_windows(&mut self.shards, &self.world, boundary);
        self.now = self.now.max(SimTime::from_micros(last));
        self.refresh_merged();
        self.merged.events_processed - before
    }

    /// Runs `f` on the lane that owns `node`, between windows.
    fn on_lane<R>(&mut self, node: NodeId, f: impl FnOnce(&mut Lane<'_>) -> R) -> R {
        let sh = self.world.dir[node.0].shard;
        let hub = &mut self.telemetry;
        let r = shard::serial_lane(&mut self.shards, sh, &self.world, self.now, hub, f);
        self.refresh_merged();
        r
    }

    /// Takes a node offline from outside the simulation (harness-driven
    /// churn). Peers of its open connections get `on_closed`.
    pub fn stop_node(&mut self, node: NodeId) {
        self.on_lane(node, |lane| lane.shutdown_node(node));
    }

    /// Harness entry point: runs `f` against a node's app with a live
    /// [`Ctx`], then applies any actions the app requested (sends,
    /// connects, timers). This is how instrumented experiments drive an
    /// app from outside the event loop — e.g. issuing a search on a
    /// crawler node and draining its observations. Returns `None` if the
    /// node is offline.
    pub fn with_node<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn App, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        if !self.is_alive(node) {
            return None;
        }
        self.on_lane(node, |lane| lane.with_app(node, f))
    }

    /// Rebuilds the merged snapshot: control slice plus every shard slice,
    /// with pool statistics synced first. The merged queue high-water is
    /// the peak *global* boundary depth (shard-count-invariant), not the
    /// max of per-shard peaks.
    fn refresh_merged(&mut self) {
        let mut m = self.control.clone();
        for shard in &mut self.shards {
            let s = &shard.pool.stats;
            shard.metrics.pool_hits = s.hits;
            shard.metrics.pool_misses = s.misses;
            shard.metrics.pool_recycled_bytes = s.recycled_bytes;
            shard.metrics.pool_high_water = s.high_water;
            m.merge(&shard.metrics);
        }
        m.queue_high_water = self.queue_high_water.max(self.pending_events() as u64);
        self.merged = m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{ConnId, Direction};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    // Per-node logs: with several lanes the cross-node interleaving of
    // callbacks inside one window is schedule-dependent, but each node's
    // own callback sequence is fully deterministic.
    type NodeLogs = Arc<Mutex<HashMap<usize, Vec<String>>>>;

    fn log(logs: &NodeLogs, node: usize, msg: String) {
        logs.lock().unwrap().entry(node).or_default().push(msg);
    }

    fn log_of(logs: &NodeLogs, node: NodeId) -> Vec<String> {
        logs.lock().unwrap().remove(&node.0).unwrap_or_default()
    }

    struct Echo {
        logs: NodeLogs,
    }

    impl App for Echo {
        fn on_connected(&mut self, ctx: &mut Ctx<'_>, _c: ConnId, dir: Direction, _p: HostAddr) {
            log(&self.logs, ctx.node().0, format!("connected {dir:?}"));
        }
        fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
            let text = String::from_utf8_lossy(data);
            log(&self.logs, ctx.node().0, format!("got {text}"));
            ctx.send(conn, data);
        }
        fn on_closed(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId) {
            log(&self.logs, ctx.node().0, "closed".into());
        }
    }

    struct Client {
        logs: NodeLogs,
        server: HostAddr,
        payload: Vec<u8>,
    }

    impl App for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.server);
        }
        fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _d: Direction, _p: HostAddr) {
            ctx.send(conn, &self.payload.clone());
        }
        fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId) {
            log(&self.logs, ctx.node().0, "connect failed".into());
        }
        fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
            let text = String::from_utf8_lossy(data);
            log(&self.logs, ctx.node().0, format!("echoed {text}"));
            ctx.close(conn);
        }
    }

    /// Runs `test` on a fresh simulator at one lane and at two: every
    /// engine behaviour is checked on the inline path and on the threaded
    /// one.
    fn at_shards_1_and_2(config: SimConfig, seed: u64, test: impl Fn(Simulator, NodeLogs)) {
        for shards in [1, 2] {
            let config = SimConfig {
                shards,
                ..config.clone()
            };
            test(Simulator::new(config, seed), NodeLogs::default());
        }
    }

    fn client(logs: &NodeLogs, server: HostAddr, payload: &[u8]) -> Box<Client> {
        Box::new(Client {
            logs: logs.clone(),
            server,
            payload: payload.to_vec(),
        })
    }

    #[test]
    fn echo_roundtrip_with_close() {
        at_shards_1_and_2(SimConfig::default(), 1, |mut sim, logs| {
            let server = sim.spawn(
                NodeSpec::public().listen(6346),
                Box::new(Echo { logs: logs.clone() }),
            );
            let c = sim.spawn(
                NodeSpec::public(),
                client(&logs, sim.node_addr(server), b"ping"),
            );
            sim.run_to_quiescence();
            assert_eq!(
                log_of(&logs, server),
                vec!["connected Inbound", "got ping", "closed"]
            );
            assert_eq!(log_of(&logs, c), vec!["echoed ping"]);
            assert_eq!(sim.metrics().conns_established, 1);
            assert_eq!(sim.metrics().conns_closed, 1);
        });
    }

    #[test]
    fn connect_to_nobody_fails() {
        at_shards_1_and_2(SimConfig::default(), 2, |mut sim, logs| {
            let phantom = HostAddr::new(std::net::Ipv4Addr::new(9, 9, 9, 9), 1234);
            let c = sim.spawn(NodeSpec::public(), client(&logs, phantom, b""));
            sim.run_to_quiescence();
            assert_eq!(log_of(&logs, c), vec!["connect failed"]);
            assert_eq!(sim.metrics().conns_failed, 1);
        });
    }

    #[test]
    fn nat_node_is_not_dialable_but_can_dial() {
        at_shards_1_and_2(SimConfig::default(), 3, |mut sim, logs| {
            // NAT "server": listener must not register.
            let nat = sim.spawn(
                NodeSpec::nat().listen(6346),
                Box::new(Echo { logs: logs.clone() }),
            );
            let c = sim.spawn(NodeSpec::public(), client(&logs, sim.node_addr(nat), b"x"));
            sim.run_to_quiescence();
            assert_eq!(log_of(&logs, c), vec!["connect failed"]);
            // The NAT node's local address is private while external is not.
            assert!(sim.node_local_addr(nat).is_private());
            assert!(!sim.node_addr(nat).is_private());
        });
        // NAT node can dial out.
        at_shards_1_and_2(SimConfig::default(), 4, |mut sim, logs| {
            let server = sim.spawn(
                NodeSpec::public().listen(6346),
                Box::new(Echo { logs: logs.clone() }),
            );
            let c = sim.spawn(NodeSpec::nat(), client(&logs, sim.node_addr(server), b"y"));
            sim.run_to_quiescence();
            assert_eq!(log_of(&logs, c), vec!["echoed y"]);
        });
    }

    #[test]
    fn bandwidth_serializes_transfers() {
        // A 100 KB send on a 10 KB/s uplink takes ≥ 10 simulated seconds.
        struct Sender {
            server: HostAddr,
        }
        impl App for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connect(self.server);
            }
            fn on_connected(&mut self, ctx: &mut Ctx<'_>, c: ConnId, _d: Direction, _p: HostAddr) {
                ctx.send(c, &vec![0u8; 100_000]);
            }
        }
        type SharedDone = Arc<Mutex<Option<SimTime>>>;
        struct Sink {
            done_at: SharedDone,
        }
        impl App for Sink {
            fn on_data(&mut self, ctx: &mut Ctx<'_>, _c: ConnId, _d: &[u8]) {
                *self.done_at.lock().unwrap() = Some(ctx.now());
            }
        }
        at_shards_1_and_2(SimConfig::default(), 5, |mut sim, _| {
            let done = SharedDone::default();
            let sink = sim.spawn(
                NodeSpec::public().listen(80).download(1_000_000),
                Box::new(Sink {
                    done_at: done.clone(),
                }),
            );
            let server = sim.node_addr(sink);
            sim.spawn(
                NodeSpec::public().upload(10_000),
                Box::new(Sender { server }),
            );
            sim.run_to_quiescence();
            // Plus three one-way latencies (SYN, SYN-ACK, data) of at most
            // window + 150 ms each.
            let t = done.lock().unwrap().expect("delivered");
            assert!(t >= SimTime::from_secs(10), "arrived too fast: {t}");
            assert!(t <= SimTime::from_secs(14), "arrived too slow: {t}");
        });
    }

    #[test]
    fn mss_fragments_but_preserves_order_and_content() {
        #[derive(Default)]
        struct Collect {
            got: Arc<Mutex<Vec<Vec<u8>>>>,
        }
        impl App for Collect {
            fn on_data(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, data: &[u8]) {
                self.got.lock().unwrap().push(data.to_vec());
            }
        }
        let config = SimConfig {
            mss: Some(100),
            ..SimConfig::default()
        };
        at_shards_1_and_2(config, 6, |mut sim, logs| {
            let collect = Collect::default();
            let got = collect.got.clone();
            let sink = sim.spawn(NodeSpec::public().listen(80), Box::new(collect));
            let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
            sim.spawn(
                NodeSpec::public(),
                client(&logs, sim.node_addr(sink), &payload),
            );
            sim.run_to_quiescence();
            let got = got.lock().unwrap();
            assert_eq!(got.len(), 10);
            assert_eq!(got.concat(), payload);
        });
    }

    /// The bytes of a test send: a function of its length and position.
    fn pattern(len: usize) -> impl Iterator<Item = u8> {
        (0..len).map(move |i| (i * 7 + len) as u8)
    }

    /// Sends `lens` on its connection, copied or deferred, then closes it
    /// and sends once more: bytes that are lost, and never written.
    struct Sender {
        server: HostAddr,
        deferred: bool,
        lens: Vec<usize>,
        /// Deferred writes run so far.
        fills: Arc<AtomicUsize>,
    }
    impl Sender {
        fn send(&self, ctx: &mut Ctx<'_>, c: ConnId, len: usize) {
            if self.deferred {
                let fills = self.fills.clone();
                ctx.send_deferred(c, len, move |out| {
                    fills.fetch_add(1, Ordering::SeqCst);
                    out.extend(pattern(len));
                });
            } else {
                ctx.send(c, &pattern(len).collect::<Vec<u8>>());
            }
        }
    }
    impl App for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.server);
        }
        fn on_connected(&mut self, ctx: &mut Ctx<'_>, c: ConnId, _d: Direction, _p: HostAddr) {
            for &len in &self.lens {
                self.send(ctx, c, len);
            }
            ctx.close(c);
            self.send(ctx, c, 5_000);
        }
    }

    type Deliveries = Arc<Mutex<Vec<(SimTime, Vec<u8>)>>>;
    struct Collect {
        got: Deliveries,
    }
    impl App for Collect {
        fn on_data(&mut self, ctx: &mut Ctx<'_>, _c: ConnId, data: &[u8]) {
            self.got.lock().unwrap().push((ctx.now(), data.to_vec()));
        }
    }

    /// What one sender → collector run delivered, and how many deferred
    /// writes it ran.
    struct Outcome {
        got: Vec<(SimTime, Vec<u8>)>,
        metrics: SimMetrics,
        now: SimTime,
        fills: usize,
        payload_peak: u64,
    }
    impl Outcome {
        fn delivered(&self) -> (&[(SimTime, Vec<u8>)], &SimMetrics, SimTime) {
            (&self.got, &self.metrics, self.now)
        }
    }

    fn deliver(config: &SimConfig, seed: u64, lens: &[usize], deferred: bool) -> Outcome {
        let mut sim = Simulator::new(config.clone(), seed);
        let got = Deliveries::default();
        let sink = sim.spawn(
            NodeSpec::public().listen(80),
            Box::new(Collect { got: got.clone() }),
        );
        let fills = Arc::new(AtomicUsize::new(0));
        let sender = Sender {
            server: sim.node_addr(sink),
            deferred,
            lens: lens.to_vec(),
            fills: fills.clone(),
        };
        sim.spawn(NodeSpec::public(), Box::new(sender));
        sim.run_to_quiescence();
        sim.record_memory();
        let mut metrics = sim.metrics().clone();
        // The copied sends borrow pooled buffers; the deferred ones do not.
        (metrics.pool_hits, metrics.pool_misses) = (0, 0);
        (metrics.pool_recycled_bytes, metrics.pool_high_water) = (0, 0);
        let got = std::mem::take(&mut *got.lock().unwrap());
        Outcome {
            got,
            metrics,
            now: sim.now(),
            fills: fills.load(Ordering::SeqCst),
            payload_peak: sim.metrics().memory.payload_peak_bytes,
        }
    }

    /// A deferred send delivers what a copied send of the same bytes does:
    /// same chunks at the same sim-times, same counters, whole or
    /// fragmented, on one lane or two. It is written once per delivery
    /// (once per split when fragmented), never when lost to the closed
    /// connection, and holds no queued bytes until it is written.
    #[test]
    fn deferred_delivers_what_send_delivers() {
        // Small, larger than the pool retains, small again.
        let lens = [10usize, 300_000, 1_000];
        for (mss, shards) in [(None, 1), (None, 2), (Some(1_000), 1), (Some(1_000), 2)] {
            let config = SimConfig {
                mss,
                shards,
                ..SimConfig::default()
            };
            let copied = deliver(&config, 11, &lens, false);
            assert_eq!(copied.metrics.bytes_delivered, 301_010);
            assert_eq!(copied.metrics.bytes_dropped, 5_000, "the send after close");
            let chunks = if mss.is_some() { 1 + 300 + 1 } else { 3 };
            assert_eq!(copied.got.len(), chunks);
            // All three sends queue at once.
            assert_eq!(copied.payload_peak, 301_010);
            let deferred = deliver(&config, 11, &lens, true);
            assert_eq!(deferred.fills, 3, "mss {mss:?}, shards {shards}");
            // Only a payload split into fragments is written before it lands.
            let peak = if mss.is_some() { 300_000 } else { 0 };
            assert_eq!(deferred.payload_peak, peak, "mss {mss:?}");
            assert_eq!(deferred.delivered(), copied.delivered());
        }
    }

    /// Under every chunk fate — delivered, dropped, truncated, bit-flipped
    /// — a deferred send comes out as the copied one does, at a fixed
    /// seed: writing draws no randomness. A dropped chunk or a reset
    /// connection loses its payload unwritten.
    #[test]
    fn deferred_matches_send_under_every_fault() {
        let lens: Vec<usize> = (0..40).map(|i| 200 + 97 * i).collect();
        let sent: Vec<Vec<u8>> = lens.iter().map(|&l| pattern(l).collect()).collect();
        let mixed = FaultPlan {
            chunk_loss: 0.25,
            corrupt: 0.5,
            ..FaultPlan::none()
        };
        let dropped = FaultPlan {
            chunk_loss: 1.0,
            ..FaultPlan::none()
        };
        let reset = FaultPlan {
            reset: 1.0,
            ..FaultPlan::none()
        };
        for (faults, shards) in [(mixed, 1), (mixed, 2), (dropped, 1), (reset, 2)] {
            let config = SimConfig {
                faults,
                shards,
                ..SimConfig::default()
            };
            let copied = deliver(&config, 23, &lens, false);
            let deferred = deliver(&config, 23, &lens, true);
            // Written exactly once per delivered chunk.
            assert_eq!(deferred.fills, copied.got.len(), "{faults:?}");
            // Only a corrupted chunk is written before it lands.
            assert!(deferred.payload_peak <= copied.payload_peak);
            assert_eq!(deferred.delivered(), copied.delivered());
            if faults == mixed {
                // Every fate happened: lost, intact, cut short, flipped.
                let m = &copied.metrics;
                assert!(m.faults_chunks_dropped > 0 && copied.got.len() < lens.len());
                assert!(deferred.payload_peak < copied.payload_peak);
                let got: Vec<&Vec<u8>> = copied.got.iter().map(|(_, b)| b).collect();
                let sent_as = |b: &Vec<u8>| sent.iter().find(|s| s.len() == b.len());
                assert!(got.iter().any(|b| sent.contains(b)), "delivered");
                assert!(got.iter().any(|b| sent_as(b).is_none()), "truncated");
                assert!(
                    got.iter().any(|b| sent_as(b).is_some_and(|s| s != *b)),
                    "bit-flipped"
                );
            } else {
                assert!(copied.got.is_empty(), "{faults:?}");
                assert_eq!(deferred.payload_peak, 0);
            }
        }
    }

    /// The lane lends one body buffer. A receiver that hands it back is
    /// lent the same allocation for the next deferred payload, replaced
    /// only when a payload outgrows it; one that keeps it costs each next
    /// delivery a fresh buffer of the payload's size. The snapshot reports
    /// what the lane holds.
    #[test]
    fn a_body_buffer_handed_back_is_lent_again() {
        /// `(address, capacity)` of every buffer lent.
        type Lent = Arc<Mutex<Vec<(usize, usize)>>>;
        struct Receiver {
            keep: bool,
            lent: Lent,
            kept: Vec<Vec<u8>>,
        }
        impl App for Receiver {
            fn on_data_owned(&mut self, ctx: &mut Ctx<'_>, _c: ConnId, data: Vec<u8>) {
                let lent = (data.as_ptr() as usize, data.capacity());
                self.lent.lock().unwrap().push(lent);
                if self.keep {
                    self.kept.push(data);
                } else {
                    ctx.give_back(data);
                }
            }
        }
        let lens = [1_000, 500, 2_000, 2_000];
        for keep in [false, true] {
            let mut sim = Simulator::new(SimConfig::default(), 3);
            let lent = Lent::default();
            let receiver = Receiver {
                keep,
                lent: lent.clone(),
                kept: Vec::new(),
            };
            let sink = sim.spawn(NodeSpec::public().listen(80), Box::new(receiver));
            let sender = Sender {
                server: sim.node_addr(sink),
                deferred: true,
                lens: lens.to_vec(),
                fills: Arc::default(),
            };
            sim.spawn(NodeSpec::public(), Box::new(sender));
            sim.run_to_quiescence();
            sim.record_memory();
            let lent = lent.lock().unwrap().clone();
            let caps: Vec<usize> = lent.iter().map(|&(_, cap)| cap).collect();
            let held = sim.metrics().memory.body_buffer_bytes;
            if keep {
                assert_eq!(caps, lens, "a fresh buffer of each payload's size");
                let mut at: Vec<usize> = lent.iter().map(|&(ptr, _)| ptr).collect();
                at.dedup();
                assert_eq!(at.len(), lens.len(), "four allocations");
                assert_eq!(held, 0, "the lane holds nothing");
            } else {
                assert_eq!(caps, [1_000, 1_000, 2_000, 2_000], "grown, never shrunk");
                assert_eq!(lent[1].0, lent[0].0, "the 500 bytes reuse the 1000");
                assert_eq!(lent[3].0, lent[2].0, "the second 2000 reuse the first");
                assert_eq!(held, 2_000);
            }
        }
    }

    #[test]
    #[should_panic(expected = "a deferred payload wrote another length")]
    fn deferred_fill_of_the_wrong_length_panics() {
        struct Liar(HostAddr);
        impl App for Liar {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connect(self.0);
            }
            fn on_connected(&mut self, ctx: &mut Ctx<'_>, c: ConnId, _d: Direction, _p: HostAddr) {
                ctx.send_deferred(c, 100, |out| out.extend_from_slice(&[0; 99]));
            }
        }
        let mut sim = Simulator::new(SimConfig::default(), 5);
        let got = Deliveries::default();
        let sink = sim.spawn(NodeSpec::public().listen(80), Box::new(Collect { got }));
        let server = sim.node_addr(sink);
        sim.spawn(NodeSpec::public(), Box::new(Liar(server)));
        sim.run_to_quiescence();
    }

    #[test]
    fn stop_node_closes_peer_connections() {
        struct Idle {
            logs: NodeLogs,
            server: HostAddr,
        }
        impl App for Idle {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connect(self.server);
            }
            fn on_closed(&mut self, ctx: &mut Ctx<'_>, _c: ConnId) {
                log(&self.logs, ctx.node().0, "closed".into());
            }
        }
        at_shards_1_and_2(SimConfig::default(), 7, |mut sim, logs| {
            let server = sim.spawn(
                NodeSpec::public().listen(1),
                Box::new(Echo { logs: logs.clone() }),
            );
            let addr = sim.node_addr(server);
            let idle = sim.spawn(
                NodeSpec::public(),
                Box::new(Idle {
                    logs: logs.clone(),
                    server: addr,
                }),
            );
            sim.run_until(SimTime::from_secs(5));
            assert!(sim.is_alive(server));
            sim.stop_node(server);
            sim.run_to_quiescence();
            assert!(!sim.is_alive(server));
            assert_eq!(log_of(&logs, idle), vec!["closed"], "peer observes close");
            assert!(sim.with_node(server, |_, _| ()).is_none());
            // Dialing the stopped node now fails.
            let late = sim.spawn(NodeSpec::public(), client(&logs, addr, b""));
            sim.run_to_quiescence();
            assert_eq!(log_of(&logs, late), vec!["connect failed"]);
        });
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timers {
            logs: NodeLogs,
        }
        impl App for Timers {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(3), 3);
                ctx.set_timer(SimDuration::from_secs(1), 1);
                ctx.set_timer(SimDuration::from_secs(2), 2);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                log(&self.logs, ctx.node().0, format!("{token}"));
            }
        }
        at_shards_1_and_2(SimConfig::default(), 8, |mut sim, logs| {
            let node = sim.spawn(NodeSpec::public(), Box::new(Timers { logs: logs.clone() }));
            assert_eq!(sim.run_to_quiescence(), 4);
            assert_eq!(log_of(&logs, node), vec!["1", "2", "3"]);
            assert_eq!(sim.metrics().timers_fired, 3);
            assert_eq!(sim.now(), SimTime::from_secs(3));
        });
    }

    /// A timer dies with the churn session that armed it: an app that
    /// starts one self-rearming hourly chain in `on_start` fires at most
    /// 24 times a day however often it restarts. (A chain that outlived
    /// its session ran beside the one the restart armed: 56-123 a day.)
    #[test]
    fn timers_do_not_outlive_a_churn_session() {
        struct Hourly {
            fired: Arc<Mutex<HashMap<usize, u64>>>,
        }
        impl App for Hourly {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(3600), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                *self.fired.lock().unwrap().entry(ctx.node().0).or_default() += 1;
                ctx.set_timer(SimDuration::from_secs(3600), 0);
            }
        }
        let config = SimConfig {
            faults: FaultPlan {
                churn: Some(crate::faults::ChurnSpec {
                    fraction: 1.0,
                    ..FaultPlan::harsh().churn.expect("harsh churns")
                }),
                ..FaultPlan::none()
            },
            ..SimConfig::default()
        };
        at_shards_1_and_2(config, 12, |mut sim, _| {
            let fired = Arc::new(Mutex::new(HashMap::new()));
            for _ in 0..16 {
                let app = Hourly {
                    fired: fired.clone(),
                };
                sim.spawn(NodeSpec::public(), Box::new(app));
            }
            sim.run_until(SimTime::from_days(1));
            assert!(sim.metrics().faults_churn_ups >= 16 * 3, "too little churn");
            let fired = fired.lock().unwrap();
            assert_eq!(fired.len(), 16);
            for (node, &n) in fired.iter() {
                assert!(
                    (1..=24).contains(&n),
                    "node {node} fired {n} times in a day"
                );
            }
            assert_eq!(sim.metrics().timers_fired, fired.values().sum::<u64>());
        });
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        at_shards_1_and_2(SimConfig::default(), 9, |mut sim, _| {
            sim.run_until(SimTime::from_days(2));
            assert_eq!(sim.now(), SimTime::from_days(2));
        });
    }

    #[test]
    fn self_dial_fails() {
        // A node dialing its own listen address must not connect to itself.
        struct SelfDial {
            logs: NodeLogs,
        }
        impl App for SelfDial {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let me = ctx.external_addr();
                ctx.connect(me);
            }
            fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>, _c: ConnId) {
                log(&self.logs, ctx.node().0, "connect failed".into());
            }
        }
        at_shards_1_and_2(SimConfig::default(), 10, |mut sim, logs| {
            let node = sim.spawn(
                NodeSpec::public().listen(5),
                Box::new(SelfDial { logs: logs.clone() }),
            );
            sim.run_to_quiescence();
            assert_eq!(log_of(&logs, node), vec!["connect failed"]);
        });
    }

    #[test]
    fn exchange_bucket_accrues_only_with_several_lanes() {
        at_shards_1_and_2(SimConfig::default(), 5, |mut sim, logs| {
            let server = sim.spawn(
                NodeSpec::public().listen(80),
                Box::new(Echo { logs: logs.clone() }),
            );
            sim.spawn(
                NodeSpec::public(),
                client(&logs, sim.node_addr(server), b"z"),
            );
            sim.run_to_quiescence();
            let m = sim.metrics();
            let exchanges = m.timing.calls(crate::Subsystem::ShardExchange);
            assert_eq!(exchanges > 0, sim.shard_count() > 1);
            // Window boundaries sampled the queue depth without the harness
            // calling sample_queue_depth.
            assert!(m.telemetry.hist(SimHist::QueueDepth).count() > 0);
            assert!(m.queue_high_water > 0);
        });
    }

    /// One world, observed per-node: a listener plus a crowd of clients,
    /// with faults and fragmentation on to exercise every code path.
    fn run_world(shards: usize, seed: u64) -> (HashMap<usize, Vec<String>>, SimMetrics, SimTime) {
        let logs = NodeLogs::default();
        let config = SimConfig {
            shards,
            shard_window_us: 500_000,
            mss: Some(256),
            faults: FaultPlan::mild(),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(config, seed);
        let server = sim.spawn(
            NodeSpec::public().listen(6346).durable(),
            Box::new(Echo { logs: logs.clone() }),
        );
        let addr = sim.node_addr(server);
        for i in 0..24 {
            let payload = format!("message-{i}-{}", "x".repeat(400));
            sim.spawn(NodeSpec::public(), client(&logs, addr, payload.as_bytes()));
        }
        // Bounded run: mild() includes churn, whose up/down cycle reschedules
        // forever, so quiescence never comes.
        sim.run_until(SimTime::from_secs(600));
        sim.run_until(SimTime::from_secs(1200));
        let mut metrics = sim.metrics().clone();
        // Pool statistics depend on how buffers partition across shards;
        // everything else is shard-count-invariant.
        metrics.pool_hits = 0;
        metrics.pool_misses = 0;
        metrics.pool_recycled_bytes = 0;
        metrics.pool_high_water = 0;
        let logs = logs.lock().unwrap().clone();
        (logs, metrics, sim.now())
    }

    #[test]
    fn trajectory_is_identical_across_shard_counts() {
        let base = run_world(1, 77);
        assert!(base.1.faults_chunks_dropped > 0, "the world saw no faults");
        for shards in [2usize, 3, 4, 8] {
            let other = run_world(shards, 77);
            assert_eq!(base.0, other.0, "per-node logs diverged at {shards} shards");
            assert_eq!(base.1, other.1, "metrics diverged at {shards} shards");
            assert_eq!(base.2, other.2, "final clock diverged at {shards} shards");
        }
    }

    #[test]
    fn trajectory_is_identical_across_repeated_runs() {
        // Same seed twice: neither thread scheduling (4 lanes) nor process
        // state (1 lane) may leak in.
        for shards in [1, 4] {
            assert_eq!(run_world(shards, 123), run_world(shards, 123));
        }
    }
}
