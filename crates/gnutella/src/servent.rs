//! The Gnutella 0.6 servent: a complete node (ultrapeer or leaf) running
//! over the [`p2pmal_netsim::App`] interface.
//!
//! One servent owns one listening socket. Inbound connections are sniffed:
//! `GNUTELLA CONNECT` starts an overlay handshake, `GET`/`HEAD` starts an
//! HTTP upload, and `GIV` completes a push we requested earlier. Outbound
//! connections carry an intent recorded at dial time (peer, download, or
//! push-upload).
//!
//! Routing follows the 0.6 rules: flooded queries with GUID duplicate
//! suppression, QRP-filtered last-hop delivery to leaves, reverse-path
//! routing of query hits by query GUID, and reverse-path routing of PUSH by
//! servent GUID.

use crate::guid::Guid;
use crate::handshake::{Admission, HandshakeConfig, HsEvent, Initiator, RespEvent, Responder};
use crate::http::{
    encode_giv, encode_request, encode_response_err, encode_response_ok, parse_giv, Body,
    DownloadError, Giv, HttpRequest, RequestReader, RequestTarget, ResponseReader,
};
use crate::message::{encode_message, encode_message_with, Header, MessageReader, MsgType};
use crate::payload::{Ping, Pong, Push, QhdFlags, Query, QueryHit, QHD_PUSH, QHD_UPLOADED};
use crate::qrp::{qrp_hash_full, QrpIndex, QrpTable, RouteMsg};
use p2pmal_corpus::{
    Catalog, CompiledQuery, ContentRef, ContentStore, HostLibrary, NameInterner, QueryCache,
    Roster, SharedFile,
};
use p2pmal_netsim::{
    telemetry_span as span, AgedMap, App, ConnId, Ctx, Direction, EventBody, EventCategory,
    FifoMap, HostAddr, SimDuration, SimTime, SpanCtx, Subsystem, VecMap,
};
use rand::RngCore;
use std::collections::VecDeque;
use std::sync::Arc;

/// File indexes at or above this value are fabricated query-echo responses;
/// the index encodes `(family, size_idx)` so uploads need no per-query
/// state: `index = ECHO_INDEX_BASE + family * 16 + size_idx`.
pub const ECHO_INDEX_BASE: u32 = 0x0100_0000;

/// Timer tokens.
const TIMER_MAINTENANCE: u64 = 0;
const TIMER_AUTO_QUERY: u64 = 1;
const TIMER_DL_BASE: u64 = 1 << 32;

/// Bounds of the GUID and push-route tables (entries, not bytes).
const GUID_BOUND: usize = 16_384;
const PUSH_ROUTE_BOUND: usize = 8_192;

/// The GUID table remembers a GUID for at least this long and at most
/// twice it: LimeWire's route lifetime. Intact copies of a query and its
/// hits cross at most four hops of at most 4 s each (DESIGN.md "Bounded
/// route tables").
const GUID_LIFETIME: SimDuration = SimDuration::from_mins(10);

/// How long our own searches take hits: as long as the GUID table could
/// hold a route.
const SEARCH_LIFETIME: SimDuration = SimDuration::from_mins(20);

/// What the GUID table knows of a foreign message GUID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// A query an ultrapeer routed: its hits go back on this connection.
    Via(ConnId),
    /// Any other GUID seen (a ping, and every GUID a leaf holds): a
    /// duplicate if it comes again, with no way back.
    Seen,
}

type Aged<V> = AgedMap<Guid, V, { GUID_LIFETIME.as_micros() }>;

/// Every foreign message GUID seen in the last one to two
/// `GUID_LIFETIME`s: duplicate suppression and query routing in one table,
/// sized by role. Only an ultrapeer sees the hits for a query come back
/// through it; a leaf answers on the connection it is reading and forwards
/// nothing, so it keeps the GUIDs alone (16-byte entries, where an
/// ultrapeer's carry a `Route` and take 32). Both age, bound and evict
/// alike: which keys a table holds does not depend on its values.
enum GuidTable {
    Leaf(Aged<()>),
    Ultrapeer(Aged<Route>),
}

impl GuidTable {
    fn new(role: Role, bound: usize) -> Self {
        match role {
            Role::Leaf => GuidTable::Leaf(AgedMap::new(bound)),
            Role::Ultrapeer => GuidTable::Ultrapeer(AgedMap::new(bound)),
        }
    }

    /// What the table knows of `guid` at `now`: on a leaf, `Seen` at most.
    fn get(&mut self, now: SimTime, guid: &Guid) -> Option<Route> {
        match self {
            GuidTable::Leaf(m) => m.contains_key(now, guid).then_some(Route::Seen),
            GuidTable::Ultrapeer(m) => m.get(now, guid).copied(),
        }
    }

    fn contains_key(&mut self, now: SimTime, guid: &Guid) -> bool {
        self.get(now, guid).is_some()
    }

    /// Remembers `guid` at `now`; a leaf's table drops the route.
    fn insert(&mut self, now: SimTime, guid: Guid, route: Route) {
        match self {
            GuidTable::Leaf(m) => {
                m.insert(now, guid, ());
            }
            GuidTable::Ultrapeer(m) => {
                m.insert(now, guid, route);
            }
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        match self {
            GuidTable::Leaf(m) => m.len(),
            GuidTable::Ultrapeer(m) => m.len(),
        }
    }

    fn heap_bytes(&self) -> u64 {
        match self {
            GuidTable::Leaf(m) => m.heap_bytes(),
            GuidTable::Ultrapeer(m) => m.heap_bytes(),
        }
    }
}

/// Node role in the two-tier overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Ultrapeer,
    Leaf,
}

/// The content world every servent references (shared, immutable).
#[derive(Clone)]
pub struct SharedWorld {
    pub catalog: Arc<Catalog>,
    pub roster: Arc<Roster>,
    pub store: Arc<ContentStore>,
    /// World-wide compile cache: a query text floods through hundreds of
    /// servents, but is tokenized and fingerprinted exactly once.
    queries: Arc<QueryCache>,
    /// World-wide filename dedup table: every library registered against
    /// this world interns its names here, so a catalog variant's name is
    /// stored once no matter how many hosts replicate it.
    pub names: Arc<NameInterner>,
}

impl SharedWorld {
    pub fn new(catalog: Arc<Catalog>, roster: Arc<Roster>, store: Arc<ContentStore>) -> Self {
        SharedWorld {
            catalog,
            roster,
            store,
            queries: Arc::new(QueryCache::new()),
            names: Arc::new(NameInterner::new()),
        }
    }

    /// The compiled (tokenized-once) form of `text`, shared across every
    /// servent in this world.
    pub fn compile_query(&self, text: &str) -> Arc<CompiledQuery> {
        self.queries.compile(text)
    }
}

/// Servent tunables. Defaults mirror a 2006 LimeWire deployment.
#[derive(Debug, Clone)]
pub struct ServentConfig {
    pub role: Role,
    pub user_agent: String,
    pub listen_port: u16,
    /// Overlay degree: ultrapeer↔ultrapeer connections for ultrapeers, or
    /// number of ultrapeers a leaf attaches to.
    pub target_degree: usize,
    /// Leaf slots (ultrapeers only).
    pub max_leaf_slots: usize,
    /// Addresses to dial when the host cache is empty. `Arc`-shared: every
    /// leaf in a population points at the same ultrapeer list, so spawning
    /// N leaves costs one allocation instead of N copies.
    pub bootstrap: std::sync::Arc<[HostAddr]>,
    /// TTL on originated queries.
    pub query_ttl: u8,
    /// Result cap per query answered.
    pub max_results: usize,
    /// When set, this node originates a popularity-sampled query at this
    /// interval (ambient user traffic).
    pub auto_query: Option<SimDuration>,
    /// Keep [`ServentEvent`]s for the owner to drain (instrumented nodes);
    /// plain population nodes leave this off.
    pub collect_events: bool,
    /// Download size cap.
    pub max_download_bytes: usize,
    /// Give up on a download (connect, push, transfer) after this long.
    pub download_timeout: SimDuration,
    /// Maintenance tick period.
    pub tick: SimDuration,
}

impl ServentConfig {
    pub fn ultrapeer() -> Self {
        ServentConfig {
            role: Role::Ultrapeer,
            user_agent: "LimeWire/4.12.3".into(),
            listen_port: 6346,
            target_degree: 6,
            max_leaf_slots: 30,
            bootstrap: std::sync::Arc::from([]),
            query_ttl: 3,
            max_results: 64,
            auto_query: None,
            collect_events: false,
            max_download_bytes: 64 << 20,
            download_timeout: SimDuration::from_secs(120),
            tick: SimDuration::from_secs(10),
        }
    }

    pub fn leaf() -> Self {
        ServentConfig {
            role: Role::Leaf,
            target_degree: 3,
            max_leaf_slots: 0,
            ..Self::ultrapeer()
        }
    }

    pub fn with_bootstrap(mut self, hosts: impl Into<std::sync::Arc<[HostAddr]>>) -> Self {
        self.bootstrap = hosts.into();
        self
    }
}

/// A completed download, with everything the study logs.
#[derive(Debug, Clone)]
pub struct DownloadOutcome {
    pub id: u64,
    pub at: SimTime,
    pub result: Result<Body, DownloadError>,
}

/// Observable servent happenings, drained by instrumented owners.
#[derive(Debug, Clone)]
pub enum ServentEvent {
    /// An overlay connection finished its handshake.
    PeerUp {
        conn: ConnId,
        addr: HostAddr,
        ultrapeer: bool,
        inbound: bool,
    },
    PeerDown {
        conn: ConnId,
    },
    /// A query hit answering one of *our* queries arrived.
    QueryHit {
        at: SimTime,
        query_guid: Guid,
        hit: QueryHit,
    },
    /// We saw (routed or received) a query.
    QuerySeen {
        at: SimTime,
        text: String,
    },
    DownloadDone(DownloadOutcome),
}

/// How to fetch a file we learned about from a query hit.
#[derive(Debug, Clone)]
pub struct DownloadRequest {
    /// Address advertised in the hit (may be private / undialable).
    pub addr: HostAddr,
    pub index: u32,
    pub name: String,
    /// The responding servent's GUID (for PUSH routing).
    pub servent_guid: Guid,
    /// Fetch strategy.
    pub method: DownloadMethod,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownloadMethod {
    /// Dial the advertised address and GET.
    Direct,
    /// Route a PUSH and wait for the GIV callback.
    Push,
}

/// Counters the benches and experiments read.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServentStats {
    pub queries_originated: u64,
    pub queries_routed: u64,
    pub queries_answered: u64,
    pub hits_sent: u64,
    pub hits_routed: u64,
    pub hits_received: u64,
    pub pushes_routed: u64,
    pub pushes_served: u64,
    pub uploads_served: u64,
    pub downloads_ok: u64,
    pub downloads_failed: u64,
    pub qrp_last_hop_suppressed: u64,
    /// Messages that failed to decode. A duplicate QUERY is dropped on its
    /// header before its payload is looked at, so a malformed *duplicate*
    /// is not counted here (it is in `queries_duplicate`).
    pub bad_messages: u64,
    /// QUERYs dropped because their GUID had been seen already.
    pub queries_duplicate: u64,
    /// Overlay messages that had to be reassembled in the reader's buffer
    /// because they did not arrive whole in one chunk.
    pub frames_reassembled: u64,
}

// ---------------------------------------------------------------------------
// Connection bookkeeping
// ---------------------------------------------------------------------------

struct PeerConn {
    reader: MessageReader,
    ultrapeer: bool,
}

struct DownloadConn {
    id: u64,
    reader: ResponseReader,
}

struct PushUploadConn {
    index: u32,
    name: String,
    reader: RequestReader,
}

/// What a connection is doing. The passing states (handshakes, downloads,
/// push uploads) are boxed, so the slot every established peer holds for
/// the life of its connection is sized for `PeerConn`, not for a
/// `Responder`. A connection this servent closes leaves the table at once:
/// the engine tells only the far side, so nothing would remove it later.
enum ConnKind {
    /// Outbound overlay dial: waiting for TCP, then handshaking.
    HsOut(Box<Initiator>),
    /// Inbound, protocol not yet identified.
    SniffIn(Vec<u8>),
    /// Inbound overlay handshake in progress.
    HsIn(Box<Responder>),
    /// Established overlay connection.
    Peer(PeerConn),
    /// Outbound download (dialing or transferring).
    Download(Box<DownloadConn>),
    /// Outbound push upload: dial requester, say GIV, then serve one GET.
    PushUpload(Box<PushUploadConn>),
    /// Inbound upload (after sniffing a GET).
    Upload(RequestReader),
}

impl ConnKind {
    /// Bytes of the state this connection holds boxed outside its slot.
    fn boxed_bytes(&self) -> u64 {
        use std::mem::size_of;
        (match self {
            ConnKind::HsOut(_) => size_of::<Initiator>(),
            ConnKind::HsIn(_) => size_of::<Responder>(),
            ConnKind::Download(_) => size_of::<DownloadConn>(),
            ConnKind::PushUpload(_) => size_of::<PushUploadConn>(),
            _ => 0,
        }) as u64
    }
}

/// A download not yet bound to a connection (push pending) or in flight.
struct PendingDownload {
    id: u64,
    request: DownloadRequest,
}

// ---------------------------------------------------------------------------
// Servent
// ---------------------------------------------------------------------------

/// A Gnutella servent. Implements [`App`]; instrumented owners may embed it
/// and forward the `App` callbacks, using [`Servent::search`],
/// [`Servent::begin_download`] and [`Servent::drain_events`].
pub struct Servent {
    config: ServentConfig,
    world: SharedWorld,
    library: HostLibrary,
    guid: Guid,
    conns: VecMap<ConnId, ConnKind>,
    /// Current outbound overlay dials/sessions, to avoid duplicate dials.
    outbound_targets: VecMap<ConnId, HostAddr>,
    /// The QRP tables our peers sent, and which peers are leaves: every
    /// leaf `Peer` entry of `conns` is registered here, and leaves it with
    /// its connection. Boxed at the first leaf or route message, so a leaf
    /// servent, which gets neither, carries one pointer.
    qrp: Option<Box<QrpIndex>>,
    /// Every foreign message GUID seen lately, and on an ultrapeer where a
    /// QUERYHIT carrying it goes.
    guids: GuidTable,
    /// Our own searches of the last `SEARCH_LIFETIME`, and when each went
    /// out: their hits are ours, and their echoes duplicates. Kept apart
    /// from `guids` so that no flood of foreign GUIDs evicts them.
    searches: VecMap<Guid, SimTime>,
    /// Servent GUID -> conn that delivered its hits (PUSH routing).
    /// FIFO-bounded route table, filled only where `keeps_push_routes`:
    /// a plain leaf's stays empty and allocates nothing.
    push_routes: FifoMap<Guid, ConnId>,
    /// Known ultrapeer addresses.
    host_cache: Vec<HostAddr>,
    /// Downloads waiting for a GIV, keyed by (servent guid, index).
    pending_pushes: VecMap<(Guid, u32), PendingDownload>,
    /// Direct downloads whose GET goes out once the dial completes.
    direct_requests: VecMap<u64, DownloadRequest>,
    /// Download ids currently bound to a connection.
    active_downloads: VecMap<u64, ConnId>,
    next_download: u64,
    events: VecDeque<ServentEvent>,
    stats: ServentStats,
    /// Our QRP table as encoded RESET/PATCH payloads, built by the first
    /// `send_qrp` (the library never changes after construction).
    qrp_payloads: Vec<Vec<u8>>,
    /// The library's name fingerprint columns (low halves, then high
    /// halves, one of each per static row), built by the first query
    /// answered: what `answer_query` tests before it follows a row's
    /// world-shared record.
    name_fps: Vec<u32>,
    /// Rows matching the query being answered (reused between queries).
    hit_rows: Vec<u32>,
}

impl Servent {
    pub fn new(config: ServentConfig, world: SharedWorld, mut library: HostLibrary) -> Self {
        library.set_interner(world.names.clone());
        let guids = GuidTable::new(config.role, GUID_BOUND);
        Servent {
            config,
            world,
            library,
            guid: Guid([0u8; 16]), // replaced in on_start with a seeded GUID
            conns: VecMap::new(),
            outbound_targets: VecMap::new(),
            qrp: None,
            guids,
            searches: VecMap::new(),
            push_routes: FifoMap::bounded(PUSH_ROUTE_BOUND),
            host_cache: Vec::new(),
            pending_pushes: VecMap::new(),
            direct_requests: VecMap::new(),
            active_downloads: VecMap::new(),
            next_download: 1,
            events: VecDeque::new(),
            stats: ServentStats::default(),
            qrp_payloads: Vec::new(),
            name_fps: Vec::new(),
            hit_rows: Vec::new(),
        }
    }

    pub fn config(&self) -> &ServentConfig {
        &self.config
    }

    pub fn stats(&self) -> ServentStats {
        self.stats
    }

    pub fn library(&self) -> &HostLibrary {
        &self.library
    }

    /// The shared content world this servent lives in.
    pub fn world(&self) -> &SharedWorld {
        &self.world
    }

    /// The servent GUID (valid after `on_start`).
    pub fn servent_guid(&self) -> Guid {
        self.guid
    }

    /// Established overlay connections.
    pub fn peer_count(&self) -> usize {
        self.conns
            .values()
            .filter(|k| matches!(k, ConnKind::Peer(_)))
            .count()
    }

    /// Drains collected events (empty unless `collect_events`).
    pub fn drain_events(&mut self) -> Vec<ServentEvent> {
        self.events.drain(..).collect()
    }

    /// Deterministic deep-heap estimate (see [`App::memory_estimate`]):
    /// container storage plus the dominant owned allocations — the peers'
    /// QRP tables on ultrapeers and the share library's match metadata.
    fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut b = size_of::<Self>() as u64;
        b += self.conns.heap_bytes();
        b += self.conns.values().map(ConnKind::boxed_bytes).sum::<u64>();
        b += self
            .qrp
            .as_ref()
            .map_or(0, |q| size_of::<QrpIndex>() as u64 + q.heap_bytes());
        b += self.outbound_targets.heap_bytes();
        b += self.guids.heap_bytes();
        b += self.searches.heap_bytes();
        b += self.push_routes.heap_bytes();
        b += (self.host_cache.capacity() * size_of::<HostAddr>()) as u64;
        // config.bootstrap is Arc-shared across the population: not charged
        // per node.
        b += self.pending_pushes.heap_bytes();
        b += self.direct_requests.heap_bytes();
        b += self.active_downloads.heap_bytes();
        b += (self.events.capacity() * size_of::<ServentEvent>()) as u64;
        b += (self.qrp_payloads.capacity() * size_of::<Vec<u8>>()) as u64;
        b += self
            .qrp_payloads
            .iter()
            .map(|p| p.capacity() as u64)
            .sum::<u64>();
        b += (self.name_fps.capacity() * size_of::<u32>()) as u64;
        b += (self.hit_rows.capacity() * size_of::<u32>()) as u64;
        b += self.library.heap_bytes();
        b
    }

    /// Originates a keyword query; returns its GUID so the owner can match
    /// incoming [`ServentEvent::QueryHit`]s.
    pub fn search(&mut self, ctx: &mut Ctx<'_>, text: &str) -> Guid {
        let guid = Guid::random(ctx.rng());
        let now = ctx.now();
        self.searches
            .retain(|_, &mut at| now < at + SEARCH_LIFETIME);
        self.searches.insert(guid, now);
        // Trace root: every event descending from this query (matches,
        // downloads, verdicts) derives its trace id from the query GUID.
        if ctx.telemetry_on(EventCategory::Query) {
            let trace = span::trace_from_guid(&guid.0);
            ctx.emit_spanned(
                EventBody::QueryIssued {
                    text: text.to_string(),
                    seq: self.stats.queries_originated,
                },
                SpanCtx::root(trace, span::span_root(trace)),
            );
        }
        // Tokenize at origination: every hop this query floods through
        // reuses the compiled form out of the world's cache.
        let _ = self.world.compile_query(text);
        let q = Query::keyword(text);
        let payload = q.encode();
        let mut wire = Vec::with_capacity(payload.len() + 23);
        encode_message(
            guid,
            MsgType::Query,
            self.config.query_ttl,
            0,
            &payload,
            &mut wire,
        );
        let mut targets: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, k)| matches!(k, ConnKind::Peer(_)))
            .map(|(&c, _)| c)
            .collect();
        // VecMap iteration is already key-sorted; the sort stays as a
        // zero-cost guard on the run-to-run sequencing invariant.
        targets.sort_unstable();
        for t in targets {
            ctx.send(t, &wire);
        }
        self.stats.queries_originated += 1;
        guid
    }

    /// Starts a download; completion arrives as
    /// [`ServentEvent::DownloadDone`].
    pub fn begin_download(&mut self, ctx: &mut Ctx<'_>, request: DownloadRequest) -> u64 {
        let id = self.next_download;
        self.next_download += 1;
        ctx.set_timer(self.config.download_timeout, TIMER_DL_BASE | id);
        match request.method {
            DownloadMethod::Direct => {
                let conn = ctx.connect(request.addr);
                self.active_downloads.insert(id, conn);
                self.conns.insert(
                    conn,
                    ConnKind::Download(Box::new(DownloadConn {
                        id,
                        reader: ResponseReader::new(self.config.max_download_bytes),
                    })),
                );
                // Remember target details for the GET we send on connect.
                self.direct_requests.insert(id, request);
            }
            DownloadMethod::Push => {
                let Some(&route) = self.push_routes.get(&request.servent_guid) else {
                    self.finish_download(ctx, id, Err(DownloadError::NoPushRoute));
                    return id;
                };
                let push = Push {
                    servent_guid: request.servent_guid,
                    index: request.index,
                    // We advertise our *external* address: pushes only work
                    // when the requester is dialable.
                    ip: ctx.external_addr().ip,
                    port: self.config.listen_port,
                };
                let guid = Guid::random(ctx.rng());
                let mut wire = Vec::new();
                encode_message(guid, MsgType::Push, 7, 0, &push.encode(), &mut wire);
                ctx.send(route, &wire);
                self.pending_pushes.insert(
                    (request.servent_guid, request.index),
                    PendingDownload { id, request },
                );
            }
        }
        id
    }

    // -- internals ---------------------------------------------------------

    fn emit(&mut self, ev: ServentEvent) {
        if self.config.collect_events {
            self.events.push_back(ev);
            if self.events.len() > 1 << 20 {
                self.events.pop_front();
            }
        }
    }

    /// Whether `guid` is a search of ours that still takes hits.
    fn is_own(&self, now: SimTime, guid: &Guid) -> bool {
        self.searches
            .get(guid)
            .is_some_and(|&at| now < at + SEARCH_LIFETIME)
    }

    /// Whether this servent can use a push route: an ultrapeer routes
    /// PUSH by servent GUID, and an owned servent sends one from
    /// `begin_download`. A plain leaf does neither, so it keeps none.
    fn keeps_push_routes(&self) -> bool {
        self.config.role == Role::Ultrapeer || self.config.collect_events
    }

    fn remember_push_route(&mut self, guid: Guid, conn: ConnId) {
        self.push_routes.insert(guid, conn);
    }

    fn add_hosts(&mut self, hosts: impl IntoIterator<Item = HostAddr>) {
        for h in hosts {
            if !self.host_cache.contains(&h) {
                self.host_cache.push(h);
                if self.host_cache.len() > 1000 {
                    self.host_cache.remove(0);
                }
            }
        }
    }

    fn handshake_config(&self, ctx: &Ctx<'_>) -> HandshakeConfig {
        HandshakeConfig {
            user_agent: self.config.user_agent.clone(),
            ultrapeer: self.config.role == Role::Ultrapeer,
            // NATed nodes advertise the address they believe they have —
            // an RFC 1918 address.
            listen_addr: Some(HostAddr::new(ctx.local_addr().ip, self.config.listen_port)),
        }
    }

    /// Dial overlay peers until we reach the target degree.
    fn maintain_connectivity(&mut self, ctx: &mut Ctx<'_>) {
        let have = self.peer_count()
            + self
                .conns
                .values()
                .filter(|k| matches!(k, ConnKind::HsOut(_)))
                .count();
        if have >= self.config.target_degree {
            return;
        }
        let mut candidates: Vec<HostAddr> = self
            .host_cache
            .iter()
            .chain(self.config.bootstrap.iter())
            .copied()
            .collect();
        candidates.sort();
        candidates.dedup();
        // Never dial ourselves or a host we already dialed.
        let me = HostAddr::new(ctx.external_addr().ip, self.config.listen_port);
        candidates.retain(|c| *c != me && !self.outbound_targets.values().any(|t| t == c));
        let mut dialed = 0;
        while have + dialed < self.config.target_degree && !candidates.is_empty() {
            let i = (ctx.rng().next_u64() % candidates.len() as u64) as usize;
            let target = candidates.swap_remove(i);
            let init = Box::new(Initiator::new(self.handshake_config(ctx)));
            let conn = ctx.connect(target);
            self.conns.insert(conn, ConnKind::HsOut(init));
            self.outbound_targets.insert(conn, target);
            dialed += 1;
        }
    }

    /// Sends our QRP table on a fresh leaf->ultrapeer connection. Echo-worm
    /// hosts saturate the table so every query reaches them.
    fn send_qrp(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        if self.qrp_payloads.is_empty() {
            let table = if self.library.has_echo() {
                // Worm behaviour: claim to match everything.
                saturated_table()
            } else {
                let mut t = QrpTable::default_table();
                for f in self.library.files() {
                    t.insert_name(&f.name);
                }
                t
            };
            // Deflating the table is the expensive part and a leaf sends
            // the same one to every ultrapeer it ever attaches to.
            let messages = table.to_messages(2048, true);
            self.qrp_payloads = messages.iter().map(RouteMsg::encode).collect();
        }
        let mut wire = Vec::new();
        for payload in &self.qrp_payloads {
            let guid = Guid::random(ctx.rng());
            wire.clear();
            encode_message(guid, MsgType::Route, 1, 0, payload, &mut wire);
            ctx.send(conn, &wire);
        }
    }

    fn send_ping(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let guid = Guid::random(ctx.rng());
        let mut wire = Vec::new();
        encode_message(
            guid,
            MsgType::Ping,
            2,
            0,
            &Ping::default().encode(),
            &mut wire,
        );
        ctx.send(conn, &wire);
    }

    fn on_peer_established(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: ConnId,
        peer_ultrapeer: bool,
        inbound: bool,
        leftover: Vec<u8>,
    ) {
        let pc = PeerConn {
            reader: MessageReader::new(),
            ultrapeer: peer_ultrapeer,
        };
        self.conns.insert(conn, ConnKind::Peer(pc));
        if !peer_ultrapeer {
            self.qrp.get_or_insert_with(Box::default).add_leaf(conn);
        }
        self.emit(ServentEvent::PeerUp {
            conn,
            addr: HostAddr::new(ctx.external_addr().ip, 0),
            ultrapeer: peer_ultrapeer,
            inbound,
        });
        if self.config.role == Role::Leaf && peer_ultrapeer {
            self.send_qrp(ctx, conn);
        }
        self.send_ping(ctx, conn);
        // Process any messages that arrived glued to the handshake.
        self.pump_peer(ctx, conn, &leftover);
    }

    /// Decodes and handles the messages `data` completes on a peer
    /// connection. The reader leaves the connection table for the pass, so
    /// handlers get `self` and payloads borrowed from `data` at once; it
    /// goes back unless a handler (or a framing error) ended the session.
    fn pump_peer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        let Some(ConnKind::Peer(pc)) = self.conns.get_mut(&conn) else {
            return;
        };
        let mut reader = std::mem::take(&mut pc.reader);
        let mut frames = reader.frames(data);
        let still_peer = loop {
            match frames.next_frame() {
                Ok(Some((header, payload))) => {
                    self.handle_message(ctx, conn, header, payload);
                    if !matches!(self.conns.get(&conn), Some(ConnKind::Peer(_))) {
                        break false;
                    }
                }
                Ok(None) => break true,
                Err(_) => {
                    self.stats.bad_messages += 1;
                    self.drop_conn(ctx, conn);
                    break false;
                }
            }
        };
        self.stats.frames_reassembled += frames.reassembled();
        drop(frames);
        if still_peer {
            if let Some(ConnKind::Peer(pc)) = self.conns.get_mut(&conn) {
                pc.reader = reader;
            }
        }
    }

    fn handle_message(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, header: Header, payload: &[u8]) {
        match header.msg_type {
            MsgType::Ping => self.handle_ping(ctx, conn, header),
            MsgType::Pong => self.handle_pong(payload),
            MsgType::Query => self.handle_query(ctx, conn, header, payload),
            MsgType::QueryHit => self.handle_query_hit(ctx, conn, header, payload),
            MsgType::Push => self.handle_push(ctx, conn, header, payload),
            MsgType::Route => self.handle_route(ctx, conn, payload),
            MsgType::Bye => self.drop_conn(ctx, conn),
        }
    }

    fn handle_ping(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, header: Header) {
        let now = ctx.now();
        if self.guids.contains_key(now, &header.guid) {
            return;
        }
        self.guids.insert(now, header.guid, Route::Seen);
        let shared: u64 = self.library.files().iter().map(|f| f.size).sum::<u64>() / 1024;
        let pong = Pong {
            port: self.config.listen_port,
            ip: ctx.local_addr().ip,
            file_count: self.library.files().len() as u32,
            kbytes: shared as u32,
            ggep: Vec::new(),
        };
        let mut wire = Vec::new();
        encode_message(
            header.guid,
            MsgType::Pong,
            header.hops.max(1),
            0,
            &pong.encode(),
            &mut wire,
        );
        ctx.send(conn, &wire);
        // Pong-cache style: also advertise a few known ultrapeers.
        let extras: Vec<HostAddr> = self.host_cache.iter().rev().take(3).copied().collect();
        for h in extras {
            let pong = Pong {
                port: h.port,
                ip: h.ip,
                file_count: 0,
                kbytes: 0,
                ggep: Vec::new(),
            };
            let mut wire = Vec::new();
            encode_message(header.guid, MsgType::Pong, 1, 1, &pong.encode(), &mut wire);
            ctx.send(conn, &wire);
        }
    }

    fn handle_pong(&mut self, payload: &[u8]) {
        let Ok(pong) = Pong::parse(payload) else {
            self.stats.bad_messages += 1;
            return;
        };
        let addr = HostAddr::new(pong.ip, pong.port);
        if !addr.is_private() && pong.port != 0 {
            self.add_hosts([addr]);
        }
    }

    fn handle_query(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, header: Header, payload: &[u8]) {
        // Most queries a flooded overlay delivers are duplicates via
        // another path: those go on their header alone, as in LimeWire's
        // router, before any payload work.
        let now = ctx.now();
        if self.guids.contains_key(now, &header.guid) || self.is_own(now, &header.guid) {
            self.stats.queries_duplicate += 1;
            return;
        }
        let Ok(text) = Query::parse_text(payload) else {
            self.stats.bad_messages += 1;
            return;
        };
        // The reverse path for this query's hits (a leaf keeps none).
        self.guids.insert(now, header.guid, Route::Via(conn));
        self.stats.queries_routed += 1;
        if self.config.collect_events {
            let text = text.to_string();
            self.emit(ServentEvent::QuerySeen { at: now, text });
        }

        // One compile per hop (usually a cache hit from the origination),
        // shared by the library answer and the QRP last-hop filter below.
        let compiled = self.world.compile_query(text);

        // Answer from our own library.
        self.answer_query(ctx, conn, header, &compiled);

        if self.config.role == Role::Leaf {
            return; // leaves never forward
        }
        // Forward to other ultrapeers while TTL remains. (VecMap iterates
        // in key order, which is the run-to-run sequencing invariant.)
        if let Some(fwd) = header.hop() {
            for (&c, k) in self.conns.iter() {
                if c != conn && matches!(k, ConnKind::Peer(p) if p.ultrapeer) {
                    ctx.send_with(c, |out| {
                        encode_message(fwd.guid, MsgType::Query, fwd.ttl, fwd.hops, payload, out)
                    });
                }
            }
        }
        // Last-hop delivery to QRP-matching leaves (always, regardless of
        // remaining TTL). Hash the query's QRP keywords once (compiled
        // terms of length >= 3 are exactly `qrp::keywords(text)`); the index
        // finds each keyword's slot once for every leaf table at a time.
        let qrp_hashes: Vec<u64> = ctx.time(Subsystem::QueryMatch, || {
            compiled
                .terms()
                .iter()
                .filter(|t| t.len() >= 3)
                .map(|t| qrp_hash_full(t))
                .collect()
        });
        let Some(qrp) = self.qrp.as_mut() else {
            return; // no leaves
        };
        let hops = header.hops.saturating_add(1);
        self.stats.qrp_last_hop_suppressed += qrp.route_last_hop(&qrp_hashes, conn, |c| {
            ctx.send_with(c, |out| {
                encode_message(header.guid, MsgType::Query, 1, hops, payload, out)
            })
        });
    }

    /// Answers the compiled query from our library, if it matches, with one
    /// QUERYHIT on `conn`, the connection the query arrived on: written
    /// from the matching rows straight into the buffer that travels.
    fn answer_query(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: ConnId,
        header: Header,
        query: &CompiledQuery,
    ) {
        let max = self.config.max_results;
        let mut rows = std::mem::take(&mut self.hit_rows);
        rows.clear();
        let echoes = ctx.time(Subsystem::QueryMatch, || {
            if self.name_fps.len() != 2 * self.library.len() {
                self.name_fps = self.library.name_fingerprints();
            }
            let echoes = self.library.echo_responses(query, max);
            self.library
                .match_rows(query, &self.name_fps, max - echoes.len(), |row| {
                    rows.push(row as u32)
                });
            echoes
        });
        let results = echoes.len() + rows.len();
        if results == 0 {
            self.hit_rows = rows;
            return;
        }
        self.stats.queries_answered += 1;
        self.stats.hits_sent += 1;
        if ctx.telemetry_on(EventCategory::Query) {
            // `header.hops` counts hops *already traveled* when the query
            // reached us, so overlay distance from the origin is hops + 1.
            let trace = span::trace_from_guid(&header.guid.0);
            ctx.emit_spanned(
                EventBody::QueryMatched {
                    text: query.raw().to_string(),
                    results: results as u64,
                    hops: header.hops as u64 + 1,
                },
                SpanCtx::child(
                    trace,
                    span::span_match_guid(trace, &self.guid.0),
                    span::span_root(trace),
                ),
            );
        }
        let is_nat = ctx.local_addr().ip != ctx.external_addr().ip;
        let hit = QueryHit {
            port: self.config.listen_port,
            // The advertised IP is the *locally perceived* one: NATed hosts
            // leak RFC 1918 addresses here (the paper's source artifact).
            ip: ctx.local_addr().ip,
            speed: 350,
            results: Vec::new(), // written from `echoes` and `rows` below
            vendor: *b"LIME",
            flags: QhdFlags::new()
                .with(QHD_PUSH, is_nat)
                .with(QHD_UPLOADED, true),
            ggep: Vec::new(),
            servent_guid: self.guid,
        };
        let files = self.library.files();
        let wire_size = |f: &SharedFile| f.size.min(u32::MAX as u64) as u32;
        let records = echoes
            .iter()
            .map(|f| (self.echo_index(f), wire_size(f), &*f.name, None))
            .chain(rows.iter().enumerate().map(|(n, &row)| {
                let f = &files[row as usize];
                // Where the library holds this very file twice, both rows
                // matched: the HTTP index is the first one's.
                let first = rows[..n].iter().find(|&&r| files[r as usize] == *f);
                (*first.unwrap_or(&row), wire_size(f), &*f.name, None)
            }));
        let ttl = header.hops.saturating_add(2).max(3);
        ctx.send_with(conn, |out| {
            encode_message_with(header.guid, MsgType::QueryHit, ttl, 0, out, |out| {
                hit.encode_records(records, out)
            })
        });
        self.hit_rows = rows;
    }

    /// The HTTP index of a fabricated echo answer: the stateless
    /// `(family, size_idx)` encoding, unless the library happens to share
    /// that very file as a static row.
    fn echo_index(&self, f: &SharedFile) -> u32 {
        if let Some(row) = self.library.files().iter().position(|s| s == f) {
            return row as u32;
        }
        match f.content {
            ContentRef::Malware { family, size_idx } => {
                ECHO_INDEX_BASE + (family.0 as u32) * 16 + size_idx as u32
            }
            // No echo fabricates benign content; if one ever does, its
            // index resolves to nothing.
            ContentRef::Benign { .. } => u32::MAX,
        }
    }

    /// Resolves an HTTP index back to content.
    fn resolve_index(&self, index: u32) -> Option<(String, ContentRef)> {
        if index >= ECHO_INDEX_BASE {
            let rel = index - ECHO_INDEX_BASE;
            let family = p2pmal_corpus::FamilyId((rel / 16) as u16);
            let size_idx = (rel % 16) as u8;
            // Only serve families actually resident on this host.
            if !self.library.infections().contains(&family) {
                return None;
            }
            if (family.0 as usize) >= self.world.roster.len() {
                return None;
            }
            let fam = self.world.roster.get(family);
            if size_idx as usize >= fam.sizes.len() {
                return None;
            }
            return Some((
                format!("{}.exe", fam.name.to_ascii_lowercase()),
                ContentRef::Malware { family, size_idx },
            ));
        }
        self.library
            .files()
            .get(index as usize)
            .map(|f| (f.name.to_string(), f.content))
    }

    fn handle_query_hit(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: ConnId,
        header: Header,
        payload: &[u8],
    ) {
        let now = ctx.now();
        let own = self.is_own(now, &header.guid);
        let route = self.guids.get(now, &header.guid);
        // A hit has one reader: the owner of the servent whose query it
        // answers, through its events. Every other hit — one passing
        // through, or one answering the ambient query of a servent nobody
        // listens to — is checked just as strictly, but nothing of it is
        // kept beyond the push route to its servent, and that only where a
        // PUSH is sent or routed.
        let decoded = if own && self.config.collect_events {
            QueryHit::parse(payload).map(|hit| (hit.servent_guid, Some(hit)))
        } else {
            QueryHit::validate(payload).map(|guid| (guid, None))
        };
        let Ok((servent_guid, hit)) = decoded else {
            self.stats.bad_messages += 1;
            return;
        };
        if self.keeps_push_routes() {
            self.remember_push_route(servent_guid, conn);
        }
        if own {
            self.stats.hits_received += 1;
            if let Some(hit) = hit {
                self.emit(ServentEvent::QueryHit {
                    at: now,
                    query_guid: header.guid,
                    hit,
                });
            }
        } else if let Some(Route::Via(back)) = route {
            self.stats.hits_routed += 1;
            if let Some(fwd) = header.hop() {
                ctx.send_with(back, |out| {
                    encode_message(fwd.guid, MsgType::QueryHit, fwd.ttl, fwd.hops, payload, out)
                });
            }
        }
        // Otherwise we hold no route — it aged out, or we are a leaf, which
        // never has one: drop silently, like real servents.
    }

    fn handle_push(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId, header: Header, payload: &[u8]) {
        let Ok(push) = Push::parse(payload) else {
            self.stats.bad_messages += 1;
            return;
        };
        if push.servent_guid == self.guid {
            // We are the target: dial back and offer the file.
            self.stats.pushes_served += 1;
            let Some((name, _)) = self.resolve_index(push.index) else {
                return;
            };
            let conn = ctx.connect(HostAddr::new(push.ip, push.port));
            self.conns.insert(
                conn,
                ConnKind::PushUpload(Box::new(PushUploadConn {
                    index: push.index,
                    name,
                    reader: RequestReader::new(),
                })),
            );
            return;
        }
        // Route toward the target servent. A leaf relays nothing: a PUSH
        // for another servent ends here, even where an owned leaf holds a
        // route to it.
        if self.config.role != Role::Ultrapeer {
            return;
        }
        if let Some(&next) = self.push_routes.get(&push.servent_guid) {
            if let Some(fwd) = header.hop() {
                self.stats.pushes_routed += 1;
                let mut wire = Vec::new();
                encode_message(
                    fwd.guid,
                    MsgType::Push,
                    fwd.ttl,
                    fwd.hops,
                    payload,
                    &mut wire,
                );
                ctx.send(next, &wire);
            }
        }
    }

    fn handle_route(&mut self, _ctx: &mut Ctx<'_>, conn: ConnId, payload: &[u8]) {
        let Ok(msg) = RouteMsg::parse(payload) else {
            self.stats.bad_messages += 1;
            return;
        };
        if matches!(self.conns.get(&conn), Some(ConnKind::Peer(_)))
            && self
                .qrp
                .get_or_insert_with(Box::default)
                .apply(conn, &msg)
                .is_err()
        {
            self.stats.bad_messages += 1;
        }
    }

    // -- transfer plumbing ---------------------------------------------------

    fn serve_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, req: &HttpRequest) {
        let content = match &req.target {
            RequestTarget::ByIndex { index, .. } => self.resolve_index(*index),
            RequestTarget::ByUrn(digest) => self.library.files().iter().find_map(|f| {
                let h =
                    self.world
                        .store
                        .sha1_of(f.content, &self.world.catalog, &self.world.roster);
                (h == *digest).then(|| (f.name.to_string(), f.content))
            }),
        };
        match content {
            Some((_name, r)) => {
                self.stats.uploads_served += 1;
                let SharedWorld {
                    store,
                    catalog,
                    roster,
                    ..
                } = &self.world;
                let size = store.size(r, catalog, roster) as usize;
                let head = encode_response_ok(&self.config.user_agent, size);
                let (store, catalog, roster) = (store.clone(), catalog.clone(), roster.clone());
                // Head and body are written where they land, into the
                // buffer the downloader keeps.
                ctx.send_deferred(conn, head.len() + size, move |out| {
                    out.extend_from_slice(&head);
                    store.payload_into(r, &catalog, &roster, out);
                });
            }
            None => {
                ctx.send(
                    conn,
                    &encode_response_err(&self.config.user_agent, 404, "Not Found"),
                );
            }
        }
    }

    fn finish_download(&mut self, ctx: &mut Ctx<'_>, id: u64, result: Result<Body, DownloadError>) {
        // Remove all state referring to this download.
        if let Some(conn) = self.active_downloads.remove(&id) {
            self.conns.remove(&conn);
            ctx.close(conn);
        }
        self.pending_pushes.retain(|_, p| p.id != id);
        self.direct_requests.remove(&id);
        match &result {
            Ok(_) => self.stats.downloads_ok += 1,
            Err(_) => self.stats.downloads_failed += 1,
        }
        let at = ctx.now();
        self.emit(ServentEvent::DownloadDone(DownloadOutcome {
            id,
            at,
            result,
        }));
    }

    fn drop_conn(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.outbound_targets.remove(&conn);
        if let Some(qrp) = &mut self.qrp {
            qrp.remove(conn);
        }
        if let Some(ConnKind::Download(d)) = self.conns.remove(&conn) {
            self.active_downloads.remove(&d.id);
            self.finish_download(ctx, d.id, Err(DownloadError::Reset));
        }
        ctx.close(conn);
    }

    /// Handles bytes on an inbound connection whose protocol is unknown.
    fn sniff(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        let buf = {
            let Some(ConnKind::SniffIn(buf)) = self.conns.get_mut(&conn) else {
                return;
            };
            buf.extend_from_slice(data);
            if buf.len() < 4 && !buf.starts_with(b"GIV") {
                return; // not enough to classify yet
            }
            std::mem::take(buf)
        };
        if buf.starts_with(b"GNUTELLA") || b"GNUTELLA".starts_with(&buf[..buf.len().min(8)]) {
            let resp = Box::new(Responder::new(self.handshake_config(ctx)));
            self.conns.remove(&conn);
            self.feed_responder(ctx, conn, resp, &buf);
            return;
        }
        if buf.starts_with(b"GET ") || buf.starts_with(b"HEAD") {
            let mut reader = RequestReader::new();
            reader.push(&buf);
            self.conns.insert(conn, ConnKind::Upload(reader));
            self.pump_upload(ctx, conn);
            return;
        }
        if buf.starts_with(b"GIV") {
            match parse_giv(&buf) {
                Ok(Some((giv, used))) => {
                    self.on_giv(ctx, conn, giv, buf[used..].to_vec());
                }
                Ok(None) => {
                    // keep sniffing; restore buffer
                    self.conns.insert(conn, ConnKind::SniffIn(buf));
                }
                Err(_) => self.drop_conn(ctx, conn),
            }
            return;
        }
        // Unknown protocol.
        self.drop_conn(ctx, conn);
    }

    /// An inbound GIV matched against our pending pushes becomes the
    /// transfer connection: send the GET on it.
    fn on_giv(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, giv: Giv, leftover: Vec<u8>) {
        let key = (giv.servent_guid, giv.index);
        let Some(pending) = self.pending_pushes.remove(&key) else {
            self.drop_conn(ctx, conn);
            return;
        };
        let mut reader = ResponseReader::new(self.config.max_download_bytes);
        reader.push(&leftover);
        self.active_downloads.insert(pending.id, conn);
        self.conns.insert(
            conn,
            ConnKind::Download(Box::new(DownloadConn {
                id: pending.id,
                reader,
            })),
        );
        let target = RequestTarget::ByIndex {
            index: pending.request.index,
            name: pending.request.name.clone(),
        };
        ctx.send(conn, &encode_request(&target, &self.config.user_agent));
    }

    fn pump_upload(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let req = {
            let Some(ConnKind::Upload(reader)) = self.conns.get_mut(&conn) else {
                return;
            };
            match reader.request() {
                Ok(Some(r)) => r,
                Ok(None) => return,
                Err(_) => {
                    self.drop_conn(ctx, conn);
                    return;
                }
            }
        };
        self.serve_request(ctx, conn, &req);
    }

    /// Feeds a download connection's reader through `push` and finishes
    /// the download once its response is complete.
    fn pump_download(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: ConnId,
        push: impl FnOnce(&mut ResponseReader),
    ) {
        let (id, outcome) = {
            let Some(ConnKind::Download(d)) = self.conns.get_mut(&conn) else {
                return;
            };
            push(&mut d.reader);
            let Some(outcome) = d.reader.response().transpose() else {
                return;
            };
            (d.id, outcome)
        };
        self.finish_download(ctx, id, outcome);
    }
}

impl Servent {
    /// Feeds an inbound handshake taken out of the connection table, and
    /// puts it back while it is still under way.
    fn feed_responder(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: ConnId,
        mut resp: Box<Responder>,
        data: &[u8],
    ) {
        match resp.on_data(data) {
            Ok(RespEvent::NeedMore) => {
                self.conns.insert(conn, ConnKind::HsIn(resp));
            }
            Ok(RespEvent::Decide { peer }) => {
                let accept = match self.config.role {
                    Role::Leaf => false,
                    Role::Ultrapeer => {
                        if peer.ultrapeer {
                            true // UP↔UP always welcome up to taste
                        } else {
                            let leaves = self
                                .conns
                                .values()
                                .filter(|k| matches!(k, ConnKind::Peer(p) if !p.ultrapeer))
                                .count();
                            leaves < self.config.max_leaf_slots
                        }
                    }
                };
                if accept {
                    let reply = resp.admit(Admission::Accept);
                    ctx.send(conn, &reply);
                    // Await the final ack; stay in HsIn. Stash peer info by
                    // re-issuing Decide later via Established.
                    self.conns.insert(conn, ConnKind::HsIn(resp));
                } else {
                    let hosts: Vec<HostAddr> =
                        self.host_cache.iter().rev().take(5).copied().collect();
                    let reply = resp.admit(Admission::Reject(hosts));
                    ctx.send(conn, &reply);
                    self.drop_conn(ctx, conn);
                }
            }
            Ok(RespEvent::Established { peer, leftover }) => {
                self.on_peer_established(ctx, conn, peer.ultrapeer, true, leftover);
            }
            Err(_) => self.drop_conn(ctx, conn),
        }
    }
}

/// A QRP table with every slot present (worm saturation). Its wire form is
/// identical to the receiver-built saturated table used previously (all
/// entries 1, so every delta is `-(infinity - 1)`).
fn saturated_table() -> QrpTable {
    QrpTable::saturated(crate::qrp::DEFAULT_LOG2_SIZE, crate::qrp::DEFAULT_INFINITY)
}

impl Servent {
    /// Hands `data` to whatever is reading `conn`.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        enum Route {
            HsOut,
            HsIn,
            Sniff,
            Peer,
            Download,
            Upload,
            PushUpload,
            Gone,
        }
        let route = match self.conns.get(&conn) {
            Some(ConnKind::HsOut(_)) => Route::HsOut,
            Some(ConnKind::HsIn(_)) => Route::HsIn,
            Some(ConnKind::SniffIn(_)) => Route::Sniff,
            Some(ConnKind::Peer(_)) => Route::Peer,
            Some(ConnKind::Download(_)) => Route::Download,
            Some(ConnKind::Upload(_)) => Route::Upload,
            Some(ConnKind::PushUpload(_)) => Route::PushUpload,
            None => Route::Gone,
        };
        match route {
            Route::HsOut => {
                let Some(ConnKind::HsOut(init)) = self.conns.get_mut(&conn) else {
                    return;
                };
                match init.on_data(data) {
                    Ok(HsEvent::NeedMore) => {}
                    Ok(HsEvent::Established {
                        peer,
                        send,
                        leftover,
                    }) => {
                        ctx.send(conn, &send);
                        self.on_peer_established(ctx, conn, peer.ultrapeer, false, leftover);
                    }
                    Ok(HsEvent::Rejected { try_hosts, .. }) => {
                        self.add_hosts(try_hosts);
                        self.drop_conn(ctx, conn);
                        // No immediate retry: rejection means slots are
                        // scarce; the maintenance tick retries with the
                        // freshly learned X-Try hosts. An immediate re-dial
                        // here degenerates into a rejection hot-loop when
                        // the network is at capacity.
                    }
                    Err(_) => self.drop_conn(ctx, conn),
                }
            }
            Route::HsIn => {
                let Some(ConnKind::HsIn(resp)) = self.conns.remove(&conn) else {
                    return;
                };
                self.feed_responder(ctx, conn, resp, data);
            }
            Route::Sniff => self.sniff(ctx, conn, data),
            Route::Peer => self.pump_peer(ctx, conn, data),
            Route::Download => self.pump_download(ctx, conn, |r| r.push(data)),
            Route::Upload => {
                if let Some(ConnKind::Upload(reader)) = self.conns.get_mut(&conn) {
                    reader.push(data);
                }
                self.pump_upload(ctx, conn);
            }
            Route::PushUpload => {
                let req = {
                    let Some(ConnKind::PushUpload(pu)) = self.conns.get_mut(&conn) else {
                        return;
                    };
                    pu.reader.push(data);
                    match pu.reader.request() {
                        Ok(Some(r)) => r,
                        Ok(None) => return,
                        Err(_) => {
                            self.drop_conn(ctx, conn);
                            return;
                        }
                    }
                };
                self.serve_request(ctx, conn, &req);
            }
            Route::Gone => {}
        }
    }

    /// Debug builds: the QRP index's leaves are exactly the leaf `Peer`
    /// entries of `conns`, checked after every callback.
    fn debug_assert_leaf_set(&self) {
        if cfg!(debug_assertions) {
            let leaves = self
                .conns
                .iter()
                .filter_map(|(&c, k)| matches!(k, ConnKind::Peer(p) if !p.ultrapeer).then_some(c));
            assert!(
                leaves.eq(self.qrp.iter().flat_map(|q| q.leaves())),
                "QRP index leaves out of step with the connection table"
            );
        }
    }
}

impl App for Servent {
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn memory_estimate(&self) -> u64 {
        self.heap_bytes()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.guid = Guid::random(ctx.rng());
        let boot = self.config.bootstrap.clone();
        self.add_hosts(boot.iter().copied());
        self.maintain_connectivity(ctx);
        ctx.set_timer(self.config.tick, TIMER_MAINTENANCE);
        if let Some(iv) = self.config.auto_query {
            // Staggered first query to avoid thundering herds.
            let jitter = SimDuration::from_micros(ctx.rng().next_u64() % iv.as_micros().max(1));
            ctx.set_timer(jitter, TIMER_AUTO_QUERY);
        }
        self.debug_assert_leaf_set();
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, dir: Direction, _peer: HostAddr) {
        match dir {
            Direction::Inbound => {
                self.conns.insert(conn, ConnKind::SniffIn(Vec::new()));
            }
            Direction::Outbound => match self.conns.get(&conn) {
                Some(ConnKind::HsOut(init)) => {
                    let greeting = init.greeting();
                    ctx.send(conn, &greeting);
                }
                Some(ConnKind::Download(d)) => {
                    // Direct download: the dial completed; send the GET.
                    let id = d.id;
                    if let Some(request) = self.direct_requests.remove(&id) {
                        let target = RequestTarget::ByIndex {
                            index: request.index,
                            name: request.name,
                        };
                        ctx.send(conn, &encode_request(&target, &self.config.user_agent));
                    }
                }
                Some(ConnKind::PushUpload(pu)) => {
                    let giv = Giv {
                        index: pu.index,
                        servent_guid: self.guid,
                        name: pu.name.clone(),
                    };
                    ctx.send(conn, &encode_giv(&giv));
                }
                _ => {}
            },
        }
        self.debug_assert_leaf_set();
    }

    fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.outbound_targets.remove(&conn);
        match self.conns.remove(&conn) {
            Some(ConnKind::Download(d)) => {
                self.active_downloads.remove(&d.id);
                self.finish_download(ctx, d.id, Err(DownloadError::ConnectFailed));
            }
            Some(ConnKind::HsOut(_)) => {
                self.maintain_connectivity(ctx);
            }
            _ => {}
        }
        self.debug_assert_leaf_set();
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        self.deliver(ctx, conn, data);
        self.debug_assert_leaf_set();
    }

    /// An upload body written for this delivery: a download connection's
    /// reader keeps the lent buffer instead of copying it, and the owner
    /// of [`ServentEvent::DownloadDone`] hands it back. Anywhere else the
    /// bytes are read and the buffer goes straight back.
    fn on_data_owned(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: Vec<u8>) {
        if let Some(ConnKind::Download(_)) = self.conns.get(&conn) {
            self.pump_download(ctx, conn, |r| r.push_owned(data));
        } else {
            self.deliver(ctx, conn, &data);
            ctx.give_back(data);
        }
        self.debug_assert_leaf_set();
    }

    fn on_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.outbound_targets.remove(&conn);
        if let Some(qrp) = &mut self.qrp {
            qrp.remove(conn);
        }
        match self.conns.remove(&conn) {
            Some(ConnKind::Peer(_)) => {
                self.emit(ServentEvent::PeerDown { conn });
                self.maintain_connectivity(ctx);
            }
            Some(ConnKind::Download(d)) => {
                self.active_downloads.remove(&d.id);
                self.finish_download(ctx, d.id, Err(DownloadError::Reset));
            }
            _ => {}
        }
        self.debug_assert_leaf_set();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_MAINTENANCE {
            self.maintain_connectivity(ctx);
            // Refresh the host cache occasionally.
            let mut peers: Vec<ConnId> = self
                .conns
                .iter()
                .filter(|(_, k)| matches!(k, ConnKind::Peer(_)))
                .map(|(&c, _)| c)
                .collect();
            // `conns` iterates in key order, so this sort is a no-op; it
            // stays as a guard that the RNG pick below lands on the same
            // peer in every run.
            peers.sort_unstable();
            if !peers.is_empty() && ctx.rng().next_u64() % 6 == 0 {
                let pick = peers[(ctx.rng().next_u64() % peers.len() as u64) as usize];
                self.send_ping(ctx, pick);
            }
            // Adaptive cadence: tick fast while still hunting for peers,
            // slowly once the overlay is stable (drops re-arm connectivity
            // immediately via `on_closed`). Month-scale runs would
            // otherwise spend most of their events on idle ticks.
            let stable = self.peer_count() >= self.config.target_degree.div_ceil(2).max(1);
            let next = if stable {
                SimDuration::from_micros(self.config.tick.as_micros() * 30)
            } else {
                self.config.tick
            };
            ctx.set_timer(next, TIMER_MAINTENANCE);
        } else if token == TIMER_AUTO_QUERY {
            if let Some(iv) = self.config.auto_query {
                let q = self.world.catalog.sample_query(ctx.rng());
                self.search(ctx, &q);
                ctx.set_timer(iv, TIMER_AUTO_QUERY);
            }
        } else if token & TIMER_DL_BASE != 0 {
            let id = token & (TIMER_DL_BASE - 1);
            let still_pending = self.active_downloads.contains_key(&id)
                || self.pending_pushes.values().any(|p| p.id == id);
            if still_pending {
                self.finish_download(ctx, id, Err(DownloadError::Timeout));
            }
        }
        self.debug_assert_leaf_set();
    }
}

#[cfg(test)]
mod tests;
