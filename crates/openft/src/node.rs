//! The OpenFT node: USER / SEARCH / INDEX classes over
//! [`p2pmal_netsim::App`].
//!
//! OpenFT is giFT's native network. Unlike Gnutella's flooding, OpenFT is
//! *registration-based*: USER nodes pick SEARCH-class parents and register
//! every shared file (MD5 + size + path) with them; a search is answered
//! entirely from the parent's registration index, with results pointing at
//! the third-party host that serves the bytes over HTTP.
//!
//! The simulator gives each node one listening socket, so the OpenFT packet
//! channel and the HTTP transfer channel share the port and inbound
//! connections are sniffed (binary packets never begin with `G`, HTTP GETs
//! always do). `NodeInfo.http_port` is still carried on the wire.
//!
//! Simplifications versus giFT, documented in DESIGN.md: the multi-stage
//! session negotiation is collapsed to one request/response; searches are
//! answered by the queried node only (no search-peer forwarding — the
//! crawler queries every SEARCH node it discovers, which is how giFT's
//! default configuration effectively behaved in small deployments); the
//! firewalled-source PUSH relay is not modelled (the study's OpenFT
//! population is dominated by publicly reachable hosts).

use crate::http::{encode_request, encode_response_err, encode_response_ok, RequestReader};
use crate::packet::{
    encode_packet, AddShare, Child, Command, NodeEntry, NodeInfo, NodeList, PacketReader,
    ResultBatch, Search, SearchRef, SearchResultRef, Session, Version, CLASS_SEARCH, CLASS_USER,
};
use p2pmal_corpus::{ContentRef, HostLibrary, NameRecord};
use p2pmal_gnutella::http::{Body, DownloadError, ResponseReader};
use p2pmal_gnutella::servent::SharedWorld;
use p2pmal_hashes::Md5Digest;
use p2pmal_netsim::{
    telemetry_span as span, App, ConnId, Ctx, Direction, EventBody, EventCategory, HostAddr,
    SimDuration, SimTime, SpanCtx, Subsystem, VecMap,
};
use rand::RngCore;

/// Timer tokens.
const TIMER_MAINTENANCE: u64 = 0;
const TIMER_AUTO_QUERY: u64 = 1;
const TIMER_DL_BASE: u64 = 1 << 32;

/// How long an outbound connection may take to become a session with a
/// known peer. A lost hello or session reply would otherwise hold its
/// outbound slot for good.
const HANDSHAKE_TIMEOUT: SimDuration = SimDuration(60_000_000);

/// Node tunables. Defaults mirror a giFT 0.11 deployment.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Class bitmask ([`CLASS_USER`], [`CLASS_SEARCH`],
    /// [`crate::packet::CLASS_INDEX`]).
    pub klass: u16,
    pub alias: String,
    pub port: u16,
    /// Sessions to maintain with SEARCH-class nodes.
    pub target_sessions: usize,
    /// Parents to register shares with (USER nodes).
    pub target_parents: usize,
    /// Children a SEARCH node accepts.
    pub max_children: usize,
    /// `Arc`-shared across the population; see `ServentConfig::bootstrap`.
    pub bootstrap: std::sync::Arc<[HostAddr]>,
    /// Result cap per answered search.
    pub max_results: usize,
    /// Ambient query interval (user behaviour), if any.
    pub auto_query: Option<SimDuration>,
    pub collect_events: bool,
    pub max_download_bytes: usize,
    pub download_timeout: SimDuration,
    /// Maintenance tick while an outbound session slot is empty (30 times
    /// this once half of `target_sessions` is up); a full node has none.
    pub tick: SimDuration,
}

impl FtConfig {
    pub fn user() -> Self {
        FtConfig {
            klass: CLASS_USER,
            alias: "user".into(),
            port: 1215,
            target_sessions: 3,
            target_parents: 2,
            max_children: 0,
            bootstrap: std::sync::Arc::from([]),
            max_results: 64,
            auto_query: None,
            collect_events: false,
            max_download_bytes: 64 << 20,
            download_timeout: SimDuration::from_secs(120),
            tick: SimDuration::from_secs(10),
        }
    }

    pub fn search_node() -> Self {
        FtConfig {
            klass: CLASS_USER | CLASS_SEARCH,
            alias: "search".into(),
            target_sessions: 4,
            max_children: 60,
            ..Self::user()
        }
    }

    pub fn with_bootstrap(mut self, hosts: impl Into<std::sync::Arc<[HostAddr]>>) -> Self {
        self.bootstrap = hosts.into();
        self
    }
}

/// Node events for instrumented owners.
#[derive(Debug, Clone)]
pub enum FtEvent {
    /// An OpenFT session reached the established state.
    SessionUp {
        conn: ConnId,
        info: NodeInfo,
    },
    SessionDown {
        conn: ConnId,
    },
    /// The results for one of our searches that one delivery carried: a
    /// whole answer unless the network cut it. `from` is the routable
    /// address of the SEARCH node that answered (the session peer) —
    /// provenance consumers derive the `query_matched` span id from it.
    SearchResults {
        at: SimTime,
        from: HostAddr,
        results: ResultBatch,
    },
    /// The queried node finished streaming results for `id`.
    SearchEnd {
        at: SimTime,
        id: u32,
    },
    DownloadDone {
        at: SimTime,
        id: u64,
        result: Result<Body, DownloadError>,
    },
}

/// Counters for benches and experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct FtStats {
    pub sessions_up: u64,
    pub searches_sent: u64,
    pub searches_answered: u64,
    pub results_sent: u64,
    pub results_received: u64,
    pub shares_registered: u64,
    pub shares_indexed: u64,
    pub uploads_served: u64,
    pub downloads_ok: u64,
    pub downloads_failed: u64,
    pub bad_packets: u64,
}

/// One share registered by a child. Where it is served from is the
/// child's business, not the share's: a result reads host and ports from
/// the `owner`'s [`PeerState`] when it is written.
#[derive(Debug, Clone)]
struct IndexedShare {
    owner: ConnId,
    md5: Md5Digest,
    size: u32,
    /// Arena record from the world's [`p2pmal_corpus::NameInterner`]:
    /// thousands of children re-register the same catalog names, so each
    /// distinct name's text, lowered copy and match fingerprint live once
    /// per world and every index row is a single `Arc`.
    rec: std::sync::Arc<NameRecord>,
}

/// The child-registered shares of a SEARCH node. Beside the rows, in
/// lockstep, sit the two halves of each row's name fingerprint as columns
/// of their own: a search reads those 8 bytes a row — all 64 bits, which
/// let through about one row in a hundred — and follows `rec` only for the
/// rows that pass.
#[derive(Debug, Default)]
struct ShareIndex {
    rows: Vec<IndexedShare>,
    fp_lo: Vec<u32>,
    fp_hi: Vec<u32>,
}

impl ShareIndex {
    fn push(&mut self, share: IndexedShare) {
        let fp = share.rec.fp();
        self.fp_lo.push(fp as u32);
        self.fp_hi.push((fp >> 32) as u32);
        self.rows.push(share);
        self.debug_assert_lockstep();
    }

    /// Keeps the rows `keep` accepts (asked once per row), and their
    /// column entries with them.
    fn retain(&mut self, keep: impl FnMut(&IndexedShare) -> bool) {
        fn sift<T>(column: &mut Vec<T>, keep: &[bool]) {
            let mut keep = keep.iter();
            column.retain(|_| *keep.next().expect("a verdict per row"));
        }
        let keep: Vec<bool> = self.rows.iter().map(keep).collect();
        sift(&mut self.rows, &keep);
        sift(&mut self.fp_lo, &keep);
        sift(&mut self.fp_hi, &keep);
        self.debug_assert_lockstep();
    }

    fn debug_assert_lockstep(&self) {
        debug_assert_eq!(self.rows.len(), self.fp_lo.len());
        debug_assert_eq!(self.rows.len(), self.fp_hi.len());
    }

    fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.rows.capacity() * size_of::<IndexedShare>()
            + (self.fp_lo.capacity() + self.fp_hi.capacity()) * size_of::<u32>()) as u64
    }
}

struct PeerState {
    reader: PacketReader,
    info: Option<NodeInfo>,
    session: bool,
    /// Remote's observed routable address (what we dial for transfers).
    peer_addr: HostAddr,
    /// They accepted us as a child (we registered shares there).
    parent: bool,
    /// We accepted them as a child.
    child: bool,
    outbound: bool,
    /// When we dialed or accepted the connection.
    opened: SimTime,
}

struct DlState {
    id: u64,
    md5: Md5Digest,
    reader: ResponseReader,
    connected: bool,
}

enum ConnKind {
    /// Inbound, protocol unknown; carries the observed remote address.
    Sniff(Vec<u8>, HostAddr),
    Peer(PeerState),
    Download(DlState),
    Upload(RequestReader),
}

/// An OpenFT node.
pub struct FtNode {
    config: FtConfig,
    world: SharedWorld,
    library: HostLibrary,
    conns: VecMap<ConnId, ConnKind>,
    /// Discovered nodes (SEARCH/INDEX classes are the useful ones).
    known: Vec<NodeEntry>,
    /// Child-registered shares (SEARCH nodes).
    index: ShareIndex,
    next_search: u32,
    /// Whether a maintenance tick is scheduled: one is only while an
    /// outbound session slot is empty (see [`FtNode::arm_tick`]).
    tick_armed: bool,
    next_download: u64,
    events: Vec<FtEvent>,
    stats: FtStats,
}

impl FtNode {
    pub fn new(config: FtConfig, world: SharedWorld, mut library: HostLibrary) -> Self {
        library.set_interner(world.names.clone());
        FtNode {
            config,
            world,
            library,
            conns: VecMap::new(),
            known: Vec::new(),
            index: ShareIndex::default(),
            next_search: 1,
            tick_armed: false,
            next_download: 1,
            events: Vec::new(),
            stats: FtStats::default(),
        }
    }

    pub fn config(&self) -> &FtConfig {
        &self.config
    }

    pub fn stats(&self) -> FtStats {
        self.stats
    }

    pub fn library(&self) -> &HostLibrary {
        &self.library
    }

    /// The shared content world this node lives in.
    pub fn world(&self) -> &SharedWorld {
        &self.world
    }

    /// Number of shares currently indexed for children (SEARCH nodes).
    pub fn indexed_shares(&self) -> usize {
        self.index.rows.len()
    }

    /// Established sessions.
    pub fn session_count(&self) -> usize {
        self.conns
            .values()
            .filter(|k| matches!(k, ConnKind::Peer(p) if p.session))
            .count()
    }

    /// Parents that accepted our registration.
    pub fn parent_count(&self) -> usize {
        self.conns
            .values()
            .filter(|k| matches!(k, ConnKind::Peer(p) if p.parent))
            .count()
    }

    pub fn drain_events(&mut self) -> Vec<FtEvent> {
        std::mem::take(&mut self.events)
    }

    /// Deterministic deep-heap estimate (see `App::memory_estimate`):
    /// container storage plus the child-share index a SEARCH node carries.
    fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut b = size_of::<Self>() as u64;
        b += self.conns.heap_bytes();
        b += (self.known.capacity() * size_of::<NodeEntry>()) as u64;
        b += self.index.heap_bytes();
        // config.bootstrap is Arc-shared across the population: not charged
        // per node.
        b += (self.events.capacity() * size_of::<FtEvent>()) as u64;
        b += self.library.heap_bytes();
        b
    }

    /// Issues a search to every connected SEARCH session; returns the id.
    pub fn search(&mut self, ctx: &mut Ctx<'_>, query: &str) -> u32 {
        let id = self.next_search;
        self.next_search += 1;
        // Trace root. OpenFT search ids are only unique per origin, so the
        // trace id mixes in our routable address — the same pair an
        // answering SEARCH node sees as (session peer, id).
        if ctx.telemetry_on(EventCategory::Query) {
            let origin = ctx.external_addr();
            let trace = span::trace_from_search(origin.ip, origin.port, id);
            ctx.emit_spanned(
                EventBody::QueryIssued {
                    text: query.to_string(),
                    seq: self.stats.searches_sent,
                },
                SpanCtx::root(trace, span::span_root(trace)),
            );
        }
        // In connection-id order (how a `VecMap` iterates): the run-to-run
        // sequencing invariant. Encoded straight into each buffer that
        // travels.
        let request = SearchRef::Request { id, query };
        for (&conn, kind) in self.conns.iter() {
            if matches!(kind, ConnKind::Peer(p) if p.session
                && p.info.as_ref().is_some_and(|i| i.is_search()))
            {
                ctx.send_with(conn, |out| request.encode_packet(out));
            }
        }
        self.stats.searches_sent += 1;
        id
    }

    /// Fetches `md5` from `addr` over HTTP; completion arrives as
    /// [`FtEvent::DownloadDone`].
    pub fn begin_download(&mut self, ctx: &mut Ctx<'_>, addr: HostAddr, md5: Md5Digest) -> u64 {
        let id = self.next_download;
        self.next_download += 1;
        let conn = ctx.connect(addr);
        self.conns.insert(
            conn,
            ConnKind::Download(DlState {
                id,
                md5,
                reader: ResponseReader::new(self.config.max_download_bytes),
                connected: false,
            }),
        );
        ctx.set_timer(self.config.download_timeout, TIMER_DL_BASE | id);
        id
    }

    // -- internals -----------------------------------------------------------

    fn emit(&mut self, ev: FtEvent) {
        if self.config.collect_events {
            self.events.push(ev);
        }
    }

    fn node_info(&self) -> NodeInfo {
        NodeInfo {
            klass: self.config.klass,
            port: self.config.port,
            http_port: self.config.port,
            alias: self.config.alias.as_str().into(),
        }
    }

    fn add_known(&mut self, e: NodeEntry) {
        if e.klass & (CLASS_SEARCH | crate::packet::CLASS_INDEX) == 0 {
            return; // only supernodes are worth remembering
        }
        if !self.known.iter().any(|k| k.ip == e.ip && k.port == e.port) {
            self.known.push(e);
            if self.known.len() > 500 {
                self.known.remove(0);
            }
        }
    }

    /// Drops `addr` from `known`, until a NODELIST names it again; the
    /// configured bootstrap nodes are never forgotten.
    fn forget(&mut self, addr: HostAddr) {
        if !self.config.bootstrap.contains(&addr) {
            self.known.retain(|k| HostAddr::new(k.ip, k.port) != addr);
        }
    }

    /// Outbound session slots in use, dialing or up.
    fn outbound(&self) -> usize {
        self.conns
            .values()
            .filter(|k| matches!(k, ConnKind::Peer(p) if p.outbound))
            .count()
    }

    /// Arms the maintenance tick unless one is armed or every outbound slot
    /// is taken: a full node schedules nothing. Every path that loses a
    /// session ends here — `on_closed` through [`FtNode::maintain`], which
    /// redials first; `on_connect_failed` and `drop_conn` directly, so a
    /// candidate that keeps refusing, or a peer that keeps earning its drop,
    /// is redialed once a tick, not in a loop. Short of half the target the
    /// tick is `config.tick`, past it 30 times that.
    fn arm_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.tick_armed || self.outbound() >= self.config.target_sessions {
            return;
        }
        self.tick_armed = true;
        let up = self.session_count();
        let stable = up >= self.config.target_sessions / 2 && up >= 1;
        let tick = self.config.tick.as_micros() * if stable { 30 } else { 1 };
        ctx.set_timer(SimDuration::from_micros(tick), TIMER_MAINTENANCE);
    }

    /// Dials known SEARCH nodes into the empty outbound slots, and leaves
    /// the tick armed if some stay empty.
    fn maintain(&mut self, ctx: &mut Ctx<'_>) {
        let have = self.outbound();
        if have >= self.config.target_sessions {
            return;
        }
        let mut candidates: Vec<HostAddr> = self
            .known
            .iter()
            .map(|e| HostAddr::new(e.ip, e.port))
            .chain(self.config.bootstrap.iter().copied())
            .collect();
        let me = HostAddr::new(ctx.external_addr().ip, self.config.port);
        // Never dial ourselves or a node we already hold a connection to.
        let existing: std::collections::HashSet<HostAddr> = self
            .conns
            .values()
            .filter_map(|k| match k {
                ConnKind::Peer(p) if p.outbound => Some(p.peer_addr),
                _ => None,
            })
            .collect();
        candidates.retain(|&c| c != me && !existing.contains(&c));
        candidates.sort();
        candidates.dedup();
        let mut dialed = 0;
        while have + dialed < self.config.target_sessions && !candidates.is_empty() {
            let i = (ctx.rng().next_u64() % candidates.len() as u64) as usize;
            let target = candidates.swap_remove(i);
            let conn = ctx.connect(target);
            self.conns.insert(
                conn,
                ConnKind::Peer(PeerState {
                    reader: PacketReader::new(),
                    info: None,
                    session: false,
                    peer_addr: target,
                    parent: false,
                    child: false,
                    outbound: true,
                    opened: ctx.now(),
                }),
            );
            dialed += 1;
        }
        self.arm_tick(ctx);
    }

    fn send_packet(&self, ctx: &mut Ctx<'_>, conn: ConnId, cmd: Command, payload: &[u8]) {
        ctx.send_with(conn, |out| encode_packet(cmd, payload, out));
    }

    /// Introduces us on a new connection: VERSION and NODEINFO, and the
    /// session request when we are the dialer.
    fn send_hello(&self, ctx: &mut Ctx<'_>, conn: ConnId, request_session: bool) {
        let info = self.node_info().encode();
        ctx.send_with(conn, |out| {
            encode_packet(Command::Version, &Version::CURRENT.encode(), out);
            encode_packet(Command::NodeInfo, &info, out);
            if request_session {
                encode_packet(Command::Session, &Session::Request.encode(), out);
            }
        });
    }

    /// Registers our library with a freshly accepted parent.
    fn register_shares(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let files = self.library.files();
        if files.is_empty() {
            return;
        }
        ctx.send_with(conn, |out| {
            for f in files {
                let add = AddShare {
                    md5: self.world.store.declared_md5(f.content),
                    size: f.size.min(u32::MAX as u64) as u32,
                    path: format!("/shared/{}", f.name),
                };
                encode_packet(Command::AddShare, &add.encode(), out);
            }
        });
        self.stats.shares_registered += files.len() as u64;
    }

    /// Decodes and handles the packets `data` completes on a peer
    /// connection. The reader leaves the connection table for the pass, so
    /// handlers get `self` and payloads borrowed from `data` at once; it
    /// goes back unless a handler (or a framing error) ended the session.
    fn pump_peer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        let Some(ConnKind::Peer(p)) = self.conns.get_mut(&conn) else {
            return;
        };
        let mut reader = std::mem::take(&mut p.reader);
        let mut frames = reader.frames(data);
        let still_peer = loop {
            match frames.next_frame() {
                Ok(Some((cmd, payload))) => {
                    self.handle_packet(ctx, conn, cmd, payload);
                    if !matches!(self.conns.get(&conn), Some(ConnKind::Peer(_))) {
                        break false;
                    }
                }
                Ok(None) => break true,
                Err(_) => {
                    self.reject_packet(ctx, conn);
                    break false;
                }
            }
        };
        drop(frames);
        if still_peer {
            if let Some(ConnKind::Peer(p)) = self.conns.get_mut(&conn) {
                p.reader = reader;
            }
        }
    }

    /// A packet that does not frame or parse: counted, and its session
    /// dropped. Bytes after it on the stream are misframed, so nothing
    /// that follows on this connection (a NODELIST, say) may be believed.
    fn reject_packet(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.stats.bad_packets += 1;
        self.drop_conn(ctx, conn);
    }

    fn handle_packet(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, cmd: Command, payload: &[u8]) {
        match cmd {
            Command::Version => {
                if Version::parse(payload).is_err() {
                    self.reject_packet(ctx, conn);
                }
            }
            Command::NodeInfo => {
                let Ok(info) = NodeInfo::parse(payload) else {
                    self.reject_packet(ctx, conn);
                    return;
                };
                if let Some(ConnKind::Peer(p)) = self.conns.get_mut(&conn) {
                    let entry = NodeEntry {
                        ip: p.peer_addr.ip,
                        port: info.port,
                        klass: info.klass,
                    };
                    // An outbound slot is for a SEARCH or INDEX node; one
                    // that reaches a USER (corrupted bytes can list one as a
                    // SEARCH node) would hold a session nobody searches.
                    let user = p.outbound && !info.is_search() && !info.is_index();
                    let dialed = p.peer_addr;
                    // Dedup the alias through the world interner: every
                    // session with the same node (and the stock "user" /
                    // "search" aliases network-wide) would otherwise hold
                    // its own copy in routing state.
                    let mut info = info;
                    info.alias = self.world.names.intern(&info.alias);
                    p.info = Some(info);
                    self.add_known(entry);
                    if user {
                        self.forget(dialed);
                        self.drop_conn(ctx, conn);
                    }
                }
            }
            Command::NodeList => {
                let Ok(list) = NodeList::parse(payload) else {
                    self.reject_packet(ctx, conn);
                    return;
                };
                match list {
                    NodeList::Request => {
                        let entries: Vec<NodeEntry> =
                            self.known.iter().rev().take(16).copied().collect();
                        self.send_packet(
                            ctx,
                            conn,
                            Command::NodeList,
                            &NodeList::Response(entries).encode(),
                        );
                    }
                    NodeList::Response(entries) => {
                        for e in entries {
                            self.add_known(e);
                        }
                    }
                }
            }
            Command::NodeCap | Command::Stats | Command::ModShare | Command::Browse => {
                // Accepted and ignored: present for wire compatibility.
            }
            Command::Ping => {
                if payload.is_empty() {
                    self.send_packet(ctx, conn, Command::Ping, &[0, 1]);
                }
            }
            Command::Session => {
                let Ok(sess) = Session::parse(payload) else {
                    self.reject_packet(ctx, conn);
                    return;
                };
                match sess {
                    Session::Request => {
                        self.send_packet(
                            ctx,
                            conn,
                            Command::Session,
                            &Session::Response { accepted: true }.encode(),
                        );
                        self.establish_session(ctx, conn);
                    }
                    Session::Response { accepted } => {
                        if accepted {
                            self.establish_session(ctx, conn);
                        } else {
                            self.drop_conn(ctx, conn);
                        }
                    }
                }
            }
            Command::Child => {
                let Ok(child) = Child::parse(payload) else {
                    self.reject_packet(ctx, conn);
                    return;
                };
                match child {
                    Child::Request => {
                        let accept = self.config.klass & CLASS_SEARCH != 0
                            && self
                                .conns
                                .values()
                                .filter(|k| matches!(k, ConnKind::Peer(p) if p.child))
                                .count()
                                < self.config.max_children;
                        if accept {
                            if let Some(ConnKind::Peer(p)) = self.conns.get_mut(&conn) {
                                p.child = true;
                            }
                        }
                        self.send_packet(
                            ctx,
                            conn,
                            Command::Child,
                            &Child::Response { accepted: accept }.encode(),
                        );
                    }
                    Child::Response { accepted } => {
                        if accepted {
                            if let Some(ConnKind::Peer(p)) = self.conns.get_mut(&conn) {
                                p.parent = true;
                            }
                            self.register_shares(ctx, conn);
                        }
                    }
                }
            }
            Command::AddShare => {
                let Ok(add) = AddShare::parse(payload) else {
                    self.reject_packet(ctx, conn);
                    return;
                };
                let share = {
                    let Some(ConnKind::Peer(p)) = self.conns.get(&conn) else {
                        return;
                    };
                    if !p.child {
                        return; // only accepted children may register
                    }
                    let rec = self
                        .world
                        .names
                        .intern_record(add.path.rsplit('/').next().unwrap_or(&add.path));
                    IndexedShare {
                        owner: conn,
                        md5: add.md5,
                        size: add.size,
                        rec,
                    }
                };
                self.index.push(share);
                self.stats.shares_indexed += 1;
            }
            Command::RemShare => {
                let Ok(rem) = crate::packet::RemShare::parse(payload) else {
                    self.reject_packet(ctx, conn);
                    return;
                };
                self.index
                    .retain(|s| !(s.owner == conn && s.md5 == rem.md5));
            }
            Command::Search => {
                let Ok(search) = Search::parse_ref(payload) else {
                    self.reject_packet(ctx, conn);
                    return;
                };
                match search {
                    SearchRef::Request { id, query } => self.answer_search(ctx, conn, id, query),
                    SearchRef::Result(result) => {
                        self.stats.results_received += 1;
                        // Two results in three land on ambient users whose
                        // events nobody reads: checked and counted, never
                        // copied out of the payload.
                        if self.config.collect_events {
                            self.collect_result(ctx.now(), conn, &result);
                        }
                    }
                    SearchRef::End { id } => {
                        let at = ctx.now();
                        self.emit(FtEvent::SearchEnd { at, id });
                    }
                }
            }
        }
    }

    /// The observed routable address of the session peer on `conn`.
    fn peer_addr(&self, conn: ConnId) -> HostAddr {
        match self.conns.get(&conn) {
            Some(ConnKind::Peer(p)) => p.peer_addr,
            _ => HostAddr::new(std::net::Ipv4Addr::UNSPECIFIED, 0),
        }
    }

    /// Adds `result` to the event its answer is arriving as: the one this
    /// delivery opened for the same search, or a new one. The packets of
    /// one delivery are handled back to back, so that event is the last.
    fn collect_result(&mut self, now: SimTime, conn: ConnId, result: &SearchResultRef<'_>) {
        let peer = self.peer_addr(conn);
        match self.events.last_mut() {
            Some(FtEvent::SearchResults { at, from, results })
                if *at == now && *from == peer && results.id() == result.id =>
            {
                results.push(result)
            }
            _ => {
                let mut results = ResultBatch::new(result.id);
                results.push(result);
                self.events.push(FtEvent::SearchResults {
                    at: now,
                    from: peer,
                    results,
                });
            }
        }
    }

    fn establish_session(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let info = {
            let Some(ConnKind::Peer(p)) = self.conns.get_mut(&conn) else {
                return;
            };
            if p.session {
                return;
            }
            p.session = true;
            p.info.clone()
        };
        self.stats.sessions_up += 1;
        if let Some(info) = info.clone() {
            self.emit(FtEvent::SessionUp { conn, info });
        }
        // Discover more of the network.
        self.send_packet(ctx, conn, Command::NodeList, &NodeList::Request.encode());
        // Become a child of SEARCH-class peers until we have enough parents.
        let peer_is_search = info.as_ref().is_some_and(|i| i.is_search());
        if peer_is_search
            && !self.library.is_empty()
            && self.parent_count() < self.config.target_parents
        {
            self.send_packet(ctx, conn, Command::Child, &Child::Request.encode());
        }
    }

    /// Answers a search from the child-share index plus our own library.
    fn answer_search(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, id: u32, query: &str) {
        self.stats.searches_answered += 1;
        // Tokenized/fingerprinted once per distinct text, world-wide.
        let compiled = self.world.compile_query(query);
        let cap = self.config.max_results;
        // Matching index rows, in index order; then our own shares.
        let mut rows: Vec<u32> = Vec::new();
        let mut own = Vec::new();
        if !compiled.is_empty() {
            let index = &self.index;
            ctx.time(Subsystem::QueryMatch, || {
                compiled.match_rows(
                    &index.fp_lo,
                    &index.fp_hi,
                    cap,
                    |row| &*index.rows[row].rec,
                    |row| rows.push(row as u32),
                )
            });
            // Our own shares answer too (SEARCH nodes are also users).
            own = ctx.time(Subsystem::QueryMatch, || {
                self.library.respond_compiled(&compiled, cap)
            });
            own.truncate(cap - rows.len());
        }
        let results = (rows.len() + own.len()) as u64;
        self.stats.results_sent += results;
        if results > 0 && ctx.telemetry_on(EventCategory::Query) {
            // The session peer *is* the search origin (OpenFT does not
            // forward searches), so (peer addr, id) rebuilds the trace id
            // the origin rooted in `search`.
            let origin = self.peer_addr(conn);
            let me = ctx.external_addr();
            let trace = span::trace_from_search(origin.ip, origin.port, id);
            ctx.emit_spanned(
                EventBody::QueryMatched {
                    text: query.to_string(),
                    results,
                    hops: 1,
                },
                SpanCtx::child(
                    trace,
                    span::span_match_addr(trace, me.ip, me.port),
                    span::span_root(trace),
                ),
            );
        }
        // One packet per result and the END behind them, encoded from the
        // row (or the shared file) straight into the one buffer that
        // travels: an answer is one write.
        let me = ctx.external_addr().ip;
        ctx.send_with(conn, |out| {
            for &row in &rows {
                let s = &self.index.rows[row as usize];
                let (host, http_port) = self.child_addr(s.owner);
                let result = SearchResultRef {
                    id,
                    host: host.ip,
                    port: host.port,
                    http_port,
                    avail: 1,
                    md5: s.md5,
                    size: s.size,
                    filename: s.rec.name(),
                };
                result.encode_packet(out);
            }
            for f in &own {
                let result = SearchResultRef {
                    id,
                    host: me,
                    port: self.config.port,
                    http_port: self.config.port,
                    avail: 1,
                    md5: self.world.store.declared_md5(f.content),
                    size: f.size.min(u32::MAX as u64) as u32,
                    filename: &f.name,
                };
                result.encode_packet(out);
            }
            SearchRef::End { id }.encode_packet(out);
        });
    }

    /// Where the child on `owner` serves its shares from: its observed
    /// address with the OpenFT and HTTP ports it announced (the connection's
    /// own port twice before it announced any).
    fn child_addr(&self, owner: ConnId) -> (HostAddr, u16) {
        let Some(ConnKind::Peer(p)) = self.conns.get(&owner) else {
            // Rows leave the index with their owner's connection.
            return (HostAddr::new(std::net::Ipv4Addr::UNSPECIFIED, 0), 0);
        };
        let (port, http_port) = match &p.info {
            Some(i) => (i.port, i.http_port),
            None => (p.peer_addr.port, p.peer_addr.port),
        };
        (HostAddr::new(p.peer_addr.ip, port), http_port)
    }

    /// Serves an upload request: resolve the MD5 against our library.
    fn serve_upload(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, md5: Md5Digest) {
        let content: Option<ContentRef> = self
            .library
            .files()
            .iter()
            .find(|f| self.world.store.declared_md5(f.content) == md5)
            .map(|f| f.content);
        match content {
            Some(r) => {
                self.stats.uploads_served += 1;
                let SharedWorld {
                    store,
                    catalog,
                    roster,
                    ..
                } = &self.world;
                let size = store.size(r, catalog, roster) as usize;
                let head = encode_response_ok(size);
                let (store, catalog, roster) = (store.clone(), catalog.clone(), roster.clone());
                // Head and body are written where they land, into the
                // buffer the downloader keeps.
                ctx.send_deferred(conn, head.len() + size, move |out| {
                    out.extend_from_slice(&head);
                    store.payload_into(r, &catalog, &roster, out);
                });
            }
            None => ctx.send(conn, &encode_response_err(404, "Not Found")),
        }
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
        self.finish_download(ctx, Some(conn), id, outcome);
    }

    fn finish_download(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: Option<ConnId>,
        id: u64,
        result: Result<Body, DownloadError>,
    ) {
        if let Some(c) = conn {
            self.conns.remove(&c);
            ctx.close(c);
        }
        match &result {
            Ok(_) => self.stats.downloads_ok += 1,
            Err(_) => self.stats.downloads_failed += 1,
        }
        let at = ctx.now();
        self.emit(FtEvent::DownloadDone { at, id, result });
    }

    /// Drops, through [`FtNode::drop_conn`], every outbound connection that
    /// has not become a session with a known peer (its NODEINFO read)
    /// within [`HANDSHAKE_TIMEOUT`] of its dial: that frees the slot and
    /// arms the tick. A session whose NODEINFO was lost is never searched
    /// nor asked for a parent, so it counts as unfinished. Run on the
    /// callbacks a node already gets other than data deliveries, so it
    /// costs no timer of its own and nothing on the hot path.
    fn expire_handshakes(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let stale: Vec<ConnId> = self
            .conns
            .iter()
            .filter_map(|(&conn, k)| match k {
                ConnKind::Peer(p)
                    if p.outbound
                        && !(p.session && p.info.is_some())
                        && now.saturating_sub(p.opened) >= HANDSHAKE_TIMEOUT =>
                {
                    Some(conn)
                }
                _ => None,
            })
            .collect();
        for conn in stale {
            self.drop_conn(ctx, conn);
        }
    }

    fn drop_conn(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        match self.conns.remove(&conn) {
            Some(ConnKind::Download(d)) => {
                self.finish_download(ctx, Some(conn), d.id, Err(DownloadError::Reset));
            }
            Some(ConnKind::Peer(p)) => {
                if p.child {
                    self.index.retain(|s| s.owner != conn);
                }
                self.emit(FtEvent::SessionDown { conn });
                ctx.close(conn);
                self.arm_tick(ctx);
            }
            _ => {
                ctx.close(conn);
            }
        }
    }

    fn sniff(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        let (buf, peer) = {
            let Some(ConnKind::Sniff(buf, peer)) = self.conns.get_mut(&conn) else {
                return;
            };
            buf.extend_from_slice(data);
            if buf.is_empty() {
                return;
            }
            (std::mem::take(buf), *peer)
        };
        if buf[0] == b'G' || buf[0] == b'H' {
            let mut reader = RequestReader::new();
            reader.push(&buf);
            self.conns.insert(conn, ConnKind::Upload(reader));
            self.pump_upload(ctx, conn);
        } else {
            let p = PeerState {
                reader: PacketReader::new(),
                info: None,
                session: false,
                peer_addr: peer,
                parent: false,
                child: false,
                outbound: false,
                opened: ctx.now(),
            };
            self.conns.insert(conn, ConnKind::Peer(p));
            // Introduce ourselves (the dialer already did on connect).
            self.send_hello(ctx, conn, false);
            self.pump_peer(ctx, conn, &buf);
        }
    }

    fn pump_upload(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let md5 = {
            let Some(ConnKind::Upload(reader)) = self.conns.get_mut(&conn) else {
                return;
            };
            match reader.request() {
                Ok(Some(m)) => m,
                Ok(None) => return,
                Err(_) => {
                    self.drop_conn(ctx, conn);
                    return;
                }
            }
        };
        self.serve_upload(ctx, conn, md5);
    }
}

impl App for FtNode {
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn memory_estimate(&self) -> u64 {
        self.heap_bytes()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let boot = self.config.bootstrap.clone();
        for &b in boot.iter() {
            self.add_known(NodeEntry {
                ip: b.ip,
                port: b.port,
                klass: CLASS_SEARCH,
            });
        }
        // A restart (churn) finds whatever the last session armed gone, and
        // every connection it held: the simulator closed them all, and a
        // dial made while the node went down never left the machine.
        self.tick_armed = false;
        self.conns = VecMap::new();
        self.maintain(ctx);
        if let Some(iv) = self.config.auto_query {
            let jitter = SimDuration::from_micros(ctx.rng().next_u64() % iv.as_micros().max(1));
            ctx.set_timer(jitter, TIMER_AUTO_QUERY);
        }
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, dir: Direction, peer: HostAddr) {
        self.expire_handshakes(ctx);
        match dir {
            Direction::Inbound => {
                self.conns.insert(conn, ConnKind::Sniff(Vec::new(), peer));
            }
            Direction::Outbound => match self.conns.get(&conn) {
                Some(ConnKind::Peer(_)) => self.send_hello(ctx, conn, true),
                Some(ConnKind::Download(d)) => {
                    let md5 = d.md5;
                    if let Some(ConnKind::Download(d)) = self.conns.get_mut(&conn) {
                        d.connected = true;
                    }
                    ctx.send(conn, &encode_request(&md5));
                }
                _ => {}
            },
        }
    }

    fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.expire_handshakes(ctx);
        match self.conns.remove(&conn) {
            Some(ConnKind::Download(d)) => {
                self.finish_download(ctx, None, d.id, Err(DownloadError::ConnectFailed));
            }
            Some(ConnKind::Peer(p)) => {
                // An address nobody answers at is forgotten (a misframed
                // NODELIST can name hundreds).
                self.forget(p.peer_addr);
                self.arm_tick(ctx);
            }
            _ => {}
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        enum R {
            Sniff,
            Peer,
            Download,
            Upload,
        }
        let r = match self.conns.get(&conn) {
            Some(ConnKind::Sniff(..)) => R::Sniff,
            Some(ConnKind::Peer(_)) => R::Peer,
            Some(ConnKind::Download(_)) => R::Download,
            Some(ConnKind::Upload(_)) => R::Upload,
            // Closed from our side; what was in flight still arrives.
            None => return,
        };
        match r {
            R::Sniff => self.sniff(ctx, conn, data),
            R::Peer => self.pump_peer(ctx, conn, data),
            R::Download => self.pump_download(ctx, conn, |r| r.push(data)),
            R::Upload => {
                if let Some(ConnKind::Upload(reader)) = self.conns.get_mut(&conn) {
                    reader.push(data);
                }
                self.pump_upload(ctx, conn);
            }
        }
    }

    /// An upload body written for this delivery: a download connection's
    /// reader keeps the lent buffer instead of copying it, and the owner
    /// of [`FtEvent::DownloadDone`] hands it back. Anywhere else the bytes
    /// are read and the buffer goes straight back.
    fn on_data_owned(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: Vec<u8>) {
        if let Some(ConnKind::Download(_)) = self.conns.get(&conn) {
            self.pump_download(ctx, conn, |r| r.push_owned(data));
        } else {
            self.on_data(ctx, conn, &data);
            ctx.give_back(data);
        }
    }

    fn on_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.expire_handshakes(ctx);
        match self.conns.remove(&conn) {
            Some(ConnKind::Peer(p)) => {
                if p.child {
                    self.index.retain(|s| s.owner != conn);
                }
                self.emit(FtEvent::SessionDown { conn });
                self.maintain(ctx);
            }
            Some(ConnKind::Download(d)) => {
                self.finish_download(ctx, None, d.id, Err(DownloadError::Reset));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.expire_handshakes(ctx);
        if token == TIMER_MAINTENANCE {
            self.tick_armed = false;
            self.maintain(ctx);
        } else if token == TIMER_AUTO_QUERY {
            if let Some(iv) = self.config.auto_query {
                let q = self.world.catalog.sample_query(ctx.rng());
                self.search(ctx, &q);
                ctx.set_timer(iv, TIMER_AUTO_QUERY);
            }
        } else if token & TIMER_DL_BASE != 0 {
            let id = token & (TIMER_DL_BASE - 1);
            let conn = self.conns.iter().find_map(|(&c, k)| match k {
                ConnKind::Download(d) if d.id == id => Some(c),
                _ => None,
            });
            if let Some(c) = conn {
                self.finish_download(ctx, Some(c), id, Err(DownloadError::Timeout));
            }
        }
    }
}

#[cfg(test)]
mod tests;
