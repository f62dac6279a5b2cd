//! The one instrumented client: the study's measurement procedure, written
//! once and run over either network.
//!
//! Kalafut et al. ran the same procedure on LimeWire and on giFT: issue the
//! query workload, log every response, fetch each archive/executable
//! response once per (name, size) and per (host, size), scan what arrives.
//! [`Crawler`] is that procedure. What differs between the networks — how a
//! search is keyed, what one answer looks like on the wire, how a file is
//! asked for — sits behind [`Overlay`], implemented for
//! [`p2pmal_gnutella::Servent`] and [`p2pmal_openft::node::FtNode`] in
//! [`crate::servent`] and [`crate::ftnode`].
//!
//! The driver is monomorphised per overlay and calls [`Ctx`] directly:
//! timer, RNG-draw and emission order are what the trajectory digests pin.

use crate::log::{
    CrawlLog, HostKey, HostSizeKey, HostTable, NameSizeKey, ResponseRecord, ScanOutcome, Text,
    TextTable,
};
use crate::retry::{FailCause, RetryPolicy};
use crate::scan::ScanPipeline;
use crate::trace::DlTrace;
use crate::workload::{Workload, WorkloadConfig};
use p2pmal_corpus::Catalog;
use p2pmal_gnutella::servent::SharedWorld;
use p2pmal_gnutella::{Body, DownloadError};
use p2pmal_hashes::Sha1Digest;
use p2pmal_netsim::{
    App, ConnId, Ctx, Direction, EventBody, EventCategory, HostAddr, SimDuration, SimHist, SpanCtx,
    Subsystem,
};
use p2pmal_scanner::{Scanner, Verdict};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

/// Crawler-owned timer tokens live far above the overlay node's namespace.
const CRAWLER_BASE: u64 = 1 << 48;
const TIMER_QUERY: u64 = CRAWLER_BASE | 1;
/// Retry timers: `TIMER_RETRY_BASE | seq`. Bit 40 separates them from the
/// crawler's other tokens.
const TIMER_RETRY_BASE: u64 = CRAWLER_BASE | (1 << 40);

/// Queries whose text is remembered for attributing late responses.
const REMEMBERED_QUERIES: usize = 8192;

/// Crawler tunables.
#[derive(Clone)]
pub struct CrawlerConfig {
    pub workload: WorkloadConfig,
    /// Parallel download slots (the study ran a bounded fetch pool).
    pub max_concurrent_downloads: usize,
    /// Warm-up before the first query, letting the overlay converge.
    pub start_delay: SimDuration,
    /// Per-object retry budget and pacing. The default
    /// [`RetryPolicy::legacy()`] is the historical behavior: one immediate
    /// re-attempt (Direct→PUSH on Gnutella), no backoff timers.
    pub retry: RetryPolicy,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            workload: WorkloadConfig::default(),
            max_concurrent_downloads: 16,
            start_delay: SimDuration::from_secs(300),
            retry: RetryPolicy::legacy(),
        }
    }
}

/// One response inside an answer, borrowed from the overlay's event.
pub struct Response<'a> {
    pub name: &'a str,
    pub size: u32,
    /// The address the responder advertises (RFC 1918 for NATed hosts).
    pub source: HostAddr,
    pub host: HostKey,
    pub needs_push: bool,
}

/// What one overlay event means to the measurement.
pub enum Signal<O: Overlay> {
    /// Responses to the query the key names.
    Answer(O::QueryKey, O::Answer),
    /// A download finished. A body's buffer is handed back to the lane
    /// (`Ctx::give_back`) once it is scanned.
    DownloadDone {
        id: u64,
        result: Result<Body, DownloadError>,
    },
    /// Overlay housekeeping the measurement ignores.
    Other,
}

/// What the measurement procedure needs from a protocol node: only what
/// really differs between the two networks. Both fetch files with the one
/// HTTP download client, so a failed download arrives as its
/// [`DownloadError`], whose cause [`FailCause::of`] reads.
pub trait Overlay: App + Sized + 'static {
    type Config;
    /// Identifies a search and the answers to it (GUID / search id).
    type QueryKey: Copy + Eq + Hash + Send;
    type Event;
    /// One event's worth of responses to one query.
    type Answer;
    /// Everything `begin_download` needs to fetch one response.
    type Request: Send;

    /// Builds the node as the measurement host: events collected, no
    /// ambient queries of its own, and a 1800 s download timeout (benign
    /// transfers are multi-megabyte on 2006-grade upload links).
    fn instrumented(config: Self::Config, world: SharedWorld) -> Self;
    /// Issues a search; `query_issued` is emitted (span-rooted) inside, so
    /// ambient and workload queries share one emission point.
    fn search(&mut self, ctx: &mut Ctx<'_>, text: &str) -> Self::QueryKey;
    fn begin_download(&mut self, ctx: &mut Ctx<'_>, request: &Self::Request) -> u64;
    fn drain_events(&mut self) -> Vec<Self::Event>;
    fn signal(event: Self::Event) -> Signal<Self>;

    fn response_count(answer: &Self::Answer) -> usize;
    fn response(answer: &Self::Answer, i: usize) -> Response<'_>;
    fn request(answer: &Self::Answer, i: usize) -> Self::Request;
    /// `(trace id, query_matched span)` of an answer to query `key`, derived
    /// without coordination with the remote node (pure hashing).
    fn provenance(ctx: &Ctx<'_>, key: Self::QueryKey, answer: &Self::Answer) -> (u64, u64);

    /// The address a request dials (or would, before a PUSH).
    fn request_addr(request: &Self::Request) -> HostAddr;
    /// Steps the request down to the overlay's fallback transport before a
    /// retry; true when it changed.
    fn fall_back(request: &mut Self::Request) -> bool;
}

/// A downloadable object somewhere in its attempt lifecycle.
struct InFlight<R> {
    record: ResponseRecord,
    request: R,
    /// 0 on the first try, incremented per retry.
    attempt: u8,
    /// Provenance of the chain this download descends from; captured at
    /// ingest time only while telemetry is live (None otherwise).
    trace: Option<DlTrace>,
}

/// Emits one event of a download chain, spanned when the chain's provenance
/// was captured.
fn emit_chain(
    ctx: &mut Ctx<'_>,
    trace: &Option<DlTrace>,
    body: EventBody,
    span: impl FnOnce(&DlTrace) -> SpanCtx,
) {
    match trace {
        Some(tr) => ctx.emit_spanned(body, span(tr)),
        None => ctx.emit(body),
    }
}

fn scanned(sha1: Sha1Digest, len: u64, verdict: &Verdict) -> ScanOutcome {
    ScanOutcome::Scanned {
        sha1,
        len,
        detections: verdict.detections.iter().map(|d| d.name.clone()).collect(),
    }
}

/// The instrumented client over overlay `O`.
pub struct Crawler<O: Overlay> {
    overlay: O,
    config: CrawlerConfig,
    catalog: Arc<Catalog>,
    workload: Workload,
    pipeline: ScanPipeline,
    log: CrawlLog,
    /// Every query and file name in the log, one allocation each.
    texts: TextTable,
    /// Every responder in the log, one allocation each.
    hosts: HostTable,
    /// Query key -> query text, for attributing responses.
    queries: HashMap<O::QueryKey, Text>,
    query_order: VecDeque<O::QueryKey>,
    /// Downloadable responses waiting for a slot (retries re-queue at the
    /// front with their attempt count preserved).
    pending: VecDeque<InFlight<O::Request>>,
    in_flight: HashMap<u64, InFlight<O::Request>>,
    /// Objects parked on a backoff timer, by timer token.
    retry_wait: HashMap<u64, InFlight<O::Request>>,
    retry_seq: u64,
    /// Keys currently being fetched (suppress duplicate fetches).
    busy_name_size: HashSet<NameSizeKey>,
    busy_host_size: HashSet<HostSizeKey>,
    /// The name+size key of the response being ingested, refilled in place.
    name_key: NameSizeKey,
    /// The most recent workload query and its response count so far; the
    /// fan-out histogram records it when the next query closes it out.
    last_query: Option<(O::QueryKey, u64)>,
}

impl<O: Overlay> Crawler<O> {
    /// `node_config` goes through [`Overlay::instrumented`], which forces
    /// the settings the measurement depends on.
    pub fn new(
        node_config: O::Config,
        world: SharedWorld,
        scanner: Arc<Scanner>,
        config: CrawlerConfig,
    ) -> Self {
        Crawler {
            catalog: Arc::clone(&world.catalog),
            overlay: O::instrumented(node_config, world),
            workload: Workload::new(config.workload.clone()),
            pipeline: ScanPipeline::new(scanner),
            config,
            log: CrawlLog::new(),
            texts: TextTable::default(),
            hosts: HostTable::default(),
            queries: HashMap::new(),
            query_order: VecDeque::new(),
            pending: VecDeque::new(),
            in_flight: HashMap::new(),
            retry_wait: HashMap::new(),
            retry_seq: 0,
            busy_name_size: HashSet::new(),
            busy_host_size: HashSet::new(),
            name_key: NameSizeKey(String::new(), 0),
            last_query: None,
        }
    }

    /// Read access to the accumulated log.
    pub fn log(&self) -> &CrawlLog {
        &self.log
    }

    /// Takes the log out of the crawler (end of the run).
    pub fn take_log(&mut self) -> CrawlLog {
        std::mem::take(&mut self.log)
    }

    fn remember_query(&mut self, key: O::QueryKey, text: &str) {
        self.queries.insert(key, self.texts.intern(text));
        self.query_order.push_back(key);
        if self.query_order.len() > REMEMBERED_QUERIES {
            if let Some(old) = self.query_order.pop_front() {
                self.queries.remove(&old);
            }
        }
    }

    /// Turns one answer into response records and download work.
    fn ingest(&mut self, ctx: &mut Ctx<'_>, key: O::QueryKey, answer: &O::Answer) {
        let Some(query) = self.queries.get(&key).cloned() else {
            return; // late answer for an evicted query
        };
        let at = ctx.now();
        let count = O::response_count(answer);
        if let Some((last, responses)) = &mut self.last_query {
            if *last == key {
                *responses += count as u64;
            }
        }
        let traced =
            ctx.telemetry_on(EventCategory::Download) || ctx.telemetry_on(EventCategory::Scan);
        for i in 0..count {
            let res = O::response(answer, i);
            let record = ResponseRecord {
                at,
                day: u32::try_from(at.day()).expect("a u64 of µs spans < 2^32 days"),
                query: query.clone(),
                filename: self.texts.intern(res.name),
                size: res.size,
                source_ip: res.source.ip,
                source_port: res.source.port,
                needs_push: res.needs_push,
                host: self.hosts.intern(res.host),
                downloadable: crate::log::is_downloadable_name(res.name),
            };
            // Fetch a downloadable response unless its content has a verdict
            // or is being fetched, under either dedup key.
            let fetch = record.downloadable && {
                self.name_key.assign(&record);
                let hk = HostSizeKey(HostKey::clone(&record.host), record.size);
                let nk = &self.name_key;
                let fresh = self.log.outcome_by(nk, &hk).is_none()
                    && !self.busy_name_size.contains(nk)
                    && !self.busy_host_size.contains(&hk);
                if fresh {
                    self.busy_name_size.insert(nk.clone());
                    self.busy_host_size.insert(hk);
                }
                fresh
            };
            if fetch {
                let request = O::request(answer, i);
                let trace = traced.then(|| {
                    let (trace, matched) = O::provenance(ctx, key, answer);
                    DlTrace::new(
                        trace,
                        matched,
                        &record.filename,
                        u64::from(record.size),
                        &O::request_addr(&request).to_string(),
                    )
                });
                self.pending.push_back(InFlight {
                    record: record.clone(),
                    request,
                    attempt: 0,
                    trace,
                });
            }
            self.log.responses.push(record);
        }
        self.start_downloads(ctx);
    }

    /// Begins one attempt: every attempt of every object, first try or
    /// retry, queued or in-line, starts here.
    fn start(&mut self, ctx: &mut Ctx<'_>, fl: InFlight<O::Request>) {
        if fl.attempt == 0 {
            self.log.downloads_attempted += 1;
        }
        if ctx.telemetry_on(EventCategory::Download) {
            let body = EventBody::DownloadStart {
                name: fl.record.filename.to_string(),
                size: u64::from(fl.record.size),
                host: O::request_addr(&fl.request).to_string(),
                attempt: fl.attempt,
            };
            emit_chain(ctx, &fl.trace, body, |tr| tr.start(fl.attempt));
        }
        let id = self.overlay.begin_download(ctx, &fl.request);
        self.in_flight.insert(id, fl);
    }

    fn start_downloads(&mut self, ctx: &mut Ctx<'_>) {
        while self.in_flight.len() < self.config.max_concurrent_downloads {
            let Some(fl) = self.pending.pop_front() else {
                break;
            };
            self.start(ctx, fl);
        }
    }

    /// An object left the attempt lifecycle, fetched (`ok`) or given up on:
    /// the accounting that does not depend on a verdict.
    fn complete(&mut self, ctx: &mut Ctx<'_>, fl: &InFlight<O::Request>, ok: bool) {
        if ok {
            if fl.attempt > 0 {
                self.log.retry_successes += 1;
            }
        } else {
            self.log.downloads_failed += 1;
        }
        let latency_us = (ctx.now() - fl.record.at).as_micros();
        ctx.registry()
            .record(SimHist::DownloadLatencyUs, latency_us);
        ctx.registry()
            .record(SimHist::DownloadAttempts, fl.attempt as u64 + 1);
        if ctx.telemetry_on(EventCategory::Download) {
            let body = EventBody::DownloadComplete {
                name: fl.record.filename.to_string(),
                ok,
                latency_us,
                attempts: fl.attempt + 1,
            };
            emit_chain(ctx, &fl.trace, body, |tr| tr.done(fl.attempt));
        }
    }

    /// Records the object's outcome and releases its dedup keys.
    fn finish(&mut self, record: &ResponseRecord, outcome: ScanOutcome) {
        let (nk, hk) = CrawlLog::keys_of(record);
        self.busy_name_size.remove(&nk);
        self.busy_host_size.remove(&hk);
        self.log.record_outcome(record, outcome);
    }

    fn on_download_done(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: u64,
        result: Result<Body, DownloadError>,
    ) {
        let Some(fl) = self.in_flight.remove(&id) else {
            return;
        };
        let body = match result {
            Ok(body) => body,
            Err(e) => {
                self.fail_or_retry(ctx, fl, FailCause::of(&e), ScanOutcome::Unreachable);
                return;
            }
        };
        let (sha1, verdict) = ctx.time(Subsystem::Scan, || {
            self.pipeline.scan(&fl.record.filename, &body)
        });
        let len = body.len() as u64;
        // Scanned: the lane writes the next body into the same buffer.
        ctx.give_back(body.into_buffer());
        self.log.scan = self.pipeline.stats();
        if self.config.retry.uses_backoff() && verdict.unscannable() {
            // The body arrived but its archive content is garbage
            // (truncated/bit-flipped in transit). Retrying fetches a fresh
            // copy; a clean verdict on undecodable bytes must never be
            // recorded as benign.
            let reason = verdict.decode_errors.first().cloned().unwrap_or_default();
            self.fail_or_retry(
                ctx,
                fl,
                FailCause::Corrupt,
                ScanOutcome::Unscannable { reason },
            );
            return;
        }
        self.complete(ctx, &fl, true);
        if ctx.telemetry_on(EventCategory::Scan) {
            let ev = EventBody::ScanVerdict {
                name: fl.record.filename.to_string(),
                sha1: sha1.to_hex(),
                len,
                detections: verdict.detections.len() as u64,
            };
            emit_chain(ctx, &fl.trace, ev, DlTrace::scan);
            for (i, d) in verdict.detections.iter().enumerate() {
                let ev = EventBody::Infection {
                    name: fl.record.filename.to_string(),
                    family: d.name.clone(),
                    sha1: sha1.to_hex(),
                };
                emit_chain(ctx, &fl.trace, ev, |tr| tr.infection(i as u64));
            }
        }
        self.finish(&fl.record, scanned(sha1, len, &verdict));
        self.start_downloads(ctx);
    }

    /// One attempt failed: retry within budget (immediately in legacy mode,
    /// via a backoff timer otherwise), or record the terminal outcome with
    /// its cause.
    fn fail_or_retry(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut fl: InFlight<O::Request>,
        cause: FailCause,
        terminal: ScanOutcome,
    ) {
        self.log.failures.record(cause);
        if fl.attempt < self.config.retry.max_retries {
            fl.attempt += 1;
            self.log.retries_scheduled += 1;
            if ctx.telemetry_on(EventCategory::Download) {
                let ev = EventBody::DownloadRetry {
                    name: fl.record.filename.to_string(),
                    attempt: fl.attempt,
                    cause: cause.label().to_string(),
                };
                emit_chain(ctx, &fl.trace, ev, |tr| tr.retry(fl.attempt));
            }
            if O::fall_back(&mut fl.request) {
                self.log.push_fallbacks += 1;
            }
            if self.config.retry.uses_backoff() {
                let token = TIMER_RETRY_BASE | self.retry_seq;
                self.retry_seq += 1;
                let delay = self.config.retry.delay_for(fl.attempt, ctx.rng());
                self.retry_wait.insert(token, fl);
                ctx.set_timer(delay, token);
                self.start_downloads(ctx);
            } else {
                // Legacy: immediate in-line re-attempt in the slot the
                // failed attempt just vacated, no timer.
                self.start(ctx, fl);
            }
            return;
        }
        self.complete(ctx, &fl, false);
        if matches!(terminal, ScanOutcome::Unscannable { .. }) {
            self.log.unscannable += 1;
        }
        self.finish(&fl.record, terminal);
        self.start_downloads(ctx);
    }

    /// A backoff timer fired: put the object back at the head of the queue.
    fn on_retry_fire(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(fl) = self.retry_wait.remove(&token) {
            self.pending.push_front(fl);
            self.start_downloads(ctx);
        }
    }

    /// Drains overlay events into the log and the download pipeline.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        for ev in self.overlay.drain_events() {
            match O::signal(ev) {
                Signal::Answer(key, answer) => self.ingest(ctx, key, &answer),
                Signal::DownloadDone { id, result } => self.on_download_done(ctx, id, result),
                Signal::Other => {}
            }
        }
    }

    fn issue_query(&mut self, ctx: &mut Ctx<'_>) {
        let q = self.workload.sample_query(&self.catalog, ctx.rng());
        let key = self.overlay.search(ctx, &q);
        // Close out the previous query's fan-out count (the final in-flight
        // query is never recorded — deterministic either way).
        if let Some((_, responses)) = self.last_query.replace((key, 0)) {
            ctx.registry().record(SimHist::ResponsesPerQuery, responses);
        }
        self.remember_query(key, &q);
        self.log.queries_issued += 1;
        let next = self.workload.next_interval_secs(ctx.now(), ctx.rng());
        ctx.set_timer(SimDuration::from_secs(next), TIMER_QUERY);
    }
}

impl<O: Overlay> App for Crawler<O> {
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn memory_estimate(&self) -> u64 {
        // Crawler-side queues are unbounded-but-small; the embedded node
        // carries the protocol state worth accounting.
        self.overlay.memory_estimate()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.overlay.on_start(ctx);
        ctx.set_timer(self.config.start_delay, TIMER_QUERY);
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, dir: Direction, peer: HostAddr) {
        self.overlay.on_connected(ctx, conn, dir, peer);
        self.pump(ctx);
    }

    fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.overlay.on_connect_failed(ctx, conn);
        self.pump(ctx);
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        self.overlay.on_data(ctx, conn, data);
        self.pump(ctx);
    }

    fn on_data_owned(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: Vec<u8>) {
        self.overlay.on_data_owned(ctx, conn, data);
        self.pump(ctx);
    }

    fn on_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.overlay.on_closed(ctx, conn);
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_QUERY {
            self.issue_query(ctx);
        } else if token & TIMER_RETRY_BASE == TIMER_RETRY_BASE {
            self.on_retry_fire(ctx, token);
        } else if token & CRAWLER_BASE == 0 {
            self.overlay.on_timer(ctx, token);
        }
        self.pump(ctx);
    }
}

#[cfg(test)]
mod tests;
