//! The driver against a scripted [`Overlay`]: one crawler node in a
//! simulator, no network. The fake answers search number `n` with whatever
//! the script holds for `n` and finishes every download ten simulated
//! seconds after it began, with the outcome scripted for that file's next
//! attempt (a clean body when the script says nothing).

use super::*;
use crate::retry::FailureBreakdown;
use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, Roster};
use p2pmal_netsim::{
    NodeSpec, SimConfig, SimTime, Simulator, Telemetry, TelemetryEvent, TelemetrySink,
};
use p2pmal_scanner::SignatureDb;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;
use std::sync::Mutex;

const TRACE: u64 = 0x7ace;
/// The `query_matched` span every fake answer claims to descend from; no
/// remote node exists to emit it, so the closure check takes it as given.
const MATCHED: u64 = 0x3a7c;

#[derive(Clone, Copy)]
struct Hit {
    name: &'static str,
    size: u64,
    /// Last octet of the responder's address (and its whole identity).
    host: u8,
}

fn hit(name: &'static str, size: u64, host: u8) -> Hit {
    Hit { name, size, host }
}

struct Request {
    name: &'static str,
    addr: HostAddr,
    push: bool,
}

/// What the fake is told to do.
#[derive(Default)]
struct Script {
    /// Search number (0-based) -> the responses it gets, in one answer.
    answers: HashMap<u32, Vec<Hit>>,
    /// File name -> outcome of each successive attempt.
    outcomes: HashMap<&'static str, VecDeque<Result<Vec<u8>, DownloadError>>>,
}

struct Fake {
    script: Script,
    events: Vec<Signal<Fake>>,
    searches: u32,
    next_download: u64,
    running: HashMap<u64, &'static str>,
    peak_running: usize,
    /// `(name, via PUSH)` of every attempt begun, in order.
    begun: Vec<(&'static str, bool)>,
}

impl App for Fake {
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
        let name = self.running.remove(&token).expect("a running download");
        let result = self
            .script
            .outcomes
            .get_mut(name)
            .and_then(VecDeque::pop_front)
            .unwrap_or_else(|| Ok(b"clean body".to_vec()));
        self.events.push(Signal::DownloadDone { id: token, result });
    }
}

impl Overlay for Fake {
    type Config = Script;
    type QueryKey = u32;
    type Event = Signal<Fake>;
    type Answer = Vec<Hit>;
    type Request = Request;

    fn instrumented(script: Script, _world: SharedWorld) -> Self {
        Fake {
            script,
            events: Vec::new(),
            searches: 0,
            next_download: 0,
            running: HashMap::new(),
            peak_running: 0,
            begun: Vec::new(),
        }
    }

    fn search(&mut self, _ctx: &mut Ctx<'_>, _text: &str) -> u32 {
        let key = self.searches;
        self.searches += 1;
        if let Some(hits) = self.script.answers.remove(&key) {
            self.events.push(Signal::Answer(key, hits));
        }
        key
    }

    fn begin_download(&mut self, ctx: &mut Ctx<'_>, request: &Request) -> u64 {
        let id = self.next_download;
        self.next_download += 1;
        self.running.insert(id, request.name);
        self.peak_running = self.peak_running.max(self.running.len());
        self.begun.push((request.name, request.push));
        ctx.set_timer(SimDuration::from_secs(10), id);
        id
    }

    fn drain_events(&mut self) -> Vec<Signal<Fake>> {
        std::mem::take(&mut self.events)
    }

    fn signal(event: Signal<Fake>) -> Signal<Fake> {
        event
    }

    fn response_count(hits: &Vec<Hit>) -> usize {
        hits.len()
    }

    fn response(hits: &Vec<Hit>, i: usize) -> Response<'_> {
        let h = hits[i];
        Response {
            name: h.name,
            size: h.size,
            source: HostAddr::new(Ipv4Addr::new(10, 0, 0, h.host), 6346),
            host: HostKey::Addr(Ipv4Addr::new(10, 0, 0, h.host), 6346),
            needs_push: false,
        }
    }

    fn request(hits: &Vec<Hit>, i: usize) -> Request {
        Request {
            name: hits[i].name,
            addr: Self::response(hits, i).source,
            push: false,
        }
    }

    fn provenance(_ctx: &Ctx<'_>, _key: u32, _hits: &Vec<Hit>) -> (u64, u64) {
        (TRACE, MATCHED)
    }

    fn request_addr(request: &Request) -> HostAddr {
        request.addr
    }

    fn fall_back(request: &mut Request) -> bool {
        !std::mem::replace(&mut request.push, true)
    }
}

struct Collect(Arc<Mutex<Vec<TelemetryEvent>>>);

impl TelemetrySink for Collect {
    fn record(&mut self, event: &TelemetryEvent) {
        self.0.lock().expect("sink lock").push(event.clone());
    }
}

/// What a scripted run left behind.
struct Ran {
    log: CrawlLog,
    events: Vec<TelemetryEvent>,
    begun: Vec<(&'static str, bool)>,
    peak_running: usize,
}

impl Ran {
    fn begun_names(&self) -> Vec<&'static str> {
        self.begun.iter().map(|(name, _)| *name).collect()
    }

    fn count(&self, kind: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.body.kind_label() == kind)
            .count()
    }

    /// Every `download_*` / `scan_verdict` event carries a span whose
    /// parent is the given match span or the span of an emitted event.
    fn assert_chains_closed(&self) {
        let emitted: HashSet<u64> = self
            .events
            .iter()
            .filter_map(|e| e.span.map(|s| s.span))
            .chain([MATCHED])
            .collect();
        for e in &self.events {
            let kind = e.body.kind_label();
            if kind.starts_with("download_") || kind == "scan_verdict" {
                let span = e.span.unwrap_or_else(|| panic!("{kind} without a span"));
                let parent = span.parent.unwrap_or_else(|| panic!("{kind} is a root"));
                assert!(emitted.contains(&parent), "orphaned {kind}: {:?}", e.body);
            }
        }
    }
}

fn run(script: Script, config: CrawlerConfig, scan_events: bool) -> Ran {
    let mut rng = StdRng::seed_from_u64(5);
    let catalog = Catalog::generate(
        &CatalogConfig {
            titles: 20,
            ..Default::default()
        },
        &mut rng,
    );
    let world = SharedWorld::new(
        Arc::new(catalog),
        Arc::new(Roster::limewire_2006()),
        Arc::new(ContentStore::new(5)),
    );
    let mut db = SignatureDb::new();
    db.add_literal("W32.Test", b"EVILBYTES").unwrap();
    let scanner = Arc::new(Scanner::new(db.build().unwrap()));

    let events = Arc::new(Mutex::new(Vec::new()));
    let mut sample = [1; p2pmal_netsim::telemetry::CATEGORY_COUNT];
    if !scan_events {
        sample[EventCategory::Scan as usize] = 0;
    }
    let mut sim = Simulator::new(SimConfig::default(), 5);
    sim.set_telemetry(Telemetry::new(
        vec![Box::new(Collect(Arc::clone(&events)))],
        sample,
    ));
    let node = sim.spawn(
        NodeSpec::public().listen(6346),
        Box::new(Crawler::<Fake>::new(script, world, scanner, config)),
    );
    sim.run_until(SimTime::from_secs(6 * 3600));

    let (log, begun, peak_running) = sim
        .with_node(node, |app, _| {
            let c = app
                .as_any_mut()
                .unwrap()
                .downcast_mut::<Crawler<Fake>>()
                .unwrap();
            // Every body is scanned where it lands: nothing, and no dedup
            // key, outlives its download.
            assert!(c.pending.is_empty() && c.in_flight.is_empty() && c.retry_wait.is_empty());
            assert!(c.busy_name_size.is_empty() && c.busy_host_size.is_empty());
            let log = c.take_log();
            (log, c.overlay.begun.clone(), c.overlay.peak_running)
        })
        .unwrap();
    assert!(log.queries_issued > 20, "the scripted searches all ran");
    assert_eq!(
        log.failures.total(),
        log.retries_scheduled + log.downloads_failed
    );
    let events = std::mem::take(&mut *events.lock().unwrap());
    Ran {
        log,
        events,
        begun,
        peak_running,
    }
}

fn fails(n: usize, then: Option<&[u8]>) -> VecDeque<Result<Vec<u8>, DownloadError>> {
    (0..n)
        .map(|_| Err(DownloadError::ConnectFailed))
        .chain(then.map(|body| Ok(body.to_vec())))
        .collect()
}

#[test]
fn duplicates_under_either_key_are_fetched_once() {
    let script = Script {
        answers: HashMap::from([
            (
                0,
                vec![
                    hit("a.exe", 100, 1),
                    hit("a.exe", 100, 2), // same name + size, other host
                    hit("b.exe", 200, 3),
                    hit("c.exe", 200, 3), // same host + size, other name
                    hit("song.mp3", 300, 4),
                ],
            ),
            // Long after the verdicts landed: advertised again elsewhere.
            (10, vec![hit("a.exe", 100, 9)]),
        ]),
        ..Default::default()
    };
    let ran = run(script, CrawlerConfig::default(), true);
    assert_eq!(ran.begun_names(), ["a.exe", "b.exe"]);
    assert_eq!(ran.log.downloads_attempted, 2);
    assert_eq!(ran.log.responses.len(), 6);
    let resolved = ran.log.resolved();
    assert_eq!(resolved.iter().filter(|r| r.record.downloadable).count(), 5);
    assert!(resolved
        .iter()
        .all(|r| r.scanned == r.record.downloadable && r.malware.is_none()));
    assert_eq!(ran.count("scan_verdict"), 2);
    ran.assert_chains_closed();
}

/// One answer of many responses, as an OpenFT search node's arrives: more
/// new files than free slots, the second response a duplicate of the first
/// under one dedup key and a later one under the other.
#[test]
fn downloads_never_exceed_the_slots() {
    const NAMES: [&str; 5] = ["a.exe", "b.exe", "c.exe", "d.zip", "e.exe"];
    let mut hits: Vec<Hit> = (0..5)
        .map(|i| hit(NAMES[i], 100 + i as u64, i as u8))
        .collect();
    hits.insert(1, hit("a.exe", 100, 9)); // same name + size, other host
    hits.insert(3, hit("z.exe", 101, 1)); // same host + size, other name
    let script = Script {
        answers: HashMap::from([(0, hits)]),
        outcomes: HashMap::from([("c.exe", fails(0, Some(b"xx EVILBYTES xx")))]),
    };
    let config = CrawlerConfig {
        max_concurrent_downloads: 2,
        ..Default::default()
    };
    let ran = run(script, config, true);
    assert_eq!(ran.peak_running, 2);
    assert_eq!(ran.begun_names(), NAMES, "first come, first fetched");
    assert_eq!(ran.log.scan.bodies, 5);
    let logged: Vec<&str> = ran.log.responses.iter().map(|r| &*r.filename).collect();
    assert_eq!(
        logged,
        ["a.exe", "a.exe", "b.exe", "z.exe", "c.exe", "d.zip", "e.exe"]
    );
    assert!(ran.log.resolved().iter().all(|r| r.scanned));
    let malicious: Vec<_> = ran
        .log
        .resolved()
        .into_iter()
        .filter(|r| r.malware.is_some())
        .map(|r| r.record.filename.to_string())
        .collect();
    assert_eq!(malicious, ["c.exe"]);
    assert_eq!(ran.count("infection"), 1);
    ran.assert_chains_closed();
}

#[test]
fn legacy_retry_is_immediate_and_its_chain_has_no_orphans() {
    let script = Script {
        answers: HashMap::from([(0, vec![hit("x.exe", 100, 1), hit("y.exe", 200, 2)])]),
        outcomes: HashMap::from([
            ("x.exe", fails(1, Some(b"clean"))),
            ("y.exe", fails(2, None)),
        ]),
    };
    let ran = run(script, CrawlerConfig::default(), true);
    // Each object's one re-attempt went out over the fallback transport.
    assert_eq!(
        ran.begun,
        [
            ("x.exe", false),
            ("y.exe", false),
            ("x.exe", true),
            ("y.exe", true)
        ]
    );
    let log = &ran.log;
    assert_eq!(
        (
            log.downloads_attempted,
            log.retries_scheduled,
            log.retry_successes
        ),
        (2, 2, 1)
    );
    assert_eq!((log.downloads_failed, log.push_fallbacks), (1, 2));
    assert_eq!(
        log.failures,
        FailureBreakdown {
            peer_gone: 3,
            ..Default::default()
        }
    );
    assert_eq!(ran.count("download_start"), 4);
    assert_eq!(ran.count("download_retry"), 2);
    assert_eq!(ran.count("download_complete"), 2);
    ran.assert_chains_closed();
}

#[test]
fn backoff_retries_refetch_unscannable_bodies_and_fall_back_once() {
    let garbage: &[u8] = b"PK\x03\x04 not a zip at all";
    let script = Script {
        answers: HashMap::from([(0, vec![hit("x.exe", 100, 1), hit("z.zip", 200, 2)])]),
        outcomes: HashMap::from([
            ("x.exe", fails(2, Some(b"clean"))),
            (
                "z.zip",
                std::iter::repeat_n(Ok(garbage.to_vec()), 4).collect(),
            ),
        ]),
    };
    let config = CrawlerConfig {
        retry: RetryPolicy::backoff(3, 30),
        ..Default::default()
    };
    let ran = run(script, config, true);
    let pushes: Vec<_> = ran
        .begun
        .iter()
        .filter(|(name, _)| *name == "x.exe")
        .collect();
    assert_eq!(
        pushes,
        [&("x.exe", false), &("x.exe", true), &("x.exe", true)]
    );
    assert_eq!(ran.begun.len(), 3 + 4);
    let log = &ran.log;
    assert_eq!((log.retries_scheduled, log.retry_successes), (2 + 3, 1));
    assert_eq!((log.downloads_failed, log.unscannable), (1, 1));
    // Both objects stepped down to the fallback transport exactly once.
    assert_eq!(log.push_fallbacks, 2);
    assert_eq!(
        log.failures,
        FailureBreakdown {
            peer_gone: 2,
            corrupt: 4,
            ..Default::default()
        }
    );
    let z = log
        .resolved()
        .into_iter()
        .find(|r| &*r.record.filename == "z.zip");
    assert!(
        !z.expect("logged").scanned,
        "garbage is never a clean verdict"
    );
    assert_eq!(ran.count("download_start"), 7);
    assert_eq!(ran.count("scan_verdict"), 1);
    ran.assert_chains_closed();
}
