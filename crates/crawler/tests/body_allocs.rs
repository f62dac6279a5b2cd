//! A downloaded body is written into the lane's one body buffer, lent to
//! the crawler for the scan and handed back: downloads of rising and then
//! falling sizes allocate a body buffer once per new largest size, and
//! never otherwise. The crawler runs over a scripted overlay that fetches
//! through the shared HTTP client (`ResponseReader`) from an uploader that
//! sends each body deferred, the way both servents upload. A counting
//! allocator sees every allocation of at least `MIN_BODY` bytes; its
//! counters are per thread, so concurrent tests do not disturb each other.

use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, Roster};
use p2pmal_crawler::{
    CrawlLog, Crawler, CrawlerConfig, HostKey, Overlay, Response, ScanOutcome, Signal,
};
use p2pmal_gnutella::http::{encode_response_ok, ResponseReader};
use p2pmal_gnutella::servent::SharedWorld;
use p2pmal_netsim::{
    App, ConnId, Ctx, Direction, HostAddr, NodeSpec, SimConfig, SimTime, Simulator,
};
use p2pmal_scanner::{Scanner, SignatureDb};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Every body in the script is at least this large, and nothing else the
/// run allocates is.
const MIN_BODY: usize = 1 << 20;

struct Counting;

thread_local! {
    /// Allocations (a `realloc` counts as one) of at least `MIN_BODY`.
    static LARGE: Cell<usize> = const { Cell::new(0) };
}

fn track(size: usize) {
    if size >= MIN_BODY {
        let _ = LARGE.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new);
        if !q.is_null() {
            track(new);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Answers `GET /<size> HTTP/1.1` with a 200 and `size` bytes, the head
/// and body sent deferred as one payload.
struct Uploader;

impl App for Uploader {
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        let line = std::str::from_utf8(data).expect("an ASCII request");
        let size: usize = line["GET /".len()..line.find(" HTTP").expect("a request line")]
            .parse()
            .expect("a size");
        let head = encode_response_ok("uploader", size);
        ctx.send_deferred(conn, head.len() + size, move |out| {
            out.extend_from_slice(&head);
            out.resize(out.len() + size, b'x');
        });
    }
}

/// One download: its id, the size it asks for, and its response reader.
struct Fetching {
    id: u64,
    size: u32,
    reader: ResponseReader,
}

/// The overlay: search 0 is answered with every scripted file at once,
/// each from a responder of its own (so neither dedup key merges two), and
/// every file is fetched from the one uploader.
struct Fetch {
    uploader: HostAddr,
    sizes: Vec<u32>,
    searches: u32,
    next_download: u64,
    fetching: HashMap<ConnId, Fetching>,
    events: Vec<Signal<Fetch>>,
}

impl Fetch {
    fn pump(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, push: impl FnOnce(&mut ResponseReader)) {
        let Some(f) = self.fetching.get_mut(&conn) else {
            return;
        };
        push(&mut f.reader);
        if let Some(result) = f.reader.response().transpose() {
            let id = f.id;
            self.fetching.remove(&conn);
            ctx.close(conn);
            self.events.push(Signal::DownloadDone { id, result });
        }
    }
}

impl App for Fetch {
    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _: Direction, _: HostAddr) {
        if let Some(f) = self.fetching.get(&conn) {
            ctx.send(conn, format!("GET /{} HTTP/1.1\r\n\r\n", f.size).as_bytes());
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        self.pump(ctx, conn, |r| r.push(data));
    }

    fn on_data_owned(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: Vec<u8>) {
        self.pump(ctx, conn, |r| r.push_owned(data));
    }
}

impl Overlay for Fetch {
    type Config = (HostAddr, Vec<u32>);
    type QueryKey = u32;
    type Event = Signal<Fetch>;
    type Answer = Vec<u32>;
    type Request = u32;

    fn instrumented((uploader, sizes): (HostAddr, Vec<u32>), _world: SharedWorld) -> Self {
        Fetch {
            uploader,
            sizes,
            searches: 0,
            next_download: 0,
            fetching: HashMap::new(),
            events: Vec::new(),
        }
    }

    fn search(&mut self, _ctx: &mut Ctx<'_>, _text: &str) -> u32 {
        let key = self.searches;
        self.searches += 1;
        if key == 0 {
            self.events.push(Signal::Answer(key, self.sizes.clone()));
        }
        key
    }

    fn begin_download(&mut self, ctx: &mut Ctx<'_>, &size: &u32) -> u64 {
        let id = self.next_download;
        self.next_download += 1;
        let conn = ctx.connect(self.uploader);
        let reader = ResponseReader::new(usize::MAX);
        self.fetching.insert(conn, Fetching { id, size, reader });
        id
    }

    fn drain_events(&mut self) -> Vec<Signal<Fetch>> {
        std::mem::take(&mut self.events)
    }

    fn signal(event: Signal<Fetch>) -> Signal<Fetch> {
        event
    }

    fn response_count(sizes: &Vec<u32>) -> usize {
        sizes.len()
    }

    fn response(sizes: &Vec<u32>, i: usize) -> Response<'_> {
        const NAMES: [&str; 6] = ["a.exe", "b.exe", "c.exe", "d.exe", "e.exe", "f.exe"];
        let ip = Ipv4Addr::new(10, 0, 0, i as u8);
        Response {
            name: NAMES[i],
            size: sizes[i],
            source: HostAddr::new(ip, 6346),
            host: HostKey::Addr(ip, 6346),
            needs_push: false,
        }
    }

    fn request(sizes: &Vec<u32>, i: usize) -> u32 {
        sizes[i]
    }

    fn provenance(_ctx: &Ctx<'_>, _key: u32, _sizes: &Vec<u32>) -> (u64, u64) {
        (0, 0)
    }

    fn request_addr(_: &u32) -> HostAddr {
        HostAddr::new(Ipv4Addr::new(10, 0, 0, 255), 6346)
    }

    fn fall_back(_: &mut u32) -> bool {
        false
    }
}

#[test]
fn one_body_allocation_per_new_largest_size() {
    const MB: u32 = 1 << 20;
    // Rising, then falling, then the largest again.
    let sizes = vec![MB, 2 * MB, 3 * MB, 5 * MB / 2, 3 * MB / 2, 3 * MB];
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

    let mut sim = Simulator::new(SimConfig::default(), 5);
    let uploader = sim.spawn(NodeSpec::public().listen(80), Box::new(Uploader));
    let config = CrawlerConfig {
        // One at a time, so the bodies land in script order.
        max_concurrent_downloads: 1,
        ..CrawlerConfig::default()
    };
    let crawler = Crawler::<Fetch>::new(
        (sim.node_addr(uploader), sizes.clone()),
        world,
        scanner,
        config,
    );
    let node = sim.spawn(NodeSpec::public().listen(6346), Box::new(crawler));

    LARGE.with(|n| n.set(0));
    sim.run_until(SimTime::from_secs(6 * 3600));
    let large = LARGE.with(Cell::get);

    let lens = sim
        .with_node(node, |app, _| {
            let c = app
                .as_any_mut()
                .unwrap()
                .downcast_mut::<Crawler<Fetch>>()
                .unwrap();
            let log = c.take_log();
            assert_eq!(log.downloads_attempted, sizes.len() as u64);
            log.responses
                .iter()
                .map(|r| {
                    let (nk, hk) = CrawlLog::keys_of(r);
                    match log.outcome_by(&nk, &hk) {
                        Some(ScanOutcome::Scanned { len, .. }) => *len,
                        other => panic!("{}: {other:?}", &*r.filename),
                    }
                })
                .collect::<Vec<u64>>()
        })
        .unwrap();
    let expected: Vec<u64> = sizes.iter().map(|&s| u64::from(s)).collect();
    assert_eq!(lens, expected, "every body arrived whole and was scanned");
    // 1, 2 and 3 MiB are new largest sizes; 2.5, 1.5 and 3 MiB again are not.
    assert_eq!(large, 3, "one body allocation per new largest size");
}
