//! The same sans-IO Gnutella servents that run in the simulator, attached
//! to real TCP sockets on 127.0.0.1 through `p2pmal_netsim::live`.
//!
//! Topology: one ultrapeer, one sharing leaf carrying a query-echo worm,
//! and a searching leaf. The searcher queries over real TCP, must receive
//! the worm's wire-format QUERYHIT, download the payload over HTTP, and
//! scan it as the worm's family: the measurement pipeline with no
//! simulator involved.

use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, FamilyId, HostLibrary, Roster};
use p2pmal_gnutella::servent::{
    DownloadMethod, DownloadRequest, Servent, ServentConfig, ServentEvent, SharedWorld,
};
use p2pmal_netsim::live::LiveNode;
use p2pmal_netsim::{App, ConnId, Ctx, Direction, HostAddr, SimDuration};
use p2pmal_scanner::Scanner;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// What the searcher reports, in order.
enum Seen {
    /// A QUERYHIT for the query arrived; its first result's name.
    Hit(String),
    /// The download of that result finished with this body.
    Body(Vec<u8>),
}

/// Wraps the stock servent: search after a settle delay, then download the
/// first hit and report both over a channel.
struct Searcher {
    servent: Servent,
    query: String,
    tx: Sender<Seen>,
    searched: bool,
    downloading: bool,
}

const T_SEARCH: u64 = 1 << 50;

impl App for Searcher {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.servent.on_start(ctx);
        ctx.set_timer(SimDuration::from_secs(2), T_SEARCH);
    }
    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, dir: Direction, peer: HostAddr) {
        self.servent.on_connected(ctx, conn, dir, peer);
    }
    fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.servent.on_connect_failed(ctx, conn);
    }
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        self.servent.on_data(ctx, conn, data);
        self.pump(ctx);
    }
    fn on_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.servent.on_closed(ctx, conn);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == T_SEARCH {
            if !self.searched {
                self.searched = true;
                let q = self.query.clone();
                self.servent.search(ctx, &q);
            }
        } else {
            self.servent.on_timer(ctx, token);
        }
        self.pump(ctx);
    }
}

impl Searcher {
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        for ev in self.servent.drain_events() {
            match ev {
                ServentEvent::QueryHit { hit, .. } if !self.downloading => {
                    let res = &hit.results[0];
                    self.downloading = true;
                    let _ = self.tx.send(Seen::Hit(res.name.clone()));
                    self.servent.begin_download(
                        ctx,
                        DownloadRequest {
                            addr: HostAddr::new(hit.ip, hit.port),
                            index: res.index,
                            name: res.name.clone(),
                            servent_guid: hit.servent_guid,
                            method: DownloadMethod::Direct,
                        },
                    );
                }
                ServentEvent::DownloadDone(done) => {
                    if let Ok(body) = done.result {
                        let _ = self.tx.send(Seen::Body(body.to_vec()));
                    }
                }
                _ => {}
            }
        }
    }
}

fn next(rx: &Receiver<Seen>, what: &str) -> Seen {
    rx.recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("no {what} over live TCP within 30 s"))
}

#[test]
fn a_worm_hit_downloads_and_scans_over_loopback_tcp() {
    let mut rng = StdRng::seed_from_u64(1);
    let catalog = Catalog::generate(
        &CatalogConfig {
            titles: 50,
            ..Default::default()
        },
        &mut rng,
    );
    let world = SharedWorld::new(
        Arc::new(catalog),
        Arc::new(Roster::limewire_2006()),
        Arc::new(ContentStore::new(1)),
    );

    // Servents advertise `config.listen_port` in query hits and pongs, so
    // each live socket is bound to that same port. The base comes from the
    // PID so that concurrent runs on one host do not collide.
    let base = 20_000 + (std::process::id() % 20_000) as u16;

    let mut up_cfg = ServentConfig::ultrapeer();
    up_cfg.listen_port = base;
    let up = LiveNode::spawn(
        Box::new(Servent::new(up_cfg, world.clone(), HostLibrary::new())),
        base,
    )
    .expect("bind ultrapeer");

    // The sharing leaf, infected with a query-echo worm.
    let worm = world.roster.get(FamilyId(0));
    let mut lib = HostLibrary::new();
    lib.infect(worm, &world.catalog, &mut rng);
    let mut leaf_cfg = ServentConfig::leaf().with_bootstrap(vec![up.addr()]);
    leaf_cfg.listen_port = base + 1;
    let leaf = LiveNode::spawn(
        Box::new(Servent::new(leaf_cfg, world.clone(), lib)),
        base + 1,
    )
    .expect("bind sharer");

    let (tx, rx) = channel();
    let mut cfg = ServentConfig::leaf().with_bootstrap(vec![up.addr()]);
    cfg.listen_port = base + 2;
    cfg.collect_events = true;
    let searcher = LiveNode::spawn(
        Box::new(Searcher {
            servent: Servent::new(cfg, world.clone(), HostLibrary::new()),
            query: "totally arbitrary search".into(),
            tx,
            searched: false,
            downloading: false,
        }),
        base + 2,
    )
    .expect("bind searcher");

    let Seen::Hit(name) = next(&rx, "QUERYHIT") else {
        panic!("a download finished before any QUERYHIT");
    };
    let Seen::Body(body) = next(&rx, "completed download") else {
        panic!("a second QUERYHIT was reported");
    };
    searcher.stop();
    leaf.stop();
    up.stop();

    assert!(!body.is_empty(), "empty body for {name:?}");
    let scanner = Scanner::new(world.roster.signature_db().unwrap().build().unwrap());
    let verdict = scanner.scan(&name, &body);
    assert_eq!(verdict.primary(), Some(worm.name.as_str()), "{name:?}");
}
