//! End-to-end OpenFT node tests over the simulator.

use super::*;
use crate::packet::SearchResult;
use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, FamilyId, Roster};
use p2pmal_netsim::{NodeId, NodeSpec, SimConfig, SimTime, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

fn world(seed: u64) -> SharedWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = Catalog::generate(
        &CatalogConfig {
            titles: 150,
            ..Default::default()
        },
        &mut rng,
    );
    SharedWorld::new(
        Arc::new(catalog),
        Arc::new(Roster::openft_2006()),
        Arc::new(ContentStore::new(seed)),
    )
}

fn with_node<R>(
    sim: &mut Simulator,
    node: NodeId,
    f: impl FnOnce(&mut FtNode, &mut p2pmal_netsim::Ctx<'_>) -> R,
) -> R {
    sim.with_node(node, |app, ctx| {
        let n = app.as_any_mut().unwrap().downcast_mut::<FtNode>().unwrap();
        f(n, ctx)
    })
    .expect("node alive")
}

/// Every search result in `events`, in arrival order, as owned values.
fn results_of(events: &[FtEvent]) -> Vec<SearchResult> {
    events
        .iter()
        .filter_map(|e| match e {
            FtEvent::SearchResults { results, .. } => Some(results),
            _ => None,
        })
        .flat_map(|batch| (0..batch.len()).map(|i| batch.get(i).to_owned()))
        .collect()
}

struct Net {
    sim: Simulator,
    search_nodes: Vec<NodeId>,
    world: SharedWorld,
    search_addrs: Vec<HostAddr>,
}

fn build(seed: u64, n_search: usize) -> Net {
    let world = world(seed);
    let mut sim = Simulator::new(SimConfig::default(), seed);
    let mut search_nodes = Vec::new();
    let mut search_addrs = Vec::new();
    for _ in 0..n_search {
        let cfg = FtConfig::search_node().with_bootstrap(search_addrs.clone());
        let node = FtNode::new(cfg, world.clone(), HostLibrary::new());
        let id = sim.spawn(NodeSpec::public().listen(1215), Box::new(node));
        search_addrs.push(sim.node_addr(id));
        search_nodes.push(id);
    }
    sim.run_until(SimTime::from_secs(60));
    Net {
        sim,
        search_nodes,
        world,
        search_addrs,
    }
}

fn spawn_user(net: &mut Net, library: HostLibrary, collect: bool) -> NodeId {
    let cfg = FtConfig {
        collect_events: collect,
        ..FtConfig::user().with_bootstrap(net.search_addrs.clone())
    };
    let node = FtNode::new(cfg, net.world.clone(), library);
    net.sim
        .spawn(NodeSpec::public().listen(1215), Box::new(node))
}

/// A user registers shares with a search parent; a crawler's search returns
/// a result pointing at the *user's* host, and the download delivers bytes
/// of the advertised size.
#[test]
fn register_search_download_roundtrip() {
    let mut net = build(1, 2);
    // Pick the smallest title so the transfer finishes within the timeout
    // at simulated 2006 bandwidths.
    let small = net
        .world
        .catalog
        .items()
        .iter()
        .min_by_key(|it| it.variants[0].size)
        .expect("catalog is non-empty")
        .clone();
    assert!(
        small.variants[0].size < 2_000_000,
        "smallest title transfers quickly"
    );
    let mut lib = HostLibrary::new();
    lib.add_benign(&small, 0);
    let kw = small.keywords.clone();
    let expected_size = small.variants[0].size;

    let sharer = spawn_user(&mut net, lib, false);
    net.sim.run_until(SimTime::from_secs(180));
    assert!(
        with_node(&mut net.sim, sharer, |n, _| n.parent_count()) > 0,
        "sharer got a parent"
    );

    let crawler = spawn_user(&mut net, HostLibrary::new(), true);
    net.sim.run_until(SimTime::from_secs(300));
    assert!(with_node(&mut net.sim, crawler, |n, _| n.session_count()) > 0);

    with_node(&mut net.sim, crawler, |n, ctx| n.search(ctx, &kw.join(" ")));
    net.sim.run_until(SimTime::from_secs(360));
    let events = with_node(&mut net.sim, crawler, |n, _| n.drain_events());
    let result = results_of(&events)
        .into_iter()
        .next()
        .expect("search returned the registered share");
    assert_eq!(result.size as u64, expected_size);
    assert_eq!(
        result.host,
        net.sim.node_addr(sharer).ip,
        "result points at the sharer"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FtEvent::SearchEnd { .. })),
        "stream terminated"
    );

    // Download from the result's host by MD5.
    with_node(&mut net.sim, crawler, |n, ctx| {
        n.begin_download(
            ctx,
            HostAddr::new(result.host, result.http_port),
            result.md5,
        )
    });
    net.sim.run_until(SimTime::from_secs(900));
    let events = with_node(&mut net.sim, crawler, |n, _| n.drain_events());
    let body = events
        .iter()
        .find_map(|e| match e {
            FtEvent::DownloadDone { result, .. } => Some(result.clone().expect("download ok")),
            _ => None,
        })
        .expect("download completed");
    assert_eq!(body.len() as u64, expected_size);
}

/// The OpenFT superspreader: one host sharing one virus under many popular
/// names; its registrations dominate malicious search results.
#[test]
fn superspreader_dominates_malicious_results() {
    let mut net = build(2, 1);
    let mut rng = StdRng::seed_from_u64(5);
    let mut lib = HostLibrary::new();
    let fam = net.world.roster.get(FamilyId(0)).clone();
    lib.infect_superspreader(&fam, &net.world.catalog, 40, &mut rng);
    assert!(lib.files().len() >= 30);

    let spreader = spawn_user(&mut net, lib, false);
    net.sim.run_until(SimTime::from_secs(180));
    let crawler = spawn_user(&mut net, HostLibrary::new(), true);
    net.sim.run_until(SimTime::from_secs(300));

    // Query popular titles; the spreader's baits ride popularity.
    let queries: Vec<String> = (0..20)
        .map(|i| net.world.catalog.item(i).keywords.join(" "))
        .collect();
    for q in &queries {
        with_node(&mut net.sim, crawler, |n, ctx| n.search(ctx, q));
    }
    net.sim.run_until(SimTime::from_secs(500));
    let events = with_node(&mut net.sim, crawler, |n, _| n.drain_events());
    let results = results_of(&events);
    assert!(!results.is_empty());
    let spreader_ip = net.sim.node_addr(spreader).ip;
    let from_spreader = results.iter().filter(|r| r.host == spreader_ip).count();
    assert!(
        from_spreader > 0,
        "superspreader shows up in popular searches"
    );
    // Every spreader result has the family's characteristic size.
    for r in results.iter().filter(|r| r.host == spreader_ip) {
        assert!(fam.sizes.contains(&(r.size as u64)), "size {}", r.size);
    }
}

/// Downloaded superspreader content convicts under the scanner.
#[test]
fn downloaded_malware_scans_dirty() {
    let mut net = build(3, 1);
    let mut rng = StdRng::seed_from_u64(6);
    let mut lib = HostLibrary::new();
    let fam = net.world.roster.get(FamilyId(0)).clone();
    lib.infect_superspreader(&fam, &net.world.catalog, 10, &mut rng);
    let bait_name = lib.files()[0].name.clone();
    let spreader = spawn_user(&mut net, lib, false);
    net.sim.run_until(SimTime::from_secs(180));
    let crawler = spawn_user(&mut net, HostLibrary::new(), true);
    net.sim.run_until(SimTime::from_secs(300));

    let stem = bait_name.trim_end_matches(".exe").replace('_', " ");
    with_node(&mut net.sim, crawler, |n, ctx| n.search(ctx, &stem));
    net.sim.run_until(SimTime::from_secs(400));
    let events = with_node(&mut net.sim, crawler, |n, _| n.drain_events());
    let result = results_of(&events).into_iter().next().expect("bait found");
    with_node(&mut net.sim, crawler, |n, ctx| {
        n.begin_download(
            ctx,
            HostAddr::new(result.host, result.http_port),
            result.md5,
        )
    });
    net.sim.run_until(SimTime::from_secs(600));
    let events = with_node(&mut net.sim, crawler, |n, _| n.drain_events());
    let body = events
        .iter()
        .find_map(|e| match e {
            FtEvent::DownloadDone { result, .. } => Some(result.clone().expect("ok")),
            _ => None,
        })
        .expect("download done");
    let scanner =
        p2pmal_scanner::Scanner::new(net.world.roster.signature_db().unwrap().build().unwrap());
    assert_eq!(
        scanner.scan(&result.filename, &body).primary(),
        Some(fam.name.as_str())
    );
    let _ = spreader;
}

/// Node discovery: a user bootstrapped with one search node learns about
/// the others via NODELIST and sessions with them.
#[test]
fn nodelist_discovery_expands_sessions() {
    let mut net = build(4, 3);
    let one = vec![net.search_addrs[0]];
    let cfg = FtConfig {
        target_sessions: 3,
        ..FtConfig::user().with_bootstrap(one)
    };
    let node = FtNode::new(cfg, net.world.clone(), HostLibrary::new());
    let user = net
        .sim
        .spawn(NodeSpec::public().listen(1215), Box::new(node));
    net.sim.run_until(SimTime::from_secs(400));
    let sessions = with_node(&mut net.sim, user, |n, _| n.session_count());
    assert!(sessions >= 2, "discovered beyond bootstrap: {sessions}");
}

/// A 404 comes back for an MD5 the host does not share instead of a hang —
/// including one a single bit off a digest it does share, which is what a
/// bit-flip fault makes of an advertisement in transit (the crawlers count
/// it as `not_found`).
#[test]
fn one_bit_off_md5_download_is_a_404() {
    let mut net = build(5, 1);
    let mut lib = HostLibrary::new();
    lib.add_benign(net.world.catalog.item(1), 0);
    let mut md5 = net.world.store.declared_md5(lib.files()[0].content);
    md5.0[7] ^= 0x40;
    let sharer = spawn_user(&mut net, lib, false);
    let crawler = spawn_user(&mut net, HostLibrary::new(), true);
    net.sim.run_until(SimTime::from_secs(120));
    let target = net.sim.node_addr(sharer);
    with_node(&mut net.sim, crawler, |n, ctx| {
        n.begin_download(ctx, target, md5)
    });
    net.sim.run_until(SimTime::from_secs(300));
    let events = with_node(&mut net.sim, crawler, |n, _| n.drain_events());
    let outcome = events
        .iter()
        .find_map(|e| match e {
            FtEvent::DownloadDone { result, .. } => Some(result.clone()),
            _ => None,
        })
        .expect("download resolved");
    assert_eq!(outcome, Err(DownloadError::Http(404)));
}

/// A connection the node closed itself is gone from its table: after any
/// number of downloads — served, refused with a 404, timed out — the table
/// holds the live sessions and nothing else, and `memory_estimate()` is
/// where it was before the first.
#[test]
fn finished_downloads_leave_nothing_in_the_connection_table() {
    let mut net = build(13, 1);
    let small = net
        .world
        .catalog
        .items()
        .iter()
        .min_by_key(|it| it.variants[0].size)
        .expect("catalog is non-empty")
        .clone();
    let mut lib = HostLibrary::new();
    lib.add_benign(&small, 0);
    let md5 = net.world.store.declared_md5(lib.files()[0].content);
    let mut absent = md5;
    absent.0[0] ^= 1;
    let sharer = spawn_user(&mut net, lib, false);
    let cfg = FtConfig {
        collect_events: true,
        download_timeout: SimDuration::from_secs(1),
        ..FtConfig::user().with_bootstrap(net.search_addrs.clone())
    };
    let hasty = net.sim.spawn(
        NodeSpec::public().listen(1215),
        Box::new(FtNode::new(cfg, net.world.clone(), HostLibrary::new())),
    );
    let patient = spawn_user(&mut net, HostLibrary::new(), true);
    net.sim.run_until(SimTime::from_secs(120));
    let target = net.sim.node_addr(sharer);
    let table = |sim: &mut Simulator, node| {
        with_node(sim, node, |n, _| {
            n.drain_events();
            let live = n.conns.values().all(|k| matches!(k, ConnKind::Peer(_)));
            (n.conns.len(), live, n.memory_estimate())
        })
    };
    let before = (table(&mut net.sim, patient), table(&mut net.sim, hasty));
    assert!(before.0 .1 && before.1 .1, "sessions only");

    const N: u64 = 24;
    for round in 0..N {
        // Served and 404 on the patient node; cut off by the node's own
        // timeout on the hasty one.
        let wanted = if round % 2 == 0 { md5 } else { absent };
        with_node(&mut net.sim, patient, |n, ctx| {
            n.begin_download(ctx, target, wanted)
        });
        with_node(&mut net.sim, hasty, |n, ctx| {
            n.begin_download(ctx, target, md5)
        });
        let done = net.sim.now() + SimDuration::from_secs(900);
        net.sim.run_until(done);
    }
    for (node, was) in [(patient, before.0), (hasty, before.1)] {
        let stats = with_node(&mut net.sim, node, |n, _| n.stats());
        assert_eq!(stats.downloads_ok + stats.downloads_failed, N);
        assert_eq!(table(&mut net.sim, node), was);
    }
    let stats = with_node(&mut net.sim, patient, |n, _| n.stats());
    assert_eq!((stats.downloads_ok, stats.downloads_failed), (N / 2, N / 2));
}

/// Share withdrawal: REMSHARE removes the entry from the parent index.
#[test]
fn remshare_removes_from_index() {
    let mut net = build(6, 1);
    let mut lib = HostLibrary::new();
    lib.add_benign(net.world.catalog.item(1), 0);
    let content = lib.files()[0].content;
    let sharer = spawn_user(&mut net, lib, false);
    net.sim.run_until(SimTime::from_secs(200));
    let indexed = with_node(&mut net.sim, net.search_nodes[0], |n, _| n.indexed_shares());
    assert_eq!(indexed, 1);

    // Withdraw by sending REMSHARE over the parent connection.
    let md5 = net.world.store.declared_md5(content);
    with_node(&mut net.sim, sharer, |n, ctx| {
        let parents: Vec<ConnId> = n
            .conns
            .iter()
            .filter(|(_, k)| matches!(k, ConnKind::Peer(p) if p.parent))
            .map(|(&c, _)| c)
            .collect();
        for c in parents {
            n.send_packet(
                ctx,
                c,
                Command::RemShare,
                &crate::packet::RemShare { md5 }.encode(),
            );
        }
    });
    net.sim.run_until(SimTime::from_secs(260));
    let indexed = with_node(&mut net.sim, net.search_nodes[0], |n, _| n.indexed_shares());
    assert_eq!(indexed, 0);
}

/// A disconnecting child's shares vanish from the parent index.
#[test]
fn child_departure_cleans_index() {
    let mut net = build(7, 1);
    let mut lib = HostLibrary::new();
    lib.add_benign(net.world.catalog.item(2), 0);
    let sharer = spawn_user(&mut net, lib, false);
    net.sim.run_until(SimTime::from_secs(200));
    assert_eq!(
        with_node(&mut net.sim, net.search_nodes[0], |n, _| n.indexed_shares()),
        1
    );
    net.sim.stop_node(sharer);
    net.sim.run_until(SimTime::from_secs(300));
    assert_eq!(
        with_node(&mut net.sim, net.search_nodes[0], |n, _| n.indexed_shares()),
        0,
        "index purged on child departure"
    );
}

impl FtNode {
    /// The owning answer loop `answer_search` replaced, kept as the oracle
    /// for [`answers_match_the_owning_loop`]: index rows in index order,
    /// then our own shares, cut at `max_results`.
    fn answer_reference(&self, me: std::net::Ipv4Addr, id: u32, query: &str) -> Vec<SearchResult> {
        let compiled = self.world.compile_query(query);
        let mut results = Vec::new();
        if !compiled.is_empty() {
            for s in &self.index.rows {
                if results.len() >= self.config.max_results {
                    break;
                }
                if compiled.matches_meta(s.rec.lower(), s.rec.fp()) {
                    let (host, http_port) = self.child_addr(s.owner);
                    results.push(SearchResult {
                        id,
                        host: host.ip,
                        port: host.port,
                        http_port,
                        avail: 1,
                        md5: s.md5,
                        size: s.size,
                        filename: s.rec.name().to_string(),
                    });
                }
            }
            let own = self
                .library
                .respond_compiled(&compiled, self.config.max_results);
            for f in own {
                if results.len() >= self.config.max_results {
                    break;
                }
                results.push(SearchResult {
                    id,
                    host: me,
                    port: self.config.port,
                    http_port: self.config.port,
                    avail: 1,
                    md5: self.world.store.declared_md5(f.content),
                    size: f.size.min(u32::MAX as u64) as u32,
                    filename: f.name.to_string(),
                });
            }
        }
        results
    }

    /// The index's columns hold, row for row, the halves of the
    /// fingerprint of the name the row points at.
    fn assert_index_in_lockstep(&self) {
        let fps: Vec<u64> = self.index.rows.iter().map(|s| s.rec.fp()).collect();
        let lo: Vec<u32> = fps.iter().map(|&fp| fp as u32).collect();
        let hi: Vec<u32> = fps.iter().map(|&fp| (fp >> 32) as u32).collect();
        assert_eq!((&self.index.fp_lo, &self.index.fp_hi), (&lo, &hi));
    }
}

/// A library of `names`, each backed by its own catalog title (so every
/// file has its own MD5).
fn named_library(world: &SharedWorld, first_item: u32, names: &[String]) -> HostLibrary {
    let mut lib = HostLibrary::new();
    for (item, name) in (first_item..).zip(names) {
        let item = world.catalog.item(item % world.catalog.len() as u32);
        lib.add_file(p2pmal_corpus::SharedFile {
            name: name.as_str().into(),
            size: item.variants[0].size,
            content: p2pmal_corpus::ContentRef::Benign {
                item: item.id,
                variant: 0,
            },
        });
    }
    lib
}

/// A SEARCH node sharing three `Pinned_Own_*` files of its own (and one
/// unrelated), with three children that registered four `pinned_child*`
/// files (and two unrelated) each: "pinned" matches twelve index rows, then
/// three own shares.
fn pinned_net(config: SimConfig, cap: usize) -> (Net, NodeId, Vec<NodeId>) {
    let world = world(8);
    let mut sim = Simulator::new(config, 8);
    let own: Vec<String> = (0..3)
        .map(|k| format!("Pinned_Own_{k}.exe"))
        .chain(["unrelated_own.mp3".to_string()])
        .collect();
    let cfg = FtConfig {
        max_results: cap,
        ..FtConfig::search_node()
    };
    let parent = sim.spawn(
        NodeSpec::public().listen(1215),
        Box::new(FtNode::new(
            cfg,
            world.clone(),
            named_library(&world, 0, &own),
        )),
    );
    let mut net = Net {
        search_addrs: vec![sim.node_addr(parent)],
        search_nodes: vec![parent],
        sim,
        world,
    };
    let children: Vec<NodeId> = (0..3u32)
        .map(|c| {
            let names: Vec<String> = (0..4)
                .map(|k| format!("pinned_child{c}_{k}.mp3"))
                .chain((0..2).map(|k| format!("other_{c}_{k}.avi")))
                .collect();
            let lib = named_library(&net.world, 10 + 6 * c, &names);
            spawn_user(&mut net, lib, false)
        })
        .collect();
    (net, parent, children)
}

/// Searches `query` from `asker` once the network has settled and returns
/// what came back, in arrival order, after checking it against what the
/// owning loop makes of `parent`'s state — whose index columns must hold
/// what its rows point at.
fn ask(net: &mut Net, asker: NodeId, parent: NodeId, query: &str) -> Vec<SearchResult> {
    let settled = net.sim.now() + SimDuration::from_secs(60);
    net.sim.run_until(settled);
    let id = with_node(&mut net.sim, asker, |n, ctx| n.search(ctx, query));
    net.sim.run_until(settled + SimDuration::from_secs(60));
    let got = results_of(&with_node(&mut net.sim, asker, |n, _| n.drain_events()));
    let want = with_node(&mut net.sim, parent, |n, ctx| {
        n.assert_index_in_lockstep();
        n.answer_reference(ctx.external_addr().ip, id, query)
    });
    assert_eq!(got, want, "query {query:?}");
    got
}

/// Withdraws `md5` from every parent of `child`.
fn remshare(net: &mut Net, child: NodeId, md5: Md5Digest) {
    with_node(&mut net.sim, child, |n, ctx| {
        let up: Vec<ConnId> = n
            .conns
            .iter()
            .filter(|(_, k)| matches!(k, ConnKind::Peer(p) if p.parent))
            .map(|(&c, _)| c)
            .collect();
        for c in up {
            let rem = crate::packet::RemShare { md5 };
            n.send_packet(ctx, c, Command::RemShare, &rem.encode());
        }
    });
}

/// What a search returns is exactly what the owning loop returned: same
/// rows, same order, own library last, cut at the cap — with more matching
/// rows than the cap, after a REMSHARE, and after a child left.
#[test]
fn answers_match_the_owning_loop() {
    const CAP: usize = 9;
    let (mut net, parent, children) = pinned_net(SimConfig::default(), CAP);
    let asker = spawn_user(&mut net, HostLibrary::new(), true);
    net.sim.run_until(SimTime::from_secs(300));
    assert_eq!(
        with_node(&mut net.sim, parent, |n, _| n.indexed_shares()),
        18,
        "three children registered six shares each"
    );
    let ask = |net: &mut Net, query: &str| ask(net, asker, parent, query);
    let parent_ip = net.sim.node_addr(parent).ip;
    let from_own = |rs: &[SearchResult]| rs.iter().filter(|r| r.host == parent_ip).count();

    // Twelve matching rows, cap nine: the index alone fills the answer.
    let full = ask(&mut net, "pinned");
    assert_eq!((full.len(), from_own(&full)), (CAP, 0));
    // Selective queries; one that only the parent's own library answers.
    assert_eq!(ask(&mut net, "child1 pinned").len(), 4);
    assert_eq!(from_own(&ask(&mut net, "own")), 4);
    assert!(ask(&mut net, "nothing_shares_this").is_empty());

    // REMSHARE of the first row answered: it is gone, the cut moves on.
    let gone = full[0].clone();
    let owner = *children
        .iter()
        .find(|&&c| net.sim.node_addr(c).ip == gone.host)
        .expect("a child owns the first row");
    remshare(&mut net, owner, gone.md5);
    let after_rem = ask(&mut net, "pinned");
    assert_eq!((after_rem.len(), from_own(&after_rem)), (CAP, 0));
    assert!(after_rem.iter().all(|r| r.md5 != gone.md5));

    // A child leaves: seven matching rows remain, the parent's own files
    // fill the answer up to the cap, last.
    let leaver = *children.iter().find(|&&c| c != owner).expect("two others");
    let leaver_ip = net.sim.node_addr(leaver).ip;
    net.sim.stop_node(leaver);
    let after_leave = ask(&mut net, "pinned");
    assert_eq!((after_leave.len(), from_own(&after_leave)), (CAP, 2));
    assert!(after_leave.iter().all(|r| r.host != leaver_ip));
    assert!(after_leave[CAP - 2..].iter().all(|r| r.host == parent_ip));
}

/// The same at every index size around the 64 rows a search tests at a
/// time — 0, 1, 63, 64, 65, 129 and 1,000 — with the cap reached in the
/// middle of a chunk, rows that pass the fingerprint test and fail the
/// match, and the rows behind a REMSHARE and behind a departed child
/// moving up, their column entries with them.
#[test]
fn answers_match_the_owning_loop_at_every_index_size() {
    const CAP: usize = 9;
    let world = world(12);
    let mut sim = Simulator::new(SimConfig::default(), 12);
    let cfg = FtConfig {
        max_results: CAP,
        ..FtConfig::search_node()
    };
    let parent = sim.spawn(
        NodeSpec::public().listen(1215),
        Box::new(FtNode::new(cfg, world.clone(), HostLibrary::new())),
    );
    let mut net = Net {
        search_addrs: vec![sim.node_addr(parent)],
        search_nodes: vec![parent],
        sim,
        world,
    };
    let asker = spawn_user(&mut net, HostLibrary::new(), true);
    net.sim.run_until(SimTime::from_secs(120));
    assert!(ask(&mut net, asker, parent, "pinned").is_empty(), "size 0");

    // Child `c` registers `files` shares: every fifth matches "pinned",
    // every fifth but one holds all its letters and letter pairs and not
    // the word, the rest are unrelated.
    let names = |c: usize, files: usize| -> Vec<String> {
        (0..files)
            .map(|k| match k % 5 {
                0 => format!("pinned_c{c}_k{k}.mp3"),
                1 => format!("ed_ne_nn_in_pi_c{c}_k{k}.mp3"),
                _ => format!("other_c{c}_k{k}.avi"),
            })
            .collect()
    };
    let mut size = 0;
    let mut children = Vec::new();
    for (c, files) in [1, 62, 1, 1, 64, 871].into_iter().enumerate() {
        let lib = named_library(&net.world, 7 * c as u32, &names(c, files));
        children.push(spawn_user(&mut net, lib, false));
        size += files;
        let settled = net.sim.now() + SimDuration::from_secs(120);
        net.sim.run_until(settled);
        let indexed = with_node(&mut net.sim, parent, |n, _| n.indexed_shares());
        assert_eq!(indexed, size);
        // The cap is reached at row 40 from the second child on.
        let all = ask(&mut net, asker, parent, "pinned");
        assert_eq!(all.len(), CAP.min(size.div_ceil(5)), "size {size}");
        // The newest child's first row is the last row but `files - 1`.
        let newest = ask(&mut net, asker, parent, &format!("c{c} k0"));
        assert_eq!(newest.len(), 1, "size {size}");
    }
    assert_eq!(size, 1_000);
    // One row each at 63, 64 and 65, and the last but five.
    for (query, name) in [
        ("c2", "pinned_c2_k0.mp3"),
        ("c3", "pinned_c3_k0.mp3"),
        ("c4 k0", "pinned_c4_k0.mp3"),
        ("k865", "pinned_c5_k865.mp3"),
    ] {
        let got = ask(&mut net, asker, parent, query);
        let got: Vec<&str> = got.iter().map(|r| r.filename.as_str()).collect();
        assert_eq!(got, [name]);
    }

    // A REMSHARE from the middle of the first chunk, then the child that
    // owned it leaves: rows 63 and up move to 62, then to 1.
    let gone = ask(&mut net, asker, parent, "c1 k30").remove(0);
    remshare(&mut net, children[1], gone.md5);
    assert!(ask(&mut net, asker, parent, "c1 k30").is_empty());
    assert_eq!(ask(&mut net, asker, parent, "c2").len(), 1);
    assert_eq!(ask(&mut net, asker, parent, "pinned").len(), CAP);
    net.sim.stop_node(children[1]);
    assert!(ask(&mut net, asker, parent, "c1").is_empty());
    let indexed = with_node(&mut net.sim, parent, |n, _| n.indexed_shares());
    assert_eq!(indexed, 1_000 - 62);
    for query in ["c2", "c3", "k865"] {
        assert_eq!(ask(&mut net, asker, parent, query).len(), 1, "{query}");
    }
    // Rows 0, 1 and 2 now, and the cap six matches into the fourth child.
    let all = ask(&mut net, asker, parent, "pinned");
    let c4 = net.sim.node_addr(children[4]).ip;
    assert_eq!(all.iter().filter(|r| r.host == c4).count(), CAP - 3);
}

/// A bare session peer: dials `server`, says hello, and keeps every chunk
/// the simulator hands it, as handed.
struct Tap {
    server: HostAddr,
    conn: Arc<Mutex<Option<ConnId>>>,
    chunks: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl App for Tap {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connect(self.server);
    }
    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _: Direction, _: HostAddr) {
        *self.conn.lock().unwrap() = Some(conn);
        let mut hello = Vec::new();
        encode_packet(Command::Version, &Version::CURRENT.encode(), &mut hello);
        encode_packet(Command::Session, &Session::Request.encode(), &mut hello);
        ctx.send(conn, &hello);
    }
    fn on_data(&mut self, _: &mut Ctx<'_>, _: ConnId, data: &[u8]) {
        self.chunks.lock().unwrap().push(data.to_vec());
    }
}

/// An answer is one write: N index rows + M own shares + the END leave as
/// one buffer holding the N + M + 1 packets back to back, cut only by the
/// mss on the way.
#[test]
fn an_answer_is_one_write() {
    for mss in [None, Some(7), Some(100)] {
        let config = SimConfig {
            mss,
            ..SimConfig::default()
        };
        let (mut net, parent, _) = pinned_net(config, 64);
        let (conn, chunks) = (Arc::default(), Arc::default());
        let tap = net.sim.spawn(
            NodeSpec::public(),
            Box::new(Tap {
                server: net.search_addrs[0],
                conn: Arc::clone(&conn),
                chunks: Arc::clone(&chunks),
            }),
        );
        net.sim.run_until(SimTime::from_secs(300));
        chunks.lock().unwrap().clear();

        let tap_conn = conn.lock().unwrap().expect("tap connected");
        net.sim.with_node(tap, |_, ctx| {
            ctx.send_with(tap_conn, |out| {
                SearchRef::Request {
                    id: 77,
                    query: "pinned",
                }
                .encode_packet(out)
            })
        });
        net.sim.run_until(SimTime::from_secs(360));

        let want = with_node(&mut net.sim, parent, |n, ctx| {
            n.answer_reference(ctx.external_addr().ip, 77, "pinned")
        });
        let parent_ip = net.sim.node_addr(parent).ip;
        let own = want.iter().filter(|r| r.host == parent_ip).count();
        assert_eq!((want.len(), own), (15, 3), "N = 12 rows, M = 3 own shares");
        let mut wire = Vec::new();
        for r in &want {
            encode_packet(
                Command::Search,
                &Search::Result(r.clone()).encode(),
                &mut wire,
            );
        }
        encode_packet(Command::Search, &Search::End { id: 77 }.encode(), &mut wire);
        let chunks = std::mem::take(&mut *chunks.lock().unwrap());
        assert_eq!(chunks.concat(), wire, "mss {mss:?}");
        assert_eq!(
            chunks.len(),
            mss.map_or(1, |m| wire.len().div_ceil(m)),
            "one write, cut only by the mss ({mss:?})"
        );
    }
}

/// An answer is one event: a collecting node hands over the results a
/// delivery carried together — all fifteen and then the END when nothing
/// cut the answer — and, however the bytes were cut on the way, every
/// result once, in order, counted once, the END behind the last.
#[test]
fn an_answer_is_one_event() {
    for mss in [None, Some(7), Some(100)] {
        let config = SimConfig {
            mss,
            ..SimConfig::default()
        };
        let (mut net, parent, _) = pinned_net(config, 64);
        let asker = spawn_user(&mut net, HostLibrary::new(), true);
        net.sim.run_until(SimTime::from_secs(300));
        let before = with_node(&mut net.sim, asker, |n, _| {
            n.drain_events();
            n.stats().results_received
        });
        let id = with_node(&mut net.sim, asker, |n, ctx| n.search(ctx, "pinned"));
        net.sim.run_until(SimTime::from_secs(360));

        let want = with_node(&mut net.sim, parent, |n, ctx| {
            n.answer_reference(ctx.external_addr().ip, id, "pinned")
        });
        assert_eq!(want.len(), 15);
        let (events, received) = with_node(&mut net.sim, asker, |n, _| {
            (n.drain_events(), n.stats().results_received)
        });
        assert_eq!(received - before, 15, "mss {mss:?}");
        assert_eq!(results_of(&events), want, "mss {mss:?}");
        let parent_addr = net.sim.node_addr(parent);
        let mut batches = 0;
        for e in &events[..events.len() - 1] {
            let FtEvent::SearchResults { from, results, .. } = e else {
                panic!("{e:?} among the results (mss {mss:?})");
            };
            assert_eq!((*from, results.id()), (parent_addr, id));
            assert!(!results.is_empty());
            batches += 1;
        }
        assert!(
            matches!(events.last(), Some(FtEvent::SearchEnd { id: end, .. }) if *end == id),
            "END after the last result (mss {mss:?})"
        );
        if mss.is_none() {
            assert_eq!(batches, 1, "an uncut answer is one event");
        }
    }
}

/// A node whose outbound sessions are all up schedules nothing: over a
/// sim-day the only timers that fire are the users' hourly ambient
/// queries. Losing a session makes a node redial, and it is quiet again
/// once the slot is refilled.
#[test]
fn a_full_node_schedules_nothing() {
    let world = world(10);
    let mut sim = Simulator::new(SimConfig::default(), 10);
    // Two SEARCH nodes: B sessions with A, A waits to be dialed.
    let mut search_addrs: Vec<HostAddr> = Vec::new();
    let search_nodes: Vec<NodeId> = (0..2)
        .map(|i| {
            let cfg = FtConfig {
                target_sessions: i,
                ..FtConfig::search_node().with_bootstrap(search_addrs.clone())
            };
            let node = FtNode::new(cfg, world.clone(), HostLibrary::new());
            let id = sim.spawn(NodeSpec::public().listen(1215), Box::new(node));
            search_addrs.push(sim.node_addr(id));
            id
        })
        .collect();
    // Six users of one session each, three bootstrapped from either node
    // (B's users hear of A in B's NODELIST).
    let users: Vec<NodeId> = (0..6u32)
        .map(|u| {
            let cfg = FtConfig {
                target_sessions: 1,
                auto_query: Some(SimDuration::from_secs(3600)),
                ..FtConfig::user().with_bootstrap(vec![search_addrs[u as usize % 2]])
            };
            let lib = named_library(&world, u, &[format!("user_{u}.mp3")]);
            let node = FtNode::new(cfg, world.clone(), lib);
            sim.spawn(NodeSpec::public().listen(1215), Box::new(node))
        })
        .collect();
    let sessions = |sim: &mut Simulator, nodes: &[NodeId]| -> Vec<usize> {
        nodes
            .iter()
            .map(|&n| with_node(sim, n, |n, _| n.session_count()))
            .collect()
    };
    let searches = |sim: &mut Simulator| -> u64 {
        users
            .iter()
            .map(|&u| with_node(sim, u, |n, _| n.stats().searches_sent))
            .sum()
    };
    // Runs a sim-day and checks that every timer fired was an ambient query.
    let quiet_day = |sim: &mut Simulator| {
        let before = (sim.metrics().timers_fired, searches(sim));
        sim.run_until(sim.now() + SimDuration::from_secs(86_400));
        let timers = sim.metrics().timers_fired - before.0;
        assert_eq!(timers, searches(sim) - before.1);
        assert_eq!(timers, 6 * 24);
    };

    sim.run_until(SimTime::from_secs(600));
    assert_eq!(sessions(&mut sim, &users), [1; 6]);
    assert_eq!(sessions(&mut sim, &search_nodes), [4, 4]);
    quiet_day(&mut sim);

    // B goes: its three users redial at once, A or B as the draw falls, and
    // again a tick after each dial that B's absence refused.
    let established = sim.metrics().conns_established;
    sim.stop_node(search_nodes[1]);
    sim.run_until(sim.now() + SimDuration::from_secs(20 * 10));
    assert_eq!(sessions(&mut sim, &users), [1; 6]);
    assert_eq!(sessions(&mut sim, &search_nodes[..1]), [6]);
    assert_eq!(sim.metrics().conns_established, established + 3);
    quiet_day(&mut sim);
    assert_eq!(sim.metrics().conns_established, established + 3);
}

/// Answers the first bytes on a connection with a command nobody defined,
/// and logs when each connection arrived.
struct Garbage(Arc<Mutex<Vec<SimTime>>>);

impl App for Garbage {
    fn on_connected(&mut self, ctx: &mut Ctx<'_>, _: ConnId, _: Direction, _: HostAddr) {
        self.0.lock().unwrap().push(ctx.now());
    }
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _: &[u8]) {
        ctx.send(conn, &[0, 0, 0xFF, 0xFF]);
    }
}

/// A peer dropped for a bad packet leaves a slot only the tick refills:
/// the node is back on `known` one tick later — once a tick, not in a loop,
/// while the peer keeps earning its drop — and quiet once a sane SEARCH
/// node has taken the slot.
#[test]
fn a_dropped_peer_is_refilled_by_the_tick() {
    let world = world(11);
    let mut sim = Simulator::new(SimConfig::default(), 11);
    let arrivals = Arc::new(Mutex::new(Vec::new()));
    let garbage = sim.spawn(
        NodeSpec::public().listen(1215),
        Box::new(Garbage(Arc::clone(&arrivals))),
    );
    let cfg = FtConfig {
        target_sessions: 1,
        ..FtConfig::user().with_bootstrap(vec![sim.node_addr(garbage)])
    };
    let tick = cfg.tick.as_micros();
    let user = sim.spawn(
        NodeSpec::public().listen(1215),
        Box::new(FtNode::new(cfg, world.clone(), HostLibrary::new())),
    );
    sim.run_until(SimTime::from_days(1));
    let day: Vec<u64> = arrivals
        .lock()
        .unwrap()
        .iter()
        .map(|t| t.as_micros())
        .collect();
    // SYN-ACK, hello, reply, tick, SYN: a redial lands one tick and four
    // latencies (of a window + at most 150 ms each) after the dial before.
    let slack = 4 * 1_150_000;
    for gap in day.windows(2).map(|w| w[1] - w[0]) {
        assert!((tick..=tick + slack).contains(&gap), "gap {gap} us");
    }
    assert!(day.len() as u64 >= 86_400_000_000 / (tick + slack));
    assert_eq!(sim.metrics().conns_established, day.len() as u64);
    let stats = with_node(&mut sim, user, |n, _| n.stats());
    // (The day may end with the last reply still on its way.)
    assert!(day.len() as u64 - stats.bad_packets <= 1);
    assert_eq!(stats.sessions_up, 0);

    // A sane SEARCH node turns up in `known`: some tick picks it, the slot
    // is full and the node goes quiet.
    let cfg = FtConfig {
        target_sessions: 0,
        ..FtConfig::search_node()
    };
    let sane = sim.spawn(
        NodeSpec::public().listen(1215),
        Box::new(FtNode::new(cfg, world.clone(), HostLibrary::new())),
    );
    let addr = sim.node_addr(sane);
    with_node(&mut sim, user, |n, _| {
        n.add_known(NodeEntry {
            ip: addr.ip,
            port: addr.port,
            klass: CLASS_SEARCH,
        })
    });
    sim.run_until(SimTime::from_secs(86_400 + 600));
    assert_eq!(with_node(&mut sim, user, |n, _| n.session_count()), 1);
    let settled = (sim.metrics().conns_established, sim.metrics().timers_fired);
    sim.run_until(SimTime::from_days(3));
    let m = sim.metrics();
    assert_eq!((m.conns_established, m.timers_fired), settled);
}

/// Accepts every connection, logs when it arrived, and answers the first
/// bytes on each with `reply` (nothing at all when it is empty).
struct Scripted {
    arrivals: Arc<Mutex<Vec<SimTime>>>,
    reply: Vec<u8>,
}

impl App for Scripted {
    fn on_connected(&mut self, ctx: &mut Ctx<'_>, _: ConnId, _: Direction, _: HostAddr) {
        self.arrivals.lock().unwrap().push(ctx.now());
    }
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _: &[u8]) {
        if !self.reply.is_empty() {
            ctx.send(conn, &self.reply);
        }
    }
}

/// A dial whose hello goes unanswered — or is answered with a session but
/// no NODEINFO, as when the acceptor's hello is lost and its session reply
/// is not — holds its outbound slot only until the handshake times out:
/// the next event the node gets after that (here its hourly ambient query)
/// drops the connection, and the tick redials.
#[test]
fn an_unfinished_handshake_frees_its_slot() {
    let mut session_only = Vec::new();
    encode_packet(
        Command::Session,
        &Session::Response { accepted: true }.encode(),
        &mut session_only,
    );
    for reply in [Vec::new(), session_only] {
        let mut sim = Simulator::new(SimConfig::default(), 13);
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let peer = sim.spawn(
            NodeSpec::public().listen(1215),
            Box::new(Scripted {
                arrivals: Arc::clone(&arrivals),
                reply,
            }),
        );
        let hour = SimDuration::from_hours(1);
        let cfg = FtConfig {
            target_sessions: 1,
            auto_query: Some(hour),
            ..FtConfig::user().with_bootstrap(vec![sim.node_addr(peer)])
        };
        let tick = cfg.tick.as_micros();
        let user = sim.spawn(
            NodeSpec::public().listen(1215),
            Box::new(FtNode::new(cfg, world(13), HostLibrary::new())),
        );
        sim.run_until(SimTime::from_secs(4 * 3600));
        let day: Vec<u64> = arrivals
            .lock()
            .unwrap()
            .iter()
            .map(|t| t.as_micros())
            .collect();
        // One redial per ambient query that finds the handshake stale, a
        // tick (and a few latencies) after it.
        assert!((4..=5).contains(&day.len()), "{day:?}");
        let timeout = HANDSHAKE_TIMEOUT.as_micros();
        for gap in day.windows(2).map(|w| w[1] - w[0]) {
            assert!(gap >= timeout, "gap {gap} us");
            assert!(
                gap <= hour.as_micros() + timeout + tick + 4_000_000,
                "gap {gap} us"
            );
        }
        // The dropped connections are gone from the table: one dial open.
        let open = with_node(&mut sim, user, |n, _| n.conns.len());
        assert_eq!(open, 1);
    }
}

/// A dial that reaches a USER node — one that corrupted bytes listed as a
/// SEARCH node — is dropped as soon as the peer's NODEINFO says so, though
/// the peer accepts the session: the slot is free, and the address is
/// forgotten unless it is a bootstrap node, which the next tick redials.
#[test]
fn a_user_class_peer_gives_its_slot_back() {
    let mut reply = Vec::new();
    let user_info = NodeInfo {
        klass: CLASS_USER,
        port: 1215,
        http_port: 1215,
        alias: "user".into(),
    };
    encode_packet(Command::Version, &Version::CURRENT.encode(), &mut reply);
    encode_packet(Command::NodeInfo, &user_info.encode(), &mut reply);
    encode_packet(
        Command::Session,
        &Session::Response { accepted: true }.encode(),
        &mut reply,
    );
    for bootstrap in [false, true] {
        let mut sim = Simulator::new(SimConfig::default(), 15);
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let peer = sim.spawn(
            NodeSpec::public().listen(1215),
            Box::new(Scripted {
                arrivals: Arc::clone(&arrivals),
                reply: reply.clone(),
            }),
        );
        let addr = sim.node_addr(peer);
        let cfg = FtConfig {
            target_sessions: 1,
            ..FtConfig::user().with_bootstrap(if bootstrap { vec![addr] } else { vec![] })
        };
        let tick = cfg.tick;
        let user = sim.spawn(
            NodeSpec::public().listen(1215),
            Box::new(FtNode::new(cfg, world(15), HostLibrary::new())),
        );
        sim.run_until(SimTime::from_secs(1));
        if !bootstrap {
            with_node(&mut sim, user, |n, ctx| {
                n.add_known(NodeEntry {
                    ip: addr.ip,
                    port: addr.port,
                    klass: CLASS_SEARCH,
                });
                n.maintain(ctx);
            });
        }
        sim.run_until(SimTime::from_secs(6));
        assert_eq!(arrivals.lock().unwrap().len(), 1);
        let (open, up, known) = with_node(&mut sim, user, |n, _| {
            let known = n.known.iter().any(|k| HostAddr::new(k.ip, k.port) == addr);
            (n.conns.len(), n.session_count(), known)
        });
        assert_eq!((open, up), (0, 0), "bootstrap {bootstrap}");
        assert_eq!(known, bootstrap);
        sim.run_until(SimTime::from_secs(6) + tick + SimDuration::from_secs(5));
        let dials = if bootstrap { 2 } else { 1 };
        assert_eq!(arrivals.lock().unwrap().len(), dials);
    }
}

/// A node that churns comes back with no connection of its last session:
/// the redial its dying `on_closed` made was discarded with the rest of its
/// reactions, and must not hold the outbound slot after the restart.
#[test]
fn a_restarted_node_redials_every_slot() {
    let world = world(14);
    let faults = p2pmal_netsim::FaultPlan {
        churn: Some(p2pmal_netsim::ChurnSpec {
            fraction: 1.0,
            uptime_secs: (3_600, 3_600),
            downtime_secs: (600, 600),
        }),
        ..p2pmal_netsim::FaultPlan::none()
    };
    let mut sim = Simulator::new(
        SimConfig {
            faults,
            ..SimConfig::default()
        },
        14,
    );
    let search = sim.spawn(
        NodeSpec::public().listen(1215).durable(),
        Box::new(FtNode::new(
            FtConfig::search_node(),
            world.clone(),
            HostLibrary::new(),
        )),
    );
    let cfg = FtConfig {
        target_sessions: 1,
        ..FtConfig::user().with_bootstrap(vec![sim.node_addr(search)])
    };
    let user = sim.spawn(
        NodeSpec::public().listen(1215),
        Box::new(FtNode::new(cfg, world, HostLibrary::new())),
    );
    // Five sessions, each ended by churn; look a minute into the sixth.
    sim.run_until(SimTime::from_secs(5 * 4_200 + 60));
    assert!(sim.is_alive(user));
    let (sessions, up) = with_node(&mut sim, user, |n, _| {
        (n.session_count(), n.stats().sessions_up)
    });
    assert_eq!(sessions, 1);
    assert_eq!(up, 6);
}

/// A refused dial forgets the address it went to, so the next tick dials
/// only what is left — here the bootstrap node, which is never forgotten —
/// and a NODELIST that names the address again brings it back.
#[test]
fn a_refused_address_is_forgotten_but_bootstrap_is_not() {
    let phantom = |last| HostAddr::new(std::net::Ipv4Addr::new(9, 9, 9, last), 1215);
    let (boot, learned) = (phantom(1), phantom(2));
    let mut sim = Simulator::new(SimConfig::default(), 12);
    let cfg = FtConfig {
        target_sessions: 2,
        ..FtConfig::user().with_bootstrap(vec![boot])
    };
    let tick = cfg.tick;
    let user = sim.spawn(
        NodeSpec::public().listen(1215),
        Box::new(FtNode::new(cfg, world(12), HostLibrary::new())),
    );
    let nodelist = NodeList::Response(vec![NodeEntry {
        ip: learned.ip,
        port: learned.port,
        klass: CLASS_SEARCH,
    }])
    .encode();
    let known = |sim: &mut Simulator| {
        with_node(sim, user, |n, _| {
            let mut k: Vec<HostAddr> = n
                .known
                .iter()
                .map(|e| HostAddr::new(e.ip, e.port))
                .collect();
            k.sort();
            k
        })
    };
    // A refusal arrives within a few seconds of its dial.
    let settle = SimDuration::from_secs(5);
    sim.run_until(SimTime::ZERO + settle);
    assert_eq!(sim.metrics().conns_failed, 1);
    with_node(&mut sim, user, |n, ctx| {
        n.handle_packet(ctx, ConnId(u64::MAX), Command::NodeList, &nodelist)
    });
    assert_eq!(known(&mut sim), [boot, learned]);
    // The next tick dials both; both are refused.
    let failed = sim.metrics().conns_failed;
    sim.run_until(sim.now() + tick + settle);
    assert_eq!(sim.metrics().conns_failed, failed + 2);
    assert_eq!(known(&mut sim), [boot]);
    // What the tick after that dials: the bootstrap node alone.
    let dialed = with_node(&mut sim, user, |n, ctx| {
        n.maintain(ctx);
        n.conns
            .values()
            .filter_map(|k| match k {
                ConnKind::Peer(p) if p.outbound => Some(p.peer_addr),
                _ => None,
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(dialed, [boot]);
    with_node(&mut sim, user, |n, ctx| {
        n.handle_packet(ctx, ConnId(u64::MAX), Command::NodeList, &nodelist)
    });
    assert_eq!(known(&mut sim), [boot, learned]);
}

/// A node nobody reads events from checks a result and counts it without
/// materialising it; a result `Search::parse` rejects is still rejected.
#[test]
fn non_collecting_user_validates_results_without_keeping_them() {
    let mut net = build(9, 1);
    let user = spawn_user(&mut net, HostLibrary::new(), false);
    net.sim.run_until(SimTime::from_secs(120));
    let good = Search::Result(SearchResult {
        id: 1,
        host: std::net::Ipv4Addr::new(10, 0, 0, 7),
        port: 1215,
        http_port: 1215,
        avail: 1,
        md5: p2pmal_hashes::md5(b"x"),
        size: 9,
        filename: "tool.exe".into(),
    })
    .encode();
    let mut unterminated = good.clone();
    unterminated.pop();
    let before = with_node(&mut net.sim, user, |n, _| n.stats());
    with_node(&mut net.sim, user, |n, ctx| {
        n.handle_packet(ctx, ConnId(u64::MAX), Command::Search, &good);
        n.handle_packet(ctx, ConnId(u64::MAX), Command::Search, &unterminated);
    });
    let (after, events) = with_node(&mut net.sim, user, |n, _| (n.stats(), n.drain_events()));
    assert_eq!(after.results_received - before.results_received, 1);
    assert_eq!(after.bad_packets - before.bad_packets, 1);
    assert!(events.is_empty());
}

/// A search reads two column entries a row and follows few rows, but
/// `app_bytes_per_node` counts every one: host and ports are the child's
/// (`FtNode::child_addr`), so a field added here shows up as a failed
/// test, not as a moved benchmark metric.
#[cfg(target_pointer_width = "64")]
#[test]
fn index_row_stays_40_bytes() {
    assert_eq!(std::mem::size_of::<IndexedShare>(), 40);
}

/// A NODELIST that does not parse ends its session: the stream is
/// misframed from there on, so a well-formed NODELIST right behind it on
/// the same read is never believed, and `known` stays as it was.
#[test]
fn a_garbage_nodelist_drops_the_session_and_teaches_nothing() {
    let mut net = build(13, 1);
    let user = spawn_user(&mut net, HostLibrary::new(), false);
    net.sim.run_until(SimTime::from_secs(120));
    let learned = NodeList::Response(vec![NodeEntry {
        ip: std::net::Ipv4Addr::new(9, 9, 9, 9),
        port: 1215,
        klass: CLASS_SEARCH,
    }]);
    let mut data = Vec::new();
    encode_packet(Command::NodeList, &[0xde, 0xad, 0xbe], &mut data);
    encode_packet(Command::NodeList, &learned.encode(), &mut data);
    let (before, after) = with_node(&mut net.sim, user, |n, ctx| {
        let state = |n: &FtNode| (n.session_count(), n.stats().bad_packets, n.known.clone());
        let before = state(n);
        let conn = *n
            .conns
            .iter()
            .find(|(_, k)| matches!(k, ConnKind::Peer(p) if p.session))
            .expect("a live session")
            .0;
        n.pump_peer(ctx, conn, &data);
        assert!(!n.conns.contains_key(&conn), "the session is dropped");
        (before, state(n))
    });
    assert_eq!((after.0, after.1), (before.0 - 1, before.1 + 1));
    assert_eq!(after.2, before.2, "known is unchanged");
}
