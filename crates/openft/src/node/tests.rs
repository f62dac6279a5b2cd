//! End-to-end OpenFT node tests over the simulator.

use super::*;
use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, FamilyId, Roster};
use p2pmal_netsim::{NodeId, NodeSpec, SimConfig, SimTime, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

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
    let result = events
        .iter()
        .find_map(|e| match e {
            FtEvent::SearchResult { result, .. } => Some(result.clone()),
            _ => None,
        })
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
    let results: Vec<SearchResult> = events
        .into_iter()
        .filter_map(|e| match e {
            FtEvent::SearchResult { result, .. } => Some(result),
            _ => None,
        })
        .collect();
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
    let result = events
        .iter()
        .find_map(|e| match e {
            FtEvent::SearchResult { result, .. } => Some(result.clone()),
            _ => None,
        })
        .expect("bait found");
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
    assert_eq!(outcome, Err(FtDownloadError::Http(404)));
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
