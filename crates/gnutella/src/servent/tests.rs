//! End-to-end servent tests: real wire bytes over the discrete-event
//! simulator.

use super::*;
use crate::payload::HitResult;
use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, FamilyId, HostLibrary, Roster};
use p2pmal_netsim::{NodeId, NodeSpec, SimConfig, SimTime, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        Arc::new(Roster::limewire_2006()),
        Arc::new(ContentStore::new(seed)),
    )
}

/// A small overlay: `ups` ultrapeers meshed via bootstrap, plus the given
/// leaf libraries hanging off them. Returns (sim, up ids, leaf ids).
struct TestNet {
    sim: Simulator,
    ups: Vec<NodeId>,
    leaves: Vec<NodeId>,
    world: SharedWorld,
}

fn build_net(seed: u64, ups: usize, leaf_libs: Vec<(HostLibrary, bool)>) -> TestNet {
    build_net_on(SimConfig::default(), seed, ups, leaf_libs)
}

fn build_net_on(
    config: SimConfig,
    seed: u64,
    ups: usize,
    leaf_libs: Vec<(HostLibrary, bool)>,
) -> TestNet {
    let world = world(seed);
    let mut sim = Simulator::new(config, seed);
    let mut up_ids = Vec::new();
    let mut up_addrs = Vec::new();
    for _ in 0..ups {
        let cfg = ServentConfig::ultrapeer().with_bootstrap(up_addrs.clone());
        let servent = Servent::new(cfg, world.clone(), HostLibrary::new());
        let id = sim.spawn(NodeSpec::public().listen(6346), Box::new(servent));
        up_addrs.push(sim.node_addr(id));
        up_ids.push(id);
    }
    let mut leaf_ids = Vec::new();
    for (lib, nat) in leaf_libs {
        let cfg = ServentConfig::leaf().with_bootstrap(up_addrs.clone());
        let servent = Servent::new(cfg, world.clone(), lib);
        let spec = if nat {
            NodeSpec::nat()
        } else {
            NodeSpec::public().listen(6346)
        };
        let id = sim.spawn(spec, Box::new(servent));
        leaf_ids.push(id);
    }
    // Let the overlay converge.
    sim.run_until(SimTime::from_secs(60));
    TestNet {
        sim,
        ups: up_ids,
        leaves: leaf_ids,
        world,
    }
}

fn with_servent<R>(
    sim: &mut Simulator,
    node: NodeId,
    f: impl FnOnce(&mut Servent, &mut p2pmal_netsim::Ctx<'_>) -> R,
) -> R {
    sim.with_node(node, |app, ctx| {
        let s = app
            .as_any_mut()
            .expect("servent supports downcast")
            .downcast_mut::<Servent>()
            .expect("node is a Servent");
        f(s, ctx)
    })
    .expect("node alive")
}

/// A QUERYHIT of one 10-byte result from `servent_guid`.
fn one_result_hit(servent_guid: Guid) -> QueryHit {
    QueryHit {
        port: 6346,
        ip: std::net::Ipv4Addr::new(10, 0, 0, 9),
        speed: 350,
        results: vec![HitResult {
            index: 1,
            size: 10,
            name: "a.mp3".into(),
            sha1: None,
        }],
        vendor: *b"LIME",
        flags: QhdFlags::new(),
        ggep: Vec::new(),
        servent_guid,
    }
}

/// A leaf that shares a benign title; a second (crawler-style) leaf
/// searches for it and gets a routed QUERYHIT back through the ultrapeer.
#[test]
fn query_flood_and_hit_routing() {
    let w = world(1);
    let mut lib = HostLibrary::new();
    lib.add_benign(w.catalog.item(0), 0);
    let kw = w.catalog.item(0).keywords.clone();
    let mut net = build_net(1, 2, vec![(lib, false)]);
    // Crawler leaf joins.
    let crawler = {
        let cfg = ServentConfig {
            collect_events: true,
            ..ServentConfig::leaf().with_bootstrap(vec![net.sim.node_addr(net.ups[0])])
        };
        let servent = Servent::new(cfg, net.world.clone(), HostLibrary::new());
        net.sim
            .spawn(NodeSpec::public().listen(6346), Box::new(servent))
    };
    net.sim.run_until(SimTime::from_secs(120));

    assert!(
        with_servent(&mut net.sim, crawler, |s, _| s.peer_count()) > 0,
        "crawler connected"
    );
    let query = kw.join(" ");
    with_servent(&mut net.sim, crawler, |s, ctx| s.search(ctx, &query));
    net.sim.run_until(SimTime::from_secs(180));

    let events = with_servent(&mut net.sim, crawler, |s, _| s.drain_events());
    let hits: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            ServentEvent::QueryHit { hit, .. } => Some(hit.clone()),
            _ => None,
        })
        .collect();
    assert!(
        !hits.is_empty(),
        "expected a query hit, got events: {}",
        events.len()
    );
    let names: Vec<&str> = hits
        .iter()
        .flat_map(|h| h.results.iter().map(|r| r.name.as_str()))
        .collect();
    assert!(
        names.iter().any(|n| n.contains(&kw[0])),
        "hit should name the shared file: {names:?}"
    );
    // The sharer is public, so no push flag.
    assert!(!hits[0].flags.needs_push());
}

/// An echo-worm leaf answers a query for an arbitrary string with
/// `<query>.exe`, and the payload downloads and convicts.
#[test]
fn echo_worm_answers_everything_and_download_scans_dirty() {
    let w = world(2);
    let mut lib = HostLibrary::new();
    let mut rng = StdRng::seed_from_u64(7);
    lib.infect(w.roster.get(FamilyId(0)), &w.catalog, &mut rng);

    let mut net = build_net(2, 1, vec![(lib, false)]);
    let crawler = {
        let cfg = ServentConfig {
            collect_events: true,
            ..ServentConfig::leaf().with_bootstrap(vec![net.sim.node_addr(net.ups[0])])
        };
        net.sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, net.world.clone(), HostLibrary::new())),
        )
    };
    net.sim.run_until(SimTime::from_secs(120));

    with_servent(&mut net.sim, crawler, |s, ctx| {
        s.search(ctx, "definitely nonexistent words")
    });
    net.sim.run_until(SimTime::from_secs(200));
    let events = with_servent(&mut net.sim, crawler, |s, _| s.drain_events());
    let hit = events
        .iter()
        .find_map(|e| match e {
            ServentEvent::QueryHit { hit, .. } => Some(hit.clone()),
            _ => None,
        })
        .expect("echo worm must answer");
    let res = &hit.results[0];
    assert_eq!(res.name, "definitely_nonexistent_words.exe");
    assert_eq!(res.size as u64, w.roster.get(FamilyId(0)).sizes[0]);
    assert!(res.index >= ECHO_INDEX_BASE);

    // Download it directly and scan.
    let addr = HostAddr::new(hit.ip, hit.port);
    with_servent(&mut net.sim, crawler, |s, ctx| {
        s.begin_download(
            ctx,
            DownloadRequest {
                addr,
                index: res.index,
                name: res.name.clone(),
                servent_guid: hit.servent_guid,
                method: DownloadMethod::Direct,
            },
        )
    });
    net.sim.run_until(SimTime::from_secs(400));
    let events = with_servent(&mut net.sim, crawler, |s, _| s.drain_events());
    let body = events
        .iter()
        .find_map(|e| match e {
            ServentEvent::DownloadDone(d) => Some(d.result.clone().expect("download ok")),
            _ => None,
        })
        .expect("download completed");
    assert_eq!(body.len() as u64, w.roster.get(FamilyId(0)).sizes[0]);
    let scanner = p2pmal_scanner::Scanner::new(w.roster.signature_db().unwrap().build().unwrap());
    let verdict = scanner.scan(&res.name, &body);
    assert_eq!(
        verdict.primary(),
        Some(w.roster.get(FamilyId(0)).name.as_str())
    );
    // The download's connection left the table with the download.
    with_servent(&mut net.sim, crawler, |s, _| {
        assert!(only_peers_and_dials(s))
    });
}

/// A NATed infected leaf advertises its private address; direct dialing
/// fails, but a routed PUSH + GIV completes the transfer.
#[test]
fn nat_leaf_requires_push_and_giv_transfer_works() {
    let w = world(3);
    let mut lib = HostLibrary::new();
    let mut rng = StdRng::seed_from_u64(8);
    lib.infect(w.roster.get(FamilyId(0)), &w.catalog, &mut rng);

    let mut net = build_net(3, 1, vec![(lib, true)]); // NATed sharer
    let crawler = {
        let cfg = ServentConfig {
            collect_events: true,
            ..ServentConfig::leaf().with_bootstrap(vec![net.sim.node_addr(net.ups[0])])
        };
        net.sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, net.world.clone(), HostLibrary::new())),
        )
    };
    net.sim.run_until(SimTime::from_secs(120));

    with_servent(&mut net.sim, crawler, |s, ctx| {
        s.search(ctx, "any random thing")
    });
    net.sim.run_until(SimTime::from_secs(200));
    let events = with_servent(&mut net.sim, crawler, |s, _| s.drain_events());
    let hit = events
        .iter()
        .find_map(|e| match e {
            ServentEvent::QueryHit { hit, .. } => Some(hit.clone()),
            _ => None,
        })
        .expect("worm answered");
    // The paper's artifact: the advertised address is RFC 1918.
    assert!(
        HostAddr::new(hit.ip, hit.port).is_private(),
        "advertised {}",
        hit.ip
    );
    assert!(hit.flags.needs_push());

    // Direct download fails (private address unroutable)...
    let res = hit.results[0].clone();
    with_servent(&mut net.sim, crawler, |s, ctx| {
        s.begin_download(
            ctx,
            DownloadRequest {
                addr: HostAddr::new(hit.ip, hit.port),
                index: res.index,
                name: res.name.clone(),
                servent_guid: hit.servent_guid,
                method: DownloadMethod::Direct,
            },
        )
    });
    net.sim.run_until(SimTime::from_secs(400));
    let events = with_servent(&mut net.sim, crawler, |s, _| s.drain_events());
    let direct = events
        .iter()
        .find_map(|e| match e {
            ServentEvent::DownloadDone(d) => Some(d.result.clone()),
            _ => None,
        })
        .expect("direct attempt resolved");
    assert!(direct.is_err(), "dialing a private address must fail");

    // ...but PUSH succeeds.
    with_servent(&mut net.sim, crawler, |s, ctx| {
        s.begin_download(
            ctx,
            DownloadRequest {
                addr: HostAddr::new(hit.ip, hit.port),
                index: res.index,
                name: res.name.clone(),
                servent_guid: hit.servent_guid,
                method: DownloadMethod::Push,
            },
        )
    });
    net.sim.run_until(SimTime::from_secs(700));
    let events = with_servent(&mut net.sim, crawler, |s, _| s.drain_events());
    let pushed = events
        .iter()
        .find_map(|e| match e {
            ServentEvent::DownloadDone(d) => Some(d.result.clone()),
            _ => None,
        })
        .expect("push attempt resolved");
    let body = pushed.expect("push download succeeds");
    assert_eq!(body.len() as u64, w.roster.get(FamilyId(0)).sizes[0]);
}

/// QRP keeps non-matching queries away from clean leaves but echo worms
/// saturate their tables and receive everything.
#[test]
fn qrp_suppresses_clean_leaves_but_not_worms() {
    let w = world(4);
    let mut clean = HostLibrary::new();
    clean.add_benign(w.catalog.item(3), 0);
    let mut dirty = HostLibrary::new();
    let mut rng = StdRng::seed_from_u64(9);
    dirty.infect(w.roster.get(FamilyId(0)), &w.catalog, &mut rng);

    let mut net = build_net(4, 1, vec![(clean, false), (dirty, false)]);
    let crawler = {
        let cfg = ServentConfig {
            collect_events: true,
            ..ServentConfig::leaf().with_bootstrap(vec![net.sim.node_addr(net.ups[0])])
        };
        net.sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, net.world.clone(), HostLibrary::new())),
        )
    };
    net.sim.run_until(SimTime::from_secs(120));
    for i in 0..10 {
        with_servent(&mut net.sim, crawler, |s, ctx| {
            s.search(ctx, &format!("unmatchable terms {i}"))
        });
    }
    net.sim.run_until(SimTime::from_secs(400));

    let up_stats = with_servent(&mut net.sim, net.ups[0], |s, _| s.stats());
    assert!(
        up_stats.qrp_last_hop_suppressed > 0,
        "ultrapeer should suppress last-hop deliveries to the clean leaf"
    );
    // The clean leaf answered nothing; the worm answered every query.
    let clean_stats = with_servent(&mut net.sim, net.leaves[0], |s, _| s.stats());
    let dirty_stats = with_servent(&mut net.sim, net.leaves[1], |s, _| s.stats());
    assert_eq!(clean_stats.queries_answered, 0);
    assert!(
        dirty_stats.queries_answered >= 10,
        "worm answered {}",
        dirty_stats.queries_answered
    );
}

/// Ultrapeers hand out their host cache on leaf-slot exhaustion, and the
/// rejected leaf retries elsewhere.
#[test]
fn leaf_slot_rejection_redirects_to_other_ultrapeers() {
    let w = world(5);
    let mut sim = Simulator::new(SimConfig::default(), 5);
    // One full ultrapeer (0 slots) that knows a second, open ultrapeer.
    let open_up = {
        let cfg = ServentConfig::ultrapeer();
        sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, w.clone(), HostLibrary::new())),
        )
    };
    let open_addr = sim.node_addr(open_up);
    let full_up = {
        let mut cfg = ServentConfig::ultrapeer().with_bootstrap(vec![open_addr]);
        cfg.max_leaf_slots = 0;
        sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, w.clone(), HostLibrary::new())),
        )
    };
    let full_addr = sim.node_addr(full_up);
    sim.run_until(SimTime::from_secs(60));

    let leaf = {
        let cfg = ServentConfig::leaf().with_bootstrap(vec![full_addr]);
        sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, w, HostLibrary::new())),
        )
    };
    sim.run_until(SimTime::from_secs(300));
    let peers = sim
        .with_node(leaf, |app, _| {
            app.as_any_mut()
                .unwrap()
                .downcast_mut::<Servent>()
                .unwrap()
                .peer_count()
        })
        .unwrap();
    assert!(
        peers >= 1,
        "leaf found the open ultrapeer via X-Try-Ultrapeers"
    );
    // The leaf redials the full ultrapeer at every tick and is turned away
    // each time; neither side keeps anything of a refused handshake.
    for node in [leaf, full_up] {
        with_servent(&mut sim, node, |s, _| assert!(only_peers_and_dials(s)));
    }
}

/// Whether `s` holds nothing but overlay connections and dials still
/// under way: a connection it closed (a finished download, a refused
/// handshake) has left its table, since no `on_closed` comes for it.
fn only_peers_and_dials(s: &Servent) -> bool {
    s.conns
        .values()
        .all(|k| matches!(k, ConnKind::Peer(_) | ConnKind::HsOut(_)))
}

/// Floods a few queries through a three-ultrapeer mesh and sums the
/// traffic counters the one-touch data path rests on over every servent.
fn flood_traffic(mss: Option<usize>) -> ServentStats {
    let w = world(6);
    let mut lib = HostLibrary::new();
    lib.add_benign(w.catalog.item(0), 0);
    let query = w.catalog.item(0).keywords.join(" ");
    let config = SimConfig {
        mss,
        ..SimConfig::default()
    };
    let mut net = build_net_on(config, 6, 3, vec![(lib, false)]);
    let crawler = {
        let cfg = ServentConfig {
            collect_events: true,
            ..ServentConfig::leaf().with_bootstrap(vec![net.sim.node_addr(net.ups[0])])
        };
        let servent = Servent::new(cfg, net.world.clone(), HostLibrary::new());
        net.sim
            .spawn(NodeSpec::public().listen(6346), Box::new(servent))
    };
    net.sim.run_until(SimTime::from_secs(120));
    for _ in 0..5 {
        with_servent(&mut net.sim, crawler, |s, ctx| s.search(ctx, &query));
    }
    net.sim.run_until(SimTime::from_secs(240));
    let hits = with_servent(&mut net.sim, crawler, |s, _| s.stats().hits_received);
    assert!(hits >= 5, "every query answered, whatever the chunking");
    let mut total = ServentStats::default();
    for node in net.ups.iter().chain(&net.leaves).chain([&crawler]) {
        let stats = with_servent(&mut net.sim, *node, |s, _| s.stats());
        total.queries_routed += stats.queries_routed;
        total.queries_duplicate += stats.queries_duplicate;
        total.frames_reassembled += stats.frames_reassembled;
        total.bad_messages += stats.bad_messages;
    }
    total
}

/// The traffic the fast path assumes, measured: a meshed flood delivers
/// duplicates, and with whole-send delivery no overlay message ever has to
/// be reassembled — only a small MSS sends them through the buffer.
#[test]
fn flood_counts_duplicates_and_reassembly() {
    let whole = flood_traffic(None);
    assert!(whole.queries_duplicate > 0, "a mesh floods duplicates");
    assert_eq!(
        whole.frames_reassembled, 0,
        "one send, one chunk, one frame"
    );
    assert_eq!(whole.bad_messages, 0);
    let split = flood_traffic(Some(16));
    assert!(
        split.frames_reassembled > 0,
        "16-byte chunks split every header"
    );
    assert_eq!(split.bad_messages, 0);
    // Chunking changes when bytes arrive, not what the overlay routes.
    assert_eq!(split.queries_routed, whole.queries_routed);
}

/// A routed QUERYHIT is only validated, never parsed — but what the parser
/// would reject must still be rejected: not forwarded, no push route
/// learned from it, and counted.
#[test]
fn malformed_routed_hit_is_rejected_without_a_parse() {
    let mut sim = Simulator::new(SimConfig::default(), 7);
    let servent = Servent::new(ServentConfig::ultrapeer(), world(7), HostLibrary::new());
    let node = sim.spawn(NodeSpec::public().listen(6346), Box::new(servent));
    sim.run_until(SimTime::from_secs(1));
    with_servent(&mut sim, node, |s, ctx| {
        let query = Guid([7; 16]);
        let (good, bad) = (Guid([1; 16]), Guid([2; 16]));
        let now = ctx.now();
        s.guids.insert(now, query, Route::Via(ConnId(99)));
        let hit = one_result_hit;
        let mut deliver = |s: &mut Servent, query: Guid, payload: &[u8]| {
            let header = Header {
                guid: query,
                msg_type: MsgType::QueryHit,
                ttl: 3,
                hops: 1,
                payload_len: payload.len() as u32,
            };
            s.handle_query_hit(ctx, ConnId(5), header, payload);
        };
        deliver(s, query, &hit(good).encode());
        assert_eq!((s.stats.hits_routed, s.stats.bad_messages), (1, 0));
        assert_eq!(s.push_routes.get(&good), Some(&ConnId(5)));

        let mut payload = hit(bad).encode();
        payload[0] = 2; // claims two results, carries one
        assert!(QueryHit::parse(&payload).is_err());
        deliver(s, query, &payload);
        assert_eq!((s.stats.hits_routed, s.stats.bad_messages), (1, 1));
        assert_eq!(s.push_routes.get(&bad), None);

        // Same for a hit answering our own query when nobody drains our
        // events: counted when sound, rejected when not, never parsed.
        let own = Guid([8; 16]);
        s.searches.insert(own, now);
        deliver(s, own, &payload);
        assert_eq!((s.stats.hits_received, s.stats.bad_messages), (0, 2));
        assert_eq!(s.push_routes.get(&bad), None);
        deliver(s, own, &hit(bad).encode());
        assert_eq!((s.stats.hits_received, s.stats.bad_messages), (1, 2));
        assert_eq!(s.push_routes.get(&bad), Some(&ConnId(5)));
        assert!(s.drain_events().is_empty());
    });
}

/// A duplicate QUERY goes on its header: counted, not re-routed, and its
/// payload (here: garbage) is never looked at.
#[test]
fn duplicate_query_is_dropped_on_its_header() {
    let mut sim = Simulator::new(SimConfig::default(), 8);
    let servent = Servent::new(ServentConfig::ultrapeer(), world(8), HostLibrary::new());
    let node = sim.spawn(NodeSpec::public().listen(6346), Box::new(servent));
    sim.run_until(SimTime::from_secs(1));
    with_servent(&mut sim, node, |s, ctx| {
        let payload = Query::keyword("crimson horizon").encode();
        let header = Header {
            guid: Guid([9; 16]),
            msg_type: MsgType::Query,
            ttl: 3,
            hops: 0,
            payload_len: payload.len() as u32,
        };
        // Malformed and fresh: counted as bad, and not remembered.
        s.handle_query(ctx, ConnId(5), header, &[0xFF]);
        assert_eq!((s.stats.bad_messages, s.guids.len()), (1, 0));
        s.handle_query(ctx, ConnId(5), header, &payload);
        s.handle_query(ctx, ConnId(6), header, &payload);
        s.handle_query(ctx, ConnId(6), header, &[0xFF]);
        let stats = s.stats;
        assert_eq!(stats.queries_routed, 1);
        assert_eq!(stats.queries_duplicate, 2);
        assert_eq!(
            stats.bad_messages, 1,
            "a malformed duplicate is a duplicate"
        );
        assert_eq!(
            s.guids.get(ctx.now(), &header.guid),
            Some(Route::Via(ConnId(5)))
        );
    });
}

/// The connection an ultrapeer holds to its (only) leaf.
fn leaf_conn(sim: &mut Simulator, up: NodeId) -> ConnId {
    with_servent(sim, up, |s, _| {
        s.conns
            .iter()
            .find_map(|(&c, k)| matches!(k, ConnKind::Peer(p) if !p.ultrapeer).then_some(c))
            .expect("the leaf attached to every ultrapeer")
    })
}

/// A leaf forwards nothing, so it keeps no reverse path for a query that
/// is not its own: it answers on the connection the query arrived on, and
/// a QUERYHIT that turns up carrying that GUID on another connection (a
/// confused or hostile ultrapeer) is checked, its push route kept, and
/// dropped — not relayed up, as it was while the leaf remembered every
/// foreign query's arrival connection. Its own searches are routed as ever.
#[test]
fn leaf_answers_on_the_arrival_connection_and_relays_no_hit() {
    let w = world(9);
    let mut lib = HostLibrary::new();
    lib.add_benign(w.catalog.item(0), 0);
    let text = w.catalog.item(0).keywords.join(" ");
    let mut net = build_net(9, 2, Vec::new());
    let up_addrs: Vec<HostAddr> = net.ups.iter().map(|&u| net.sim.node_addr(u)).collect();
    let leaf = {
        let cfg = ServentConfig {
            collect_events: true,
            ..ServentConfig::leaf().with_bootstrap(up_addrs)
        };
        let servent = Servent::new(cfg, net.world.clone(), lib);
        net.sim
            .spawn(NodeSpec::public().listen(6346), Box::new(servent))
    };
    net.sim.run_until(SimTime::from_secs(120));
    let (up0, up1) = (net.ups[0], net.ups[1]);
    let (conn0, conn1) = (leaf_conn(&mut net.sim, up0), leaf_conn(&mut net.sim, up1));
    let leaf_guid = with_servent(&mut net.sim, leaf, |s, _| s.servent_guid());
    let push_route = |sim: &mut Simulator, node, guid: Guid| {
        with_servent(sim, node, |s, _| s.push_routes.get(&guid).copied())
    };
    let send = |sim: &mut Simulator, up, conn, guid, msg_type, payload: &[u8]| {
        let mut wire = Vec::new();
        encode_message(guid, msg_type, 3, 1, payload, &mut wire);
        with_servent(sim, up, |_, ctx| ctx.send(conn, &wire));
        let soon = sim.now() + SimDuration::from_secs(5);
        sim.run_until(soon);
    };

    // A foreign QUERY arrives from ultrapeer 0: the answer goes back there
    // (it is where the leaf's servent GUID is learned), and only there.
    let foreign = Guid([0xA1; 16]);
    let query = Query::keyword(&text).encode();
    send(&mut net.sim, up0, conn0, foreign, MsgType::Query, &query);
    assert_eq!(push_route(&mut net.sim, up0, leaf_guid), Some(conn0));
    assert_eq!(push_route(&mut net.sim, up1, leaf_guid), None);
    with_servent(&mut net.sim, leaf, |s, ctx| {
        assert_eq!((s.stats.queries_routed, s.stats.queries_answered), (1, 1));
        let route = s.guids.get(ctx.now(), &foreign);
        assert_eq!(route, Some(Route::Seen), "no route for a foreign query");
    });

    // A QUERYHIT with that GUID arrives from ultrapeer 1.
    let stray = Guid([0xB2; 16]);
    let hit = one_result_hit(stray).encode();
    send(&mut net.sim, up1, conn1, foreign, MsgType::QueryHit, &hit);
    let stats = with_servent(&mut net.sim, leaf, |s, _| s.stats());
    assert_eq!(
        (stats.hits_routed, stats.hits_received, stats.bad_messages),
        (0, 0, 0)
    );
    assert!(push_route(&mut net.sim, leaf, stray).is_some());
    // Nothing went up: a relayed hit would have taught its servent GUID to
    // the ultrapeer it reached.
    assert_eq!(push_route(&mut net.sim, up0, stray), None);
    assert_eq!(push_route(&mut net.sim, up1, stray), None);

    // The leaf's own search is its only route, and a hit for it reaches
    // the owner.
    let own = with_servent(&mut net.sim, leaf, |s, ctx| s.search(ctx, "anything else"));
    with_servent(&mut net.sim, leaf, |s, ctx| {
        assert!(s.is_own(ctx.now(), &own));
        assert_eq!(s.guids.get(ctx.now(), &own), None);
        s.drain_events();
    });
    send(&mut net.sim, up1, conn1, own, MsgType::QueryHit, &hit);
    let events = with_servent(&mut net.sim, leaf, |s, _| s.drain_events());
    assert!(
        matches!(
            events.as_slice(),
            [ServentEvent::QueryHit { query_guid, hit, .. }]
                if *query_guid == own && hit.servent_guid == stray
        ),
        "{events:?}"
    );
    let stats = with_servent(&mut net.sim, leaf, |s, _| s.stats());
    assert_eq!((stats.hits_routed, stats.hits_received), (0, 1));
}

/// Push routes are kept only where a PUSH is sent or routed. Two leaves
/// search for a title two responders share: the owned leaf, which may
/// send a PUSH, and the ultrapeers, which route one, learn a route to each
/// responder from the hits; a plain leaf learns nothing from the same hits
/// and its table allocates nothing.
#[test]
fn only_ultrapeers_and_owned_servents_keep_push_routes() {
    let w = world(12);
    let responder = || {
        let mut lib = HostLibrary::new();
        lib.add_benign(w.catalog.item(0), 0);
        (lib, false)
    };
    let text = w.catalog.item(0).keywords.join(" ");
    let mut net = build_net(12, 2, vec![responder(), responder()]);
    let up_addrs: Vec<HostAddr> = net.ups.iter().map(|&u| net.sim.node_addr(u)).collect();
    let mut searcher = |collect_events| {
        let cfg = ServentConfig {
            collect_events,
            ..ServentConfig::leaf().with_bootstrap(up_addrs.clone())
        };
        let servent = Servent::new(cfg, net.world.clone(), HostLibrary::new());
        net.sim
            .spawn(NodeSpec::public().listen(6346), Box::new(servent))
    };
    let (plain, owned) = (searcher(false), searcher(true));
    net.sim.run_until(SimTime::from_secs(120));
    for leaf in [plain, owned] {
        with_servent(&mut net.sim, leaf, |s, ctx| s.search(ctx, &text));
    }
    net.sim.run_until(SimTime::from_secs(180));

    let responders: Vec<Guid> = net
        .leaves
        .iter()
        .map(|&r| with_servent(&mut net.sim, r, |s, _| s.servent_guid()))
        .collect();
    with_servent(&mut net.sim, plain, |s, _| {
        assert_eq!(s.stats.hits_received, 2, "both responders answered");
        assert!(s.push_routes.is_empty());
        assert_eq!(s.push_routes.heap_bytes(), 0, "nothing charged");
    });
    with_servent(&mut net.sim, owned, |s, _| {
        assert_eq!(s.stats.hits_received, 2, "both responders answered");
        for g in &responders {
            assert!(s.push_routes.get(g).is_some(), "owned leaf routes {g:?}");
        }
    });
    for g in &responders {
        let routed = net
            .ups
            .iter()
            .any(|&u| with_servent(&mut net.sim, u, |s, _| s.push_routes.get(g).is_some()));
        assert!(routed, "an ultrapeer routes a PUSH to {g:?}");
    }
}

/// A leaf relays no PUSH, not even an owned leaf that holds a route for
/// the servent it names: a PUSH for another servent ends at the leaf.
#[test]
fn a_leaf_drops_a_push_for_another_servent() {
    let mut net = build_net(13, 2, Vec::new());
    let up_addrs: Vec<HostAddr> = net.ups.iter().map(|&u| net.sim.node_addr(u)).collect();
    let leaf = {
        let cfg = ServentConfig {
            collect_events: true,
            ..ServentConfig::leaf().with_bootstrap(up_addrs)
        };
        let servent = Servent::new(cfg, net.world.clone(), HostLibrary::new());
        net.sim
            .spawn(NodeSpec::public().listen(6346), Box::new(servent))
    };
    net.sim.run_until(SimTime::from_secs(120));
    let (up0, up1) = (net.ups[0], net.ups[1]);
    let (conn0, conn1) = (leaf_conn(&mut net.sim, up0), leaf_conn(&mut net.sim, up1));
    let send = |sim: &mut Simulator, up, conn, msg_type, payload: &[u8]| {
        let mut wire = Vec::new();
        encode_message(Guid([0xC3; 16]), msg_type, 3, 1, payload, &mut wire);
        with_servent(sim, up, |_, ctx| ctx.send(conn, &wire));
        let soon = sim.now() + SimDuration::from_secs(5);
        sim.run_until(soon);
    };
    // A stray hit from ultrapeer 1 naming servent G teaches the owned leaf
    // a route for G toward ultrapeer 1. G is ultrapeer 1 itself, so a
    // relayed PUSH would be served there.
    let target = with_servent(&mut net.sim, up1, |s, _| s.servent_guid());
    let hit = one_result_hit(target).encode();
    send(&mut net.sim, up1, conn1, MsgType::QueryHit, &hit);
    let routed = with_servent(&mut net.sim, leaf, |s, _| {
        s.push_routes.get(&target).is_some()
    });
    assert!(routed, "the owned leaf holds a route for G");

    let push = Push {
        servent_guid: target,
        index: 1,
        ip: std::net::Ipv4Addr::new(10, 0, 0, 9),
        port: 6346,
    };
    send(&mut net.sim, up0, conn0, MsgType::Push, &push.encode());

    let stats = with_servent(&mut net.sim, leaf, |s, _| s.stats());
    assert_eq!((stats.pushes_routed, stats.pushes_served), (0, 0));
    assert_eq!(stats.bad_messages, 0);
    for up in [up0, up1] {
        with_servent(&mut net.sim, up, |s, _| {
            let stats = s.stats();
            assert_eq!(
                (stats.pushes_routed, stats.pushes_served, stats.bad_messages),
                (0, 0, 0)
            );
            assert!(s.push_routes.get(&target).is_none());
        });
    }
}

/// A flood of 17,384 fresh QUERYs in one instant, which no workload comes
/// near: the GUID table holds at most 16,384 keys and stops growing once
/// its young generation is full, at no more heap than the count-bounded
/// tables it replaced held when full. Eviction is FIFO (a live GUID is
/// still a duplicate, an evicted one is fresh again), and a leaf keeps no
/// route for any of it. The search made before the flood is still ours:
/// foreign GUIDs never evict an own search.
#[test]
fn a_same_instant_flood_stays_within_the_count_bounded_tables() {
    // Full, those held a 16,384-entry ring of GUIDs (16 bytes) on every
    // servent and one of query routes (32 bytes) on an ultrapeer, each
    // beside a 32,768-slot `u32` index.
    let replaced = |role| match role {
        Role::Ultrapeer => 16_384 * (16 + 32) + 2 * 32_768 * 4,
        Role::Leaf => 16_384 * 16 + 32_768 * 4,
    };
    for config in [ServentConfig::ultrapeer(), ServentConfig::leaf()] {
        let role = config.role;
        let mut sim = Simulator::new(SimConfig::default(), 10);
        let servent = Servent::new(config, world(10), HostLibrary::new());
        let node = sim.spawn(NodeSpec::public().listen(6346), Box::new(servent));
        sim.run_until(SimTime::from_secs(1));
        with_servent(&mut sim, node, |s, ctx| {
            let own = s.search(ctx, "our own search");
            let payload = Query::keyword("crimson horizon").encode();
            let mut rng = StdRng::seed_from_u64(10);
            let guids: Vec<Guid> = (0..GUID_BOUND + 1_000)
                .map(|_| Guid::random(&mut rng))
                .collect();
            let mut feed = |s: &mut Servent, guid: Guid| {
                let header = Header {
                    guid,
                    msg_type: MsgType::Query,
                    ttl: 3,
                    hops: 0,
                    payload_len: payload.len() as u32,
                };
                s.handle_query(ctx, ConnId(5), header, &payload);
            };
            let (fill, overflow) = guids.split_at(GUID_BOUND / 2);
            fill.iter().for_each(|&g| feed(s, g));
            let filled = s.memory_estimate();
            overflow.iter().for_each(|&g| feed(s, g));
            assert_eq!(s.memory_estimate(), filled, "{role:?}");
            assert!(s.guids.len() <= GUID_BOUND);
            assert!(s.guids.heap_bytes() <= replaced(role), "{role:?}");

            let before = s.stats;
            let live = guids[guids.len() - 1];
            feed(s, live);
            feed(s, guids[0]); // evicted by the overflow
            feed(s, own); // the echo of our search
            assert_eq!(s.stats.queries_duplicate, before.queries_duplicate + 2);
            assert_eq!(s.stats.queries_routed, before.queries_routed + 1);
            assert_eq!(s.stats.bad_messages, 0);
            let route = match role {
                Role::Ultrapeer => Route::Via(ConnId(5)),
                Role::Leaf => Route::Seen,
            };
            assert_eq!(s.guids.get(ctx.now(), &live), Some(route));
            assert!(s.is_own(ctx.now(), &own), "{role:?}");
        });
    }
}

/// The GUID table forgets by age. A QUERY replayed a lifetime less a
/// microsecond after it came is a duplicate; replayed two lifetimes after,
/// it is routed afresh. A QUERYHIT within a lifetime of its query is
/// forwarded, and one two lifetimes after is dropped, as a hit whose route
/// expired always was.
#[test]
fn replays_are_duplicates_for_a_lifetime_and_fresh_after_two() {
    let mut sim = Simulator::new(SimConfig::default(), 11);
    let servent = Servent::new(ServentConfig::ultrapeer(), world(11), HostLibrary::new());
    let node = sim.spawn(NodeSpec::public().listen(6346), Box::new(servent));
    sim.run_until(SimTime::from_secs(1));
    let query = Query::keyword("crimson horizon").encode();
    let hit = one_result_hit(Guid([3; 16])).encode();
    let deliver = |sim: &mut Simulator, at, guid, msg_type, payload: &[u8]| {
        sim.run_until(at);
        with_servent(sim, node, |s, ctx| {
            let header = Header {
                guid,
                msg_type,
                ttl: 3,
                hops: 1,
                payload_len: payload.len() as u32,
            };
            s.handle_message(ctx, ConnId(5), header, payload);
            s.stats()
        })
    };
    let (replayed, answered) = (Guid([1; 16]), Guid([2; 16]));
    let t = sim.now();
    deliver(&mut sim, t, replayed, MsgType::Query, &query);
    deliver(&mut sim, t, answered, MsgType::Query, &query);

    let within = SimTime::from_micros((t + GUID_LIFETIME).as_micros() - 1);
    let s = deliver(&mut sim, within, replayed, MsgType::Query, &query);
    assert_eq!((s.queries_routed, s.queries_duplicate), (2, 1));
    let s = deliver(&mut sim, within, answered, MsgType::QueryHit, &hit);
    assert_eq!(s.hits_routed, 1);

    let after = t + GUID_LIFETIME + GUID_LIFETIME;
    let s = deliver(&mut sim, after, answered, MsgType::QueryHit, &hit);
    assert_eq!(
        (s.hits_routed, s.bad_messages),
        (1, 0),
        "the route aged out"
    );
    let s = deliver(&mut sim, after, replayed, MsgType::Query, &query);
    assert_eq!((s.queries_routed, s.queries_duplicate), (3, 1));
}

/// A leaf answers a query once, whichever of its ultrapeers delivers it
/// first: the copy its second ultrapeer delivers is a duplicate, though its
/// GUID table keeps no route.
#[test]
fn a_leaf_drops_the_duplicate_its_second_ultrapeer_delivers() {
    let w = world(14);
    let mut lib = HostLibrary::new();
    lib.add_benign(w.catalog.item(0), 0);
    let text = w.catalog.item(0).keywords.join(" ");
    let mut net = build_net(14, 2, vec![(lib, false)]);
    let leaf = net.leaves[0];
    let (up0, up1) = (net.ups[0], net.ups[1]);
    let (conn0, conn1) = (leaf_conn(&mut net.sim, up0), leaf_conn(&mut net.sim, up1));
    let query = Query::keyword(&text).encode();
    let guid = Guid([0xD4; 16]);
    for (up, conn) in [(up0, conn0), (up1, conn1)] {
        let mut wire = Vec::new();
        encode_message(guid, MsgType::Query, 3, 1, &query, &mut wire);
        with_servent(&mut net.sim, up, |_, ctx| ctx.send(conn, &wire));
        let soon = net.sim.now() + SimDuration::from_secs(5);
        net.sim.run_until(soon);
    }
    with_servent(&mut net.sim, leaf, |s, ctx| {
        let stats = s.stats;
        assert_eq!(
            (stats.queries_routed, stats.queries_answered),
            (1, 1),
            "answered once"
        );
        assert_eq!(stats.queries_duplicate, 1, "the second copy");
        assert_eq!(s.guids.get(ctx.now(), &guid), Some(Route::Seen));
    });
}

/// Listens, and when given a target dials it and sends a handshake
/// greeting; answers nothing, so whichever servent it talks to stays
/// mid-handshake.
struct Silent {
    target: Option<HostAddr>,
}

impl App for Silent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(target) = self.target {
            ctx.connect(target);
        }
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, dir: Direction, _: HostAddr) {
        if dir == Direction::Outbound {
            let config = HandshakeConfig {
                user_agent: "silent".into(),
                ultrapeer: false,
                listen_addr: None,
            };
            ctx.send(conn, &Initiator::new(config).greeting());
        }
    }
}

/// A handshake held open is charged while it is held: a servent waiting on
/// the far side's reply holds its boxed `Initiator`, and one waiting on
/// the final ack its boxed `Responder`, and each counts in the servent's
/// memory estimate until the state leaves its slot.
#[test]
fn a_paused_handshake_charges_its_boxed_state() {
    let mut sim = Simulator::new(SimConfig::default(), 15);
    let w = world(15);
    let up = sim.spawn(
        NodeSpec::public().listen(6346),
        Box::new(Servent::new(
            ServentConfig::ultrapeer(),
            w.clone(),
            HostLibrary::new(),
        )),
    );
    let up_addr = sim.node_addr(up);
    let sink = sim.spawn(
        NodeSpec::public().listen(6346),
        Box::new(Silent { target: None }),
    );
    let leaf_cfg = ServentConfig::leaf().with_bootstrap(vec![sim.node_addr(sink)]);
    let leaf = sim.spawn(
        NodeSpec::public().listen(6346),
        Box::new(Servent::new(leaf_cfg, w, HostLibrary::new())),
    );
    sim.spawn(
        NodeSpec::public().listen(6346),
        Box::new(Silent {
            target: Some(up_addr),
        }),
    );
    sim.run_until(SimTime::from_secs(30));

    let charged = |sim: &mut Simulator, node, held: fn(&ConnKind) -> bool| {
        with_servent(sim, node, |s, _| {
            let conn = s
                .conns
                .iter()
                .find_map(|(&c, k)| held(k).then_some(c))
                .expect("a handshake held open");
            let holding = s.memory_estimate();
            // The same slot, holding nothing: only the boxed state leaves.
            s.conns.insert(conn, ConnKind::SniffIn(Vec::new()));
            holding - s.memory_estimate()
        })
    };
    let responder = charged(&mut sim, up, |k| matches!(k, ConnKind::HsIn(_)));
    assert_eq!(responder, size_of::<Responder>() as u64);
    let initiator = charged(&mut sim, leaf, |k| matches!(k, ConnKind::HsOut(_)));
    assert_eq!(initiator, size_of::<Initiator>() as u64);
}

/// Per-node state a new field would grow on every servent, pinned: a
/// leaf's GUID-table entry is the GUID alone, an established peer's
/// connection slot is sized for `PeerConn`, and the servent itself stays
/// within its size.
#[test]
fn servent_layout_stays_small() {
    assert_eq!(size_of::<(Guid, ())>(), 16, "a leaf's GUID entry");
    assert_eq!(size_of::<(Guid, Route)>(), 32, "an ultrapeer's");
    // One key in each: a four-entry ring beside an eight-slot index.
    for (role, entry) in [(Role::Leaf, 16), (Role::Ultrapeer, 32)] {
        let mut table = GuidTable::new(role, GUID_BOUND);
        table.insert(SimTime::ZERO, Guid([1; 16]), Route::Via(ConnId(1)));
        assert_eq!(table.heap_bytes(), 4 * entry + 8 * 4, "{role:?}");
    }
    assert_eq!(size_of::<PeerConn>(), 40);
    assert_eq!(size_of::<(ConnId, ConnKind)>(), 48, "a peer's slot");
    assert!(size_of::<Servent>() <= 864);
}

proptest::proptest! {
    /// A route-free table holds exactly the keys a routed one does: driven
    /// through one stream of inserts, lookups and clock steps that flip
    /// the generations and overrun the FIFO bound, the two answer every
    /// `contains_key` alike.
    #[test]
    fn a_route_free_table_holds_the_keys_a_routed_one_does(
        bound in 2usize..24,
        ops in proptest::collection::vec((0u8..3, 0u8..40, 0u64..150), 0..300),
    ) {
        let mut leaf = GuidTable::new(Role::Leaf, bound);
        let mut up = GuidTable::new(Role::Ultrapeer, bound);
        let mut now = SimTime::ZERO;
        for (op, key, step) in ops {
            now += SimDuration::from_secs(step);
            let guid = Guid([key; 16]);
            if op == 0 {
                let route = if key % 2 == 0 { Route::Seen } else { Route::Via(ConnId(key as u64)) };
                leaf.insert(now, guid, route);
                up.insert(now, guid, route);
            } else {
                proptest::prop_assert_eq!(leaf.contains_key(now, &guid), up.contains_key(now, &guid));
            }
            proptest::prop_assert_eq!(leaf.len(), up.len());
        }
        for key in 0..40u8 {
            let guid = Guid([key; 16]);
            proptest::prop_assert_eq!(leaf.contains_key(now, &guid), up.contains_key(now, &guid));
        }
    }
}
