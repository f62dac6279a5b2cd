//! `probe_*` layer metrics: each calls one layer's public functions for a
//! fixed number of operations on inputs taken from the run that just
//! finished (its queue depth, query strings, file names, responses, world).
//! They run only in the traced run, after the timed region, one span each.

use crate::tracer::Tracer;
use crate::workloads::Scenario;
use p2pmal_archive::{crc32, Method, ZipArchive, ZipWriter};
use p2pmal_core::NetworkRun;
use p2pmal_corpus::{HostLibrary, SharedFile};
use p2pmal_crawler::{is_downloadable_name, CrawlLog};
use p2pmal_filter::{ResponseFilter, SizeFilter};
use p2pmal_gnutella::ggep::Extension;
use p2pmal_gnutella::guid::Guid;
use p2pmal_gnutella::handshake::{
    Admission, HandshakeConfig, HsEvent, Initiator, RespEvent, Responder,
};
use p2pmal_gnutella::message::{encode_message, MessageReader, MsgType};
use p2pmal_gnutella::payload::{HitResult, Ping, Pong, QhdFlags, Query, QueryHit};
use p2pmal_gnutella::qrp::QrpTable;
use p2pmal_gnutella::servent::{Servent, ServentConfig, SharedWorld};
use p2pmal_hashes::{md5, sha1};
use p2pmal_json::Value;
use p2pmal_netsim::queue::{CalendarQueue, Scheduler};
use p2pmal_netsim::{
    App, ConnId, Ctx, Direction, HostAddr, NodeSpec, SimConfig, SimDuration, SimTime, Simulator,
};
use p2pmal_openft::node::{FtConfig, FtNode};
use p2pmal_openft::packet::{encode_packet, Command, PacketReader, Search, SearchResult};
use p2pmal_scanner::Scanner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::Ipv4Addr;

const MIB: f64 = 1024.0 * 1024.0;

/// Inputs every probe draws from.
struct Input<'a> {
    run: &'a NetworkRun,
    world: &'a SharedWorld,
    /// Divides every operation count in smoke mode.
    scale: usize,
    seed: u64,
    /// Distinct query strings the crawler issued, in log order.
    queries: Vec<&'a str>,
    /// Distinct file names that came back, in log order.
    names: Vec<&'a str>,
    /// A clean host's library at the workload's per-host file count.
    library: HostLibrary,
    /// Downloadable files (the class the crawler fetches) with their bytes.
    bodies: Vec<(SharedFile, Vec<u8>)>,
    /// The bodies concatenated: what the hash and CRC probes stream over.
    stream: Vec<u8>,
}

fn distinct<'a>(items: impl Iterator<Item = &'a str>, cap: usize) -> Vec<&'a str> {
    let mut seen = std::collections::HashSet::new();
    items.filter(|s| seen.insert(*s)).take(cap).collect()
}

fn library(world: &SharedWorld, files: usize, rng: &mut StdRng) -> HostLibrary {
    let mut lib = HostLibrary::new();
    for _ in 0..files * 10 {
        if lib.len() >= files {
            break;
        }
        let item = world.catalog.sample(rng);
        let variant = rng.gen_range(0..item.variants.len());
        lib.add_benign(item, variant);
    }
    lib
}

impl<'a> Input<'a> {
    fn new(run: &'a NetworkRun, scenario: &Scenario, seed: u64, smoke: bool) -> Self {
        let world = &run.world;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9B0B);
        let files_per_host = match scenario {
            Scenario::Limewire(s) => s.files_per_leaf,
            Scenario::OpenFt(s) => s.files_per_user,
            Scenario::Mega(s) => s.files_per_leaf,
        };
        // An infected host's shares: benign titles plus the two families
        // that ship an executable and a zip.
        let mut infected = library(world, 200, &mut rng);
        for family in world.roster.families().iter().take(2) {
            infected.infect(family, &world.catalog, &mut rng);
        }
        let bodies: Vec<(SharedFile, Vec<u8>)> = infected
            .files()
            .iter()
            .filter(|f| is_downloadable_name(&f.name) && f.size <= 2 << 20)
            .take(24)
            .map(|f| {
                let body = world
                    .store
                    .payload(f.content, &world.catalog, &world.roster);
                (f.clone(), body)
            })
            .collect();
        let stream = bodies.iter().flat_map(|(_, b)| b.iter().copied()).collect();
        Input {
            run,
            world,
            scale: if smoke { 10 } else { 1 },
            seed,
            queries: distinct(run.log.responses.iter().map(|r| r.query.as_str()), 256),
            names: distinct(run.log.responses.iter().map(|r| r.filename.as_str()), 2048),
            library: library(world, files_per_host, &mut rng),
            bodies,
            stream,
        }
    }

    fn ops(&self, full: usize) -> usize {
        (full / self.scale).max(1)
    }
}

/// Times `f` as one span and returns host nanoseconds per operation, where
/// `f` reports how many operations it did.
fn ns_per_op(tracer: &mut Tracer, span: &'static str, f: impl FnOnce() -> usize) -> f64 {
    let (ops, secs) = tracer.span(span, f);
    secs * 1e9 / ops.max(1) as f64
}

/// Times `f` as one span and returns MiB per host second, where `f`
/// reports how many bytes it processed.
fn mib_per_s(tracer: &mut Tracer, span: &'static str, f: impl FnOnce() -> usize) -> f64 {
    let (bytes, secs) = tracer.span(span, f);
    bytes as f64 / MIB / secs
}

// --- netsim ---------------------------------------------------------------

struct Echo;

impl App for Echo {
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        ctx.send(conn, data);
    }
}

struct Pinger {
    server: HostAddr,
}

impl App for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connect(self.server);
    }
    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _: Direction, _: HostAddr) {
        ctx.send(conn, &[0x5a; 64]);
    }
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        ctx.send(conn, data);
    }
}

/// The bare engine: echo pairs bouncing 64-byte messages, no protocol.
fn engine(input: &Input, tracer: &mut Tracer) -> f64 {
    let mut sim = Simulator::new(SimConfig::default(), input.seed);
    for _ in 0..64 {
        let server = sim.spawn(NodeSpec::public().listen(7), Box::new(Echo));
        let server = sim.node_addr(server);
        sim.spawn(NodeSpec::public(), Box::new(Pinger { server }));
    }
    let sim_secs = input.ops(1_200) as u64;
    ns_per_op(tracer, "netsim.probe_engine", || {
        sim.run_until(SimTime::from_secs(sim_secs));
        sim.metrics().events_processed as usize
    })
}

/// Calendar-queue hold model at the depth the run's scheduler reached.
fn queue(input: &Input, tracer: &mut Tracer) -> f64 {
    let depth = (input.run.sim_metrics.queue_high_water as usize).max(1);
    let ops = input.ops(4_000_000);
    let mut rng = StdRng::seed_from_u64(input.seed ^ 0x401D);
    let mut q: CalendarQueue<u64> = CalendarQueue::default();
    for i in 0..depth {
        q.push(
            SimTime::from_micros(rng.gen_range(0..2_000_000u64)),
            i as u64,
        );
    }
    ns_per_op(tracer, "netsim.probe_queue", || {
        let mut now = 0u64;
        for i in 0..ops {
            let (t, id) = q.pop().expect("hold model never drains");
            now = now.max(t.as_micros());
            black_box(id);
            q.push(
                SimTime::from_micros(now + rng.gen_range(1..2_000_000u64)),
                i as u64,
            );
        }
        ops
    })
}

// --- gnutella -------------------------------------------------------------

/// Encode + decode of a PING / PONG / QUERY / QUERYHIT mix carrying GGEP
/// and HUGE extensions, built from the run's own queries and file names.
fn gnutella_codec(input: &Input, tracer: &mut Tracer) -> f64 {
    let mut rng = StdRng::seed_from_u64(input.seed ^ 0xC0DEC);
    let ggep = vec![Extension {
        id: "VC".into(),
        data: b"LIME\x49".to_vec(),
    }];
    let query = input.queries.first().copied().unwrap_or("free music");
    let names: Vec<&str> = input.names.iter().copied().take(8).collect();
    let ping = Ping { ggep: ggep.clone() };
    let pong = Pong {
        port: 6346,
        ip: Ipv4Addr::new(10, 1, 2, 3),
        file_count: 34,
        kbytes: 120_000,
        ggep: ggep.clone(),
    };
    let q = Query::keyword(query);
    let hit = QueryHit {
        port: 6346,
        ip: Ipv4Addr::new(192, 168, 1, 7),
        speed: 350,
        results: names
            .iter()
            .enumerate()
            .map(|(i, name)| HitResult {
                index: i as u32,
                size: 58_368 + i as u32,
                name: name.to_string(),
                sha1: Some(sha1(name.as_bytes())),
            })
            .collect(),
        vendor: *b"LIME",
        flags: QhdFlags::new(),
        ggep,
        servent_guid: Guid::random(&mut rng),
    };
    let guid = Guid::random(&mut rng);
    let rounds = input.ops(60_000);
    ns_per_op(tracer, "gnutella.probe_codec", || {
        let mut wire = Vec::with_capacity(1024);
        let mut reader = MessageReader::new();
        for _ in 0..rounds {
            wire.clear();
            encode_message(guid, MsgType::Ping, 3, 0, &ping.encode(), &mut wire);
            encode_message(guid, MsgType::Pong, 3, 0, &pong.encode(), &mut wire);
            encode_message(guid, MsgType::Query, 3, 0, &q.encode(), &mut wire);
            encode_message(guid, MsgType::QueryHit, 3, 0, &hit.encode(), &mut wire);
            reader.push(&wire);
            while let Some((header, payload)) = reader.next_message().expect("own frames parse") {
                match header.msg_type {
                    MsgType::Ping => drop(black_box(Ping::parse(&payload))),
                    MsgType::Pong => drop(black_box(Pong::parse(&payload))),
                    MsgType::Query => drop(black_box(Query::parse(&payload))),
                    MsgType::QueryHit => drop(black_box(QueryHit::parse(&payload))),
                    _ => unreachable!("only four types were encoded"),
                }
            }
        }
        rounds * 4
    })
}

/// One complete 0.6 handshake, both sides.
fn gnutella_handshake(input: &Input, tracer: &mut Tracer) -> f64 {
    let config = |agent: &str, ultrapeer| HandshakeConfig {
        user_agent: agent.into(),
        ultrapeer,
        listen_addr: Some(HostAddr::new(Ipv4Addr::new(10, 0, 0, 5), 6346)),
    };
    let rounds = input.ops(40_000);
    ns_per_op(tracer, "gnutella.probe_handshake", || {
        for _ in 0..rounds {
            let mut init = Initiator::new(config("LimeWire/4.12", false));
            let mut resp = Responder::new(config("LimeWire/4.12", true));
            let RespEvent::Decide { .. } = resp.on_data(&init.greeting()).expect("greeting parses")
            else {
                panic!("responder must decide on a full greeting");
            };
            let ok = resp.admit(Admission::Accept);
            let HsEvent::Established { send, .. } = init.on_data(&ok).expect("200 parses") else {
                panic!("initiator must establish on 200");
            };
            black_box(resp.on_data(&send).expect("ack parses"));
        }
        rounds
    })
}

fn qrp_build(input: &Input, tracer: &mut Tracer) -> f64 {
    let names: Vec<&str> = input.library.files().iter().map(|f| &*f.name).collect();
    let rounds = input.ops(4_000);
    ns_per_op(tracer, "gnutella.probe_qrp_build", || {
        for _ in 0..rounds {
            let mut table = QrpTable::default_table();
            for name in &names {
                table.insert_name(name);
            }
            black_box(table.population());
        }
        rounds * names.len()
    })
}

fn qrp_lookup(input: &Input, tracer: &mut Tracer) -> f64 {
    let mut table = QrpTable::default_table();
    for f in input.library.files() {
        table.insert_name(&f.name);
    }
    let rounds = input.ops(4_000);
    ns_per_op(tracer, "gnutella.probe_qrp_lookup", || {
        let mut hits = 0usize;
        for _ in 0..rounds {
            for q in &input.queries {
                hits += table.might_match(q) as usize;
            }
        }
        black_box(hits);
        rounds * input.queries.len()
    })
}

/// Servents only, no crawler: 3 ultrapeers and 24 leaves sharing libraries
/// from the run's world, every leaf querying every 20 simulated seconds.
fn gnutella_overlay(input: &Input, tracer: &mut Tracer) -> f64 {
    let mut rng = StdRng::seed_from_u64(input.seed ^ 0x6E07);
    let mut sim = Simulator::new(SimConfig::default(), input.seed);
    let mut ups = Vec::new();
    for _ in 0..3 {
        let cfg = ServentConfig::ultrapeer().with_bootstrap(ups.clone());
        let id = sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, input.world.clone(), HostLibrary::new())),
        );
        ups.push(sim.node_addr(id));
    }
    for _ in 0..24 {
        let mut cfg = ServentConfig::leaf().with_bootstrap(ups.clone());
        cfg.auto_query = Some(SimDuration::from_secs(20));
        let lib = library(input.world, input.library.len(), &mut rng);
        sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, input.world.clone(), lib)),
        );
    }
    let sim_secs = input.ops(3_600) as u64;
    ns_per_op(tracer, "gnutella.probe_overlay", || {
        sim.run_until(SimTime::from_secs(sim_secs));
        sim.metrics().events_processed as usize
    })
}

// --- openft ---------------------------------------------------------------

fn openft_codec(input: &Input, tracer: &mut Tracer) -> f64 {
    let results: Vec<Search> = input
        .names
        .iter()
        .take(32)
        .enumerate()
        .map(|(i, name)| {
            Search::Result(SearchResult {
                id: i as u32,
                host: Ipv4Addr::new(4, 8, 15, 16),
                port: 1215,
                http_port: 1216,
                avail: 1,
                md5: md5(name.as_bytes()),
                size: 33_280 + i as u32,
                filename: name.to_string(),
            })
        })
        .collect();
    let rounds = input.ops(30_000);
    ns_per_op(tracer, "openft.probe_codec", || {
        let mut wire = Vec::with_capacity(4096);
        let mut reader = PacketReader::new();
        for _ in 0..rounds {
            wire.clear();
            for r in &results {
                encode_packet(Command::Search, &r.encode(), &mut wire);
            }
            reader.push(&wire);
            while let Some((_, payload)) = reader.next_packet().expect("own packets parse") {
                black_box(Search::parse(&payload).expect("own payload parses"));
            }
        }
        rounds * results.len()
    })
}

/// OpenFT nodes only, no crawler: 2 search nodes and 20 users.
fn openft_overlay(input: &Input, tracer: &mut Tracer) -> f64 {
    let mut rng = StdRng::seed_from_u64(input.seed ^ 0x0F7);
    let mut sim = Simulator::new(SimConfig::default(), input.seed);
    let mut search = Vec::new();
    for _ in 0..2 {
        let cfg = FtConfig::search_node().with_bootstrap(search.clone());
        let id = sim.spawn(
            NodeSpec::public().listen(1215),
            Box::new(FtNode::new(cfg, input.world.clone(), HostLibrary::new())),
        );
        search.push(sim.node_addr(id));
    }
    for _ in 0..20 {
        let mut cfg = FtConfig::user().with_bootstrap(search.clone());
        cfg.auto_query = Some(SimDuration::from_secs(20));
        let lib = library(input.world, input.library.len(), &mut rng);
        sim.spawn(
            NodeSpec::public().listen(1215),
            Box::new(FtNode::new(cfg, input.world.clone(), lib)),
        );
    }
    let sim_secs = input.ops(10_800) as u64;
    ns_per_op(tracer, "openft.probe_overlay", || {
        sim.run_until(SimTime::from_secs(sim_secs));
        sim.metrics().events_processed as usize
    })
}

// --- corpus ---------------------------------------------------------------

/// One compiled query against one host library.
fn corpus_match(input: &Input, tracer: &mut Tracer) -> f64 {
    let mut rng = StdRng::seed_from_u64(input.seed ^ 0x3A7C);
    let libs: Vec<HostLibrary> = (0..64)
        .map(|_| library(input.world, input.library.len(), &mut rng))
        .collect();
    let rounds = input.ops(100);
    ns_per_op(tracer, "corpus.probe_match", || {
        let mut hits = 0usize;
        for _ in 0..rounds {
            for q in &input.queries {
                let compiled = input.world.compile_query(q);
                for lib in &libs {
                    hits += lib.respond_compiled(&compiled, 64).len();
                }
            }
        }
        black_box(hits);
        rounds * input.queries.len() * libs.len()
    })
}

fn corpus_payload(input: &Input, tracer: &mut Tracer) -> f64 {
    let rounds = input.ops(20);
    mib_per_s(tracer, "corpus.probe_payload", || {
        let mut bytes = 0usize;
        for _ in 0..rounds {
            for (file, _) in &input.bodies {
                let body = input.world.store.payload(
                    file.content,
                    &input.world.catalog,
                    &input.world.roster,
                );
                bytes += black_box(body).len();
            }
        }
        bytes
    })
}

// --- crawler --------------------------------------------------------------

/// `CrawlLog::resolved` over a prefix of the run's own log.
fn crawler_resolve(input: &Input, tracer: &mut Tracer) -> f64 {
    let log = &input.run.log;
    let take = input.ops(200_000).min(log.responses.len());
    let prefix = CrawlLog {
        responses: log.responses[..take].to_vec(),
        by_name_size: log.by_name_size.clone(),
        by_host_size: log.by_host_size.clone(),
        ..CrawlLog::new()
    };
    let rounds = input.ops(4);
    ns_per_op(tracer, "crawler.probe_resolve", || {
        (0..rounds)
            .map(|_| black_box(prefix.resolved()).len())
            .sum()
    })
}

// --- scanner / hashes / archive -------------------------------------------

fn scanner_scan(input: &Input, tracer: &mut Tracer) -> f64 {
    let scanner = Scanner::new(
        input
            .world
            .roster
            .signature_db()
            .expect("roster db")
            .build()
            .expect("db compiles"),
    );
    let rounds = input.ops(30);
    mib_per_s(tracer, "scanner.probe_scan", || {
        let mut bytes = 0usize;
        for _ in 0..rounds {
            for (file, body) in &input.bodies {
                black_box(scanner.scan(&file.name, body));
                bytes += body.len();
            }
        }
        bytes
    })
}

fn hash_probe(
    input: &Input,
    tracer: &mut Tracer,
    span: &'static str,
    rounds: usize,
    f: impl Fn(&[u8]),
) -> f64 {
    let data = &input.stream;
    let rounds = input.ops(rounds);
    mib_per_s(tracer, span, || {
        for _ in 0..rounds {
            f(black_box(data));
        }
        rounds * data.len()
    })
}

fn archive_unzip(input: &Input, tracer: &mut Tracer) -> f64 {
    let mut w = ZipWriter::new();
    for (file, body) in input.bodies.iter().take(6) {
        w.add(&file.name, body, Method::Deflate);
    }
    let archive = w.finish();
    let rounds = input.ops(30);
    mib_per_s(tracer, "archive.probe_unzip", || {
        let mut bytes = 0usize;
        for _ in 0..rounds {
            let z = ZipArchive::parse(black_box(&archive)).expect("own archive parses");
            for i in 0..z.len() {
                bytes += black_box(z.read(i).expect("own member inflates")).len();
            }
        }
        bytes
    })
}

// --- filter ---------------------------------------------------------------

fn filter_eval(input: &Input, tracer: &mut Tracer) -> f64 {
    let resolved = &input.run.resolved;
    let take = input.ops(200_000).min(resolved.len());
    let filter = SizeFilter::learn(resolved, 3, 2);
    let rounds = input.ops(200);
    ns_per_op(tracer, "filter.probe_eval", || {
        let mut blocked = 0usize;
        for _ in 0..rounds {
            for r in &resolved[..take] {
                blocked += filter.blocks(black_box(r)) as usize;
            }
        }
        black_box(blocked);
        rounds * take
    })
}

// --- json -----------------------------------------------------------------

/// The run's first responses as a JSON document.
fn response_doc(input: &Input) -> Value {
    let take = input.ops(20_000).min(input.run.log.responses.len());
    Value::Arr(
        input.run.log.responses[..take]
            .iter()
            .map(|r| {
                Value::Obj(vec![
                    ("t".into(), r.at.as_micros().into()),
                    ("query".into(), r.query.as_str().into()),
                    ("filename".into(), r.filename.as_str().into()),
                    ("size".into(), r.size.into()),
                    ("source".into(), r.source_ip.to_string().into()),
                    ("push".into(), r.needs_push.into()),
                ])
            })
            .collect(),
    )
}

/// Runs every probe; names are the spec's per-layer metric names.
pub fn run_all(
    run: &NetworkRun,
    scenario: &Scenario,
    seed: u64,
    smoke: bool,
    tracer: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    let input = Input::new(run, scenario, seed, smoke);
    let doc = response_doc(&input);
    let text = doc.to_string_compact();
    let json_rounds = input.ops(10);
    vec![
        ("netsim.probe_engine_ns_per_event", engine(&input, tracer)),
        ("netsim.probe_queue_ns_per_op", queue(&input, tracer)),
        (
            "gnutella.probe_codec_ns_per_msg",
            gnutella_codec(&input, tracer),
        ),
        (
            "gnutella.probe_handshake_ns",
            gnutella_handshake(&input, tracer),
        ),
        (
            "gnutella.probe_qrp_build_ns_per_name",
            qrp_build(&input, tracer),
        ),
        ("gnutella.probe_qrp_lookup_ns", qrp_lookup(&input, tracer)),
        (
            "gnutella.probe_overlay_ns_per_event",
            gnutella_overlay(&input, tracer),
        ),
        (
            "openft.probe_codec_ns_per_packet",
            openft_codec(&input, tracer),
        ),
        (
            "openft.probe_overlay_ns_per_event",
            openft_overlay(&input, tracer),
        ),
        (
            "corpus.probe_match_ns_per_query",
            corpus_match(&input, tracer),
        ),
        (
            "corpus.probe_payload_mb_per_s",
            corpus_payload(&input, tracer),
        ),
        (
            "crawler.probe_resolve_ns_per_response",
            crawler_resolve(&input, tracer),
        ),
        ("scanner.probe_scan_mb_per_s", scanner_scan(&input, tracer)),
        (
            "hashes.probe_sha1_mb_per_s",
            hash_probe(&input, tracer, "hashes.probe_sha1", 40, |d| {
                black_box(sha1(d));
            }),
        ),
        (
            "hashes.probe_md5_mb_per_s",
            hash_probe(&input, tracer, "hashes.probe_md5", 12, |d| {
                black_box(md5(d));
            }),
        ),
        (
            "archive.probe_unzip_mb_per_s",
            archive_unzip(&input, tracer),
        ),
        (
            "archive.probe_crc32_mb_per_s",
            hash_probe(&input, tracer, "archive.probe_crc32", 40, |d| {
                black_box(crc32(d));
            }),
        ),
        (
            "filter.probe_eval_ns_per_response",
            filter_eval(&input, tracer),
        ),
        (
            "json.probe_parse_mb_per_s",
            mib_per_s(tracer, "json.probe_parse", || {
                for _ in 0..json_rounds {
                    black_box(p2pmal_json::parse(black_box(&text)).expect("own JSON parses"));
                }
                json_rounds * text.len()
            }),
        ),
        (
            "json.probe_write_mb_per_s",
            mib_per_s(tracer, "json.probe_write", || {
                let mut bytes = 0usize;
                for _ in 0..json_rounds {
                    bytes += black_box(doc.to_string_compact()).len();
                }
                bytes
            }),
        ),
    ]
}
