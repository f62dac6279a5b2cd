//! Property tests: codec roundtrips hold for arbitrary field values, and
//! no parser panics on arbitrary (adversarial) wire bytes.

use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::library::name_matches;
use p2pmal_corpus::{
    CompiledQuery, ContentRef, ContentStore, FamilyId, HostLibrary, Roster, SharedFile,
};
use p2pmal_gnutella::ggep::{self, Extension};
use p2pmal_gnutella::guid::Guid;
use p2pmal_gnutella::handshake::{Admission, HandshakeConfig, Initiator, RespEvent, Responder};
use p2pmal_gnutella::http::{
    encode_response_err, encode_response_ok, parse_giv, percent_decode, percent_encode,
    RequestReader, ResponseReader,
};
use p2pmal_gnutella::message::{encode_message, Header, MessageReader, MsgType};
use p2pmal_gnutella::payload::{
    Bye, HitResult, Ping, Pong, Push, QhdFlags, Query, QueryHit, QHD_PUSH, QHD_UPLOADED,
};
use p2pmal_gnutella::qrp::{keywords, qrp_hash_full, QrpIndex, QrpTable, RouteMsg};
use p2pmal_gnutella::servent::{Role, Servent, ServentConfig, SharedWorld, ECHO_INDEX_BASE};
use p2pmal_netsim::{
    App, ConnId, Ctx, Direction, HostAddr, NodeSpec, SimConfig, SimTime, Simulator,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn arb_guid() -> impl Strategy<Value = Guid> {
    any::<[u8; 16]>().prop_map(Guid)
}

/// What a download reader may be handed, capped at 200 body bytes: a
/// well-formed head, a 404, either overlay's real `200` and `404` heads, a
/// head without Content-Length, a bad status line, a bad header, or raw
/// bytes; a declared length within or over the cap; a body shorter than,
/// equal to or longer than declared.
fn arb_response_wire() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u8>(),
        0usize..300,
        0usize..300,
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(kind, declared, body_len, raw)| {
            let head = match kind % 10 {
                0 => format!("HTTP/1.1 200 OK\r\nContent-Length: {declared}\r\n\r\n"),
                1 => format!("HTTP/1.0 404 Not Found\r\nContent-Length: {declared}\r\n\r\n"),
                2 => "HTTP/1.1 200 OK\r\nServer: x\r\n\r\n".to_string(),
                3 => format!("ICY 200 OK\r\nContent-Length: {declared}\r\n\r\n"),
                4 => "HTTP/1.1 200 OK\r\nno colon\r\n\r\n".to_string(),
                5 => String::from_utf8(encode_response_ok("LimeWire/4.12", declared)).unwrap(),
                6 => String::from_utf8(encode_response_err("LimeWire/4.12", 404, "Not Found"))
                    .unwrap(),
                // `p2pmal_openft::http::encode_response_ok` and `_err`.
                7 => format!(
                    "HTTP/1.1 200 OK\r\nServer: giFT/0.11 (OpenFT)\r\nContent-Type: application/octet-stream\r\nContent-Length: {declared}\r\n\r\n"
                ),
                8 => "HTTP/1.1 404 Not Found\r\nServer: giFT/0.11 (OpenFT)\r\nContent-Length: 0\r\n\r\n"
                    .to_string(),
                _ => return raw,
            };
            let body = (0..body_len).map(|i| (i * 31 + kind as usize) as u8);
            head.bytes().chain(body).collect()
        })
}

/// Any text: ASCII, BMP and supplementary-plane characters, controls
/// included.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..40).prop_map(|v| {
        let pick = |x: u32| match x % 3 {
            0 => (x >> 2) & 0x7F,
            1 => (x >> 2) & 0xFFFF,
            _ => (x >> 2) % 0x11_0000,
        };
        v.into_iter()
            .filter_map(|x| char::from_u32(pick(x)))
            .collect()
    })
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3]))
}

/// Filename-ish strings: printable ASCII without NUL.
fn arb_name() -> impl Strategy<Value = String> {
    "[ -~&&[^\\x00]]{0,60}"
}

/// The routing fast path (`Query::parse_text`, `QueryHit::validate`) must
/// accept and reject exactly what the full decoders do, with the same
/// error, and extract the same text / servent GUID.
fn assert_fast_decoders_agree(data: &[u8]) {
    let text = Query::parse(data).map(|q| q.text);
    assert_eq!(Query::parse_text(data).map(str::to_string), text);
    let guid = QueryHit::parse(data).map(|h| h.servent_guid);
    assert_eq!(QueryHit::validate(data), guid);
}

/// `data` with one bit flipped, and `data` cut short.
fn damaged(data: &[u8], bit: usize, cut: usize) -> [Vec<u8>; 2] {
    let mut flipped = data.to_vec();
    if !flipped.is_empty() {
        let bit = bit % (flipped.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    [flipped, data[..cut % (data.len() + 1)].to_vec()]
}

fn arb_ggep() -> impl Strategy<Value = Vec<Extension>> {
    proptest::collection::vec(
        ("[A-Z]{1,4}", proptest::collection::vec(any::<u8>(), 0..12)),
        0..3,
    )
    .prop_map(|exts| {
        exts.into_iter()
            .map(|(id, data)| Extension { id, data })
            .collect()
    })
}

// ---------------------------------------------------------------------------
// A servent's answer, on the wire
// ---------------------------------------------------------------------------

/// What arbitrary libraries are made of: three match words under plain,
/// upper-case, non-ASCII and 200-byte decorations, and sizes on both sides
/// of the wire format's `u32`.
const WORDS: [&str; 3] = ["crimson", "horizon", "remix"];
const SIZES: [u64; 4] = [0, 58_368, u32::MAX as u64, (1 << 33) + 5];

fn words(mask: usize, sep: &str) -> String {
    let picked: Vec<&str> = (0..WORDS.len())
        .filter(|bit| mask >> bit & 1 == 1)
        .map(|bit| WORDS[bit])
        .collect();
    picked.join(sep)
}

fn decorated(decoration: usize, mask: usize) -> String {
    let stem = words(mask, "_");
    match decoration {
        0 => format!("{stem}.mp3"),
        1 => format!("live_{stem}.ogg"),
        2 => format!("{}.MP3", stem.to_uppercase()),
        3 => format!("Ünï-\u{6f22}\u{5b57} {stem} \u{2014} été.mp3"),
        _ => format!("{stem}_{}.avi", "x".repeat(200)),
    }
}

/// One arbitrary library row: `(decoration, word mask, size, malware?)`.
type Row = (usize, usize, usize, bool);

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((0usize..5, 0usize..8, 0usize..4, any::<bool>()), 0..8)
}

fn small_world(seed: u64) -> SharedWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = CatalogConfig {
        titles: 20,
        ..Default::default()
    };
    SharedWorld::new(
        Arc::new(Catalog::generate(&config, &mut rng)),
        Arc::new(Roster::limewire_2006()),
        Arc::new(ContentStore::new(seed)),
    )
}

/// Builds the library: `rows`, row `dup` once more at the end (a library
/// that holds one file twice), echo infection `echo` (1: one extension,
/// 2: two, 3: verbatim), and — `shadow` — the echo's answer to `query`
/// shared as a static file too.
fn library(
    world: &SharedWorld,
    rows: &[Row],
    dup: Option<usize>,
    echo: u16,
    shadow: bool,
    query: &CompiledQuery,
) -> HostLibrary {
    let mut lib = HostLibrary::new();
    let file = |&(decoration, mask, size, malware): &Row| SharedFile {
        name: decorated(decoration, mask).into(),
        size: SIZES[size],
        content: if malware {
            ContentRef::Malware {
                family: FamilyId(3),
                size_idx: 0,
            }
        } else {
            ContentRef::Benign {
                item: mask as u32,
                variant: 0,
            }
        },
    };
    rows.iter().for_each(|row| lib.add_file(file(row)));
    if let Some(row) = dup.and_then(|d| rows.get(d % rows.len().max(1))) {
        lib.add_file(file(row));
    }
    if echo > 0 {
        let mut rng = StdRng::seed_from_u64(echo as u64);
        lib.infect(
            world.roster.get(FamilyId(echo - 1)),
            &world.catalog,
            &mut rng,
        );
        if shadow {
            lib.echo_responses(query, 1)
                .into_iter()
                .for_each(|f| lib.add_file(f));
        }
    }
    lib
}

/// The owning answer path the servent had before it wrote hits straight
/// from its library rows, kept as the oracle: owned files, a linear scan
/// for each one's index, a `HitResult` with a `String` per result,
/// `QueryHit::encode`, `encode_message`.
fn owning_answer(
    lib: &HostLibrary,
    query: &CompiledQuery,
    max: usize,
    header: Header,
    ip: Ipv4Addr,
    servent_guid: Guid,
) -> Option<Vec<u8>> {
    let files = lib.respond_compiled(query, max);
    if files.is_empty() {
        return None;
    }
    let index_of = |f: &SharedFile| {
        if let ContentRef::Malware { family, size_idx } = f.content {
            if !lib.files().iter().any(|s| s == f) {
                return ECHO_INDEX_BASE + (family.0 as u32) * 16 + size_idx as u32;
            }
        }
        let row = lib.files().iter().position(|s| s == f);
        row.map_or(u32::MAX, |p| p as u32)
    };
    let hit = QueryHit {
        port: 6346,
        ip,
        speed: 350,
        results: files
            .iter()
            .map(|f| HitResult {
                index: index_of(f),
                size: f.size.min(u32::MAX as u64) as u32,
                name: f.name.to_string(),
                sha1: None,
            })
            .collect(),
        vendor: *b"LIME",
        flags: QhdFlags::new()
            .with(QHD_PUSH, false)
            .with(QHD_UPLOADED, true),
        ggep: Vec::new(),
        servent_guid,
    };
    let mut wire = Vec::new();
    let ttl = header.hops.saturating_add(2).max(3);
    encode_message(
        header.guid,
        MsgType::QueryHit,
        ttl,
        0,
        &hit.encode(),
        &mut wire,
    );
    Some(wire)
}

/// An ultrapeer played from a script: accepts the 0.6 handshake of the
/// servent that dials it, sends it `script`, and keeps every frame that
/// comes back.
struct ScriptedUltrapeer {
    handshake: Option<Responder>,
    reader: MessageReader,
    script: Vec<u8>,
    frames: Vec<(Header, Vec<u8>)>,
}

impl App for ScriptedUltrapeer {
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn on_connected(&mut self, _: &mut Ctx<'_>, _: ConnId, dir: Direction, _: HostAddr) {
        assert_eq!(dir, Direction::Inbound);
        self.handshake = Some(Responder::new(HandshakeConfig {
            user_agent: "Script/1".into(),
            ultrapeer: true,
            listen_addr: None,
        }));
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        match &mut self.handshake {
            Some(hs) => match hs.on_data(data).expect("the servent's handshake parses") {
                RespEvent::NeedMore => {}
                RespEvent::Decide { .. } => ctx.send(conn, &hs.admit(Admission::Accept)),
                RespEvent::Established { leftover, .. } => {
                    self.handshake = None;
                    self.reader.push(&leftover);
                    ctx.send(conn, &self.script);
                }
            },
            None => self.reader.push(data),
        }
        while let Some(frame) = self
            .reader
            .next_message()
            .expect("the servent's frames parse")
        {
            self.frames.push(frame);
        }
    }
}

/// Runs a servent holding `lib` against a scripted ultrapeer that sends it
/// one QUERY; returns the servent's GUID and address and every QUERYHIT
/// frame it sent back, re-framed.
fn answers_on_the_wire(
    world: &SharedWorld,
    lib: HostLibrary,
    role: Role,
    max_results: usize,
    header: Header,
    text: &str,
) -> (Guid, Ipv4Addr, Vec<Vec<u8>>) {
    let mut script = Vec::new();
    let payload = Query::keyword(text).encode();
    encode_message(
        header.guid,
        header.msg_type,
        header.ttl,
        header.hops,
        &payload,
        &mut script,
    );
    let mut sim = Simulator::new(SimConfig::default(), 7);
    let peer = sim.spawn(
        NodeSpec::public().listen(6346),
        Box::new(ScriptedUltrapeer {
            handshake: None,
            reader: MessageReader::new(),
            script,
            frames: Vec::new(),
        }),
    );
    let base = match role {
        Role::Ultrapeer => ServentConfig::ultrapeer(),
        Role::Leaf => ServentConfig::leaf(),
    };
    let config = ServentConfig {
        max_results,
        ..base.with_bootstrap(vec![sim.node_addr(peer)])
    };
    let servent = sim.spawn(
        NodeSpec::public().listen(6346),
        Box::new(Servent::new(config, world.clone(), lib)),
    );
    sim.run_until(SimTime::from_secs(30));
    let guid = sim
        .with_node(servent, |app, _| {
            let servent: &mut Servent = app.as_any_mut().unwrap().downcast_mut().unwrap();
            assert_eq!(servent.stats().bad_messages, 0);
            servent.servent_guid()
        })
        .expect("servent alive");
    let frames = sim
        .with_node(peer, |app, _| {
            let peer: &mut ScriptedUltrapeer = app.as_any_mut().unwrap().downcast_mut().unwrap();
            std::mem::take(&mut peer.frames)
        })
        .expect("peer alive");
    let hits = frames
        .into_iter()
        .filter(|(h, _)| h.msg_type == MsgType::QueryHit)
        .map(|(h, payload)| {
            let mut wire = Vec::new();
            encode_message(h.guid, h.msg_type, h.ttl, h.hops, &payload, &mut wire);
            wire
        })
        .collect();
    (guid, sim.node_addr(servent).ip, hits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Wire identity: for any library — empty, one file, a row held twice,
    /// non-ASCII and 200-byte names, sizes past `u32::MAX`, echo infections
    /// (whose answer may also be shared statically), more matches than
    /// `max_results` — what a servent sends in answer to a QUERY is, byte
    /// for byte, what the owning path built, and it parses back.
    #[test]
    fn answer_on_the_wire_equals_the_owning_path(
        rows in arb_rows(),
        extra in (any::<bool>(), any::<usize>(), 0u16..4, any::<bool>()),
        asked in (1usize..8, any::<bool>()),
        max_results in 1usize..5,
        envelope in (arb_guid(), any::<bool>(), 1u8..8, any::<u8>()),
    ) {
        let (dup, dup_row, echo, shadow) = extra;
        let (guid, ultrapeer, ttl, hops) = envelope;
        // The words of `asked.0`, or something no row carries.
        let text = if asked.1 { "zebra quartz".to_string() } else { words(asked.0, " ") };
        let query = CompiledQuery::compile(&text);
        let world = small_world(5);
        let lib = library(&world, &rows, dup.then_some(dup_row), echo, shadow, &query);
        let role = if ultrapeer { Role::Ultrapeer } else { Role::Leaf };
        let header = Header {
            guid,
            msg_type: MsgType::Query,
            ttl,
            hops,
            payload_len: 0,
        };
        let (servent_guid, ip, hits) =
            answers_on_the_wire(&world, lib.clone(), role, max_results, header, &text);
        let expected = owning_answer(&lib, &query, max_results, header, ip, servent_guid);
        prop_assert_eq!(&hits, &expected.into_iter().collect::<Vec<_>>());
        for wire in &hits {
            let payload = &wire[23..];
            let parsed = QueryHit::parse(payload).expect("our own hit parses");
            prop_assert!((1..=max_results).contains(&parsed.results.len()));
            prop_assert_eq!(&parsed.encode()[..], payload);
        }
    }

    /// The servent's way through the one match loop (fingerprint columns
    /// of its own) and `respond_compiled`'s (the records' fingerprints)
    /// select the same rows, and both are what the reference matcher
    /// selects: echoes first, then matching files in library order, cut at
    /// `max`.
    #[test]
    fn respond_compiled_equals_the_row_loop(
        rows in arb_rows(),
        extra in (any::<bool>(), any::<usize>(), 0u16..4, any::<bool>()),
        text in "(crimson|horizon|remix|live|MP3|x|zebra|[ -~]{0,6})( (crimson|horizon|remix))?",
        max in 0usize..6,
    ) {
        let (dup, dup_row, echo, shadow) = extra;
        let query = CompiledQuery::compile(&text);
        let lib = library(&small_world(5), &rows, dup.then_some(dup_row), echo, shadow, &query);
        let owned = lib.respond_compiled(&query, max);

        let mut by_column = lib.echo_responses(&query, max);
        let echoes = by_column.len();
        let columns = lib.name_fingerprints();
        prop_assert_eq!(columns.len(), 2 * lib.len());
        let mut rows = Vec::new();
        lib.match_rows(&query, &columns, max - echoes, |row| rows.push(row));
        by_column.extend(rows.iter().map(|&row| lib.files()[row].clone()));
        prop_assert_eq!(&by_column, &owned);

        let matching = lib
            .files()
            .iter()
            .filter(|f| name_matches(&f.name, query.terms()))
            .take(max - echoes);
        prop_assert_eq!(&owned[echoes..], &matching.cloned().collect::<Vec<_>>()[..]);
        prop_assert!(owned[..echoes].iter().all(|f| f.content.is_malicious()));
    }

    /// The index's verdict on a received table is the table's own on
    /// every prefix of a hash list, the empty one included.
    #[test]
    fn qrp_index_verdict_equals_the_table_on_hash_lists(
        names in proptest::collection::vec("[a-z]{3,12}", 0..20),
        log2 in 8u8..13,
        strangers in proptest::collection::vec(any::<u64>(), 0..4),
        order in any::<u64>(),
    ) {
        let mut table = QrpTable::new(log2, 7);
        for n in &names {
            table.insert_name(n);
        }
        let index = received(&table, 300, false);
        // Present slots (shared names) and arbitrary ones, interleaved.
        let mut hashes: Vec<u64> = names.iter().take(4).map(|n| qrp_hash_full(n)).collect();
        for (i, h) in strangers.into_iter().enumerate() {
            let at = (order >> (8 * i)) as usize % (hashes.len() + 1);
            hashes.insert(at, h);
        }
        let mut index = index;
        for end in 0..=hashes.len() {
            prop_assert_eq!(
                routes_to_leaf(&mut index, &hashes[..end]),
                table.might_match_hashes(&hashes[..end]),
                "first {} of {:?}", end, hashes
            );
        }
    }
}

const LEAF: ConnId = ConnId(7);

/// An ultrapeer's index after leaf [`LEAF`] sent `table`.
fn received(table: &QrpTable, chunk: usize, compress: bool) -> QrpIndex {
    let mut index = QrpIndex::new();
    index.add_leaf(LEAF);
    for m in table.to_messages(chunk, compress) {
        // Wire roundtrip each message too.
        index
            .apply(LEAF, &RouteMsg::parse(&m.encode()).unwrap())
            .unwrap();
    }
    index
}

/// Whether a query with these keyword hashes reaches [`LEAF`].
fn routes_to_leaf(index: &mut QrpIndex, hashes: &[u64]) -> bool {
    let mut sent = false;
    index.route_last_hop(hashes, ConnId(0), |c| sent |= c == LEAF);
    sent
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fast_decoders_agree_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        assert_fast_decoders_agree(&data);
    }

    #[test]
    fn fast_query_decoder_agrees_on_damaged_queries(
        speed in any::<u16>(),
        text in "[ -~&&[^\\x00\\x1c]]{0,40}",
        urns in proptest::collection::vec("urn:sha1:[A-Z2-7]{0,32}", 0..3),
        ggep in arb_ggep(),
        bit in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let wire = Query { min_speed: speed, text, urns, ggep }.encode();
        assert_fast_decoders_agree(&wire);
        for bad in damaged(&wire, bit, cut) {
            assert_fast_decoders_agree(&bad);
        }
    }

    #[test]
    fn fast_queryhit_decoder_agrees_on_damaged_hits(
        guid in arb_guid(),
        results in proptest::collection::vec(
            (any::<u32>(), arb_name(), any::<bool>(), any::<[u8; 20]>()),
            0..6
        ),
        ggep in arb_ggep(),
        bit in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let hit = QueryHit {
            port: 6346,
            ip: Ipv4Addr::new(10, 0, 0, 7),
            speed: 350,
            results: results
                .into_iter()
                .map(|(index, name, urn, digest)| HitResult {
                    index,
                    size: index ^ 0x5555,
                    name,
                    sha1: urn.then_some(p2pmal_hashes::Sha1Digest(digest)),
                })
                .collect(),
            vendor: *b"LIME",
            flags: QhdFlags::new(),
            ggep,
            servent_guid: guid,
        };
        let wire = hit.encode();
        prop_assert_eq!(QueryHit::validate(&wire), Ok(guid));
        for bad in damaged(&wire, bit, cut) {
            assert_fast_decoders_agree(&bad);
        }
    }

    #[test]
    fn message_reader_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut r = MessageReader::new();
        r.push(&data);
        // Drain until error or empty; must never panic or loop forever.
        for _ in 0..64 {
            match r.next_message() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    #[test]
    fn payload_parsers_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Ping::parse(&data);
        let _ = Pong::parse(&data);
        let _ = Query::parse(&data);
        let _ = QueryHit::parse(&data);
        let _ = Push::parse(&data);
        let _ = Bye::parse(&data);
        let _ = Header::parse(&data);
        let _ = RouteMsg::parse(&data);
        let _ = ggep::parse(&data);
        let _ = parse_giv(&data);
    }

    #[test]
    fn http_readers_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut rr = RequestReader::new();
        rr.push(&data);
        let _ = rr.request();
        let mut resp = ResponseReader::new(1 << 16);
        resp.push(&data);
        let _ = resp.response();
    }

    #[test]
    fn handshake_machines_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let cfg = HandshakeConfig { user_agent: "T/1".into(), ultrapeer: false, listen_addr: None };
        let mut i = Initiator::new(cfg.clone());
        let _ = i.on_data(&data);
        let mut r = Responder::new(cfg);
        let _ = r.on_data(&data);
    }

    #[test]
    fn pong_roundtrip(port in any::<u16>(), ip in arb_ip(), files in any::<u32>(), kb in any::<u32>()) {
        let p = Pong { port, ip, file_count: files, kbytes: kb, ggep: Vec::new() };
        prop_assert_eq!(Pong::parse(&p.encode()).unwrap(), p);
    }

    #[test]
    fn query_roundtrip(speed in any::<u16>(), text in "[ -~&&[^\\x00\\x1c]]{0,80}") {
        let q = Query { min_speed: speed, text: text.clone(), urns: vec![], ggep: vec![] };
        let parsed = Query::parse(&q.encode()).unwrap();
        prop_assert_eq!(parsed.text, text);
        prop_assert_eq!(parsed.min_speed, speed);
    }

    #[test]
    fn queryhit_roundtrip(
        guid in arb_guid(),
        port in any::<u16>(),
        ip in arb_ip(),
        speed in any::<u32>(),
        results in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), arb_name()),
            0..8
        ),
        push in any::<bool>(),
    ) {
        let qh = QueryHit {
            port,
            ip,
            speed,
            results: results
                .into_iter()
                .map(|(index, size, name)| HitResult { index, size, name, sha1: None })
                .collect(),
            vendor: *b"LIME",
            flags: QhdFlags::new().with(p2pmal_gnutella::payload::QHD_PUSH, push),
            ggep: Vec::new(),
            servent_guid: guid,
        };
        prop_assert_eq!(QueryHit::parse(&qh.encode()).unwrap(), qh);
    }

    #[test]
    fn push_roundtrip(guid in arb_guid(), index in any::<u32>(), ip in arb_ip(), port in any::<u16>()) {
        let p = Push { servent_guid: guid, index, ip, port };
        prop_assert_eq!(Push::parse(&p.encode()).unwrap(), p);
    }

    #[test]
    fn envelope_roundtrip(
        guid in arb_guid(),
        ttl in any::<u8>(),
        hops in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut wire = Vec::new();
        encode_message(guid, MsgType::Query, ttl, hops, &payload, &mut wire);
        let mut r = MessageReader::new();
        r.push(&wire);
        let (h, p) = r.next_message().unwrap().unwrap();
        prop_assert_eq!(h.guid, guid);
        prop_assert_eq!((h.ttl, h.hops), (ttl, hops));
        prop_assert_eq!(p, payload);
    }

    #[test]
    fn ggep_roundtrip(exts in proptest::collection::vec(
        ("[A-Za-z]{1,15}", proptest::collection::vec(any::<u8>(), 0..100)),
        1..5
    )) {
        let exts: Vec<Extension> = exts
            .into_iter()
            .map(|(id, data)| Extension { id, data })
            .collect();
        let block = ggep::encode(&exts);
        let (parsed, used) = ggep::parse(&block).unwrap();
        prop_assert_eq!(used, block.len());
        prop_assert_eq!(parsed, exts);
    }

    #[test]
    fn qrp_inserted_names_always_match(names in proptest::collection::vec("[a-z]{3,12}( [a-z]{3,12}){0,3}", 1..10)) {
        let mut t = QrpTable::new(12, 7);
        for n in &names {
            t.insert_name(n);
        }
        for n in &names {
            prop_assert!(t.might_match(n), "inserted name {n:?} must match its own query");
        }
    }

    #[test]
    fn qrp_transfer_preserves_table(names in proptest::collection::vec("[a-z]{3,12}", 0..20), compress in any::<bool>()) {
        let mut t = QrpTable::new(10, 7);
        for n in &names {
            t.insert_name(n);
        }
        // The ultrapeer's index must agree with the sent table on every
        // query (the only observable the forwarding path reads).
        let mut index = received(&t, 128, compress);
        let hashes = |q: &str| keywords(q).iter().map(|w| qrp_hash_full(w)).collect::<Vec<_>>();
        for n in &names {
            prop_assert_eq!(routes_to_leaf(&mut index, &hashes(n)), t.might_match(n), "query {:?}", n);
        }
        for probe in ["zzz", "qqq xxx", "abc"] {
            prop_assert_eq!(routes_to_leaf(&mut index, &hashes(probe)), t.might_match(probe), "probe {:?}", probe);
        }
    }

    #[test]
    fn qrp_keywords_are_lowercase_and_long(text in "[ -~]{0,60}") {
        for k in keywords(&text) {
            prop_assert!(k.len() >= 3);
            prop_assert_eq!(k.clone(), k.to_ascii_lowercase());
        }
    }
}

proptest! {
    /// A reader handed its buffer reads what it reads from a borrowed
    /// slice: the same response or the same error, whether the owned part
    /// opens the stream (half the cases) or follows a borrowed prefix.
    #[test]
    fn push_owned_reads_what_push_reads(wire in arb_response_wire(), cut in any::<u16>()) {
        let cut = if cut.is_multiple_of(2) { 0 } else { cut as usize % (wire.len() + 1) };
        let mut borrowed = ResponseReader::new(200);
        let mut owned = ResponseReader::new(200);
        borrowed.push(&wire[..cut]);
        owned.push(&wire[..cut]);
        prop_assert_eq!(borrowed.response(), owned.response());
        borrowed.push(&wire[cut..]);
        owned.push_owned(wire[cut..].to_vec());
        prop_assert_eq!(borrowed.response(), owned.response());
        prop_assert_eq!(borrowed.response(), owned.response());
    }

    /// Any name survives the request path, non-ASCII included.
    #[test]
    fn percent_coding_roundtrips(s in arb_text()) {
        prop_assert_eq!(percent_decode(&percent_encode(&s)), s);
    }
}
