//! Wire anatomy: build, dump and re-parse real protocol bytes for both
//! networks — a tour of the codec layers a downstream user gets.
//!
//! ```sh
//! cargo run --example wire_anatomy
//! ```

use p2pmal::gnutella::guid::Guid;
use p2pmal::gnutella::message::{encode_message, MessageReader, MsgType};
use p2pmal::gnutella::payload::{HitResult, QhdFlags, Query, QueryHit, QHD_PUSH};
use p2pmal::gnutella::qrp::{keywords, qrp_hash_full, QrpIndex, QrpTable};
use p2pmal::hashes::sha1;
use p2pmal::openft::packet::{encode_packet, Command, PacketReader, Search, SearchResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;

fn hexdump(label: &str, bytes: &[u8]) {
    println!("{label} ({} bytes):", bytes.len());
    for (i, chunk) in bytes.chunks(16).enumerate() {
        let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
        let ascii: String = chunk
            .iter()
            .map(|&b| {
                if (0x20..0x7f).contains(&b) {
                    b as char
                } else {
                    '.'
                }
            })
            .collect();
        println!("  {:04x}  {:<47}  {ascii}", i * 16, hex.join(" "));
        if i >= 5 {
            println!("  ... ({} more bytes)", bytes.len() - (i + 1) * 16);
            break;
        }
    }
    println!();
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // --- Gnutella: a QUERY descriptor -----------------------------------
    println!("== Gnutella 0.6 ==\n");
    let query_guid = Guid::random(&mut rng);
    let query = Query::keyword("crimson horizon remix");
    let mut wire = Vec::new();
    encode_message(query_guid, MsgType::Query, 3, 0, &query.encode(), &mut wire);
    hexdump("QUERY descriptor (23-byte header + payload)", &wire);

    // ...and the QUERYHIT a 2006 worm would answer it with.
    let servent_guid = Guid::random(&mut rng);
    let hit = QueryHit {
        port: 6346,
        ip: Ipv4Addr::new(192, 168, 1, 44), // the RFC 1918 leak the paper measured
        speed: 350,
        results: vec![HitResult {
            index: 0x0100_0000,
            size: 58_368,
            name: "crimson_horizon_remix.exe".into(),
            sha1: Some(sha1(b"the malicious payload")),
        }],
        vendor: *b"LIME",
        flags: QhdFlags::new().with(QHD_PUSH, true),
        ggep: Vec::new(),
        servent_guid,
    };
    let mut hit_wire = Vec::new();
    encode_message(
        query_guid,
        MsgType::QueryHit,
        4,
        0,
        &hit.encode(),
        &mut hit_wire,
    );
    hexdump(
        "QUERYHIT answering it (note the private source address)",
        &hit_wire,
    );

    // Reassemble both from a dribbled byte stream.
    let mut reader = MessageReader::new();
    let mut stream = wire.clone();
    stream.extend_from_slice(&hit_wire);
    for chunk in stream.chunks(11) {
        reader.push(chunk);
    }
    let (h1, p1) = reader.next_message().unwrap().unwrap();
    let (h2, p2) = reader.next_message().unwrap().unwrap();
    let q = Query::parse(&p1).unwrap();
    let qh = QueryHit::parse(&p2).unwrap();
    println!("reparsed: {:?} text={:?}", h1.msg_type, q.text);
    println!(
        "reparsed: {:?} from {}:{} push={} result={:?} ({} bytes)\n",
        h2.msg_type,
        qh.ip,
        qh.port,
        qh.flags.needs_push(),
        qh.results[0].name,
        qh.results[0].size,
    );

    // --- QRP: the table a leaf sends its ultrapeer ----------------------
    let mut table = QrpTable::default_table();
    table.insert_name("crimson_horizon_remix.mp3");
    table.insert_name("silver_echo_toolkit_3.1.exe");
    let msgs = table.to_messages(4096, true);
    println!(
        "QRP table: {} slots, {} populated, shipped as {} messages",
        table.len(),
        table.population(),
        msgs.len()
    );
    // The ultrapeer files the table under the leaf's connection, then asks
    // which leaves a query's keywords reach.
    let leaf = p2pmal::netsim::ConnId(1);
    let mut index = QrpIndex::new();
    index.add_leaf(leaf);
    for m in &msgs {
        index.apply(leaf, m).unwrap();
    }
    let mut reaches = |query: &str| {
        let hashes: Vec<u64> = keywords(query).iter().map(|w| qrp_hash_full(w)).collect();
        let mut sent = false;
        index.route_last_hop(&hashes, p2pmal::netsim::ConnId(0), |c| sent |= c == leaf);
        sent
    };
    println!(
        "ultrapeer side after RESET+PATCH: matches 'crimson horizon'? {} — 'metallica'? {}\n",
        reaches("crimson horizon"),
        reaches("metallica"),
    );

    // --- OpenFT: a search round trip -------------------------------------
    println!("== OpenFT ==\n");
    let req = Search::Request {
        id: 1,
        query: "silver echo toolkit".into(),
    };
    let mut ft_wire = Vec::new();
    encode_packet(Command::Search, &req.encode(), &mut ft_wire);
    hexdump(
        "SEARCH request packet (u16 len + u16 command framing)",
        &ft_wire,
    );

    let result = Search::Result(SearchResult {
        id: 1,
        host: Ipv4Addr::new(4, 8, 15, 16),
        port: 1215,
        http_port: 1216,
        avail: 1,
        md5: p2pmal::hashes::md5(b"registered share"),
        size: 33_280,
        filename: "silver_echo_toolkit.exe".into(),
    });
    let mut res_wire = Vec::new();
    encode_packet(Command::Search, &result.encode(), &mut res_wire);
    encode_packet(
        Command::Search,
        &Search::End { id: 1 }.encode(),
        &mut res_wire,
    );
    hexdump("SEARCH result + end-of-results packets", &res_wire);

    let mut pr = PacketReader::new();
    pr.push(&res_wire);
    while let Some((cmd, payload)) = pr.next_packet().unwrap() {
        println!("reparsed {cmd:?}: {:?}", Search::parse(&payload).unwrap());
    }
}
