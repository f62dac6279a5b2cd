//! Property tests: codec roundtrips hold for arbitrary field values, and
//! no parser panics on arbitrary (adversarial) wire bytes.

use p2pmal_gnutella::ggep::{self, Extension};
use p2pmal_gnutella::guid::Guid;
use p2pmal_gnutella::handshake::{HandshakeConfig, Initiator, Responder};
use p2pmal_gnutella::http::{parse_giv, RequestReader, ResponseReader};
use p2pmal_gnutella::message::{encode_message, Header, MessageReader, MsgType};
use p2pmal_gnutella::payload::{Bye, HitResult, Ping, Pong, Push, QhdFlags, Query, QueryHit};
use p2pmal_gnutella::qrp::{keywords, QrpReceiver, QrpTable, RouteMsg};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_guid() -> impl Strategy<Value = Guid> {
    any::<[u8; 16]>().prop_map(Guid)
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
        let mut rx = QrpReceiver::new();
        for m in t.to_messages(128, compress) {
            // Wire roundtrip each message too.
            let m2 = RouteMsg::parse(&m.encode()).unwrap();
            rx.apply(&m2).unwrap();
        }
        // The received present-bit filter must agree with the sent table
        // on every query (the only observable the forwarding path reads).
        let f = rx.filter().unwrap();
        prop_assert_eq!(f.population(), t.population());
        for n in &names {
            prop_assert_eq!(f.might_match(n), t.might_match(n), "query {:?}", n);
        }
        for probe in ["zzz", "qqq xxx", "abc"] {
            prop_assert_eq!(f.might_match(probe), t.might_match(probe), "probe {:?}", probe);
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
