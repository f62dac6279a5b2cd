//! Property tests for the OpenFT codec: roundtrips for arbitrary values,
//! and panic-freedom on arbitrary bytes.

use p2pmal_hashes::Md5Digest;
use p2pmal_openft::http::RequestReader;
use p2pmal_openft::packet::{
    encode_packet, AddShare, Child, Command, NodeEntry, NodeInfo, NodeList, PacketError,
    PacketReader, RemShare, Search, SearchRef, SearchResult, Session, Version, MAX_PAYLOAD,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3]))
}

fn arb_md5() -> impl Strategy<Value = Md5Digest> {
    any::<[u8; 16]>().prop_map(Md5Digest)
}

fn arb_str() -> impl Strategy<Value = String> {
    "[ -~&&[^\\x00]]{0,48}"
}

/// File names a result can carry: empty, one byte, non-ASCII, arbitrary
/// (NUL-free) text, and the longest three that still fit a payload.
fn arb_filename() -> impl Strategy<Value = String> {
    (any::<u8>(), proptest::collection::vec(any::<u32>(), 0..40)).prop_map(|(kind, chars)| {
        match kind % 6 {
            0 => String::new(),
            1 => "x".to_string(),
            2 => "na\u{ef}ve_\u{65e5}\u{672c}.exe".to_string(),
            3 => "n".repeat(MAX_PAYLOAD - 37 - (kind as usize / 6) % 3),
            _ => chars
                .into_iter()
                .filter_map(|c| char::from_u32(c % 0x11_0000))
                .filter(|&c| c != '\0')
                .collect(),
        }
    })
}

/// The owning SEARCH decoder as it stood before `Search::parse_ref`,
/// written out on its own: the oracle both public decoders answer to.
fn parse_reference(data: &[u8]) -> Result<Search, PacketError> {
    fn take<'a>(d: &mut &'a [u8], n: usize) -> Result<&'a [u8], PacketError> {
        if d.len() < n {
            return Err(PacketError::Truncated);
        }
        let (front, rest) = d.split_at(n);
        *d = rest;
        Ok(front)
    }
    fn u16_be(d: &mut &[u8]) -> Result<u16, PacketError> {
        Ok(u16::from_be_bytes(take(d, 2)?.try_into().unwrap()))
    }
    fn u32_be(d: &mut &[u8]) -> Result<u32, PacketError> {
        Ok(u32::from_be_bytes(take(d, 4)?.try_into().unwrap()))
    }
    fn cstr(d: &mut &[u8]) -> Result<String, PacketError> {
        let nul = d
            .iter()
            .position(|&b| b == 0)
            .ok_or(PacketError::MissingNul)?;
        let s = std::str::from_utf8(&d[..nul]).map_err(|_| PacketError::BadUtf8)?;
        let s = s.to_string();
        *d = &d[nul + 1..];
        Ok(s)
    }
    let d = &mut &data[..];
    let id = u32_be(d)?;
    match u16_be(d)? {
        1 => Ok(Search::Request {
            id,
            query: cstr(d)?,
        }),
        2 => Ok(Search::Result(SearchResult {
            id,
            host: <[u8; 4]>::try_from(take(d, 4)?).unwrap().into(),
            port: u16_be(d)?,
            http_port: u16_be(d)?,
            avail: u16_be(d)?,
            md5: Md5Digest(take(d, 16)?.try_into().unwrap()),
            size: u32_be(d)?,
            filename: cstr(d)?,
        })),
        3 => Ok(Search::End { id }),
        k => Err(PacketError::UnknownCommand(k)),
    }
}

/// The in-place decoder and the owning one built on it accept and reject
/// exactly what the reference does, with the same value or error.
fn assert_search_decoders_agree(data: &[u8]) {
    let want = parse_reference(data);
    assert_eq!(Search::parse_ref(data).map(SearchRef::to_owned), want);
    assert_eq!(Search::parse(data), want);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn search_decoders_agree_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        assert_search_decoders_agree(&data);
    }

    /// What a SEARCH node writes straight into the send buffer is byte for
    /// byte the packet the owning path framed, and damaged copies of it
    /// are judged alike by every decoder.
    #[test]
    fn in_place_result_is_the_framed_result(
        id in any::<u32>(),
        host in arb_ip(),
        port in any::<u16>(),
        http_port in any::<u16>(),
        avail in any::<u16>(),
        md5 in arb_md5(),
        size in any::<u32>(),
        filename in arb_filename(),
        bit in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let result = SearchResult { id, host, port, http_port, avail, md5, size, filename };
        let payload = Search::Result(result.clone()).encode();
        let mut framed = Vec::new();
        encode_packet(Command::Search, &payload, &mut framed);
        // Appended: whatever the buffer held stays in front.
        let mut in_place = vec![0xAA];
        result.borrowed().encode_packet(&mut in_place);
        prop_assert_eq!(&in_place[1..], &framed[..]);
        prop_assert_eq!(Search::parse_ref(&payload), Ok(SearchRef::Result(result.borrowed())));
        for bad in damaged(&payload, bit, cut) {
            assert_search_decoders_agree(&bad);
        }
    }

    #[test]
    fn packet_reader_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut r = PacketReader::new();
        r.push(&data);
        for _ in 0..64 {
            match r.next_packet() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    #[test]
    fn payload_parsers_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Version::parse(&data);
        let _ = NodeInfo::parse(&data);
        let _ = NodeList::parse(&data);
        let _ = Session::parse(&data);
        let _ = Child::parse(&data);
        let _ = AddShare::parse(&data);
        let _ = RemShare::parse(&data);
        let _ = Search::parse(&data);
    }

    #[test]
    fn request_reader_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut rr = RequestReader::new();
        rr.push(&data);
        let _ = rr.request();
    }

    #[test]
    fn nodeinfo_roundtrip(klass in any::<u16>(), port in any::<u16>(), http in any::<u16>(), alias in arb_str()) {
        let n = NodeInfo {
            klass,
            port,
            http_port: http,
            alias: alias.into(),
        };
        prop_assert_eq!(NodeInfo::parse(&n.encode()).unwrap(), n);
    }

    #[test]
    fn nodelist_roundtrip(entries in proptest::collection::vec((arb_ip(), any::<u16>(), any::<u16>()), 1..16)) {
        let list = NodeList::Response(
            entries.into_iter().map(|(ip, port, klass)| NodeEntry { ip, port, klass }).collect(),
        );
        prop_assert_eq!(NodeList::parse(&list.encode()).unwrap(), list);
    }

    #[test]
    fn addshare_roundtrip(md5 in arb_md5(), size in any::<u32>(), path in arb_str()) {
        let a = AddShare { md5, size, path };
        prop_assert_eq!(AddShare::parse(&a.encode()).unwrap(), a);
    }

    #[test]
    fn search_roundtrips(
        id in any::<u32>(),
        query in arb_str(),
        host in arb_ip(),
        port in any::<u16>(),
        http_port in any::<u16>(),
        avail in any::<u16>(),
        md5 in arb_md5(),
        size in any::<u32>(),
        filename in arb_str(),
    ) {
        let req = Search::Request { id, query };
        let res = Search::Result(SearchResult { id, host, port, http_port, avail, md5, size, filename });
        let end = Search::End { id };
        for msg in [req, res, end] {
            prop_assert_eq!(Search::parse(&msg.encode()).unwrap(), msg.clone());
            // Framed in place: appended, and the bytes of the two-step path.
            let mut framed = vec![0xAA];
            encode_packet(Command::Search, &msg.encode(), &mut framed);
            let mut in_place = vec![0xAA];
            msg.borrowed().encode_packet(&mut in_place);
            prop_assert_eq!(in_place, framed);
        }
    }

    #[test]
    fn framing_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut wire = Vec::new();
        encode_packet(Command::Stats, &payload, &mut wire);
        let mut r = PacketReader::new();
        r.push(&wire);
        let (cmd, got) = r.next_packet().unwrap().unwrap();
        prop_assert_eq!(cmd, Command::Stats);
        prop_assert_eq!(got, payload);
        prop_assert_eq!(r.buffered(), 0);
    }
}
