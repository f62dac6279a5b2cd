//! OpenFT packet framing and typed payloads.
//!
//! OpenFT (the giFT project's native network) frames every message as
//!
//! ```text
//! u16 length   (payload bytes, big-endian)
//! u16 command
//! payload
//! ```
//!
//! Integers are big-endian ("network order", as giFT transmitted them);
//! strings are NUL-terminated. Commands cover session setup (VERSION,
//! NODEINFO, SESSION), topology discovery (NODELIST, NODECAP, PING), the
//! parent/child share-registration protocol (CHILD, ADDSHARE, REMSHARE,
//! MODSHARE, STATS), and search (SEARCH, BROWSE).

use p2pmal_hashes::Md5Digest;
use p2pmal_netsim::{Feed, StreamBuf};
use std::fmt;
use std::net::Ipv4Addr;

/// OpenFT command numbers (giFT `ft_packet.h` ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    Version = 0,
    NodeInfo = 1,
    NodeList = 2,
    NodeCap = 3,
    Ping = 4,
    Session = 5,
    Child = 6,
    AddShare = 7,
    RemShare = 8,
    ModShare = 9,
    Stats = 10,
    Search = 11,
    Browse = 12,
}

impl Command {
    pub fn from_u16(v: u16) -> Option<Command> {
        use Command::*;
        Some(match v {
            0 => Version,
            1 => NodeInfo,
            2 => NodeList,
            3 => NodeCap,
            4 => Ping,
            5 => Session,
            6 => Child,
            7 => AddShare,
            8 => RemShare,
            9 => ModShare,
            10 => Stats,
            11 => Search,
            12 => Browse,
            _ => return None,
        })
    }
}

/// Node class bitmask.
pub const CLASS_USER: u16 = 0x01;
pub const CLASS_SEARCH: u16 = 0x02;
pub const CLASS_INDEX: u16 = 0x04;

/// Hard payload ceiling, as the C implementation enforced (u16 length).
pub const MAX_PAYLOAD: usize = u16::MAX as usize;

/// Framing / payload errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    UnknownCommand(u16),
    Truncated,
    MissingNul,
    BadUtf8,
    TooLong,
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::UnknownCommand(c) => write!(f, "unknown OpenFT command {c}"),
            PacketError::Truncated => write!(f, "truncated packet"),
            PacketError::MissingNul => write!(f, "missing string terminator"),
            PacketError::BadUtf8 => write!(f, "invalid UTF-8"),
            PacketError::TooLong => write!(f, "payload too long"),
        }
    }
}

impl std::error::Error for PacketError {}

/// Encodes one packet into `out`.
pub fn encode_packet(cmd: Command, payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "payload {} too long",
        payload.len()
    );
    out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    out.extend_from_slice(&(cmd as u16).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Length of the `(length, command)` packet header.
const HEADER_LEN: usize = 4;

/// Where the next packet ends, for [`StreamBuf`]: its command and the
/// frame's total length once all of it is there.
fn split_frame(bytes: &[u8]) -> Result<Option<(Command, usize)>, PacketError> {
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
    let cmd_raw = u16::from_be_bytes([bytes[2], bytes[3]]);
    let cmd = Command::from_u16(cmd_raw).ok_or(PacketError::UnknownCommand(cmd_raw))?;
    let total = HEADER_LEN + len;
    Ok((bytes.len() >= total).then_some((cmd, total)))
}

/// Incremental packet framer. An unknown command poisons the stream: the
/// caller must drop the connection; later calls repeat the error.
#[derive(Debug, Default)]
pub struct PacketReader {
    stream: StreamBuf,
}

impl PacketReader {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, data: &[u8]) {
        self.stream.push(data);
    }

    pub fn buffered(&self) -> usize {
        self.stream.buffered()
    }

    /// Pops the next complete buffered `(command, payload)` as an owned
    /// copy.
    pub fn next_packet(&mut self) -> Result<Option<(Command, Vec<u8>)>, PacketError> {
        let frame = self.stream.next_frame(split_frame)?;
        Ok(frame.map(|(cmd, frame)| (cmd, frame[HEADER_LEN..].to_vec())))
    }

    /// Starts a borrowing pass over the stream extended by `chunk`: the
    /// payloads are slices of `chunk` itself unless earlier bytes were
    /// waiting, and only a trailing partial packet is copied.
    pub fn frames<'a>(&'a mut self, chunk: &'a [u8]) -> Frames<'a> {
        Frames(self.stream.feed(chunk))
    }
}

/// A pass over a [`PacketReader`] and one delivered chunk; see
/// [`PacketReader::frames`].
#[derive(Debug)]
pub struct Frames<'a>(Feed<'a>);

impl Frames<'_> {
    /// The next complete `(command, payload)`, if any, payload borrowed.
    pub fn next_frame(&mut self) -> Result<Option<(Command, &[u8])>, PacketError> {
        let frame = self.0.next_frame(split_frame)?;
        Ok(frame.map(|(cmd, frame)| (cmd, &frame[HEADER_LEN..])))
    }
}

// -- payload cursor ---------------------------------------------------------

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PacketError> {
        if self.data.len() - self.pos < n {
            return Err(PacketError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, PacketError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, PacketError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn ipv4(&mut self) -> Result<Ipv4Addr, PacketError> {
        let b = self.take(4)?;
        Ok(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
    }

    fn md5(&mut self) -> Result<Md5Digest, PacketError> {
        let b = self.take(16)?;
        let mut d = [0u8; 16];
        d.copy_from_slice(b);
        Ok(Md5Digest(d))
    }

    fn cstr(&mut self) -> Result<&'a str, PacketError> {
        let rest = &self.data[self.pos..];
        let nul = rest
            .iter()
            .position(|&b| b == 0)
            .ok_or(PacketError::MissingNul)?;
        let s = std::str::from_utf8(&rest[..nul]).map_err(|_| PacketError::BadUtf8)?;
        self.pos += nul + 1;
        Ok(s)
    }

    fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(s.as_bytes());
    out.push(0);
}

// -- typed payloads ---------------------------------------------------------

/// VERSION: protocol version advertisement (first packet both ways).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    pub major: u16,
    pub minor: u16,
    pub micro: u16,
}

impl Version {
    /// The protocol revision this crate speaks (giFT 0.11.x era).
    pub const CURRENT: Version = Version {
        major: 0,
        minor: 2,
        micro: 1,
    };

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(6);
        out.extend_from_slice(&self.major.to_be_bytes());
        out.extend_from_slice(&self.minor.to_be_bytes());
        out.extend_from_slice(&self.micro.to_be_bytes());
        out
    }

    pub fn parse(data: &[u8]) -> Result<Self, PacketError> {
        let mut r = Reader::new(data);
        Ok(Version {
            major: r.u16()?,
            minor: r.u16()?,
            micro: r.u16()?,
        })
    }
}

/// NODEINFO: class bitmask, OpenFT port, HTTP port, alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    pub klass: u16,
    pub port: u16,
    pub http_port: u16,
    /// `Arc<str>` so routing state can hold a world-interned copy (see
    /// `FtNode`'s NodeInfo handler); parsing allocates a fresh one.
    pub alias: std::sync::Arc<str>,
}

impl NodeInfo {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.klass.to_be_bytes());
        out.extend_from_slice(&self.port.to_be_bytes());
        out.extend_from_slice(&self.http_port.to_be_bytes());
        put_str(&mut out, &self.alias);
        out
    }

    pub fn parse(data: &[u8]) -> Result<Self, PacketError> {
        let mut r = Reader::new(data);
        Ok(NodeInfo {
            klass: r.u16()?,
            port: r.u16()?,
            http_port: r.u16()?,
            alias: r.cstr()?.into(),
        })
    }

    pub fn is_search(&self) -> bool {
        self.klass & CLASS_SEARCH != 0
    }

    pub fn is_index(&self) -> bool {
        self.klass & CLASS_INDEX != 0
    }
}

/// One NODELIST entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeEntry {
    pub ip: Ipv4Addr,
    pub port: u16,
    pub klass: u16,
}

/// NODELIST: empty payload = request; otherwise a response carrying peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeList {
    Request,
    Response(Vec<NodeEntry>),
}

impl NodeList {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            NodeList::Request => Vec::new(),
            NodeList::Response(entries) => {
                let mut out = Vec::with_capacity(entries.len() * 8);
                for e in entries {
                    out.extend_from_slice(&e.ip.octets());
                    out.extend_from_slice(&e.port.to_be_bytes());
                    out.extend_from_slice(&e.klass.to_be_bytes());
                }
                out
            }
        }
    }

    pub fn parse(data: &[u8]) -> Result<Self, PacketError> {
        if data.is_empty() {
            return Ok(NodeList::Request);
        }
        if !data.len().is_multiple_of(8) {
            return Err(PacketError::Truncated);
        }
        let mut r = Reader::new(data);
        let mut entries = Vec::with_capacity(data.len() / 8);
        while !r.at_end() {
            entries.push(NodeEntry {
                ip: r.ipv4()?,
                port: r.u16()?,
                klass: r.u16()?,
            });
        }
        Ok(NodeList::Response(entries))
    }
}

/// SESSION: stage 0 request, stage 1 accept/deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Session {
    Request,
    Response { accepted: bool },
}

impl Session {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Session::Request => vec![0, 0],
            Session::Response { accepted } => vec![0, 1, 0, u8::from(*accepted)],
        }
    }

    pub fn parse(data: &[u8]) -> Result<Self, PacketError> {
        let mut r = Reader::new(data);
        match r.u16()? {
            0 => Ok(Session::Request),
            1 => Ok(Session::Response {
                accepted: r.u16()? != 0,
            }),
            _ => Err(PacketError::Truncated),
        }
    }
}

/// CHILD: a USER asks a SEARCH node to become its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Child {
    Request,
    Response { accepted: bool },
}

impl Child {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Child::Request => Vec::new(),
            Child::Response { accepted } => vec![0, u8::from(*accepted)],
        }
    }

    pub fn parse(data: &[u8]) -> Result<Self, PacketError> {
        if data.is_empty() {
            return Ok(Child::Request);
        }
        let mut r = Reader::new(data);
        Ok(Child::Response {
            accepted: r.u16()? != 0,
        })
    }
}

/// ADDSHARE: register one file with the parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddShare {
    pub md5: Md5Digest,
    pub size: u32,
    pub path: String,
}

impl AddShare {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.md5.0);
        out.extend_from_slice(&self.size.to_be_bytes());
        put_str(&mut out, &self.path);
        out
    }

    pub fn parse(data: &[u8]) -> Result<Self, PacketError> {
        let mut r = Reader::new(data);
        Ok(AddShare {
            md5: r.md5()?,
            size: r.u32()?,
            path: r.cstr()?.to_string(),
        })
    }
}

/// REMSHARE: withdraw one file (by MD5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemShare {
    pub md5: Md5Digest,
}

impl RemShare {
    pub fn encode(&self) -> Vec<u8> {
        self.md5.0.to_vec()
    }

    pub fn parse(data: &[u8]) -> Result<Self, PacketError> {
        let mut r = Reader::new(data);
        Ok(RemShare { md5: r.md5()? })
    }
}

/// SEARCH request / response stream. One request fans out into zero or
/// more `Result` packets, terminated by an `End` packet with the same id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Search {
    Request { id: u32, query: String },
    Result(SearchResult),
    End { id: u32 },
}

/// One search result: where to fetch which bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    pub id: u32,
    /// Host that actually serves the file (children register with parents,
    /// so results point at third parties).
    pub host: Ipv4Addr,
    pub port: u16,
    pub http_port: u16,
    /// How many simultaneous uploads the host advertises.
    pub avail: u16,
    pub md5: Md5Digest,
    pub size: u32,
    pub filename: String,
}

/// A [`Search`] decoded in place, its strings still slices of the payload:
/// all a node needs to answer a request or count a result nobody reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchRef<'a> {
    Request { id: u32, query: &'a str },
    Result(SearchResultRef<'a>),
    End { id: u32 },
}

/// A [`SearchResult`] with the filename borrowed: what decoding yields
/// before anything is copied, and all that encoding needs — a SEARCH node
/// answers from an index row without building the owning form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchResultRef<'a> {
    pub id: u32,
    pub host: Ipv4Addr,
    pub port: u16,
    pub http_port: u16,
    pub avail: u16,
    pub md5: Md5Digest,
    pub size: u32,
    pub filename: &'a str,
}

/// The results for one search that one delivery carried, as a collecting
/// node keeps them: the fixed fields in rows, every filename in one buffer,
/// read back as [`SearchResultRef`]s — no allocation per result.
#[derive(Debug, Clone)]
pub struct ResultBatch {
    id: u32,
    rows: Vec<BatchRow>,
    names: String,
}

/// A [`SearchResultRef`] less the search id (the batch's) and with its
/// filename as the end of a span of [`ResultBatch::names`].
#[derive(Debug, Clone)]
struct BatchRow {
    host: Ipv4Addr,
    port: u16,
    http_port: u16,
    avail: u16,
    md5: Md5Digest,
    size: u32,
    name_end: usize,
}

impl ResultBatch {
    /// An empty batch of results for search `id`.
    pub fn new(id: u32) -> Self {
        ResultBatch {
            id,
            rows: Vec::new(),
            names: String::new(),
        }
    }

    /// The search every result in the batch answers.
    pub fn id(&self) -> u32 {
        self.id
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends `result`, which must answer this batch's search.
    pub fn push(&mut self, result: &SearchResultRef<'_>) {
        debug_assert_eq!(result.id, self.id);
        self.names.push_str(result.filename);
        self.rows.push(BatchRow {
            host: result.host,
            port: result.port,
            http_port: result.http_port,
            avail: result.avail,
            md5: result.md5,
            size: result.size,
            name_end: self.names.len(),
        });
    }

    /// The `i`-th result, in arrival order.
    pub fn get(&self, i: usize) -> SearchResultRef<'_> {
        let row = &self.rows[i];
        let start = i.checked_sub(1).map_or(0, |prev| self.rows[prev].name_end);
        SearchResultRef {
            id: self.id,
            host: row.host,
            port: row.port,
            http_port: row.http_port,
            avail: row.avail,
            md5: row.md5,
            size: row.size,
            filename: &self.names[start..row.name_end],
        }
    }
}

impl SearchResult {
    pub fn borrowed(&self) -> SearchResultRef<'_> {
        SearchResultRef {
            id: self.id,
            host: self.host,
            port: self.port,
            http_port: self.http_port,
            avail: self.avail,
            md5: self.md5,
            size: self.size,
            filename: &self.filename,
        }
    }
}

impl SearchResultRef<'_> {
    pub fn to_owned(self) -> SearchResult {
        SearchResult {
            id: self.id,
            host: self.host,
            port: self.port,
            http_port: self.http_port,
            avail: self.avail,
            md5: self.md5,
            size: self.size,
            filename: self.filename.to_string(),
        }
    }

    fn put_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&2u16.to_be_bytes()); // kind 2: result
        out.extend_from_slice(&self.host.octets());
        out.extend_from_slice(&self.port.to_be_bytes());
        out.extend_from_slice(&self.http_port.to_be_bytes());
        out.extend_from_slice(&self.avail.to_be_bytes());
        out.extend_from_slice(&self.md5.0);
        out.extend_from_slice(&self.size.to_be_bytes());
        put_str(out, self.filename);
    }

    /// Appends this result as one framed SEARCH packet; see
    /// [`SearchRef::encode_packet`].
    pub fn encode_packet(&self, out: &mut Vec<u8>) {
        SearchRef::Result(*self).encode_packet(out);
    }
}

impl SearchRef<'_> {
    pub fn to_owned(self) -> Search {
        match self {
            SearchRef::Request { id, query } => Search::Request {
                id,
                query: query.to_string(),
            },
            SearchRef::Result(res) => Search::Result(res.to_owned()),
            SearchRef::End { id } => Search::End { id },
        }
    }

    fn put_payload(&self, out: &mut Vec<u8>) {
        match self {
            SearchRef::Request { id, query } => {
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&1u16.to_be_bytes()); // kind 1: request
                put_str(out, query);
            }
            SearchRef::Result(res) => res.put_payload(out),
            SearchRef::End { id } => {
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&3u16.to_be_bytes()); // kind 3: end
            }
        }
    }

    /// Appends this message as one framed SEARCH packet: the bytes of
    /// `encode_packet(Command::Search, &self.to_owned().encode(), out)`
    /// without the owning form or the payload `Vec` in between.
    pub fn encode_packet(&self, out: &mut Vec<u8>) {
        let head = out.len();
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&(Command::Search as u16).to_be_bytes());
        self.put_payload(out);
        let len = out.len() - head - HEADER_LEN;
        assert!(len <= MAX_PAYLOAD, "payload {len} too long");
        out[head..head + 2].copy_from_slice(&(len as u16).to_be_bytes());
    }
}

impl Search {
    pub fn borrowed(&self) -> SearchRef<'_> {
        match self {
            Search::Request { id, query } => SearchRef::Request { id: *id, query },
            Search::Result(res) => SearchRef::Result(res.borrowed()),
            Search::End { id } => SearchRef::End { id: *id },
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.borrowed().put_payload(&mut out);
        out
    }

    pub fn parse(data: &[u8]) -> Result<Self, PacketError> {
        Self::parse_ref(data).map(SearchRef::to_owned)
    }

    /// The one decoder of SEARCH payloads: every check [`Search::parse`]
    /// makes (it is this plus the copies) and no allocation.
    pub fn parse_ref(data: &[u8]) -> Result<SearchRef<'_>, PacketError> {
        let mut r = Reader::new(data);
        let id = r.u32()?;
        match r.u16()? {
            1 => Ok(SearchRef::Request {
                id,
                query: r.cstr()?,
            }),
            2 => Ok(SearchRef::Result(SearchResultRef {
                id,
                host: r.ipv4()?,
                port: r.u16()?,
                http_port: r.u16()?,
                avail: r.u16()?,
                md5: r.md5()?,
                size: r.u32()?,
                filename: r.cstr()?,
            })),
            3 => Ok(SearchRef::End { id }),
            k => Err(PacketError::UnknownCommand(k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmal_hashes::md5;

    #[test]
    fn framing_roundtrip_across_chunks() {
        let mut wire = Vec::new();
        encode_packet(Command::Version, &Version::CURRENT.encode(), &mut wire);
        encode_packet(Command::Ping, &[], &mut wire);
        encode_packet(
            Command::Search,
            &Search::Request {
                id: 7,
                query: "free stuff".into(),
            }
            .encode(),
            &mut wire,
        );
        let mut r = PacketReader::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(3) {
            r.push(chunk);
            while let Some(p) = r.next_packet().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, Command::Version);
        assert_eq!(got[1].0, Command::Ping);
        assert!(got[1].1.is_empty());
        assert_eq!(
            Search::parse(&got[2].1).unwrap(),
            Search::Request {
                id: 7,
                query: "free stuff".into()
            }
        );
        assert_eq!(r.buffered(), 0);
    }

    /// `buf.drain(..4 + len)` per packet made a chunk of n glued packets
    /// cost O(n²) byte moves; the cursor compacts once per push.
    #[test]
    fn thousands_of_glued_packets_come_back_in_order() {
        const N: u32 = 2_500;
        let mut wire = Vec::new();
        for id in 0..N {
            encode_packet(Command::Search, &Search::End { id }.encode(), &mut wire);
            encode_packet(Command::Ping, &[], &mut wire);
        }
        let check = |got: &[(Command, Vec<u8>)]| {
            assert_eq!(got.len(), 2 * N as usize);
            for (id, pair) in got.chunks(2).enumerate() {
                assert_eq!(pair[0].0, Command::Search);
                let end = Search::End { id: id as u32 };
                assert_eq!(Search::parse(&pair[0].1).unwrap(), end);
                assert_eq!(pair[1], (Command::Ping, Vec::new()));
            }
        };
        let mut r = PacketReader::new();
        let mut got = Vec::new();
        r.push(&wire);
        while let Some(p) = r.next_packet().unwrap() {
            got.push(p);
        }
        check(&got);
        assert_eq!(r.buffered(), 0);
        got.clear();
        for chunk in wire.chunks(7) {
            r.push(chunk);
            while let Some(p) = r.next_packet().unwrap() {
                got.push(p);
            }
        }
        check(&got);
        assert_eq!(r.buffered(), 0);
        // The borrowing pass sees the same stream, split or whole.
        got.clear();
        for chunk in [&wire[..3], &wire[3..], &wire[..]] {
            let mut frames = r.frames(chunk);
            while let Some((cmd, payload)) = frames.next_frame().unwrap() {
                got.push((cmd, payload.to_vec()));
            }
        }
        check(&got[..2 * N as usize]);
        check(&got[2 * N as usize..]);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn unknown_command_is_fatal() {
        let mut r = PacketReader::new();
        r.push(&[0, 0, 0, 99]);
        assert_eq!(r.next_packet(), Err(PacketError::UnknownCommand(99)));
    }

    #[test]
    fn version_roundtrip() {
        let v = Version {
            major: 1,
            minor: 2,
            micro: 3,
        };
        assert_eq!(Version::parse(&v.encode()).unwrap(), v);
        assert!(Version::parse(&[0, 1]).is_err());
    }

    #[test]
    fn nodeinfo_roundtrip_and_class_bits() {
        let n = NodeInfo {
            klass: CLASS_USER | CLASS_SEARCH,
            port: 1215,
            http_port: 1216,
            alias: "copper".into(),
        };
        let parsed = NodeInfo::parse(&n.encode()).unwrap();
        assert_eq!(parsed, n);
        assert!(parsed.is_search());
        assert!(!parsed.is_index());
    }

    #[test]
    fn nodelist_roundtrip() {
        assert_eq!(
            NodeList::parse(&NodeList::Request.encode()).unwrap(),
            NodeList::Request
        );
        let resp = NodeList::Response(vec![
            NodeEntry {
                ip: Ipv4Addr::new(1, 2, 3, 4),
                port: 1215,
                klass: CLASS_SEARCH,
            },
            NodeEntry {
                ip: Ipv4Addr::new(9, 9, 9, 9),
                port: 1999,
                klass: CLASS_INDEX,
            },
        ]);
        assert_eq!(NodeList::parse(&resp.encode()).unwrap(), resp);
        // Non-multiple-of-8 payload is corrupt.
        assert!(NodeList::parse(&[1, 2, 3]).is_err());
    }

    #[test]
    fn session_and_child_roundtrip() {
        for s in [
            Session::Request,
            Session::Response { accepted: true },
            Session::Response { accepted: false },
        ] {
            assert_eq!(Session::parse(&s.encode()).unwrap(), s);
        }
        for c in [
            Child::Request,
            Child::Response { accepted: true },
            Child::Response { accepted: false },
        ] {
            assert_eq!(Child::parse(&c.encode()).unwrap(), c);
        }
    }

    #[test]
    fn share_packets_roundtrip() {
        let a = AddShare {
            md5: md5(b"x"),
            size: 12345,
            path: "/shared/thing.exe".into(),
        };
        assert_eq!(AddShare::parse(&a.encode()).unwrap(), a);
        let rm = RemShare { md5: md5(b"x") };
        assert_eq!(RemShare::parse(&rm.encode()).unwrap(), rm);
    }

    #[test]
    fn search_result_roundtrip() {
        let res = SearchResult {
            id: 42,
            host: Ipv4Addr::new(10, 0, 0, 7),
            port: 1215,
            http_port: 1216,
            avail: 3,
            md5: md5(b"payload"),
            size: 33_280,
            filename: "winzip_crack.exe".into(),
        };
        let s = Search::Result(res.clone());
        assert_eq!(Search::parse(&s.encode()).unwrap(), s);
        assert_eq!(
            Search::parse(&Search::End { id: 42 }.encode()).unwrap(),
            Search::End { id: 42 }
        );
    }

    /// A batch hands back what was pushed, in order — empty and non-ASCII
    /// filenames included — under the batch's search id.
    #[test]
    fn result_batch_reads_back_what_was_pushed() {
        let names = ["winzip_crack.exe", "", "caf\u{e9}_\u{266b}.mp3", "b.zip"];
        let pushed: Vec<SearchResult> = (0u8..4)
            .map(|k| SearchResult {
                id: 42,
                host: Ipv4Addr::new(10, 0, 0, k),
                port: 1215 + k as u16,
                http_port: 1216,
                avail: k as u16,
                md5: md5(&[k]),
                size: 1_000 * k as u32,
                filename: names[k as usize].into(),
            })
            .collect();
        let mut batch = ResultBatch::new(42);
        assert!(batch.is_empty());
        for r in &pushed {
            batch.push(&r.borrowed());
        }
        assert_eq!((batch.id(), batch.len()), (42, 4));
        let read: Vec<SearchResult> = (0..4).map(|i| batch.get(i).to_owned()).collect();
        assert_eq!(read, pushed);
    }

    #[test]
    fn search_truncations_never_panic() {
        let res = Search::Result(SearchResult {
            id: 1,
            host: Ipv4Addr::new(1, 1, 1, 1),
            port: 1,
            http_port: 2,
            avail: 0,
            md5: md5(b"z"),
            size: 9,
            filename: "f.exe".into(),
        });
        let wire = res.encode();
        for cut in 0..wire.len() {
            let _ = Search::parse(&wire[..cut]);
        }
    }
}
