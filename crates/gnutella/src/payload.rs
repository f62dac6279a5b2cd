//! Typed Gnutella payloads: encode/parse for PING, PONG, QUERY, QUERYHIT,
//! PUSH and BYE.
//!
//! Follows the two-level smoltcp pattern: the wire `Header` lives in
//! [`crate::message`]; this module gives each payload a representation
//! struct with `encode()` into bytes and a strict `parse()` that never
//! panics on malformed input.

use crate::ggep::{self, Extension};
use p2pmal_hashes::{base32_decode, base32_encode, Sha1Digest};
use std::fmt;
use std::net::Ipv4Addr;

/// The GEM extension separator used between HUGE/GGEP blocks in query and
/// query-hit extension areas.
const GEM_SEP: u8 = 0x1C;

/// Payload parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadError {
    Truncated,
    MissingNul,
    BadUtf8,
    BadUrn,
    BadGgep(String),
    /// Structured trailing garbage, impossible result counts, etc.
    Malformed(&'static str),
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadError::Truncated => write!(f, "payload truncated"),
            PayloadError::MissingNul => write!(f, "missing NUL terminator"),
            PayloadError::BadUtf8 => write!(f, "invalid UTF-8 string"),
            PayloadError::BadUrn => write!(f, "invalid urn:sha1 extension"),
            PayloadError::BadGgep(e) => write!(f, "bad GGEP block: {e}"),
            PayloadError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for PayloadError {}

/// Cursor over a payload slice with checked reads.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PayloadError> {
        if self.remaining() < n {
            return Err(PayloadError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PayloadError> {
        Ok(self.take(1)?[0])
    }

    fn u16_le(&mut self) -> Result<u16, PayloadError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32_le(&mut self) -> Result<u32, PayloadError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn ipv4(&mut self) -> Result<Ipv4Addr, PayloadError> {
        let b = self.take(4)?;
        Ok(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
    }

    /// Reads up to (not including) the next NUL, consuming the NUL.
    fn cstr(&mut self) -> Result<&'a [u8], PayloadError> {
        let rest = &self.data[self.pos..];
        let nul = rest
            .iter()
            .position(|&b| b == 0)
            .ok_or(PayloadError::MissingNul)?;
        let s = &rest[..nul];
        self.pos += nul + 1;
        Ok(s)
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.data[self.pos..];
        self.pos = self.data.len();
        s
    }
}

fn utf8(b: &[u8]) -> Result<&str, PayloadError> {
    std::str::from_utf8(b).map_err(|_| PayloadError::BadUtf8)
}

// ---------------------------------------------------------------------------
// PING
// ---------------------------------------------------------------------------

/// A PING payload. Plain pings are empty; ultrapeers may attach GGEP (e.g.
/// `SCP` for "supports crawler pongs").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ping {
    pub ggep: Vec<Extension>,
}

impl Ping {
    pub fn encode(&self) -> Vec<u8> {
        if self.ggep.is_empty() {
            Vec::new()
        } else {
            ggep::encode(&self.ggep)
        }
    }

    pub fn parse(data: &[u8]) -> Result<Self, PayloadError> {
        if data.is_empty() {
            return Ok(Ping::default());
        }
        let (exts, used) = ggep::parse(data).map_err(|e| PayloadError::BadGgep(e.to_string()))?;
        if used != data.len() {
            return Err(PayloadError::Malformed("trailing bytes after PING GGEP"));
        }
        Ok(Ping { ggep: exts })
    }
}

// ---------------------------------------------------------------------------
// PONG
// ---------------------------------------------------------------------------

/// A PONG payload: the classic host advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pong {
    pub port: u16,
    pub ip: Ipv4Addr,
    /// Number of files the host shares.
    pub file_count: u32,
    /// Kilobytes shared.
    pub kbytes: u32,
    pub ggep: Vec<Extension>,
}

impl Pong {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(14);
        out.extend_from_slice(&self.port.to_le_bytes());
        out.extend_from_slice(&self.ip.octets());
        out.extend_from_slice(&self.file_count.to_le_bytes());
        out.extend_from_slice(&self.kbytes.to_le_bytes());
        if !self.ggep.is_empty() {
            out.extend_from_slice(&ggep::encode(&self.ggep));
        }
        out
    }

    pub fn parse(data: &[u8]) -> Result<Self, PayloadError> {
        let mut r = Reader::new(data);
        let port = r.u16_le()?;
        let ip = r.ipv4()?;
        let file_count = r.u32_le()?;
        let kbytes = r.u32_le()?;
        let rest = r.rest();
        let ggep = if rest.is_empty() {
            Vec::new()
        } else {
            let (exts, used) =
                ggep::parse(rest).map_err(|e| PayloadError::BadGgep(e.to_string()))?;
            if used != rest.len() {
                return Err(PayloadError::Malformed("trailing bytes after PONG GGEP"));
            }
            exts
        };
        Ok(Pong {
            port,
            ip,
            file_count,
            kbytes,
            ggep,
        })
    }
}

// ---------------------------------------------------------------------------
// QUERY
// ---------------------------------------------------------------------------

/// Bits in the QUERY min-speed field when interpreted as flags (modern
/// servents set bit 15 to mark the field as a flag set).
pub const QUERY_FLAG_MARKER: u16 = 0x8000;
/// Requester is firewalled.
pub const QUERY_FLAG_FIREWALLED: u16 = 0x4000;
/// Requester wants XML metadata.
pub const QUERY_FLAG_XML: u16 = 0x2000;

/// A QUERY payload: search text plus optional HUGE/GGEP extensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub min_speed: u16,
    pub text: String,
    /// Requested urn types / exact urns, e.g. `urn:sha1:` (bare request) or
    /// a full `urn:sha1:<base32>` lookup.
    pub urns: Vec<String>,
    pub ggep: Vec<Extension>,
}

impl Query {
    /// A plain keyword query as LimeWire would send it.
    pub fn keyword(text: &str) -> Self {
        Query {
            min_speed: QUERY_FLAG_MARKER | QUERY_FLAG_XML,
            text: text.to_string(),
            urns: vec!["urn:sha1:".to_string()],
            ggep: Vec::new(),
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.min_speed.to_le_bytes());
        out.extend_from_slice(self.text.as_bytes());
        out.push(0);
        let mut first = true;
        for urn in &self.urns {
            if !first {
                out.push(GEM_SEP);
            }
            out.extend_from_slice(urn.as_bytes());
            first = false;
        }
        if !self.ggep.is_empty() {
            if !first {
                out.push(GEM_SEP);
            }
            out.extend_from_slice(&ggep::encode(&self.ggep));
        }
        out
    }

    pub fn parse(data: &[u8]) -> Result<Self, PayloadError> {
        let mut urns = Vec::new();
        let mut ggep = Vec::new();
        let (min_speed, text) = Self::walk(data, |urn| urns.push(urn.to_string()), &mut ggep)?;
        Ok(Query {
            min_speed,
            text: text.to_string(),
            urns,
            ggep,
        })
    }

    /// The search text of a QUERY payload, borrowed. Accepts and rejects
    /// exactly what [`Query::parse`] does — routing needs nothing else of a
    /// query — and allocates only for a GGEP block in the extension area.
    pub fn parse_text(data: &[u8]) -> Result<&str, PayloadError> {
        Self::walk(data, |_| {}, &mut Vec::new()).map(|(_, text)| text)
    }

    /// The one decoder behind `parse` and `parse_text`: every check, no
    /// copy. Returns `(min_speed, text)`.
    fn walk<'a>(
        data: &'a [u8],
        urn: impl FnMut(&'a str),
        ggep: &mut Vec<Extension>,
    ) -> Result<(u16, &'a str), PayloadError> {
        let mut r = Reader::new(data);
        let min_speed = r.u16_le()?;
        let text = utf8(r.cstr()?)?;
        walk_gem_extensions(r.rest(), urn, ggep)?;
        Ok((min_speed, text))
    }
}

/// Walks a GEM extension area (0x1C-separated HUGE strings and GGEP
/// blocks): each non-empty HUGE string goes to `urn`, GGEP extensions are
/// appended to `exts`.
fn walk_gem_extensions<'a>(
    area: &'a [u8],
    mut urn: impl FnMut(&'a str),
    exts: &mut Vec<Extension>,
) -> Result<(), PayloadError> {
    let mut pos = 0;
    while pos < area.len() {
        if area[pos] == GEM_SEP {
            pos += 1;
            continue;
        }
        if area[pos] == ggep::GGEP_MAGIC {
            let (mut e, used) =
                ggep::parse(&area[pos..]).map_err(|err| PayloadError::BadGgep(err.to_string()))?;
            exts.append(&mut e);
            pos += used;
            continue;
        }
        // A HUGE string: runs until the next separator or end.
        let end = area[pos..]
            .iter()
            .position(|&b| b == GEM_SEP)
            .map(|i| pos + i)
            .unwrap_or(area.len());
        let s = utf8(&area[pos..end])?;
        if !s.is_empty() {
            urn(s);
        }
        pos = end;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// QUERYHIT
// ---------------------------------------------------------------------------

/// One result record inside a QUERYHIT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HitResult {
    /// Host-local file index, echoed back in HTTP `GET /get/<index>/...`.
    pub index: u32,
    /// Exact file size in bytes (u32 per the 2006 wire format).
    pub size: u32,
    pub name: String,
    /// HUGE urn:sha1 digest, if advertised.
    pub sha1: Option<Sha1Digest>,
}

impl HitResult {
    /// Decodes one result record into its fields, the name still borrowed.
    fn parse<'a>(
        r: &mut Reader<'a>,
    ) -> Result<(u32, u32, &'a str, Option<Sha1Digest>), PayloadError> {
        let index = r.u32_le()?;
        let size = r.u32_le()?;
        let name = utf8(r.cstr()?)?;
        let ext = r.cstr()?;
        let mut sha1 = None;
        for part in ext.split(|&b| b == GEM_SEP) {
            if part.is_empty() || part[0] == ggep::GGEP_MAGIC {
                continue; // per-result GGEP ignored
            }
            let s = utf8(part)?;
            if let Some(b32) = s.strip_prefix("urn:sha1:") {
                let raw = base32_decode(b32).map_err(|_| PayloadError::BadUrn)?;
                if raw.len() != 20 {
                    return Err(PayloadError::BadUrn);
                }
                let mut d = [0u8; 20];
                d.copy_from_slice(&raw);
                sha1 = Some(Sha1Digest(d));
            }
        }
        Ok((index, size, name, sha1))
    }
}

/// QHD flags (the EQHD "open data" pair). `mask` says which bits of `flags`
/// are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QhdFlags {
    pub flags: u8,
    pub mask: u8,
}

/// Bit 0: responder is firewalled and needs PUSH.
pub const QHD_PUSH: u8 = 0x01;
/// Bit 2: responder is busy.
pub const QHD_BUSY: u8 = 0x04;
/// Bit 3: responder has actually uploaded before.
pub const QHD_UPLOADED: u8 = 0x08;

impl QhdFlags {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with(mut self, bit: u8, value: bool) -> Self {
        self.mask |= bit;
        if value {
            self.flags |= bit;
        } else {
            self.flags &= !bit;
        }
        self
    }

    /// Whether `bit` is set *and* meaningful.
    pub fn get(&self, bit: u8) -> Option<bool> {
        if self.mask & bit != 0 {
            Some(self.flags & bit != 0)
        } else {
            None
        }
    }

    /// True when the responder declared it needs PUSH.
    pub fn needs_push(&self) -> bool {
        self.get(QHD_PUSH) == Some(true)
    }
}

/// A QUERYHIT payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHit {
    pub port: u16,
    /// The address the responder *advertises* — for NATed hosts this is an
    /// RFC 1918 address, the artifact behind the paper's 28% result.
    pub ip: Ipv4Addr,
    /// Claimed upload speed in kbit/s.
    pub speed: u32,
    pub results: Vec<HitResult>,
    /// Responder's vendor code, e.g. `LIME`.
    pub vendor: [u8; 4],
    pub flags: QhdFlags,
    /// Private-area GGEP (between QHD and the trailing GUID).
    pub ggep: Vec<Extension>,
    /// The responding servent's GUID — the routing target for PUSH.
    pub servent_guid: crate::guid::Guid,
}

/// One result record as the QUERYHIT writer takes it: `(index, size, name,
/// urn:sha1 digest)`, the name borrowed from wherever it lives.
pub type HitRecord<'a> = (u32, u32, &'a str, Option<&'a Sha1Digest>);

impl QueryHit {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let records = self
            .results
            .iter()
            .map(|r| (r.index, r.size, r.name.as_str(), r.sha1.as_ref()));
        self.encode_records(records, &mut out);
        out
    }

    /// The one QUERYHIT writer: appends this hit's payload to `out` with
    /// `records` as its result set (`self.results` is not read). A servent
    /// answers a query through this straight from its library rows, into
    /// the buffer that travels; [`QueryHit::encode`] is this over
    /// `self.results`.
    pub fn encode_records<'a>(
        &self,
        records: impl IntoIterator<Item = HitRecord<'a>>,
        out: &mut Vec<u8>,
    ) {
        let count_at = out.len();
        out.push(0); // result count, patched below
        out.extend_from_slice(&self.port.to_le_bytes());
        out.extend_from_slice(&self.ip.octets());
        out.extend_from_slice(&self.speed.to_le_bytes());
        let mut count = 0usize;
        for (index, size, name, sha1) in records {
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&size.to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.push(0);
            if let Some(d) = sha1 {
                out.extend_from_slice(b"urn:sha1:");
                out.extend_from_slice(base32_encode(&d.0).as_bytes());
            }
            out.push(0);
            count += 1;
        }
        assert!(count <= 255, "QUERYHIT carries at most 255 results");
        out[count_at] = count as u8;
        out.extend_from_slice(&self.vendor);
        out.push(2); // open data size
        out.push(self.flags.flags);
        out.push(self.flags.mask);
        if !self.ggep.is_empty() {
            out.extend_from_slice(&ggep::encode(&self.ggep));
        }
        out.extend_from_slice(&self.servent_guid.0);
    }

    pub fn parse(data: &[u8]) -> Result<Self, PayloadError> {
        Self::decode(data, true)
    }

    /// Checks a QUERYHIT payload without keeping any of it: accepts and
    /// rejects exactly what [`QueryHit::parse`] does and returns the
    /// responding servent's GUID, which is all that routing a hit along
    /// someone else's query needs. Allocates only for `urn:sha1` and GGEP
    /// extensions.
    pub fn validate(data: &[u8]) -> Result<crate::guid::Guid, PayloadError> {
        Self::decode(data, false).map(|hit| hit.servent_guid)
    }

    /// The one decoder behind `parse` and `validate`: every check either
    /// way; the result records are only built up when `keep_results`.
    fn decode(data: &[u8], keep_results: bool) -> Result<Self, PayloadError> {
        if data.len() < 16 {
            return Err(PayloadError::Truncated);
        }
        let (body, guid_bytes) = data.split_at(data.len() - 16);
        let servent_guid =
            crate::guid::Guid::from_slice(guid_bytes).expect("split guarantees 16 bytes");
        let mut r = Reader::new(body);
        let count = r.u8()?;
        let port = r.u16_le()?;
        let ip = r.ipv4()?;
        let speed = r.u32_le()?;
        let mut results = Vec::with_capacity(if keep_results { count as usize } else { 0 });
        for _ in 0..count {
            let (index, size, name, sha1) = HitResult::parse(&mut r)?;
            if keep_results {
                results.push(HitResult {
                    index,
                    size,
                    name: name.to_string(),
                    sha1,
                });
            }
        }
        // QHD (required by 2006 servents).
        let vendor_slice = r.take(4)?;
        let mut vendor = [0u8; 4];
        vendor.copy_from_slice(vendor_slice);
        let open_size = r.u8()? as usize;
        if open_size < 2 {
            return Err(PayloadError::Malformed("QHD open data too short"));
        }
        let open = r.take(open_size)?;
        let flags = QhdFlags {
            flags: open[0],
            mask: open[1],
        };
        let private = r.rest();
        let ggep = if private.is_empty() {
            Vec::new()
        } else if private[0] == ggep::GGEP_MAGIC {
            let (exts, _) =
                ggep::parse(private).map_err(|e| PayloadError::BadGgep(e.to_string()))?;
            exts
        } else {
            Vec::new() // unknown vendor private data: tolerated, skipped
        };
        Ok(QueryHit {
            port,
            ip,
            speed,
            results,
            vendor,
            flags,
            ggep,
            servent_guid,
        })
    }
}

// ---------------------------------------------------------------------------
// PUSH
// ---------------------------------------------------------------------------

/// A PUSH request: "open a connection back to me and give me file `index`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Push {
    /// GUID of the servent that must perform the push (from the QUERYHIT).
    pub servent_guid: crate::guid::Guid,
    pub index: u32,
    /// Requester's address the pushed connection should dial.
    pub ip: Ipv4Addr,
    pub port: u16,
}

impl Push {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(26);
        out.extend_from_slice(&self.servent_guid.0);
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&self.ip.octets());
        out.extend_from_slice(&self.port.to_le_bytes());
        out
    }

    pub fn parse(data: &[u8]) -> Result<Self, PayloadError> {
        let mut r = Reader::new(data);
        let guid_bytes = r.take(16)?;
        let servent_guid = crate::guid::Guid::from_slice(guid_bytes).expect("16 bytes");
        let index = r.u32_le()?;
        let ip = r.ipv4()?;
        let port = r.u16_le()?;
        Ok(Push {
            servent_guid,
            index,
            ip,
            port,
        })
    }
}

// ---------------------------------------------------------------------------
// BYE
// ---------------------------------------------------------------------------

/// A BYE message: a status code and a human-readable reason, sent before an
/// orderly disconnect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bye {
    pub code: u16,
    pub reason: String,
}

impl Bye {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.code.to_le_bytes());
        out.extend_from_slice(self.reason.as_bytes());
        out.push(0);
        out
    }

    pub fn parse(data: &[u8]) -> Result<Self, PayloadError> {
        let mut r = Reader::new(data);
        let code = r.u16_le()?;
        let reason = utf8(r.cstr()?)?.to_string();
        Ok(Bye { code, reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guid::Guid;
    use p2pmal_hashes::sha1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn guid() -> Guid {
        Guid::random(&mut StdRng::seed_from_u64(3))
    }

    #[test]
    fn ping_roundtrip_empty_and_ggep() {
        assert_eq!(
            Ping::parse(&Ping::default().encode()).unwrap(),
            Ping::default()
        );
        let p = Ping {
            ggep: vec![Extension {
                id: "SCP".into(),
                data: vec![1],
            }],
        };
        assert_eq!(Ping::parse(&p.encode()).unwrap(), p);
    }

    #[test]
    fn pong_roundtrip() {
        let p = Pong {
            port: 6346,
            ip: Ipv4Addr::new(10, 1, 2, 3),
            file_count: 420,
            kbytes: 123_456,
            ggep: vec![Extension {
                id: "DU".into(),
                data: vec![0x10, 0x27],
            }],
        };
        assert_eq!(Pong::parse(&p.encode()).unwrap(), p);
    }

    #[test]
    fn pong_rejects_truncation() {
        let p = Pong {
            port: 1,
            ip: Ipv4Addr::new(1, 2, 3, 4),
            file_count: 0,
            kbytes: 0,
            ggep: Vec::new(),
        };
        let raw = p.encode();
        for cut in 0..raw.len() {
            assert!(Pong::parse(&raw[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn query_roundtrip_with_urn_request() {
        let q = Query::keyword("crimson horizon remix");
        let parsed = Query::parse(&q.encode()).unwrap();
        assert_eq!(parsed, q);
        assert_eq!(parsed.text, "crimson horizon remix");
        assert_eq!(parsed.urns, vec!["urn:sha1:".to_string()]);
        assert!(parsed.min_speed & QUERY_FLAG_MARKER != 0);
    }

    #[test]
    fn query_with_exact_urn_and_ggep() {
        let digest = sha1(b"payload");
        let q = Query {
            min_speed: 0,
            text: String::new(),
            urns: vec![format!(
                "urn:sha1:{}",
                p2pmal_hashes::base32_encode(&digest.0)
            )],
            ggep: vec![Extension {
                id: "M".into(),
                data: vec![4],
            }],
        };
        let parsed = Query::parse(&q.encode()).unwrap();
        assert_eq!(parsed.urns, q.urns);
        assert_eq!(parsed.ggep, q.ggep);
    }

    #[test]
    fn query_missing_nul_is_rejected() {
        assert_eq!(
            Query::parse(&[0, 0, b'a', b'b']),
            Err(PayloadError::MissingNul)
        );
    }

    fn sample_hit() -> QueryHit {
        QueryHit {
            port: 6346,
            ip: Ipv4Addr::new(192, 168, 1, 44),
            speed: 350,
            results: vec![
                HitResult {
                    index: 7,
                    size: 58_368,
                    name: "free_music.exe".into(),
                    sha1: Some(sha1(b"malware bytes")),
                },
                HitResult {
                    index: 12,
                    size: 4_111_222,
                    name: "song.mp3".into(),
                    sha1: None,
                },
            ],
            vendor: *b"LIME",
            flags: QhdFlags::new()
                .with(QHD_PUSH, true)
                .with(QHD_UPLOADED, false),
            ggep: Vec::new(),
            servent_guid: guid(),
        }
    }

    #[test]
    fn queryhit_roundtrip() {
        let qh = sample_hit();
        let parsed = QueryHit::parse(&qh.encode()).unwrap();
        assert_eq!(parsed, qh);
        assert!(parsed.flags.needs_push());
        assert_eq!(parsed.flags.get(QHD_UPLOADED), Some(false));
        assert_eq!(
            parsed.flags.get(QHD_BUSY),
            None,
            "unmasked bit is meaningless"
        );
        assert_eq!(parsed.results[0].sha1, Some(sha1(b"malware bytes")));
    }

    /// The owning encoder that `encode_records` replaced, kept as its
    /// oracle.
    fn encode_owning(hit: &QueryHit) -> Vec<u8> {
        let mut out = vec![hit.results.len() as u8];
        out.extend_from_slice(&hit.port.to_le_bytes());
        out.extend_from_slice(&hit.ip.octets());
        out.extend_from_slice(&hit.speed.to_le_bytes());
        for res in &hit.results {
            out.extend_from_slice(&res.index.to_le_bytes());
            out.extend_from_slice(&res.size.to_le_bytes());
            out.extend_from_slice(res.name.as_bytes());
            out.push(0);
            if let Some(d) = &res.sha1 {
                out.extend_from_slice(format!("urn:sha1:{}", base32_encode(&d.0)).as_bytes());
            }
            out.push(0);
        }
        out.extend_from_slice(&hit.vendor);
        out.extend_from_slice(&[2, hit.flags.flags, hit.flags.mask]);
        if !hit.ggep.is_empty() {
            out.extend_from_slice(&ggep::encode(&hit.ggep));
        }
        out.extend_from_slice(&hit.servent_guid.0);
        out
    }

    #[test]
    fn record_writer_equals_the_owning_encoder() {
        let mut with_ggep = sample_hit();
        with_ggep.ggep = vec![Extension {
            id: "VC".into(),
            data: b"LIME".to_vec(),
        }];
        let mut empty = sample_hit();
        empty.results.clear();
        for hit in [sample_hit(), with_ggep, empty] {
            assert_eq!(hit.encode(), encode_owning(&hit));
            // Behind bytes already in the buffer, from records that are not
            // `hit.results`.
            let head = QueryHit {
                results: Vec::new(),
                ..hit.clone()
            };
            let records = hit
                .results
                .iter()
                .map(|r| (r.index, r.size, r.name.as_str(), r.sha1.as_ref()));
            let mut out = b"frame".to_vec();
            head.encode_records(records, &mut out);
            assert_eq!(out[..5], b"frame"[..]);
            assert_eq!(out[5..], encode_owning(&hit)[..]);
        }
    }

    #[test]
    fn queryhit_advertised_ip_survives_even_when_private() {
        let qh = sample_hit();
        let parsed = QueryHit::parse(&qh.encode()).unwrap();
        assert_eq!(parsed.ip, Ipv4Addr::new(192, 168, 1, 44));
    }

    #[test]
    fn queryhit_truncations_never_panic() {
        let raw = sample_hit().encode();
        for cut in 0..raw.len() {
            let _ = QueryHit::parse(&raw[..cut]); // must not panic
        }
    }

    #[test]
    fn queryhit_bad_result_count_is_error() {
        let mut raw = sample_hit().encode();
        raw[0] = 200; // claims 200 results, carries 2
        assert!(QueryHit::parse(&raw).is_err());
    }

    #[test]
    fn push_roundtrip() {
        let p = Push {
            servent_guid: guid(),
            index: 7,
            ip: Ipv4Addr::new(4, 5, 6, 7),
            port: 6348,
        };
        assert_eq!(Push::parse(&p.encode()).unwrap(), p);
        assert!(Push::parse(&p.encode()[..20]).is_err());
    }

    #[test]
    fn bye_roundtrip() {
        let b = Bye {
            code: 503,
            reason: "shutting down".into(),
        };
        assert_eq!(Bye::parse(&b.encode()).unwrap(), b);
    }

    #[test]
    fn gem_extension_area_mixes_urn_and_ggep_any_order() {
        let mut area = Vec::new();
        area.extend_from_slice(&ggep::encode(&[Extension {
            id: "Z".into(),
            data: vec![],
        }]));
        area.push(GEM_SEP);
        area.extend_from_slice(b"urn:sha1:");
        let (mut urns, mut exts) = (Vec::new(), Vec::new());
        walk_gem_extensions(&area, |urn| urns.push(urn), &mut exts).unwrap();
        assert_eq!(urns, vec!["urn:sha1:"]);
        assert_eq!(exts.len(), 1);
    }
}
