//! Gnutella file transfer: HTTP/1.1 over the servent port, plus the `GIV`
//! push handshake.
//!
//! Downloads use plain HTTP against the responder's listening socket:
//!
//! ```text
//! GET /get/<index>/<filename> HTTP/1.1      (classic addressing)
//! GET /uri-res/N2R?urn:sha1:<base32> HTTP/1.1   (HUGE content addressing)
//! ```
//!
//! Firewalled responders can't be dialed, so the downloader routes a PUSH
//! descriptor back through the overlay; the responder then dials *out* and
//! opens the connection with a `GIV <index>:<guid-hex>/<filename>\n\n`
//! line, after which the downloader sends its GET over that connection.
//!
//! The client half — [`ResponseReader`] and [`DownloadError`] — is the one
//! download client of both overlays: OpenFT's transfer channel speaks the
//! same response grammar and only addresses its requests differently.

use crate::guid::Guid;
use p2pmal_hashes::{base32_decode, Sha1Digest};
use p2pmal_netsim::find_across;
use std::fmt::{self, Write};
use std::ops::Deref;

/// Size cap for request and response heads, mirroring servent hardening.
const MAX_HEAD: usize = 8 * 1024;

/// Transfer-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    BadRequestLine,
    BadHeader,
    BadTarget,
    BadStatusLine,
    MissingLength,
    HeadTooLong,
    BodyTooLong,
    BadGiv,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HttpError::BadRequestLine => "malformed request line",
            HttpError::BadHeader => "malformed header",
            HttpError::BadTarget => "unrecognized request target",
            HttpError::BadStatusLine => "malformed status line",
            HttpError::MissingLength => "response without Content-Length",
            HttpError::HeadTooLong => "head exceeds size limit",
            HttpError::BodyTooLong => "declared length exceeds download cap",
            HttpError::BadGiv => "malformed GIV line",
        };
        f.write_str(s)
    }
}

impl std::error::Error for HttpError {}

/// Why a download failed, on either overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownloadError {
    /// TCP connect to the advertised address failed (dead, NATed, bogus).
    ConnectFailed,
    /// No overlay route existed for the PUSH.
    NoPushRoute,
    /// The transfer (or the GIV a PUSH asked for) outlived the download
    /// timeout.
    Timeout,
    /// Upload side returned an HTTP error.
    Http(u16),
    /// The connection closed or was dropped before the body was complete.
    Reset,
    /// The response head was malformed, or declared a body over the cap.
    Malformed(HttpError),
}

/// What a download request addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestTarget {
    /// `/get/<index>/<filename>`
    ByIndex { index: u32, name: String },
    /// `/uri-res/N2R?urn:sha1:<base32>`
    ByUrn(Sha1Digest),
}

/// A parsed upload request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    pub target: RequestTarget,
    pub user_agent: String,
}

/// Minimal percent-encoding for filenames in request paths: space and the
/// reserved characters servents escaped, plus every control byte and every
/// byte of a non-ASCII character's UTF-8 encoding, as `%XX`.
pub fn percent_encode(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b' ' | b'%' | b'?' | b'#' | 0..=0x1F | 0x7F.. => {
                let _ = write!(out, "%{b:02X}");
            }
            _ => out.push(b as char),
        }
    }
    out
}

/// Decodes `%XX` escapes into bytes, read as UTF-8 (an invalid sequence
/// becomes U+FFFD); invalid escapes pass through literally, the tolerant
/// behaviour of deployed servents.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let hex = |j: usize| bytes.get(j).and_then(|c| (*c as char).to_digit(16));
        if let (b'%', Some(h), Some(l)) = (bytes[i], hex(i + 1), hex(i + 2)) {
            out.push((h * 16 + l) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Builds the GET request for `target`.
pub fn encode_request(target: &RequestTarget, user_agent: &str) -> Vec<u8> {
    let path = match target {
        RequestTarget::ByIndex { index, name } => {
            format!("/get/{index}/{}", percent_encode(name))
        }
        RequestTarget::ByUrn(d) => format!("/uri-res/N2R?{}", d.to_urn()),
    };
    format!("GET {path} HTTP/1.1\r\nUser-Agent: {user_agent}\r\nConnection: close\r\n\r\n")
        .into_bytes()
}

/// Builds a `200 OK` response head for a `body_len`-byte upload.
pub fn encode_response_ok(server: &str, body_len: usize) -> Vec<u8> {
    format!(
        "HTTP/1.1 200 OK\r\nServer: {server}\r\nContent-Type: application/binary\r\nContent-Length: {body_len}\r\n\r\n"
    )
    .into_bytes()
}

/// Builds an error response (404 style) with an empty body.
pub fn encode_response_err(server: &str, code: u16, reason: &str) -> Vec<u8> {
    format!("HTTP/1.1 {code} {reason}\r\nServer: {server}\r\nContent-Length: 0\r\n\r\n")
        .into_bytes()
}

/// Where the head at the front of `buf` ends (before its blank line), or
/// `None` while it is incomplete; an incomplete head past the size cap is
/// [`HttpError::HeadTooLong`]. Both overlays' request readers use it.
pub fn find_head_end(buf: &[u8]) -> Result<Option<usize>, HttpError> {
    match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        None if buf.len() > MAX_HEAD => Err(HttpError::HeadTooLong),
        end => Ok(end),
    }
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// Sans-IO upload-request parser: feed bytes until a full request head
/// appears.
#[derive(Debug, Default)]
pub struct RequestReader {
    buf: Vec<u8>,
}

impl RequestReader {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Returns the parsed request once complete.
    pub fn request(&mut self) -> Result<Option<HttpRequest>, HttpError> {
        let Some(end) = find_head_end(&self.buf)? else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..end]).map_err(|_| HttpError::BadHeader)?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
        let mut parts = request_line.split_whitespace();
        if parts.next() != Some("GET") {
            return Err(HttpError::BadRequestLine);
        }
        let raw_path = parts.next().ok_or(HttpError::BadRequestLine)?;
        if !matches!(parts.next(), Some("HTTP/1.0") | Some("HTTP/1.1")) {
            return Err(HttpError::BadRequestLine);
        }
        let mut user_agent = String::new();
        for line in lines {
            let (k, v) = line.split_once(':').ok_or(HttpError::BadHeader)?;
            if k.trim().eq_ignore_ascii_case("user-agent") {
                user_agent = v.trim().to_string();
            }
        }
        let target = parse_target(raw_path)?;
        self.buf.drain(..end + 4);
        Ok(Some(HttpRequest { target, user_agent }))
    }
}

fn parse_target(path: &str) -> Result<RequestTarget, HttpError> {
    if let Some(rest) = path.strip_prefix("/get/") {
        let (index, name) = rest.split_once('/').ok_or(HttpError::BadTarget)?;
        let index: u32 = index.parse().map_err(|_| HttpError::BadTarget)?;
        if name.is_empty() {
            return Err(HttpError::BadTarget);
        }
        return Ok(RequestTarget::ByIndex {
            index,
            name: percent_decode(name),
        });
    }
    if let Some(urn) = path.strip_prefix("/uri-res/N2R?") {
        let b32 = urn.strip_prefix("urn:sha1:").ok_or(HttpError::BadTarget)?;
        let raw = base32_decode(b32).map_err(|_| HttpError::BadTarget)?;
        if raw.len() != 20 {
            return Err(HttpError::BadTarget);
        }
        let mut d = [0u8; 20];
        d.copy_from_slice(&raw);
        return Ok(RequestTarget::ByUrn(Sha1Digest(d)));
    }
    Err(HttpError::BadTarget)
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// Decodes a response head (the blank line excluded) into
/// `(status, Content-Length)`, refusing a body over `max_body`.
fn parse_response_head(head: &[u8], max_body: usize) -> Result<(u16, usize), HttpError> {
    let head = std::str::from_utf8(head).map_err(|_| HttpError::BadHeader)?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(HttpError::BadStatusLine)?;
    let mut parts = status_line.split_whitespace();
    let proto = parts.next().ok_or(HttpError::BadStatusLine)?;
    if !proto.starts_with("HTTP/1.") {
        return Err(HttpError::BadStatusLine);
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::BadStatusLine)?;
    let mut len = None;
    for line in lines {
        let (k, v) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        if k.trim().eq_ignore_ascii_case("content-length") {
            len = v.trim().parse::<usize>().ok();
        }
    }
    let len = len.ok_or(HttpError::MissingLength)?;
    if len > max_body {
        return Err(HttpError::BodyTooLong);
    }
    Ok((status, len))
}

/// A downloaded body: the buffer it arrived in, from `start` on. A body
/// that arrived whole in a buffer the reader was handed
/// ([`ResponseReader::push_owned`]) still has the response head in front
/// of it, never moved. [`Body::into_buffer`] gives the whole buffer back
/// for reuse.
#[derive(Clone)]
pub struct Body {
    buf: Vec<u8>,
    start: usize,
}

impl Body {
    /// The buffer the body arrived in, whole, to hand back for reuse.
    pub fn into_buffer(self) -> Vec<u8> {
        self.buf
    }
}

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

/// A body that is the whole buffer.
impl From<Vec<u8>> for Body {
    fn from(buf: Vec<u8>) -> Self {
        Body { buf, start: 0 }
    }
}

/// Bodies compare and print as their bytes, wherever they sit in their
/// buffers.
impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Body {}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Sans-IO download-response reader: head, then exactly `Content-Length`
/// body bytes. One response per reader: a download connection carries one.
#[derive(Debug)]
pub struct ResponseReader {
    /// Head bytes in [`RespState::Head`]; from then on the body, from
    /// `start` (and whatever the stream carries after it).
    buf: Vec<u8>,
    state: RespState,
    /// Refuse bodies larger than this (downloads in the study are capped).
    max_body: usize,
}

#[derive(Debug, PartialEq, Eq)]
enum RespState {
    Head,
    /// `start` is where the body begins in the reader's buffer: 0, or the
    /// head's length when the head arrived in a buffer that was kept. A
    /// `u32` fits the state's padding, so a download's boxed state, which
    /// `app_bytes` charges, keeps its size.
    Body {
        status: u16,
        start: u32,
        len: usize,
    },
    Done,
}

impl ResponseReader {
    pub fn new(max_body: usize) -> Self {
        ResponseReader {
            buf: Vec::new(),
            state: RespState::Head,
            max_body,
        }
    }

    /// Takes delivered bytes. The head is decoded the moment it is
    /// complete, so the body bytes behind it — the same chunk's, normally —
    /// go straight into a buffer of their own, sized to `Content-Length`,
    /// and are never shifted down over a consumed head. A malformed head
    /// stays buffered for [`ResponseReader::response`] to report.
    pub fn push(&mut self, mut data: &[u8]) {
        if self.state == RespState::Head {
            if let Some(end) = find_across(&self.buf, data, b"\r\n\r\n") {
                self.buf.extend_from_slice(&data[..end]);
                data = &data[end..];
                let head = &self.buf[..self.buf.len() - 4];
                if let Ok((status, len)) = parse_response_head(head, self.max_body) {
                    let start = 0;
                    self.state = RespState::Body { status, start, len };
                    self.buf.clear();
                    self.buf.reserve(len);
                }
            }
        }
        self.buf.extend_from_slice(data);
    }

    /// [`ResponseReader::push`] for a buffer the caller hands over (an
    /// upload written for this delivery). When it opens a response with a
    /// well-formed head, the buffer is kept and the body starts where the
    /// head ends: no receive copy, and the body is not moved down over the
    /// head. Anything else goes through `push`.
    pub fn push_owned(&mut self, data: Vec<u8>) {
        if self.state == RespState::Head && self.buf.is_empty() {
            if let Ok(Some(end)) = find_head_end(&data) {
                let start = u32::try_from(end + 4);
                let head = parse_response_head(&data[..end], self.max_body);
                if let (Ok(start), Ok((status, len))) = (start, head) {
                    self.state = RespState::Body { status, start, len };
                    self.buf = data;
                    return;
                }
            }
        }
        self.push(&data);
    }

    /// The download's outcome once the full body has arrived: the body of
    /// a `200`, [`DownloadError::Http`] for any other status. A head that
    /// is refused is [`DownloadError::Malformed`] at once.
    pub fn response(&mut self) -> Result<Option<Body>, DownloadError> {
        match self.state {
            // `push` takes a well-formed head as soon as it is complete:
            // one still buffered is malformed, and says how here.
            RespState::Head => find_head_end(&self.buf)
                .and_then(|end| match end {
                    Some(end) => parse_response_head(&self.buf[..end], self.max_body).map(|_| None),
                    None => Ok(None),
                })
                .map_err(DownloadError::Malformed),
            RespState::Body { status, start, len } if self.buf.len() - start as usize >= len => {
                self.state = RespState::Done;
                let start = start as usize;
                let mut buf = std::mem::take(&mut self.buf);
                // Whatever the stream carried after the body is not part
                // of it.
                buf.truncate(start + len);
                let body = Body { buf, start };
                match status {
                    200 => Ok(Some(body)),
                    _ => Err(DownloadError::Http(status)),
                }
            }
            RespState::Body { .. } | RespState::Done => Ok(None),
        }
    }
}

// ---------------------------------------------------------------------------
// GIV (push) handshake
// ---------------------------------------------------------------------------

/// A parsed `GIV` opening line from a pushing servent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Giv {
    pub index: u32,
    pub servent_guid: Guid,
    pub name: String,
}

/// Encodes `GIV <index>:<guid-hex>/<filename>\n\n`.
pub fn encode_giv(giv: &Giv) -> Vec<u8> {
    format!(
        "GIV {}:{}/{}\n\n",
        giv.index,
        giv.servent_guid.to_hex(),
        percent_encode(&giv.name)
    )
    .into_bytes()
}

/// Parses a GIV line from the front of `data`; returns the line and bytes
/// consumed, or `Ok(None)` while incomplete.
pub fn parse_giv(data: &[u8]) -> Result<Option<(Giv, usize)>, HttpError> {
    let end = match data.windows(2).position(|w| w == b"\n\n") {
        Some(i) => i,
        None => {
            if data.len() > MAX_HEAD {
                return Err(HttpError::BadGiv);
            }
            return Ok(None);
        }
    };
    let line = std::str::from_utf8(&data[..end]).map_err(|_| HttpError::BadGiv)?;
    let rest = line.strip_prefix("GIV ").ok_or(HttpError::BadGiv)?;
    let (index, rest) = rest.split_once(':').ok_or(HttpError::BadGiv)?;
    let (guid_hex, name) = rest.split_once('/').ok_or(HttpError::BadGiv)?;
    let giv = Giv {
        index: index.parse().map_err(|_| HttpError::BadGiv)?,
        servent_guid: Guid::from_hex(guid_hex).ok_or(HttpError::BadGiv)?,
        name: percent_decode(name),
    };
    Ok(Some((giv, end + 2)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmal_hashes::sha1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn request_roundtrip_by_index() {
        let t = RequestTarget::ByIndex {
            index: 42,
            name: "free music.exe".into(),
        };
        let wire = encode_request(&t, "LimeWire/4.12");
        assert!(
            wire.windows(3).any(|w| w == b"%20"),
            "space must be escaped"
        );
        let mut r = RequestReader::new();
        for chunk in wire.chunks(9) {
            r.push(chunk);
        }
        let req = r.request().unwrap().unwrap();
        assert_eq!(req.target, t);
        assert_eq!(req.user_agent, "LimeWire/4.12");
    }

    #[test]
    fn request_roundtrip_by_urn() {
        let d = sha1(b"some file");
        let t = RequestTarget::ByUrn(d);
        let wire = encode_request(&t, "x");
        let mut r = RequestReader::new();
        r.push(&wire);
        assert_eq!(r.request().unwrap().unwrap().target, t);
    }

    #[test]
    fn bad_targets_are_rejected() {
        for path in [
            "/",
            "/get/",
            "/get/12",
            "/get/x/file.exe",
            "/uri-res/N2R?urn:md5:abc",
            "/favicon.ico",
        ] {
            let wire = format!("GET {path} HTTP/1.1\r\n\r\n");
            let mut r = RequestReader::new();
            r.push(wire.as_bytes());
            assert!(r.request().is_err(), "{path} should be rejected");
        }
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let mut r = RequestReader::new();
        r.push(b"POST /get/1/x HTTP/1.1\r\n\r\n");
        assert_eq!(r.request(), Err(HttpError::BadRequestLine));
    }

    #[test]
    fn response_roundtrip_with_chunked_delivery() {
        let body: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut wire = encode_response_ok("P2PMal/0.1", body.len());
        wire.extend_from_slice(&body);
        let mut r = ResponseReader::new(1 << 20);
        let mut result = None;
        for chunk in wire.chunks(777) {
            r.push(chunk);
            if let Some(resp) = r.response().unwrap() {
                result = Some(resp);
            }
        }
        assert_eq!(result.as_deref(), Some(&body[..]));
    }

    /// The body leaves the reader by move and is exactly `Content-Length`
    /// bytes: whatever the stream carries after it is not part of it,
    /// wherever the chunk boundary fell.
    #[test]
    fn response_body_is_exact_whatever_follows_it() {
        let body: Vec<u8> = (0..=255u8).cycle().take(5_000).collect();
        let mut wire = encode_response_ok("P2PMal/0.1", body.len());
        let head_len = wire.len();
        wire.extend_from_slice(&body);
        for tail in [&b""[..], b"NEXT"] {
            let mut wire = wire.clone();
            wire.extend_from_slice(tail);
            // Whole, split inside the head, one byte before the blank line
            // that ends it, inside that blank line, split inside the body.
            for split in [0, 10, head_len - 5, head_len - 2, head_len + 100] {
                let mut r = ResponseReader::new(1 << 20);
                let mut got = None;
                for chunk in [&wire[..split], &wire[split..]] {
                    r.push(chunk);
                    got = got.or(r.response().unwrap());
                }
                assert_eq!(got.as_deref(), Some(&body[..]), "split {split}");
                assert!(r.buf.is_empty(), "split {split}");
            }
        }
    }

    #[test]
    fn oversized_body_is_refused_before_download() {
        let wire = encode_response_ok("S", 10_000_000);
        let mut r = ResponseReader::new(1_000_000);
        r.push(&wire);
        assert_eq!(
            r.response(),
            Err(DownloadError::Malformed(HttpError::BodyTooLong))
        );
    }

    /// Head and body arrive in one chunk (no MSS): the body must land in a
    /// buffer of its own, not be shifted down over the head.
    #[test]
    fn body_never_shares_a_buffer_with_the_head() {
        let body = vec![7u8; 5000];
        let mut wire = encode_response_ok("P2PMal/0.1", body.len());
        let head_len = wire.len();
        wire.extend_from_slice(&body);
        let mut r = ResponseReader::new(1 << 20);
        r.push(&wire);
        let got = r.response().unwrap().unwrap();
        assert_eq!(*got, body);
        assert!(got.into_buffer().capacity() < head_len + body.len());
    }

    /// `push` decodes the head; a malformed one must still come out of
    /// `response` as the same error, wherever the chunks were cut, and keep
    /// coming out.
    #[test]
    fn malformed_head_reports_its_error_however_it_arrives() {
        let cases: [(&[u8], HttpError); 4] = [
            (
                b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\nbody",
                HttpError::MissingLength,
            ),
            (
                b"ICY 200 OK\r\nContent-Length: 1\r\n\r\nx",
                HttpError::BadStatusLine,
            ),
            (b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n", HttpError::BadHeader),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n",
                HttpError::BodyTooLong,
            ),
        ];
        for (wire, err) in cases {
            let err = Err(DownloadError::Malformed(err));
            for split in 0..wire.len() {
                let mut r = ResponseReader::new(10);
                r.push(&wire[..split]);
                let _ = r.response();
                r.push(&wire[split..]);
                assert_eq!(r.response(), err, "split {split}");
                r.push(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
                assert_eq!(r.response(), err, "split {split}, later");
            }
        }
    }

    #[test]
    fn giv_roundtrip() {
        let guid = Guid::random(&mut StdRng::seed_from_u64(4));
        let giv = Giv {
            index: 9,
            servent_guid: guid,
            name: "my file.exe".into(),
        };
        let wire = encode_giv(&giv);
        let (parsed, used) = parse_giv(&wire).unwrap().unwrap();
        assert_eq!(parsed, giv);
        assert_eq!(used, wire.len());
        // Incomplete line waits.
        assert_eq!(parse_giv(&wire[..5]).unwrap(), None);
    }

    #[test]
    fn giv_rejects_malformed_lines() {
        for bad in [
            "GIVE 1:00/x\n\n",
            "GIV 1-00/x\n\n",
            "GIV x:0011/y\n\n",
            "GIV 1:zz/y\n\n",
        ] {
            assert!(parse_giv(bad.as_bytes()).is_err(), "{bad:?}");
        }
    }

    /// The upload body's own buffer becomes the response body: the head is
    /// cut by an offset, so the body stays where it was written, and bytes
    /// behind it in the same buffer are cut off.
    #[test]
    fn push_owned_keeps_the_buffer_and_cuts_the_head_in_place() {
        let body: Vec<u8> = (0..=255u8).cycle().take(5_000).collect();
        let mut wire = encode_response_ok("P2PMal/0.1", body.len());
        let head_len = wire.len();
        wire.extend_from_slice(&body);
        for tail in [&b""[..], b"NEXT"] {
            let mut wire = wire.clone();
            wire.extend_from_slice(tail);
            let ptr = wire.as_ptr();
            let mut r = ResponseReader::new(1 << 20);
            r.push_owned(wire);
            let got = r.response().unwrap().unwrap();
            assert_eq!(*got, body);
            assert_eq!(got.as_ptr(), ptr.wrapping_add(head_len), "not moved");
            let buf = got.into_buffer();
            assert_eq!(buf.as_ptr(), ptr, "the buffer handed over");
            assert_eq!(buf.len(), head_len + body.len(), "{tail:?} cut off");
        }
        // Cut short: the body completes with the next delivery.
        let mut r = ResponseReader::new(1 << 20);
        r.push_owned(wire[..head_len + 100].to_vec());
        assert_eq!(r.response(), Ok(None));
        r.push(&wire[head_len + 100..]);
        assert_eq!(r.response().unwrap().as_deref(), Some(&body[..]));
    }

    #[test]
    fn percent_codec_roundtrip() {
        for s in [
            "plain",
            "has space",
            "odd%chars?#",
            "a%20b",
            "é",
            "tab\there\u{7f}",
        ] {
            assert_eq!(percent_decode(&percent_encode(s)), s);
        }
        // The four ASCII escapes are what they always were; a non-ASCII
        // character goes out as its UTF-8 bytes.
        assert_eq!(percent_encode("a b%c?d#e"), "a%20b%25c%3Fd%23e");
        assert_eq!(percent_encode("é"), "%C3%A9");
        assert_eq!(percent_decode("%C3%A9"), "é");
        assert_eq!(percent_decode("%FF"), "\u{FFFD}");
        // Tolerant decode of invalid escapes.
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }
}
