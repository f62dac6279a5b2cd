//! OpenFT's HTTP transfer channel: files are addressed by MD5.
//!
//! giFT served uploads over a second listening port with requests of the
//! form `GET /md5/<hex> HTTP/1.1`. The reader/writer pairs here are sans-IO
//! like everything else in the workspace.

use p2pmal_hashes::{from_hex, Md5Digest};
use p2pmal_netsim::{find_across, take_front};
use std::fmt;

const MAX_HEAD: usize = 8 * 1024;

/// Transfer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    BadRequest,
    BadStatusLine,
    BadHeader,
    MissingLength,
    HeadTooLong,
    BodyTooLong,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HttpError::BadRequest => "malformed upload request",
            HttpError::BadStatusLine => "malformed status line",
            HttpError::BadHeader => "malformed header",
            HttpError::MissingLength => "missing Content-Length",
            HttpError::HeadTooLong => "head too long",
            HttpError::BodyTooLong => "body exceeds cap",
        };
        f.write_str(s)
    }
}

impl std::error::Error for HttpError {}

/// Builds the MD5-addressed GET.
pub fn encode_request(md5: &Md5Digest) -> Vec<u8> {
    format!(
        "GET /md5/{} HTTP/1.1\r\nUser-Agent: giFT/0.11\r\nConnection: close\r\n\r\n",
        md5.to_hex()
    )
    .into_bytes()
}

/// Builds a 200 response head.
pub fn encode_response_ok(body_len: usize) -> Vec<u8> {
    format!(
        "HTTP/1.1 200 OK\r\nServer: giFT/0.11 (OpenFT)\r\nContent-Type: application/octet-stream\r\nContent-Length: {body_len}\r\n\r\n"
    )
    .into_bytes()
}

/// Builds an error response.
pub fn encode_response_err(code: u16, reason: &str) -> Vec<u8> {
    format!("HTTP/1.1 {code} {reason}\r\nServer: giFT/0.11 (OpenFT)\r\nContent-Length: 0\r\n\r\n")
        .into_bytes()
}

fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Server-side request reader: yields the requested MD5.
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

    pub fn request(&mut self) -> Result<Option<Md5Digest>, HttpError> {
        let end = match head_end(&self.buf) {
            Some(i) => i,
            None => {
                if self.buf.len() > MAX_HEAD {
                    return Err(HttpError::HeadTooLong);
                }
                return Ok(None);
            }
        };
        let head = std::str::from_utf8(&self.buf[..end]).map_err(|_| HttpError::BadRequest)?;
        let line = head.split("\r\n").next().ok_or(HttpError::BadRequest)?;
        let mut parts = line.split_whitespace();
        if parts.next() != Some("GET") {
            return Err(HttpError::BadRequest);
        }
        let path = parts.next().ok_or(HttpError::BadRequest)?;
        let hex = path.strip_prefix("/md5/").ok_or(HttpError::BadRequest)?;
        let raw = from_hex(hex).ok_or(HttpError::BadRequest)?;
        if raw.len() != 16 {
            return Err(HttpError::BadRequest);
        }
        let mut d = [0u8; 16];
        d.copy_from_slice(&raw);
        self.buf.drain(..end + 4);
        Ok(Some(Md5Digest(d)))
    }
}

/// Decodes a response head (the blank line excluded) into
/// `(status, Content-Length)`, refusing a body over `max_body`.
fn parse_response_head(head: &[u8], max_body: usize) -> Result<(u16, usize), HttpError> {
    let head = std::str::from_utf8(head).map_err(|_| HttpError::BadHeader)?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(HttpError::BadStatusLine)?;
    let mut parts = status_line.split_whitespace();
    if !parts.next().unwrap_or("").starts_with("HTTP/1.") {
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

/// Client-side response reader (head + Content-Length body).
#[derive(Debug)]
pub struct ResponseReader {
    /// Head bytes until the head is decoded, body bytes from then on.
    buf: Vec<u8>,
    /// `(status, Content-Length)` once the head is decoded.
    body_len: Option<(u16, usize)>,
    max_body: usize,
}

impl ResponseReader {
    pub fn new(max_body: usize) -> Self {
        ResponseReader {
            buf: Vec::new(),
            body_len: None,
            max_body,
        }
    }

    /// Takes delivered bytes. A head is decoded the moment it is complete,
    /// so the body bytes behind it — the same chunk's, normally — go
    /// straight into a buffer of their own, sized to `Content-Length`, and
    /// are never shifted down over a consumed head. A malformed head stays
    /// buffered for [`ResponseReader::response`] to report.
    pub fn push(&mut self, mut data: &[u8]) {
        if self.body_len.is_none() {
            if let Some(end) = find_across(&self.buf, data, b"\r\n\r\n") {
                self.buf.extend_from_slice(&data[..end]);
                data = &data[end..];
                let head = &self.buf[..self.buf.len() - 4];
                if let Ok((status, len)) = parse_response_head(head, self.max_body) {
                    self.body_len = Some((status, len));
                    self.buf.clear();
                    self.buf.reserve(len);
                }
            }
        }
        self.buf.extend_from_slice(data);
    }

    /// [`ResponseReader::push`] for a buffer the caller hands over (an
    /// upload written for this delivery). When it opens a response with a
    /// well-formed head, the head is cut off in place and the buffer kept
    /// as the body: no receive copy. Anything else goes through `push`.
    pub fn push_owned(&mut self, mut data: Vec<u8>) {
        if self.body_len.is_none() && self.buf.is_empty() {
            if let Some(end) = head_end(&data) {
                if let Ok(head) = parse_response_head(&data[..end], self.max_body) {
                    self.body_len = Some(head);
                    data.drain(..end + 4);
                    self.buf = data;
                    return;
                }
            }
        }
        self.push(&data);
    }

    /// Returns `(status, body)` once complete.
    pub fn response(&mut self) -> Result<Option<(u16, Vec<u8>)>, HttpError> {
        let Some((status, len)) = self.body_len else {
            // `push` takes a well-formed head as soon as it is complete:
            // one still buffered is malformed, and says how here.
            return match head_end(&self.buf) {
                Some(end) => parse_response_head(&self.buf[..end], self.max_body).map(|_| None),
                None if self.buf.len() > MAX_HEAD => Err(HttpError::HeadTooLong),
                None => Ok(None),
            };
        };
        if self.buf.len() < len {
            return Ok(None);
        }
        self.body_len = None;
        let body = take_front(&mut self.buf, len);
        // What followed the body opens the next response.
        if !self.buf.is_empty() {
            let rest = std::mem::take(&mut self.buf);
            self.push(&rest);
        }
        Ok(Some((status, body)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmal_hashes::md5;

    #[test]
    fn request_roundtrip() {
        let d = md5(b"the file");
        let wire = encode_request(&d);
        let mut r = RequestReader::new();
        for chunk in wire.chunks(5) {
            r.push(chunk);
        }
        assert_eq!(r.request().unwrap(), Some(d));
    }

    #[test]
    fn bad_requests_rejected() {
        for bad in [
            "POST /md5/00112233445566778899aabbccddeeff HTTP/1.1\r\n\r\n",
            "GET /file/abc HTTP/1.1\r\n\r\n",
            "GET /md5/zz HTTP/1.1\r\n\r\n",
            "GET /md5/0011 HTTP/1.1\r\n\r\n",
        ] {
            let mut r = RequestReader::new();
            r.push(bad.as_bytes());
            assert!(r.request().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let body = vec![7u8; 5000];
        let mut wire = encode_response_ok(body.len());
        wire.extend_from_slice(&body);
        let mut r = ResponseReader::new(1 << 20);
        let mut out = None;
        for chunk in wire.chunks(333) {
            r.push(chunk);
            if let Some(resp) = r.response().unwrap() {
                out = Some(resp);
            }
        }
        let (status, got) = out.unwrap();
        assert_eq!(status, 200);
        assert_eq!(got, body);
    }

    /// The body leaves the reader by move; a pipelined response behind it
    /// must still be there, wherever the chunk boundary fell.
    #[test]
    fn response_body_is_exact_and_a_pipelined_response_follows() {
        let body: Vec<u8> = (0..=255u8).cycle().take(5_000).collect();
        let mut wire = encode_response_ok(body.len());
        let head_len = wire.len();
        wire.extend_from_slice(&body);
        for pipelined in [false, true] {
            let mut wire = wire.clone();
            if pipelined {
                wire.extend_from_slice(&encode_response_err(404, "Not Found"));
            }
            // Whole, split inside the head, one byte before the blank line
            // that ends it, inside that blank line, split inside the body.
            for split in [0, 10, head_len - 5, head_len - 2, head_len + 100] {
                let mut r = ResponseReader::new(1 << 20);
                let mut got = None;
                for chunk in [&wire[..split], &wire[split..]] {
                    r.push(chunk);
                    got = got.or(r.response().unwrap());
                }
                assert_eq!(got, Some((200, body.clone())), "split {split}");
                let next = pipelined.then(|| (404, Vec::new()));
                assert_eq!(r.response().unwrap(), next, "split {split}");
                assert!(r.buf.is_empty());
            }
        }
    }

    /// Head and body arrive in one chunk (no MSS): the body must land in a
    /// buffer of its own, not be shifted down over the head.
    #[test]
    fn body_never_shares_a_buffer_with_the_head() {
        let body = vec![7u8; 5000];
        let mut wire = encode_response_ok(body.len());
        let head_len = wire.len();
        wire.extend_from_slice(&body);
        let mut r = ResponseReader::new(1 << 20);
        r.push(&wire);
        let (_, got) = r.response().unwrap().unwrap();
        assert_eq!(got, body);
        assert!(got.capacity() < head_len + body.len());
    }

    /// `push` decodes heads; a malformed one must still come out of
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
            for split in 0..wire.len() {
                let mut r = ResponseReader::new(10);
                r.push(&wire[..split]);
                let _ = r.response();
                r.push(&wire[split..]);
                assert_eq!(r.response(), Err(err.clone()), "split {split}");
                r.push(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
                assert_eq!(r.response(), Err(err.clone()), "split {split}, later");
            }
        }
    }

    /// The upload body's own buffer becomes the response body.
    #[test]
    fn push_owned_keeps_the_buffer() {
        let body: Vec<u8> = (0..=255u8).cycle().take(5_000).collect();
        let mut wire = encode_response_ok(body.len());
        wire.extend_from_slice(&body);
        let ptr = wire.as_ptr();
        let mut r = ResponseReader::new(1 << 20);
        r.push_owned(wire);
        let (status, got) = r.response().unwrap().unwrap();
        assert_eq!((status, &got), (200, &body));
        assert_eq!(got.as_ptr(), ptr);
    }

    #[test]
    fn oversized_body_refused() {
        let mut r = ResponseReader::new(10);
        r.push(&encode_response_ok(11));
        assert_eq!(r.response(), Err(HttpError::BodyTooLong));
    }

    #[test]
    fn error_response_parses() {
        let mut r = ResponseReader::new(10);
        r.push(&encode_response_err(404, "Not Found"));
        assert_eq!(r.response().unwrap(), Some((404, Vec::new())));
    }
}
