//! OpenFT's HTTP transfer channel: files are addressed by MD5.
//!
//! giFT served uploads over a second listening port with requests of the
//! form `GET /md5/<hex> HTTP/1.1`. Only the request grammar and the
//! response heads' bytes are OpenFT's own: responses are read by the one
//! download client both overlays share, [`p2pmal_gnutella::http`]'s
//! `ResponseReader`.

use p2pmal_gnutella::http::{find_head_end, HttpError};
use p2pmal_hashes::{from_hex, Md5Digest};

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
        let Some(end) = find_head_end(&self.buf)? else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..end]).map_err(|_| HttpError::BadRequestLine)?;
        let line = head.split("\r\n").next().ok_or(HttpError::BadRequestLine)?;
        let mut parts = line.split_whitespace();
        if parts.next() != Some("GET") {
            return Err(HttpError::BadRequestLine);
        }
        let path = parts.next().ok_or(HttpError::BadRequestLine)?;
        let hex = path.strip_prefix("/md5/").ok_or(HttpError::BadTarget)?;
        let raw = from_hex(hex).ok_or(HttpError::BadTarget)?;
        if raw.len() != 16 {
            return Err(HttpError::BadTarget);
        }
        let mut d = [0u8; 16];
        d.copy_from_slice(&raw);
        self.buf.drain(..end + 4);
        Ok(Some(Md5Digest(d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmal_gnutella::http::{self as gnutella, DownloadError, ResponseReader};
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

    /// Each overlay's own `200` and `404` come out of the one reader as
    /// the body and as `Http(404)`.
    #[test]
    fn both_overlays_responses_read_alike() {
        let body = b"the body".to_vec();
        let overlays = [
            (
                encode_response_ok(body.len()),
                encode_response_err(404, "Not Found"),
            ),
            (
                gnutella::encode_response_ok("LimeWire/4.12", body.len()),
                gnutella::encode_response_err("LimeWire/4.12", 404, "Not Found"),
            ),
        ];
        for (mut ok, not_found) in overlays {
            ok.extend_from_slice(&body);
            let mut r = ResponseReader::new(1 << 10);
            r.push(&ok);
            assert_eq!(r.response(), Ok(Some(body.clone().into())));
            let mut r = ResponseReader::new(1 << 10);
            r.push(&not_found);
            assert_eq!(r.response(), Err(DownloadError::Http(404)));
        }
    }
}
