//! The Gnutella descriptor header and message framing.
//!
//! Every Gnutella message is a 23-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//! 0       16    descriptor GUID
//! 16      1     payload descriptor (message type)
//! 17      1     TTL
//! 18      1     hops
//! 19      4     payload length, little-endian
//! ```
//!
//! Framing follows the smoltcp idiom: [`MessageReader`] buffers raw stream
//! bytes and yields complete `(Header, payload)` pairs without ever
//! panicking on malformed input; oversized or unknown-type messages are
//! surfaced as typed errors so the servent can drop the connection the way
//! real servents do.

use crate::guid::Guid;
use p2pmal_netsim::{Feed, StreamBuf};
use std::fmt;

/// Wire values of the payload-descriptor byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgType {
    Ping,
    Pong,
    Bye,
    /// Query-routing (QRP) RESET / PATCH.
    Route,
    Push,
    Query,
    QueryHit,
}

impl MsgType {
    pub fn to_byte(self) -> u8 {
        match self {
            MsgType::Ping => 0x00,
            MsgType::Pong => 0x01,
            MsgType::Bye => 0x02,
            MsgType::Route => 0x30,
            MsgType::Push => 0x40,
            MsgType::Query => 0x80,
            MsgType::QueryHit => 0x81,
        }
    }

    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0x00 => Some(MsgType::Ping),
            0x01 => Some(MsgType::Pong),
            0x02 => Some(MsgType::Bye),
            0x30 => Some(MsgType::Route),
            0x40 => Some(MsgType::Push),
            0x80 => Some(MsgType::Query),
            0x81 => Some(MsgType::QueryHit),
            _ => None,
        }
    }
}

/// Length of the fixed descriptor header.
pub const HEADER_LEN: usize = 23;

/// Ceiling on accepted payload sizes. The de-facto servent limit was 64 KiB;
/// anything larger is either an attack or corruption.
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// A decoded descriptor header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub guid: Guid,
    pub msg_type: MsgType,
    pub ttl: u8,
    pub hops: u8,
    pub payload_len: u32,
}

impl Header {
    /// Serializes into the 23-byte wire form.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[..16].copy_from_slice(&self.guid.0);
        out[16] = self.msg_type.to_byte();
        out[17] = self.ttl;
        out[18] = self.hops;
        out[19..23].copy_from_slice(&self.payload_len.to_le_bytes());
        out
    }

    /// Parses a header from the front of `data`.
    pub fn parse(data: &[u8]) -> Result<Header, FrameError> {
        if data.len() < HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        let guid = Guid::from_slice(data).expect("checked length");
        let msg_type = MsgType::from_byte(data[16]).ok_or(FrameError::UnknownType(data[16]))?;
        let payload_len = u32::from_le_bytes([data[19], data[20], data[21], data[22]]);
        if payload_len as usize > MAX_PAYLOAD {
            return Err(FrameError::Oversized(payload_len));
        }
        Ok(Header {
            guid,
            msg_type,
            ttl: data[17],
            hops: data[18],
            payload_len,
        })
    }

    /// Standard hop bookkeeping when forwarding: decrement TTL, increment
    /// hops. Returns `None` when the message must not be forwarded further.
    pub fn hop(&self) -> Option<Header> {
        if self.ttl <= 1 {
            return None;
        }
        let mut h = *self;
        h.ttl -= 1;
        h.hops = h.hops.saturating_add(1);
        Some(h)
    }
}

/// Framing errors. `UnknownType` and `Oversized` are protocol violations
/// that should cost the peer its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes yet (not an error on a stream; only surfaced by
    /// one-shot parses).
    Truncated,
    UnknownType(u8),
    Oversized(u32),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated header"),
            FrameError::UnknownType(b) => write!(f, "unknown payload descriptor 0x{b:02x}"),
            FrameError::Oversized(n) => write!(f, "payload length {n} exceeds limit"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes a complete message (header + payload) into `out`.
pub fn encode_message(
    guid: Guid,
    msg_type: MsgType,
    ttl: u8,
    hops: u8,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    encode_message_with(guid, msg_type, ttl, hops, out, |out| {
        out.extend_from_slice(payload)
    });
}

/// [`encode_message`] for a payload encoded on the spot: the header goes
/// first, `fill` appends the payload behind it, and the header's length
/// field is patched to what `fill` wrote.
pub fn encode_message_with(
    guid: Guid,
    msg_type: MsgType,
    ttl: u8,
    hops: u8,
    out: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>),
) {
    let header = Header {
        guid,
        msg_type,
        ttl,
        hops,
        payload_len: 0,
    };
    out.extend_from_slice(&header.encode());
    let start = out.len();
    fill(out);
    let len = out.len() - start;
    debug_assert!(len <= MAX_PAYLOAD);
    out[start - 4..start].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Where the next message ends, for [`StreamBuf`]: the decoded header and
/// the frame's total length once all of it is there.
fn split_frame(bytes: &[u8]) -> Result<Option<(Header, usize)>, FrameError> {
    let header = match Header::parse(bytes) {
        Ok(h) => h,
        Err(FrameError::Truncated) => return Ok(None),
        Err(e) => return Err(e),
    };
    let total = HEADER_LEN + header.payload_len as usize;
    Ok((bytes.len() >= total).then_some((header, total)))
}

/// Incremental stream framer: feed arbitrary chunks, take complete
/// messages. A framing error poisons the stream — the caller must drop the
/// connection; subsequent calls keep returning the error.
#[derive(Debug, Default)]
pub struct MessageReader {
    stream: StreamBuf,
}

impl MessageReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.stream.push(data);
    }

    /// Bytes currently buffered (for tests and flow-control decisions).
    pub fn buffered(&self) -> usize {
        self.stream.buffered()
    }

    /// Pops the next complete buffered message, if any, as an owned copy.
    pub fn next_message(&mut self) -> Result<Option<(Header, Vec<u8>)>, FrameError> {
        let frame = self.stream.next_frame(split_frame)?;
        Ok(frame.map(|(header, frame)| (header, frame[HEADER_LEN..].to_vec())))
    }

    /// Starts a borrowing pass over the stream extended by `chunk`: the
    /// payloads are slices of `chunk` itself unless earlier bytes were
    /// waiting, and only a trailing partial message is copied.
    pub fn frames<'a>(&'a mut self, chunk: &'a [u8]) -> Frames<'a> {
        Frames(self.stream.feed(chunk))
    }
}

/// A pass over a [`MessageReader`] and one delivered chunk; see
/// [`MessageReader::frames`].
#[derive(Debug)]
pub struct Frames<'a>(Feed<'a>);

impl Frames<'_> {
    /// The next complete message, if any, with its payload borrowed.
    pub fn next_frame(&mut self) -> Result<Option<(Header, &[u8])>, FrameError> {
        let frame = self.0.next_frame(split_frame)?;
        Ok(frame.map(|(header, frame)| (header, &frame[HEADER_LEN..])))
    }

    /// Messages this pass had to reassemble in the buffer.
    pub fn reassembled(&self) -> u64 {
        self.0.reassembled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn guid() -> Guid {
        Guid::random(&mut StdRng::seed_from_u64(9))
    }

    #[test]
    fn header_roundtrip() {
        let h = Header {
            guid: guid(),
            msg_type: MsgType::Query,
            ttl: 4,
            hops: 2,
            payload_len: 77,
        };
        let parsed = Header::parse(&h.encode()).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn type_bytes_match_spec() {
        assert_eq!(MsgType::Ping.to_byte(), 0x00);
        assert_eq!(MsgType::Pong.to_byte(), 0x01);
        assert_eq!(MsgType::Bye.to_byte(), 0x02);
        assert_eq!(MsgType::Route.to_byte(), 0x30);
        assert_eq!(MsgType::Push.to_byte(), 0x40);
        assert_eq!(MsgType::Query.to_byte(), 0x80);
        assert_eq!(MsgType::QueryHit.to_byte(), 0x81);
        for b in [0x00u8, 0x01, 0x02, 0x30, 0x40, 0x80, 0x81] {
            assert_eq!(MsgType::from_byte(b).unwrap().to_byte(), b);
        }
        assert_eq!(MsgType::from_byte(0x79), None);
    }

    #[test]
    fn reader_reassembles_across_chunk_boundaries() {
        let mut out = Vec::new();
        encode_message(guid(), MsgType::Query, 7, 0, b"\x00\x00hello\x00", &mut out);
        encode_message(guid(), MsgType::Ping, 1, 0, b"", &mut out);
        let mut r = MessageReader::new();
        let mut got = Vec::new();
        for chunk in out.chunks(5) {
            r.push(chunk);
            while let Some((h, p)) = r.next_message().unwrap() {
                got.push((h.msg_type, p));
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, MsgType::Query);
        assert_eq!(got[0].1, b"\x00\x00hello\x00");
        assert_eq!(got[1].0, MsgType::Ping);
        assert!(got[1].1.is_empty());
        assert_eq!(r.buffered(), 0);
    }

    /// `buf.drain(..total)` per message made a chunk of n glued messages
    /// cost O(n²) byte moves; the cursor compacts once per push.
    #[test]
    fn thousands_of_glued_messages_come_back_in_order() {
        const N: usize = 2_500;
        let mut wire = Vec::new();
        for i in 0..N {
            let payload = (i as u32).to_le_bytes();
            let len = i % 5;
            encode_message(
                guid(),
                MsgType::Ping,
                1,
                0,
                &payload[..len.min(4)],
                &mut wire,
            );
        }
        let check = |got: &[(Header, Vec<u8>)]| {
            assert_eq!(got.len(), N);
            for (i, (h, p)) in got.iter().enumerate() {
                assert_eq!(h.msg_type, MsgType::Ping);
                assert_eq!(
                    p[..],
                    (i as u32).to_le_bytes()[..(i % 5).min(4)],
                    "message {i}"
                );
            }
        };
        let mut r = MessageReader::new();
        let mut got = Vec::new();
        r.push(&wire);
        while let Some(m) = r.next_message().unwrap() {
            got.push(m);
        }
        check(&got);
        assert_eq!(r.buffered(), 0);
        got.clear();
        for chunk in wire.chunks(7) {
            r.push(chunk);
            while let Some(m) = r.next_message().unwrap() {
                got.push(m);
            }
        }
        check(&got);
        assert_eq!(r.buffered(), 0);
        // The borrowing pass sees the same stream.
        got.clear();
        let mut reassembled = 0;
        for chunk in [&wire[..10], &wire[10..]] {
            let mut frames = r.frames(chunk);
            while let Some((h, p)) = frames.next_frame().unwrap() {
                got.push((h, p.to_vec()));
            }
            reassembled += frames.reassembled();
        }
        check(&got);
        assert_eq!(
            reassembled, N as u64,
            "a split first message sends the rest through the buffer"
        );
        assert_eq!(r.buffered(), 0);
        got.clear();
        let mut frames = r.frames(&wire);
        while let Some((h, p)) = frames.next_frame().unwrap() {
            got.push((h, p.to_vec()));
        }
        assert_eq!(frames.reassembled(), 0);
        drop(frames);
        check(&got);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn unknown_type_is_fatal() {
        let mut raw = Vec::new();
        encode_message(guid(), MsgType::Ping, 1, 0, b"", &mut raw);
        raw[16] = 0x55; // corrupt the descriptor type
        let mut r = MessageReader::new();
        r.push(&raw);
        assert_eq!(r.next_message(), Err(FrameError::UnknownType(0x55)));
        // Poisoned: repeats the error rather than resyncing on garbage.
        assert_eq!(r.next_message(), Err(FrameError::UnknownType(0x55)));
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let h = Header {
            guid: guid(),
            msg_type: MsgType::Query,
            ttl: 1,
            hops: 0,
            payload_len: 0,
        };
        let mut raw = h.encode().to_vec();
        raw[19..23].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        let mut r = MessageReader::new();
        r.push(&raw);
        assert!(matches!(r.next_message(), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn hop_decrements_ttl_until_exhausted() {
        let h = Header {
            guid: guid(),
            msg_type: MsgType::Query,
            ttl: 2,
            hops: 0,
            payload_len: 0,
        };
        let h2 = h.hop().unwrap();
        assert_eq!((h2.ttl, h2.hops), (1, 1));
        assert!(h2.hop().is_none(), "TTL 1 must not be forwarded");
    }

    #[test]
    fn partial_header_waits_for_more_bytes() {
        let mut r = MessageReader::new();
        r.push(&[0u8; 10]);
        assert_eq!(r.next_message(), Ok(None));
    }
}
