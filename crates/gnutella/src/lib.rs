//! A Gnutella 0.6 servent implementation — the substrate for the
//! reproduction's "LimeWire" measurements.
//!
//! The IMC 2006 study instrumented LimeWire against the live Gnutella
//! network. This crate provides the network side from scratch:
//!
//! * [`message`] — the 23-byte descriptor header and stream framing;
//! * [`payload`] — typed PING/PONG/QUERY/QUERYHIT/PUSH/BYE payloads;
//! * [`ggep`] — GGEP extension blocks;
//! * [`qrp`] — query-routing tables, the QRP hash, RESET/PATCH transfer;
//! * [`handshake`] — the 0.6 three-group HTTP-style handshake;
//! * [`http`] — HTTP/1.1 file transfer plus the `GIV` push handshake, and
//!   the download client OpenFT uses too;
//! * [`servent`] — a complete node (ultrapeer or leaf) over
//!   [`p2pmal_netsim::App`], with query flooding, reverse-path hit and PUSH
//!   routing, QRP-filtered last-hop delivery, uploads and downloads.
//!
//! Everything is sans-IO and deterministic: protocol state machines consume
//! byte slices and emit byte vectors, so the same code runs under the
//! discrete-event simulator, over real TCP (`p2pmal_netsim::live`), and in
//! unit tests.
//!
//! # Example: wire-level query round trip
//!
//! ```
//! use p2pmal_gnutella::guid::Guid;
//! use p2pmal_gnutella::message::{encode_message, MessageReader, MsgType};
//! use p2pmal_gnutella::payload::Query;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let guid = Guid::random(&mut rng);
//! let mut wire = Vec::new();
//! encode_message(guid, MsgType::Query, 3, 0, &Query::keyword("free music").encode(), &mut wire);
//!
//! let mut reader = MessageReader::new();
//! reader.push(&wire);
//! let (header, payload) = reader.next_message().unwrap().unwrap();
//! assert_eq!(header.msg_type, MsgType::Query);
//! assert_eq!(Query::parse(&payload).unwrap().text, "free music");
//! ```

pub mod ggep;
pub mod guid;
pub mod handshake;
pub mod http;
pub mod message;
pub mod payload;
pub mod qrp;
pub mod servent;

pub use guid::Guid;
pub use http::{Body, DownloadError};
pub use message::{FrameError, Header, MessageReader, MsgType};
pub use payload::{Bye, HitResult, Ping, Pong, Push, Query, QueryHit};
pub use servent::{
    DownloadMethod, DownloadOutcome, DownloadRequest, Role, Servent, ServentConfig, ServentEvent,
    ServentStats, SharedWorld, ECHO_INDEX_BASE,
};
