//! An OpenFT (giFT) implementation — the substrate for the reproduction's
//! second measured network.
//!
//! The IMC 2006 study instrumented giFT's OpenFT plugin alongside LimeWire.
//! OpenFT is architecturally unlike Gnutella: instead of flooding, USER
//! nodes register their shares (MD5 + size + path) with SEARCH-class
//! parents, searches are answered from those registration indexes, and
//! files move over a separate MD5-addressed HTTP channel.
//!
//! * [`packet`] — length/command framing and all typed payloads
//!   (VERSION, NODEINFO, NODELIST, SESSION, CHILD, ADDSHARE, REMSHARE,
//!   SEARCH, ...);
//! * [`http`] — the MD5-addressed transfer channel's requests and response
//!   heads (responses are read by `p2pmal_gnutella::http`'s client);
//! * [`node`] — a complete node over [`p2pmal_netsim::App`] supporting the
//!   USER, SEARCH and INDEX classes.
//!
//! ```
//! use p2pmal_openft::packet::{encode_packet, Command, PacketReader, Search};
//!
//! let mut wire = Vec::new();
//! let req = Search::Request { id: 1, query: "screensaver".into() };
//! encode_packet(Command::Search, &req.encode(), &mut wire);
//!
//! let mut reader = PacketReader::new();
//! reader.push(&wire);
//! let (cmd, payload) = reader.next_packet().unwrap().unwrap();
//! assert_eq!(cmd, Command::Search);
//! assert_eq!(Search::parse(&payload).unwrap(), req);
//! ```

pub mod http;
pub mod node;
pub mod packet;

pub use node::{FtConfig, FtEvent, FtNode, FtStats};
pub use packet::{
    AddShare, Child, Command, NodeEntry, NodeInfo, NodeList, PacketError, PacketReader,
    ResultBatch, Search, SearchResult, Session, Version, CLASS_INDEX, CLASS_SEARCH, CLASS_USER,
};
