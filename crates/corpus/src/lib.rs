//! The synthetic content ecosystem standing in for the 2006 P2P networks.
//!
//! The original study measured live networks full of real users and real
//! malware. Neither is available, so this crate fabricates both sides
//! faithfully enough that every *mechanism* the paper measured exists here:
//!
//! * [`catalog`] — a benign content universe: thousands of titles (music,
//!   video, applications) with Zipf popularity, multiple variants per title
//!   and realistic size distributions per media type.
//! * [`family`] — malware families with era-accurate behaviours: query-echo
//!   worms that answer **every** query with `<query>.exe` (Mandragore-style),
//!   fixed-name trojans that pose as popular downloads, and archive droppers.
//!   Each family has a small set of characteristic payload sizes — the
//!   property the paper's size-based filter exploits.
//! * [`payload`] — deterministic artifact generation: the bytes for any
//!   shared file are a pure function of (seed, content reference), so a
//!   month-long simulated study needs no storage and replays identically.
//! * [`library`] — per-host share libraries with Gnutella-style keyword
//!   matching, including the dynamic echo behaviour of infected hosts.
//! * [`zipf`] — Zipf-distributed sampling used for popularity.
//!
//! Family names are *representative* of 2006-era P2P malware (the abstract
//! does not name the paper's actual top families); their behaviours are the
//! load-bearing part.

pub mod catalog;
pub mod family;
pub mod intern;
pub mod library;
pub mod payload;
pub mod zipf;

pub use catalog::{BenignItem, Catalog, MediaType};
pub use family::{Container, FamilyId, MalwareFamily, NamingStrategy, Roster};
pub use intern::{InternStats, NameInterner, NameRecord, NO_RECORD_ID};
pub use library::{
    fingerprint_superset_masks, hash_table_bytes, CompiledQuery, ContentRef, HostLibrary,
    QueryCache, SharedFile,
};
pub use payload::ContentStore;
pub use zipf::Zipf;
