//! A signature-based anti-virus engine, built from scratch.
//!
//! The paper scanned every downloaded executable/archive response with a
//! commercial AV product to obtain ground-truth malware labels. This crate is
//! the substitute: a multi-pattern signature scanner in the ClamAV style,
//! with
//!
//! * [`aho`] — an Aho–Corasick automaton for simultaneous multi-pattern
//!   search (the industry-standard prefilter for signature AV),
//! * [`sig`] — hex signatures with `??` single-byte wildcards and `*` gaps,
//! * [`db`] — a signature database with a text format and builder API,
//! * [`filetype`] — magic-byte and extension-based file typing (the study
//!   classifies responses into executables, archives and media),
//! * [`engine`] — the scan engine, which recurses into ZIP archives exactly
//!   like the study's scanner had to.
//!
//! ```
//! use p2pmal_scanner::{SignatureDb, Scanner};
//! let mut db = SignatureDb::new();
//! db.add_hex("Worm.Test.A", "deadbeef??c0de").unwrap();
//! let scanner = Scanner::new(db.build().unwrap());
//! let verdict = scanner.scan("x.exe", &[0xde, 0xad, 0xbe, 0xef, 0x99, 0xc0, 0xde]);
//! assert_eq!(verdict.detections[0].name, "Worm.Test.A");
//! ```

pub mod aho;
pub mod db;
pub mod engine;
pub mod filetype;
pub mod sig;

pub use aho::AhoCorasick;
pub use db::{CompiledDb, SignatureDb, SignatureError};
pub use engine::{Detection, ScanConfig, ScanScratch, Scanner, Verdict};
pub use filetype::{FileClass, FileKind};
pub use sig::Signature;
