//! Archive handling built from scratch: CRC-32, DEFLATE (RFC 1951) and ZIP.
//!
//! The IMC 2006 study downloaded every query response that looked like an
//! executable *or an archive* and scanned it; archives therefore need to be
//! opened before signature matching. This crate supplies that capability to
//! `p2pmal-scanner` and lets `p2pmal-corpus` fabricate realistic
//! malware-in-a-zip payloads:
//!
//! * [`mod@crc32`] — CRC-32 (IEEE 802.3 polynomial), as used by ZIP: carry-less
//!   multiply where the CPU has it, slice-by-16 tables elsewhere.
//! * [`mod@inflate`] — a complete RFC 1951 decompressor (stored, fixed-Huffman
//!   and dynamic-Huffman blocks), hardened against malformed input.
//! * [`mod@deflate`] — a compressor producing stored or fixed-Huffman blocks with
//!   a hash-chain LZ77 matcher.
//! * [`zip`] — a ZIP reader/writer supporting the `stored` and `deflate`
//!   methods, local file headers, the central directory and EOCD record.
//!
//! ```
//! use p2pmal_archive::zip::{ZipWriter, ZipArchive, Method};
//! let mut w = ZipWriter::new();
//! w.add("setup.exe", b"MZ fake executable body", Method::Deflate);
//! let bytes = w.finish();
//! let archive = ZipArchive::parse(&bytes).unwrap();
//! assert_eq!(archive.entries()[0].name, "setup.exe");
//! assert_eq!(archive.read(0).unwrap(), b"MZ fake executable body");
//! ```

pub mod crc32;
pub mod deflate;
pub mod inflate;
pub mod zip;

pub use crc32::{crc32, Crc32};
pub use deflate::deflate;
pub use inflate::{inflate, inflate_into, InflateError};
pub use zip::{Method, ZipArchive, ZipEntry, ZipError, ZipWriter};
