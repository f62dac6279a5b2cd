//! A ZIP (PKWARE APPNOTE) archive reader and writer.
//!
//! Supports the two methods that matter for 2006-era P2P content: `stored`
//! (0) and `deflate` (8). The reader locates the end-of-central-directory
//! record, walks the central directory, and cross-checks each entry against
//! its local file header; extracted data is CRC-verified. All parsing treats
//! the input as hostile — P2P downloads are exactly the adversarial case the
//! paper studies — so malformed structure yields typed errors, never panics.

use crate::crc32::crc32;
use crate::deflate::deflate;
use crate::inflate::{inflate_into, InflateError};

const LOCAL_SIG: u32 = 0x04034b50;
const CENTRAL_SIG: u32 = 0x02014b50;
const EOCD_SIG: u32 = 0x06054b50;

/// Fixed part of a local file header; the name follows it.
const LOCAL_HEADER_LEN: usize = 30;
/// Fixed part of a central-directory record; the name follows it.
const CENTRAL_HEADER_LEN: usize = 46;
/// End-of-central-directory record without a comment.
const EOCD_LEN: usize = 22;

/// Compression method for a ZIP entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Method 0: no compression.
    Stored,
    /// Method 8: DEFLATE.
    Deflate,
}

impl Method {
    fn id(self) -> u16 {
        match self {
            Method::Stored => 0,
            Method::Deflate => 8,
        }
    }

    fn from_id(id: u16) -> Option<Self> {
        match id {
            0 => Some(Method::Stored),
            8 => Some(Method::Deflate),
            _ => None,
        }
    }
}

/// Errors from parsing or extracting a ZIP archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZipError {
    /// No end-of-central-directory record found.
    MissingEocd,
    /// Structure truncated or offsets out of range.
    Truncated,
    /// A signature did not match its expected magic.
    BadSignature,
    /// Compression method other than stored/deflate.
    UnsupportedMethod(u16),
    /// Entry name is not valid UTF-8.
    BadName,
    /// CRC-32 of extracted data did not match the directory entry.
    CrcMismatch { expected: u32, actual: u32 },
    /// Declared uncompressed size disagrees with extracted data.
    SizeMismatch { expected: u32, actual: usize },
    /// DEFLATE stream was invalid.
    Inflate(InflateError),
    /// Entry index out of range.
    NoSuchEntry(usize),
    /// Uncompressed size exceeds the reader's configured ceiling.
    EntryTooLarge(u64),
}

impl std::fmt::Display for ZipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZipError::MissingEocd => write!(f, "no end-of-central-directory record"),
            ZipError::Truncated => write!(f, "zip structure truncated"),
            ZipError::BadSignature => write!(f, "bad zip signature"),
            ZipError::UnsupportedMethod(m) => write!(f, "unsupported compression method {m}"),
            ZipError::BadName => write!(f, "entry name is not valid UTF-8"),
            ZipError::CrcMismatch { expected, actual } => {
                write!(f, "crc mismatch: expected {expected:08x}, got {actual:08x}")
            }
            ZipError::SizeMismatch { expected, actual } => {
                write!(f, "size mismatch: expected {expected}, got {actual}")
            }
            ZipError::Inflate(e) => write!(f, "deflate error: {e}"),
            ZipError::NoSuchEntry(i) => write!(f, "no entry {i}"),
            ZipError::EntryTooLarge(n) => write!(f, "entry of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for ZipError {}

impl From<InflateError> for ZipError {
    fn from(e: InflateError) -> Self {
        ZipError::Inflate(e)
    }
}

/// Metadata for one archive member, from the central directory.
#[derive(Debug, Clone)]
pub struct ZipEntry {
    pub name: String,
    pub method: Method,
    pub crc32: u32,
    pub compressed_size: u32,
    pub uncompressed_size: u32,
    /// Offset of the local file header within the archive.
    pub local_header_offset: u32,
}

/// A parsed ZIP archive borrowing the underlying bytes.
pub struct ZipArchive<'a> {
    data: &'a [u8],
    entries: Vec<ZipEntry>,
    /// Per-entry decompression ceiling (zip-bomb guard).
    max_entry_size: u64,
}

fn le16(data: &[u8], off: usize) -> Result<u16, ZipError> {
    data.get(off..off + 2)
        .map(|s| u16::from_le_bytes([s[0], s[1]]))
        .ok_or(ZipError::Truncated)
}

fn le32(data: &[u8], off: usize) -> Result<u32, ZipError> {
    data.get(off..off + 4)
        .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
        .ok_or(ZipError::Truncated)
}

impl<'a> ZipArchive<'a> {
    /// Parses the archive structure with the default 64 MiB per-entry limit.
    pub fn parse(data: &'a [u8]) -> Result<Self, ZipError> {
        Self::parse_with_limit(data, 64 << 20)
    }

    /// Parses with an explicit per-entry decompressed-size ceiling.
    pub fn parse_with_limit(data: &'a [u8], max_entry_size: u64) -> Result<Self, ZipError> {
        // EOCD: scan backwards for the signature; the record has a variable
        // length comment so it is not at a fixed offset.
        if data.len() < EOCD_LEN {
            return Err(ZipError::MissingEocd);
        }
        let mut eocd = None;
        let scan_floor = data.len().saturating_sub(EOCD_LEN + 0xFFFF);
        let mut off = data.len() - EOCD_LEN;
        loop {
            if le32(data, off)? == EOCD_SIG {
                eocd = Some(off);
                break;
            }
            if off == scan_floor {
                break;
            }
            off -= 1;
        }
        let eocd = eocd.ok_or(ZipError::MissingEocd)?;
        let total_entries = le16(data, eocd + 10)? as usize;
        let cd_offset = le32(data, eocd + 16)? as usize;

        let mut entries = Vec::with_capacity(total_entries.min(4096));
        let mut pos = cd_offset;
        for _ in 0..total_entries {
            if le32(data, pos)? != CENTRAL_SIG {
                return Err(ZipError::BadSignature);
            }
            let method_id = le16(data, pos + 10)?;
            let method =
                Method::from_id(method_id).ok_or(ZipError::UnsupportedMethod(method_id))?;
            let crc = le32(data, pos + 16)?;
            let csize = le32(data, pos + 20)?;
            let usize_ = le32(data, pos + 24)?;
            let name_len = le16(data, pos + 28)? as usize;
            let extra_len = le16(data, pos + 30)? as usize;
            let comment_len = le16(data, pos + 32)? as usize;
            let lho = le32(data, pos + 42)?;
            let name_bytes = data
                .get(pos + CENTRAL_HEADER_LEN..pos + CENTRAL_HEADER_LEN + name_len)
                .ok_or(ZipError::Truncated)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| ZipError::BadName)?
                .to_string();
            entries.push(ZipEntry {
                name,
                method,
                crc32: crc,
                compressed_size: csize,
                uncompressed_size: usize_,
                local_header_offset: lho,
            });
            pos += CENTRAL_HEADER_LEN + name_len + extra_len + comment_len;
        }
        Ok(ZipArchive {
            data,
            entries,
            max_entry_size,
        })
    }

    /// Central-directory entries in archive order.
    pub fn entries(&self) -> &[ZipEntry] {
        &self.entries
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Extracts and CRC-verifies entry `index`.
    pub fn read(&self, index: usize) -> Result<Vec<u8>, ZipError> {
        let mut out = Vec::new();
        self.read_into(index, &mut out)?;
        Ok(out)
    }

    /// Like [`ZipArchive::read`], but decompresses into a caller-supplied
    /// buffer (cleared first) so archive traversal can recycle one scratch
    /// allocation per nesting level instead of allocating per member. On
    /// error the buffer contents are unspecified (but remain reusable).
    pub fn read_into(&self, index: usize, out: &mut Vec<u8>) -> Result<(), ZipError> {
        out.clear();
        let (entry, comp) = self.locate(index)?;
        match entry.method {
            Method::Stored => out.extend_from_slice(entry.verified(comp)?),
            Method::Deflate => {
                inflate_into(comp, entry.uncompressed_size as usize, out)?;
                entry.verified(out)?;
            }
        }
        Ok(())
    }

    /// A stored entry's data as the slice of the archive it occupies,
    /// checked exactly as [`ZipArchive::read_into`] checks it (same errors
    /// in the same order); `None` for a deflated entry, which has to be
    /// read out. Lets a traversal examine stored members where they lie.
    pub fn stored(&self, index: usize) -> Result<Option<&'a [u8]>, ZipError> {
        let (entry, comp) = self.locate(index)?;
        match entry.method {
            Method::Stored => entry.verified(comp).map(Some),
            Method::Deflate => Ok(None),
        }
    }

    /// Entry `index` and its compressed bytes, after the size ceiling and
    /// the local-header cross-check.
    fn locate(&self, index: usize) -> Result<(&ZipEntry, &'a [u8]), ZipError> {
        let entry = self
            .entries
            .get(index)
            .ok_or(ZipError::NoSuchEntry(index))?;
        if entry.uncompressed_size as u64 > self.max_entry_size {
            return Err(ZipError::EntryTooLarge(entry.uncompressed_size as u64));
        }
        let lho = entry.local_header_offset as usize;
        if le32(self.data, lho)? != LOCAL_SIG {
            return Err(ZipError::BadSignature);
        }
        let name_len = le16(self.data, lho + 26)? as usize;
        let extra_len = le16(self.data, lho + 28)? as usize;
        let data_start = lho + LOCAL_HEADER_LEN + name_len + extra_len;
        let comp = self
            .data
            .get(data_start..data_start + entry.compressed_size as usize)
            .ok_or(ZipError::Truncated)?;
        Ok((entry, comp))
    }
}

impl ZipEntry {
    /// `data` if it has this entry's declared size and CRC-32.
    fn verified<'d>(&self, data: &'d [u8]) -> Result<&'d [u8], ZipError> {
        if data.len() != self.uncompressed_size as usize {
            return Err(ZipError::SizeMismatch {
                expected: self.uncompressed_size,
                actual: data.len(),
            });
        }
        let actual = crc32(data);
        if actual != self.crc32 {
            return Err(ZipError::CrcMismatch {
                expected: self.crc32,
                actual,
            });
        }
        Ok(data)
    }
}

struct PendingEntry {
    name: String,
    method: Method,
    crc32: u32,
    compressed_size: u32,
    uncompressed_size: u32,
    local_header_offset: u32,
}

/// Incremental ZIP writer.
///
/// ```
/// use p2pmal_archive::zip::{ZipWriter, Method};
/// let mut w = ZipWriter::new();
/// w.add("readme.txt", b"hi", Method::Stored);
/// let archive = w.finish();
/// assert!(archive.starts_with(&[0x50, 0x4b, 0x03, 0x04]));
/// ```
pub struct ZipWriter {
    out: Vec<u8>,
    /// Where the archive starts in `out`; recorded offsets count from here.
    base: usize,
    entries: Vec<PendingEntry>,
}

impl Default for ZipWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ZipWriter {
    pub fn new() -> Self {
        Self::behind(Vec::new())
    }

    /// A writer whose archive goes behind what `out` already holds (an
    /// upload's response head); [`ZipWriter::finish`] gives the buffer
    /// back. The archive is the same bytes [`ZipWriter::new`] would write.
    pub fn behind(out: Vec<u8>) -> Self {
        ZipWriter {
            base: out.len(),
            out,
            entries: Vec::new(),
        }
    }

    /// Bytes a member costs the archive beyond its (compressed) data: its
    /// local header and its central-directory record.
    pub fn member_overhead(name: &str) -> usize {
        LOCAL_HEADER_LEN + CENTRAL_HEADER_LEN + 2 * name.len()
    }

    /// Length of the archive [`ZipWriter::finish`] would return now, not
    /// counting what the buffer held before it.
    pub fn finished_len(&self) -> usize {
        let directory: usize = self
            .entries
            .iter()
            .map(|e| CENTRAL_HEADER_LEN + e.name.len())
            .sum();
        self.out.len() - self.base + directory + EOCD_LEN
    }

    /// Appends a member. With [`Method::Deflate`] the data is compressed but
    /// falls back to stored if compression would expand it, mirroring what
    /// real archivers do.
    pub fn add(&mut self, name: &str, data: &[u8], method: Method) {
        if method == Method::Deflate {
            let comp = deflate(data);
            if comp.len() < data.len() || data.is_empty() {
                let data_start = self.begin_member(name, Method::Deflate);
                self.out.extend_from_slice(&comp);
                self.end_member(data_start, crc32(data), data.len());
                return;
            }
        }
        self.add_stored_with(name, |out| out.extend_from_slice(data));
    }

    /// Appends a stored member whose data `fill` appends to the archive
    /// buffer: the bytes are written once, where they stay, and the CRC is
    /// taken over them there. `fill` must only append.
    pub fn add_stored_with(&mut self, name: &str, fill: impl FnOnce(&mut Vec<u8>)) {
        let data_start = self.begin_member(name, Method::Stored);
        fill(&mut self.out);
        let data = &self.out[data_start..];
        let (crc, len) = (crc32(data), data.len());
        self.end_member(data_start, crc, len);
    }

    /// Writes a local file header with CRC and sizes left for
    /// [`ZipWriter::end_member`]; returns where the member's data starts.
    fn begin_member(&mut self, name: &str, method: Method) -> usize {
        let offset = (self.out.len() - self.base) as u32;
        self.out.extend_from_slice(&LOCAL_SIG.to_le_bytes());
        self.out.extend_from_slice(&20u16.to_le_bytes()); // version needed
        self.out.extend_from_slice(&0u16.to_le_bytes()); // flags
        self.out.extend_from_slice(&method.id().to_le_bytes());
        self.out.extend_from_slice(&0u16.to_le_bytes()); // mod time
        self.out.extend_from_slice(&0u16.to_le_bytes()); // mod date
        self.out.extend_from_slice(&[0; 12]); // crc, sizes: patched
        self.out
            .extend_from_slice(&(name.len() as u16).to_le_bytes());
        self.out.extend_from_slice(&0u16.to_le_bytes()); // extra len
        self.out.extend_from_slice(name.as_bytes());
        self.entries.push(PendingEntry {
            name: name.to_string(),
            method,
            crc32: 0,
            compressed_size: 0,
            uncompressed_size: 0,
            local_header_offset: offset,
        });
        self.out.len()
    }

    /// Closes the member whose data runs from `data_start` to the end of
    /// the buffer: patches its local header and completes its entry.
    fn end_member(&mut self, data_start: usize, crc: u32, uncompressed_len: usize) {
        let entry = self.entries.last_mut().expect("a member was begun");
        entry.crc32 = crc;
        entry.compressed_size = (self.out.len() - data_start) as u32;
        entry.uncompressed_size = uncompressed_len as u32;
        let sizes = self.base + entry.local_header_offset as usize + 14;
        self.out[sizes..sizes + 4].copy_from_slice(&entry.crc32.to_le_bytes());
        self.out[sizes + 4..sizes + 8].copy_from_slice(&entry.compressed_size.to_le_bytes());
        self.out[sizes + 8..sizes + 12].copy_from_slice(&entry.uncompressed_size.to_le_bytes());
    }

    /// Writes the central directory and EOCD, returning the archive bytes
    /// (behind whatever [`ZipWriter::behind`] was given).
    pub fn finish(mut self) -> Vec<u8> {
        let cd_offset = (self.out.len() - self.base) as u32;
        for e in &self.entries {
            self.out.extend_from_slice(&CENTRAL_SIG.to_le_bytes());
            self.out.extend_from_slice(&20u16.to_le_bytes()); // version made by
            self.out.extend_from_slice(&20u16.to_le_bytes()); // version needed
            self.out.extend_from_slice(&0u16.to_le_bytes()); // flags
            self.out.extend_from_slice(&e.method.id().to_le_bytes());
            self.out.extend_from_slice(&0u16.to_le_bytes()); // time
            self.out.extend_from_slice(&0u16.to_le_bytes()); // date
            self.out.extend_from_slice(&e.crc32.to_le_bytes());
            self.out.extend_from_slice(&e.compressed_size.to_le_bytes());
            self.out
                .extend_from_slice(&e.uncompressed_size.to_le_bytes());
            self.out
                .extend_from_slice(&(e.name.len() as u16).to_le_bytes());
            self.out.extend_from_slice(&0u16.to_le_bytes()); // extra
            self.out.extend_from_slice(&0u16.to_le_bytes()); // comment
            self.out.extend_from_slice(&0u16.to_le_bytes()); // disk number
            self.out.extend_from_slice(&0u16.to_le_bytes()); // internal attrs
            self.out.extend_from_slice(&0u32.to_le_bytes()); // external attrs
            self.out
                .extend_from_slice(&e.local_header_offset.to_le_bytes());
            self.out.extend_from_slice(e.name.as_bytes());
        }
        let cd_size = (self.out.len() - self.base) as u32 - cd_offset;
        let n = self.entries.len() as u16;
        self.out.extend_from_slice(&EOCD_SIG.to_le_bytes());
        self.out.extend_from_slice(&0u16.to_le_bytes()); // disk number
        self.out.extend_from_slice(&0u16.to_le_bytes()); // cd start disk
        self.out.extend_from_slice(&n.to_le_bytes());
        self.out.extend_from_slice(&n.to_le_bytes());
        self.out.extend_from_slice(&cd_size.to_le_bytes());
        self.out.extend_from_slice(&cd_offset.to_le_bytes());
        self.out.extend_from_slice(&0u16.to_le_bytes()); // comment len
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_stored_and_deflate() {
        let mut w = ZipWriter::new();
        w.add("a.txt", b"alpha alpha alpha alpha", Method::Deflate);
        w.add("b.bin", &[0u8, 1, 2, 3, 4, 5], Method::Stored);
        w.add("empty", b"", Method::Deflate);
        let bytes = w.finish();
        let a = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.entries()[0].name, "a.txt");
        assert_eq!(a.read(0).unwrap(), b"alpha alpha alpha alpha");
        assert_eq!(a.read(1).unwrap(), &[0u8, 1, 2, 3, 4, 5]);
        assert_eq!(a.read(2).unwrap(), b"");
    }

    /// The writer's output, pinned byte for byte (recorded before `add`
    /// stopped copying members): one member per way data reaches `out`.
    #[test]
    fn archive_bytes_are_pinned() {
        let mut w = ZipWriter::new();
        w.add(
            "notes.txt",
            &b"to be or not to be, ".repeat(40),
            Method::Deflate,
        );
        let stored: Vec<u8> = (0..=255u8).cycle().take(3000).collect();
        w.add("image.bin", &stored, Method::Stored);
        let bytes = w.finish();
        let a = ZipArchive::parse(&bytes).unwrap();
        let methods: Vec<Method> = a.entries().iter().map(|e| e.method).collect();
        assert_eq!(methods, [Method::Deflate, Method::Stored]);
        assert_eq!(
            p2pmal_hashes::sha1(&bytes).to_hex(),
            "854e842510981d8edf7df80dcef308f775d043ac"
        );
    }

    #[test]
    fn incompressible_falls_back_to_stored() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut data = vec![0u8; 1000];
        rng.fill_bytes(&mut data);
        let mut w = ZipWriter::new();
        w.add("r.bin", &data, Method::Deflate);
        let bytes = w.finish();
        let a = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(a.entries()[0].method, Method::Stored);
        assert_eq!(a.read(0).unwrap(), data);
    }

    #[test]
    fn empty_archive() {
        let bytes = ZipWriter::new().finish();
        let a = ZipArchive::parse(&bytes).unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn corrupt_crc_detected() {
        let mut w = ZipWriter::new();
        w.add("x", b"payload payload payload", Method::Stored);
        let mut bytes = w.finish();
        // Flip a byte inside the stored payload (after the 30+1 byte header).
        bytes[35] ^= 0xFF;
        let a = ZipArchive::parse(&bytes).unwrap();
        assert!(matches!(a.read(0), Err(ZipError::CrcMismatch { .. })));
    }

    #[test]
    fn missing_eocd_rejected() {
        assert_eq!(
            ZipArchive::parse(b"PK\x03\x04not a real zip").err(),
            Some(ZipError::MissingEocd)
        );
        assert_eq!(ZipArchive::parse(b"").err(), Some(ZipError::MissingEocd));
    }

    #[test]
    fn unsupported_method_rejected() {
        let mut w = ZipWriter::new();
        w.add("x", b"data", Method::Stored);
        let mut bytes = w.finish();
        // Patch the central directory method field (offset cd+10) to 99.
        let cd = bytes.len() - 22 - (46 + 1); // EOCD is 22, one CD entry with 1-char name
        bytes[cd + 10] = 99;
        assert_eq!(
            ZipArchive::parse(&bytes).err(),
            Some(ZipError::UnsupportedMethod(99))
        );
    }

    #[test]
    fn entry_size_limit_enforced() {
        let mut w = ZipWriter::new();
        w.add("big", &vec![b'a'; 4096], Method::Deflate);
        let bytes = w.finish();
        let a = ZipArchive::parse_with_limit(&bytes, 100).unwrap();
        assert!(matches!(a.read(0), Err(ZipError::EntryTooLarge(4096))));
    }

    #[test]
    fn read_out_of_range() {
        let bytes = ZipWriter::new().finish();
        let a = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(a.read(0).err(), Some(ZipError::NoSuchEntry(0)));
    }

    #[test]
    fn truncation_never_panics() {
        let mut w = ZipWriter::new();
        w.add(
            "file.exe",
            b"some content that is long enough",
            Method::Deflate,
        );
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            if let Ok(a) = ZipArchive::parse(&bytes[..cut]) {
                for i in 0..a.len() {
                    let _ = a.read(i);
                }
            }
        }
    }

    #[test]
    fn sizes_are_known_before_the_bytes_are_written() {
        let mut w = ZipWriter::new();
        assert_eq!(w.finished_len(), ZipWriter::new().finish().len());
        w.add("a.txt", &b"alpha ".repeat(30), Method::Deflate);
        // A member's cost beyond its data, before it is added.
        let want = w.finished_len() + ZipWriter::member_overhead("pad.bin") + 77;
        w.add_stored_with("pad.bin", |out| out.resize(out.len() + 77, 7));
        assert_eq!(w.finished_len(), want);
        assert_eq!(w.finish().len(), want);
    }

    #[test]
    fn stored_is_read_into_without_the_copy() {
        let mut w = ZipWriter::new();
        w.add("a.txt", &b"alpha ".repeat(30), Method::Deflate);
        w.add("b.bin", b"stored bytes", Method::Stored);
        let mut bytes = w.finish();
        let a = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(a.stored(0), Ok(None), "deflated: has to be read out");
        let member = a.stored(1).unwrap().expect("stored");
        assert_eq!(member, b"stored bytes");
        // The slice is the archive's own memory, not a copy.
        let at = bytes.len() - 22 - 2 * (46 + 5) - member.len();
        assert!(std::ptr::eq(member, &bytes[at..at + member.len()]));
        assert_eq!(a.stored(2), Err(ZipError::NoSuchEntry(2)));
        // A flipped data bit fails the same check `read` fails.
        bytes[at] ^= 1;
        let a = ZipArchive::parse(&bytes).unwrap();
        assert!(matches!(a.stored(1), Err(ZipError::CrcMismatch { .. })));
        assert_eq!(a.stored(1).err(), a.read(1).err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            files in proptest::collection::vec(
                ("[a-z]{1,12}\\.(exe|zip|txt)", proptest::collection::vec(any::<u8>(), 0..512)),
                1..8
            )
        ) {
            let mut w = ZipWriter::new();
            for (name, data) in &files {
                w.add(name, data, Method::Deflate);
            }
            let bytes = w.finish();
            let a = ZipArchive::parse(&bytes).unwrap();
            prop_assert_eq!(a.len(), files.len());
            for (i, (name, data)) in files.iter().enumerate() {
                prop_assert_eq!(&a.entries()[i].name, name);
                prop_assert_eq!(&a.read(i).unwrap(), data);
            }
        }

        #[test]
        fn prop_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            if let Ok(a) = ZipArchive::parse(&data) {
                for i in 0..a.len() {
                    let _ = a.read(i);
                }
            }
        }

        /// An archive written behind a prefix is the archive written
        /// alone, moved: same bytes, offsets relative to its own start.
        #[test]
        fn prop_archive_behind_a_prefix_is_the_same_archive(
            prefix in proptest::collection::vec(any::<u8>(), 0..64),
            files in proptest::collection::vec(
                (
                    "[a-z]{1,12}\\.(exe|zip|txt)",
                    proptest::collection::vec(any::<u8>(), 0..300),
                    0u8..3,
                ),
                0..6
            )
        ) {
            let build = |mut w: ZipWriter| {
                for (name, data, how) in &files {
                    match how {
                        0 => w.add(name, data, Method::Stored),
                        // Repeated, so some members do stay deflated.
                        1 => w.add(name, &data.repeat(3), Method::Deflate),
                        _ => w.add_stored_with(name, |out| out.extend_from_slice(data)),
                    }
                }
                let len = w.finished_len();
                (w.finish(), len)
            };
            let (alone, alone_len) = build(ZipWriter::new());
            let (behind, behind_len) = build(ZipWriter::behind(prefix.clone()));
            prop_assert_eq!((alone_len, behind_len), (alone.len(), alone.len()));
            prop_assert_eq!(&behind[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&behind[prefix.len()..], &alone[..]);
            let a = ZipArchive::parse(&behind[prefix.len()..]).unwrap();
            prop_assert_eq!(a.len(), files.len());
            for (i, (name, data, how)) in files.iter().enumerate() {
                prop_assert_eq!(&a.entries()[i].name, name);
                let want = if *how == 1 { data.repeat(3) } else { data.clone() };
                prop_assert_eq!(a.read(i).unwrap(), want);
            }
        }

        /// Damaged archives behind the ZIP magic: no accessor panics,
        /// nothing grows past the entry ceiling, and the borrowed and the
        /// copying accessor make the same checks in the same order.
        #[test]
        fn prop_hostile_bytes_never_panic_or_overallocate(
            files in proptest::collection::vec(
                ("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 0..300), any::<bool>()),
                0..5
            ),
            edits in proptest::collection::vec((any::<u32>(), any::<u8>()), 0..10),
            keep in any::<u16>(),
            limit in 0u64..700
        ) {
            let mut w = ZipWriter::new();
            for (name, data, deflated) in &files {
                if *deflated {
                    w.add(name, &data.repeat(3), Method::Deflate);
                } else {
                    w.add(name, data, Method::Stored);
                }
            }
            let mut bytes = w.finish();
            for (at, byte) in edits {
                let at = at as usize % bytes.len();
                bytes[at] = byte;
            }
            // Mostly whole, sometimes cut anywhere.
            if keep.is_multiple_of(4) {
                bytes.truncate(keep as usize % (bytes.len() + 1));
            }
            bytes.splice(..bytes.len().min(4), *b"PK\x03\x04");
            let Ok(a) = ZipArchive::parse_with_limit(&bytes, limit) else {
                return;
            };
            let mut buf = Vec::new();
            for i in 0..a.len() + 1 {
                let read = a.read_into(i, &mut buf);
                prop_assert!(buf.len() as u64 <= limit, "{} bytes past {limit}", buf.len());
                prop_assert!(buf.capacity() as u64 <= 2 * limit.max(8), "{}", buf.capacity());
                match a.stored(i) {
                    Ok(Some(member)) => prop_assert_eq!((read, member), (Ok(()), &buf[..])),
                    Ok(None) => prop_assert_eq!(a.entries()[i].method, Method::Deflate),
                    Err(e) => prop_assert_eq!(read, Err(e)),
                }
            }
        }
    }
}
