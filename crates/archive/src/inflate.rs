//! A complete DEFLATE (RFC 1951) decompressor.
//!
//! Supports all three block types (stored, fixed-Huffman, dynamic-Huffman)
//! and decodes with the counts/symbols canonical-Huffman technique used by
//! zlib's reference `puff` implementation: simple, allocation-light and easy
//! to audit.
//!
//! Because the scanner feeds this decoder with *untrusted bytes downloaded
//! from P2P peers*, every failure mode is a typed error — malformed input
//! must never panic — and the caller supplies an output ceiling so a
//! crafted "zip bomb" cannot exhaust memory.

/// Errors produced while inflating untrusted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InflateError {
    /// Ran out of input bits mid-stream.
    UnexpectedEof,
    /// Reserved block type 3.
    InvalidBlockType,
    /// Stored block LEN/NLEN complement check failed.
    StoredLengthMismatch,
    /// A Huffman code set was over- or under-subscribed.
    InvalidHuffmanTable,
    /// Encountered a code that is unused in the block's tables.
    InvalidSymbol,
    /// A match distance points before the start of output.
    DistanceTooFar,
    /// Output would exceed the caller's ceiling (zip-bomb guard).
    OutputLimitExceeded,
    /// Length/distance symbol outside the valid RFC 1951 range.
    InvalidLengthOrDistance,
}

impl std::fmt::Display for InflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            InflateError::UnexpectedEof => "unexpected end of deflate stream",
            InflateError::InvalidBlockType => "reserved deflate block type",
            InflateError::StoredLengthMismatch => "stored block length complement mismatch",
            InflateError::InvalidHuffmanTable => "invalid huffman code lengths",
            InflateError::InvalidSymbol => "invalid huffman symbol",
            InflateError::DistanceTooFar => "match distance exceeds output",
            InflateError::OutputLimitExceeded => "output limit exceeded",
            InflateError::InvalidLengthOrDistance => "invalid length/distance symbol",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for InflateError {}

/// LSB-first bit reader over a byte slice, refilled a 64-bit word at a time.
///
/// Invariant: bits of `bit_buf` at positions `>= bit_count` are zero, and
/// `bit_count <= 63`, so a refill can always splice new bytes on top.
struct BitReader<'a> {
    data: &'a [u8],
    /// Index of the next byte *not yet* loaded into `bit_buf`.
    pos: usize,
    bit_buf: u64,
    bit_count: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            bit_buf: 0,
            bit_count: 0,
        }
    }

    /// Tops up `bit_buf` from the input. The fast path reads one unaligned
    /// 64-bit word and splices in as many whole bytes as fit below bit 64;
    /// the tail of the stream falls back to byte-at-a-time.
    #[inline]
    fn refill(&mut self) {
        if self.pos + 8 <= self.data.len() {
            let w = u64::from_le_bytes(
                self.data[self.pos..self.pos + 8]
                    .try_into()
                    .expect("8-byte window"),
            );
            let take = (63 - self.bit_count) >> 3; // whole bytes that fit: 0..=7
            self.bit_buf |= (w & ((1u64 << (take * 8)) - 1)) << self.bit_count;
            self.bit_count += take * 8;
            self.pos += take as usize;
        } else {
            while self.bit_count <= 56 && self.pos < self.data.len() {
                self.bit_buf |= (self.data[self.pos] as u64) << self.bit_count;
                self.pos += 1;
                self.bit_count += 8;
            }
        }
    }

    fn bits(&mut self, n: u32) -> Result<u32, InflateError> {
        debug_assert!(n <= 24);
        if self.bit_count < n {
            self.refill();
            if self.bit_count < n {
                return Err(InflateError::UnexpectedEof);
            }
        }
        let v = (self.bit_buf & ((1u64 << n) - 1)) as u32;
        self.bit_buf >>= n;
        self.bit_count -= n;
        Ok(v)
    }

    fn bit(&mut self) -> Result<u32, InflateError> {
        self.bits(1)
    }

    /// Realigns on a byte boundary (stored blocks): whole buffered bytes are
    /// returned to the stream, the remainder bits of the current partially
    /// consumed byte are discarded.
    fn align(&mut self) {
        self.pos -= (self.bit_count >> 3) as usize;
        self.bit_buf = 0;
        self.bit_count = 0;
    }

    /// Reads `n` raw bytes. Callers must `align()` first so `pos` reflects
    /// the true stream position.
    fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], InflateError> {
        debug_assert_eq!(self.bit_count, 0, "take_bytes requires a prior align()");
        if self.pos + n > self.data.len() {
            return Err(InflateError::UnexpectedEof);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

const MAX_BITS: usize = 15;

/// Canonical Huffman decoding tables: `count[l]` codes of length `l`, plus
/// symbols ordered by (length, symbol).
struct Huffman {
    count: [u16; MAX_BITS + 1],
    symbol: Vec<u16>,
}

impl Huffman {
    /// Builds tables from per-symbol code lengths (0 = unused).
    fn new(lengths: &[u8]) -> Result<Self, InflateError> {
        let mut count = [0u16; MAX_BITS + 1];
        for &l in lengths {
            if l as usize > MAX_BITS {
                return Err(InflateError::InvalidHuffmanTable);
            }
            count[l as usize] += 1;
        }
        if count[0] as usize == lengths.len() {
            // No codes at all: callers treat this as an always-failing table.
            return Ok(Huffman {
                count,
                symbol: Vec::new(),
            });
        }
        // Check for an over-subscribed or incomplete set of codes.
        let mut left: i32 = 1;
        for &c in &count[1..=MAX_BITS] {
            left <<= 1;
            left -= c as i32;
            if left < 0 {
                return Err(InflateError::InvalidHuffmanTable);
            }
        }
        // Incomplete codes are tolerated only for the degenerate one-code
        // case (RFC permits a single distance code of length 1); stricter
        // callers can reject via `is_complete`.
        let mut offs = [0u16; MAX_BITS + 1];
        for l in 1..MAX_BITS {
            offs[l + 1] = offs[l] + count[l];
        }
        let mut symbol = vec![0u16; lengths.len()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                symbol[offs[l as usize] as usize] = sym as u16;
                offs[l as usize] += 1;
            }
        }
        symbol.truncate(lengths.iter().filter(|&&l| l != 0).count());
        Ok(Huffman { count, symbol })
    }

    /// Decodes one symbol, reading bits MSB-of-code-first per RFC 1951.
    fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, InflateError> {
        if r.bit_count < MAX_BITS as u32 {
            r.refill();
        }
        if r.bit_count >= MAX_BITS as u32 {
            // Fast path: every bit a 15-bit-max code could need is already
            // buffered, so walk local copies with no per-bit EOF checks.
            let mut code: i32 = 0;
            let mut first: i32 = 0;
            let mut index: i32 = 0;
            let mut buf = r.bit_buf;
            let mut used = 0u32;
            for len in 1..=MAX_BITS {
                code |= (buf & 1) as i32;
                buf >>= 1;
                used += 1;
                let count = self.count[len] as i32;
                if code - count < first {
                    r.bit_buf = buf;
                    r.bit_count -= used;
                    let sym = self
                        .symbol
                        .get((index + (code - first)) as usize)
                        .ok_or(InflateError::InvalidSymbol)?;
                    return Ok(*sym);
                }
                index += count;
                first += count;
                first <<= 1;
                code <<= 1;
            }
            return Err(InflateError::InvalidSymbol);
        }
        // Slow path: fewer than MAX_BITS left in the whole stream.
        let mut code: i32 = 0;
        let mut first: i32 = 0;
        let mut index: i32 = 0;
        for len in 1..=MAX_BITS {
            code |= r.bit()? as i32;
            let count = self.count[len] as i32;
            if code - count < first {
                let sym = self
                    .symbol
                    .get((index + (code - first)) as usize)
                    .ok_or(InflateError::InvalidSymbol)?;
                return Ok(*sym);
            }
            index += count;
            first += count;
            first <<= 1;
            code <<= 1;
        }
        Err(InflateError::InvalidSymbol)
    }
}

// RFC 1951 section 3.2.5 length/distance tables.
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Code-length code order, RFC 1951 section 3.2.7.
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

fn fixed_tables() -> (Huffman, Huffman) {
    let mut lit_lengths = [0u8; 288];
    for (i, l) in lit_lengths.iter_mut().enumerate() {
        *l = match i {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    let dist_lengths = [5u8; 30];
    (
        Huffman::new(&lit_lengths).expect("fixed literal table is valid"),
        Huffman::new(&dist_lengths).expect("fixed distance table is valid"),
    )
}

/// Makes room for `extra` more bytes of `out`, whose caller has checked
/// that `out.len() + extra <= max_out`: by doubling, as `Vec` would, but
/// never past `max_out`, so a stream that overstates its output costs at
/// most the ceiling in buffer, not the next power of two above it.
#[inline]
fn reserve_within(out: &mut Vec<u8>, extra: usize, max_out: usize) {
    if out.capacity() - out.len() < extra {
        let want = (2 * out.capacity()).max(out.len() + extra).max(64);
        out.reserve_exact(want.min(max_out) - out.len());
    }
}

/// Decompresses a raw DEFLATE stream.
///
/// `max_out` caps the decompressed size; exceeding it returns
/// [`InflateError::OutputLimitExceeded`] rather than allocating further.
/// The output buffer never holds more than `max_out` bytes of capacity.
pub fn inflate(data: &[u8], max_out: usize) -> Result<Vec<u8>, InflateError> {
    let mut out: Vec<u8> = Vec::new();
    inflate_into(data, max_out, &mut out)?;
    Ok(out)
}

/// Like [`inflate`], but appends into a caller-supplied buffer so repeated
/// decompressions (archive traversal over a batch of downloads) reuse one
/// allocation instead of growing a fresh `Vec` per member. The buffer is
/// *not* cleared first; `max_out` caps the total buffer length, and this
/// call grows the buffer's capacity to at most `max_out` bytes.
pub fn inflate_into(data: &[u8], max_out: usize, out: &mut Vec<u8>) -> Result<(), InflateError> {
    let mut r = BitReader::new(data);
    loop {
        let bfinal = r.bit()?;
        let btype = r.bits(2)?;
        match btype {
            0 => {
                r.align();
                let len_bytes = r.take_bytes(4)?;
                let len = u16::from_le_bytes([len_bytes[0], len_bytes[1]]) as usize;
                let nlen = u16::from_le_bytes([len_bytes[2], len_bytes[3]]);
                if nlen != !(len as u16) {
                    return Err(InflateError::StoredLengthMismatch);
                }
                if out.len() + len > max_out {
                    return Err(InflateError::OutputLimitExceeded);
                }
                let bytes = r.take_bytes(len)?;
                reserve_within(out, len, max_out);
                out.extend_from_slice(bytes);
            }
            1 => {
                let (lit, dist) = fixed_tables();
                inflate_block(&mut r, out, &lit, &dist, max_out)?;
            }
            2 => {
                let hlit = r.bits(5)? as usize + 257;
                let hdist = r.bits(5)? as usize + 1;
                let hclen = r.bits(4)? as usize + 4;
                if hlit > 286 || hdist > 30 {
                    return Err(InflateError::InvalidHuffmanTable);
                }
                let mut clen_lengths = [0u8; 19];
                for &idx in CLEN_ORDER.iter().take(hclen) {
                    clen_lengths[idx] = r.bits(3)? as u8;
                }
                let clen = Huffman::new(&clen_lengths)?;
                let mut lengths = vec![0u8; hlit + hdist];
                let mut i = 0;
                while i < lengths.len() {
                    let sym = clen.decode(&mut r)?;
                    match sym {
                        0..=15 => {
                            lengths[i] = sym as u8;
                            i += 1;
                        }
                        16 => {
                            if i == 0 {
                                return Err(InflateError::InvalidHuffmanTable);
                            }
                            let prev = lengths[i - 1];
                            let rep = 3 + r.bits(2)? as usize;
                            if i + rep > lengths.len() {
                                return Err(InflateError::InvalidHuffmanTable);
                            }
                            for _ in 0..rep {
                                lengths[i] = prev;
                                i += 1;
                            }
                        }
                        17 => {
                            let rep = 3 + r.bits(3)? as usize;
                            if i + rep > lengths.len() {
                                return Err(InflateError::InvalidHuffmanTable);
                            }
                            i += rep;
                        }
                        18 => {
                            let rep = 11 + r.bits(7)? as usize;
                            if i + rep > lengths.len() {
                                return Err(InflateError::InvalidHuffmanTable);
                            }
                            i += rep;
                        }
                        _ => return Err(InflateError::InvalidSymbol),
                    }
                }
                if lengths[256] == 0 {
                    // End-of-block must be encodable.
                    return Err(InflateError::InvalidHuffmanTable);
                }
                let lit = Huffman::new(&lengths[..hlit])?;
                let dist = Huffman::new(&lengths[hlit..])?;
                inflate_block(&mut r, out, &lit, &dist, max_out)?;
            }
            _ => return Err(InflateError::InvalidBlockType),
        }
        if bfinal == 1 {
            return Ok(());
        }
    }
}

fn inflate_block(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &Huffman,
    dist: &Huffman,
    max_out: usize,
) -> Result<(), InflateError> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => {
                if out.len() >= max_out {
                    return Err(InflateError::OutputLimitExceeded);
                }
                reserve_within(out, 1, max_out);
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let li = sym as usize - 257;
                let len = LENGTH_BASE[li] as usize + r.bits(LENGTH_EXTRA[li] as u32)? as usize;
                let dsym = dist.decode(r)? as usize;
                if dsym >= 30 {
                    return Err(InflateError::InvalidLengthOrDistance);
                }
                let d = DIST_BASE[dsym] as usize + r.bits(DIST_EXTRA[dsym] as u32)? as usize;
                if d > out.len() {
                    return Err(InflateError::DistanceTooFar);
                }
                if out.len() + len > max_out {
                    return Err(InflateError::OutputLimitExceeded);
                }
                reserve_within(out, len, max_out);
                let start = out.len() - d;
                if d >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping match (d < len is legal and common:
                    // run-length). The region from `start` is periodic with
                    // period `d`, so doubling windows replicate it correctly.
                    let mut remaining = len;
                    while remaining > 0 {
                        let window = (out.len() - start).min(remaining);
                        out.extend_from_within(start..start + window);
                        remaining -= window;
                    }
                }
            }
            _ => return Err(InflateError::InvalidLengthOrDistance),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::deflate;

    #[test]
    fn stored_block_roundtrip_via_manual_bytes() {
        // BFINAL=1, BTYPE=00, aligned, LEN=5, NLEN=!5, "hello".
        let mut raw = vec![0b0000_0001, 5, 0, 0xFA, 0xFF];
        raw.extend_from_slice(b"hello");
        assert_eq!(inflate(&raw, 1024).unwrap(), b"hello");
    }

    #[test]
    fn stored_block_bad_nlen_rejected() {
        let mut raw = vec![0b0000_0001, 5, 0, 0xFB, 0xFF];
        raw.extend_from_slice(b"hello");
        assert_eq!(inflate(&raw, 1024), Err(InflateError::StoredLengthMismatch));
    }

    #[test]
    fn empty_input_is_eof() {
        assert_eq!(inflate(&[], 1024), Err(InflateError::UnexpectedEof));
    }

    #[test]
    fn reserved_block_type_rejected() {
        // BFINAL=1, BTYPE=11.
        assert_eq!(
            inflate(&[0b0000_0111], 1024),
            Err(InflateError::InvalidBlockType)
        );
    }

    #[test]
    fn output_limit_enforced() {
        let data = vec![b'x'; 4096];
        let comp = deflate(&data);
        assert_eq!(inflate(&comp, 100), Err(InflateError::OutputLimitExceeded));
        assert_eq!(inflate(&comp, 4096).unwrap(), data);
    }

    #[test]
    fn truncated_stream_is_error_not_panic() {
        let comp = deflate(b"some reasonably compressible data data data data");
        for cut in 0..comp.len() {
            let _ = inflate(&comp[..cut], 1 << 16); // must not panic
        }
    }

    #[test]
    fn overlapping_match_periods_roundtrip() {
        // Small-period runs force d < len matches, exercising the doubling
        // window copy. Periods 1..8 cover the window-growth edge cases.
        for period in 1usize..=8 {
            let unit: Vec<u8> = (0..period).map(|i| b'a' + i as u8).collect();
            let data: Vec<u8> = unit.iter().copied().cycle().take(5000).collect();
            let comp = deflate(&data);
            assert_eq!(inflate(&comp, data.len()).unwrap(), data, "period {period}");
        }
    }

    #[test]
    fn random_mixed_data_roundtrips() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..50 {
            // Mix of compressible text runs and incompressible noise.
            let mut data = Vec::new();
            while data.len() < 4096 {
                if rng.gen_bool(0.5) {
                    let word = b"the quick brown fox ";
                    let reps = rng.gen_range(1..20);
                    for _ in 0..reps {
                        data.extend_from_slice(word);
                    }
                } else {
                    let mut noise = vec![0u8; rng.gen_range(1..200)];
                    rng.fill_bytes(&mut noise);
                    data.extend_from_slice(&noise);
                }
            }
            let comp = deflate(&data);
            assert_eq!(inflate(&comp, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn inflate_into_reuses_buffer_across_streams() {
        let a = b"first stream payload, repeated repeated repeated".to_vec();
        let b = b"second".to_vec();
        let mut buf = Vec::new();
        inflate_into(&deflate(&a), a.len(), &mut buf).unwrap();
        assert_eq!(buf, a);
        let cap = buf.capacity();
        buf.clear();
        inflate_into(&deflate(&b), b.len(), &mut buf).unwrap();
        assert_eq!(buf, b);
        assert_eq!(buf.capacity(), cap, "clear+reuse must not reallocate");
    }

    #[test]
    fn garbage_never_panics() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let mut buf = vec![0u8; 64];
            rng.fill_bytes(&mut buf);
            let _ = inflate(&buf, 1 << 16);
        }
    }
}
