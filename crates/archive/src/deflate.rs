//! A DEFLATE (RFC 1951) compressor.
//!
//! Produces a single fixed-Huffman block (BTYPE=01) with a greedy hash-chain
//! LZ77 matcher, or a chain of stored blocks via [`deflate_stored`]. Fixed
//! Huffman keeps the encoder compact while still producing genuinely
//! compressed output that any inflater (including ours) accepts; dynamic
//! Huffman would only improve ratios, not correctness, and the study needs
//! realistic archives rather than optimal ones.

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const WINDOW: usize = 32 * 1024;
const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Longest hash chain walked per position; bounds worst-case time.
const MAX_CHAIN: usize = 128;

/// LSB-first bit writer matching DEFLATE's bit packing.
struct BitWriter {
    out: Vec<u8>,
    bit_buf: u32,
    bit_count: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            bit_buf: 0,
            bit_count: 0,
        }
    }

    /// Writes `n` bits of `v`, LSB first (extra-bit fields, block headers).
    fn bits(&mut self, v: u32, n: u32) {
        self.bit_buf |= v << self.bit_count;
        self.bit_count += n;
        while self.bit_count >= 8 {
            self.out.push((self.bit_buf & 0xff) as u8);
            self.bit_buf >>= 8;
            self.bit_count -= 8;
        }
    }

    /// Writes a Huffman code: RFC 1951 packs codes most-significant bit
    /// first, so the code is bit-reversed into the LSB-first stream.
    fn code(&mut self, code: u32, len: u32) {
        let mut rev = 0u32;
        for i in 0..len {
            rev |= ((code >> i) & 1) << (len - 1 - i);
        }
        self.bits(rev, len);
    }

    fn finish(mut self) -> Vec<u8> {
        if self.bit_count > 0 {
            self.out.push((self.bit_buf & 0xff) as u8);
        }
        self.out
    }
}

/// Fixed literal/length code for `sym`, returning `(code, bits)`.
fn fixed_lit_code(sym: u16) -> (u32, u32) {
    match sym {
        0..=143 => (0x30 + sym as u32, 8),
        144..=255 => (0x190 + (sym as u32 - 144), 9),
        256..=279 => (sym as u32 - 256, 7),
        _ => (0xC0 + (sym as u32 - 280), 8),
    }
}

/// Maps a match length (3..=258) to `(symbol, extra_bits, extra_value)`.
fn length_code(len: usize) -> (u16, u32, u32) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    const BASE: [u16; 29] = [
        3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115,
        131, 163, 195, 227, 258,
    ];
    const EXTRA: [u8; 29] = [
        0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
    ];
    let mut i = 28;
    while BASE[i] as usize > len {
        i -= 1;
    }
    (
        257 + i as u16,
        EXTRA[i] as u32,
        (len - BASE[i] as usize) as u32,
    )
}

/// Maps a match distance (1..=32768) to `(symbol, extra_bits, extra_value)`.
fn dist_code(dist: usize) -> (u16, u32, u32) {
    const BASE: [u16; 30] = [
        1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
        2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
    ];
    const EXTRA: [u8; 30] = [
        0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12,
        13, 13,
    ];
    let mut i = 29;
    while BASE[i] as usize > dist {
        i -= 1;
    }
    (i as u16, EXTRA[i] as u32, (dist - BASE[i] as usize) as u32)
}

fn hash3(data: &[u8], pos: usize) -> usize {
    let h = (data[pos] as u32) << 16 | (data[pos + 1] as u32) << 8 | data[pos + 2] as u32;
    (h.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize & (HASH_SIZE - 1)
}

/// How many bytes `data[a..]` and `data[b..]` share, up to `limit`
/// (`a, b <= data.len() - limit`): eight at a time, the first differing
/// byte found by XOR and `trailing_zeros`, the last few one at a time.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
    let mut l = 0;
    while l + 8 <= limit {
        let diff = word(a + l) ^ word(b + l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// Compresses `data` into a single fixed-Huffman DEFLATE block.
///
/// The hash chains hold `position + 1` as `u32`, 0 meaning none, so both
/// tables start as zeroed memory.
pub fn deflate(data: &[u8]) -> Vec<u8> {
    assert!(data.len() < u32::MAX as usize, "deflate input over 4 GiB");
    let mut w = BitWriter::new();
    w.bits(1, 1); // BFINAL
    w.bits(1, 2); // BTYPE=01 fixed Huffman

    let mut head = vec![0u32; HASH_SIZE];
    let mut prev = vec![0u32; WINDOW];
    let mut pos = 0;
    while pos < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if pos + MIN_MATCH <= data.len() {
            let h = hash3(data, pos);
            let mut next = head[h];
            let mut chain = 0;
            let limit = (data.len() - pos).min(MAX_MATCH);
            while next != 0 && pos - (next as usize - 1) <= WINDOW && chain < MAX_CHAIN {
                let cand = next as usize - 1;
                let l = match_len(data, cand, pos, limit);
                if l > best_len {
                    best_len = l;
                    best_dist = pos - cand;
                    if l == limit {
                        break;
                    }
                }
                next = prev[cand % WINDOW];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH && best_dist >= 1 {
            let (lsym, lextra, lval) = length_code(best_len);
            let (code, bits) = fixed_lit_code(lsym);
            w.code(code, bits);
            w.bits(lval, lextra);
            let (dsym, dextra, dval) = dist_code(best_dist);
            w.code(dsym as u32, 5);
            w.bits(dval, dextra);
            // Insert every covered position into the hash chains so later
            // matches can reference inside this match.
            for p in pos..(pos + best_len).min(data.len().saturating_sub(MIN_MATCH - 1)) {
                let h = hash3(data, p);
                prev[p % WINDOW] = head[h];
                head[h] = p as u32 + 1;
            }
            pos += best_len;
        } else {
            let (code, bits) = fixed_lit_code(data[pos] as u16);
            w.code(code, bits);
            if pos + MIN_MATCH <= data.len() {
                let h = hash3(data, pos);
                prev[pos % WINDOW] = head[h];
                head[h] = pos as u32 + 1;
            }
            pos += 1;
        }
    }
    let (code, bits) = fixed_lit_code(256);
    w.code(code, bits);
    w.finish()
}

/// Encodes `data` as uncompressed stored blocks (BTYPE=00).
///
/// Useful when byte-exact output sizes matter more than compression, e.g.
/// when the corpus fabricates archives with prescribed on-disk sizes.
pub fn deflate_stored(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + 5 * (data.len() / 0xFFFF + 1));
    let mut chunks = data.chunks(0xFFFF).peekable();
    if data.is_empty() {
        out.extend_from_slice(&[0x01, 0, 0, 0xFF, 0xFF]);
        return out;
    }
    while let Some(chunk) = chunks.next() {
        let last = chunks.peek().is_none();
        out.push(if last { 1 } else { 0 });
        out.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
        out.extend_from_slice(&(!(chunk.len() as u16)).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate;
    use proptest::prelude::*;
    use rand::{Rng, RngCore, SeedableRng};

    /// The matcher `deflate` replaced: `usize` chains initialised to a
    /// sentinel, matches extended one byte at a time. `deflate` must write
    /// exactly its bytes.
    fn deflate_bytewise(data: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.bits(1, 1);
        w.bits(1, 2);
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; WINDOW];
        let mut pos = 0;
        while pos < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if pos + MIN_MATCH <= data.len() {
                let h = hash3(data, pos);
                let mut cand = head[h];
                let mut chain = 0;
                while cand != usize::MAX && pos - cand <= WINDOW && chain < MAX_CHAIN {
                    let limit = (data.len() - pos).min(MAX_MATCH);
                    let mut l = 0;
                    while l < limit && data[cand + l] == data[pos + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = pos - cand;
                        if l == limit {
                            break;
                        }
                    }
                    cand = prev[cand % WINDOW];
                    chain += 1;
                }
            }
            if best_len >= MIN_MATCH && best_dist >= 1 {
                let (lsym, lextra, lval) = length_code(best_len);
                let (code, bits) = fixed_lit_code(lsym);
                w.code(code, bits);
                w.bits(lval, lextra);
                let (dsym, dextra, dval) = dist_code(best_dist);
                w.code(dsym as u32, 5);
                w.bits(dval, dextra);
                for p in pos..(pos + best_len).min(data.len().saturating_sub(MIN_MATCH - 1)) {
                    let h = hash3(data, p);
                    prev[p % WINDOW] = head[h];
                    head[h] = p;
                }
                pos += best_len;
            } else {
                let (code, bits) = fixed_lit_code(data[pos] as u16);
                w.code(code, bits);
                if pos + MIN_MATCH <= data.len() {
                    let h = hash3(data, pos);
                    prev[pos % WINDOW] = head[h];
                    head[h] = pos;
                }
                pos += 1;
            }
        }
        let (code, bits) = fixed_lit_code(256);
        w.code(code, bits);
        w.finish()
    }

    /// A QRP patch's shape: a `len`-slot delta table, 0x00 (absent) but for
    /// `present` slots of 0xFA, scattered by `seed`.
    fn qrp_shaped(len: usize, present: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut data = vec![0u8; len];
        for _ in 0..present.min(len) {
            let at = rng.gen_range(0..len);
            data[at] = 0xFA;
        }
        data
    }

    #[test]
    fn matches_the_bytewise_matcher_on_tables_and_window_edges() {
        for (len, present) in [
            (1 << 16, 150),
            (1 << 16, 0),
            (1 << 16, 1 << 16),
            (1 << 12, 900),
        ] {
            let data = qrp_shaped(len, present, len as u64 ^ present as u64);
            assert_eq!(deflate(&data), deflate_bytewise(&data), "{len} / {present}");
        }
        // Matches reaching back exactly one window, and past it.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut block = vec![0u8; WINDOW];
        rng.fill_bytes(&mut block);
        let twice: Vec<u8> = block
            .iter()
            .chain(&block)
            .chain(&block[..300])
            .copied()
            .collect();
        assert_eq!(deflate(&twice), deflate_bytewise(&twice));
        let all: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        assert_eq!(deflate(&all), deflate_bytewise(&all));
    }

    fn roundtrip(data: &[u8]) {
        let comp = deflate(data);
        assert_eq!(inflate(&comp, data.len().max(1) * 2 + 64).unwrap(), data);
        let stored = deflate_stored(data);
        assert_eq!(inflate(&stored, data.len() + 64).unwrap(), data);
    }

    #[test]
    fn empty() {
        roundtrip(b"");
    }

    #[test]
    fn single_byte() {
        roundtrip(b"x");
    }

    #[test]
    fn short_text() {
        roundtrip(b"hello hello hello hello");
    }

    #[test]
    fn highly_repetitive_compresses() {
        let data = vec![b'a'; 100_000];
        let comp = deflate(&data);
        assert!(comp.len() < data.len() / 50, "got {} bytes", comp.len());
        assert_eq!(inflate(&comp, data.len()).unwrap(), data);
    }

    #[test]
    fn random_data_roundtrips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for len in [1, 2, 3, 255, 256, 1000, 65535, 65536, 200_000] {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            roundtrip(&data);
        }
    }

    #[test]
    fn structured_data_roundtrips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        // Mixture of runs and random segments exercises match emission.
        let mut data = Vec::new();
        for _ in 0..200 {
            if rng.gen_bool(0.5) {
                let b: u8 = rng.gen();
                let n = rng.gen_range(1..300);
                data.extend(std::iter::repeat_n(b, n));
            } else {
                let n = rng.gen_range(1..50);
                data.extend((0..n).map(|_| rng.gen::<u8>()));
            }
        }
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_encoded_correctly() {
        // "abcabcabc..." produces distance-3 matches longer than 3.
        let data: Vec<u8> = b"abc".iter().cycle().take(500).copied().collect();
        roundtrip(&data);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).collect();
        roundtrip(&data);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let comp = deflate(&data);
            prop_assert_eq!(inflate(&comp, data.len() + 64).unwrap(), data);
        }

        #[test]
        fn prop_roundtrip_compressible(
            runs in proptest::collection::vec((any::<u8>(), 1usize..64), 0..64)
        ) {
            let mut data = Vec::new();
            for (b, n) in runs {
                data.extend(std::iter::repeat_n(b, n));
            }
            let comp = deflate(&data);
            prop_assert_eq!(inflate(&comp, data.len() + 64).unwrap(), data);
        }

        /// Random bytes, runs of random length over a small alphabet (the
        /// 8-byte extension stopping at every offset), and QRP-shaped
        /// tables: the same bytes as the byte-at-a-time matcher.
        #[test]
        fn prop_matches_the_bytewise_matcher(
            noise in proptest::collection::vec(any::<u8>(), 0..2048),
            runs in proptest::collection::vec((0u8..4, 1usize..300), 0..80),
            table in (8u32..15, 0usize..600, any::<u64>()),
        ) {
            prop_assert_eq!(deflate(&noise), deflate_bytewise(&noise));
            let mut data = Vec::new();
            for (b, n) in runs {
                data.extend(std::iter::repeat_n(b, n));
            }
            prop_assert_eq!(deflate(&data), deflate_bytewise(&data));
            let (log2, present, seed) = table;
            let data = qrp_shaped(1 << log2, present, seed);
            prop_assert_eq!(deflate(&data), deflate_bytewise(&data));
        }
    }
}
