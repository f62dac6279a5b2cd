//! CRC-32 with the IEEE 802.3 (reflected 0x04C11DB7 → 0xEDB88320) polynomial,
//! as required by the ZIP format. Slice-by-16: sixteen lookup tables let the
//! inner loop fold sixteen input bytes per iteration instead of one.

use std::sync::OnceLock;

/// Lazily built slice-by-16 tables (16 KiB). `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k][i]` advances the CRC of byte `i` through
/// `k` additional zero bytes, so sixteen table reads fold four 32-bit words.
fn tables() -> &'static [[u32; 256]; 16] {
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..16 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Incremental CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(16);
        for chunk in &mut chunks {
            let lo = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes")) ^ u64::from(crc);
            let hi = u64::from_le_bytes(chunk[8..].try_into().expect("8 bytes"));
            // Byte `k` of `lo` has 15 - k bytes of the block behind it, byte
            // `k` of `hi` has 7 - k; only the first four reads wait on `crc`.
            crc = 0;
            for k in 0..8 {
                crc ^= t[15 - k][(lo >> (8 * k)) as usize & 0xff]
                    ^ t[7 - k][(hi >> (8 * k)) as usize & 0xff];
            }
        }
        for &b in chunks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// Reference byte-at-a-time CRC-32, kept for equivalence tests and the
/// old-vs-new benchmark in `perf_archive`.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let t = &tables()[0];
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = t[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414FA339
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..500u32).map(|i| (i % 256) as u8).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), crc32(&data));
    }

    #[test]
    fn slice16_matches_bytewise() {
        // All alignments and lengths around the 16-byte fold boundary, plus
        // a pseudo-random buffer split at unaligned offsets.
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for start in 0..16 {
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1000] {
                let slice = &data[start..(start + len).min(data.len())];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    proptest! {
        /// 0–70 bytes at any start alignment, fed in up to five pieces: the
        /// 16-byte loop and the bytewise tail both run, from any state.
        #[test]
        fn prop_matches_bytewise_at_any_alignment_and_split(
            data in proptest::collection::vec(any::<u8>(), 0..71),
            start in 0usize..16,
            splits in proptest::collection::vec(0usize..71, 0..5),
        ) {
            let mut padded = vec![0xA5u8; start];
            padded.extend_from_slice(&data);
            let data = &padded[start..];
            let mut cuts: Vec<usize> = splits.iter().map(|&s| s.min(data.len())).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                c.update(&data[from..cut]);
                from = cut;
            }
            c.update(&data[from..]);
            prop_assert_eq!(c.finalize(), crc32_bytewise(data));
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn differs_on_single_bit_flip() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
