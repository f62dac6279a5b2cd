//! CRC-32 with the IEEE 802.3 (reflected 0x04C11DB7 → 0xEDB88320) polynomial,
//! as required by the ZIP format. Two arms compute the same function: on
//! x86-64 CPUs with PCLMULQDQ, carry-less multiplication folds 64 bytes per
//! step; everywhere else, and for inputs under 64 bytes and every tail,
//! sixteen lookup tables fold sixteen bytes per step (slice-by-16).

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
        self.update_on(data, true);
    }

    /// [`Crc32::update`] with the carry-less-multiply arm allowed (`simd`,
    /// taken when the CPU has it) or not. Both arms leave the same state.
    fn update_on(&mut self, data: &[u8], simd: bool) {
        #[cfg(target_arch = "x86_64")]
        let data = if simd
            && data.len() >= 64
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            let whole = data.len() & !15;
            // SAFETY: both features were detected just above, and `whole`
            // is a multiple of 16 no smaller than 64.
            self.state = unsafe { clmul::fold(self.state, &data[..whole]) };
            &data[whole..]
        } else {
            data
        };
        #[cfg(not(target_arch = "x86_64"))]
        let _ = simd;
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

/// CRC-32 by carry-less multiplication: Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in
/// the shape of Linux's `crc32-pclmul`. Four 128-bit accumulators each fold
/// 64 bytes ahead per step; they then fold into one, which takes the
/// remaining 16-byte blocks, is reduced 128 → 64 → 32 bits, and a Barrett
/// reduction leaves the CRC register.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::*;

    /// x^(4·128+32) and x^(4·128−32) mod P, bit-reflected: move an
    /// accumulator 512 bits along the message.
    const FOLD4: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// The same for 128 bits; the high half also folds 128 → 64 bits.
    const FOLD1: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// x^64 mod P, bit-reflected: 64 → 32 bits.
    const FOLD_64: i64 = 0x1_63cd_6124;
    /// Barrett reduction: the reflected polynomial P′ and μ = x^64 / P.
    const BARRETT: (i64, i64) = (0x1_DB71_0641, 0x1_F701_1641);

    /// `x` carried 128·k bits further, folded onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_onto(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The CRC register after `data`, starting from register `state` (the
    /// pre-inverted form [`super::Crc32`] keeps).
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ and SSE4.1, and `data.len()` must be
    /// a multiple of 16 no smaller than 64.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub unsafe fn fold(state: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let at = |i: usize| _mm_loadu_si128(data.as_ptr().add(i) as *const __m128i);
        let mut x0 = _mm_xor_si128(at(0), _mm_cvtsi32_si128(state as i32));
        let (mut x1, mut x2, mut x3) = (at(16), at(32), at(48));
        let k = _mm_set_epi64x(FOLD4.1, FOLD4.0);
        let mut i = 64;
        while i + 64 <= data.len() {
            x0 = fold_onto(x0, k, at(i));
            x1 = fold_onto(x1, k, at(i + 16));
            x2 = fold_onto(x2, k, at(i + 32));
            x3 = fold_onto(x3, k, at(i + 48));
            i += 64;
        }
        let k = _mm_set_epi64x(FOLD1.1, FOLD1.0);
        let mut x = fold_onto(fold_onto(fold_onto(x0, k, x1), k, x2), k, x3);
        while i < data.len() {
            x = fold_onto(x, k, at(i));
            i += 16;
        }
        // 128 → 64 bits (appending 32 zero bits): the low half times
        // FOLD1.1 onto the high half.
        x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k, 0x10));
        // 64 → 32 bits: the low word times FOLD_64 onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k = _mm_set_epi64x(0, FOLD_64);
        x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k, 0x00),
        );
        // Barrett: q = low word · μ, then x ⊕ (low word of q) · P′.
        let k = _mm_set_epi64x(BARRETT.1, BARRETT.0);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), k, 0x10);
        let r = _mm_clmulepi64_si128(_mm_and_si128(q, low32), k, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, r), 1) as u32
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference byte-at-a-time CRC-32.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = t[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    /// One-shot CRC-32 on the chosen arm.
    fn crc32_on(data: &[u8], simd: bool) -> u32 {
        let mut c = Crc32::new();
        c.update_on(data, simd);
        c.finalize()
    }

    /// `n` pseudo-random bytes.
    fn noise(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect()
    }

    fn print_native_arm() {
        #[cfg(target_arch = "x86_64")]
        println!(
            "crc32 native arm: pclmulqdq {}, sse4.1 {}",
            std::arch::is_x86_feature_detected!("pclmulqdq"),
            std::arch::is_x86_feature_detected!("sse4.1")
        );
        #[cfg(not(target_arch = "x86_64"))]
        println!("crc32 native arm: none on this architecture");
    }

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
        // 1 MiB of `a` (zlib agrees), through every fold of the native arm.
        assert_eq!(crc32(&vec![b'a'; 1 << 20]), 0xD7CD5672);
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

    /// Every length to 1,100 at every start alignment, through each fold of
    /// the native arm (64-byte steps, 16-byte steps, the tail) and the
    /// slice-by-16 loop, against the bytewise reference.
    #[test]
    fn crc32_arms_match_bytewise_at_every_length_and_alignment() {
        print_native_arm();
        let data = noise(1100 + 16);
        for start in 0..16 {
            for len in 0..=1100 {
                let slice = &data[start..start + len];
                let want = crc32_bytewise(slice);
                assert_eq!(
                    crc32_on(slice, true),
                    want,
                    "native, start {start} len {len}"
                );
                assert_eq!(
                    crc32_on(slice, false),
                    want,
                    "scalar, start {start} len {len}"
                );
            }
        }
    }

    /// A body fed in pieces that alternate arms: each arm resumes from the
    /// state the other left, whether a fold or a table tail made it.
    #[test]
    fn crc32_arms_resume_from_each_other() {
        print_native_arm();
        let data = noise(4096);
        let want = crc32_bytewise(&data);
        for cuts in [
            &[1usize, 65, 200, 263, 1000, 1064, 3000][..],
            &[63, 64, 127, 128, 129, 2047, 4095],
            &[16, 80, 96, 160, 2000],
        ] {
            for first in [false, true] {
                let mut c = Crc32::new();
                let mut from = 0;
                for (i, &cut) in cuts.iter().chain(&[data.len()]).enumerate() {
                    c.update_on(&data[from..cut], first ^ (i % 2 == 1));
                    from = cut;
                }
                assert_eq!(c.finalize(), want, "cuts {cuts:?}, native first {first}");
            }
        }
    }

    /// A 5 MiB body, the size of the largest archives a study downloads.
    #[test]
    fn crc32_arms_agree_on_a_5_mib_body() {
        print_native_arm();
        let body = noise(5 << 20);
        assert_eq!(crc32_on(&body, true), crc32_on(&body, false));
        assert_eq!(crc32_on(&body, true), crc32_bytewise(&body));
    }

    proptest! {
        /// 0–300 bytes at any start alignment, fed in up to five pieces:
        /// the folds, the 16-byte loop and the bytewise tail all run, from
        /// any state.
        #[test]
        fn prop_matches_bytewise_at_any_alignment_and_split(
            data in proptest::collection::vec(any::<u8>(), 0..300),
            start in 0usize..16,
            splits in proptest::collection::vec(0usize..300, 0..5),
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
