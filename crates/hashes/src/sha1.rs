//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! Used for Gnutella HUGE `urn:sha1` content addressing. SHA-1 is
//! cryptographically broken for collision resistance but remains the
//! identifier format the Gnutella network defined in 2002; we implement it
//! for wire compatibility, not for security.

use crate::base32::base32_encode;

/// A finished 20-byte SHA-1 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sha1Digest(pub [u8; 20]);

impl Sha1Digest {
    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        crate::to_hex(&self.0)
    }

    /// Base32 rendering as used inside `urn:sha1:` URNs (RFC 4648 alphabet,
    /// uppercase, no padding — 20 bytes encode to exactly 32 characters).
    pub fn to_base32(&self) -> String {
        base32_encode(&self.0)
    }

    /// Full URN form, e.g. `urn:sha1:PLSTHIPQGSSZTS5FJUPAKUZWUGYQYPFB`.
    pub fn to_urn(&self) -> String {
        format!("urn:sha1:{}", self.to_base32())
    }
}

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let buf = self.buf;
                Self::compress_many(&mut self.state, &buf);
                self.buf_len = 0;
            }
        }
        // Aligned 64-byte chunks compress straight from the input slice.
        let full = data.len() - data.len() % 64;
        Self::compress_many(&mut self.state, &data[..full]);
        let rest = &data[full..];
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Compresses a run of whole 64-byte blocks, dispatching once to the
    /// SHA-NI path when the CPU has it and falling back to the portable
    /// scalar rounds otherwise. Both paths compute the identical FIPS 180-1
    /// function, so which one runs never affects any digest.
    fn compress_many(state: &mut [u32; 5], blocks: &[u8]) {
        Self::compress_on(state, blocks, true);
    }

    /// [`Sha1::compress_many`] with the SHA-NI arm allowed (`simd`, taken
    /// when the CPU has it) or not.
    fn compress_on(state: &mut [u32; 5], blocks: &[u8], simd: bool) {
        debug_assert_eq!(blocks.len() % 64, 0);
        #[cfg(target_arch = "x86_64")]
        if simd
            && std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: the sha/ssse3/sse4.1 features were detected just above.
            unsafe { ni::compress_blocks(state, blocks) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = simd;
        for chunk in blocks.chunks_exact(64) {
            let block: &[u8; 64] = chunk.try_into().expect("chunks_exact yields 64 bytes");
            Self::compress(state, block);
        }
    }

    /// Rewinds the hasher to its initial state so one allocation-free
    /// instance can digest a whole batch of messages (see [`sha1_many`]).
    pub fn reset(&mut self) {
        self.state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
        self.len = 0;
        self.buf_len = 0;
    }

    /// Produces the digest of everything fed so far and resets the hasher
    /// for the next message in the batch.
    pub fn finalize_reset(&mut self) -> Sha1Digest {
        let digest = self.clone().finalize();
        self.reset();
        digest
    }

    pub fn finalize(mut self) -> Sha1Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Pad in place: 0x80, zeros to 56 mod 64, then the 64-bit big-endian
        // *bit* length of the message (captured before padding, so the
        // padding bytes themselves are never counted).
        self.buf[self.buf_len] = 0x80;
        self.buf_len += 1;
        if self.buf_len > 56 {
            // No room for the length in this block: flush it and pad a second.
            self.buf[self.buf_len..].fill(0);
            let buf = self.buf;
            Self::compress_many(&mut self.state, &buf);
            self.buf_len = 0;
        }
        self.buf[self.buf_len..56].fill(0);
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let buf = self.buf;
        Self::compress_many(&mut self.state, &buf);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Sha1Digest(out)
    }

    /// The FIPS 180-1 compression function. Static over disjoint fields so
    /// callers can feed it `&self.buf` while mutating `self.state`, and
    /// `update` can compress borrowed input blocks without copying them.
    fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
        // 16-word rolling schedule instead of the full 80-word array: the
        // expansion only ever looks back 16 words.
        let mut w = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        // Per-stage loops keep the round bodies branch-free so they unroll;
        // the single-loop form pays a schedule branch and a stage `match`
        // every round.
        macro_rules! expand {
            ($i:expr) => {{
                let v = (w[($i + 13) & 15] ^ w[($i + 8) & 15] ^ w[($i + 2) & 15] ^ w[$i & 15])
                    .rotate_left(1);
                w[$i & 15] = v;
                v
            }};
        }
        macro_rules! round {
            ($f:expr, $k:expr, $wi:expr) => {{
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add($f)
                    .wrapping_add(e)
                    .wrapping_add($k)
                    .wrapping_add($wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }};
        }
        for &wi in &w {
            round!((b & c) | ((!b) & d), 0x5A827999, wi);
        }
        for i in 16..20 {
            round!((b & c) | ((!b) & d), 0x5A827999, expand!(i));
        }
        for i in 20..40 {
            round!(b ^ c ^ d, 0x6ED9EBA1, expand!(i));
        }
        for i in 40..60 {
            round!((b & c) | (b & d) | (c & d), 0x8F1BBCDC, expand!(i));
        }
        for i in 60..80 {
            round!(b ^ c ^ d, 0xCA62C1D6, expand!(i));
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }
}

/// Hardware SHA-1 via the x86 SHA extensions (`sha1rnds4` and friends).
///
/// Roughly 5× the scalar compression throughput, which matters because the
/// crawler SHA-1 hashes every downloaded body (gigabytes per study run) for
/// content identity. The instruction set computes the same FIPS 180-1
/// function, so digests are bit-identical to the scalar path and runtime
/// dispatch cannot perturb any simulation outcome.
#[cfg(target_arch = "x86_64")]
mod ni {
    use core::arch::x86_64::*;

    /// Compresses whole 64-byte blocks with the SHA-NI round instructions.
    ///
    /// `sha1rnds4` performs four rounds at once on the packed `{a,b,c,d}`
    /// state; `sha1nexte` folds the rotated `e` into the next round block;
    /// `sha1msg1`/`sha1msg2` run the message-schedule expansion four words
    /// at a time. The structure below is the standard 20-group ladder with
    /// the schedule pipelined three groups ahead.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports sha, ssse3 and sse4.1.
    /// `blocks.len()` must be a multiple of 64.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub unsafe fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Lane-reversal mask: the round instructions want the big-endian
        // words in descending lanes.
        let mask = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let mut abcd = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        abcd = _mm_shuffle_epi32(abcd, 0x1B);
        let mut e0 = _mm_set_epi32(state[4] as i32, 0, 0, 0);

        for block in blocks.chunks_exact(64) {
            let abcd_save = abcd;
            let e0_save = e0;
            let p = block.as_ptr() as *const __m128i;

            // Rounds 0..16: load + byte-swap the four message words while
            // the first round groups run.
            let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
            e0 = _mm_add_epi32(e0, msg0);
            let mut e1 = abcd;
            abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

            let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
            e1 = _mm_sha1nexte_epu32(e1, msg1);
            e0 = abcd;
            abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
            msg0 = _mm_sha1msg1_epu32(msg0, msg1);

            let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
            e0 = _mm_sha1nexte_epu32(e0, msg2);
            e1 = abcd;
            abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
            msg1 = _mm_sha1msg1_epu32(msg1, msg2);
            msg0 = _mm_xor_si128(msg0, msg2);

            let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);
            e1 = _mm_sha1nexte_epu32(e1, msg3);
            e0 = abcd;
            msg0 = _mm_sha1msg2_epu32(msg0, msg3);
            abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
            msg2 = _mm_sha1msg1_epu32(msg2, msg3);
            msg1 = _mm_xor_si128(msg1, msg3);

            // Rounds 16..80: the repeating four-group pattern, with the
            // stage constant selector stepping 0→3 every twenty rounds.
            e0 = _mm_sha1nexte_epu32(e0, msg0);
            e1 = abcd;
            msg1 = _mm_sha1msg2_epu32(msg1, msg0);
            abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
            msg3 = _mm_sha1msg1_epu32(msg3, msg0);
            msg2 = _mm_xor_si128(msg2, msg0);

            e1 = _mm_sha1nexte_epu32(e1, msg1);
            e0 = abcd;
            msg2 = _mm_sha1msg2_epu32(msg2, msg1);
            abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
            msg0 = _mm_sha1msg1_epu32(msg0, msg1);
            msg3 = _mm_xor_si128(msg3, msg1);

            e0 = _mm_sha1nexte_epu32(e0, msg2);
            e1 = abcd;
            msg3 = _mm_sha1msg2_epu32(msg3, msg2);
            abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
            msg1 = _mm_sha1msg1_epu32(msg1, msg2);
            msg0 = _mm_xor_si128(msg0, msg2);

            e1 = _mm_sha1nexte_epu32(e1, msg3);
            e0 = abcd;
            msg0 = _mm_sha1msg2_epu32(msg0, msg3);
            abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
            msg2 = _mm_sha1msg1_epu32(msg2, msg3);
            msg1 = _mm_xor_si128(msg1, msg3);

            e0 = _mm_sha1nexte_epu32(e0, msg0);
            e1 = abcd;
            msg1 = _mm_sha1msg2_epu32(msg1, msg0);
            abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
            msg3 = _mm_sha1msg1_epu32(msg3, msg0);
            msg2 = _mm_xor_si128(msg2, msg0);

            e1 = _mm_sha1nexte_epu32(e1, msg1);
            e0 = abcd;
            msg2 = _mm_sha1msg2_epu32(msg2, msg1);
            abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
            msg0 = _mm_sha1msg1_epu32(msg0, msg1);
            msg3 = _mm_xor_si128(msg3, msg1);

            e0 = _mm_sha1nexte_epu32(e0, msg2);
            e1 = abcd;
            msg3 = _mm_sha1msg2_epu32(msg3, msg2);
            abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
            msg1 = _mm_sha1msg1_epu32(msg1, msg2);
            msg0 = _mm_xor_si128(msg0, msg2);

            e1 = _mm_sha1nexte_epu32(e1, msg3);
            e0 = abcd;
            msg0 = _mm_sha1msg2_epu32(msg0, msg3);
            abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
            msg2 = _mm_sha1msg1_epu32(msg2, msg3);
            msg1 = _mm_xor_si128(msg1, msg3);

            e0 = _mm_sha1nexte_epu32(e0, msg0);
            e1 = abcd;
            msg1 = _mm_sha1msg2_epu32(msg1, msg0);
            abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
            msg3 = _mm_sha1msg1_epu32(msg3, msg0);
            msg2 = _mm_xor_si128(msg2, msg0);

            e1 = _mm_sha1nexte_epu32(e1, msg1);
            e0 = abcd;
            msg2 = _mm_sha1msg2_epu32(msg2, msg1);
            abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
            msg0 = _mm_sha1msg1_epu32(msg0, msg1);
            msg3 = _mm_xor_si128(msg3, msg1);

            e0 = _mm_sha1nexte_epu32(e0, msg2);
            e1 = abcd;
            msg3 = _mm_sha1msg2_epu32(msg3, msg2);
            abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
            msg1 = _mm_sha1msg1_epu32(msg1, msg2);
            msg0 = _mm_xor_si128(msg0, msg2);

            e1 = _mm_sha1nexte_epu32(e1, msg3);
            e0 = abcd;
            msg0 = _mm_sha1msg2_epu32(msg0, msg3);
            abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
            msg2 = _mm_sha1msg1_epu32(msg2, msg3);
            msg1 = _mm_xor_si128(msg1, msg3);

            e0 = _mm_sha1nexte_epu32(e0, msg0);
            e1 = abcd;
            msg1 = _mm_sha1msg2_epu32(msg1, msg0);
            abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
            msg3 = _mm_sha1msg1_epu32(msg3, msg0);
            msg2 = _mm_xor_si128(msg2, msg0);

            e1 = _mm_sha1nexte_epu32(e1, msg1);
            e0 = abcd;
            msg2 = _mm_sha1msg2_epu32(msg2, msg1);
            abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
            msg3 = _mm_xor_si128(msg3, msg1);

            e0 = _mm_sha1nexte_epu32(e0, msg2);
            e1 = abcd;
            msg3 = _mm_sha1msg2_epu32(msg3, msg2);
            abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);

            e1 = _mm_sha1nexte_epu32(e1, msg3);
            e0 = abcd;
            abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

            // Fold this block's result into the running state.
            e0 = _mm_sha1nexte_epu32(e0, e0_save);
            abcd = _mm_add_epi32(abcd, abcd_save);
        }

        abcd = _mm_shuffle_epi32(abcd, 0x1B);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, abcd);
        state[4] = _mm_extract_epi32(e0, 3) as u32;
    }
}

/// One-shot SHA-1 of `data`.
pub fn sha1(data: &[u8]) -> Sha1Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// SHA-1 of every message in a batch, reusing one hasher across the whole
/// slice so per-message setup is paid once. This is the bulk entry point the
/// batched scan service hashes accumulated download bodies through.
pub fn sha1_many<'a, I>(bodies: I) -> Vec<Sha1Digest>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut h = Sha1::new();
    bodies
        .into_iter()
        .map(|body| {
            h.update(body);
            h.finalize_reset()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn vector_empty() {
        assert_eq!(
            sha1(b"").to_hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn vector_abc() {
        assert_eq!(
            sha1(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn vector_448_bits() {
        assert_eq!(
            sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha1(&data).to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn vector_exact_block() {
        // 64-byte input exercises the no-buffer fast path plus padding block.
        let data = [0x61u8; 64];
        assert_eq!(
            sha1(&data).to_hex(),
            "0098ba824b5c16427bd7a1122a5a442a25ec644d"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 100] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha1(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Message lengths that straddle the one-vs-two padding block split
        // (buffered 55 bytes fits one block; 56..=63 forces a second).
        let expect = [
            (55usize, "ddf57317ef34bfee3b6df83d359098930eb278bc"),
            (56, "a0d492bb0fc889d0eca3bc137066ab6f4f74f369"),
            (57, "11a02dcf95859677a62e75024067c22b165d890f"),
            (63, "c55856749bef509bdfe6bfebfc7bf4e793e82132"),
            (64, "bede92be29c3874e1b54ddc77988d606fc857a8e"),
            (65, "b05a80522b053d6dc7e0a517d0e70212c7dad11f"),
            (119, "504e27376a6e0f0dba8295b85cb25dc4dfa17d23"),
            (127, "34d5e582029e9b9b85b2febe31da3db7cdabaaea"),
            (128, "a09133e6730ffe899efb70204cb5646cd5dc24ee"),
        ];
        for (n, hex) in expect {
            let data: Vec<u8> = (0..n).map(|i| ((i * 7 + 3) % 256) as u8).collect();
            assert_eq!(sha1(&data).to_hex(), hex, "length {n}");
        }
    }

    #[test]
    fn sha1_many_matches_oneshot() {
        let bodies: Vec<Vec<u8>> = (0..8usize)
            .map(|n| (0..n * 37).map(|i| (i * 11 + n) as u8).collect())
            .collect();
        let batched = sha1_many(bodies.iter().map(|b| b.as_slice()));
        for (body, digest) in bodies.iter().zip(&batched) {
            assert_eq!(*digest, sha1(body));
        }
    }

    #[test]
    fn finalize_reset_chains_messages() {
        let mut h = Sha1::new();
        h.update(b"abc");
        assert_eq!(h.finalize_reset(), sha1(b"abc"));
        h.update(b"hello world");
        assert_eq!(h.finalize_reset(), sha1(b"hello world"));
    }

    /// Both arms of `compress_many` from the same states over 0–24 blocks
    /// of noise; the vectors above pin the native arm's digests.
    #[test]
    fn sha1_arms_agree() {
        #[cfg(target_arch = "x86_64")]
        println!(
            "sha1 native arm: sha {}, ssse3 {}, sse4.1 {}",
            std::arch::is_x86_feature_detected!("sha"),
            std::arch::is_x86_feature_detected!("ssse3"),
            std::arch::is_x86_feature_detected!("sse4.1")
        );
        #[cfg(not(target_arch = "x86_64"))]
        println!("sha1 native arm: none on this architecture");
        let data: Vec<u8> = (0..64 * 24u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for blocks in 0..=24 {
            let mut native = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
            native[blocks % 5] ^= (blocks as u32).wrapping_mul(0x9E37_79B9);
            let mut scalar = native;
            Sha1::compress_on(&mut native, &data[..64 * blocks], true);
            Sha1::compress_on(&mut scalar, &data[..64 * blocks], false);
            assert_eq!(native, scalar, "{blocks} blocks");
        }
    }

    #[test]
    fn urn_format() {
        let urn = sha1(b"hello world").to_urn();
        assert!(urn.starts_with("urn:sha1:"));
        assert_eq!(urn.len(), "urn:sha1:".len() + 32);
    }
}
