//! Deterministic payload generation: the bytes behind every shared file.
//!
//! A month-long simulated study transfers far too many files to store, so
//! payloads are a pure function of `(store seed, ContentRef)`. Replicas of
//! the same content are byte-identical across hosts (as in real file
//! sharing, where a replica *is* the same file), hashes are stable, and the
//! scanner sees exactly the bytes the transfer produced.
//!
//! Shapes:
//!
//! * benign files get the correct magic bytes for their media type and a
//!   keyed pseudorandom body — the SplitMix64 stream seeded with the
//!   content key (archives are real, parseable ZIPs);
//! * malicious executables are `MZ` images with the family signature
//!   embedded at a fixed offset;
//! * `ZipOfExecutable` families are real ZIP archives holding an infected
//!   executable, built to the family's exact characteristic outer size —
//!   the scanner must traverse the archive to convict them.

use crate::catalog::{Catalog, MediaType};
use crate::family::{Container, Roster};
use crate::library::ContentRef;
use p2pmal_archive::{Method, ZipWriter};
use p2pmal_hashes::{md5, sha1, Md5Digest, Sha1Digest};
use std::collections::HashMap;
use std::sync::Mutex;

/// Offset of the embedded family signature inside a malicious executable
/// image (right after a plausible DOS header area).
const SIG_OFFSET: usize = 0x40;

/// Cached content hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPair {
    /// SHA-1 — Gnutella's HUGE `urn:sha1` addressing.
    pub sha1: Sha1Digest,
    /// MD5 — OpenFT's file addressing.
    pub md5: Md5Digest,
}

/// Generates (and hashes) file payloads on demand.
///
/// Cheap to share by reference; the internal hash cache is thread-safe so
/// parallel experiment sweeps can reuse one store.
pub struct ContentStore {
    seed: u64,
    hash_cache: Mutex<HashMap<ContentRef, HashPair>>,
}

impl ContentStore {
    pub fn new(seed: u64) -> Self {
        ContentStore {
            seed,
            hash_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The exact transfer size of `r` in bytes, without materializing the
    /// payload. Always equals `self.payload(r, ..).len()`.
    pub fn size(&self, r: ContentRef, catalog: &Catalog, roster: &Roster) -> u64 {
        match r {
            ContentRef::Benign { item, variant } => {
                catalog.item(item).variants[variant as usize].size
            }
            ContentRef::Malware { family, size_idx } => roster.get(family).sizes[size_idx as usize],
        }
    }

    /// Materializes the payload bytes for `r`.
    pub fn payload(&self, r: ContentRef, catalog: &Catalog, roster: &Roster) -> Vec<u8> {
        let mut out = Vec::new();
        self.payload_into(r, catalog, roster, &mut out);
        out
    }

    /// Appends the payload bytes for `r` to `out` — an upload generates
    /// its body behind the response head it has already written.
    pub fn payload_into(
        &self,
        r: ContentRef,
        catalog: &Catalog,
        roster: &Roster,
        out: &mut Vec<u8>,
    ) {
        self.payload_on(r, catalog, roster, out, true);
    }

    /// [`ContentStore::payload_into`] with the body stream's SIMD arm
    /// allowed or not (see [`fill_on`]); the bytes are the same.
    fn payload_on(
        &self,
        r: ContentRef,
        catalog: &Catalog,
        roster: &Roster,
        out: &mut Vec<u8>,
        simd: bool,
    ) {
        let key = self.content_key(r);
        let size = self.size(r, catalog, roster) as usize;
        // Every shape is written in place behind what `out` holds; one
        // reservation keeps the archive shapes' trailing directory from
        // moving the body.
        out.reserve(size);
        match r {
            ContentRef::Benign { item, .. } => {
                benign_payload(catalog.item(item).media, size, key, out, simd)
            }
            ContentRef::Malware { family, .. } => {
                let fam = roster.get(family);
                match fam.container {
                    Container::Executable => infected_exe(size, &fam.signature, key, out, simd),
                    Container::ZipOfExecutable => {
                        infected_zip(size, &fam.signature, key, out, simd)
                    }
                }
            }
        }
    }

    /// SHA-1 and MD5 of the payload, cached after first computation.
    pub fn hashes(&self, r: ContentRef, catalog: &Catalog, roster: &Roster) -> HashPair {
        if let Some(h) = self.hash_cache.lock().unwrap().get(&r) {
            return *h;
        }
        let data = self.payload(r, catalog, roster);
        let pair = HashPair {
            sha1: sha1(&data),
            md5: md5(&data),
        };
        self.hash_cache.lock().unwrap().insert(r, pair);
        pair
    }

    /// Convenience: the SHA-1 digest of `r`.
    pub fn sha1_of(&self, r: ContentRef, catalog: &Catalog, roster: &Roster) -> Sha1Digest {
        self.hashes(r, catalog, roster).sha1
    }

    /// Convenience: the MD5 digest of `r`.
    pub fn md5_of(&self, r: ContentRef, catalog: &Catalog, roster: &Roster) -> Md5Digest {
        self.hashes(r, catalog, roster).md5
    }

    /// Number of distinct contents hashed so far.
    pub fn cached_hashes(&self) -> usize {
        self.hash_cache.lock().unwrap().len()
    }

    /// A cheap, deterministic MD5-shaped identifier for `r`, computed over
    /// the reference (not the payload). OpenFT addresses shares by MD5; a
    /// month-scale population would have to materialize terabytes to hash
    /// real content, so share *registration* uses this surrogate while
    /// downloaded bytes are still hashed for real by the crawler. The
    /// surrogate is unique per content and stable across hosts, which is
    /// all the protocol machinery observes.
    pub fn declared_md5(&self, r: ContentRef) -> Md5Digest {
        let mut tag = [0u8; 24];
        tag[..8].copy_from_slice(&self.seed.to_le_bytes());
        let (kind, a, b) = match r {
            ContentRef::Benign { item, variant } => (1u32, item, variant as u32),
            ContentRef::Malware { family, size_idx } => (2u32, family.0 as u32, size_idx as u32),
        };
        tag[8..12].copy_from_slice(&kind.to_le_bytes());
        tag[12..16].copy_from_slice(&a.to_le_bytes());
        tag[16..20].copy_from_slice(&b.to_le_bytes());
        md5(&tag)
    }

    /// Mixes the store seed and the content reference into a stream key.
    fn content_key(&self, r: ContentRef) -> u64 {
        let field = match r {
            ContentRef::Benign { item, variant } => {
                0x1000_0000_0000_0000u64 | (item as u64) << 8 | variant as u64
            }
            ContentRef::Malware { family, size_idx } => {
                0x2000_0000_0000_0000u64 | (family.0 as u64) << 8 | size_idx as u64
            }
        };
        splitmix64(self.seed ^ field)
    }
}

/// SplitMix64's increment ("golden gamma").
const GAMMA: u64 = 0x9E3779B97F4A7C15;

/// One SplitMix64 output: the state after `x` advances by [`GAMMA`], mixed.
/// Payload bodies only need to be incompressible and collision-free, not
/// cryptographic.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Appends `len` bytes of the SplitMix64 stream seeded with `key` to `out`,
/// little-endian word by word: word `i` is `splitmix64(key + i * GAMMA)`,
/// so the words are independent of each other (a counter, not a feedback
/// chain). They are written straight into `out`'s spare capacity, so the
/// body's memory is touched once (no zero-fill first). `simd` allows the
/// AVX2 arm, taken when the CPU has it; both arms write the same bytes.
fn fill_on(out: &mut Vec<u8>, len: usize, key: u64, simd: bool) {
    out.reserve(len);
    let words = len / 8;
    #[cfg(target_arch = "x86_64")]
    let vector = if simd && std::arch::is_x86_feature_detected!("avx2") {
        let vector = words - words % avx2::WORDS_PER_STEP;
        // SAFETY: AVX2 was detected just above.
        unsafe { avx2::push_words(out, vector, key) };
        vector
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let vector = {
        let _ = simd;
        0
    };
    let mut state = key.wrapping_add(GAMMA.wrapping_mul(vector as u64));
    for _ in vector..words {
        out.extend_from_slice(&splitmix64(state).to_le_bytes());
        state = state.wrapping_add(GAMMA);
    }
    // A trailing partial word is the next word of the stream, cut.
    out.extend_from_slice(&splitmix64(state).to_le_bytes()[..len % 8]);
}

/// The body stream four 64-bit lanes to a vector, two vectors per step.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::GAMMA;
    use core::arch::x86_64::*;

    pub const WORDS_PER_STEP: usize = 8;

    /// `x · c` mod 2^64 in each lane, from three 32 × 32 → 64-bit products
    /// (AVX2 has no 64-bit multiply): lo·lo + ((hi·lo + lo·hi) << 32).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul(x: __m256i, c: u64) -> __m256i {
        let c_lo = _mm256_set1_epi64x(c as u32 as i64);
        let c_hi = _mm256_set1_epi64x((c >> 32) as i64);
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64(x, 32), c_lo),
            _mm256_mul_epu32(x, c_hi),
        );
        _mm256_add_epi64(_mm256_mul_epu32(x, c_lo), _mm256_slli_epi64(cross, 32))
    }

    /// SplitMix64's output mix, lane by lane (see [`super::splitmix64`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mix(x: __m256i) -> __m256i {
        let x = mul(
            _mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
            0xBF58476D1CE4E5B9,
        );
        let x = mul(
            _mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
            0x94D049BB133111EB,
        );
        _mm256_xor_si256(x, _mm256_srli_epi64(x, 31))
    }

    /// Appends words `0..words` of the stream seeded with `key` to `out`.
    ///
    /// # Safety
    /// The CPU must support AVX2. `words` must be a multiple of
    /// [`WORDS_PER_STEP`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn push_words(out: &mut Vec<u8>, words: usize, key: u64) {
        assert!(words.is_multiple_of(WORDS_PER_STEP));
        out.reserve(words * 8);
        let dst = out.as_mut_ptr().add(out.len()) as *mut __m256i;
        // Lane j of `a` holds the state before word j's mix, of `b` word 4 + j.
        let at = |j: u64| key.wrapping_add(GAMMA.wrapping_mul(j)) as i64;
        let mut a = _mm256_set_epi64x(at(4), at(3), at(2), at(1));
        let mut b = _mm256_set_epi64x(at(8), at(7), at(6), at(5));
        let step = _mm256_set1_epi64x(GAMMA.wrapping_mul(WORDS_PER_STEP as u64) as i64);
        for v in 0..words / WORDS_PER_STEP {
            _mm256_storeu_si256(dst.add(2 * v), mix(a));
            _mm256_storeu_si256(dst.add(2 * v + 1), mix(b));
            a = _mm256_add_epi64(a, step);
            b = _mm256_add_epi64(b, step);
        }
        // The `words * 8` bytes past the old length were reserved above and
        // have all been written.
        out.set_len(out.len() + words * 8);
    }
}

/// A benign payload: correct magic for the media type, pseudorandom body.
fn benign_payload(media: MediaType, size: usize, key: u64, out: &mut Vec<u8>, simd: bool) {
    let magic: &[u8] = match media {
        MediaType::Audio => b"ID3\x03\x00",
        MediaType::Video => b"RIFF\x00\x00\x00\x00AVI ",
        MediaType::Application => b"MZ",
        MediaType::Document => b"%PDF-1.4\n",
        MediaType::Image => &[0xFF, 0xD8, 0xFF, 0xE0],
        MediaType::Archive => return benign_zip(size, key, out, simd),
    };
    let start = out.len();
    fill_on(out, size, key, simd);
    let n = magic.len().min(size);
    out[start..start + n].copy_from_slice(&magic[..n]);
}

/// A real one-entry stored ZIP of exactly `size` bytes: the member is sized
/// to absorb the container overhead and generated where it lies in `out`.
fn benign_zip(size: usize, key: u64, out: &mut Vec<u8>, simd: bool) {
    const INNER_NAME: &str = "content.dat";
    let mut w = ZipWriter::behind(std::mem::take(out));
    let overhead = w.finished_len() + ZipWriter::member_overhead(INNER_NAME);
    assert!(
        size > overhead + SIG_OFFSET + 64,
        "target zip size {size} too small (overhead {overhead})"
    );
    w.add_stored_with(INNER_NAME, |buf| fill_on(buf, size - overhead, key, simd));
    debug_assert_eq!(w.finished_len(), size);
    *out = w.finish();
}

/// An infected `MZ` image: DOS-stub-shaped head, the family signature at
/// [`SIG_OFFSET`], pseudorandom tail.
fn infected_exe(size: usize, signature: &[u8], key: u64, out: &mut Vec<u8>, simd: bool) {
    assert!(
        size >= SIG_OFFSET + signature.len() + 16,
        "exe size {size} too small"
    );
    let start = out.len();
    fill_on(out, size, key, simd);
    let buf = &mut out[start..];
    buf[0] = b'M';
    buf[1] = b'Z';
    buf[SIG_OFFSET..SIG_OFFSET + signature.len()].copy_from_slice(signature);
}

/// An infected ZIP: real archive holding one *deflated* infected executable
/// plus a stored padding member sized so the outer archive hits exactly
/// `size` bytes.
///
/// The malicious member is deflated (fixed Huffman) so its signature bytes
/// are bit-packed and never appear verbatim in the raw archive — convicting
/// these files requires the scanner to actually traverse and inflate the
/// member, as the study's AV engine had to.
fn infected_zip(size: usize, signature: &[u8], key: u64, out: &mut Vec<u8>, simd: bool) {
    let min_exe = SIG_OFFSET + signature.len() + 16;
    let inner_len = (size / 2).clamp(min_exe, 48 * 1024);
    // Compressible body (random head, zero tail) so the writer keeps the
    // member deflated instead of falling back to stored; real executables
    // compress too.
    let mut inner = Vec::with_capacity(inner_len);
    fill_on(&mut inner, inner_len.min(4096), key, simd);
    inner.resize(inner_len, 0);
    inner[0] = b'M';
    inner[1] = b'Z';
    inner[SIG_OFFSET..SIG_OFFSET + signature.len()].copy_from_slice(signature);
    let mut w = ZipWriter::behind(std::mem::take(out));
    w.add("setup.exe", &inner, Method::Deflate);
    // The pad member (stored, so its size contribution is linear) absorbs
    // what is left of `size` once its own headers are counted.
    const PAD_NAME: &str = "readme.txt";
    let base = w.finished_len() + ZipWriter::member_overhead(PAD_NAME);
    assert!(
        size >= base,
        "target zip size {size} too small (needs {base})"
    );
    w.add_stored_with(PAD_NAME, |buf| buf.resize(buf.len() + size - base, 0));
    debug_assert_eq!(w.finished_len(), size);
    *out = w.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use crate::family::FamilyId;
    use p2pmal_scanner::{ScanConfig, Scanner};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixtures() -> (Catalog, Roster, ContentStore) {
        let mut rng = StdRng::seed_from_u64(2);
        let catalog = Catalog::generate(
            &CatalogConfig {
                titles: 120,
                ..Default::default()
            },
            &mut rng,
        );
        (
            catalog,
            Roster::limewire_2006(),
            ContentStore::new(0xC0FFEE),
        )
    }

    fn scanner(roster: &Roster) -> Scanner {
        Scanner::with_config(
            roster.signature_db().unwrap().build().unwrap(),
            ScanConfig::default(),
        )
    }

    #[test]
    fn payload_length_matches_size_for_all_shapes() {
        let (catalog, roster, store) = fixtures();
        let mut refs = vec![
            ContentRef::Benign {
                item: 0,
                variant: 0,
            },
            ContentRef::Malware {
                family: FamilyId(0),
                size_idx: 0,
            },
            ContentRef::Malware {
                family: FamilyId(1),
                size_idx: 1,
            },
            ContentRef::Malware {
                family: FamilyId(2),
                size_idx: 0,
            }, // zip container
        ];
        // Add one benign ref per media type that we can afford to build.
        for it in catalog.items() {
            if it.media != MediaType::Video && it.variants[0].size < 4_000_000 {
                refs.push(ContentRef::Benign {
                    item: it.id,
                    variant: 0,
                });
            }
            if refs.len() > 24 {
                break;
            }
        }
        for r in refs {
            let want = store.size(r, &catalog, &roster);
            let got = store.payload(r, &catalog, &roster).len() as u64;
            assert_eq!(want, got, "{r:?}");
        }
    }

    fn print_native_arm() {
        #[cfg(target_arch = "x86_64")]
        println!(
            "payload fill native arm: avx2 {}",
            std::arch::is_x86_feature_detected!("avx2")
        );
        #[cfg(not(target_arch = "x86_64"))]
        println!("payload fill native arm: none on this architecture");
    }

    /// The bytes themselves, pinned: every SHA-1 a study logs hangs on
    /// them, so a change to payload generation or to the ZIP writer under
    /// it must show up here and not only as a moved trajectory digest.
    /// Recorded when the body stream became the counter-mode SplitMix64
    /// stream; writing archives in place had left the earlier pins alone.
    /// Both arms of the body stream write every pinned byte.
    #[test]
    fn payload_bytes_are_pinned_for_every_shape() {
        print_native_arm();
        let (catalog, roster, store) = fixtures();
        let benign = |item| ContentRef::Benign { item, variant: 0 };
        let malware = |family| ContentRef::Malware {
            family: FamilyId(family),
            size_idx: 0,
        };
        // One ref per shape: plain benign, benign zip, infected exe,
        // infected zip.
        assert_ne!(catalog.item(0).media, MediaType::Archive);
        assert_eq!(catalog.item(5).media, MediaType::Archive);
        assert_eq!(roster.get(FamilyId(0)).container, Container::Executable);
        assert_eq!(
            roster.get(FamilyId(2)).container,
            Container::ZipOfExecutable
        );
        let pins = [
            (benign(0), "f858da132ec890aa1a9821d9a4dd35a9c4d3bb00"),
            (benign(5), "0c4c375b9fd65533dfd8864bcedeadcdf8147c28"),
            (malware(0), "ffb55123131f47aa03026fe12d4774fbe0f48752"),
            (malware(2), "e0a2559038410eda53310c2afaa590e26baed0e5"),
        ];
        for (r, want) in pins {
            for simd in [true, false] {
                let mut body = Vec::new();
                store.payload_on(r, &catalog, &roster, &mut body, simd);
                assert_eq!(sha1(&body).to_hex(), want, "{r:?}, simd {simd}");
                // The same bytes behind whatever the buffer already holds.
                let mut upload = b"head".to_vec();
                store.payload_on(r, &catalog, &roster, &mut upload, simd);
                let (head, body) = upload.split_at(4);
                assert_eq!((head, sha1(body).to_hex().as_str()), (&b"head"[..], want));
            }
            assert_eq!(sha1(&store.payload(r, &catalog, &roster)).to_hex(), want);
        }
    }

    #[test]
    fn payloads_are_deterministic_and_replica_identical() {
        let (catalog, roster, store) = fixtures();
        let other = ContentStore::new(0xC0FFEE);
        let r = ContentRef::Malware {
            family: FamilyId(0),
            size_idx: 0,
        };
        assert_eq!(
            store.payload(r, &catalog, &roster),
            other.payload(r, &catalog, &roster)
        );
        // Different seed => different bytes (same size).
        let third = ContentStore::new(1);
        assert_ne!(
            store.payload(r, &catalog, &roster),
            third.payload(r, &catalog, &roster)
        );
    }

    #[test]
    fn scanner_convicts_every_family_payload() {
        let (catalog, roster, store) = fixtures();
        let sc = scanner(&roster);
        for fam in roster.families() {
            for (i, _) in fam.sizes.iter().enumerate() {
                let r = ContentRef::Malware {
                    family: fam.id,
                    size_idx: i as u8,
                };
                let data = store.payload(r, &catalog, &roster);
                let v = sc.scan("sample.bin", &data);
                assert_eq!(
                    v.primary(),
                    Some(fam.name.as_str()),
                    "{} size {i}",
                    fam.name
                );
            }
        }
    }

    #[test]
    fn zip_container_requires_archive_traversal() {
        let (catalog, roster, store) = fixtures();
        let bagle = roster.by_name("W32.Bagle.DL").unwrap();
        assert_eq!(bagle.container, Container::ZipOfExecutable);
        let r = ContentRef::Malware {
            family: bagle.id,
            size_idx: 0,
        };
        let data = store.payload(r, &catalog, &roster);
        assert_eq!(&data[..2], b"PK", "outer container is a real zip");
        let v = scanner(&roster).scan("pack.zip", &data);
        assert_eq!(v.primary(), Some(bagle.name.as_str()));
        assert!(
            v.detections[0].location.contains("setup.exe"),
            "detection should point into the archive: {:?}",
            v.detections[0].location
        );
    }

    #[test]
    fn benign_payloads_scan_clean() {
        let (catalog, roster, store) = fixtures();
        let sc = scanner(&roster);
        let mut checked = 0;
        for it in catalog.items() {
            if it.media == MediaType::Video || it.variants[0].size > 2_000_000 {
                continue;
            }
            let r = ContentRef::Benign {
                item: it.id,
                variant: 0,
            };
            let data = store.payload(r, &catalog, &roster);
            assert!(
                !sc.scan(&it.variants[0].name, &data).infected(),
                "{}",
                it.variants[0].name
            );
            checked += 1;
            if checked >= 20 {
                break;
            }
        }
        assert!(checked > 5);
    }

    #[test]
    fn benign_magic_bytes_match_media() {
        let (catalog, roster, store) = fixtures();
        for it in catalog.items().iter().take(60) {
            if it.media == MediaType::Video || it.variants[0].size > 2_000_000 {
                continue;
            }
            let data = store.payload(
                ContentRef::Benign {
                    item: it.id,
                    variant: 0,
                },
                &catalog,
                &roster,
            );
            match it.media {
                MediaType::Audio => assert_eq!(&data[..3], b"ID3"),
                MediaType::Application => assert_eq!(&data[..2], b"MZ"),
                MediaType::Archive => assert_eq!(&data[..2], b"PK"),
                MediaType::Document => assert_eq!(&data[..4], b"%PDF"),
                MediaType::Image => assert_eq!(&data[..2], &[0xFF, 0xD8]),
                MediaType::Video => unreachable!(),
            }
        }
    }

    #[test]
    fn hashes_are_cached_and_stable() {
        let (catalog, roster, store) = fixtures();
        let r = ContentRef::Malware {
            family: FamilyId(0),
            size_idx: 0,
        };
        let a = store.hashes(r, &catalog, &roster);
        assert_eq!(store.cached_hashes(), 1);
        let b = store.hashes(r, &catalog, &roster);
        assert_eq!(a, b);
        assert_eq!(store.cached_hashes(), 1);
        let data = store.payload(r, &catalog, &roster);
        assert_eq!(a.sha1, p2pmal_hashes::sha1(&data));
        assert_eq!(a.md5, p2pmal_hashes::md5(&data));
    }

    /// The published SplitMix64 test vector: the body stream is that
    /// generator, not a variant of it — on both arms, at every length to
    /// 41 words (partial words, a vector step and the scalar words after
    /// it) and behind a head.
    #[test]
    fn fill_is_the_reference_splitmix64_stream() {
        print_native_arm();
        const KEY: u64 = 1234567;
        let reference: Vec<u8> = (0..41u64)
            .flat_map(|i| splitmix64(KEY.wrapping_add(GAMMA.wrapping_mul(i))).to_le_bytes())
            .collect();
        let published: [u64; 5] = [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for (word, want) in reference.chunks_exact(8).zip(published) {
            assert_eq!(u64::from_le_bytes(word.try_into().unwrap()), want);
        }
        for simd in [false, true] {
            for len in 0..=reference.len() {
                let mut out = b"head".to_vec();
                fill_on(&mut out, len, KEY, simd);
                assert_eq!(out[..4], b"head"[..]);
                assert_eq!(out[4..], reference[..len], "len {len}, simd {simd}");
            }
        }
    }

    /// A 5 MiB body: both arms write the same bytes all the way through.
    #[test]
    fn fill_arms_agree_on_a_5_mib_body() {
        print_native_arm();
        let (mut native, mut scalar) = (Vec::new(), Vec::new());
        fill_on(&mut native, (5 << 20) + 5, 0xC0FFEE, true);
        fill_on(&mut scalar, (5 << 20) + 5, 0xC0FFEE, false);
        assert!(native == scalar);
    }
}
