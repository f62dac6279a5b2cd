//! Aho–Corasick multi-pattern string matching.
//!
//! Dense goto tables (256 transitions per state) keep the match loop at one
//! array index per input byte, which is what makes scanning megabytes of
//! downloads against hundreds of signatures cheap. Memory is bounded by the
//! total length of the indexed patterns, which for a signature database is
//! small.

/// A compiled Aho–Corasick automaton over byte patterns.
pub struct AhoCorasick {
    /// `goto_[state * 256 + byte]` = next state.
    goto_: Vec<u32>,
    /// Pattern indices that end at each state (after fail-link merging).
    output: Vec<Vec<u32>>,
    patterns: Vec<Vec<u8>>,
    /// First-byte prefilter: `start[b]` is true iff byte `b` leaves the root
    /// state. While the automaton sits at the root (the overwhelmingly common
    /// state on clean data), the scan loop skips runs of non-starting bytes
    /// instead of walking the cache-hostile dense goto row: sixteen at a time
    /// through `shufti` on SSSE3 CPUs, one at a time through this table
    /// elsewhere.
    start: [bool; 256],
    #[cfg(target_arch = "x86_64")]
    shufti: ShuftiPrefilter,
}

/// One shufti classifier: a byte set approximated by two nibble-indexed
/// shuffle tables. Set members are grouped by high nibble into up to eight
/// one-hot buckets; a byte is *classified in* when its low-nibble bucket
/// mask intersects its high-nibble bucket mask. With more than eight
/// high-nibble groups, buckets are shared and the classification
/// over-approximates (never under-approximates), so callers confirm
/// candidates against an exact table.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
struct ShuftiTables {
    /// `lo_buckets[b & 15]`: buckets containing a set byte with that
    /// low nibble.
    lo_buckets: [u8; 16],
    /// `hi_buckets[b >> 4]`: bucket assigned to that high-nibble group.
    hi_buckets: [u8; 16],
}

#[cfg(target_arch = "x86_64")]
impl ShuftiTables {
    fn new(set: &[bool; 256]) -> Self {
        let mut lo_buckets = [0u8; 16];
        let mut hi_buckets = [0u8; 16];
        let mut group_bit = [0u8; 16];
        let mut groups = 0u32;
        for (b, &wanted) in set.iter().enumerate() {
            if !wanted {
                continue;
            }
            let (hi, lo) = (b >> 4, b & 15);
            if group_bit[hi] == 0 {
                group_bit[hi] = 1u8 << (groups % 8);
                groups += 1;
            }
            hi_buckets[hi] |= group_bit[hi];
            lo_buckets[lo] |= group_bit[hi];
        }
        ShuftiTables {
            lo_buckets,
            hi_buckets,
        }
    }
}

/// Hyperscan-style "shufti" skip loop: classifies 16 haystack bytes per step
/// with nibble-indexed shuffle lookups, whatever the size of the start set
/// (the hash-derived signature sets have 8–10 distinct start bytes). When every
/// pattern is at least two bytes long it runs in *double* mode, requiring a
/// start-set byte immediately followed by a second-position byte: on random
/// data that cuts candidate density quadratically (≈0.15% instead of ≈4%
/// for a 10-byte set), which keeps the scan inside the vector loop instead
/// of bouncing through root-state automaton entries.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
struct ShuftiPrefilter {
    first: ShuftiTables,
    /// Classifier for the byte *after* a candidate start byte; `None` when
    /// some pattern is a single byte (pair filtering would lose matches).
    second: Option<ShuftiTables>,
}

#[cfg(target_arch = "x86_64")]
impl ShuftiPrefilter {
    fn new(start: &[bool; 256], patterns: &[Vec<u8>]) -> Self {
        // Pair mode is sound only if every match begins with two bytes:
        // a match starting at p implies hay[p] ∈ start AND hay[p+1] ∈
        // second, so skipping positions failing the pair test cannot skip
        // a match start. A 1-byte pattern breaks that implication.
        let second = if patterns.iter().all(|p| p.len() >= 2) {
            let mut set = [false; 256];
            for p in patterns {
                set[p[1] as usize] = true;
            }
            Some(ShuftiTables::new(&set))
        } else {
            None
        };
        ShuftiPrefilter {
            first: ShuftiTables::new(start),
            second,
        }
    }

    /// Offset of the first viable match start in `hay`: a byte in the exact
    /// `start` set (single mode), additionally followed by a second-set
    /// candidate byte (double mode). Either way the result is a position
    /// the root-state automaton walk must inspect; positions skipped are
    /// exactly those that cannot begin a match.
    ///
    /// # Safety
    /// The CPU must support SSSE3.
    #[target_feature(enable = "ssse3")]
    unsafe fn find_ssse3(&self, hay: &[u8], start: &[bool; 256]) -> Option<usize> {
        use core::arch::x86_64::*;
        let nibble = _mm_set1_epi8(0x0f);
        let zero = _mm_setzero_si128();
        let classify = |tbl: &ShuftiTables, data: __m128i| -> u32 {
            let lo_tbl = _mm_loadu_si128(tbl.lo_buckets.as_ptr() as *const __m128i);
            let hi_tbl = _mm_loadu_si128(tbl.hi_buckets.as_ptr() as *const __m128i);
            let lo = _mm_and_si128(data, nibble);
            // Per-byte high nibble: the 16-bit shift bleeds bits across the
            // byte boundary, but the nibble mask discards exactly those.
            let hi = _mm_and_si128(_mm_srli_epi16(data, 4), nibble);
            let class = _mm_and_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi));
            !(_mm_movemask_epi8(_mm_cmpeq_epi8(class, zero)) as u32) & 0xffff
        };
        let mut i = 0usize;
        if let Some(second) = &self.second {
            // Double mode: lane j is a candidate iff hay[i+j] classifies
            // into the start set and hay[i+j+1] into the second set. The
            // +1-shifted load needs one lookahead byte past the chunk.
            while i + 17 <= hay.len() {
                let d0 = _mm_loadu_si128(hay.as_ptr().add(i) as *const __m128i);
                let d1 = _mm_loadu_si128(hay.as_ptr().add(i + 1) as *const __m128i);
                let mut cand = classify(&self.first, d0) & classify(second, d1);
                while cand != 0 {
                    let off = i + cand.trailing_zeros() as usize;
                    if start[hay[off] as usize] {
                        return Some(off);
                    }
                    cand &= cand - 1;
                }
                i += 16;
            }
        } else {
            while i + 16 <= hay.len() {
                let data = _mm_loadu_si128(hay.as_ptr().add(i) as *const __m128i);
                let mut cand = classify(&self.first, data);
                while cand != 0 {
                    let off = i + cand.trailing_zeros() as usize;
                    if start[hay[off] as usize] {
                        return Some(off);
                    }
                    cand &= cand - 1;
                }
                i += 16;
            }
        }
        // Scalar tail (and the final pair-spanning positions in double
        // mode): exact start-set walk, conservatively ignoring the pair
        // test — a false candidate costs one harmless root transition.
        hay[i..]
            .iter()
            .position(|&b| start[b as usize])
            .map(|p| i + p)
    }
}

/// A single match: which pattern, and the byte offset just past its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcMatch {
    pub pattern: usize,
    pub end: usize,
}

impl AhoCorasick {
    /// Builds the automaton. Empty patterns are rejected by debug assertion
    /// and never match in release builds.
    pub fn new(patterns: Vec<Vec<u8>>) -> Self {
        debug_assert!(patterns.iter().all(|p| !p.is_empty()), "empty pattern");
        // Trie construction with dense rows.
        let mut goto_: Vec<u32> = vec![0; 256]; // state 0 = root
        let mut output: Vec<Vec<u32>> = vec![Vec::new()];
        let mut states = 1u32;
        for (pi, pat) in patterns.iter().enumerate() {
            let mut s = 0u32;
            for &b in pat {
                let slot = s as usize * 256 + b as usize;
                if goto_[slot] == 0 {
                    goto_.extend(std::iter::repeat_n(0, 256));
                    output.push(Vec::new());
                    goto_[slot] = states;
                    states += 1;
                }
                s = goto_[slot];
            }
            output[s as usize].push(pi as u32);
        }
        // BFS to compute fail links and convert to a full DFA.
        let mut fail = vec![0u32; states as usize];
        let mut queue = std::collections::VecDeque::new();
        for &s in &goto_[..256] {
            if s != 0 {
                fail[s as usize] = 0;
                queue.push_back(s);
            }
        }
        while let Some(s) = queue.pop_front() {
            for b in 0..256usize {
                let t = goto_[s as usize * 256 + b];
                if t != 0 {
                    queue.push_back(t);
                    let f = goto_[fail[s as usize] as usize * 256 + b];
                    fail[t as usize] = f;
                    // Merge outputs along the fail chain once, here.
                    let merged: Vec<u32> = output[f as usize].clone();
                    output[t as usize].extend(merged);
                } else {
                    // DFA conversion: missing transition follows fail link.
                    goto_[s as usize * 256 + b] = goto_[fail[s as usize] as usize * 256 + b];
                }
            }
        }
        let mut start = [false; 256];
        for (b, flag) in start.iter_mut().enumerate() {
            *flag = goto_[b] != 0;
        }
        AhoCorasick {
            goto_,
            output,
            #[cfg(target_arch = "x86_64")]
            shufti: ShuftiPrefilter::new(&start, &patterns),
            patterns,
            start,
        }
    }

    /// Number of distinct bytes that leave the root state (the prefilter's
    /// start set).
    pub fn start_byte_count(&self) -> usize {
        self.start.iter().filter(|&&b| b).count()
    }

    /// Number of indexed patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// The bytes of pattern `i`.
    pub fn pattern(&self, i: usize) -> &[u8] {
        &self.patterns[i]
    }

    /// Finds all matches (including overlapping ones) in `haystack`,
    /// invoking `f(match)` for each. Returning `false` from `f` stops the
    /// search early.
    ///
    /// Uses the first-byte prefilter: bytes that cannot leave the root state
    /// are skipped in a tight loop. That is exactly equivalent to stepping
    /// the DFA (a non-starting byte maps the root to itself and the root
    /// emits nothing), but clean data never touches the goto table.
    pub fn find_each<F: FnMut(AcMatch) -> bool>(&self, haystack: &[u8], f: F) {
        self.find_each_on(haystack, f, true);
    }

    /// [`AhoCorasick::find_each`] with the SSSE3 skip loop allowed (`simd`,
    /// taken when the CPU has it) or not. Both arms report the same matches
    /// in the same order.
    fn find_each_on<F: FnMut(AcMatch) -> bool>(&self, haystack: &[u8], mut f: F, simd: bool) {
        let mut s = 0u32;
        let mut i = 0usize;
        while i < haystack.len() {
            if s == 0 {
                match self.skip(&haystack[i..], simd) {
                    Some(off) => i += off,
                    None => return,
                }
            }
            s = self.goto_[s as usize * 256 + haystack[i] as usize];
            let out = &self.output[s as usize];
            if !out.is_empty() {
                for &pi in out {
                    if !f(AcMatch {
                        pattern: pi as usize,
                        end: i + 1,
                    }) {
                        return;
                    }
                }
            }
            i += 1;
        }
    }

    /// Offset of the first byte in `hay` that may begin a match, by shufti
    /// when `simd` allows it and the CPU has SSSE3, by the table otherwise.
    #[inline]
    fn skip(&self, hay: &[u8], simd: bool) -> Option<usize> {
        #[cfg(target_arch = "x86_64")]
        if simd && std::arch::is_x86_feature_detected!("ssse3") {
            // SAFETY: SSSE3 was detected just above.
            return unsafe { self.shufti.find_ssse3(hay, &self.start) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = simd;
        hay.iter().position(|&b| self.start[b as usize])
    }

    /// Collects all matches.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<AcMatch> {
        let mut out = Vec::new();
        self.find_each(haystack, |m| {
            out.push(m);
            true
        });
        out
    }

    /// True if any pattern occurs in `haystack`.
    pub fn any_match(&self, haystack: &[u8]) -> bool {
        let mut hit = false;
        self.find_each(haystack, |_| {
            hit = true;
            false
        });
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pats(ps: &[&[u8]]) -> AhoCorasick {
        AhoCorasick::new(ps.iter().map(|p| p.to_vec()).collect())
    }

    #[test]
    fn classic_he_she_his_hers() {
        let ac = pats(&[b"he", b"she", b"his", b"hers"]);
        let ms = ac.find_all(b"ushers");
        // "she" ends at 4, "he" ends at 4, "hers" ends at 6.
        let got: Vec<(usize, usize)> = ms.iter().map(|m| (m.pattern, m.end)).collect();
        assert!(got.contains(&(1, 4)), "she: {got:?}");
        assert!(got.contains(&(0, 4)), "he: {got:?}");
        assert!(got.contains(&(3, 6)), "hers: {got:?}");
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn no_match() {
        let ac = pats(&[b"virus", b"trojan"]);
        assert!(ac.find_all(b"perfectly clean data").is_empty());
        assert!(!ac.any_match(b"nothing here"));
    }

    #[test]
    fn match_at_start_and_end() {
        let ac = pats(&[b"abc"]);
        assert_eq!(ac.find_all(b"abc").len(), 1);
        assert_eq!(ac.find_all(b"abcxxabc").len(), 2);
    }

    #[test]
    fn overlapping_occurrences() {
        let ac = pats(&[b"aa"]);
        assert_eq!(ac.find_all(b"aaaa").len(), 3);
    }

    #[test]
    fn duplicate_patterns_both_reported() {
        let ac = pats(&[b"xy", b"xy"]);
        let ms = ac.find_all(b"xy");
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn binary_patterns() {
        let ac = pats(&[&[0x00, 0xff, 0x00], &[0xde, 0xad]]);
        let hay = [0x01, 0x00, 0xff, 0x00, 0xde, 0xad, 0x00];
        let ms = ac.find_all(&hay);
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn early_stop() {
        let ac = pats(&[b"a"]);
        let mut count = 0;
        ac.find_each(b"aaaaaa", |_| {
            count += 1;
            count < 3
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn prefix_patterns() {
        let ac = pats(&[b"abcd", b"ab", b"abcdef"]);
        let ms = ac.find_all(b"abcdef");
        let got: Vec<(usize, usize)> = ms.iter().map(|m| (m.pattern, m.end)).collect();
        assert!(got.contains(&(1, 2)));
        assert!(got.contains(&(0, 4)));
        assert!(got.contains(&(2, 6)));
    }

    /// Every match on one arm of the root skip loop.
    fn find_all_on(ac: &AhoCorasick, hay: &[u8], simd: bool) -> Vec<AcMatch> {
        let mut out = Vec::new();
        ac.find_each_on(
            hay,
            |m| {
                out.push(m);
                true
            },
            simd,
        );
        out
    }

    /// The reference for both arms: one dense-DFA transition per input
    /// byte, no prefilter.
    fn find_all_unfiltered(ac: &AhoCorasick, hay: &[u8]) -> Vec<AcMatch> {
        let mut out = Vec::new();
        let mut s = 0u32;
        for (i, &b) in hay.iter().enumerate() {
            s = ac.goto_[s as usize * 256 + b as usize];
            for &pi in &ac.output[s as usize] {
                out.push(AcMatch {
                    pattern: pi as usize,
                    end: i + 1,
                });
            }
        }
        out
    }

    /// Both arms against the unfiltered walk, and the matches they found.
    fn arms_agree(ac: &AhoCorasick, hay: &[u8]) -> Vec<AcMatch> {
        let want = find_all_unfiltered(ac, hay);
        assert_eq!(find_all_on(ac, hay, true), want, "native arm");
        assert_eq!(find_all_on(ac, hay, false), want, "table arm");
        want
    }

    /// Hits at every alignment within and past the 16-byte shufti chunks,
    /// including the scalar tail, on both arms: ten hash-like start bytes
    /// (the roster shape, pair mode), one single-byte pattern (single
    /// mode), and three start bytes of which the first is a false start.
    #[test]
    fn prefilter_arms_find_matches_at_all_offsets() {
        #[cfg(target_arch = "x86_64")]
        println!(
            "prefilter native arm: ssse3 {}",
            std::arch::is_x86_feature_detected!("ssse3")
        );
        #[cfg(not(target_arch = "x86_64"))]
        println!("prefilter native arm: none on this architecture");
        let patterns: Vec<Vec<u8>> = (0u8..10)
            .map(|b| vec![b.wrapping_mul(27) ^ 0x91, b])
            .collect();
        let wide = AhoCorasick::new(patterns.clone());
        let single = pats(&[b"q"]);
        for offset in 0..40usize {
            let mut hay = vec![0xEEu8; offset];
            hay.extend_from_slice(&patterns[7]);
            hay.extend(std::iter::repeat_n(0xEEu8, 5));
            let want = AcMatch {
                pattern: 7,
                end: offset + 2,
            };
            assert_eq!(arms_agree(&wide, &hay), [want], "offset {offset}");
            let mut hay = vec![b'.'; offset];
            hay.extend_from_slice(b"q...");
            let want = AcMatch {
                pattern: 0,
                end: offset + 1,
            };
            assert_eq!(arms_agree(&single, &hay), [want], "offset {offset}");
        }
        assert!(arms_agree(&wide, &[0xEEu8; 100]).is_empty());
        assert!(arms_agree(&single, &[b'.'; 100]).is_empty());
        // Only "bz" and "az" complete; the skip must not pass the earlier
        // 'c' in a way that loses the later matches.
        let three = pats(&[b"az", b"bz", b"cz"]);
        let got: Vec<(usize, usize)> = arms_agree(&three, b"........c.....bz...az....")
            .iter()
            .map(|m| (m.pattern, m.end))
            .collect();
        assert_eq!(got, vec![(1, 16), (0, 21)]);
    }

    #[test]
    fn shufti_bucket_sharing_stays_exact() {
        // 16 distinct high nibbles force bucket sharing (only 8 one-hot
        // bits), so the classifier over-approximates and must fall back on
        // the exact start-table confirm. Plant bytes that collide in the
        // shared buckets: for start byte 0x01 and 0x91 (likely same bucket
        // parity), the byte 0x11 is a classic cross product false positive.
        let patterns: Vec<Vec<u8>> = (0u8..16).map(|hi| vec![(hi << 4) | 1, 0xAB]).collect();
        let ac = AhoCorasick::new(patterns);
        assert_eq!(ac.start_byte_count(), 16);
        let mut hay = vec![0u8; 64];
        // Fill with bytes whose low nibble is 1 but that are NOT start
        // bytes... every (hi<<4)|1 IS a start byte here, so use low nibble 2.
        for (i, b) in hay.iter_mut().enumerate() {
            *b = ((i as u8) << 4) | 2;
        }
        assert!(arms_agree(&ac, &hay).is_empty());
        hay[37] = 0x51;
        hay[38] = 0xAB;
        assert_eq!(
            arms_agree(&ac, &hay),
            [AcMatch {
                pattern: 5,
                end: 39
            }]
        );
    }

    /// Reference implementation for the property test.
    fn naive_find_all(patterns: &[Vec<u8>], hay: &[u8]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (pi, p) in patterns.iter().enumerate() {
            if p.is_empty() {
                continue;
            }
            for start in 0..hay.len().saturating_sub(p.len() - 1) {
                if &hay[start..start + p.len()] == p.as_slice() {
                    out.push((pi, start + p.len()));
                }
            }
        }
        out.sort();
        out
    }

    proptest! {
        #[test]
        fn matches_naive(
            patterns in proptest::collection::vec(
                proptest::collection::vec(0u8..4, 1..6), 1..8),
            hay in proptest::collection::vec(0u8..4, 0..200)
        ) {
            let ac = AhoCorasick::new(patterns.clone());
            let mut got: Vec<(usize, usize)> =
                ac.find_all(&hay).iter().map(|m| (m.pattern, m.end)).collect();
            got.sort();
            prop_assert_eq!(got, naive_find_all(&patterns, &hay));
        }

        /// Both arms of the root skip must report the identical match
        /// stream (same matches, same order) as the plain dense-DFA walk.
        /// The wider byte alphabet here leaves most haystack bytes outside
        /// the start set so the skip loop actually engages.
        #[test]
        fn prefilter_arms_equal_unfiltered(
            patterns in proptest::collection::vec(
                proptest::collection::vec(0u8..16, 1..6), 1..10),
            hay in proptest::collection::vec(any::<u8>(), 0..400)
        ) {
            arms_agree(&AhoCorasick::new(patterns), &hay);
        }

        /// The same on start sets of one or two bytes, with patterns of
        /// one byte (single mode) and longer (pair mode). Both start bytes
        /// have a nibble ≥ 8, so a classifier that drops a nibble bit
        /// misses them.
        #[test]
        fn prefilter_arms_equal_unfiltered_on_small_start_sets(
            patterns in proptest::collection::vec(
                (0u8..2, proptest::collection::vec(any::<u8>(), 0..5))
                    .prop_map(|(first, rest)| {
                        let mut p = vec![[0x6A, 0xC9][first as usize]];
                        p.extend(rest);
                        p
                    }),
                1..8),
            hay in proptest::collection::vec(any::<u8>(), 0..400)
        ) {
            arms_agree(&AhoCorasick::new(patterns), &hay);
        }
    }
}
