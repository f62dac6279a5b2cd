//! The size-based filter — the paper's actionable insight.
//!
//! P2P malware of the era served byte-identical replicas, so each family
//! exhibits a tiny set of exact transfer sizes while benign content (rips,
//! encodings, bundles) is size-diverse. Blocking the most commonly seen
//! sizes of the most popular malware therefore kills almost all malicious
//! responses at near-zero false-positive cost.

use crate::ResponseFilter;
use p2pmal_crawler::ResolvedResponse;
use std::collections::{BTreeSet, HashMap};

/// A filter blocking responses whose exact size (optionally ± a tolerance)
/// appears on the blocklist.
#[derive(Debug, Clone)]
pub struct SizeFilter {
    /// Sorted blocked sizes (exact bytes).
    blocked: BTreeSet<u64>,
    /// Symmetric tolerance in bytes (0 = exact match).
    tolerance: u64,
    name: String,
}

impl SizeFilter {
    /// Builds a filter from explicit sizes.
    pub fn from_sizes(sizes: impl IntoIterator<Item = u64>) -> Self {
        SizeFilter {
            blocked: sizes.into_iter().collect(),
            tolerance: 0,
            name: "size-based".to_string(),
        }
    }

    /// Learns the blocklist from a training log: rank malware by malicious
    /// response volume, take the `top_families` most popular, and block
    /// each one's `sizes_per_family` most commonly seen sizes.
    pub fn learn(
        training: &[ResolvedResponse],
        top_families: usize,
        sizes_per_family: usize,
    ) -> Self {
        // malicious responses per family, and per (family, size)
        let mut family_counts: HashMap<&str, u64> = HashMap::new();
        let mut size_counts: HashMap<(&str, u64), u64> = HashMap::new();
        for r in training {
            if let Some(fam) = r.malware.as_deref() {
                *family_counts.entry(fam).or_insert(0) += 1;
                *size_counts
                    .entry((fam, u64::from(r.record.size)))
                    .or_insert(0) += 1;
            }
        }
        let mut families: Vec<(&str, u64)> = family_counts.into_iter().collect();
        families.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let mut blocked = BTreeSet::new();
        for (fam, _) in families.into_iter().take(top_families) {
            let mut sizes: Vec<(u64, u64)> = size_counts
                .iter()
                .filter(|((f, _), _)| *f == fam)
                .map(|((_, s), c)| (*s, *c))
                .collect();
            sizes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (s, _) in sizes.into_iter().take(sizes_per_family) {
                blocked.insert(s);
            }
        }
        SizeFilter {
            blocked,
            tolerance: 0,
            name: "size-based".to_string(),
        }
    }

    /// Switches to tolerant matching: block sizes within `bytes` of a
    /// blocklist entry. Trades false positives for robustness against
    /// padding variants.
    pub fn with_tolerance(mut self, bytes: u64) -> Self {
        self.tolerance = bytes;
        self.name = format!("size-based ±{bytes}B");
        self
    }

    /// The current blocklist.
    pub fn blocked_sizes(&self) -> Vec<u64> {
        self.blocked.iter().copied().collect()
    }

    /// Is `size` blocked?
    pub fn blocks_size(&self, size: u64) -> bool {
        if self.tolerance == 0 {
            return self.blocked.contains(&size);
        }
        let lo = size.saturating_sub(self.tolerance);
        let hi = size.saturating_add(self.tolerance);
        self.blocked.range(lo..=hi).next().is_some()
    }
}

impl ResponseFilter for SizeFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn blocks(&self, r: &ResolvedResponse) -> bool {
        r.record.downloadable && self.blocks_size(u64::from(r.record.size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::test_support::resp;

    #[test]
    fn exact_matching() {
        let f = SizeFilter::from_sizes([100, 200]);
        assert!(f.blocks_size(100));
        assert!(!f.blocks_size(101));
        assert_eq!(f.blocked_sizes(), vec![100, 200]);
    }

    #[test]
    fn tolerant_matching() {
        let f = SizeFilter::from_sizes([1000]).with_tolerance(8);
        assert!(f.blocks_size(1000));
        assert!(f.blocks_size(992));
        assert!(f.blocks_size(1008));
        assert!(!f.blocks_size(991));
        assert!(!f.blocks_size(1009));
    }

    #[test]
    fn learn_picks_top_families_and_their_common_sizes() {
        let mut train = Vec::new();
        // Family A: very popular, mostly size 100, sometimes 101.
        for _ in 0..30 {
            train.push(resp("q", "a.exe", 100, Some("W32.A")));
        }
        for _ in 0..5 {
            train.push(resp("q", "a.exe", 101, Some("W32.A")));
        }
        // Family B: less popular, size 200.
        for _ in 0..10 {
            train.push(resp("q", "b.exe", 200, Some("W32.B")));
        }
        // Family C: rare, size 300.
        train.push(resp("q", "c.exe", 300, Some("W32.C")));
        // Benign noise.
        for s in [5000, 6000] {
            train.push(resp("q", "ok.exe", s, None));
        }

        let f = SizeFilter::learn(&train, 2, 1);
        assert_eq!(
            f.blocked_sizes(),
            vec![100, 200],
            "top-2 families, 1 size each"
        );
        let f = SizeFilter::learn(&train, 2, 2);
        assert_eq!(f.blocked_sizes(), vec![100, 101, 200]);
        let f = SizeFilter::learn(&train, 3, 1);
        assert!(f.blocked_sizes().contains(&300));
    }

    #[test]
    fn non_downloadable_responses_pass() {
        let f = SizeFilter::from_sizes([100]);
        let mp3 = resp("q", "song.mp3", 100, None);
        assert!(
            !f.blocks(&mp3),
            "size filter applies to the downloadable class only"
        );
        let exe = resp("q", "x.exe", 100, None);
        assert!(f.blocks(&exe));
    }
}
