//! Small statistics helpers: top-k tallies, CDFs, histograms.

use p2pmal_netsim::FastHash;
use std::collections::HashMap;
use std::hash::Hash;

/// Counts occurrences and returns `(item, count)` sorted by descending
/// count (ties broken by the item's order for determinism).
pub fn tally<T: Eq + Hash + Ord + Clone>(items: impl IntoIterator<Item = T>) -> Vec<(T, u64)> {
    let mut counts: HashMap<T, u64, FastHash> = HashMap::default();
    for it in items {
        *counts.entry(it).or_insert(0) += 1;
    }
    let mut v: Vec<(T, u64)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// A ranked share table: count, percent of total, cumulative percent.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedShare<T> {
    pub rank: usize,
    pub item: T,
    pub count: u64,
    pub pct: f64,
    pub cumulative_pct: f64,
}

/// Converts a tally into ranked shares of its own total.
pub fn ranked_shares<T>(tally: Vec<(T, u64)>) -> Vec<RankedShare<T>> {
    let total: u64 = tally.iter().map(|(_, c)| c).sum();
    let mut cum = 0u64;
    tally
        .into_iter()
        .enumerate()
        .map(|(i, (item, count))| {
            cum += count;
            RankedShare {
                rank: i + 1,
                item,
                count,
                pct: pct(count, total),
                cumulative_pct: pct(cum, total),
            }
        })
        .collect()
}

/// Percentage helper that tolerates a zero denominator.
pub fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

/// An empirical CDF over `u64` samples: returns `(value, fraction <= value)`
/// at each distinct value.
pub fn ecdf(mut samples: Vec<u64>) -> Vec<(u64, f64)> {
    if samples.is_empty() {
        return Vec::new();
    }
    samples.sort_unstable();
    let n = samples.len() as f64;
    let mut out = Vec::new();
    let mut i = 0;
    while i < samples.len() {
        let v = samples[i];
        let mut j = i;
        while j < samples.len() && samples[j] == v {
            j += 1;
        }
        out.push((v, j as f64 / n));
        i = j;
    }
    out
}

/// Renders one histogram-summary line (`label: n=.. min=.. p50=.. p90=..
/// p99=.. max=..`) from pre-extracted percentiles, so callers holding a
/// telemetry `HistSummary`-shaped record can report it without this
/// crate depending on the telemetry layer.
pub fn hist_summary_line(
    label: &str,
    count: u64,
    min: u64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
) -> String {
    format!("{label}: n={count} min={min} p50={p50} p90={p90} p99={p99} max={max}")
}

/// Fixed-bin histogram over `u64` samples in `[lo, hi)`; the last bin
/// absorbs overflow.
pub fn histogram(samples: &[u64], lo: u64, hi: u64, bins: usize) -> Vec<u64> {
    assert!(bins > 0 && hi > lo);
    let width = ((hi - lo) as f64 / bins as f64).max(1.0);
    let mut out = vec![0u64; bins];
    for &s in samples {
        let idx = if s < lo {
            0
        } else {
            (((s - lo) as f64 / width) as usize).min(bins - 1)
        };
        out[idx] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_sorts_by_count_then_item() {
        let t = tally(vec!["b", "a", "b", "c", "b", "a"]);
        assert_eq!(t, vec![("b", 3), ("a", 2), ("c", 1)]);
        // Tie: alphabetical.
        let t = tally(vec!["y", "x"]);
        assert_eq!(t, vec![("x", 1), ("y", 1)]);
    }

    #[test]
    fn ranked_shares_accumulate_to_100() {
        let shares = ranked_shares(vec![("a", 60u64), ("b", 30), ("c", 10)]);
        assert_eq!(shares[0].pct, 60.0);
        assert_eq!(shares[1].cumulative_pct, 90.0);
        assert_eq!(shares[2].cumulative_pct, 100.0);
        assert_eq!(shares[2].rank, 3);
    }

    #[test]
    fn pct_handles_zero_total() {
        assert_eq!(pct(5, 0), 0.0);
        assert_eq!(pct(1, 4), 25.0);
    }

    #[test]
    fn ecdf_reaches_one() {
        let cdf = ecdf(vec![5, 1, 5, 9]);
        assert_eq!(cdf, vec![(1, 0.25), (5, 0.75), (9, 1.0)]);
        assert!(ecdf(vec![]).is_empty());
    }

    #[test]
    fn hist_summary_line_is_stable() {
        assert_eq!(
            hist_summary_line("latency_us", 4, 1, 2, 3, 3, 9),
            "latency_us: n=4 min=1 p50=2 p90=3 p99=3 max=9"
        );
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let h = histogram(&[0, 5, 10, 15, 99, 1000], 0, 100, 10);
        assert_eq!(h.iter().sum::<u64>(), 6);
        assert_eq!(h[0], 2); // 0, 5
        assert_eq!(h[1], 2); // 10, 15
        assert_eq!(h[9], 2); // 99 and the 1000 overflow
    }
}
