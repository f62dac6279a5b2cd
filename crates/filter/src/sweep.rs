//! Parameter sweeps for the F3 ablation: how many sizes must be blocked,
//! and what tolerance costs.

use crate::eval::{evaluate, FilterEval};
use crate::size::SizeFilter;
use p2pmal_crawler::ResolvedResponse;
use std::collections::HashMap;

/// One sweep point: `k` blocked sizes and the resulting accuracy.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub k: usize,
    pub blocked_sizes: Vec<u64>,
    pub eval: FilterEval,
}

/// Ranks all sizes seen in malicious training responses by volume.
pub fn ranked_malicious_sizes(training: &[ResolvedResponse]) -> Vec<(u64, u64)> {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for r in training {
        if r.malware.is_some() {
            *counts.entry(u64::from(r.record.size)).or_insert(0) += 1;
        }
    }
    let mut v: Vec<(u64, u64)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// F3 — sweeps `k` (number of top malicious sizes blocked) and evaluates
/// each resulting filter on `test`.
pub fn size_filter_sweep(
    training: &[ResolvedResponse],
    test: &[ResolvedResponse],
    ks: &[usize],
) -> Vec<SweepPoint> {
    let ranked = ranked_malicious_sizes(training);
    ks.iter()
        .map(|&k| {
            let sizes: Vec<u64> = ranked.iter().take(k).map(|(s, _)| *s).collect();
            let filter = SizeFilter::from_sizes(sizes.iter().copied());
            SweepPoint {
                k,
                blocked_sizes: sizes,
                eval: evaluate(&filter, test),
            }
        })
        .collect()
}

/// Tolerance ablation: same blocklist, varying ± tolerance.
pub fn tolerance_ablation(
    training: &[ResolvedResponse],
    test: &[ResolvedResponse],
    k: usize,
    tolerances: &[u64],
) -> Vec<(u64, FilterEval)> {
    let ranked = ranked_malicious_sizes(training);
    let sizes: Vec<u64> = ranked.iter().take(k).map(|(s, _)| *s).collect();
    tolerances
        .iter()
        .map(|&t| {
            let filter = SizeFilter::from_sizes(sizes.iter().copied()).with_tolerance(t);
            (t, evaluate(&filter, test))
        })
        .collect()
}

/// Splits a resolved log into (train, test) halves by day: days before
/// `split_day` train, the rest test — the deployment-honest evaluation.
/// The log must be in day order, as the crawler appends it (sim-time
/// order); the halves are sub-slices of it.
pub fn split_by_day(
    resolved: &[ResolvedResponse],
    split_day: u64,
) -> (&[ResolvedResponse], &[ResolvedResponse]) {
    debug_assert!(
        resolved
            .windows(2)
            .all(|w| w[0].record.day <= w[1].record.day),
        "the log is not in day order"
    );
    resolved.split_at(resolved.partition_point(|r| u64::from(r.record.day) < split_day))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::test_support::resp;

    fn log() -> Vec<ResolvedResponse> {
        let mut v = Vec::new();
        for _ in 0..50 {
            v.push(resp("q", "w.exe", 100, Some("W32.A")));
        }
        for _ in 0..20 {
            v.push(resp("q", "x.exe", 200, Some("W32.B")));
        }
        for _ in 0..5 {
            v.push(resp("q", "y.exe", 300, Some("W32.C")));
        }
        for s in [1000, 2000, 3000] {
            v.push(resp("q", "clean.exe", s, None));
        }
        v
    }

    #[test]
    fn ranking_orders_by_volume() {
        let ranked = ranked_malicious_sizes(&log());
        assert_eq!(ranked[0], (100, 50));
        assert_eq!(ranked[1], (200, 20));
        assert_eq!(ranked[2], (300, 5));
    }

    #[test]
    fn detection_saturates_with_k() {
        let l = log();
        let points = size_filter_sweep(&l, &l, &[0, 1, 2, 3]);
        let det: Vec<f64> = points.iter().map(|p| p.eval.detection_pct()).collect();
        assert_eq!(det[0], 0.0);
        assert!((det[1] - 100.0 * 50.0 / 75.0).abs() < 0.01);
        assert!((det[2] - 100.0 * 70.0 / 75.0).abs() < 0.01);
        assert_eq!(det[3], 100.0);
        // Monotone non-decreasing detection, zero FPs throughout here.
        assert!(det.windows(2).all(|w| w[0] <= w[1]));
        assert!(points.iter().all(|p| p.eval.fp == 0));
    }

    #[test]
    fn tolerance_widens_and_can_cost_fps() {
        let mut l = log();
        // A benign file 10 bytes from the top malicious size.
        l.push(resp("q", "near.exe", 110, None));
        let points = tolerance_ablation(&l, &l, 3, &[0, 4, 16]);
        assert_eq!(points[0].1.fp, 0);
        assert_eq!(points[1].1.fp, 0);
        assert_eq!(points[2].1.fp, 1, "±16 swallows the nearby benign size");
    }

    #[test]
    fn day_split() {
        let mut l = log();
        for r in l.iter_mut().rev().take(10) {
            r.record.day = 5;
        }
        let (train, test) = split_by_day(&l, 3);
        assert_eq!(train.len(), l.len() - 10);
        assert_eq!(test.len(), 10);
        assert!(test.iter().all(|r| r.record.day == 5));
    }
}
