//! Log2-bucket histograms: fixed-size, allocation-free, exactly mergeable.
//!
//! A value `v` lands in bucket `bit_length(v)` (bucket 0 holds only zero),
//! so the 65 buckets cover the full `u64` range with one increment per
//! record. Percentiles are extracted by rank-walking the buckets and
//! clamping the bucket's upper edge into the observed `[min, max]` range —
//! coarse, but deterministic, cheap, and honest about its resolution.
//!
//! Recording sim-time quantities keeps the histogram deterministic (it
//! derives `Eq`); wall-clock quantities must go through the always-equal
//! wrapper in [`crate::telemetry::registry`], mirroring
//! [`crate::SubsystemProfile`].

/// Number of buckets: one per possible `u64` bit length, plus zero.
pub const LOG2_BUCKETS: usize = 65;

/// Index of the bucket a value lands in.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper edge of a bucket (`2^i - 1`; `u64::MAX` for the last).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The count/min/p50/p90/p99/max roll-up reported by trace lines,
/// `BENCH_study.json` and run artifacts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    pub count: u64,
    pub min: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

/// A log2-bucket histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; LOG2_BUCKETS],
    count: u64,
    /// Exact sum (u128: 2^64 samples of u64::MAX cannot overflow it).
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            counts: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// Raw per-bucket counts (bucket `i` holds values of bit length `i`).
    pub fn buckets(&self) -> &[u64; LOG2_BUCKETS] {
        &self.counts
    }

    /// The value at percentile `p` (0–100): the upper edge of the bucket
    /// containing the sample of rank `ceil(p/100 * count)`, clamped into
    /// `[min, max]`. Returns 0 on an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one (exact: bucket-wise sums).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for i in 0..LOG2_BUCKETS {
            self.counts[i] += other.counts[i];
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The count/min/p50/p90/p99/max roll-up.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            min: self.min(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            max: self.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // 0 is its own bucket; powers of two open a new bucket.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 2);
        assert_eq!(h.buckets()[4], 1);
        assert_eq!(h.buckets()[64], 1);
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let h = Log2Histogram::new();
        assert_eq!(
            h.summary(),
            HistSummary {
                count: 0,
                min: 0,
                p50: 0,
                p90: 0,
                p99: 0,
                max: 0
            }
        );
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn single_sample_every_percentile_is_that_sample() {
        let mut h = Log2Histogram::new();
        h.record(1234);
        for p in [0.1, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 1234, "p{p}");
        }
        assert_eq!(h.min(), 1234);
        assert_eq!(h.max(), 1234);
        assert_eq!(h.mean(), 1234);
    }

    #[test]
    fn u64_max_sample_does_not_overflow() {
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.percentile(99.0), u64::MAX);
        // Sum is exact in u128.
        assert_eq!(h.mean(), (2 * (u64::MAX as u128) / 3) as u64);
    }

    #[test]
    fn percentiles_walk_ranks() {
        let mut h = Log2Histogram::new();
        // 90 samples of ~100 (bucket 7), 10 samples of ~1000 (bucket 10).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        // p50 falls in the low bucket: upper edge 127.
        assert_eq!(h.percentile(50.0), 127);
        assert_eq!(h.percentile(90.0), 127);
        // p99 falls in the high bucket; clamped to max=1000.
        assert_eq!(h.percentile(99.0), 1000);
        assert_eq!(h.summary().max, 1000);
        assert_eq!(h.summary().min, 100);
    }

    #[test]
    fn merge_is_exact() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut both = Log2Histogram::new();
        for v in [1u64, 5, 9, 100] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 7, 4096, u64::MAX] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&Log2Histogram::new());
        assert_eq!(a, before);
    }
}
