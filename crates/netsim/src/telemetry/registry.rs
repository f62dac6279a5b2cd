//! The metrics registry: log2 histograms over sim-derived quantities that
//! roll up into [`crate::SimMetrics`].
//!
//! Every sample is keyed on the simulation trajectory (sim-time latencies,
//! fan-out, attempt counts, queue depth), so the registry derives `Eq` and
//! takes part in identical-seed equality assertions. Counts the crawl log
//! already keeps are read from the log, not counted here a second time.

use super::hist::{HistSummary, Log2Histogram};

/// Number of deterministic (sim-keyed) histograms.
pub const SIM_HIST_COUNT: usize = 4;

/// Histograms over sim-derived quantities (deterministic per seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimHist {
    /// Sim-time from a downloadable response entering the fetch queue to
    /// its terminal outcome, in microseconds.
    DownloadLatencyUs = 0,
    /// Responses attributed to one workload query (fan-out), recorded when
    /// the next query closes it out.
    ResponsesPerQuery = 1,
    /// Attempts one download object took to reach a terminal outcome.
    DownloadAttempts = 2,
    /// Scheduled-event queue depth at the per-day samples.
    QueueDepth = 3,
}

impl SimHist {
    pub const ALL: [SimHist; SIM_HIST_COUNT] = [
        SimHist::DownloadLatencyUs,
        SimHist::ResponsesPerQuery,
        SimHist::DownloadAttempts,
        SimHist::QueueDepth,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SimHist::DownloadLatencyUs => "download_latency_us",
            SimHist::ResponsesPerQuery => "responses_per_query",
            SimHist::DownloadAttempts => "download_attempts",
            SimHist::QueueDepth => "queue_depth",
        }
    }
}

/// The registry carried by [`crate::SimMetrics::telemetry`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsRegistry {
    hists: [Log2Histogram; SIM_HIST_COUNT],
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sim-derived sample.
    #[inline]
    pub fn record(&mut self, h: SimHist, v: u64) {
        self.hists[h as usize].record(v);
    }

    pub fn hist(&self, h: SimHist) -> &Log2Histogram {
        &self.hists[h as usize]
    }

    /// Every histogram's labeled summary, in declaration order (the
    /// rendering order of trace lines and `BENCH_study.json`).
    pub fn sim_summaries(&self) -> Vec<(&'static str, HistSummary)> {
        SimHist::ALL
            .iter()
            .map(|&h| (h.label(), self.hist(h).summary()))
            .collect()
    }

    /// Folds another registry into this one; histograms sum exactly.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for i in 0..SIM_HIST_COUNT {
            self.hists[i].merge(&other.hists[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hists_accumulate_and_merge() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.record(SimHist::DownloadLatencyUs, 1_000);
        a.record(SimHist::DownloadLatencyUs, 2_000);
        assert_eq!(a.hist(SimHist::DownloadLatencyUs).count(), 2);
        assert_ne!(a, b);
        a.record(SimHist::ResponsesPerQuery, 10);
        b.record(SimHist::ResponsesPerQuery, 20);
        a.merge(&b);
        assert_eq!(a.hist(SimHist::ResponsesPerQuery).count(), 2);
    }

    #[test]
    fn labels_are_stable() {
        let h: Vec<&str> = SimHist::ALL.iter().map(|h| h.label()).collect();
        assert_eq!(
            h,
            vec![
                "download_latency_us",
                "responses_per_query",
                "download_attempts",
                "queue_depth"
            ]
        );
    }
}
