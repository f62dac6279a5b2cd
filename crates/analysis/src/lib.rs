//! The statistics pipeline turning crawl logs into the paper's tables and
//! figures.
//!
//! * [`stats`] — tallies, ranked shares, ECDFs, histograms;
//! * [`report`] — one function per reconstructed table/figure (T1 summary,
//!   T2/T3 top malware, T4 sources, T5 host concentration, F1 daily
//!   series, F2 size census, F4 echo amplification);
//! * [`table`] — markdown/CSV rendering;
//! * [`compare`] — paper-vs-measured expectation records for
//!   EXPERIMENTS.md.

pub mod compare;
pub mod report;
pub mod stats;
pub mod table;

pub use compare::{Comparison, Expectation};
pub use report::{
    daily_fraction, daily_table, echo_amplification, host_concentration, host_table, size_census,
    size_table, source_breakdown, source_table, summarize, summary_table, top_malware,
    top_malware_table, EchoAmplification, HostShare, SizeCensus, SourceBreakdown, Summary,
};
pub use stats::{ecdf, hist_summary_line, pct, ranked_shares, tally, RankedShare};
pub use table::{fmt_count, fmt_pct, Table};
