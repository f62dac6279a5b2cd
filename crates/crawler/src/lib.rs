//! The study's instrumentation layer.
//!
//! Kalafut et al. instrumented two clients — LimeWire on Gnutella and giFT
//! on OpenFT — to log every query response for over a month, download the
//! responses whose names marked them as archives or executables, and scan
//! the downloads with an AV engine. This crate is that instrumentation:
//!
//! * [`workload`] — the continuous query workload (catalog popularity plus
//!   generic 2006-era search strings, diurnally modulated);
//! * [`log`] — response records, download dedup (by filename+size and by
//!   host+size), scan outcomes, and the response↔verdict join;
//! * [`driver`] — [`Crawler`], the measurement procedure itself, written
//!   once: query bookkeeping, response logging, dedup under both keys, the
//!   slot-bounded download queue, retry, and a scan of each body where it
//!   lands. It is generic over an [`Overlay`], the little a protocol node
//!   has to tell it; a failed download reaches it as the one
//!   [`p2pmal_gnutella::DownloadError`] both overlays' HTTP client
//!   reports;
//! * [`servent`] / [`ftnode`] — the two [`Overlay`] adapters: a Gnutella
//!   leaf (QUERYHITs, direct + PUSH downloads) and an OpenFT USER node
//!   (per-result packets from every discovered SEARCH node, MD5 downloads);
//! * [`retry`], [`scan`], [`trace`] — retry policy and failure causes (one
//!   [`FailCause`] per `DownloadError` variant), the content-addressed scan
//!   pipeline, download-chain provenance.
//!
//! [`GnutellaCrawler`] and [`FtCrawler`] are [`p2pmal_netsim::App`]s; a
//! harness (see `p2pmal-core`) spawns one into a simulated network, runs
//! simulated weeks, and takes the [`log::CrawlLog`] out for analysis.

pub mod driver;
pub mod ftnode;
pub mod log;
pub mod retry;
pub mod scan;
pub mod servent;
pub mod trace;
pub mod workload;

pub use driver::{Crawler, CrawlerConfig, Overlay, Response, Signal};
pub use log::{
    is_downloadable_name, CrawlLog, HostKey, LogFootprint, Network, ResolvedResponse,
    ResponseRecord, ScanOutcome, Text, TextTable,
};
pub use retry::{FailCause, FailureBreakdown, RetryPolicy};
pub use scan::{ScanPipeline, ScanStats, DEFAULT_SCAN_CACHE_ENTRIES};
pub use trace::DlTrace;
pub use workload::{Workload, WorkloadConfig, GENERIC_TERMS};

/// The instrumented LimeWire-side client.
pub type GnutellaCrawler = Crawler<p2pmal_gnutella::Servent>;
/// The instrumented giFT/OpenFT-side client.
pub type FtCrawler = Crawler<p2pmal_openft::node::FtNode>;
