//! Download retry policy and per-cause failure accounting.
//!
//! The study's crawlers ran against a hostile network: dead hosts, NAT
//! timeouts, transfers reset mid-body. With netsim's fault injection those
//! pathologies now reach the crawlers, and this module decides what they do
//! about them: a bounded retry budget with exponential backoff + jitter
//! (over sim-time timers), and a [`FailureBreakdown`] classifying every
//! terminal failure by cause in the [`crate::log::CrawlLog`]. The cause is
//! read from the failed attempt's `DownloadError` variant
//! ([`FailCause::of`]), the same on both overlays.
//!
//! The default [`RetryPolicy::legacy()`] (`backoff_base == 0`) reproduces
//! the historical behavior — one immediate fallback attempt, no timers —
//! exactly, which is what keeps the fault-free seed-2006 study
//! byte-identical to the pre-fault-injection build.

use p2pmal_gnutella::DownloadError;
use p2pmal_netsim::SimDuration;
use rand::rngs::StdRng;
use rand::Rng;

/// Why a download attempt (or a whole object) terminally failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailCause {
    /// The transfer stalled past the download timeout (lost chunks, dead
    /// host mid-transfer, PUSH never answered).
    Timeout,
    /// The connection reset or closed mid-transfer.
    Reset,
    /// The byte stream was garbled or cut short (framing/protocol errors).
    Truncated,
    /// The peer was never reachable (dead, NATed, no PUSH route).
    PeerGone,
    /// The body arrived but its archive content could not be decoded.
    Corrupt,
    /// The source answered `404`: it does not hold the advertised object.
    /// Under fault injection this is where a bit flip in an advertised
    /// digest or index surfaces (share sync, search result or the request
    /// itself) — every retry asks the same host for something it never had.
    NotFound,
    /// Everything else (other HTTP-level refusals and the like).
    Other,
}

impl FailCause {
    /// The cause a failed download attempt counts under, on either overlay.
    pub fn of(err: &DownloadError) -> FailCause {
        match err {
            DownloadError::ConnectFailed | DownloadError::NoPushRoute => FailCause::PeerGone,
            DownloadError::Timeout => FailCause::Timeout,
            DownloadError::Reset => FailCause::Reset,
            DownloadError::Malformed(_) => FailCause::Truncated,
            DownloadError::Http(404) => FailCause::NotFound,
            DownloadError::Http(_) => FailCause::Other,
        }
    }

    /// Stable snake_case label (telemetry journal `cause` field).
    pub fn label(self) -> &'static str {
        match self {
            FailCause::Timeout => "timeout",
            FailCause::Reset => "reset",
            FailCause::Truncated => "truncated",
            FailCause::PeerGone => "peer_gone",
            FailCause::Corrupt => "corrupt",
            FailCause::NotFound => "not_found",
            FailCause::Other => "other",
        }
    }
}

/// Terminal download failures bucketed by [`FailCause`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FailureBreakdown {
    pub timeout: u64,
    pub reset: u64,
    pub truncated: u64,
    pub peer_gone: u64,
    pub corrupt: u64,
    pub not_found: u64,
    pub other: u64,
}

impl FailureBreakdown {
    pub fn record(&mut self, cause: FailCause) {
        match cause {
            FailCause::Timeout => self.timeout += 1,
            FailCause::Reset => self.reset += 1,
            FailCause::Truncated => self.truncated += 1,
            FailCause::PeerGone => self.peer_gone += 1,
            FailCause::Corrupt => self.corrupt += 1,
            FailCause::NotFound => self.not_found += 1,
            FailCause::Other => self.other += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.parts().iter().map(|(_, n)| n).sum()
    }

    /// Labelled parts for rendering (summary lines, trace output).
    pub fn parts(&self) -> [(&'static str, u64); 7] {
        [
            ("timeout", self.timeout),
            ("reset", self.reset),
            ("truncated", self.truncated),
            ("peer_gone", self.peer_gone),
            ("corrupt", self.corrupt),
            ("not_found", self.not_found),
            ("other", self.other),
        ]
    }
}

/// Bounded retry with exponential backoff + jitter, over sim-time timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-attempts allowed after the first try.
    pub max_retries: u8,
    /// Backoff before retry `n` is `base * 2^n` (plus jitter), capped at
    /// [`RetryPolicy::backoff_cap`]. **Zero selects legacy mode**: one
    /// immediate in-line fallback, no timers — the pre-fault-layer code
    /// path, bit-for-bit.
    pub backoff_base: SimDuration,
    /// Upper bound on a single backoff delay (before jitter).
    pub backoff_cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::legacy()
    }
}

impl RetryPolicy {
    /// Historical behavior: one immediate fallback attempt, no backoff.
    pub const fn legacy() -> Self {
        RetryPolicy {
            max_retries: 1,
            backoff_base: SimDuration::ZERO,
            backoff_cap: SimDuration::ZERO,
        }
    }

    /// Backoff mode: up to `max_retries` re-attempts, delayed by
    /// `base_secs * 2^attempt` (capped at 16× base) plus up to 50% jitter.
    pub fn backoff(max_retries: u8, base_secs: u64) -> Self {
        RetryPolicy {
            max_retries,
            backoff_base: SimDuration::from_secs(base_secs),
            backoff_cap: SimDuration::from_secs(base_secs.saturating_mul(16)),
        }
    }

    /// True when failures reschedule through timers rather than retrying
    /// in-line.
    pub fn uses_backoff(&self) -> bool {
        self.backoff_base > SimDuration::ZERO
    }

    /// Delay before retry number `attempt` (1-based): exponential backoff
    /// with uniform jitter in `[0, delay/2]`.
    pub fn delay_for(&self, attempt: u8, rng: &mut StdRng) -> SimDuration {
        let shift = u32::from(attempt.saturating_sub(1)).min(16);
        let base = self
            .backoff_base
            .as_micros()
            .saturating_mul(1u64 << shift)
            .min(
                self.backoff_cap
                    .as_micros()
                    .max(self.backoff_base.as_micros()),
            );
        let jitter = if base > 1 {
            rng.gen_range(0..=base / 2)
        } else {
            0
        };
        SimDuration::from_micros(base + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn legacy_is_immediate() {
        let p = RetryPolicy::legacy();
        assert!(!p.uses_backoff());
        assert_eq!(p.max_retries, 1);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::backoff(4, 10);
        assert!(p.uses_backoff());
        let mut rng = StdRng::seed_from_u64(1);
        let d1 = p.delay_for(1, &mut rng);
        let d4 = p.delay_for(4, &mut rng);
        assert!(d1 >= SimDuration::from_secs(10));
        assert!(d1 <= SimDuration::from_secs(15));
        // attempt 4 → 80s base, within the 160s cap, ≤ 120s with jitter
        assert!(d4 >= SimDuration::from_secs(80));
        assert!(d4 <= SimDuration::from_secs(120));
        // far attempts stay at the cap
        let d9 = p.delay_for(9, &mut rng);
        assert!(d9 <= SimDuration::from_secs(240));
    }

    #[test]
    fn breakdown_records_every_cause() {
        let mut b = FailureBreakdown::default();
        for c in [
            FailCause::Timeout,
            FailCause::Reset,
            FailCause::Truncated,
            FailCause::PeerGone,
            FailCause::Corrupt,
            FailCause::NotFound,
            FailCause::Other,
        ] {
            b.record(c);
        }
        assert_eq!(b.total(), 7);
        assert!(b.parts().iter().all(|(_, n)| *n == 1));
    }

    /// The cause of every download error, and of `Malformed` for every
    /// reader error. The match is the table: a new variant must join it.
    #[test]
    fn every_download_error_has_one_cause() {
        use p2pmal_gnutella::http::HttpError::*;
        use DownloadError::*;
        let malformed = [
            BadRequestLine,
            BadHeader,
            BadTarget,
            BadStatusLine,
            MissingLength,
            HeadTooLong,
            BodyTooLong,
            BadGiv,
        ];
        let errors = [
            ConnectFailed,
            NoPushRoute,
            Timeout,
            Http(404),
            Http(503),
            Reset,
        ]
        .into_iter()
        .chain(malformed.map(Malformed));
        for err in errors {
            let cause = match err {
                ConnectFailed | NoPushRoute => FailCause::PeerGone,
                Timeout => FailCause::Timeout,
                Http(404) => FailCause::NotFound,
                Http(_) => FailCause::Other,
                Reset => FailCause::Reset,
                Malformed(
                    BadRequestLine | BadHeader | BadTarget | BadStatusLine | MissingLength
                    | HeadTooLong | BodyTooLong | BadGiv,
                ) => FailCause::Truncated,
            };
            assert_eq!(FailCause::of(&err), cause, "{err:?}");
        }
    }
}
