//! Deterministic fault injection: the network pathology model.
//!
//! The IMC 2006 crawl ran against a hostile internet — dead hosts, NAT
//! timeouts, transfers that reset mid-body, month-long churn — while the
//! simulator's default delivery is flawless. A [`FaultPlan`] hung off
//! [`crate::SimConfig`] turns selected pathologies back on: per-chunk loss,
//! spontaneous connection resets, latency spikes, payload corruption
//! (truncation or bit-flips) and node churn sessions with up/down
//! lifetimes.
//!
//! Determinism contract: every fault decision is drawn from the seeded
//! `StdRng` stream of the node it happens to (churn enrollment from the
//! spawn-time control stream), so the same seed and the same plan reproduce
//! the same faults bit-for-bit at every shard count. Crucially, the disabled
//! default draws nothing: each sampling helper is gated on its probability
//! being nonzero, so [`FaultPlan::none()`] leaves the RNG streams — and
//! therefore the entire event trace — byte-identical to a simulator without
//! the fault layer (asserted by `crates/core/tests/one_trajectory.rs`).

use rand::rngs::StdRng;
use rand::Rng;

/// Churn sessions: a fraction of spawned nodes cycle between up and down
/// states with uniformly sampled lifetimes. Nodes spawned with
/// [`crate::NodeSpec::durable`] (the crawler, always-on infrastructure) are
/// exempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Fraction of (non-durable) spawned nodes enrolled in churn.
    pub fraction: f64,
    /// Uniform uptime range in seconds, sampled per session.
    pub uptime_secs: (u64, u64),
    /// Uniform downtime range in seconds, sampled per session.
    pub downtime_secs: (u64, u64),
}

/// What happens to one delivered chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkFate {
    Deliver,
    /// Dropped on the floor; the receiver never sees these bytes.
    Drop,
    /// Delivered with its tail cut off.
    Truncate,
    /// Delivered with one bit flipped.
    BitFlip,
}

/// A seed-deterministic fault-injection plan. All probabilities are per
/// sampling opportunity (per chunk, per send, per connection, per node) and
/// `0.0` disables that fault class without consuming any randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a delivered chunk is silently dropped.
    pub chunk_loss: f64,
    /// Probability, per send, that the connection spontaneously resets:
    /// both endpoints get `on_closed`, in-flight data is discarded.
    pub reset: f64,
    /// Probability a delivered chunk is corrupted (truncated or bit-flipped
    /// with equal odds).
    pub corrupt: f64,
    /// Probability a new connection's latency is multiplied by
    /// `latency_spike_mult` (congested/overloaded path).
    pub latency_spike: f64,
    /// Latency multiplier applied when a spike fires.
    pub latency_spike_mult: u64,
    /// Node churn sessions; `None` keeps every node up for the whole run.
    pub churn: Option<ChurnSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// No faults: the default, byte-identical to a fault-free simulator.
    pub const fn none() -> Self {
        FaultPlan {
            chunk_loss: 0.0,
            reset: 0.0,
            corrupt: 0.0,
            latency_spike: 0.0,
            latency_spike_mult: 1,
            churn: None,
        }
    }

    /// Occasional pathology: a flaky-but-usable 2006 residential internet.
    pub fn mild() -> Self {
        FaultPlan {
            chunk_loss: 0.005,
            reset: 0.002,
            corrupt: 0.002,
            latency_spike: 0.01,
            latency_spike_mult: 8,
            churn: Some(ChurnSpec {
                fraction: 0.10,
                uptime_secs: (6 * 3600, 18 * 3600),
                downtime_secs: (600, 3600),
            }),
        }
    }

    /// Heavy pathology: loss, resets and churn dialed to stress-test every
    /// failure path the crawlers have.
    pub fn harsh() -> Self {
        FaultPlan {
            chunk_loss: 0.02,
            reset: 0.01,
            corrupt: 0.01,
            latency_spike: 0.05,
            latency_spike_mult: 20,
            churn: Some(ChurnSpec {
                fraction: 0.30,
                uptime_secs: (3600, 6 * 3600),
                downtime_secs: (300, 1800),
            }),
        }
    }

    /// Named profile lookup (the `P2PMAL_FAULTS` env values).
    pub fn from_profile(name: &str) -> Option<Self> {
        match name {
            "none" => Some(Self::none()),
            "mild" => Some(Self::mild()),
            "harsh" => Some(Self::harsh()),
            _ => None,
        }
    }

    /// True when no fault class is active (the no-extra-RNG-draws path).
    pub fn is_none(&self) -> bool {
        self.chunk_loss == 0.0
            && self.reset == 0.0
            && self.corrupt == 0.0
            && self.latency_spike == 0.0
            && self.churn.is_none()
    }

    /// Samples the fate of one chunk. Draws nothing for disabled classes.
    pub(crate) fn chunk_fate(&self, rng: &mut StdRng) -> ChunkFate {
        if self.chunk_loss > 0.0 && rng.gen_bool(self.chunk_loss) {
            return ChunkFate::Drop;
        }
        if self.corrupt > 0.0 && rng.gen_bool(self.corrupt) {
            return if rng.gen_bool(0.5) {
                ChunkFate::Truncate
            } else {
                ChunkFate::BitFlip
            };
        }
        ChunkFate::Deliver
    }

    /// Samples whether this send resets the connection.
    pub(crate) fn send_resets(&self, rng: &mut StdRng) -> bool {
        self.reset > 0.0 && rng.gen_bool(self.reset)
    }

    /// Latency multiplier for a new connection (1 = no spike).
    pub(crate) fn latency_mult(&self, rng: &mut StdRng) -> u64 {
        if self.latency_spike > 0.0 && rng.gen_bool(self.latency_spike) {
            self.latency_spike_mult.max(1)
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn none_draws_nothing() {
        // Two RNGs from the same seed: one consulted by a none-plan, one
        // untouched. Their next draws must agree, proving the disabled plan
        // consumed zero randomness.
        let plan = FaultPlan::none();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(plan.chunk_fate(&mut a), ChunkFate::Deliver);
            assert!(!plan.send_resets(&mut a));
            assert_eq!(plan.latency_mult(&mut a), 1);
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn profiles_resolve() {
        assert!(FaultPlan::from_profile("none").unwrap().is_none());
        assert!(!FaultPlan::from_profile("mild").unwrap().is_none());
        assert!(!FaultPlan::from_profile("harsh").unwrap().is_none());
        assert!(FaultPlan::from_profile("bogus").is_none());
    }

    #[test]
    fn harsh_produces_every_fate() {
        let plan = FaultPlan::harsh();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..10_000 {
            match plan.chunk_fate(&mut rng) {
                ChunkFate::Deliver => seen[0] = true,
                ChunkFate::Drop => seen[1] = true,
                ChunkFate::Truncate => seen[2] = true,
                ChunkFate::BitFlip => seen[3] = true,
            }
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn sampling_is_deterministic() {
        let plan = FaultPlan::harsh();
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..1000)
                .map(|_| plan.chunk_fate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }
}
