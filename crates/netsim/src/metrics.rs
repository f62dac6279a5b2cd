//! Aggregate counters the harness reads after (or during) a run.

use crate::profile::SubsystemProfile;
use crate::telemetry::MetricsRegistry;

/// Memory accounting snapshot, filled in by [`crate::Simulator::record_memory`].
///
/// `app_bytes` sums every live app's [`crate::App::memory_estimate`] — a
/// deterministic deep-heap estimate of protocol state (connection maps,
/// routing tables, share libraries). `queue_bytes` sums every lane's
/// scheduler buffers (`CalendarQueue::heap_bytes`) and
/// `payload_peak_bytes` the bytes its queued deliveries held at their
/// most: engine memory, kept beside the per-node estimate and never
/// inside it. The RSS
/// gauges read
/// `/proc/self/status` and are inherently wall-machine facts, so the whole
/// struct hides behind an always-equal `PartialEq` shield (the same device
/// as [`SubsystemProfile`]): identical-seed metric snapshots stay equal
/// even though their RSS readings differ.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryStats {
    /// Live nodes whose app contributed to `app_bytes`.
    pub nodes: u64,
    /// Summed per-app deep-heap estimates (bytes).
    pub app_bytes: u64,
    /// Bytes the lanes' event queues hold, in use or not.
    pub queue_bytes: u64,
    /// The most payload bytes queued `Data` events held at once, per lane,
    /// summed over lanes: payload lengths, not buffer capacities, and a
    /// deferred payload counts 0 until it is written.
    pub payload_peak_bytes: u64,
    /// Process peak resident set (`VmHWM`, KiB; 0 where unsupported).
    pub peak_rss_kb: u64,
    /// Process current resident set (`VmRSS`, KiB; 0 where unsupported).
    pub current_rss_kb: u64,
}

impl MemoryStats {
    /// Estimated protocol-state bytes per node (0 when no nodes recorded).
    pub fn bytes_per_node(&self) -> u64 {
        self.app_bytes.checked_div(self.nodes).unwrap_or(0)
    }

    /// True when nothing was recorded (the accounting pass never ran).
    pub fn is_empty(&self) -> bool {
        self.nodes == 0 && self.peak_rss_kb == 0
    }

    pub(crate) fn merge(&mut self, other: &MemoryStats) {
        self.nodes += other.nodes;
        self.app_bytes += other.app_bytes;
        self.queue_bytes += other.queue_bytes;
        self.payload_peak_bytes += other.payload_peak_bytes;
        self.peak_rss_kb = self.peak_rss_kb.max(other.peak_rss_kb);
        self.current_rss_kb = self.current_rss_kb.max(other.current_rss_kb);
    }
}

/// Wall-machine diagnostics: compares equal to anything (see struct docs).
impl PartialEq for MemoryStats {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for MemoryStats {}

/// Reads `(VmHWM, VmRSS)` in KiB from `/proc/self/status`; `(0, 0)` on
/// platforms without procfs or when the read fails.
pub fn process_rss_kb() -> (u64, u64) {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return (0, 0);
        };
        let field = |key: &str| {
            status
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        (field("VmHWM:"), field("VmRSS:"))
    }
    #[cfg(not(target_os = "linux"))]
    {
        (0, 0)
    }
}

/// Simulation-wide counters. All counts are cumulative since construction.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimMetrics {
    /// Events dispatched by the scheduler.
    pub events_processed: u64,
    /// Successful connection establishments.
    pub conns_established: u64,
    /// Failed connection attempts (no listener / NAT / dead node).
    pub conns_failed: u64,
    /// Connections torn down.
    pub conns_closed: u64,
    /// Application payload bytes delivered end-to-end.
    pub bytes_delivered: u64,
    /// Bytes dropped because they were sent on closed/pending connections.
    pub bytes_dropped: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Nodes spawned over the lifetime of the simulation.
    pub nodes_spawned: u64,
    /// Nodes taken offline (churn or shutdown).
    pub nodes_stopped: u64,
    /// Payload buffer acquisitions served from the recycling pool.
    pub pool_hits: u64,
    /// Payload buffer acquisitions that had to allocate.
    pub pool_misses: u64,
    /// Total buffer capacity (bytes) returned to the pool.
    pub pool_recycled_bytes: u64,
    /// Peak number of buffers held on the pool's free list.
    pub pool_high_water: u64,
    /// Peak number of simultaneously scheduled events.
    pub queue_high_water: u64,
    /// Fault injection: chunks dropped by the fault plan.
    pub faults_chunks_dropped: u64,
    /// Fault injection: chunks delivered corrupted (truncated/bit-flipped).
    pub faults_chunks_corrupted: u64,
    /// Fault injection: spontaneous connection resets.
    pub faults_resets: u64,
    /// Fault injection: connections established with a latency spike.
    pub faults_latency_spikes: u64,
    /// Fault injection: churn sessions taking a node offline.
    pub faults_churn_downs: u64,
    /// Fault injection: churn sessions bringing a node back.
    pub faults_churn_ups: u64,
    /// Per-subsystem wall-clock profile. Diagnostics only: it compares
    /// equal to any other profile, so identical-seed metric snapshots stay
    /// equal even though their wall timings differ.
    pub timing: SubsystemProfile,
    /// Memory accounting (bytes-per-node estimate, RSS gauges). Filled by
    /// [`crate::Simulator::record_memory`]; always-equal like `timing`.
    pub memory: MemoryStats,
    /// Named counters, gauges and log2 histograms recorded by the simulator
    /// and by instrumented apps via [`crate::Ctx::registry`]. Sim-keyed
    /// entries are deterministic and participate in `Eq`; wall-clock
    /// histograms hide behind the always-equal `WallHists` shield.
    pub telemetry: MetricsRegistry,
}

impl SimMetrics {
    /// Folds another snapshot into this one: counters sum, high-water marks
    /// take the max, and the profile/registry merge field-wise. The simulator
    /// keeps one `SimMetrics` per shard and merges them into the snapshot
    /// `Simulator::metrics` hands out.
    pub fn merge(&mut self, other: &SimMetrics) {
        self.events_processed += other.events_processed;
        self.conns_established += other.conns_established;
        self.conns_failed += other.conns_failed;
        self.conns_closed += other.conns_closed;
        self.bytes_delivered += other.bytes_delivered;
        self.bytes_dropped += other.bytes_dropped;
        self.timers_fired += other.timers_fired;
        self.nodes_spawned += other.nodes_spawned;
        self.nodes_stopped += other.nodes_stopped;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.pool_recycled_bytes += other.pool_recycled_bytes;
        self.pool_high_water = self.pool_high_water.max(other.pool_high_water);
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.faults_chunks_dropped += other.faults_chunks_dropped;
        self.faults_chunks_corrupted += other.faults_chunks_corrupted;
        self.faults_resets += other.faults_resets;
        self.faults_latency_spikes += other.faults_latency_spikes;
        self.faults_churn_downs += other.faults_churn_downs;
        self.faults_churn_ups += other.faults_churn_ups;
        self.memory.merge(&other.memory);
        self.timing.merge(&other.timing);
        self.telemetry.merge(&other.telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let m = SimMetrics::default();
        assert_eq!(m.events_processed, 0);
        assert_eq!(m.bytes_delivered, 0);
    }
}
