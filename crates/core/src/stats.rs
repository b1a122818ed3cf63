//! Loader statistics snapshots and monitor traces.

use crate::cache::CacheStats;
use crate::fault::FaultStats;
use crate::pool::PoolSetStats;
use minato_exec::ExecStats;
use minato_metrics::{Summary, TimeSeries};
use minato_trace::{LatencyBreakdown, TraceStats};
use std::time::Duration;

/// Point-in-time view of loader state, cheap to take from any thread.
#[derive(Debug, Clone)]
pub struct LoaderStats {
    /// Samples fully preprocessed so far (fast + slow paths).
    pub samples_done: u64,
    /// Samples that exceeded the timeout and took the slow path.
    pub slow_flagged: u64,
    /// `slow_flagged / samples_done` (0 when nothing done).
    pub slow_fraction: f64,
    /// Batches delivered to batch queues.
    pub batches_done: u64,
    /// Raw bytes represented by delivered samples.
    pub bytes_done: u64,
    /// Dataset/transform errors: each failing sample is skipped and
    /// counted here, and delivery continues.
    pub errors: u64,
    /// Fault-containment counters: panics caught, samples poisoned,
    /// samples quarantined, batches rerouted around wedged consumers.
    pub faults: FaultStats,
    /// Current fast-queue occupancy.
    pub fast_queue_len: usize,
    /// Current slow-queue occupancy.
    pub slow_queue_len: usize,
    /// Current temp-queue occupancy (samples being completed in
    /// background).
    pub temp_queue_len: usize,
    /// Summed occupancy of all per-GPU batch queues.
    pub batch_queue_len: usize,
    /// State-mutex acquisitions by put/pop operations across all
    /// runtime queues (fast, slow, temp, batch): one per call plus one
    /// per condvar wait (see `MinatoQueue::lock_acquisitions`). Divided
    /// by `samples_done` it is the per-sample synchronization cost
    /// `benchmark`'s `queue.locks_per_sample` row reports.
    pub queue_lock_acquisitions: u64,
    /// Compatibility remnant, always 0: the frozen `benchmark/` package
    /// reads it for its `queue.cas_retries_per_sample` row. The queue
    /// has no compare-and-swap path; the field goes once the benchmark
    /// drops the row.
    pub queue_cas_retries: u64,
    /// Cross-epoch sample-cache counters; `None` when the cache is
    /// disabled (the default). With the cache enabled, `samples_done`
    /// counts pipeline *executions* — delivered-but-cached samples show
    /// up here as hits instead.
    pub cache: Option<CacheStats>,
    /// Sample buffer-pool counters (hits, misses, recycled, dropped,
    /// resident bytes) per element type; `None` when pooling is
    /// disabled (the default).
    pub pool: Option<PoolSetStats>,
    /// Executor counters for the loader's roles: per-role budget,
    /// occupancy, progressing steps, and the drain phase's steals (work
    /// run at/over budget) and role switches. Always `Some`; optional
    /// because the frozen `benchmark/` package reads it as such.
    pub exec: Option<ExecStats>,
    /// Fast-role workers currently budgeted by the scheduler.
    pub active_workers: usize,
    /// The balancer's current fast/slow cutoff (`None` = optimistic phase).
    pub timeout: Option<Duration>,
    /// Distribution of observed preprocessing times (ms).
    pub preprocess_ms: Summary,
    /// End-to-end delivery latency (ticket issue → consumer batch pop)
    /// in milliseconds. Always on — recorded per sample at `next_batch`
    /// whether or not tracing is enabled.
    pub delivery_ms: Summary,
    /// Tracing health (events recorded/dropped per worker ring); `None`
    /// when tracing is disabled.
    pub trace: Option<TraceStats>,
    /// Per-stage latency breakdown (p50/p95/p99 per pipeline step, per
    /// queue wait, plus end-to-end) folded from trace events; `None`
    /// when tracing is disabled.
    pub latency: Option<LatencyBreakdown>,
}

/// Time series recorded by the monitor thread while the loader runs —
/// the loader-side equivalent of the paper's `dstat`/`nvidia-smi` traces.
#[derive(Debug, Clone)]
pub struct MonitorTrace {
    /// Foreground preprocessing CPU utilization (% of active loader
    /// workers), per interval.
    pub cpu_pct: TimeSeries,
    /// Background slow-worker CPU utilization (% of slow workers), per
    /// interval — metered separately so loader `cpu_pct` feeds the
    /// scheduler unbiased.
    pub slow_cpu_pct: TimeSeries,
    /// Active worker count (the fast role's budget), per interval.
    pub workers: TimeSeries,
    /// Batch-queue occupancy (fraction of capacity), per interval.
    pub batch_occupancy: TimeSeries,
    /// Delivered throughput in MB/s of raw sample bytes, per interval.
    pub throughput_mbps: TimeSeries,
    /// Sample-cache hit rate (% of lookups) over each interval; stays
    /// empty when the cache is disabled.
    pub cache_hit_pct: TimeSeries,
    /// Buffer-pool hit rate (% of acquires served from recycled
    /// memory) over each interval; stays empty when pooling is
    /// disabled.
    pub pool_hit_pct: TimeSeries,
    /// Bytes resident in the pool's shared free-lists at each interval
    /// — the steady-state working set the recycle loop retains.
    pub pool_bytes: TimeSeries,
    /// Cumulative fault counters over time (`[panics, poisoned,
    /// quarantined, rerouted]`) — flat at zero on a healthy run, so a
    /// step in any series timestamps when a fault burst hit.
    pub fault_counts: [TimeSeries; 4],
    /// Cumulative trace events dropped (ring overflow + unassigned
    /// threads) over time; empty when tracing is disabled, flat at zero
    /// when every event fit its ring — a step timestamps when overload
    /// began.
    pub trace_dropped: TimeSeries,
}

impl MonitorTrace {
    /// Creates an empty trace.
    pub fn new() -> MonitorTrace {
        MonitorTrace {
            cpu_pct: TimeSeries::new("cpu_pct"),
            slow_cpu_pct: TimeSeries::new("slow_cpu_pct"),
            workers: TimeSeries::new("workers"),
            batch_occupancy: TimeSeries::new("batch_occupancy"),
            throughput_mbps: TimeSeries::new("throughput_mbps"),
            cache_hit_pct: TimeSeries::new("cache_hit_pct"),
            pool_hit_pct: TimeSeries::new("pool_hit_pct"),
            pool_bytes: TimeSeries::new("pool_bytes"),
            fault_counts: [
                TimeSeries::new("fault_panics"),
                TimeSeries::new("fault_poisoned"),
                TimeSeries::new("fault_quarantined"),
                TimeSeries::new("fault_rerouted"),
            ],
            trace_dropped: TimeSeries::new("trace_dropped"),
        }
    }
}

impl Default for MonitorTrace {
    fn default() -> Self {
        MonitorTrace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_starts_empty() {
        let t = MonitorTrace::new();
        assert!(t.cpu_pct.is_empty());
        assert!(t.slow_cpu_pct.is_empty());
        assert!(t.workers.is_empty());
        assert!(t.batch_occupancy.is_empty());
        assert!(t.throughput_mbps.is_empty());
        assert!(t.cache_hit_pct.is_empty());
        assert!(t.pool_hit_pct.is_empty());
        assert!(t.pool_bytes.is_empty());
        assert!(t.fault_counts.iter().all(|s| s.is_empty()));
        assert!(t.trace_dropped.is_empty());
    }
}
