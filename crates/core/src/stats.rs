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
    /// Batches delivered to the batch queue.
    pub batches_done: u64,
    /// Raw bytes represented by delivered samples.
    pub bytes_done: u64,
    /// Dataset/transform errors and caught panics: each failing sample
    /// is skipped and counted here, and delivery continues. Always
    /// equal to `faults.quarantined`.
    pub errors: u64,
    /// Fault-containment counters: panics caught, samples poisoned,
    /// samples quarantined.
    pub faults: FaultStats,
    /// Current temp-queue occupancy (samples being completed in
    /// background).
    pub temp_queue_len: usize,
    /// Current batch-queue occupancy (batches no GPU has popped yet).
    pub batch_queue_len: usize,
    /// State-mutex acquisitions by put/pop operations across all
    /// runtime queues (temp, batch): one per call plus one
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
    /// Executor counters for the loader's one role, `"worker"`: pool
    /// threads still running and progressing steps (`role_switches` and
    /// `steals` always read 0). Always `Some`; optional because the
    /// frozen `benchmark/` package reads it as such.
    pub exec: Option<ExecStats>,
    /// Compatibility remnant, always `max_workers`: the frozen
    /// `benchmark/` package reads it for its `scheduler.workers_mean`
    /// row. Every fast thread runs from start to end; the field goes
    /// once the benchmark drops the row.
    pub active_workers: usize,
    /// The balancer's current fast/slow cutoff (`None` = optimistic phase).
    pub timeout: Option<Duration>,
    /// Distribution of observed preprocessing times (ms). In
    /// order-preserving mode without a cache each sample counts as its
    /// claim's mean ([`SampleMeta::preprocess`](crate::batch::SampleMeta)),
    /// so the spread is between claims, not within one.
    pub preprocess_ms: Summary,
    /// End-to-end delivery latency (ticket issue → consumer batch pop)
    /// in milliseconds. Always on — recorded per sample at `next_batch`
    /// whether or not tracing is enabled. In order-preserving mode
    /// without a cache it runs from the start of the sample's claim.
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
    /// Compatibility remnant, always empty: the frozen `benchmark/`
    /// package reads it for its `scheduler.workers_mean` row (and falls
    /// back to [`LoaderStats::active_workers`] when it is empty). The
    /// loader's pool is fixed, so the monitor records no worker count;
    /// the series goes once the benchmark drops the row.
    pub workers: TimeSeries,
    /// Sample-cache hit rate (% of lookups) over each interval; stays
    /// empty when the cache is disabled.
    pub cache_hit_pct: TimeSeries,
    /// Buffer-pool hit rate (% of acquires served from recycled
    /// memory) over each interval; stays empty when pooling is
    /// disabled.
    pub pool_hit_pct: TimeSeries,
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
            workers: TimeSeries::new("workers"),
            cache_hit_pct: TimeSeries::new("cache_hit_pct"),
            pool_hit_pct: TimeSeries::new("pool_hit_pct"),
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
        assert!(t.workers.is_empty());
        assert!(t.cache_hit_pct.is_empty());
        assert!(t.pool_hit_pct.is_empty());
        assert!(t.trace_dropped.is_empty());
    }
}
