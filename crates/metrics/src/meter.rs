//! Busy-time utilization accounting.
//!
//! The paper measures GPU utilization with `nvidia-smi` and CPU utilization
//! with `dstat`. Neither applies to an instrumented Rust runtime, so
//! utilization is derived from first principles instead: every worker (or
//! simulated device) reports the nanoseconds it spent busy, and utilization
//! over an interval is `busy / (interval × workers)`. The meter keeps the
//! cumulative busy time only; a monitor reads [`UtilizationMeter::busy_ns`]
//! each tick and divides the delta by its own interval and by the workers
//! it counts as active.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Accumulates busy time across many workers.
///
/// Thread-safe and lock-free; workers call [`UtilizationMeter::add_busy`]
/// from the hot path, a monitor thread reads [`UtilizationMeter::busy_ns`]
/// on its sampling interval.
///
/// # Examples
///
/// ```
/// use minato_metrics::UtilizationMeter;
/// use std::time::Duration;
///
/// let m = UtilizationMeter::new();
/// let before = m.busy_ns();
/// m.add_busy(Duration::from_millis(500));
/// m.add_busy(Duration::from_millis(500));
/// // One second of busy time in this window, whichever worker spent it.
/// assert_eq!(m.busy_ns() - before, 1_000_000_000);
/// ```
#[derive(Debug, Default)]
pub struct UtilizationMeter {
    busy_ns: AtomicU64,
}

impl UtilizationMeter {
    /// Creates a meter with no busy time recorded.
    pub fn new() -> UtilizationMeter {
        UtilizationMeter::default()
    }

    /// Records `busy` time spent working by one worker.
    pub fn add_busy(&self, busy: Duration) {
        self.busy_ns
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Cumulative busy time in nanoseconds since creation.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_sampling_consumes_busy_time() {
        let m = UtilizationMeter::new();
        m.add_busy(Duration::from_secs(1));
        let first = m.busy_ns();
        assert_eq!(first, 1_000_000_000);
        // No new busy time: the next window's delta is zero.
        assert_eq!(m.busy_ns() - first, 0);
    }
}
