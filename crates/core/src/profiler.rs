//! Lightweight preprocessing profiler (paper §4.2).
//!
//! During the warm-up phase the profiler collects each sample's total
//! preprocessing time. At the end of warm-up the load balancer derives the
//! fast/slow cutoff from the 75th percentile of total times. Profiling then
//! continues in the background over a sliding window so the timeout tracks
//! workload drift.
//!
//! # Cost model
//!
//! Recording is the per-sample path: one acquisition of the profiler
//! lock per [`Profiler::record`], or per ticket chunk with
//! [`Profiler::record_many`], and one ring store per observation. The
//! percentile queries are the per-refresh path: each copies the window
//! under the lock and selects on the copy (O(window), no sort). The
//! balancer, which refreshes once at the end of warm-up and then once per
//! monitor tick, takes one copy per refresh into a buffer it keeps
//! ([`Profiler::copy_window_into`]) and runs all of its queries on that
//! ([`Window`]), outside the lock.

use minato_metrics::{fraction_above, quantile_select, Reservoir, Summary};
use parking_lot::Mutex;
use std::time::Duration;

/// One profiled preprocessing execution.
#[derive(Debug, Clone)]
pub struct SampleRecord {
    /// Total wall time spent preprocessing the sample.
    pub total: Duration,
}

impl SampleRecord {
    /// Record of an execution that took `total`.
    pub fn total_only(total: Duration) -> SampleRecord {
        SampleRecord { total }
    }
}

#[derive(Debug)]
struct ProfilerInner {
    totals_ms: Reservoir,
}

fn to_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timeout_from_ms(ms: f64) -> Duration {
    Duration::from_secs_f64((ms / 1e3).max(0.0))
}

/// A copy of the profiler's window of total times, on which the
/// percentile queries run without the profiler lock (see
/// [`Profiler::copy_window_into`]). Each query gives exactly what the
/// [`Profiler`] method of the same name gives on the same observations.
#[derive(Debug, Default)]
pub struct Window {
    totals_ms: Vec<f64>,
}

impl Window {
    /// [`Profiler::timeout_at_percentile`] over the copied window.
    /// Reorders the copy (selection), which no query depends on.
    pub fn timeout_at_percentile(&mut self, p: f64) -> Option<Duration> {
        quantile_select(&mut self.totals_ms, p).map(timeout_from_ms)
    }

    /// [`Profiler::fraction_slower_than`] over the copied window.
    pub fn fraction_slower_than(&self, timeout: Duration) -> f64 {
        fraction_above(&self.totals_ms, to_ms(timeout))
    }
}

/// Thread-safe profiling statistics store.
///
/// # Examples
///
/// ```
/// use minato_core::profiler::{Profiler, SampleRecord};
/// use std::time::Duration;
///
/// let p = Profiler::new(4096);
/// for ms in [5, 10, 100] {
///     p.record(&SampleRecord::total_only(Duration::from_millis(ms)));
/// }
/// assert_eq!(p.samples_seen(), 3);
/// assert!(p.timeout_at_percentile(0.5).unwrap() >= Duration::from_millis(10));
/// ```
#[derive(Debug)]
pub struct Profiler {
    inner: Mutex<ProfilerInner>,
}

impl Profiler {
    /// Creates a profiler retaining up to `window` observations.
    pub fn new(window: usize) -> Profiler {
        Profiler {
            inner: Mutex::new(ProfilerInner {
                totals_ms: Reservoir::new(window.max(1)),
            }),
        }
    }

    /// Records one preprocessing execution.
    // minato-verify: hot-path
    pub fn record(&self, rec: &SampleRecord) {
        self.inner.lock().totals_ms.record(to_ms(rec.total));
    }

    /// Records the total times of several executions under one lock
    /// acquisition (a fast worker's ticket chunk).
    // minato-verify: hot-path
    pub fn record_many(&self, totals: &[Duration]) {
        let mut g = self.inner.lock();
        for &total in totals {
            g.totals_ms.record(to_ms(total));
        }
    }

    /// Total executions ever recorded.
    pub fn samples_seen(&self) -> u64 {
        self.inner.lock().totals_ms.total_seen()
    }

    /// The timeout implied by the `p`-percentile of observed total times,
    /// or `None` before any data.
    pub fn timeout_at_percentile(&self, p: f64) -> Option<Duration> {
        self.inner.lock().totals_ms.quantile(p).map(timeout_from_ms)
    }

    /// Fraction of observed totals exceeding `timeout`.
    pub fn fraction_slower_than(&self, timeout: Duration) -> f64 {
        self.inner.lock().totals_ms.fraction_above(to_ms(timeout))
    }

    /// Replaces `out` with a copy of the current window of total times:
    /// one lock acquisition and one copy, after which any number of
    /// percentile queries run on `out` without blocking recorders. `out`
    /// keeps its allocation, so a caller that reuses it allocates once.
    pub fn copy_window_into(&self, out: &mut Window) {
        out.totals_ms.clear();
        out.totals_ms
            .extend_from_slice(self.inner.lock().totals_ms.values());
    }

    /// Distribution summary of total preprocessing times, in milliseconds
    /// (the paper's Table 2 row for the workload).
    pub fn summary_ms(&self) -> Summary {
        self.inner.lock().totals_ms.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_timeout_reflects_distribution() {
        let p = Profiler::new(1024);
        // 75 fast samples at 10ms, 25 slow at 1000ms: P75 sits at the
        // boundary, P90 well into the slow set.
        for _ in 0..75 {
            p.record(&SampleRecord::total_only(Duration::from_millis(10)));
        }
        for _ in 0..25 {
            p.record(&SampleRecord::total_only(Duration::from_millis(1000)));
        }
        let t75 = p.timeout_at_percentile(0.75).unwrap();
        assert!(t75 <= Duration::from_millis(1000));
        let t90 = p.timeout_at_percentile(0.90).unwrap();
        assert_eq!(t90, Duration::from_millis(1000));
        assert!((p.fraction_slower_than(Duration::from_millis(500)) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn no_data_yields_none() {
        let p = Profiler::new(8);
        assert!(p.timeout_at_percentile(0.75).is_none());
        assert_eq!(p.fraction_slower_than(Duration::from_millis(1)), 0.0);
    }

    #[test]
    fn summary_in_milliseconds() {
        let p = Profiler::new(16);
        p.record(&SampleRecord::total_only(Duration::from_millis(500)));
        let s = p.summary_ms();
        assert!((s.avg - 500.0).abs() < 1.0);
    }
}
