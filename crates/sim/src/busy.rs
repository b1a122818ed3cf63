//! Busy-interval accounting → per-second utilization/throughput series.
//!
//! The simulator records resource activity as `(start, end)` intervals;
//! this module buckets them into fixed-width bins so harnesses can emit
//! the paper's per-second CPU%/GPU%/GB/s traces.

use crate::time::{SimDuration, SimTime};
use minato_metrics::TimeSeries;

/// Accumulates (optionally weighted) busy intervals into fixed buckets.
#[derive(Debug, Clone)]
pub struct IntervalAccumulator {
    bucket: SimDuration,
    /// Busy-seconds (or weight-units) per bucket.
    buckets: Vec<f64>,
}

impl IntervalAccumulator {
    /// Creates an accumulator with `bucket`-wide bins.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> IntervalAccumulator {
        assert!(bucket.0 > 0, "bucket width must be positive");
        IntervalAccumulator {
            bucket,
            buckets: Vec::new(),
        }
    }

    /// Records a busy interval `[start, end)`.
    pub fn add(&mut self, start: SimTime, end: SimTime) {
        self.add_weighted(start, end, 1.0);
    }

    /// Records an interval carrying `weight` units spread uniformly over
    /// it (e.g., bytes for disk-throughput traces). For `weight = 1.0`
    /// the units are busy-seconds.
    pub fn add_weighted(&mut self, start: SimTime, end: SimTime, weight: f64) {
        if end <= start {
            return;
        }
        let span = (end - start).as_secs_f64();
        let rate = weight / span; // Units per second, uniform.
        let bw = self.bucket.as_secs_f64();
        let first = (start.0 / self.bucket.0) as usize;
        let last = ((end.0 - 1) / self.bucket.0) as usize;
        if self.buckets.len() <= last {
            self.buckets.resize(last + 1, 0.0);
        }
        for b in first..=last {
            let b_start = b as f64 * bw;
            let b_end = b_start + bw;
            let overlap =
                (end.as_secs_f64().min(b_end) - start.as_secs_f64().max(b_start)).max(0.0);
            // For weight = 1: overlap seconds of busy time. Otherwise:
            // rate × overlap units.
            self.buckets[b] += if (weight - 1.0).abs() < f64::EPSILON && span > 0.0 {
                overlap
            } else {
                rate * overlap
            };
        }
    }

    /// Total accumulated units.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Converts to a utilization-percent time series given `slots`
    /// parallel servers (100% = all slots busy for a whole bucket).
    pub fn to_utilization_series(&self, name: &str, slots: usize) -> TimeSeries {
        let mut ts = TimeSeries::new(name);
        let bw = self.bucket.as_secs_f64();
        let cap = bw * slots.max(1) as f64;
        for (i, &busy) in self.buckets.iter().enumerate() {
            ts.push(i as f64 * bw, (busy / cap * 100.0).clamp(0.0, 100.0));
        }
        ts
    }

    /// Converts to a rate series in `units/second` (e.g., bytes per
    /// second when intervals were weighted with bytes).
    pub fn to_rate_series(&self, name: &str) -> TimeSeries {
        let mut ts = TimeSeries::new(name);
        let bw = self.bucket.as_secs_f64();
        for (i, &units) in self.buckets.iter().enumerate() {
            ts.push(i as f64 * bw, units / bw);
        }
        ts
    }

    /// Number of buckets with any recorded activity span.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// Records instantaneous counter values into a time series (e.g., bytes
/// trained so far → MB/s throughput per bucket).
#[derive(Debug, Clone)]
pub struct CounterSeries {
    bucket: SimDuration,
    /// Units per bucket.
    buckets: Vec<f64>,
}

impl CounterSeries {
    /// Creates a counter series with `bucket`-wide bins.
    pub fn new(bucket: SimDuration) -> CounterSeries {
        assert!(bucket.0 > 0, "bucket width must be positive");
        CounterSeries {
            bucket,
            buckets: Vec::new(),
        }
    }

    /// Records `units` occurring at time `at`.
    pub fn add(&mut self, at: SimTime, units: f64) {
        let b = (at.0 / self.bucket.0) as usize;
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0.0);
        }
        self.buckets[b] += units;
    }

    /// Converts to a rate series (`units/second` per bucket).
    pub fn to_rate_series(&self, name: &str) -> TimeSeries {
        let mut ts = TimeSeries::new(name);
        let bw = self.bucket.as_secs_f64();
        for (i, &units) in self.buckets.iter().enumerate() {
            ts.push(i as f64 * bw, units / bw);
        }
        ts
    }

    /// Total units recorded.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: SimDuration = SimDuration(1_000_000_000);

    #[test]
    fn interval_splits_across_buckets() {
        let mut a = IntervalAccumulator::new(SEC);
        // Busy from 0.5s to 2.5s: buckets get 0.5, 1.0, 0.5.
        a.add(SimTime::from_secs_f64(0.5), SimTime::from_secs_f64(2.5));
        let ts = a.to_utilization_series("u", 1);
        let v = ts.values();
        assert!((v[0] - 50.0).abs() < 1e-6);
        assert!((v[1] - 100.0).abs() < 1e-6);
        assert!((v[2] - 50.0).abs() < 1e-6);
        assert!((a.total() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_interval_spreads_bytes() {
        let mut a = IntervalAccumulator::new(SEC);
        // 10 MB over 2 seconds → 5 MB/s in each bucket.
        a.add_weighted(SimTime::ZERO, SimTime::from_secs_f64(2.0), 10e6);
        let ts = a.to_rate_series("bps");
        assert!((ts.values()[0] - 5e6).abs() < 1.0);
        assert!((ts.values()[1] - 5e6).abs() < 1.0);
    }

    #[test]
    fn empty_interval_ignored() {
        let mut a = IntervalAccumulator::new(SEC);
        a.add(SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(1.0));
        assert!(a.is_empty());
    }

    #[test]
    fn utilization_capped_by_slots() {
        let mut a = IntervalAccumulator::new(SEC);
        // Two servers busy the full first second.
        a.add(SimTime::ZERO, SimTime::from_secs_f64(1.0));
        a.add(SimTime::ZERO, SimTime::from_secs_f64(1.0));
        let one = a.to_utilization_series("u", 1);
        assert_eq!(one.values()[0], 100.0); // Clamped.
        let two = a.to_utilization_series("u", 2);
        assert!((two.values()[0] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn counter_series_rates() {
        let mut c = CounterSeries::new(SEC);
        c.add(SimTime::from_secs_f64(0.2), 100.0);
        c.add(SimTime::from_secs_f64(0.8), 100.0);
        c.add(SimTime::from_secs_f64(1.5), 50.0);
        let ts = c.to_rate_series("r");
        assert!((ts.values()[0] - 200.0).abs() < 1e-9);
        assert!((ts.values()[1] - 50.0).abs() < 1e-9);
        assert!((c.total() - 250.0).abs() < 1e-9);
    }
}
