//! Sampled time series for utilization/throughput traces.
//!
//! Figures 1b, 3, 7, 8 and 10 of the paper are time-series plots (CPU%,
//! GPU%, MB/s, GB/s over seconds). [`TimeSeries`] is the in-memory
//! representation the simulator produces, rendered by the bench
//! harnesses as CSV or sparkline-style rows.

/// A `(time_seconds, value)` series with append-only semantics.
///
/// # Examples
///
/// ```
/// use minato_metrics::TimeSeries;
///
/// let mut ts = TimeSeries::new("gpu_pct");
/// ts.push(0.0, 10.0);
/// ts.push(1.0, 90.0);
/// assert_eq!(ts.mean(), 50.0);
/// assert_eq!(ts.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    name: String,
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series labelled `name`.
    pub fn new(name: impl Into<String>) -> TimeSeries {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Series label (used as a CSV column header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample. Times should be non-decreasing; out-of-order
    /// samples are accepted as given.
    pub fn push(&mut self, time_s: f64, value: f64) {
        self.times.push(time_s);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample timestamps in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Arithmetic mean of the values; 0.0 when empty.
    ///
    /// This is the "avg: 57.4%" style figure the paper annotates its usage
    /// plots with.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Maximum value; 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Downsamples to at most `max_points` samples by striding, preserving
    /// the final sample. Used to keep harness output readable.
    pub fn downsample(&self, max_points: usize) -> TimeSeries {
        if max_points == 0 || self.len() <= max_points {
            return self.clone();
        }
        let stride = self.len().div_ceil(max_points);
        let mut out = TimeSeries::new(self.name.clone());
        let mut i = 0;
        while i < self.len() {
            out.push(self.times[i], self.values[i]);
            i += stride;
        }
        let last = self.len() - 1;
        if out.times.last() != Some(&self.times[last]) {
            out.push(self.times[last], self.values[last]);
        }
        out
    }

    /// Renders a compact unicode sparkline of the values (for terminal
    /// harness output), scaled to the series max.
    pub fn sparkline(&self, width: usize) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.is_empty() || width == 0 {
            return String::new();
        }
        let ds = self.downsample(width);
        let max = ds.max().max(f64::MIN_POSITIVE);
        ds.values()
            .iter()
            .map(|v| {
                let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_stats() {
        let ts = TimeSeries::new("x");
        assert_eq!(ts.mean(), 0.0);
        assert_eq!(ts.max(), 0.0);
        assert!(ts.is_empty());
    }

    #[test]
    fn mean_and_max() {
        let mut ts = TimeSeries::new("x");
        ts.push(0.0, 1.0);
        ts.push(1.0, 3.0);
        assert_eq!(ts.mean(), 2.0);
        assert_eq!(ts.max(), 3.0);
    }

    #[test]
    fn monotonic_invariant_under_monitor_style_appends() {
        // A sampler appends with a strictly advancing clock; downsampling and equal timestamps must both preserve
        // the monotonic invariant the trace series rely on.
        let mut ts = TimeSeries::new("x");
        for i in 0..50 {
            ts.push(i as f64 * 0.5, (i % 7) as f64);
        }
        ts.push(24.5, 0.0); // Equal timestamps are still monotonic.
        let monotonic = |ts: &TimeSeries| ts.times().windows(2).all(|w| w[0] <= w[1]);
        assert!(monotonic(&ts));
        assert!(monotonic(&ts.downsample(8)));
    }

    #[test]
    fn downsample_preserves_endpoints() {
        let mut ts = TimeSeries::new("x");
        for i in 0..100 {
            ts.push(i as f64, i as f64);
        }
        let ds = ts.downsample(10);
        assert!(ds.len() <= 11);
        assert_eq!(ds.times()[0], 0.0);
        assert_eq!(*ds.times().last().expect("non-empty"), 99.0);
    }

    #[test]
    fn downsample_noop_when_small() {
        let mut ts = TimeSeries::new("x");
        ts.push(0.0, 5.0);
        let ds = ts.downsample(10);
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn sparkline_has_requested_width_bound() {
        let mut ts = TimeSeries::new("x");
        for i in 0..1000 {
            ts.push(i as f64, (i % 10) as f64);
        }
        let s = ts.sparkline(40);
        assert!(s.chars().count() <= 41);
        assert!(!s.is_empty());
    }
}
