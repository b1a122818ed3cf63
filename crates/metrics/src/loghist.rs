//! Log-bucketed latency histogram for the tracing collector.
//!
//! Latencies span six orders of magnitude (sub-microsecond queue hops to
//! multi-second slow samples), so a fixed-width histogram either loses the
//! tail or the head. [`LogHistogram`] buckets by
//! `floor(log2(ns))`: 64 power-of-two buckets cover the whole `u64`
//! nanosecond range with bounded (~2x) relative error, in constant memory,
//! with allocation-free recording — the properties the per-stage latency
//! breakdown of `minato-trace` needs when folding millions of events.

/// Number of power-of-two buckets (one per possible `ilog2` of a `u64`).
pub const LOG_BUCKETS: usize = 64;

/// A fixed-memory histogram with power-of-two bucket boundaries.
///
/// Values are `u64` (by convention nanoseconds). Bucket `0` holds `0` and
/// `1`; bucket `b > 0` holds `[2^b, 2^(b+1))`. Quantiles interpolate
/// linearly inside the containing bucket.
///
/// # Examples
///
/// ```
/// use minato_metrics::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for ns in [100, 200, 400, 800, 100_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 5);
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((128.0..512.0).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: [u64; LOG_BUCKETS],
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: [0; LOG_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Index of the bucket holding `value`: `floor(log2(value))`, with
    /// `0` mapping to bucket 0.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            value.ilog2() as usize
        }
    }

    /// Lower bound (inclusive) of bucket `b`.
    pub fn bucket_lo(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << b
        }
    }

    /// Upper bound (exclusive) of bucket `b`; saturates at `u64::MAX`
    /// for the last bucket.
    pub fn bucket_hi(b: usize) -> u64 {
        if b >= LOG_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << (b + 1)
        }
    }

    /// Records one observation. Never allocates.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Arithmetic mean of recorded values; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Per-bucket counts (index = `bucket_of(value)`).
    pub fn buckets(&self) -> &[u64; LOG_BUCKETS] {
        &self.counts
    }

    /// Estimated `q`-quantile (clamped to `[0, 1]`), or `None` when
    /// empty.
    ///
    /// The containing bucket is found by cumulative count; the value is
    /// interpolated linearly inside the bucket's `[lo, hi)` range, and
    /// clamped to the observed min/max so estimates never leave the
    /// recorded value range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Continuous rank in [0, total - 1].
        let rank = q * (self.total - 1) as f64;
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let end = cum + c;
            if rank < end as f64 {
                let lo = Self::bucket_lo(b) as f64;
                let hi = Self::bucket_hi(b) as f64;
                // Midpoint-of-slot interpolation within the bucket.
                let frac = ((rank - cum as f64) + 0.5) / c as f64;
                let est = lo + (hi - lo) * frac.clamp(0.0, 1.0);
                return Some(est.clamp(self.min as f64, self.max as f64));
            }
            cum = end;
        }
        // Unreachable with total > 0; fall back to the max.
        Some(self.max as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // The exact boundary values the collector's stage histograms
        // lean on: 0 and 1 share bucket 0; 2^k opens bucket k; 2^k - 1
        // stays in bucket k - 1.
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(4), 2);
        for k in 2..64 {
            let p = 1u64 << k;
            assert_eq!(LogHistogram::bucket_of(p), k as usize, "2^{k}");
            assert_eq!(LogHistogram::bucket_of(p - 1), k as usize - 1, "2^{k}-1");
        }
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 63);
        assert_eq!(LogHistogram::bucket_hi(63), u64::MAX);
        assert_eq!(LogHistogram::bucket_lo(0), 0);
        assert_eq!(LogHistogram::bucket_hi(0), 2);
    }

    #[test]
    fn single_sample_quantiles_stay_on_the_sample() {
        let mut h = LogHistogram::new();
        h.record(1000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).expect("non-empty");
            assert_eq!(v, 1000.0, "q={q} clamps to the only observation");
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 17);
        }
        let mut prev = 0.0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile(q).expect("non-empty");
            assert!(v >= prev, "quantiles must be monotone");
            assert!((17.0..=17_000.0).contains(&v), "q={q} out of range: {v}");
            prev = v;
        }
        // Relative error of the median is bounded by the bucket width.
        let p50 = h.quantile(0.5).expect("non-empty");
        let exact = 500.0 * 17.0;
        assert!(p50 / exact < 2.1 && exact / p50 < 2.1, "p50={p50}");
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert!(h.quantile(1.0).expect("non-empty") <= u64::MAX as f64);
    }
}
