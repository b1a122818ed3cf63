//! Bounded-memory observation store with exact quantiles over the window.
//!
//! The MinatoLoader profiler (§4.2 of the paper) records per-sample
//! preprocessing times continuously during training and recomputes the
//! fast/slow cutoff (P75 by default) on demand. A full trace would grow
//! without bound for long runs, so observations are kept in a fixed-size
//! ring: quantiles are exact over the most recent `capacity` observations,
//! which also gives the profiler the windowed behaviour the paper relies on
//! to track workload drift. A quantile is taken by selection on a copy of
//! the window — O(capacity), no sort — and equals
//! [`quantile_sorted`](crate::quantile_sorted) of the sorted window.

use crate::{fraction_above, quantile_select, Summary};

/// Sliding-window observation store.
///
/// Keeps the most recent `capacity` values; [`Reservoir::quantile`] and
/// [`Reservoir::summary`] are exact over that window.
///
/// # Examples
///
/// ```
/// use minato_metrics::Reservoir;
///
/// let mut r = Reservoir::new(4);
/// for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
///     r.record(v);
/// }
/// // Window holds [2, 3, 4, 5].
/// assert_eq!(r.len(), 4);
/// assert_eq!(r.quantile(0.5), Some(3.5));
/// ```
#[derive(Debug, Clone)]
pub struct Reservoir {
    ring: Vec<f64>,
    capacity: usize,
    next: usize,
    total_seen: u64,
}

impl Reservoir {
    /// Creates a reservoir retaining the most recent `capacity` values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Reservoir {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            ring: Vec::with_capacity(capacity.min(4096)),
            capacity,
            next: 0,
            total_seen: 0,
        }
    }

    /// Records one observation, evicting the oldest if the window is full.
    ///
    /// Non-finite values are ignored (they would poison quantiles).
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.total_seen += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(value);
        } else {
            self.ring[self.next] = value;
            // A compare, not a `%`: no division per observation.
            self.next += 1;
            if self.next == self.capacity {
                self.next = 0;
            }
        }
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Maximum number of observations retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether no observation has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total observations ever recorded (including evicted ones).
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// Exact `q`-quantile over the retained window, or `None` if empty.
    ///
    /// Selects on a copy of the window ([`quantile_select`]): O(window)
    /// time, equal to [`crate::quantile_sorted`] of the sorted window.
    /// A caller that refreshes often should copy [`Reservoir::values`]
    /// into a buffer it keeps and select on that instead.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_select(&mut self.ring.clone(), q)
    }

    /// The retained observations, in ring (not arrival) order.
    pub fn values(&self) -> &[f64] {
        &self.ring
    }

    /// Full distribution summary over the retained window.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.ring)
    }

    /// Fraction of retained observations strictly greater than `threshold`.
    ///
    /// The load balancer uses this to detect mis-calibrated timeouts
    /// (too many samples classified slow → fall back to a higher
    /// percentile, §4.2).
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        fraction_above(&self.ring, threshold)
    }

    /// Clears the window (e.g., at the end of the warm-up phase).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Reservoir::new(0);
    }

    #[test]
    fn fills_then_evicts_oldest() {
        let mut r = Reservoir::new(3);
        for v in [1.0, 2.0, 3.0] {
            r.record(v);
        }
        assert_eq!(r.len(), 3);
        r.record(10.0); // Evicts 1.0.
        assert_eq!(r.len(), 3);
        assert_eq!(r.quantile(0.0), Some(2.0));
        assert_eq!(r.quantile(1.0), Some(10.0));
        assert_eq!(r.total_seen(), 4);
    }

    /// Slot `j` of the ring holds the latest of the values recorded so
    /// far that are `j` modulo the capacity: checked after every record
    /// over several laps, at the smallest capacities.
    #[test]
    fn ring_slots_hold_the_latest_value_of_their_residue_over_laps() {
        for cap in [1usize, 3] {
            let mut r = Reservoir::new(cap);
            for k in 1..=5 * cap + 1 {
                r.record((k - 1) as f64);
                let want: Vec<f64> = (0..cap.min(k))
                    .map(|j| (j + (k - 1 - j) / cap * cap) as f64)
                    .collect();
                assert_eq!(r.values(), want, "capacity {cap} after {k} records");
                assert_eq!(r.total_seen(), k as u64);
            }
        }
    }

    #[test]
    fn ignores_non_finite() {
        let mut r = Reservoir::new(4);
        r.record(f64::NAN);
        r.record(f64::NEG_INFINITY);
        assert!(r.is_empty());
        assert_eq!(r.total_seen(), 0);
    }

    #[test]
    fn fraction_above_counts_strictly_greater() {
        let mut r = Reservoir::new(8);
        for v in [1.0, 2.0, 3.0, 4.0] {
            r.record(v);
        }
        assert_eq!(r.fraction_above(2.0), 0.5);
        assert_eq!(r.fraction_above(0.0), 1.0);
        assert_eq!(r.fraction_above(4.0), 0.0);
    }

    #[test]
    fn clear_resets_window_but_not_total() {
        let mut r = Reservoir::new(2);
        r.record(1.0);
        r.record(2.0);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total_seen(), 2);
        r.record(5.0);
        assert_eq!(r.quantile(0.5), Some(5.0));
    }

    #[test]
    fn empty_reservoir_quantiles_and_summary() {
        let r = Reservoir::new(8);
        assert_eq!(r.quantile(0.0), None);
        assert_eq!(r.quantile(0.5), None);
        assert_eq!(r.quantile(1.0), None);
        let s = r.summary();
        assert_eq!(s.count, 0);
        assert_eq!(r.fraction_above(0.0), 0.0);
    }

    #[test]
    fn single_sample_quantiles_collapse_to_it() {
        let mut r = Reservoir::new(8);
        r.record(42.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(r.quantile(q), Some(42.0), "q={q}");
        }
        let s = r.summary();
        assert_eq!((s.count, s.median, s.p99), (1, 42.0, 42.0));
    }

    #[test]
    fn saturated_window_keeps_exact_quantiles_over_recent_values() {
        // Fill far past capacity: quantiles must be exact over exactly
        // the last `capacity` observations, with eviction in FIFO order.
        let mut r = Reservoir::new(100);
        for v in 0..1000 {
            r.record(v as f64);
        }
        assert_eq!(r.len(), 100);
        assert_eq!(r.total_seen(), 1000);
        assert_eq!(r.quantile(0.0), Some(900.0));
        assert_eq!(r.quantile(1.0), Some(999.0));
        // Window is [900, 999]: type-7 median is 949.5.
        assert_eq!(r.quantile(0.5), Some(949.5));
    }

    #[test]
    fn window_quantile_tracks_drift() {
        // Workload drift: early samples fast, later samples slow. A small
        // window must track the recent (slow) regime.
        let mut r = Reservoir::new(10);
        for _ in 0..100 {
            r.record(1.0);
        }
        for _ in 0..10 {
            r.record(100.0);
        }
        assert_eq!(r.quantile(0.5), Some(100.0));
    }
}
