//! Measurement substrate for the MinatoLoader reproduction.
//!
//! This crate provides the statistics the paper reports on:
//!
//! * [`Summary`] — the Avg/Med/P75/P90/Min–Max–Std rows of Table 2,
//! * [`Reservoir`] — bounded-memory sample collection with exact quantiles
//!   over the retained window (used by the load-balancer profiler),
//! * [`TimeSeries`] — utilization and throughput traces (Figures 1b, 3, 7,
//!   8, 10),
//! * [`UtilizationMeter`] — busy-time accounting standing in for
//!   `nvidia-smi`/`dstat`,
//! * [`MovingAverage`] — the moving queue-occupancy average used by the
//!   worker scheduler (paper Formula 2),
//! * [`LogHistogram`] — power-of-two-bucketed latency distribution the
//!   `minato-trace` collector folds lifecycle events into,
//! * [`table`] — plain-text table/CSV rendering for the experiment
//!   harnesses.
//!
//! Everything here is deterministic and allocation-conscious; the hot-path
//! types ([`UtilizationMeter`], [`Counter`]) are lock-free so loader workers
//! can record without contending.

pub mod counter;
pub mod ewma;
pub mod loghist;
pub mod meter;
pub mod reservoir;
pub mod summary;
pub mod table;
pub mod timeseries;

pub use counter::Counter;
pub use ewma::MovingAverage;
pub use loghist::LogHistogram;
pub use meter::UtilizationMeter;
pub use reservoir::Reservoir;
pub use summary::Summary;
pub use timeseries::TimeSeries;

/// Computes the `q`-quantile (0.0–1.0) of `sorted` using linear
/// interpolation between order statistics on a pre-sorted slice.
///
/// Returns `None` on an empty slice. `q` outside `[0, 1]` is clamped.
///
/// # Examples
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(minato_metrics::quantile_sorted(&xs, 0.5), Some(2.5));
/// assert_eq!(minato_metrics::quantile_sorted(&xs, 1.0), Some(4.0));
/// ```
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    // Linear interpolation between adjacent order statistics (the "type 7"
    // estimator used by NumPy's default).
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// [`quantile_sorted`] of `values` without sorting them: one
/// `select_nth_unstable` pass finds the lower order statistic, and the
/// minimum of the partition to its right is the next one up, so the
/// result is bit-identical to sorting first. O(n) time, no allocation;
/// `values` is left partitioned around the quantile, not sorted.
///
/// # Examples
///
/// ```
/// let mut xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(minato_metrics::quantile_select(&mut xs, 0.5), Some(2.5));
/// ```
pub fn quantile_select(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let (_, &mut at_lo, right) = values.select_nth_unstable_by(lo, f64::total_cmp);
    let frac = pos - lo as f64;
    if frac == 0.0 {
        return Some(at_lo);
    }
    // A fractional `pos` lies below the last index, so `right` holds
    // at least the next order statistic.
    let at_hi = right.iter().copied().min_by(f64::total_cmp)?;
    Some(at_lo * (1.0 - frac) + at_hi * frac)
}

/// Fraction of `values` strictly greater than `threshold` (0 when
/// empty).
pub fn fraction_above(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let above = values.iter().filter(|&&v| v > threshold).count();
    above as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::quantile_sorted;

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile_sorted(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile_sorted(&[7.0], 0.5), Some(7.0));
        assert_eq!(quantile_sorted(&[7.0], 1.0), Some(7.0));
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile_sorted(&xs, 0.25), Some(2.5));
        assert_eq!(quantile_sorted(&xs, 0.75), Some(7.5));
    }

    #[test]
    fn quantile_clamps_out_of_range() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(quantile_sorted(&xs, -1.0), Some(1.0));
        assert_eq!(quantile_sorted(&xs, 2.0), Some(3.0));
    }
}
