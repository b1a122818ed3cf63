//! Distribution summary matching the paper's Table 2 columns.

use crate::quantile_sorted;

/// Summary statistics of a set of observations.
///
/// Mirrors the columns of Table 2 in the paper: average, median, 75th and
/// 90th percentile, minimum, maximum, and standard deviation. All values are
/// in the unit of the input observations (the paper uses milliseconds).
///
/// # Examples
///
/// ```
/// use minato_metrics::Summary;
///
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]);
/// assert_eq!(s.count, 5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 100.0);
/// assert!((s.avg - 22.0).abs() < 1e-9);
/// assert_eq!(s.median, 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub avg: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl Summary {
    /// An all-zero summary describing an empty set of observations.
    pub const EMPTY: Summary = Summary {
        count: 0,
        avg: 0.0,
        median: 0.0,
        p75: 0.0,
        p90: 0.0,
        p99: 0.0,
        min: 0.0,
        max: 0.0,
        std: 0.0,
    };

    /// Computes the summary of `values`.
    ///
    /// Non-finite values are ignored. Returns [`Summary::EMPTY`] when no
    /// finite value is present.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return Summary::EMPTY;
        }
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let sum: f64 = sorted.iter().sum();
        let avg = sum / count as f64;
        let var = sorted.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / count as f64;
        // `quantile_sorted` only returns `None` for empty input, which was
        // handled above.
        let q = |p: f64| quantile_sorted(&sorted, p).unwrap_or(0.0);
        Summary {
            count,
            avg,
            median: q(0.50),
            p75: q(0.75),
            p90: q(0.90),
            p99: q(0.99),
            min: sorted[0],
            max: sorted[count - 1],
            std: var.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_summary() {
        assert_eq!(Summary::of(&[]), Summary::EMPTY);
        assert_eq!(Summary::of(&[f64::NAN, f64::INFINITY]), Summary::EMPTY);
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[5.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.avg, 5.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.p90, 5.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn known_distribution() {
        // 1..=100: avg 50.5, median 50.5, min 1, max 100.
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs);
        assert!((s.avg - 50.5).abs() < 1e-9);
        assert!((s.median - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        // Population std of 1..100 is sqrt((100^2-1)/12) ≈ 28.866.
        assert!((s.std - 28.866).abs() < 1e-2);
        assert!((s.p90 - 90.1).abs() < 1e-9);
    }

    #[test]
    fn ignores_nan_values() {
        let s = Summary::of(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.count, 2);
        assert_eq!(s.avg, 2.0);
    }

    #[test]
    fn unsorted_input_is_sorted_internally() {
        let s = Summary::of(&[9.0, 1.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 5.0);
    }
}
