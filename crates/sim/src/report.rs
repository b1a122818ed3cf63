//! Simulation results in the shape the paper reports them.

use crate::policy::Policy;
use minato_metrics::TimeSeries;

/// Outcome of one simulated training run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The loader this run simulated.
    pub policy: Policy,
    /// End-to-end training time in (virtual) seconds.
    pub train_time_s: f64,
    /// Average GPU utilization (%) over the run. For CPU-side loaders
    /// this is training occupancy; for DALI it includes preprocessing.
    pub gpu_util_pct: f64,
    /// Average GPU utilization spent on *training only* (%).
    pub gpu_train_pct: f64,
    /// Average preprocessing-CPU utilization (%).
    pub cpu_util_pct: f64,
    /// Per-second GPU utilization trace.
    pub gpu_series: TimeSeries,
    /// Per-second CPU utilization trace.
    pub cpu_series: TimeSeries,
    /// Per-second disk-read throughput (bytes/s).
    pub disk_series: TimeSeries,
    /// Per-second trained-data throughput (MB/s, raw sample bytes).
    pub throughput_series: TimeSeries,
    /// Batches trained.
    pub batches: usize,
    /// Samples trained.
    pub samples: usize,
    /// Samples classified slow (0 for baselines without classification).
    pub slow_flagged: usize,
    /// Per-batch count of slow samples (Figure 11b/c); slow is defined by
    /// the same P75 ground-truth threshold for every loader so
    /// compositions are comparable.
    pub batch_slow_counts: Vec<usize>,
    /// Completion time (s) of each batch, aligned with
    /// `batch_slow_counts`.
    pub batch_end_times: Vec<f64>,
    /// Whether buffering exceeded host RAM (Figure 4a's OOM hazard).
    pub host_oom: bool,
    /// Whether buffering exceeded GPU memory (Figure 4b's hazard).
    pub gpu_oom: bool,
    /// Bytes read from disk (vs served from page cache).
    pub bytes_from_disk: u64,
    /// Bytes served from the page cache.
    pub bytes_from_cache: u64,
}

impl SimReport {
    /// Average trained-data throughput over the whole run, MB/s.
    pub fn avg_throughput_mbps(&self) -> f64 {
        self.throughput_series.mean()
    }

    /// Distribution of batches by number of slow samples, normalized
    /// (Figure 11b): index `i` = fraction of batches containing exactly
    /// `i` slow samples, up to `max_slow`.
    pub fn batch_slow_distribution(&self, max_slow: usize) -> Vec<f64> {
        let mut counts = vec![0usize; max_slow + 1];
        for &c in &self.batch_slow_counts {
            counts[c.min(max_slow)] += 1;
        }
        let total = self.batch_slow_counts.len().max(1) as f64;
        counts.iter().map(|&c| c as f64 / total).collect()
    }

    /// Mean fraction of slow samples per batch (Figure 11c's dashed
    /// line), given the batch size.
    pub fn mean_slow_proportion(&self, batch_size: usize) -> f64 {
        if self.batch_slow_counts.is_empty() || batch_size == 0 {
            return 0.0;
        }
        self.batch_slow_counts
            .iter()
            .map(|&c| c as f64 / batch_size as f64)
            .sum::<f64>()
            / self.batch_slow_counts.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> SimReport {
        SimReport {
            policy: Policy::Torch,
            train_time_s: 0.0,
            gpu_util_pct: 0.0,
            gpu_train_pct: 0.0,
            cpu_util_pct: 0.0,
            gpu_series: TimeSeries::new("g"),
            cpu_series: TimeSeries::new("c"),
            disk_series: TimeSeries::new("d"),
            throughput_series: TimeSeries::new("t"),
            batches: 0,
            samples: 0,
            slow_flagged: 0,
            batch_slow_counts: vec![],
            batch_end_times: vec![],
            host_oom: false,
            gpu_oom: false,
            bytes_from_disk: 0,
            bytes_from_cache: 0,
        }
    }

    #[test]
    fn slow_distribution_normalizes() {
        let mut r = blank();
        r.batch_slow_counts = vec![0, 0, 1, 2, 9];
        let d = r.batch_slow_distribution(4);
        assert!((d[0] - 0.4).abs() < 1e-9);
        assert!((d[1] - 0.2).abs() < 1e-9);
        assert!((d[2] - 0.2).abs() < 1e-9);
        assert!((d[4] - 0.2).abs() < 1e-9, "overflow folded into last bin");
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mean_slow_proportion_basic() {
        let mut r = blank();
        r.batch_slow_counts = vec![0, 2, 2];
        assert!((r.mean_slow_proportion(4) - (0.0 + 0.5 + 0.5) / 3.0).abs() < 1e-9);
        assert_eq!(blank().mean_slow_proportion(4), 0.0);
    }
}
