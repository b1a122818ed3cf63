//! Loader policies as simulation processes.
//!
//! The two engines differ in how samples become batches; what happens
//! around that — the ticket stream they draw from, the GPUs consuming
//! batches, and the report built from the run — is stated once here.

pub mod inorder;
pub mod minato;

pub use inorder::simulate_inorder;
pub use minato::{simulate_minato, ClassifyMode};

use crate::busy::{CounterSeries, IntervalAccumulator};
use crate::config::SimConfig;
use crate::report::SimReport;
use crate::resources::{Gpu, Storage};
use crate::time::{SimDuration, SimTime};
use minato_metrics::TimeSeries;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

/// The run's ticket stream: dataset indices shuffled per epoch, like the
/// loaders request data.
fn shuffled_tickets(cfg: &SimConfig) -> Vec<usize> {
    let total_samples = cfg.total_samples();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut tickets: Vec<usize> = Vec::with_capacity(total_samples);
    while tickets.len() < total_samples {
        let mut epoch: Vec<usize> = (0..cfg.dataset_len()).collect();
        epoch.shuffle(&mut rng);
        tickets.extend(epoch);
    }
    tickets.truncate(total_samples);
    tickets
}

/// What an assembled batch carries to its GPU.
#[derive(Debug, Clone, Default)]
struct BatchStats {
    len: usize,
    slow: usize,
    bytes: u64,
}

/// The consuming side of a run: the GPUs and the record of what they
/// trained.
struct Trainer {
    gpus: Vec<Gpu>,
    step: SimDuration,
    trained: CounterSeries,
    batch_slow_counts: Vec<usize>,
    batch_end_times: Vec<f64>,
    batches: usize,
    samples: usize,
    last_step_end: SimTime,
}

impl Trainer {
    fn new(cfg: &SimConfig) -> Trainer {
        Trainer {
            gpus: (0..cfg.n_gpus).map(|_| Gpu::new(cfg.bucket)).collect(),
            step: SimDuration::from_ms_f64(cfg.workload.gpu_step_ms(cfg.arch)),
            trained: CounterSeries::new(cfg.bucket),
            batch_slow_counts: Vec::new(),
            batch_end_times: Vec::new(),
            batches: 0,
            samples: 0,
            last_step_end: SimTime::ZERO,
        }
    }

    /// Trains `batch` (ready since `ready_at`) on `gpu` from `now` on and
    /// records it; returns when the step ends.
    fn train(
        &mut self,
        gpu: usize,
        now: SimTime,
        ready_at: SimTime,
        batch: &BatchStats,
    ) -> SimTime {
        let (_s, end) = self.gpus[gpu].train(ready_at.max(now), self.step);
        self.batch_slow_counts.push(batch.slow);
        self.samples += batch.len;
        self.trained.add(end, batch.bytes as f64);
        self.batch_end_times.push(end.as_secs_f64());
        self.batches += 1;
        self.last_step_end = self.last_step_end.max(end);
        end
    }

    /// The run's report. `cpu_busy_s` and `cpu_series` describe the
    /// preprocessing CPUs, which each policy accounts for in its own
    /// way; nothing is flagged slow or out of memory.
    fn report(
        self,
        name: &str,
        cfg: &SimConfig,
        storage: &Storage,
        cpu_busy_s: f64,
        cpu_series: TimeSeries,
    ) -> SimReport {
        let elapsed = self.last_step_end.as_secs_f64();
        let train_busy: f64 = self.gpus.iter().map(|g| g.train_busy().total()).sum();
        let pre_busy: f64 = self.gpus.iter().map(|g| g.preproc_busy().total()).sum();
        let gpu_cap = elapsed.max(1e-9) * cfg.n_gpus as f64;
        let cpu_cap = elapsed.max(1e-9) * cfg.cpu_cores as f64;

        // Merge per-GPU busy series into one averaged utilization trace.
        let mut gpu_total = IntervalAccumulator::new(cfg.bucket);
        for g in &self.gpus {
            for acc in [g.train_busy(), g.preproc_busy()] {
                merge_utilization(&mut gpu_total, acc, cfg.bucket);
            }
        }

        let mut throughput_series = TimeSeries::new("throughput_mbps");
        let ts = self.trained.to_rate_series("bps");
        for (i, &v) in ts.values().iter().enumerate() {
            throughput_series.push(ts.times()[i], v / 1e6);
        }

        SimReport {
            name: name.to_string(),
            train_time_s: elapsed,
            gpu_util_pct: ((train_busy + pre_busy) / gpu_cap * 100.0).min(100.0),
            gpu_train_pct: (train_busy / gpu_cap * 100.0).min(100.0),
            cpu_util_pct: (cpu_busy_s / cpu_cap * 100.0).min(100.0),
            gpu_series: gpu_total.to_utilization_series("gpu_pct", cfg.n_gpus),
            cpu_series,
            disk_series: storage.disk_read().to_rate_series("disk_bps"),
            throughput_series,
            batches: self.batches,
            samples: self.samples,
            slow_flagged: 0,
            batch_slow_counts: self.batch_slow_counts,
            batch_end_times: self.batch_end_times,
            host_oom: false,
            gpu_oom: false,
            bytes_from_disk: storage.bytes_from_disk(),
            bytes_from_cache: storage.bytes_from_cache(),
        }
    }
}

/// Adds one server's per-bucket busy time from `from` into `into`.
fn merge_utilization(
    into: &mut IntervalAccumulator,
    from: &IntervalAccumulator,
    bucket: SimDuration,
) {
    let t = from.to_utilization_series("x", 1);
    for (i, &v) in t.values().iter().enumerate() {
        let start = SimTime::from_secs_f64(t.times()[i]);
        into.add_weighted(start, start + bucket, v / 100.0 * bucket.as_secs_f64());
    }
}
