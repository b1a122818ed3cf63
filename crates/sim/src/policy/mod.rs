//! Loader policies as simulation processes.
//!
//! [`simulate`] runs one [`Policy`]: PyTorch, Pecan and DALI on the
//! [`inorder`] engine (pre-planned batches, delivered in order), the rest
//! on the [`minato`] engine (samples batched as they finish). Their events
//! are disjoint, so each engine keeps its own event type and loop body.
//! What happens around them — the event queue, the ticket stream they
//! draw from, the GPUs consuming batches, and the report built from the
//! run — is stated once here.

pub mod inorder;
pub mod minato;

use crate::busy::{CounterSeries, IntervalAccumulator};
use crate::config::SimConfig;
use crate::report::SimReport;
use crate::resources::{Gpu, Storage};
use crate::time::{SimDuration, SimTime};
use minato_metrics::TimeSeries;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// The loader a simulated run models. Its `Display` is the label the
/// figures print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// PyTorch DataLoader: whole batches on 12 CPU workers, in order.
    Torch,
    /// Pecan: PyTorch with AutoOrder's per-workload cost reduction.
    Pecan,
    /// DALI: transforms on the consuming GPU at the workload's
    /// `dali_speedup`, `cfg.prefetch` batches deep.
    Dali,
    /// MinatoLoader: runtime timeout classification (§4).
    Minato,
    /// §3.2 strawman: predicted slow when the raw size exceeds the P75
    /// of sizes, routed at admission, no timeout.
    SizeHeuristic,
    /// Ablation: Minato's engine with no classification; every sample
    /// runs in the foreground.
    NoClassify,
}

impl Policy {
    /// Every policy, the four paper loaders first.
    pub const ALL: [Policy; 6] = [
        Policy::Torch,
        Policy::Pecan,
        Policy::Dali,
        Policy::Minato,
        Policy::SizeHeuristic,
        Policy::NoClassify,
    ];
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Policy::Torch => "PyTorch",
            Policy::Pecan => "Pecan",
            Policy::Dali => "DALI",
            Policy::Minato => "Minato",
            Policy::SizeHeuristic => "SizeHeuristic",
            Policy::NoClassify => "NoClassify",
        })
    }
}

/// Runs one simulated training of `cfg` under `policy`.
pub fn simulate(policy: Policy, cfg: &SimConfig) -> SimReport {
    match policy {
        Policy::Torch | Policy::Pecan | Policy::Dali => inorder::run(policy, cfg),
        Policy::Minato | Policy::SizeHeuristic | Policy::NoClassify => minato::run(policy, cfg),
    }
}

/// Pending events in virtual-time order; events due at the same instant
/// pop in the order they were pushed.
struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
    seq: u64,
}

impl<E: Ord> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, at: SimTime, ev: E) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, ev)));
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse((at, _, ev))| (at, ev))
    }
}

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
    /// preprocessing CPUs, which each engine accounts for in its own
    /// way; nothing is flagged slow or out of memory.
    fn report(
        self,
        policy: Policy,
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
            policy,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_labels_are_pinned() {
        let labels: Vec<String> = Policy::ALL[..4].iter().map(|p| p.to_string()).collect();
        assert_eq!(labels, ["PyTorch", "Pecan", "DALI", "Minato"]);
        assert_eq!(format!("{:8}|", Policy::Dali), "DALI    |");
    }
}
