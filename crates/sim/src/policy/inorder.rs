//! In-order loader engine: PyTorch DataLoader, Pecan, and DALI policies.
//!
//! All three baselines share PyTorch's pipeline shape (§2.1): batches are
//! pre-planned, each batch is fetched whole by one worker, and delivery
//! is strictly in batch order with a bounded prefetch window. They differ
//! only in execution placement/speed:
//!
//! * [`Policy::Torch`] — transforms on the CPU pool at 1×, 12 workers
//!   total (the paper's tuned setting, §5.1),
//! * [`Policy::Pecan`] — CPU at 1× minus the AutoOrder gain for the
//!   workload,
//! * [`Policy::Dali`] — loading workers on every core, transforms on the
//!   consuming GPU at the workload's `dali_speedup`×, FIFO-shared with
//!   training steps (Takeaway 5's contention), window bounded by
//!   `prefetch_queue_depth` (`cfg.prefetch`).

use super::{shuffled_tickets, BatchStats, EventQueue, Policy, Trainer};
use crate::config::SimConfig;
use crate::report::SimReport;
use crate::resources::{Gpu, ServerPool, Storage};
use crate::time::{SimDuration, SimTime};
use minato_core::batch::ReorderBuffer;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Worker `w` finished preprocessing one sample.
    SampleDone { worker: usize },
    /// GPU `g` finished a training step.
    StepDone { gpu: usize },
}

struct CurBatch {
    batch_idx: usize,
    gpu: usize,
    local_idx: usize,
    next_sample: usize,
    stats: BatchStats,
}

struct Worker {
    queue: VecDeque<usize>,
    current: Option<CurBatch>,
}

struct GpuState {
    reorder: ReorderBuffer<BatchStats>,
    ready: VecDeque<(SimTime, BatchStats)>,
    consumed: usize,
    busy: bool,
}

/// Runs one simulated training with in-order (PyTorch-family) semantics:
/// CPU execution for [`Policy::Torch`] and [`Policy::Pecan`], transforms
/// offloaded to the consuming GPU for [`Policy::Dali`].
pub(super) fn run(policy: Policy, cfg: &SimConfig) -> SimReport {
    let wl = &cfg.workload;
    let dali = policy == Policy::Dali;
    // Pecan's AutoOrder gain per workload: the paper finds ≈3% on object
    // detection (Figure 3b), a small win on speech (Pad moved last), and
    // no change on image segmentation (§5.1: transforms already
    // optimally ordered).
    let gain = match (policy, wl.name) {
        (Policy::Pecan, "image-segmentation") => 0.0,
        (Policy::Pecan, "object-detection") => 0.03,
        (Policy::Pecan, _) => 0.05,
        _ => 0.0,
    };

    // Worker count: the paper tunes PyTorch/Pecan to 12 total workers
    // (§5.1) and gives DALI a loading worker per core.
    let n_workers = if dali {
        cfg.cpu_cores
    } else {
        cfg.inorder_workers_total.max(1)
    };
    // Per-GPU in-flight window: PyTorch buffers per-rank
    // `workers × prefetch_factor` batches; DALI buffers
    // `prefetch_queue_depth` per pipeline.
    let window_per_gpu = if dali {
        cfg.prefetch.max(1)
    } else {
        ((n_workers * cfg.prefetch) / cfg.n_gpus).max(1)
    };

    // --- Plan: shuffled multi-epoch ticket stream chunked into batches,
    // batches sharded round-robin over GPUs (DDP-style) and assigned
    // round-robin to workers. ---
    let plan: Vec<Vec<usize>> = shuffled_tickets(cfg)
        .chunks(wl.batch_size)
        .map(|c| c.to_vec())
        .collect();
    let slow_threshold = crate::slow_threshold_ms(wl);

    // --- Resources. ---
    let mut cpu = ServerPool::new(cfg.cpu_cores, cfg.bucket);
    let mut storage = Storage::new(cfg.storage_bandwidth_bps, cfg.memory_bytes, cfg.bucket);
    let mut trainer = Trainer::new(cfg);

    // --- Pipeline state. ---
    let mut workers: Vec<Worker> = (0..n_workers)
        .map(|_| Worker {
            queue: VecDeque::new(),
            current: None,
        })
        .collect();
    for b in 0..plan.len() {
        workers[b % n_workers].queue.push_back(b);
    }
    let mut gpu_state: Vec<GpuState> = (0..cfg.n_gpus)
        .map(|_| GpuState {
            reorder: ReorderBuffer::new(0),
            ready: VecDeque::new(),
            consumed: 0,
            busy: false,
        })
        .collect();

    let mut events = EventQueue::new();

    // Begins preprocessing of worker `w`'s current batch's next sample.
    let start_sample = |now: SimTime,
                        w: usize,
                        workers: &mut Vec<Worker>,
                        storage: &mut Storage,
                        cpu: &mut ServerPool,
                        gpus: &mut Vec<Gpu>|
     -> Option<(SimTime, Ev)> {
        let cur = workers[w].current.as_mut()?;
        let sample_id = plan[cur.batch_idx][cur.next_sample];
        let profile = wl.sample_profile(sample_id % wl.n_samples);
        let read = storage.read(now, sample_id as u64, profile.raw_bytes);
        let cost_ms = profile.total_ms * (1.0 - gain);
        let end = if dali {
            // Deeper prefetch queues keep a larger preprocessing working
            // set resident on the device; the resulting memory/cache
            // pressure slows the kernels (the §3.4 observation that
            // higher depth "can interfere with training computations").
            let pressure = 1.0 + 0.015 * cfg.prefetch.saturating_sub(2) as f64;
            let dur = SimDuration::from_ms_f64(cost_ms / wl.dali_speedup.max(1e-9) * pressure);
            gpus[cur.gpu].preprocess(read.ready_at, dur).1
        } else {
            let dur = SimDuration::from_ms_f64(cost_ms);
            cpu.submit(read.ready_at, dur).1
        };
        cur.stats.bytes += profile.raw_bytes;
        cur.stats.len += 1;
        if profile.total_ms > slow_threshold {
            cur.stats.slow += 1;
        }
        Some((end, Ev::SampleDone { worker: w }))
    };

    macro_rules! try_start_worker {
        ($now:expr, $w:expr) => {{
            let can = {
                let wk = &workers[$w];
                match (wk.current.is_none(), wk.queue.front()) {
                    (true, Some(&b)) => {
                        let g = b % cfg.n_gpus;
                        let local = b / cfg.n_gpus;
                        local < gpu_state[g].consumed + window_per_gpu
                    }
                    _ => false,
                }
            };
            let popped = if can {
                workers[$w].queue.pop_front()
            } else {
                None
            };
            if let Some(b) = popped {
                workers[$w].current = Some(CurBatch {
                    batch_idx: b,
                    gpu: b % cfg.n_gpus,
                    local_idx: b / cfg.n_gpus,
                    next_sample: 0,
                    stats: BatchStats::default(),
                });
                if let Some((t, ev)) = start_sample(
                    $now,
                    $w,
                    &mut workers,
                    &mut storage,
                    &mut cpu,
                    &mut trainer.gpus,
                ) {
                    events.push(t, ev);
                }
            }
        }};
    }

    macro_rules! try_step {
        ($now:expr, $g:expr) => {{
            if !gpu_state[$g].busy {
                if let Some((ready_at, stats)) = gpu_state[$g].ready.pop_front() {
                    gpu_state[$g].busy = true;
                    gpu_state[$g].consumed += 1;
                    // A window slot freed: any worker may start.
                    for w in 0..n_workers {
                        try_start_worker!($now, w);
                    }
                    let end = trainer.train($g, $now, ready_at, &stats);
                    events.push(end, Ev::StepDone { gpu: $g });
                }
            }
        }};
    }

    for w in 0..n_workers {
        try_start_worker!(SimTime::ZERO, w);
    }

    while let Some((now, ev)) = events.pop() {
        match ev {
            Ev::SampleDone { worker: w } => {
                let finished = match workers[w].current.as_mut() {
                    Some(cur) => {
                        cur.next_sample += 1;
                        cur.next_sample >= plan[cur.batch_idx].len()
                    }
                    // No batch in flight: a stale event, nothing to do.
                    None => false,
                };
                if let Some(cur) = finished.then(|| workers[w].current.take()).flatten() {
                    let g = cur.gpu;
                    for stats in gpu_state[g].reorder.push(cur.local_idx as u64, cur.stats) {
                        gpu_state[g].ready.push_back((now, stats));
                    }
                    try_step!(now, g);
                    try_start_worker!(now, w);
                } else if let Some((t, ev)) = start_sample(
                    now,
                    w,
                    &mut workers,
                    &mut storage,
                    &mut cpu,
                    &mut trainer.gpus,
                ) {
                    events.push(t, ev);
                }
            }
            Ev::StepDone { gpu: g } => {
                gpu_state[g].busy = false;
                try_step!(now, g);
                for w in 0..n_workers {
                    try_start_worker!(now, w);
                }
            }
        }
    }

    // --- Memory hazards (analytic, Figure 4). ---
    let avg_pre = (0..64.min(wl.n_samples))
        .map(|i| wl.sample_profile(i).preprocessed_bytes as f64)
        .sum::<f64>()
        / 64.min(wl.n_samples) as f64;
    let host_buffer = (cfg.n_gpus * window_per_gpu * wl.batch_size) as f64 * avg_pre;
    let gpu_buffer = if dali {
        (cfg.prefetch * wl.batch_size) as f64 * avg_pre
    } else {
        0.0
    };

    let cpu_series = cpu.busy().to_utilization_series("cpu_pct", cfg.cpu_cores);
    SimReport {
        host_oom: host_buffer > cfg.ram_bytes as f64,
        gpu_oom: gpu_buffer > cfg.gpu_memory_bytes as f64,
        ..trainer.report(policy, cfg, &storage, cpu.busy().total(), cpu_series)
    }
}

#[cfg(test)]
mod tests {
    use crate::policy::{simulate, Policy};
    use crate::SimConfig;
    use minato_data::WorkloadSpec;

    fn small_cfg() -> SimConfig {
        let mut c = SimConfig::config_a(WorkloadSpec::object_detection());
        c.max_batches = 40;
        c
    }

    #[test]
    fn trains_all_planned_batches() {
        let cfg = small_cfg();
        let r = simulate(Policy::Torch, &cfg);
        assert_eq!(r.batches, 40);
        assert_eq!(r.samples, 40 * 48);
        assert!(r.train_time_s > 0.0);
        assert_eq!(r.batch_slow_counts.len(), 40);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = small_cfg();
        let a = simulate(Policy::Torch, &cfg);
        let b = simulate(Policy::Torch, &cfg);
        assert_eq!(a.train_time_s, b.train_time_s);
        assert_eq!(a.batch_slow_counts, b.batch_slow_counts);
    }

    #[test]
    fn batch_end_times_bounded_by_train_time() {
        let cfg = small_cfg();
        let r = simulate(Policy::Torch, &cfg);
        assert!(r
            .batch_end_times
            .iter()
            .all(|&t| t > 0.0 && t <= r.train_time_s + 1e-9));
    }

    #[test]
    fn dali_runs_and_uses_gpu_for_preprocessing() {
        let cfg = small_cfg();
        let r = simulate(Policy::Dali, &cfg);
        assert_eq!(r.batches, 40);
        assert!(r.gpu_util_pct > r.gpu_train_pct);
    }

    #[test]
    fn pytorch_underutilizes_gpu_on_heavy_preprocessing() {
        // Figure 1b: with 12 total workers and heavy per-sample costs the
        // GPU starves.
        let mut cfg = SimConfig::config_a(WorkloadSpec::image_segmentation());
        cfg.max_batches = 200;
        let r = simulate(Policy::Torch, &cfg);
        assert!(
            (30.0..75.0).contains(&r.gpu_util_pct),
            "expected starved GPU, got {:.1}%",
            r.gpu_util_pct
        );
    }

    #[test]
    fn pecan_gain_speeds_up_cpu_loader() {
        let mut cfg = SimConfig::config_a(WorkloadSpec::speech(3.0));
        cfg.max_batches = 30;
        let base = simulate(Policy::Torch, &cfg);
        let pecan = simulate(Policy::Pecan, &cfg);
        assert!(
            pecan.train_time_s < base.train_time_s,
            "pecan {} vs pytorch {}",
            pecan.train_time_s,
            base.train_time_s
        );
    }

    #[test]
    fn more_gpus_train_faster() {
        let mut cfg = SimConfig::config_a(WorkloadSpec::image_segmentation());
        cfg.max_batches = 60;
        cfg.n_gpus = 1;
        let one = simulate(Policy::Torch, &cfg);
        cfg.n_gpus = 4;
        let four = simulate(Policy::Torch, &cfg);
        assert!(
            four.train_time_s < one.train_time_s,
            "4 GPU {} vs 1 GPU {}",
            four.train_time_s,
            one.train_time_s
        );
    }

    #[test]
    fn huge_prefetch_flags_host_oom() {
        let mut cfg = small_cfg();
        cfg.ram_bytes = 1_000_000; // 1 MB of RAM.
        cfg.prefetch = 48;
        let r = simulate(Policy::Torch, &cfg);
        assert!(r.host_oom);
    }

    #[test]
    fn dali_queue_depth_inflates_gpu_memory() {
        let mut cfg = small_cfg();
        cfg.gpu_memory_bytes = 10_000_000; // 10 MB GPU.
        cfg.prefetch = 24; // DALI's prefetch_queue_depth.
        let r = simulate(Policy::Dali, &cfg);
        assert!(r.gpu_oom);
    }
}
