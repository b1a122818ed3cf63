//! MinatoLoader simulation policy (§4) and the size-heuristic strawman
//! (§3.2 / Figure 3a).
//!
//! Faithfully models the runtime of Figure 5 in virtual time:
//!
//! * loader workers claim samples individually (no pre-formed batches),
//! * a per-sample timeout (P75 of profiled times after a warm-up,
//!   refreshed continuously) classifies samples fast/slow,
//! * timed-out samples release their worker after `t_out` of foreground
//!   work and finish on background slow-task workers, re-executing the
//!   interrupted transform (Algorithm 1),
//! * batches form from whichever samples are ready first and feed the
//!   least-occupied per-GPU batch queue,
//! * the adaptive scheduler resizes the foreground pool every second per
//!   Formulas 1–2.
//!
//! The same engine with [`ClassifyMode::BySize`] reproduces the image-size
//! heuristic: classification happens *at admission* from the raw size and
//! there is no timeout rescue, so a mispredicted slow sample occupies a
//! foreground worker for its entire cost — the failure mode of Figure 3a.

use super::{merge_utilization, shuffled_tickets, BatchStats, Trainer};
use crate::busy::IntervalAccumulator;
use crate::config::SimConfig;
use crate::report::SimReport;
use crate::resources::{ServerPool, SimQueue, Storage};
use crate::time::{SimDuration, SimTime};
use minato_core::scheduler::{SchedulerConfig, WorkerScheduler};
use minato_metrics::Reservoir;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// How samples are classified fast/slow.
#[derive(Debug, Clone, Copy)]
pub enum ClassifyMode {
    /// MinatoLoader: runtime timeout at the configured percentile.
    Timeout,
    /// §3.2 heuristic: predicted slow when raw size exceeds the P75 of
    /// sizes (computed from the first profiled samples). No timeout.
    BySize,
    /// No classification at all (ablation: every sample is foreground).
    None,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A foreground sample finished preprocessing (fast path).
    FgDone { slow: bool, bytes_milli: u64 },
    /// A foreground sample hit the timeout; its remaining work moves to
    /// the background pool.
    FgTimedOut { sample: usize },
    /// A background sample finished preprocessing.
    BgDone { bytes_milli: u64 },
    /// GPU finished a training step.
    StepDone { gpu: usize },
    /// Worker-scheduler monitor tick.
    Monitor,
}

/// Runs one simulated training with MinatoLoader semantics.
pub fn simulate_minato(name: &str, cfg: &SimConfig, mode: ClassifyMode) -> SimReport {
    let wl = &cfg.workload;
    let total_samples = cfg.total_samples();
    let total_batches = cfg.total_batches();
    let slow_threshold = crate::slow_threshold_ms(wl);
    let tickets = shuffled_tickets(cfg);

    // Size-heuristic threshold: P75 of the first 512 sample sizes.
    let size_threshold = {
        let mut sizes: Vec<f64> = (0..512.min(wl.n_samples))
            .map(|i| wl.sample_profile(i).raw_bytes as f64)
            .collect();
        sizes.sort_by(f64::total_cmp);
        minato_metrics::quantile_sorted(&sizes, 0.75).unwrap_or(f64::MAX)
    };

    // Resources. The slow-task (background) pool starts at the paper's
    // per-GPU default but is scaled by the monitor alongside the
    // foreground pool — §4.3 includes slow-task workers in the CPU
    // workers the scheduler adjusts.
    let bg_min = (cfg.minato.slow_workers_per_gpu * cfg.n_gpus).max(1);
    let bg_max = (cfg.cpu_cores / 2).max(bg_min);
    let mut bg_capacity = bg_min;
    let mut max_fg = cfg.cpu_cores.saturating_sub(bg_capacity).max(1);
    let mut fg_capacity = (cfg.workers_per_gpu * cfg.n_gpus).min(max_fg);
    let mut fg_active = 0usize;
    let mut fg_busy = IntervalAccumulator::new(cfg.bucket);
    let mut bg_pool = ServerPool::new(bg_capacity, cfg.bucket);
    let _ = bg_capacity; // Tracked through `bg_pool.capacity()` below.
    let mut storage = Storage::new(cfg.storage_bandwidth_bps, cfg.memory_bytes, cfg.bucket);
    let mut trainer = Trainer::new(cfg);
    let mut queues: Vec<SimQueue<BatchStats>> = (0..cfg.n_gpus)
        .map(|_| SimQueue::new(cfg.prefetch))
        .collect();
    let mut overflow: VecDeque<(SimTime, BatchStats)> = VecDeque::new();
    let mut gpu_busy_flag = vec![false; cfg.n_gpus];

    // Profiler + timeout, and the foreground pool's scheduler (only its
    // Formula 2 is used: the pool bounds here move with the background
    // pool).
    let mut profiler = Reservoir::new(4096);
    let mut tout_ms: Option<f64> = None;
    let scheduler = WorkerScheduler::new(SchedulerConfig::paper_default(cfg.cpu_cores));

    // Progress.
    let mut next_ticket = 0usize;
    let mut pending = BatchStats::default();
    let mut in_flight_bg = 0usize;
    let mut slow_flagged = 0usize;
    let mut samples_ready = 0usize;

    let mut heap: BinaryHeap<Reverse<(SimTime, u64, Ev)>> = BinaryHeap::new();
    let mut seq = 0u64;
    macro_rules! push_ev {
        ($t:expr, $e:expr) => {{
            seq += 1;
            heap.push(Reverse(($t, seq, $e)));
        }};
    }

    // Whether more claims may start (backpressure: bounded ready pool +
    // bounded assembled-batch overflow).
    macro_rules! can_claim {
        () => {
            next_ticket < total_samples
                && pending.len < cfg.minato.ready_pool_cap
                && overflow.len() < 8
        };
    }

    macro_rules! try_claim {
        ($now:expr) => {{
            while fg_active < fg_capacity && can_claim!() {
                let sample = tickets[next_ticket];
                next_ticket += 1;
                fg_active += 1;
                let profile = wl.sample_profile(sample % wl.n_samples);
                let read = storage.read($now, sample as u64, profile.raw_bytes);
                // In Timeout mode a sample is predicted slow exactly when
                // its total cost exceeds the configured timeout; carry that
                // timeout with the verdict so the deferral arm below never
                // has to re-unwrap the option.
                let slow_timeout = match mode {
                    ClassifyMode::Timeout => tout_ms.filter(|&t| profile.total_ms > t),
                    _ => None,
                };
                let is_predicted_slow = match mode {
                    ClassifyMode::Timeout => slow_timeout.is_some(),
                    ClassifyMode::BySize => (profile.raw_bytes as f64) > size_threshold,
                    ClassifyMode::None => false,
                };
                match (mode, is_predicted_slow, slow_timeout) {
                    (ClassifyMode::Timeout, true, Some(t)) => {
                        // Foreground burns exactly t_out, then defers.
                        let start = read.ready_at;
                        let end = start + SimDuration::from_ms_f64(t);
                        fg_busy.add(start, end);
                        push_ev!(end, Ev::FgTimedOut { sample });
                    }
                    (ClassifyMode::BySize, true, _) => {
                        // Admission-time routing: the whole sample runs in
                        // background.
                        in_flight_bg += 1;
                        fg_active -= 1; // Never occupied a fg worker.
                        let dur = SimDuration::from_ms_f64(profile.total_ms);
                        let (_s, e) = bg_pool.submit(read.ready_at, dur);
                        push_ev!(
                            e,
                            Ev::BgDone {
                                bytes_milli: profile.raw_bytes
                            }
                        );
                    }
                    _ => {
                        // Foreground runs the full cost.
                        let start = read.ready_at;
                        let end = start + SimDuration::from_ms_f64(profile.total_ms);
                        fg_busy.add(start, end);
                        push_ev!(
                            end,
                            Ev::FgDone {
                                slow: profile.total_ms > slow_threshold,
                                bytes_milli: profile.raw_bytes
                            }
                        );
                        profiler.record(profile.total_ms);
                    }
                }
                if matches!(mode, ClassifyMode::Timeout) && is_predicted_slow {
                    profiler.record(profile.total_ms);
                }
            }
        }};
    }

    // Assemble-and-dispatch helpers.
    macro_rules! try_step {
        ($now:expr, $g:expr) => {{
            if !gpu_busy_flag[$g] {
                if let Some((ready_at, stats)) = queues[$g].pop() {
                    gpu_busy_flag[$g] = true;
                    // Refill from overflow.
                    if let Some((t, b)) = overflow.pop_front() {
                        queues[$g].push(t, b);
                    }
                    let end = trainer.train($g, $now, ready_at, &stats);
                    push_ev!(end, Ev::StepDone { gpu: $g });
                }
            }
        }};
    }

    macro_rules! on_sample_ready {
        ($now:expr, $slow:expr, $bytes:expr) => {{
            samples_ready += 1;
            pending.len += 1;
            pending.bytes += $bytes;
            if $slow {
                pending.slow += 1;
            }
            let flush =
                pending.len >= wl.batch_size || (samples_ready == total_samples && pending.len > 0);
            if flush {
                let batch = std::mem::take(&mut pending);
                // Least-occupied, non-full queue; else overflow.
                let target = (0..cfg.n_gpus)
                    .filter(|&g| !queues[g].is_full())
                    .min_by_key(|&g| queues[g].len());
                match target {
                    Some(g) => {
                        queues[g].push($now, batch);
                        try_step!($now, g);
                    }
                    None => overflow.push_back(($now, batch)),
                }
            }
        }};
    }

    // Prime the pipeline.
    try_claim!(SimTime::ZERO);
    if cfg.minato.adaptive || matches!(mode, ClassifyMode::Timeout) {
        push_ev!(SimTime::from_secs_f64(1.0), Ev::Monitor);
    }

    while let Some(Reverse((now, _, ev))) = heap.pop() {
        match ev {
            Ev::FgDone { slow, bytes_milli } => {
                fg_active -= 1;
                if slow {
                    // Ground-truth slow sample that was *not* rescued (no
                    // timeout yet, or BySize misprediction): not flagged,
                    // it silently delayed the foreground.
                }
                on_sample_ready!(now, slow, bytes_milli);
                // Initialize the timeout as soon as warm-up completes.
                if matches!(mode, ClassifyMode::Timeout)
                    && tout_ms.is_none()
                    && profiler.len() >= cfg.minato.warmup_samples
                {
                    tout_ms = profiler.quantile(cfg.minato.timeout_percentile);
                }
                try_claim!(now);
            }
            Ev::FgTimedOut { sample } => {
                fg_active -= 1;
                slow_flagged += 1;
                let profile = wl.sample_profile(sample % wl.n_samples);
                // Resume from the interrupted transform: completed steps
                // are not redone, the interrupted one is (Algorithm 1).
                let t = tout_ms.unwrap_or(0.0);
                let mut done_before = 0.0;
                let mut cum = 0.0;
                for &s in &profile.per_step_ms {
                    if cum + s <= t {
                        cum += s;
                        done_before = cum;
                    } else {
                        break;
                    }
                }
                let remaining = (profile.total_ms - done_before).max(0.0);
                in_flight_bg += 1;
                let (_s, e) = bg_pool.submit(now, SimDuration::from_ms_f64(remaining));
                push_ev!(
                    e,
                    Ev::BgDone {
                        bytes_milli: profile.raw_bytes
                    }
                );
                try_claim!(now);
            }
            Ev::BgDone { bytes_milli } => {
                in_flight_bg -= 1;
                on_sample_ready!(now, true, bytes_milli);
                if matches!(mode, ClassifyMode::BySize) {
                    slow_flagged += 1;
                }
                try_claim!(now);
            }
            Ev::StepDone { gpu: g } => {
                gpu_busy_flag[g] = false;
                try_step!(now, g);
                try_claim!(now);
            }
            Ev::Monitor => {
                if trainer.batches >= total_batches {
                    continue; // Training done; stop rescheduling.
                }
                if matches!(mode, ClassifyMode::Timeout) {
                    // Continuous refresh (workload drift, §4.2), with the
                    // P90 fallback when too many samples flag slow.
                    if profiler.len() >= cfg.minato.warmup_samples {
                        let p = profiler.quantile(cfg.minato.timeout_percentile);
                        if let Some(p) = p {
                            let would_flag = profiler.fraction_above(p);
                            tout_ms = if would_flag > 0.35 {
                                profiler.quantile(0.90)
                            } else {
                                Some(p)
                            };
                        }
                    }
                }
                if cfg.minato.adaptive {
                    // Slow-task pool first: size it to its backlog (the
                    // temp-queue depth), bounded to half the machine.
                    bg_capacity = in_flight_bg.clamp(bg_min, bg_max);
                    bg_pool.resize(now, bg_capacity);
                    max_fg = cfg.cpu_cores.saturating_sub(bg_capacity).max(1);
                    if !cfg.minato.adaptive_fg {
                        fg_capacity = fg_capacity.min(max_fg);
                        try_claim!(now);
                        push_ev!(now + SimDuration::from_secs_f64(1.0), Ev::Monitor);
                        continue;
                    }
                    // Foreground pool per Formulas 1–2.
                    let window = SimDuration::from_secs_f64(1.0);
                    let cap = window.as_secs_f64() * fg_capacity as f64;
                    let busy = fg_busy.busy_seconds_between(now.saturating_sub_dur(window), now);
                    let cpu_usage = (busy / cap.max(1e-9)).clamp(0.0, 1.0);
                    let q_len: usize = queues.iter().map(|q| q.len()).sum();
                    let q_cap: usize = queues.iter().map(|q| q.capacity()).sum();
                    let delta = scheduler.delta(q_len as f64, q_cap as f64, cpu_usage);
                    let next = (fg_capacity as i64 + delta).max(1) as usize;
                    fg_capacity = next.min(max_fg);
                    try_claim!(now);
                }
                push_ev!(now + SimDuration::from_secs_f64(1.0), Ev::Monitor);
            }
        }
    }

    let cpu_busy_total = fg_busy.total() + bg_pool.busy().total();
    let mut cpu_total = fg_busy;
    merge_utilization(&mut cpu_total, bg_pool.busy(), cfg.bucket);
    let cpu_series = cpu_total.to_utilization_series("cpu_pct", cfg.cpu_cores);
    SimReport {
        slow_flagged,
        ..trainer.report(name, cfg, &storage, cpu_busy_total, cpu_series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::inorder::simulate_inorder;
    use minato_data::WorkloadSpec;

    fn small(workload: WorkloadSpec, batches: usize) -> SimConfig {
        let mut c = SimConfig::config_a(workload);
        c.max_batches = batches;
        c
    }

    #[test]
    fn trains_all_batches() {
        let cfg = small(WorkloadSpec::object_detection(), 40);
        let r = simulate_minato("minato", &cfg, ClassifyMode::Timeout);
        assert_eq!(r.batches, 40);
        assert_eq!(r.samples, 40 * 48);
    }

    #[test]
    fn deterministic() {
        let cfg = small(WorkloadSpec::speech(3.0), 20);
        let a = simulate_minato("minato", &cfg, ClassifyMode::Timeout);
        let b = simulate_minato("minato", &cfg, ClassifyMode::Timeout);
        assert_eq!(a.train_time_s, b.train_time_s);
        assert_eq!(a.slow_flagged, b.slow_flagged);
    }

    #[test]
    fn timeout_flags_heavy_speech_samples() {
        let cfg = small(WorkloadSpec::speech(3.0), 60);
        let r = simulate_minato("minato", &cfg, ClassifyMode::Timeout);
        // ~20% of samples are heavy; after warm-up most should be caught.
        let trained = r.samples as f64;
        let frac = r.slow_flagged as f64 / trained;
        assert!(
            (0.10..=0.30).contains(&frac),
            "slow fraction {frac} out of range"
        );
    }

    #[test]
    fn minato_beats_pytorch_on_speech() {
        // The headline result, in miniature: heavy per-sample variability
        // → Minato's classification wins by a large factor.
        let cfg = small(WorkloadSpec::speech(3.0), 50);
        let minato = simulate_minato("minato", &cfg, ClassifyMode::Timeout);
        let pytorch = simulate_inorder("pytorch", &cfg, None);
        assert!(
            minato.train_time_s < pytorch.train_time_s / 1.5,
            "minato {:.1}s vs pytorch {:.1}s",
            minato.train_time_s,
            pytorch.train_time_s
        );
    }

    #[test]
    fn minato_gpu_utilization_higher_than_pytorch() {
        let cfg = small(WorkloadSpec::image_segmentation(), 100);
        let minato = simulate_minato("minato", &cfg, ClassifyMode::Timeout);
        let pytorch = simulate_inorder("pytorch", &cfg, None);
        assert!(
            minato.gpu_util_pct > pytorch.gpu_util_pct,
            "minato {:.1}% vs pytorch {:.1}%",
            minato.gpu_util_pct,
            pytorch.gpu_util_pct
        );
    }

    #[test]
    fn adaptive_scaling_helps_when_underprovisioned() {
        let mut cfg = small(WorkloadSpec::image_segmentation(), 80);
        cfg.workers_per_gpu = 4; // Deliberately too few.
        let mut fixed = cfg.clone();
        fixed.minato.adaptive = false;
        let adaptive = simulate_minato("adaptive", &cfg, ClassifyMode::Timeout);
        let frozen = simulate_minato("fixed", &fixed, ClassifyMode::Timeout);
        assert!(
            adaptive.train_time_s <= frozen.train_time_s,
            "adaptive {:.1}s vs fixed {:.1}s",
            adaptive.train_time_s,
            frozen.train_time_s
        );
    }

    #[test]
    fn batch_composition_mixes_slow_samples() {
        let cfg = small(WorkloadSpec::speech(3.0), 60);
        let r = simulate_minato("minato", &cfg, ClassifyMode::Timeout);
        // Slow samples must appear *throughout* training, not bunch at
        // the end (§4.1): check some slow sample lands in the first half
        // of batches.
        let half = r.batch_slow_counts.len() / 2;
        let early_slow: usize = r.batch_slow_counts[..half].iter().sum();
        assert!(early_slow > 0, "slow samples deferred to the end");
    }

    #[test]
    fn size_heuristic_runs() {
        let cfg = small(WorkloadSpec::object_detection(), 40);
        let r = simulate_minato("heuristic", &cfg, ClassifyMode::BySize);
        assert_eq!(r.batches, 40);
        assert!(r.slow_flagged > 0, "some samples predicted slow by size");
    }

    #[test]
    fn classify_none_is_plain_pooling() {
        let cfg = small(WorkloadSpec::object_detection(), 20);
        let r = simulate_minato("none", &cfg, ClassifyMode::None);
        assert_eq!(r.batches, 20);
        assert_eq!(r.slow_flagged, 0);
    }
}
