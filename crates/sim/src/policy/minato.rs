//! MinatoLoader simulation policy (§4) and the size-heuristic strawman
//! (§3.2 / Figure 3a).
//!
//! Models the runtime of Figure 5 in virtual time, driving the loader's
//! own policy objects rather than a copy of them:
//!
//! * loader workers claim samples individually (no pre-formed batches),
//! * a [`LoadBalancer`] classifies samples fast/slow: optimistic until
//!   warm-up ends, then the P75 cutoff it publishes itself, with its P90
//!   fallback under skew. It records each sample's cost when the sample
//!   completes — a deferred one as the cutoff it burned in the foreground
//!   plus its resumed remainder, as the loader measures it,
//! * timed-out samples release their worker after the cutoff they were
//!   timed against and finish on background slow-task workers,
//!   re-executing the interrupted transform (Algorithm 1),
//! * batches form from whichever samples are ready first and feed the
//!   least-occupied per-GPU batch queue,
//! * a monitor ticks every [`SchedulerConfig::interval`]: it calls
//!   [`LoadBalancer::refresh_now`], as the loader's shuffled claims do
//!   through [`LoadBalancer::tick`] at most once per 100 ms, and, in
//!   adaptive mode, resizes the foreground pool with
//!   [`WorkerScheduler::decide`] (Formulas 1–2) and the slow-task pool to
//!   its backlog. The real loader runs fixed pools; the
//!   scheduler is the simulator's alone.
//!
//! The same engine runs [`Policy::SizeHeuristic`], the image-size
//! heuristic: classification happens *at admission* from the raw size and
//! there is no timeout rescue, so a mispredicted slow sample occupies a
//! foreground worker for its entire cost — the failure mode of Figure 3a.
//! [`Policy::NoClassify`] runs every sample in the foreground.

use super::{merge_utilization, shuffled_tickets, BatchStats, EventQueue, Policy, Trainer};
use crate::busy::IntervalAccumulator;
use crate::config::SimConfig;
use crate::report::SimReport;
use crate::resources::{ServerPool, SimQueue, Storage};
use crate::scheduler::{SchedulerConfig, WorkerScheduler};
use crate::time::{SimDuration, SimTime};
use minato_core::balancer::{BalancerConfig, LoadBalancer, TimeoutPolicy};
use minato_core::profiler::SampleRecord;
use std::collections::VecDeque;
use std::time::Duration;

/// Background slow-task workers per GPU at start.
const SLOW_WORKERS_PER_GPU: usize = 2;
/// Ready-pool capacity (paper: all queues capped at 100).
const READY_POOL_CAP: usize = 100;

/// A sample event's `slow` is its ground-truth class against
/// [`crate::slow_threshold_ms`], whichever path it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A foreground sample finished preprocessing (fast path).
    FgDone {
        slow: bool,
        bytes_milli: u64,
        cost: SimDuration,
    },
    /// A foreground sample hit its cutoff after `burned`; `remaining`
    /// moves to the background pool.
    FgTimedOut {
        slow: bool,
        bytes_milli: u64,
        burned: SimDuration,
        remaining: SimDuration,
    },
    /// A background sample finished preprocessing; `measured` is the
    /// preprocessing time the loader records for it.
    BgDone {
        slow: bool,
        bytes_milli: u64,
        measured: SimDuration,
    },
    /// GPU finished a training step.
    StepDone { gpu: usize },
    /// Monitor tick: cutoff refresh and worker scheduling.
    Monitor,
}

/// Splits a sample's cost at `cutoff_ms`: `(done, remaining)` in ms.
/// Steps that fit in the cutoff are done; the interrupted step reruns in
/// full with the rest (Algorithm 1).
fn split_at_cutoff(per_step_ms: &[f64], total_ms: f64, cutoff_ms: f64) -> (f64, f64) {
    let mut done = 0.0;
    for &s in per_step_ms {
        if done + s > cutoff_ms {
            break;
        }
        done += s;
    }
    (done, (total_ms - done).max(0.0))
}

/// The profile record of a sample that took `d`.
fn record(d: SimDuration) -> SampleRecord {
    SampleRecord::total_only(Duration::from_nanos(d.0))
}

/// The loader's balancer: paper defaults with the configured percentile
/// under [`Policy::Minato`], never timing out otherwise.
fn balancer(cfg: &SimConfig, policy: Policy) -> LoadBalancer {
    let mut bc = BalancerConfig::default();
    match (&mut bc.policy, policy) {
        (TimeoutPolicy::Adaptive { percentile, .. }, Policy::Minato) => {
            *percentile = cfg.minato.timeout_percentile;
        }
        (policy, _) => *policy = TimeoutPolicy::Disabled,
    }
    LoadBalancer::new(bc)
}

/// Runs one simulated training with MinatoLoader semantics, classifying
/// as `policy` says.
pub(super) fn run(policy: Policy, cfg: &SimConfig) -> SimReport {
    let wl = &cfg.workload;
    let total_samples = cfg.total_samples();
    let total_batches = cfg.total_batches();
    let slow_threshold = crate::slow_threshold_ms(wl);
    let tickets = shuffled_tickets(cfg);

    // Size-heuristic threshold: P75 of the first 512 sample sizes.
    let size_threshold = (policy == Policy::SizeHeuristic).then(|| {
        let mut sizes: Vec<f64> = (0..512.min(wl.n_samples))
            .map(|i| wl.sample_profile(i).raw_bytes as f64)
            .collect();
        sizes.sort_by(f64::total_cmp);
        minato_metrics::quantile_sorted(&sizes, 0.75).unwrap_or(f64::MAX)
    });

    // Resources. The slow-task (background) pool starts at the paper's
    // per-GPU default but is scaled by the monitor alongside the
    // foreground pool — §4.3 includes slow-task workers in the CPU
    // workers the scheduler adjusts.
    let bg_min = (SLOW_WORKERS_PER_GPU * cfg.n_gpus).max(1);
    let bg_max = (cfg.cpu_cores / 2).max(bg_min);
    let mut max_fg = cfg.cpu_cores.saturating_sub(bg_min).max(1);
    let mut fg_capacity = (cfg.workers_per_gpu * cfg.n_gpus).min(max_fg);
    let mut fg_active = 0usize;
    let mut fg_busy = IntervalAccumulator::new(cfg.bucket);
    let mut bg_pool = ServerPool::new(bg_min, cfg.bucket);
    let mut storage = Storage::new(cfg.storage_bandwidth_bps, cfg.memory_bytes, cfg.bucket);
    let mut trainer = Trainer::new(cfg);
    let mut queues: Vec<SimQueue<BatchStats>> = (0..cfg.n_gpus)
        .map(|_| SimQueue::new(cfg.prefetch))
        .collect();
    let mut overflow: VecDeque<(SimTime, BatchStats)> = VecDeque::new();
    let mut gpu_busy_flag = vec![false; cfg.n_gpus];

    // The loader's classifier, the §4.3 foreground-pool scheduler, and
    // the monitor's meter: foreground busy time credited at completion
    // since the last tick.
    let balancer = balancer(cfg, policy);
    let sched_cfg = SchedulerConfig::paper_default(cfg.cpu_cores);
    let interval = SimDuration(sched_cfg.interval.as_nanos() as u64);
    let mut scheduler = WorkerScheduler::new(sched_cfg);
    let mut tick_busy = SimDuration::ZERO;

    // Progress.
    let mut next_ticket = 0usize;
    let mut pending = BatchStats::default();
    let mut in_flight_bg = 0usize;
    let mut samples_ready = 0usize;

    let mut events = EventQueue::new();

    // Whether more claims may start (backpressure: bounded ready pool +
    // bounded assembled-batch overflow).
    macro_rules! can_claim {
        () => {
            next_ticket < total_samples && pending.len < READY_POOL_CAP && overflow.len() < 8
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
                let start = read.ready_at;
                let cost = SimDuration::from_ms_f64(profile.total_ms);
                let slow = profile.total_ms > slow_threshold;
                // A sample is timed out exactly when its cost exceeds the
                // cutoff current at its claim (never outside Policy::Minato).
                let cutoff = balancer
                    .current_timeout()
                    .map(|t| SimDuration(t.as_nanos() as u64))
                    .filter(|&t| cost > t);
                if let Some(burned) = cutoff {
                    // Foreground burns exactly the cutoff, then defers.
                    let (_, remaining) =
                        split_at_cutoff(&profile.per_step_ms, profile.total_ms, burned.as_ms_f64());
                    let end = start + burned;
                    fg_busy.add(start, end);
                    events.push(
                        end,
                        Ev::FgTimedOut {
                            slow,
                            bytes_milli: profile.raw_bytes,
                            burned,
                            remaining: SimDuration::from_ms_f64(remaining),
                        },
                    );
                } else if size_threshold.is_some_and(|t| profile.raw_bytes as f64 > t) {
                    // Admission-time routing: the whole sample runs in
                    // background.
                    in_flight_bg += 1;
                    fg_active -= 1; // Never occupied a fg worker.
                    let (_s, e) = bg_pool.submit(start, cost);
                    events.push(
                        e,
                        Ev::BgDone {
                            slow,
                            bytes_milli: profile.raw_bytes,
                            measured: cost,
                        },
                    );
                } else {
                    // Foreground runs the full cost.
                    let end = start + cost;
                    fg_busy.add(start, end);
                    events.push(
                        end,
                        Ev::FgDone {
                            slow,
                            bytes_milli: profile.raw_bytes,
                            cost,
                        },
                    );
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
                    events.push(end, Ev::StepDone { gpu: $g });
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
    if cfg.minato.adaptive || policy == Policy::Minato {
        events.push(SimTime::ZERO + interval, Ev::Monitor);
    }

    while let Some((now, ev)) = events.pop() {
        match ev {
            Ev::FgDone {
                slow,
                bytes_milli,
                cost,
            } => {
                fg_active -= 1;
                tick_busy = tick_busy + cost;
                // The completion that ends warm-up publishes the cutoff.
                balancer.on_fast_complete(&record(cost));
                on_sample_ready!(now, slow, bytes_milli);
                try_claim!(now);
            }
            Ev::FgTimedOut {
                slow,
                bytes_milli,
                burned,
                remaining,
            } => {
                fg_active -= 1;
                tick_busy = tick_busy + burned;
                in_flight_bg += 1;
                let (_s, e) = bg_pool.submit(now, remaining);
                events.push(
                    e,
                    Ev::BgDone {
                        slow,
                        bytes_milli,
                        measured: burned + remaining,
                    },
                );
                try_claim!(now);
            }
            Ev::BgDone {
                slow,
                bytes_milli,
                measured,
            } => {
                in_flight_bg -= 1;
                balancer.on_slow_complete(&record(measured));
                on_sample_ready!(now, slow, bytes_milli);
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
                balancer.refresh_now();
                if cfg.minato.adaptive {
                    // Slow-task pool first: size it to its backlog (the
                    // temp-queue depth), bounded to half the machine.
                    let bg_capacity = in_flight_bg.clamp(bg_min, bg_max);
                    bg_pool.resize(now, bg_capacity);
                    max_fg = cfg.cpu_cores.saturating_sub(bg_capacity).max(1);
                    if cfg.minato.adaptive_fg {
                        // Foreground pool per Formulas 1–2, metered over
                        // the tick.
                        let window = interval.as_secs_f64() * fg_capacity as f64;
                        let cpu_usage = (tick_busy.as_secs_f64() / window).clamp(0.0, 1.0);
                        let q_len: usize = queues.iter().map(|q| q.len()).sum();
                        let q_cap: usize = queues.iter().map(|q| q.capacity()).sum();
                        fg_capacity = scheduler.decide(fg_capacity, q_len, q_cap, cpu_usage);
                    }
                    fg_capacity = fg_capacity.min(max_fg);
                    try_claim!(now);
                }
                tick_busy = SimDuration::ZERO;
                events.push(now + interval, Ev::Monitor);
            }
        }
    }

    let cpu_busy_total = fg_busy.total() + bg_pool.busy().total();
    let mut cpu_total = fg_busy;
    merge_utilization(&mut cpu_total, bg_pool.busy(), cfg.bucket);
    let cpu_series = cpu_total.to_utilization_series("cpu_pct", cfg.cpu_cores);
    SimReport {
        // Every flagged sample completes on the slow path before the
        // last batch forms.
        slow_flagged: balancer.flagged_slow() as usize,
        ..trainer.report(policy, cfg, &storage, cpu_busy_total, cpu_series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::simulate;
    use minato_data::WorkloadSpec;

    fn small(workload: WorkloadSpec, batches: usize) -> SimConfig {
        let mut c = SimConfig::config_a(workload);
        c.max_batches = batches;
        c
    }

    #[test]
    fn split_at_cutoff_reruns_the_interrupted_step() {
        let steps = [10.0, 20.0, 30.0];
        // Inside the second step: the first is done, the second reruns.
        assert_eq!(split_at_cutoff(&steps, 60.0, 25.0), (10.0, 50.0));
        // Exactly on a step boundary: both steps before it are done.
        assert_eq!(split_at_cutoff(&steps, 60.0, 30.0), (30.0, 30.0));
        // Past the total: everything is done, nothing remains.
        assert_eq!(split_at_cutoff(&steps, 60.0, 100.0), (60.0, 0.0));
    }

    #[test]
    fn trains_all_batches() {
        let cfg = small(WorkloadSpec::object_detection(), 40);
        let r = simulate(Policy::Minato, &cfg);
        assert_eq!(r.batches, 40);
        assert_eq!(r.samples, 40 * 48);
    }

    #[test]
    fn deterministic() {
        let cfg = small(WorkloadSpec::speech(3.0), 20);
        let a = simulate(Policy::Minato, &cfg);
        let b = simulate(Policy::Minato, &cfg);
        assert_eq!(a.train_time_s, b.train_time_s);
        assert_eq!(a.slow_flagged, b.slow_flagged);
    }

    #[test]
    fn timeout_flags_heavy_speech_samples() {
        let cfg = small(WorkloadSpec::speech(3.0), 60);
        let r = simulate(Policy::Minato, &cfg);
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
        let minato = simulate(Policy::Minato, &cfg);
        let pytorch = simulate(Policy::Torch, &cfg);
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
        let minato = simulate(Policy::Minato, &cfg);
        let pytorch = simulate(Policy::Torch, &cfg);
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
        let adaptive = simulate(Policy::Minato, &cfg);
        let frozen = simulate(Policy::Minato, &fixed);
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
        let r = simulate(Policy::Minato, &cfg);
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
        let r = simulate(Policy::SizeHeuristic, &cfg);
        assert_eq!(r.batches, 40);
        assert!(r.slow_flagged > 0, "some samples predicted slow by size");
    }

    #[test]
    fn classify_none_is_plain_pooling() {
        let cfg = small(WorkloadSpec::object_detection(), 20);
        let r = simulate(Policy::NoClassify, &cfg);
        assert_eq!(r.batches, 20);
        assert_eq!(r.slow_flagged, 0);
    }
}
