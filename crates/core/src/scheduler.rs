//! Adaptive CPU worker scheduler (paper §4.3, Formulas 1–2).
//!
//! The scheduler keeps the GPUs busy by matching the number of active
//! preprocessing workers to the training demand. Every monitor interval it
//! computes
//!
//! ```text
//! Δ = α · (1 − Qsize/Qmax) + β · (Cusage − θc)          (Formula 2)
//! workers = min(max_workers, max(1, workers' + Δ))      (Formula 1)
//! ```
//!
//! where `Qsize` is the moving average of the batch-queue occupancy,
//! `Cusage` the normalized CPU utilization of the active workers, and `Δ`
//! is clipped to a small integer range for stability. Empty queues and/or
//! hot CPUs add workers; full queues with idle CPUs retire them. The
//! moving average is *seeded* with the first occupancy observation — a
//! cold window would otherwise over-weight the startup transient for a
//! full window length and bias the first refreshes toward scale-up.
//!
//! The decision function is pure ([`WorkerScheduler::decide`]) so it can
//! be unit-tested and swept in ablations; the executor applies it to
//! real threads by parking the fast workers whose rank exceeds the fast
//! role's budget (the classic gate).

use minato_metrics::MovingAverage;
use std::time::Duration;

/// Tuning parameters for the adaptive scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Queue-pressure gain (`α`).
    pub alpha: f64,
    /// CPU-pressure gain (`β`).
    pub beta: f64,
    /// CPU utilization threshold (`θc`, paper example 0.7), in `[0, 1]`.
    pub theta_c: f64,
    /// Clip for `Δ` (paper example: `[-2, +2]`).
    pub delta_clip: i64,
    /// Lower bound on active workers.
    pub min_workers: usize,
    /// Upper bound on active workers (paper: total CPU cores).
    pub max_workers: usize,
    /// Monitor interval between scaling decisions.
    pub interval: Duration,
    /// Window (in monitor ticks) of the queue-occupancy moving average.
    pub queue_avg_window: usize,
}

impl SchedulerConfig {
    /// The paper's defaults: α=β=2, θc=0.7, Δ∈[−2,2], 1..=max workers.
    pub fn paper_default(max_workers: usize) -> SchedulerConfig {
        SchedulerConfig {
            alpha: 2.0,
            beta: 2.0,
            theta_c: 0.7,
            delta_clip: 2,
            min_workers: 1,
            max_workers: max_workers.max(1),
            interval: Duration::from_millis(100),
            queue_avg_window: 8,
        }
    }
}

/// Worker counts per executor role, as registered at start and saved in
/// a checkpoint. Only `fast` moves at runtime (the scheduler's gate
/// limit); `slow` and `batch` are sized by the configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoleBudgets {
    /// Foreground preprocessing workers (ticket claim + pipeline).
    pub fast: usize,
    /// Background slow-resume workers.
    pub slow: usize,
    /// Batch-assembly workers.
    pub batch: usize,
}

/// Pure scaling-decision engine.
#[derive(Debug)]
pub struct WorkerScheduler {
    cfg: SchedulerConfig,
    queue_avg: MovingAverage,
    /// Whether `queue_avg` was seeded with the first observation.
    primed: bool,
}

impl WorkerScheduler {
    /// Creates a scheduler with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `min_workers == 0`, `max_workers < min_workers`, or
    /// `theta_c` is outside `[0, 1]`.
    pub fn new(cfg: SchedulerConfig) -> WorkerScheduler {
        assert!(cfg.min_workers > 0, "min_workers must be at least 1");
        assert!(
            cfg.max_workers >= cfg.min_workers,
            "max_workers must be >= min_workers"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.theta_c),
            "theta_c must be in [0, 1]"
        );
        let window = cfg.queue_avg_window.max(1);
        WorkerScheduler {
            cfg,
            queue_avg: MovingAverage::new(window),
            primed: false,
        }
    }

    /// Configuration in effect.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Computes `Δ` per Formula 2 (already clipped).
    pub fn delta(&self, q_avg: f64, q_max: f64, cpu_usage: f64) -> i64 {
        let q_term = if q_max <= 0.0 {
            0.0
        } else {
            1.0 - (q_avg / q_max).clamp(0.0, 1.0)
        };
        let raw = self.cfg.alpha * q_term
            + self.cfg.beta * (cpu_usage.clamp(0.0, 1.0) - self.cfg.theta_c);
        let clip = self.cfg.delta_clip.max(0);
        (raw.round() as i64).clamp(-clip, clip)
    }

    /// Folds one occupancy observation into the moving average and returns
    /// the new worker target per Formula 1.
    ///
    /// * `current` — workers currently active,
    /// * `batch_queue_len` — instantaneous batch-queue occupancy,
    /// * `q_max` — batch-queue capacity,
    /// * `cpu_usage` — normalized `[0,1]` utilization of active workers.
    ///
    /// Cold start: the *first* observation seeds the whole moving-average
    /// window. A window warming up from empty would over-weight the
    /// startup transient (an empty batch queue before the pipeline has
    /// produced anything) for `queue_avg_window` refreshes, biasing the
    /// first decisions toward scale-up and then overshooting on the way
    /// back down.
    pub fn decide(
        &mut self,
        current: usize,
        batch_queue_len: usize,
        q_max: usize,
        cpu_usage: f64,
    ) -> usize {
        if self.primed {
            self.queue_avg.record(batch_queue_len as f64);
        } else {
            for _ in 0..self.cfg.queue_avg_window.max(1) {
                self.queue_avg.record(batch_queue_len as f64);
            }
            self.primed = true;
        }
        let d = self.delta(self.queue_avg.value(), q_max as f64, cpu_usage);
        let next = current as i64 + d;
        (next.max(self.cfg.min_workers as i64) as usize).min(self.cfg.max_workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(alpha: f64, beta: f64) -> WorkerScheduler {
        WorkerScheduler::new(SchedulerConfig {
            alpha,
            beta,
            ..SchedulerConfig::paper_default(64)
        })
    }

    #[test]
    #[should_panic(expected = "min_workers")]
    fn rejects_zero_min_workers() {
        let _ = WorkerScheduler::new(SchedulerConfig {
            min_workers: 0,
            ..SchedulerConfig::paper_default(4)
        });
    }

    #[test]
    fn empty_queue_and_hot_cpu_scales_up() {
        let s = sched(2.0, 2.0);
        // Empty queue (term=1) + CPU at 100% (0.3 above θ): Δ = 2 + 0.6 → 3 → clip 2.
        assert_eq!(s.delta(0.0, 100.0, 1.0), 2);
    }

    #[test]
    fn full_queue_and_idle_cpu_scales_down() {
        let s = sched(2.0, 2.0);
        // Full queue (term=0) + idle CPU: Δ = 0 + 2·(0 − 0.7) = −1.4 → −1.
        assert_eq!(s.delta(100.0, 100.0, 0.0), -1);
    }

    #[test]
    fn balanced_pipeline_holds_steady() {
        let s = sched(2.0, 2.0);
        // Half-full queue, CPU near threshold: Δ ≈ 1·2·0.5 + 0 = 1.0 → 1.
        // With a fuller queue it settles to 0.
        assert_eq!(s.delta(75.0, 100.0, 0.7), 1);
        assert_eq!(s.delta(95.0, 100.0, 0.68), 0);
    }

    #[test]
    fn delta_is_clipped() {
        let s = WorkerScheduler::new(SchedulerConfig {
            alpha: 100.0,
            beta: 100.0,
            ..SchedulerConfig::paper_default(64)
        });
        assert_eq!(s.delta(0.0, 100.0, 1.0), 2);
        assert_eq!(s.delta(100.0, 100.0, 0.0), -2);
    }

    #[test]
    fn decide_respects_bounds() {
        let mut s = WorkerScheduler::new(SchedulerConfig {
            min_workers: 2,
            max_workers: 4,
            ..SchedulerConfig::paper_default(4)
        });
        // Repeated scale-down requests never drop below min.
        let mut w = 4;
        for _ in 0..10 {
            w = s.decide(w, 100, 100, 0.0);
        }
        assert_eq!(w, 2);
        // Repeated scale-up requests never exceed max.
        for _ in 0..10 {
            w = s.decide(w, 0, 100, 1.0);
        }
        assert_eq!(w, 4);
    }

    #[test]
    fn decide_uses_moving_average_not_instant() {
        let mut s = WorkerScheduler::new(SchedulerConfig {
            queue_avg_window: 4,
            ..SchedulerConfig::paper_default(64)
        });
        // Prime the average with a full queue.
        for _ in 0..4 {
            let _ = s.decide(10, 100, 100, 0.7);
        }
        // One empty observation barely moves the 4-sample average, so the
        // decision stays closer to hold than an instant reading would.
        let w = s.decide(10, 0, 100, 0.7);
        assert!(w <= 12, "moving average should damp the spike");
    }

    #[test]
    fn zero_qmax_ignores_queue_term() {
        let s = sched(2.0, 0.0);
        assert_eq!(s.delta(5.0, 0.0, 0.7), 0);
    }

    /// Warm-up-boundary regression: the first occupancy observation
    /// seeds the whole moving-average window, so a single transient dip
    /// right after warm-up must not flip the decision to scale-up. An
    /// unseeded window would average the first two samples ((100+20)/2 =
    /// 60 → Δ=+1) instead of the seeded (100·7+20)/8 = 90 → Δ=0.
    #[test]
    fn cold_start_seeds_queue_average() {
        let mut s = WorkerScheduler::new(SchedulerConfig::paper_default(64));
        assert_eq!(s.decide(8, 100, 100, 0.68), 8, "full queue: hold");
        assert_eq!(
            s.decide(8, 20, 100, 0.68),
            8,
            "one post-warm-up dip must not trigger scale-up"
        );
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Formula 2's output is always inside the configured clip, for
        /// arbitrary (and degenerate) queue/CPU inputs.
        #[test]
        fn delta_stays_within_clip(
            q_avg in -1.0e6f64..1.0e6,
            q_max in -10.0f64..1.0e6,
            cpu in -2.0f64..3.0,
            alpha in 0.0f64..50.0,
            beta in 0.0f64..50.0,
            clip in 0i64..8,
        ) {
            let s = WorkerScheduler::new(SchedulerConfig {
                alpha,
                beta,
                delta_clip: clip,
                ..SchedulerConfig::paper_default(64)
            });
            let d = s.delta(q_avg, q_max, cpu);
            prop_assert!(
                (-clip..=clip).contains(&d),
                "delta {d} escaped clip {clip} (q_avg={q_avg}, q_max={q_max}, cpu={cpu})"
            );
        }

        /// Formula 1's output never leaves `[min_workers, max_workers]`,
        /// whatever occupancy/CPU stream it is fed and wherever the
        /// current count starts (even outside the bounds).
        #[test]
        fn decide_stays_within_worker_bounds(
            min in 1usize..8,
            span in 0usize..24,
            current in 0usize..64,
            lens in proptest::collection::vec(0usize..200, 1..24),
            cpus in proptest::collection::vec(0.0f64..1.0, 1..24),
        ) {
            let max = min + span;
            let mut s = WorkerScheduler::new(SchedulerConfig {
                min_workers: min,
                max_workers: max,
                ..SchedulerConfig::paper_default(max)
            });
            let mut w = current;
            for (i, len) in lens.iter().enumerate() {
                let cpu = cpus[i % cpus.len()];
                w = s.decide(w, *len, 100, cpu);
                prop_assert!(
                    (min..=max).contains(&w),
                    "decide left [{min}, {max}]: {w}"
                );
            }
        }
    }
}
