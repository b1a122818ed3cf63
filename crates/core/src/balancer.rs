//! The dynamic, sample-aware load balancer (paper §4.2, Algorithm 1).
//!
//! The balancer owns the fast/slow classification policy:
//!
//! 1. **Optimism.** Before any profile data exists, every sample is assumed
//!    fast: no timeout is applied.
//! 2. **Warm-up.** Once `warmup_samples` executions have been profiled, the
//!    cutoff timeout becomes the configured percentile (P75 by default) of
//!    observed total preprocessing times — "moving only the 25% slowest
//!    samples to the temp queue".
//! 3. **Fallback.** If too many samples are being flagged slow (a skewed
//!    distribution, or drift since warm-up), the balancer falls back to the
//!    90th percentile.
//! 4. **Continuous adjustment.** Profiling keeps running during training;
//!    the timeout is recomputed every `refresh_every` completions.
//!
//! # Cost model
//!
//! A completion costs one profiler-lock acquisition (one per ticket
//! chunk through [`LoadBalancer::on_fast_complete_many`]), two counter
//! increments and one boundary check. Every `refresh_every` completions
//! the worker that claims the boundary pays one refresh: one copy of the
//! profile window into a buffer the balancer keeps, then the primary
//! percentile, the would-flag fraction and, under skew, the fallback
//! percentile, each one O(window) pass over that copy — selection, not a
//! sort — with the per-sample profiler lock already released. No
//! allocation once the window has filled.

use crate::profiler::{Profiler, SampleRecord, Window};
use minato_metrics::Counter;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Timeout selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeoutPolicy {
    /// Derive the timeout from a percentile of profiled times, with
    /// automatic fallback to `fallback_percentile` when the observed slow
    /// fraction exceeds `misclassification_threshold`. The paper default.
    Adaptive {
        /// Primary percentile (paper: 0.75).
        percentile: f64,
        /// Fallback percentile under skew (paper: 0.90).
        fallback_percentile: f64,
        /// Slow fraction that triggers the fallback (we use 0.35: P75
        /// should flag ~25%, so >35% indicates mis-calibration).
        misclassification_threshold: f64,
    },
    /// Use a fixed timeout (offline profiling already done).
    Fixed(Duration),
    /// Never time out: every sample is fast. Degenerates to PyTorch-like
    /// behaviour; used by order-sensitive mode (§6) and as an ablation.
    Disabled,
}

impl TimeoutPolicy {
    /// The paper's default policy: adaptive P75 with P90 fallback.
    pub fn paper_default() -> TimeoutPolicy {
        TimeoutPolicy::Adaptive {
            percentile: 0.75,
            fallback_percentile: 0.90,
            misclassification_threshold: 0.35,
        }
    }
}

/// Configuration for [`LoadBalancer`].
#[derive(Debug, Clone)]
pub struct BalancerConfig {
    /// Timeout policy.
    pub policy: TimeoutPolicy,
    /// Profiled executions before the adaptive timeout activates (the
    /// warm-up phase; the paper uses a time window, we use a sample count
    /// which is equivalent and deterministic).
    pub warmup_samples: u64,
    /// Recompute the adaptive timeout every this many completions.
    pub refresh_every: u64,
    /// Sliding window length for profiling statistics.
    pub profile_window: usize,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            policy: TimeoutPolicy::paper_default(),
            warmup_samples: 32,
            refresh_every: 64,
            profile_window: 4096,
        }
    }
}

/// Classification decision for a finished (or timed-out) preprocessing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Completed within the timeout → fast queue.
    Fast,
    /// Exceeded the timeout → temp queue, background completion.
    Slow,
}

/// Thread-safe load balancer shared by all loader workers.
///
/// # Examples
///
/// ```
/// use minato_core::balancer::{BalancerConfig, LoadBalancer, TimeoutPolicy};
/// use std::time::Duration;
///
/// let lb = LoadBalancer::new(BalancerConfig {
///     policy: TimeoutPolicy::Fixed(Duration::from_millis(50)),
///     ..BalancerConfig::default()
/// });
/// assert_eq!(lb.current_timeout(), Some(Duration::from_millis(50)));
/// ```
#[derive(Debug)]
pub struct LoadBalancer {
    cfg: BalancerConfig,
    profiler: Profiler,
    /// Current timeout in nanoseconds; 0 encodes "no timeout yet"
    /// (optimistic phase or Disabled policy).
    timeout_ns: AtomicU64,
    completions: Counter,
    flagged_slow: Counter,
    /// Highest refresh boundary (warm-up end, then `refresh_every`
    /// multiples past it) a refresh has been claimed for, advanced by
    /// CAS. Makes the refresh trigger monotonic: with racing workers the
    /// completion counter can skip past a boundary between one worker's
    /// `incr` and its `get`, and a trigger comparing `n` against exact
    /// boundary values would then never fire, leaving the timeout stale
    /// until the monitor's backstop.
    refreshed_through: AtomicU64,
    /// The refresh's private copy of the profile window, reused so a
    /// refresh allocates nothing. Uncontended: one worker claims each
    /// boundary, and the monitor's backstop refresh is rare.
    scratch: Mutex<Window>,
}

impl LoadBalancer {
    /// Creates a balancer with the given configuration.
    pub fn new(cfg: BalancerConfig) -> LoadBalancer {
        let timeout_ns = match cfg.policy {
            TimeoutPolicy::Fixed(d) => d.as_nanos() as u64,
            _ => 0,
        };
        let profiler = Profiler::new(cfg.profile_window, cfg.warmup_samples);
        LoadBalancer {
            cfg,
            profiler,
            timeout_ns: AtomicU64::new(timeout_ns),
            completions: Counter::new(),
            flagged_slow: Counter::new(),
            refreshed_through: AtomicU64::new(0),
            scratch: Mutex::new(Window::default()),
        }
    }

    /// Balancer with the paper's default configuration.
    pub fn paper_default() -> LoadBalancer {
        LoadBalancer::new(BalancerConfig::default())
    }

    /// The timeout workers should apply to the *next* sample, or `None`
    /// during the optimistic phase / when disabled.
    pub fn current_timeout(&self) -> Option<Duration> {
        let ns = self.timeout_ns.load(Ordering::Relaxed);
        if ns == 0 {
            None
        } else {
            Some(Duration::from_nanos(ns))
        }
    }

    /// Records a sample that completed preprocessing on the fast path.
    ///
    /// Only genuine pipeline executions may be recorded here: the
    /// cross-epoch sample cache delivers hits without calling the
    /// balancer at all, because feeding ~0 ms "completions" into the
    /// profiler would drag the adaptive P75 cutoff toward zero and
    /// misclassify every real execution as slow.
    // minato-verify: hot-path
    pub fn on_fast_complete(&self, rec: &SampleRecord) {
        self.profiler.record(rec);
        self.completions.incr();
        self.maybe_refresh();
    }

    /// [`LoadBalancer::on_fast_complete`] for the total times of a whole
    /// ticket chunk: one profiler-lock acquisition and one boundary
    /// check for all of them.
    // minato-verify: hot-path
    pub fn on_fast_complete_many(&self, totals: &[Duration]) {
        if totals.is_empty() {
            return;
        }
        self.profiler.record_many(totals);
        self.completions.add(totals.len() as u64);
        self.maybe_refresh();
    }

    /// Records a sample that hit the timeout and was deferred.
    ///
    /// `total_when_done` is its eventual full preprocessing time, reported
    /// by the background worker on completion so the profiler sees the true
    /// distribution (otherwise slow samples would be censored at the
    /// timeout and the percentile would drift downwards).
    pub fn on_slow_complete(&self, rec: &SampleRecord) {
        self.profiler.record(rec);
        self.completions.incr();
        self.flagged_slow.incr();
        self.maybe_refresh();
    }

    /// Fraction of all completed samples that were flagged slow.
    pub fn slow_fraction(&self) -> f64 {
        let total = self.completions.get();
        if total == 0 {
            0.0
        } else {
            self.flagged_slow.get() as f64 / total as f64
        }
    }

    /// Total completions observed.
    pub fn completions(&self) -> u64 {
        self.completions.get()
    }

    /// Total samples flagged slow.
    pub fn flagged_slow(&self) -> u64 {
        self.flagged_slow.get()
    }

    /// Access to the underlying profiler (for stats snapshots).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Restores checkpointed estimator state into a fresh balancer.
    ///
    /// Counters are seeded so `slow_fraction` carries over; under the
    /// adaptive policy the published cutoff is restored too, and
    /// `refreshed_through` is advanced past the seeded completions so
    /// the restored timeout is not immediately recomputed from an empty
    /// profile window (`refresh_now` with no records is a no-op, so the
    /// restored value holds until real samples refill the window).
    /// Fixed/Disabled policies define their own timeout and only take
    /// the counters.
    pub fn restore(&self, timeout_ns: u64, completions: u64, flagged_slow: u64) {
        self.completions.add(completions);
        self.flagged_slow.add(flagged_slow);
        if matches!(self.cfg.policy, TimeoutPolicy::Adaptive { .. }) && timeout_ns > 0 {
            self.timeout_ns.store(timeout_ns, Ordering::Relaxed);
            self.refreshed_through.store(completions, Ordering::Relaxed);
        }
    }

    fn maybe_refresh(&self) {
        let TimeoutPolicy::Adaptive { .. } = self.cfg.policy else {
            return;
        };
        let n = self.completions.get();
        if n < self.cfg.warmup_samples {
            return;
        }
        // The refresh boundary `n` has most recently crossed: warm-up
        // completion, then `refresh_every` multiples. Claim it by CAS so
        // exactly one of the racing workers refreshes per boundary, and
        // a boundary is never skipped just because no worker read the
        // counter at its exact value.
        let every = self.cfg.refresh_every.max(1);
        let due = (n / every * every).max(self.cfg.warmup_samples);
        let mut last = self.refreshed_through.load(Ordering::Relaxed);
        while last < due {
            match self.refreshed_through.compare_exchange_weak(
                last,
                due,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.refresh_now();
                    return;
                }
                Err(current) => last = current,
            }
        }
    }

    /// Forces a timeout recomputation (used by tests and the monitor
    /// thread).
    pub fn refresh_now(&self) {
        let TimeoutPolicy::Adaptive {
            percentile,
            fallback_percentile,
            misclassification_threshold,
        } = self.cfg.policy
        else {
            return;
        };
        let mut window = self.scratch.lock();
        self.profiler.copy_window_into(&mut window);
        let Some(primary) = window.timeout_at_percentile(percentile) else {
            return;
        };
        // If the primary cutoff would flag far more than (1 - percentile)
        // of recent samples — skewed distribution or drift — fall back to
        // the higher percentile (paper §4.2).
        let would_flag = window.fraction_slower_than(primary);
        let chosen = if would_flag > misclassification_threshold {
            window
                .timeout_at_percentile(fallback_percentile)
                .unwrap_or(primary)
        } else {
            primary
        };
        // Never publish a zero timeout: zero encodes "optimistic".
        let ns = chosen.as_nanos().clamp(1, u64::MAX as u128) as u64;
        self.timeout_ns.store(ns, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ms: u64) -> SampleRecord {
        SampleRecord::total_only(Duration::from_millis(ms))
    }

    #[test]
    fn optimistic_before_warmup() {
        let lb = LoadBalancer::paper_default();
        assert_eq!(lb.current_timeout(), None);
        lb.on_fast_complete(&rec(10));
        assert_eq!(lb.current_timeout(), None, "still warming up");
    }

    #[test]
    fn fixed_policy_is_immediate() {
        let lb = LoadBalancer::new(BalancerConfig {
            policy: TimeoutPolicy::Fixed(Duration::from_millis(9)),
            ..Default::default()
        });
        assert_eq!(lb.current_timeout(), Some(Duration::from_millis(9)));
        // Fixed never refreshes away.
        for _ in 0..100 {
            lb.on_fast_complete(&rec(1));
        }
        assert_eq!(lb.current_timeout(), Some(Duration::from_millis(9)));
    }

    #[test]
    fn disabled_policy_never_times_out() {
        let lb = LoadBalancer::new(BalancerConfig {
            policy: TimeoutPolicy::Disabled,
            ..Default::default()
        });
        for _ in 0..100 {
            lb.on_fast_complete(&rec(1000));
        }
        assert_eq!(lb.current_timeout(), None);
    }

    #[test]
    fn adaptive_timeout_lands_at_p75() {
        let cfg = BalancerConfig {
            warmup_samples: 100,
            refresh_every: 10,
            ..Default::default()
        };
        let lb = LoadBalancer::new(cfg);
        // 75% at 10ms, 25% at 1000ms, interleaved.
        for i in 0..100u64 {
            lb.on_fast_complete(&rec(if i % 4 == 3 { 1000 } else { 10 }));
        }
        let t = lb.current_timeout().expect("warmed up");
        assert!(
            t >= Duration::from_millis(10) && t < Duration::from_millis(1000),
            "P75 must sit between the modes, got {t:?}"
        );
    }

    #[test]
    fn skew_triggers_fallback_to_p90() {
        let cfg = BalancerConfig {
            warmup_samples: 100,
            refresh_every: 10,
            policy: TimeoutPolicy::Adaptive {
                percentile: 0.25, // Deliberately bad: flags 75% as slow.
                fallback_percentile: 0.90,
                misclassification_threshold: 0.35,
            },
            ..Default::default()
        };
        let lb = LoadBalancer::new(cfg);
        for i in 0..200u64 {
            lb.on_fast_complete(&rec((i % 100) * 10));
        }
        let t = lb.current_timeout().expect("warmed up");
        // P25 of 0..990ms ≈ 247ms would flag 75%; fallback P90 ≈ 890ms.
        assert!(
            t > Duration::from_millis(800),
            "fallback percentile expected, got {t:?}"
        );
    }

    #[test]
    fn slow_fraction_tracks_flags() {
        let lb = LoadBalancer::paper_default();
        lb.on_fast_complete(&rec(10));
        lb.on_fast_complete(&rec(10));
        lb.on_slow_complete(&rec(500));
        lb.on_slow_complete(&rec(500));
        assert!((lb.slow_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(lb.completions(), 4);
        assert_eq!(lb.flagged_slow(), 2);
    }

    #[test]
    fn restore_reinstates_adaptive_state() {
        let lb = LoadBalancer::paper_default();
        lb.restore(5_000_000, 40, 10);
        assert_eq!(lb.current_timeout(), Some(Duration::from_nanos(5_000_000)));
        assert_eq!(lb.completions(), 40);
        assert_eq!(lb.flagged_slow(), 10);
        assert!((lb.slow_fraction() - 0.25).abs() < 1e-9);
        // With an empty profile window the refresh is a no-op and the
        // restored cutoff holds.
        lb.refresh_now();
        assert_eq!(lb.current_timeout(), Some(Duration::from_nanos(5_000_000)));
        // A zero timeout (checkpoint taken in the optimistic phase)
        // restores counters only.
        let lb = LoadBalancer::paper_default();
        lb.restore(0, 7, 0);
        assert_eq!(lb.current_timeout(), None);
        assert_eq!(lb.completions(), 7);
        // Fixed policy keeps its own timeout.
        let lb = LoadBalancer::new(BalancerConfig {
            policy: TimeoutPolicy::Fixed(Duration::from_millis(9)),
            ..Default::default()
        });
        lb.restore(1234, 3, 1);
        assert_eq!(lb.current_timeout(), Some(Duration::from_millis(9)));
    }

    /// Regression test for the refresh race: with workers completing
    /// samples concurrently, the completion counter can skip past the
    /// `n == warmup_samples` boundary (and `refresh_every` multiples)
    /// between one worker's `incr` and its `get`. The CAS-claimed
    /// boundary must publish the timeout regardless of interleaving —
    /// without the monitor thread's `refresh_now` backstop.
    #[test]
    fn concurrent_warmup_publishes_timeout_without_backstop() {
        use std::sync::Arc;
        for round in 0..20 {
            let lb = Arc::new(LoadBalancer::new(BalancerConfig {
                warmup_samples: 64,
                // Far beyond the sample count: only the warm-up boundary
                // can publish the timeout.
                refresh_every: 1 << 40,
                ..Default::default()
            }));
            let workers: Vec<_> = (0..8)
                .map(|w| {
                    let lb = Arc::clone(&lb);
                    std::thread::spawn(move || {
                        for i in 0..32u64 {
                            lb.on_fast_complete(&rec(10 + (w + i + round) % 7));
                        }
                    })
                })
                .collect();
            for h in workers {
                h.join().unwrap();
            }
            assert_eq!(lb.completions(), 256);
            assert!(
                lb.current_timeout().is_some(),
                "warm-up boundary skipped under concurrency (round {round})"
            );
        }
    }

    #[test]
    fn timeout_tracks_drift() {
        let cfg = BalancerConfig {
            warmup_samples: 50,
            refresh_every: 50,
            profile_window: 100,
            ..Default::default()
        };
        let lb = LoadBalancer::new(cfg);
        for _ in 0..100 {
            lb.on_fast_complete(&rec(10));
        }
        let before = lb.current_timeout().unwrap();
        // Workload drifts 10x slower; window slides fully over.
        for _ in 0..200 {
            lb.on_fast_complete(&rec(100));
        }
        let after = lb.current_timeout().unwrap();
        assert!(after > before * 5, "timeout must follow drift");
    }
}
