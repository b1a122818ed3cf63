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
//! 4. **Continuous adjustment.** Profiling keeps running during training.
//!    The completion that ends warm-up publishes the first cutoff; after
//!    that only [`LoadBalancer::refresh_now`] recomputes it, at most once
//!    per [`REFRESH_INTERVAL`]: [`LoadBalancer::tick`], which the loader
//!    calls once at the end of every shuffled claim, runs it for the
//!    first caller past the due time. The simulator (`minato-sim`) drives
//!    this same balancer and calls `refresh_now` on a virtual-time tick
//!    of the same interval.
//!
//! # Cost model
//!
//! A completion costs one profiler-lock acquisition (one per ticket
//! chunk through [`LoadBalancer::on_fast_complete_many`]), two counter
//! increments and one relaxed load of the warm-up flag. A tick costs
//! that load before warm-up, and one more load of the due time after
//! it; only a tick past the due time pays a compare-exchange, and only
//! its winner refreshes. The one worker whose completion ends warm-up
//! pays the first refresh. Every refresh — that one, then at most one
//! per interval — copies the profile window into a buffer the balancer
//! keeps, then runs the primary percentile, the would-flag fraction
//! and, under skew, the fallback percentile, each one O(window) pass
//! over that copy — selection, not a sort — with the per-sample
//! profiler lock already released. No allocation once the window has
//! filled.

use crate::profiler::{Profiler, SampleRecord, Window};
use minato_metrics::Counter;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Least time between two refreshes of the adaptive cutoff after
/// warm-up ([`LoadBalancer::tick`]).
pub const REFRESH_INTERVAL: Duration = Duration::from_millis(100);

/// Takes a periodic job due at `*due_ns` for a caller at `now_ns`: true
/// for the one caller at or past the due time that wins the
/// compare-exchange moving it to one [`REFRESH_INTERVAL`] after `now_ns`,
/// false for every other. Costs one relaxed load while the job is not
/// due. Relaxed: the due time publishes no data; the job takes the locks
/// that guard what it reads.
#[inline]
pub(crate) fn take_due(due_ns: &AtomicU64, now_ns: u64) -> bool {
    let due = due_ns.load(Ordering::Relaxed);
    let next = now_ns.saturating_add(REFRESH_INTERVAL.as_nanos() as u64);
    now_ns >= due
        && due_ns
            .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
}

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
    /// Sliding window length for profiling statistics.
    pub profile_window: usize,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            policy: TimeoutPolicy::paper_default(),
            warmup_samples: 32,
            profile_window: 4096,
        }
    }
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
    /// Set once the warm-up cutoff has been published (or restored);
    /// only ever set under the adaptive policy. Claimed by swap, so
    /// exactly one of the workers racing past `warmup_samples` publishes
    /// it, even when the completion counter skips the exact boundary
    /// between one worker's add and its read. Relaxed: it publishes no
    /// data (the refresh reads the profile under the profiler's own
    /// lock).
    warmed: AtomicBool,
    /// When the next [`LoadBalancer::tick`] refreshes, in the callers'
    /// nanoseconds ([`take_due`]).
    refresh_due_ns: AtomicU64,
    /// The refresh's private copy of the profile window, reused so a
    /// refresh allocates nothing. All but uncontended: the warm-up
    /// publish runs once, then one tick per interval refreshes.
    scratch: Mutex<Window>,
}

impl LoadBalancer {
    /// Creates a balancer with the given configuration.
    pub fn new(cfg: BalancerConfig) -> LoadBalancer {
        let timeout_ns = match cfg.policy {
            TimeoutPolicy::Fixed(d) => d.as_nanos() as u64,
            _ => 0,
        };
        let profiler = Profiler::new(cfg.profile_window);
        LoadBalancer {
            cfg,
            profiler,
            timeout_ns: AtomicU64::new(timeout_ns),
            completions: Counter::new(),
            flagged_slow: Counter::new(),
            warmed: AtomicBool::new(false),
            refresh_due_ns: AtomicU64::new(REFRESH_INTERVAL.as_nanos() as u64),
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
        self.publish_warmup();
    }

    /// [`LoadBalancer::on_fast_complete`] for the total times of a whole
    /// ticket chunk: one profiler-lock acquisition and one warm-up check
    /// for all of them.
    // minato-verify: hot-path
    pub fn on_fast_complete_many(&self, totals: &[Duration]) {
        if totals.is_empty() {
            return;
        }
        self.profiler.record_many(totals);
        self.completions.add(totals.len() as u64);
        self.publish_warmup();
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
        self.publish_warmup();
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
    /// adaptive policy the published cutoff is restored too and marks
    /// warm-up as done, so the resumed run's first completion does not
    /// replace it with the percentile of a one-sample window
    /// (`refresh_now` with no records is a no-op, so the restored value
    /// holds until the first tick past the interval refreshes it over
    /// real samples).
    /// Fixed/Disabled policies define their own timeout and only take
    /// the counters.
    pub fn restore(&self, timeout_ns: u64, completions: u64, flagged_slow: u64) {
        self.completions.add(completions);
        self.flagged_slow.add(flagged_slow);
        if matches!(self.cfg.policy, TimeoutPolicy::Adaptive { .. }) && timeout_ns > 0 {
            self.timeout_ns.store(timeout_ns, Ordering::Relaxed);
            self.warmed.store(true, Ordering::Relaxed);
        }
    }

    /// Publishes the first adaptive cutoff on the completion that ends
    /// warm-up; later refreshes are [`LoadBalancer::tick`]'s.
    fn publish_warmup(&self) {
        if self.warmed.load(Ordering::Relaxed)
            || !matches!(self.cfg.policy, TimeoutPolicy::Adaptive { .. })
            || self.completions.get() < self.cfg.warmup_samples
        {
            return;
        }
        if !self.warmed.swap(true, Ordering::Relaxed) {
            self.refresh_now();
        }
    }

    /// The periodic refresh of the adaptive cutoff: `now_ns` is the
    /// caller's time, in nanoseconds on the one clock every caller
    /// shares (the loader's: since it started). Once warm-up is over,
    /// the first tick at or past the due time (one [`REFRESH_INTERVAL`]
    /// from the clock's zero at first) moves it one interval past
    /// `now_ns` and refreshes; any other tick changes nothing. A late
    /// `now_ns` only delays a refresh.
    // minato-verify: hot-path
    pub fn tick(&self, now_ns: u64) {
        // `warmed` is only ever set under the adaptive policy.
        if self.warmed.load(Ordering::Relaxed) && take_due(&self.refresh_due_ns, now_ns) {
            self.refresh_now();
        }
    }

    /// Recomputes the adaptive timeout from the current profile window
    /// now; [`LoadBalancer::tick`] calls it at most once per interval.
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
        // The restored cutoff counts as the warm-up publish: completions
        // past `warmup_samples` leave it for a tick to refresh.
        for _ in 0..32 {
            lb.on_fast_complete(&rec(1));
        }
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

    /// Regression test for the warm-up race: with workers completing
    /// samples concurrently, the completion counter can skip past the
    /// `n == warmup_samples` boundary between one worker's `incr` and its
    /// `get`. The swap-claimed flag must publish the timeout regardless
    /// of interleaving — without a tick's `refresh_now`.
    #[test]
    fn concurrent_warmup_publishes_timeout_without_backstop() {
        use std::sync::Arc;
        for round in 0..20 {
            let lb = Arc::new(LoadBalancer::new(BalancerConfig {
                warmup_samples: 64,
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

    const INTERVAL_NS: u64 = REFRESH_INTERVAL.as_nanos() as u64;

    #[test]
    fn no_tick_refreshes_before_warmup() {
        let lb = LoadBalancer::new(BalancerConfig {
            warmup_samples: 50,
            ..Default::default()
        });
        for _ in 0..49 {
            lb.on_fast_complete(&rec(10));
        }
        lb.tick(10 * INTERVAL_NS);
        assert_eq!(lb.current_timeout(), None, "a tick ended warm-up");
        // Nor does a fixed or disabled policy's tick publish anything.
        for policy in [
            TimeoutPolicy::Fixed(Duration::from_millis(9)),
            TimeoutPolicy::Disabled,
        ] {
            let lb = LoadBalancer::new(BalancerConfig {
                policy,
                warmup_samples: 1,
                ..Default::default()
            });
            let before = lb.current_timeout();
            lb.on_fast_complete(&rec(500));
            lb.tick(10 * INTERVAL_NS);
            assert_eq!(lb.current_timeout(), before, "{policy:?}");
        }
    }

    #[test]
    fn ticks_refresh_at_most_once_per_interval() {
        let lb = LoadBalancer::new(BalancerConfig {
            warmup_samples: 50,
            profile_window: 100,
            ..Default::default()
        });
        for _ in 0..100 {
            lb.on_fast_complete(&rec(10));
        }
        let at_warmup = lb.current_timeout().expect("warmed up");
        // The window drifts tenfold.
        for _ in 0..100 {
            lb.on_fast_complete(&rec(100));
        }
        // Not yet due: the first refresh is one interval from zero.
        lb.tick(INTERVAL_NS - 1);
        assert_eq!(lb.current_timeout(), Some(at_warmup));
        lb.tick(INTERVAL_NS);
        let first = lb.current_timeout().unwrap();
        assert!(
            first > at_warmup * 5,
            "the due tick must refresh: {first:?}"
        );
        // The window drifts back, but a second tick inside the interval
        // leaves it unpublished.
        for _ in 0..100 {
            lb.on_fast_complete(&rec(10));
        }
        lb.tick(INTERVAL_NS + INTERVAL_NS / 2);
        lb.tick(2 * INTERVAL_NS - 1);
        assert_eq!(
            lb.current_timeout(),
            Some(first),
            "refreshed inside the interval"
        );
        // The first tick a whole interval after the last refresh does.
        lb.tick(2 * INTERVAL_NS);
        assert_eq!(lb.current_timeout(), Some(at_warmup));
    }

    #[test]
    fn a_restored_cutoff_is_refreshed_by_the_first_tick_past_the_interval() {
        let lb = LoadBalancer::paper_default();
        let restored = Duration::from_millis(5);
        lb.restore(restored.as_nanos() as u64, 40, 10);
        for _ in 0..100 {
            lb.on_fast_complete(&rec(100));
        }
        lb.tick(INTERVAL_NS / 2);
        assert_eq!(lb.current_timeout(), Some(restored), "refreshed early");
        lb.tick(INTERVAL_NS);
        let refreshed = lb.current_timeout().unwrap();
        assert!(
            refreshed > restored * 10,
            "the restored cutoff must follow the run's samples: {refreshed:?}"
        );
    }

    #[test]
    fn timeout_tracks_drift() {
        let cfg = BalancerConfig {
            warmup_samples: 50,
            profile_window: 100,
            ..Default::default()
        };
        let lb = LoadBalancer::new(cfg);
        for _ in 0..100 {
            lb.on_fast_complete(&rec(10));
        }
        let before = lb.current_timeout().unwrap();
        // Workload drifts 10x slower; window slides fully over, then a
        // refresh follows it.
        for _ in 0..200 {
            lb.on_fast_complete(&rec(100));
        }
        lb.refresh_now();
        let after = lb.current_timeout().unwrap();
        assert!(after > before * 5, "timeout must follow drift");
    }
}
