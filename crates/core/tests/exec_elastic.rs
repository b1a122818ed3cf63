//! Integration tests for the elastic role-fluid executor: delivery
//! equivalence across executor modes, work-stealing migration under a
//! phase shift, shutdown idempotency, and multi-loader tenancy on a
//! shared pool.

use minato_core::loader::ExecutorConfig;
use minato_core::prelude::*;
use minato_core::transform::{Outcome, Transform, TransformCtx};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Burns ~`cost` per sample, cooperating with the deadline. Samples with
/// `index >= slow_from` and `index % 5 != 0` are much slower — a
/// fig12-style phase shift from an all-fast first half to an 80%-slow
/// second half.
struct PhaseShift {
    slow_from: u32,
    fast: Duration,
    slow: Duration,
}

impl Transform<u32> for PhaseShift {
    fn name(&self) -> &str {
        "phase-shift"
    }

    fn apply(&self, input: u32, ctx: &TransformCtx) -> minato_core::error::Result<Outcome<u32>> {
        let cost = if input >= self.slow_from && !input.is_multiple_of(5) {
            self.slow
        } else {
            self.fast
        };
        let start = Instant::now();
        while start.elapsed() < cost {
            if ctx.expired() {
                return Ok(Outcome::Interrupted(input));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(Outcome::Done(input))
    }
}

fn run_and_count(exec: ExecutorConfig, n: u32) -> (usize, LoaderStats) {
    let ds = VecDataset::new((0..n).collect::<Vec<_>>());
    let p = Pipeline::new(vec![Arc::new(PhaseShift {
        slow_from: n / 2,
        fast: Duration::from_micros(200),
        slow: Duration::from_millis(8),
    }) as Arc<dyn Transform<u32>>]);
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(8)
        .shuffle(false)
        .initial_workers(3)
        .max_workers(4)
        .slow_workers(1)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(2)))
        .executor(exec)
        .build()
        .expect("valid configuration");
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for b in loader.iter() {
        for s in &b.samples {
            *counts.entry(*s).or_default() += 1;
        }
    }
    assert!(counts.values().all(|&c| c == 1), "duplicated samples");
    (counts.len(), loader.stats())
}

#[test]
fn elastic_executor_delivers_every_sample_exactly_once() {
    let (delivered, stats) = run_and_count(ExecutorConfig::Elastic { threads: 6 }, 80);
    assert_eq!(delivered, 80);
    let exec = stats.exec.expect("executor stats present");
    assert!(exec.elastic);
    assert_eq!(exec.roles.len(), 3);
    assert!(exec.role("fast").unwrap().steps > 0);
    assert!(exec.role("batch").unwrap().steps > 0);
}

#[test]
fn fixed_and_elastic_deliver_identical_sample_sets() {
    let (fixed, _) = run_and_count(ExecutorConfig::Fixed, 60);
    let (elastic, _) = run_and_count(ExecutorConfig::Elastic { threads: 6 }, 60);
    assert_eq!(fixed, elastic);
}

/// Defers every fourth sample on its deadline-bearing first run. The
/// background resume holds its sample until two threads are resuming at
/// once — with one slow worker and a temp queue too deep to fill (no
/// backpressure helping), the second can only be a fast worker that
/// joined the slow role after the source drained. Bounded, so a pool
/// that never sends one fails the assertions instead of hanging.
struct DeferUntilHelped {
    resuming: AtomicUsize,
    max_resuming: AtomicUsize,
}

impl Transform<u32> for DeferUntilHelped {
    fn name(&self) -> &str {
        "defer-until-helped"
    }

    fn apply(&self, x: u32, ctx: &TransformCtx) -> minato_core::error::Result<Outcome<u32>> {
        if ctx.deadline().is_some() {
            if !x.is_multiple_of(4) {
                return Ok(Outcome::Done(x));
            }
            while !ctx.expired() {
                std::thread::sleep(Duration::from_micros(200));
            }
            return Ok(Outcome::Interrupted(x));
        }
        let now = self.resuming.fetch_add(1, Ordering::AcqRel) + 1;
        self.max_resuming.fetch_max(now, Ordering::AcqRel);
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.max_resuming.load(Ordering::Acquire) < 2 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        self.resuming.fetch_sub(1, Ordering::AcqRel);
        Ok(Outcome::Done(x))
    }
}

/// The loader-level effect of the work-conserving drain, by counters
/// only: the deferred backlog a fixed pool holds at source drain is
/// adopted by its fast workers, and delivery stays exactly-once.
#[test]
fn fixed_pool_adopts_the_slow_backlog_at_drain() {
    let (n, epochs) = (64u32, 2usize);
    let gate = Arc::new(DeferUntilHelped {
        resuming: AtomicUsize::new(0),
        max_resuming: AtomicUsize::new(0),
    });
    let ds = VecDataset::new((0..n).collect::<Vec<_>>());
    let p = Pipeline::new(vec![Arc::clone(&gate) as Arc<dyn Transform<u32>>]);
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(8)
        .epochs(epochs)
        .initial_workers(3)
        .max_workers(3)
        .slow_workers(1)
        .queue_capacity(n as usize * epochs)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
        .executor(ExecutorConfig::Fixed)
        .build()
        .expect("valid configuration");
    let mut counts: HashMap<(usize, usize), usize> = HashMap::new();
    let mut switches_before_drain = 0u64;
    for b in loader.iter() {
        for m in &b.meta {
            *counts.entry((m.epoch, m.index)).or_default() += 1;
        }
        // Switch total first, fast-role liveness second: a total read
        // before the role was seen live was reached before the drain.
        let exec_stats = || loader.stats().exec.expect("executor stats present");
        let switches = exec_stats().role_switches;
        if !exec_stats().role("fast").unwrap().exhausted {
            switches_before_drain = switches_before_drain.max(switches);
        }
    }
    assert_eq!(counts.len(), n as usize * epochs, "missing samples");
    assert!(counts.values().all(|&c| c == 1), "duplicated samples");
    assert!(
        gate.max_resuming.load(Ordering::Relaxed) >= 2,
        "the slow worker finished the backlog alone"
    );
    let exec = loader.stats().exec.expect("executor stats present");
    assert!(!exec.elastic);
    assert!(
        exec.role("slow").unwrap().switches_in >= 1,
        "no fast worker switched into the slow role at drain: {exec:?}"
    );
    assert_eq!(exec.role("fast").unwrap().switches_in, 0);
    assert_eq!(
        switches_before_drain, 0,
        "a fixed worker left a live home role: {exec:?}"
    );
    // Only the three fast threads have a live role left to join once
    // their own is exhausted (the slow role; the batch lane is staffed),
    // and each joins it once.
    assert!(
        exec.role_switches <= 3,
        "fixed workers kept migrating after the drain: {exec:?}"
    );
}

#[test]
fn elastic_order_preserving_keeps_sampler_order() {
    let ds = VecDataset::new((0..48u32).collect::<Vec<_>>());
    let loader = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(4)
        .shuffle(false)
        .order_preserving(true)
        .initial_workers(3)
        .max_workers(4)
        .executor(ExecutorConfig::Elastic { threads: 5 })
        .build()
        .unwrap();
    let all: Vec<u32> = loader.iter().flat_map(|b| b.into_samples()).collect();
    assert_eq!(all, (0..48).collect::<Vec<u32>>());
}

/// Satellite: a slow-heavy phase shift must migrate capacity from the
/// fast role to the slow role. The deterministic two-refresh bound on
/// the budget vector is pinned in `scheduler.rs`
/// (`role_budgets_sum_to_limit_and_move_slowly`); this end-to-end test
/// asserts the live migration — the slow budget grows beyond its
/// initial share shortly after the backlog appears, and the role-switch
/// counters record at least one worker actually moving into the slow
/// role.
#[test]
fn phase_shift_moves_workers_from_fast_to_slow() {
    let n = 160u32;
    let ds = VecDataset::new((0..n).collect::<Vec<_>>());
    let p = Pipeline::new(vec![Arc::new(PhaseShift {
        slow_from: n / 2,
        fast: Duration::from_micros(200),
        slow: Duration::from_millis(12),
    }) as Arc<dyn Transform<u32>>]);
    let interval = Duration::from_millis(25);
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(8)
        .shuffle(false)
        .initial_workers(4)
        .max_workers(6)
        .slow_workers(1)
        .queue_capacity(16)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(2)))
        .scheduler(SchedulerConfig {
            interval,
            ..SchedulerConfig::paper_default(6)
        })
        .executor(ExecutorConfig::Elastic { threads: 6 })
        .build()
        .unwrap();
    let initial_slow = loader.stats().exec.unwrap().role("slow").unwrap().budget;
    assert_eq!(initial_slow, 1);

    // Consume on a side thread while the main thread watches the budget
    // migrate: record when a slow backlog is first visible and when the
    // slow budget first exceeds its initial share.
    let loader = Arc::new(loader);
    let l2 = Arc::clone(&loader);
    let consumer = std::thread::spawn(move || {
        let mut total = 0usize;
        while let Some(b) = l2.next_batch(0) {
            total += b.len();
        }
        total
    });
    let mut backlog_seen_at: Option<Instant> = None;
    let mut grew_at: Option<Instant> = None;
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let s = loader.stats();
        if backlog_seen_at.is_none() && s.temp_queue_len > 0 {
            backlog_seen_at = Some(Instant::now());
        }
        if let Some(exec) = &s.exec {
            if grew_at.is_none() && exec.role("slow").unwrap().budget > initial_slow {
                grew_at = Some(Instant::now());
            }
        }
        if grew_at.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let total = consumer.join().unwrap();
    assert_eq!(total, n as usize, "every sample delivered");
    let grew_at = grew_at.expect("slow budget never grew past its initial share");
    if let Some(seen) = backlog_seen_at {
        // The budget vector reacts at the first refresh that sees the
        // smoothed backlog above the grow threshold — two refresh
        // intervals bound it by design; allow the same again for CI
        // scheduling noise.
        let lag = grew_at.saturating_duration_since(seen);
        assert!(
            lag <= 4 * interval,
            "slow budget took {lag:?} to react (interval {interval:?})"
        );
    }
    let exec = loader.stats().exec.unwrap();
    let slow = exec.role("slow").unwrap();
    assert!(
        slow.switches_in >= 1,
        "no worker ever switched into the slow role: {exec:?}"
    );
    assert!(
        slow.steps > 0,
        "slow role must have completed deferred work"
    );
}

#[test]
fn shutdown_twice_is_idempotent_and_keeps_first_error() {
    for exec in [
        ExecutorConfig::Fixed,
        ExecutorConfig::Elastic { threads: 4 },
    ] {
        let ds = minato_core::dataset::FnDataset::new(40, |i| {
            if i == 7 {
                Err(LoaderError::Dataset {
                    index: i,
                    msg: "synthetic".into(),
                })
            } else {
                Ok(i as u32)
            }
        });
        let mut loader = MinatoLoader::builder(ds, Pipeline::identity())
            .batch_size(5)
            .initial_workers(2)
            .max_workers(2)
            .executor(exec)
            .build()
            .unwrap();
        let delivered: usize = loader.iter().map(|b| b.len()).sum();
        assert_eq!(delivered, 39);
        loader.shutdown();
        assert!(
            loader.first_error().is_some(),
            "first_error survives shutdown"
        );
        loader.shutdown(); // Second call: no deadlock, no double-join.
        assert!(loader.first_error().is_some());
        drop(loader); // Drop after explicit shutdown: clean.
    }
}

#[test]
#[allow(clippy::drop_non_drop)] // The drops ARE the behavior under test.
fn drop_mid_iteration_after_shutdown_is_clean() {
    let ds = VecDataset::new((0..500u32).collect::<Vec<_>>());
    let mut loader = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(5)
        .initial_workers(2)
        .max_workers(4)
        .executor(ExecutorConfig::Elastic { threads: 5 })
        .build()
        .unwrap();
    let mut it = loader.iter();
    let _ = it.next();
    drop(it);
    loader.shutdown();
    drop(loader); // Must not hang or panic.
}

/// The monitor thread waits out its refresh interval interruptibly:
/// dropping a consumed loader must not sit out the rest of it. The
/// interval is raised to 2 s so an uninterrupted sleep cannot meet the
/// bound by luck.
#[test]
fn drop_does_not_wait_out_the_monitor_interval() {
    let interval = Duration::from_secs(2);
    let ds = VecDataset::new((0..40u32).collect::<Vec<_>>());
    let loader = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(5)
        .initial_workers(2)
        .max_workers(2)
        .scheduler(SchedulerConfig {
            interval,
            ..SchedulerConfig::paper_default(2)
        })
        .build()
        .unwrap();
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(delivered, 40);
    let t0 = Instant::now();
    drop(loader);
    let took = t0.elapsed();
    assert!(
        took <= interval / 2,
        "drop took {took:?} with a {interval:?} monitor interval"
    );
}

#[test]
fn two_loaders_share_one_executor_pool() {
    let pool = SharedExecutor::new(6);
    let run = |pool: SharedExecutor, n: u32, seed: u64| {
        let ds = VecDataset::new((0..n).collect::<Vec<_>>());
        let p = Pipeline::new(vec![Arc::new(PhaseShift {
            slow_from: n / 2,
            fast: Duration::from_micros(200),
            slow: Duration::from_millis(4),
        }) as Arc<dyn Transform<u32>>]);
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(8)
            .seed(seed)
            .initial_workers(2)
            .max_workers(3)
            .slow_workers(1)
            .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(2)))
            .executor(ExecutorConfig::Shared(pool))
            .build()
            .expect("loader builds");
        let delivered: usize = loader.iter().map(|b| b.len()).sum();
        let stats = loader.stats();
        (delivered, stats)
    };
    // Two loaders run concurrently on the same six threads.
    let p2 = pool.clone();
    let t = std::thread::spawn(move || run(p2, 64, 1));
    let (d1, s1) = run(pool.clone(), 96, 2);
    let (d2, s2) = t.join().unwrap();
    assert_eq!(d1, 96);
    assert_eq!(d2, 64);
    // Each loader's stats are scoped to its own roles.
    assert_eq!(s1.exec.as_ref().unwrap().roles.len(), 3);
    assert_eq!(s2.exec.as_ref().unwrap().roles.len(), 3);
    // A third loader after both finished: the pool is still alive and
    // prunes the finished roles on registration.
    let (d3, s3) = run(pool.clone(), 32, 3);
    assert_eq!(d3, 32);
    assert_eq!(s3.exec.as_ref().unwrap().roles.len(), 3);
    drop(pool); // Shuts the shared pool down and joins its threads.
}
