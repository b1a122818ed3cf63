//! Integration tests for the loader on its executor pool: exactly-once
//! delivery across a fast/slow phase shift, the work-conserving drain,
//! strict ordering, and shutdown/drop idempotency.

use minato_core::prelude::*;
use minato_core::transform::{Outcome, Transform, TransformCtx};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
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

/// Every `(epoch, index, seq)` a run over `n` samples must deliver,
/// read from the sampler the loader builds for the same parameters.
fn sampler_tickets(n: usize, epochs: usize, shuffle: bool, seed: u64) -> Vec<(usize, usize, u64)> {
    let sampler = EpochSampler::new(n, epochs, shuffle, seed);
    std::iter::from_fn(|| sampler.next())
        .map(|t| (t.epoch, t.index, t.seq))
        .collect()
}

/// Exactly-once against the sampler's ground truth, across a phase shift
/// that sends the tail of each epoch down the slow path.
#[test]
fn pool_delivers_the_samplers_ticket_set_exactly_once() {
    let (n, epochs) = (80u32, 2usize);
    let ds = VecDataset::new((0..n).collect::<Vec<_>>());
    let p = Pipeline::new(vec![Arc::new(PhaseShift {
        slow_from: n / 2,
        fast: Duration::from_micros(200),
        slow: Duration::from_millis(8),
    }) as Arc<dyn Transform<u32>>]);
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(8)
        .epochs(epochs)
        .shuffle(false)
        .initial_workers(3)
        .max_workers(4)
        .slow_workers(1)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(2)))
        .build()
        .expect("valid configuration");
    let mut got = Vec::new();
    for b in loader.iter() {
        for (s, m) in b.samples.iter().zip(&b.meta) {
            assert_eq!(*s as usize, m.index, "sample detached from its ticket");
            got.push((m.epoch, m.index, m.seq));
        }
    }
    got.sort_unstable();
    let mut want = sampler_tickets(n as usize, epochs, false, 0);
    want.sort_unstable();
    assert_eq!(got, want, "missing or duplicated tickets");
    let exec = loader.stats().exec.expect("executor stats present");
    assert_eq!(exec.roles.len(), 3);
    assert!(exec.role("fast").unwrap().steps > 0);
    assert!(exec.role("slow").unwrap().steps > 0);
    assert!(exec.role("batch").unwrap().steps > 0);
}

/// Defers every fourth sample on its deadline-bearing first run. The
/// background resume holds its sample until two threads are resuming at
/// once. A second resumer has three possible sources: a fast worker
/// helping inline because the temp queue is full, a fast worker
/// *moonlighting* between two chunks because the backlog passed
/// `TICKET_CHUNK × slow_workers` (8 with one slow worker), or a fast
/// worker that joined the slow role after the source drained. The test
/// below sizes its run to rule out the first two (a temp queue too deep
/// to fill, eight deferred samples in all), so the third is the only one
/// left. Bounded, so a pool that never sends one fails the assertions
/// instead of hanging.
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
/// only: the deferred backlog the pool holds at source drain is adopted
/// by its fast workers, and delivery stays exactly-once.
#[test]
fn fixed_pool_adopts_the_slow_backlog_at_drain() {
    // 32 samples, every fourth deferred: a backlog of at most 8, which
    // is the moonlight mark, not over it.
    let (n, epochs) = (16u32, 2usize);
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
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
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
    assert!(
        exec.role("slow").unwrap().switches_in >= 1,
        "no fast worker switched into the slow role at drain: {exec:?}"
    );
    assert_eq!(exec.role("fast").unwrap().switches_in, 0);
    assert_eq!(
        switches_before_drain, 0,
        "a worker left a live home role: {exec:?}"
    );
    // Only the three fast threads have a live role left to join once
    // their own is exhausted (the slow role; the batch lane is staffed),
    // and each joins it once.
    assert!(
        exec.role_switches <= 3,
        "workers kept migrating after the drain: {exec:?}"
    );
}

/// Strict mode against the sampler's ground truth: shuffled, across an
/// epoch boundary, with one fast worker parked by the initial budget —
/// once with a free-running consumer, once under back-pressure all the
/// way up: a consumer that takes a batch only when the producers are
/// blocked on the full 100-slot fast queue (or have nothing left to
/// produce), with its two-batch queue full.
#[test]
fn order_preserving_keeps_sampler_order() {
    let (n, epochs, seed) = (192usize, 2usize, 5u64);
    for backpressure in [false, true] {
        let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
        let loader = MinatoLoader::builder(ds, Pipeline::identity())
            .batch_size(4)
            .epochs(epochs)
            .seed(seed)
            .order_preserving(true)
            .initial_workers(3)
            .max_workers(4)
            .build()
            .unwrap();
        let mut got = Vec::new();
        loop {
            if backpressure {
                let t0 = Instant::now();
                loop {
                    let s = loader.stats();
                    if s.fast_queue_len == 100 || s.samples_done == (n * epochs) as u64 {
                        break;
                    }
                    assert!(t0.elapsed() < FAIL_SAFE, "producers stalled: {s:?}");
                    std::thread::yield_now();
                }
            }
            let Some(b) = loader.next_batch(0) else { break };
            got.extend(b.meta.iter().map(|m| (m.epoch, m.index, m.seq)));
        }
        assert_eq!(got, sampler_tickets(n, epochs, true, seed));
    }
}

/// How long a test waits for something a working loader does at once: a
/// loader that can never do it fails the test instead of hanging it.
const FAIL_SAFE: Duration = Duration::from_secs(10);

/// An identity pipeline that holds the sample `held` until the test
/// sends on `gate`'s channel; `expired` is set if that never happened.
fn gated_pipeline(held: u32, gate: Receiver<()>, expired: Arc<AtomicBool>) -> Pipeline<u32> {
    let gate = Mutex::new(gate);
    Pipeline::new(vec![fn_transform("gate", move |x: u32| {
        if x == held && gate.lock().unwrap().recv_timeout(FAIL_SAFE).is_err() {
            expired.store(true, Ordering::SeqCst);
        }
        Ok(x)
    })])
}

/// A quarantined sample must not stall ordered delivery: the run cannot
/// drain while its last ticket is held, and the last ticket is released
/// only by the consumer receiving the batch that follows the failed
/// seq.
#[test]
fn ordered_delivery_continues_past_a_quarantined_sample() {
    const N: u32 = 64;
    const FAILED: u32 = 5;
    let ds = minato_core::dataset::FnDataset::new(N as usize, |i| {
        if i == FAILED as usize {
            Err(LoaderError::Dataset {
                index: i,
                msg: "unreadable".into(),
            })
        } else {
            Ok(i as u32)
        }
    });
    let (open, gate) = channel();
    let expired = Arc::new(AtomicBool::new(false));
    let loader = MinatoLoader::builder(ds, gated_pipeline(N - 1, gate, Arc::clone(&expired)))
        .batch_size(4)
        .shuffle(false)
        .order_preserving(true)
        .initial_workers(2)
        .max_workers(2)
        .build()
        .unwrap();
    let mut got: Vec<u64> = Vec::new();
    for b in loader.iter() {
        got.extend(b.meta.iter().map(|m| m.seq));
        if got.last().is_some_and(|&seq| seq > FAILED as u64) {
            let _ = open.send(());
        }
    }
    assert!(
        !expired.load(Ordering::SeqCst),
        "nothing past the failed seq was delivered before the run drained"
    );
    let want: Vec<u64> = (0..N as u64).filter(|&s| s != FAILED as u64).collect();
    assert_eq!(got, want);
    assert_eq!(loader.stats().errors, 1);
}

/// An ordered run resumed from a checkpoint awaits the checkpoint's
/// watermark, not seq 0, and walks over the seqs delivered above it: the
/// first resumed batch arrives while the run's last ticket is still
/// held, and the two runs together deliver the sampler's sequence, each
/// seq once. (The first run loses seq 2 to a transient fault, so its
/// deliveries are not a prefix.)
#[test]
fn ordered_resume_starts_at_the_checkpoint() {
    let (n, seed) = (64usize, 11u64);
    let tickets = sampler_tickets(n, 1, true, seed);
    let (transient, last) = (tickets[2].1, tickets[n - 1].1);
    let build = |faulty: bool, pipeline: Pipeline<u32>, resume: Option<LoaderCheckpoint>| {
        let ds = minato_core::dataset::FnDataset::new(n, move |i| {
            if faulty && i == transient {
                Err(LoaderError::Dataset {
                    index: i,
                    msg: "transient".into(),
                })
            } else {
                Ok(i as u32)
            }
        });
        let mut b = MinatoLoader::builder(ds, pipeline)
            .batch_size(4)
            .seed(seed)
            .order_preserving(true)
            .checkpoint(true)
            .initial_workers(2)
            .max_workers(2);
        if let Some(ck) = resume {
            b = b.resume_from(ck);
        }
        b.build().unwrap()
    };

    let first = build(true, Pipeline::identity(), None);
    let mut pre: Vec<u64> = Vec::new();
    for _ in 0..5 {
        let b = first.next_batch(0).expect("five batches before the kill");
        pre.extend(b.meta.iter().map(|m| m.seq));
    }
    let ckpt = first.checkpoint().expect("checkpointing enabled");
    drop(first);
    assert_eq!(pre, [0, 1].into_iter().chain(3..=20).collect::<Vec<u64>>());
    assert_eq!(ckpt.watermark, 2);
    assert_eq!(ckpt.delivered_above, (3..=20).collect::<Vec<u64>>());

    let (open, gate) = channel();
    let expired = Arc::new(AtomicBool::new(false));
    let pipeline = gated_pipeline(last as u32, gate, Arc::clone(&expired));
    let second = build(false, pipeline, Some(ckpt));
    let mut post: Vec<u64> = Vec::new();
    for b in second.iter() {
        post.extend(b.meta.iter().map(|m| m.seq));
        let _ = open.send(());
    }
    assert!(
        !expired.load(Ordering::SeqCst),
        "the resumed run delivered nothing before it drained"
    );
    assert_eq!(post, [2].into_iter().chain(21..64).collect::<Vec<u64>>());
}

#[test]
fn shutdown_twice_is_idempotent_and_keeps_first_error() {
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

#[test]
#[allow(clippy::drop_non_drop)] // The drops ARE the behavior under test.
fn drop_mid_iteration_after_shutdown_is_clean() {
    let ds = VecDataset::new((0..500u32).collect::<Vec<_>>());
    let mut loader = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(5)
        .initial_workers(2)
        .max_workers(4)
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
