//! Integration tests for the loader on its executor pool: exactly-once
//! delivery across a fast/slow phase shift, the claim share of the one
//! worker step, the whole pool resuming the deferred backlog once the
//! sampler drains, strict ordering, and shutdown/drop idempotency.

use minato_core::prelude::*;
use minato_core::transform::{Outcome, Transform, TransformCtx};
use std::collections::{HashMap, HashSet};
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
        .max_workers(3)
        .slow_workers(1)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(2)))
        .build()
        .expect("valid configuration");
    let mut got = Vec::new();
    let mut resumed = 0usize;
    for b in loader.iter() {
        for (s, m) in b.samples.iter().zip(&b.meta) {
            assert_eq!(*s as usize, m.index, "sample detached from its ticket");
            got.push((m.epoch, m.index, m.seq));
            resumed += usize::from(m.slow);
        }
    }
    got.sort_unstable();
    let mut want = sampler_tickets(n as usize, epochs, false, 0);
    want.sort_unstable();
    assert_eq!(got, want, "missing or duplicated tickets");
    assert!(resumed > 0, "no sample went down the slow path");
    // One role, the worker step, on every pool thread: finished samples
    // go into their batches from the thread that finished them.
    let exec = loader.stats().exec.expect("executor stats present");
    assert_eq!(role_names(&exec), ["worker"]);
    assert!(exec.role("worker").unwrap().steps > 0);
    assert_eq!(exec.threads, 3 + 1, "max_workers + slow_workers");
}

/// The names of the executor's roles, in registration order.
fn role_names(exec: &ExecStats) -> Vec<&str> {
    exec.roles.iter().map(|r| r.name.as_str()).collect()
}

/// Defers every fourth sample on its deadline-bearing first run. The
/// background resume holds its sample until two threads are resuming at
/// once, and records which threads resumed. While the sampler has
/// tickets, a resumer beside the first has three possible sources: a
/// claiming worker helping inline because the temp queue is full, one
/// *moonlighting* between two claims because the backlog passed
/// `TICKET_CHUNK × slow_workers` (8 with one slow worker), or a step
/// refused a place in the claim share. The test below rules out all
/// three: a temp queue too deep to fill, eight deferred samples in all,
/// and a pool one thread wider than the share, that thread being the
/// first resumer, held here. So the second resumer comes after the
/// sampler drained, when every step resumes. Bounded, so a pool that
/// never sends one fails the assertions instead of hanging.
struct DeferUntilHelped {
    resuming: AtomicUsize,
    max_resuming: AtomicUsize,
    resumers: Mutex<HashSet<std::thread::ThreadId>>,
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
        self.resumers
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.max_resuming.load(Ordering::Acquire) < 2 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        self.resuming.fetch_sub(1, Ordering::AcqRel);
        Ok(Outcome::Done(x))
    }
}

/// Once the sampler drains, every step resumes: the deferred backlog
/// left at the drain is finished by more than `slow_workers` distinct
/// threads, and delivery stays exactly-once.
#[test]
fn fixed_pool_adopts_the_slow_backlog_at_drain() {
    // 32 samples, every fourth deferred: a backlog of at most 8, which
    // is the moonlight mark, not over it.
    let (n, epochs, slow_workers) = (16u32, 2usize, 1usize);
    let gate = Arc::new(DeferUntilHelped {
        resuming: AtomicUsize::new(0),
        max_resuming: AtomicUsize::new(0),
        resumers: Mutex::new(HashSet::new()),
    });
    let ds = VecDataset::new((0..n).collect::<Vec<_>>());
    let p = Pipeline::new(vec![Arc::clone(&gate) as Arc<dyn Transform<u32>>]);
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(8)
        .epochs(epochs)
        .max_workers(3)
        .slow_workers(slow_workers)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
        .build()
        .expect("valid configuration");
    let mut counts: HashMap<(usize, usize), usize> = HashMap::new();
    for b in loader.iter() {
        for m in &b.meta {
            *counts.entry((m.epoch, m.index)).or_default() += 1;
        }
    }
    assert_eq!(counts.len(), n as usize * epochs, "missing samples");
    assert!(counts.values().all(|&c| c == 1), "duplicated samples");
    assert!(
        gate.max_resuming.load(Ordering::Relaxed) >= 2,
        "the slow share finished the backlog alone"
    );
    let resumers = gate.resumers.lock().unwrap().len();
    assert!(
        resumers > slow_workers,
        "{resumers} threads resumed deferred samples"
    );
}

/// Counts the threads inside a sample's first, deadline-bearing run (a
/// claim's work), defers every eighth sample there at once and, on the
/// sample after it, waits (bounded) until that deferred sample has been
/// resumed.
struct ShareProbe {
    in_first_run: AtomicUsize,
    max_in_first_run: AtomicUsize,
    resumes: AtomicUsize,
    waited_out: AtomicBool,
}

impl Transform<u32> for ShareProbe {
    fn name(&self) -> &str {
        "share-probe"
    }

    fn apply(&self, x: u32, ctx: &TransformCtx) -> minato_core::error::Result<Outcome<u32>> {
        if ctx.deadline().is_none() {
            self.resumes.fetch_add(1, Ordering::AcqRel);
            return Ok(Outcome::Done(x));
        }
        let now = self.in_first_run.fetch_add(1, Ordering::AcqRel) + 1;
        self.max_in_first_run.fetch_max(now, Ordering::AcqRel);
        let out = if x.is_multiple_of(8) {
            Outcome::Interrupted(x)
        } else {
            // Sample 8k + 1 waits for the resume of 8k, deferred just
            // before it in the same claim (a claim is eight tickets).
            let t0 = Instant::now();
            let deferred_before = (x / 8 + 1) as usize;
            while x % 8 == 1 && self.resumes.load(Ordering::Acquire) < deferred_before {
                if t0.elapsed() >= FAIL_SAFE {
                    self.waited_out.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            std::thread::sleep(Duration::from_micros(100));
            Outcome::Done(x)
        };
        self.in_first_run.fetch_sub(1, Ordering::AcqRel);
        Ok(out)
    }
}

/// The claim share: with `max_workers(1).slow_workers(1)` the pool has
/// two threads and one place in a claim, so no two claims ever overlap,
/// and the other thread resumes a deferred sample while the claim that
/// deferred it is still open, held until the resume has run.
#[test]
fn one_claim_at_a_time_and_a_deferral_resumes_beside_it() {
    let n = 64u32;
    let probe = Arc::new(ShareProbe {
        in_first_run: AtomicUsize::new(0),
        max_in_first_run: AtomicUsize::new(0),
        resumes: AtomicUsize::new(0),
        waited_out: AtomicBool::new(false),
    });
    let ds = VecDataset::new((0..n).collect::<Vec<_>>());
    let p = Pipeline::new(vec![Arc::clone(&probe) as Arc<dyn Transform<u32>>]);
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(8)
        .shuffle(false)
        .max_workers(1)
        .slow_workers(1)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
        .build()
        .expect("valid configuration");
    let mut got: Vec<u64> = loader
        .iter()
        .flat_map(|b| b.meta.iter().map(|m| m.seq).collect::<Vec<_>>())
        .collect();
    got.sort_unstable();
    assert_eq!(got, (0..n as u64).collect::<Vec<_>>());
    assert_eq!(probe.resumes.load(Ordering::SeqCst), n as usize / 8);
    assert!(
        !probe.waited_out.load(Ordering::SeqCst),
        "a deferred sample was resumed only after its claim ended"
    );
    assert_eq!(
        probe.max_in_first_run.load(Ordering::SeqCst),
        1,
        "two claims overlapped"
    );
    assert_eq!(loader.stats().exec.unwrap().threads, 2);
}

/// Strict mode against the sampler's ground truth: shuffled, across an
/// epoch boundary — once with a free-running consumer, once under
/// back-pressure all the way up: a consumer that takes a batch only when
/// the producers are blocked (no sample completes for `STILL`) or have
/// nothing left to produce, with its two-batch queue full.
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
            .max_workers(4)
            .build()
            .unwrap();
        let mut got = Vec::new();
        loop {
            if backpressure {
                let t0 = Instant::now();
                let mut last_done = (u64::MAX, Instant::now());
                loop {
                    let s = loader.stats();
                    if s.samples_done != last_done.0 {
                        last_done = (s.samples_done, Instant::now());
                    }
                    if last_done.1.elapsed() >= STILL || s.samples_done == (n * epochs) as u64 {
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
        // Order-preserving mode runs the one worker step on
        // `max_workers` threads, all in the claim share: nothing is
        // deferred, and the claiming workers batch and reorder what
        // they claim.
        let exec = loader.stats().exec.expect("executor stats present");
        assert_eq!(role_names(&exec), ["worker"]);
        assert!(exec.role("worker").unwrap().steps > 0);
        assert_eq!(exec.threads, 4, "max_workers only");
        assert_eq!(loader.stats().slow_flagged, 0, "a sample was deferred");
    }
}

/// Defers every fourth sample on its first, deadline-bearing run, and
/// counts those runs; its background resume waits until the test opens
/// the gate (or for the fail-safe).
struct DeferBehindGate {
    open: AtomicBool,
    first_runs: AtomicUsize,
}

impl Transform<u32> for DeferBehindGate {
    fn name(&self) -> &str {
        "defer-behind-gate"
    }

    fn apply(&self, x: u32, ctx: &TransformCtx) -> minato_core::error::Result<Outcome<u32>> {
        if ctx.deadline().is_some() {
            let out = if x.is_multiple_of(4) {
                while !ctx.expired() {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Outcome::Interrupted(x)
            } else {
                Outcome::Done(x)
            };
            self.first_runs.fetch_add(1, Ordering::AcqRel);
            return Ok(out);
        }
        let t0 = Instant::now();
        while !self.open.load(Ordering::Acquire) && t0.elapsed() < FAIL_SAFE {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Outcome::Done(x))
    }
}

/// Two GPUs fed from the one open batch, with a deferred backlog still
/// waiting in the temp queue when the source drains: the batch queue both
/// GPUs pop stays open until that backlog is delivered, and every ticket arrives
/// exactly once. The loader runs one role, the worker step, on
/// `max_workers + slow_workers` threads.
#[test]
fn batch_queues_stay_open_for_the_deferred_backlog_on_two_gpus() {
    let n = 64u32;
    let gate = Arc::new(DeferBehindGate {
        open: AtomicBool::new(false),
        first_runs: AtomicUsize::new(0),
    });
    let ds = VecDataset::new((0..n).collect::<Vec<_>>());
    let p = Pipeline::new(vec![Arc::clone(&gate) as Arc<dyn Transform<u32>>]);
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(4)
        .num_gpus(2)
        .max_workers(2)
        .slow_workers(1)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
        .build()
        .expect("valid configuration");
    let exec = loader.stats().exec.expect("executor stats present");
    assert_eq!(exec.threads, 2 + 1, "max_workers + slow_workers");
    assert_eq!(role_names(&exec), ["worker"]);
    let ended = AtomicUsize::new(0);
    let mut got: Vec<(usize, usize, u64)> = std::thread::scope(|s| {
        let consumers: Vec<_> = (0..2)
            .map(|gpu| {
                let (loader, ended) = (&loader, &ended);
                s.spawn(move || {
                    let mut got = Vec::new();
                    while let Some(b) = loader.next_batch(gpu) {
                        got.extend(b.meta.iter().map(|m| (m.epoch, m.index, m.seq)));
                    }
                    ended.fetch_add(1, Ordering::SeqCst);
                    got
                })
            })
            .collect();
        // Every ticket has had its first run once the source is
        // drained. Every deferred sample is behind the gate then, most
        // still in the temp queue.
        let t0 = Instant::now();
        while gate.first_runs.load(Ordering::Acquire) < n as usize {
            assert!(t0.elapsed() < FAIL_SAFE, "the source never drained");
            std::thread::yield_now();
        }
        let stats = loader.stats();
        assert!(
            stats.temp_queue_len > 0,
            "no backlog at the drain: {stats:?}"
        );
        assert_eq!(
            ended.load(Ordering::SeqCst),
            0,
            "a batch queue closed early"
        );
        gate.open.store(true, Ordering::Release);
        consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    got.sort_unstable();
    let mut want = sampler_tickets(n as usize, 1, true, 0);
    want.sort_unstable();
    assert_eq!(got, want, "missing or duplicated tickets");
}

/// `batch_workers(n)` and `initial_workers(n)` are inert compatibility
/// methods: in both modes a loader built with `batch_workers(4)` and
/// `initial_workers(1)` registers the one worker role on as many pool
/// threads as one built without them, and the ordered loader delivers
/// the same batches.
#[test]
fn batch_workers_and_initial_workers_change_nothing() {
    for ordered in [false, true] {
        let build = |set_both: bool| {
            let ds = VecDataset::new((0..96u32).collect::<Vec<_>>());
            let mut b = MinatoLoader::builder(ds, Pipeline::identity())
                .batch_size(8)
                .shuffle(false)
                .max_workers(2)
                .slow_workers(1)
                .order_preserving(ordered);
            if set_both {
                // Called by path: the removed-names guard keeps method
                // calls of `initial_workers` out of the tree.
                b = MinatoLoaderBuilder::initial_workers(b.batch_workers(4), 1);
            }
            b.build().expect("valid configuration")
        };
        let (plain, set) = (build(false), build(true));
        let shape = |loader: &MinatoLoader<VecDataset<u32>>| {
            let exec = loader.stats().exec.expect("executor stats present");
            let names: Vec<String> = role_names(&exec).into_iter().map(String::from).collect();
            (exec.threads, names)
        };
        let (threads, names) = shape(&plain);
        assert_eq!(shape(&set), (threads, names.clone()), "ordered: {ordered}");
        assert_eq!(names, ["worker"], "ordered: {ordered}");
        // `slow_workers(1)` adds a thread only where a timeout can defer.
        assert_eq!(
            threads,
            if ordered { 2 } else { 2 + 1 },
            "ordered: {ordered}"
        );
        let batches = |loader: MinatoLoader<VecDataset<u32>>| -> Vec<Vec<u64>> {
            loader
                .iter()
                .map(|b| b.meta.iter().map(|m| m.seq).collect())
                .collect()
        };
        let (a, b) = (batches(plain), batches(set));
        if ordered {
            assert_eq!(a, b, "ordered batches differ");
        } else {
            // Shuffled batch composition follows thread timing; both
            // runs still deliver every seq once.
            let all = |batches: Vec<Vec<u64>>| {
                let mut seqs: Vec<u64> = batches.into_iter().flatten().collect();
                seqs.sort_unstable();
                seqs
            };
            assert_eq!(all(a), all(b));
        }
    }
}

/// How long a test waits for something a working loader does at once: a
/// loader that can never do it fails the test instead of hanging it.
const FAIL_SAFE: Duration = Duration::from_secs(10);

/// How long no sample may complete before a test takes the pipeline
/// for wedged (blocked on a full batch queue).
const STILL: Duration = Duration::from_millis(50);

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

/// An ordered run resumed from a checkpoint claims the checkpoint's
/// undelivered tickets in sampler order, from its watermark on, over the
/// seqs delivered above it: the first resumed batch arrives while the
/// run's last ticket is still held, and the two runs together deliver
/// the sampler's sequence, each seq once. (The first run loses seq 2 to
/// a transient fault, which leaves its first batch one short, so its
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
    assert_eq!(pre, [0, 1].into_iter().chain(3..20).collect::<Vec<u64>>());
    assert_eq!(ckpt.watermark, 2);
    assert_eq!(ckpt.delivered_above, (3..20).collect::<Vec<u64>>());

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
    assert_eq!(post, [2].into_iter().chain(20..64).collect::<Vec<u64>>());
}

/// Counts its drops.
struct DropCounter(Arc<AtomicUsize>);

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A dropped loader frees its runtime, dataset included, in both modes:
/// the executor's handle, which the runtime holds, does not hold the
/// worker step, which holds the runtime.
#[test]
fn a_dropped_loader_frees_its_dataset() {
    for ordered in [false, true] {
        let dropped = Arc::new(AtomicUsize::new(0));
        let counter = DropCounter(Arc::clone(&dropped));
        let ds = minato_core::dataset::FnDataset::new(64, move |i| {
            let _held = &counter;
            Ok(i as u32)
        });
        let loader = MinatoLoader::builder(ds, Pipeline::identity())
            .batch_size(8)
            .order_preserving(ordered)
            .max_workers(2)
            .build()
            .unwrap();
        assert_eq!(loader.iter().map(|b| b.len()).sum::<usize>(), 64);
        drop(loader);
        assert_eq!(dropped.load(Ordering::SeqCst), 1, "ordered: {ordered}");
    }
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
        .max_workers(2)
        .build()
        .unwrap();
    let mut it = loader.iter();
    let _ = it.next();
    drop(it);
    loader.shutdown();
    drop(loader); // Must not hang or panic.
}
