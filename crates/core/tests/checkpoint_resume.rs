//! Checkpoint/resume integration tests: the crash-safety contract is
//! **exactly-once delivery** — kill a run at an arbitrary point, resume
//! from its checkpoint, and the union of seqs delivered before the kill
//! and after the resume is every ticket of the run, with no duplicates.

use minato_core::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bound on every wait for a pipeline state, so a state never reached
/// fails the test with what was seen instead of hanging it.
const FAIL_SAFE: Duration = Duration::from_secs(10);

/// How long no sample may complete before a test takes its producers
/// for blocked.
const STILL: Duration = Duration::from_millis(50);

/// Defers every third sample on its deadline-bearing first run, so a
/// kill or a source drain finds a backlog in the slow path — which the
/// pool's drained fast workers then adopt.
struct DeferThirds;

impl Transform<u32> for DeferThirds {
    fn name(&self) -> &str {
        "defer-thirds"
    }

    fn apply(&self, x: u32, ctx: &TransformCtx) -> minato_core::error::Result<Outcome<u32>> {
        if ctx.deadline().is_some() && x.is_multiple_of(3) {
            while !ctx.expired() {
                std::thread::sleep(Duration::from_micros(100));
            }
            return Ok(Outcome::Interrupted(x));
        }
        Ok(Outcome::Done(x))
    }
}

fn build_loader(
    n: usize,
    epochs: usize,
    seed: u64,
    defer: bool,
    resume: Option<LoaderCheckpoint>,
) -> MinatoLoader<VecDataset<u32>> {
    let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
    let pipeline = if defer {
        Pipeline::new(vec![Arc::new(DeferThirds) as Arc<dyn Transform<u32>>])
    } else {
        Pipeline::identity()
    };
    let mut b = MinatoLoader::builder(ds, pipeline)
        .batch_size(3)
        .epochs(epochs)
        .seed(seed)
        .initial_workers(2)
        .max_workers(4);
    if defer {
        b = b.timeout_policy(TimeoutPolicy::Fixed(Duration::from_micros(500)));
    }
    if let Some(ck) = resume {
        b = b.resume_from(ck);
    }
    b.build().expect("valid configuration")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn kill_and_resume_delivers_exactly_once(
        n in 8usize..40,
        epochs in 1usize..4,
        kill_batches in 0usize..12,
        seed in 0u64..1000,
        defer in any::<bool>(),
    ) {
        let total = (n * epochs) as u64;

        // Phase 1: deliver a prefix, checkpoint, "crash". Batches that
        // were queued but never popped die with the loader.
        let first = build_loader(n, epochs, seed, defer, None);
        let mut pre = Vec::new();
        for _ in 0..kill_batches {
            match first.next_batch(0) {
                Some(b) => pre.extend(b.meta.iter().map(|m| m.seq)),
                None => break,
            }
        }
        let ckpt = first.checkpoint().expect("checkpointing enabled");
        drop(first);

        // The checkpoint survives the crash as bytes.
        let ckpt = LoaderCheckpoint::decode(&ckpt.encode()).expect("round-trip");
        prop_assert_eq!(ckpt.delivered_count(), pre.len() as u64);

        // Phase 2: resume and drain.
        let second = build_loader(n, epochs, seed, defer, Some(ckpt));
        let mut post = Vec::new();
        while let Some(b) = second.next_batch(0) {
            post.extend(b.meta.iter().map(|m| m.seq));
        }

        let pre_set: BTreeSet<u64> = pre.iter().copied().collect();
        let post_set: BTreeSet<u64> = post.iter().copied().collect();
        prop_assert_eq!(pre_set.len(), pre.len());
        prop_assert_eq!(post_set.len(), post.len());
        prop_assert!(
            pre_set.is_disjoint(&post_set),
            "resume re-delivered checkpointed seqs: {:?}",
            pre_set.intersection(&post_set).collect::<Vec<_>>()
        );
        let union: BTreeSet<u64> = pre_set.union(&post_set).copied().collect();
        prop_assert_eq!(union, (0..total).collect::<BTreeSet<u64>>());
    }
}

/// Poisons one seq (when set) and records every seq it is asked about.
struct PoisonSeq {
    seq: Option<u64>,
    asked: Mutex<BTreeSet<u64>>,
}

impl FaultInjector for PoisonSeq {
    fn decide(&self, _site: FaultSite, _index: usize, seq: u64) -> FaultAction {
        self.asked.lock().unwrap().insert(seq);
        if self.seq == Some(seq) {
            FaultAction::Poison
        } else {
            FaultAction::None
        }
    }
}

/// Every loader keeps the delivery log. A quarantined seq is never
/// recorded, so it pins the watermark: a checkpoint of the drained run
/// counts every other seq, and the resume re-runs exactly that seq —
/// delivering it once the fault is gone, quarantining it again if not.
#[test]
fn a_quarantined_seq_pins_the_watermark_and_alone_is_rerun() {
    let (n, q) = (200usize, 37u64);
    let build = |poison: bool, resume: Option<LoaderCheckpoint>| {
        let injector = Arc::new(PoisonSeq {
            seq: poison.then_some(q),
            asked: Mutex::new(BTreeSet::new()),
        });
        let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
        let mut b = MinatoLoader::builder(ds, Pipeline::identity())
            .batch_size(4)
            .initial_workers(2)
            .max_workers(2)
            .fault_injector(Arc::clone(&injector) as Arc<dyn FaultInjector>);
        if let Some(ck) = resume {
            b = b.resume_from(ck);
        }
        (b.build().expect("valid configuration"), injector)
    };
    let drain = |loader: &MinatoLoader<VecDataset<u32>>| {
        let mut seqs = BTreeSet::new();
        while let Some(b) = loader.next_batch(0) {
            for m in &b.meta {
                assert!(seqs.insert(m.seq), "seq {} delivered twice", m.seq);
            }
        }
        seqs
    };

    let (first, _) = build(true, None);
    let pre = drain(&first);
    assert_eq!(first.stats().faults.quarantined, 1);
    let ckpt = first.checkpoint().expect("every loader checkpoints");
    drop(first);
    assert_eq!(ckpt.watermark, q, "the quarantined seq pins the watermark");
    assert_eq!(ckpt.delivered_count(), n as u64 - 1);
    let ckpt = LoaderCheckpoint::decode(&ckpt.encode()).expect("round-trip");
    assert_eq!(
        pre,
        (0..n as u64).filter(|&s| s != q).collect::<BTreeSet<u64>>()
    );

    for poison in [false, true] {
        let (second, injector) = build(poison, Some(ckpt.clone()));
        let post = drain(&second);
        assert_eq!(
            *injector.asked.lock().unwrap(),
            BTreeSet::from([q]),
            "poison={poison}: the resume re-runs exactly the quarantined seq"
        );
        let quarantined = second.stats().faults.quarantined;
        if poison {
            assert!(post.is_empty(), "a poisoned seq is not delivered");
            assert_eq!(quarantined, 1, "quarantined again");
        } else {
            assert_eq!(post, BTreeSet::from([q]));
            assert_eq!(quarantined, 0);
        }
    }
}

#[test]
fn resume_rejects_a_foreign_dataset() {
    let first = build_loader(20, 1, 9, false, None);
    let _ = first.next_batch(0);
    let ckpt = first.checkpoint().expect("checkpointing enabled");
    drop(first);
    // Same checkpoint, different dataset length: must refuse to build.
    let ds = VecDataset::new((0..30u32).collect::<Vec<_>>());
    let built = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(3)
        .initial_workers(1)
        .max_workers(1)
        .resume_from(ckpt)
        .build();
    match built {
        Err(err) => assert!(matches!(err, LoaderError::Checkpoint(_)), "got: {err:?}"),
        Ok(_) => panic!("dataset length mismatch must not build"),
    }
}

#[test]
fn resume_rejects_an_unknown_version() {
    let first = build_loader(10, 1, 0, false, None);
    let ckpt = first.checkpoint().expect("checkpointing enabled");
    drop(first);
    let stale = LoaderCheckpoint {
        version: CHECKPOINT_VERSION + 1,
        ..ckpt
    };
    let ds = VecDataset::new((0..10u32).collect::<Vec<_>>());
    let built = MinatoLoader::builder(ds, Pipeline::identity())
        .resume_from(stale)
        .build();
    match built {
        Err(err) => assert!(matches!(err, LoaderError::Checkpoint(_)), "got: {err:?}"),
        Ok(_) => panic!("version mismatch must not build"),
    }
}

/// Version 2 checkpoints were taken over the up-front shuffle, whose
/// ticket stream the same seed no longer reproduces: replaying one would
/// deliver some seqs twice and others never, so both the codec and the
/// builder refuse it.
#[test]
fn a_version_2_checkpoint_is_refused() {
    let first = build_loader(10, 1, 0, false, None);
    let _ = first.next_batch(0);
    let ckpt = first.checkpoint().expect("checkpointing enabled");
    drop(first);
    let v2 = LoaderCheckpoint { version: 2, ..ckpt };
    match LoaderCheckpoint::decode(&v2.encode()) {
        Err(err) => assert!(matches!(err, LoaderError::Checkpoint(_)), "got: {err:?}"),
        Ok(_) => panic!("decode must refuse a version 2 checkpoint"),
    }
    let ds = VecDataset::new((0..10u32).collect::<Vec<_>>());
    let built = MinatoLoader::builder(ds, Pipeline::identity())
        .resume_from(v2)
        .build();
    match built {
        Err(err) => assert!(matches!(err, LoaderError::Checkpoint(_)), "got: {err:?}"),
        Ok(_) => panic!("resume_from must refuse a version 2 checkpoint"),
    }
}

/// The balancer's learned timeout rides the checkpoint: a resumed run
/// starts with the cutoff already published instead of re-entering the
/// optimistic warm-up phase.
#[test]
fn resume_restores_the_learned_timeout() {
    let ckpt = LoaderCheckpoint {
        version: CHECKPOINT_VERSION,
        dataset_len: 64,
        epochs: 1,
        shuffle: false,
        seed: 0,
        watermark: 0,
        delivered_above: Vec::new(),
        balancer: BalancerCheckpoint {
            timeout_ns: 5_000_000,
            completions: 500,
            flagged_slow: 40,
        },
        fast_budget: 2,
    };
    let ds = VecDataset::new((0..64u32).collect::<Vec<_>>());
    // Workers block on a gate until the assertion below has run: with
    // zero new completions the adaptive estimator cannot have refreshed,
    // so the observed cutoff is exactly the restored one.
    let gate = Arc::new(AtomicBool::new(false));
    let g2 = Arc::clone(&gate);
    let p = Pipeline::new(vec![fn_transform("gate", move |x: u32| {
        while !g2.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(x)
    })]);
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(8)
        .initial_workers(2)
        .max_workers(4)
        .resume_from(ckpt)
        .build()
        .expect("valid configuration");
    assert_eq!(
        loader.stats().timeout,
        Some(Duration::from_millis(5)),
        "restored cutoff must be live before any new profiling"
    );
    gate.store(true, Ordering::Release);
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(delivered, 64);
    // Restored estimator counters fold into the run's totals.
    assert_eq!(loader.stats().samples_done, 500 + 64);
}

/// A checkpoint file can outlive the build that wrote it and carry a
/// fast share this pool never produces (0, or wider than the pool).
/// Resume clamps it into `1..=max_workers`; the slow slice comes from
/// the configuration, and shuffled mode has no batch role; every ticket
/// is delivered once.
#[test]
fn resume_clamps_budgets_saved_by_another_topology() {
    for (saved_fast, want_fast) in [(0usize, 1usize), (1, 1), (9, 4)] {
        let (n, epochs) = (30usize, 2usize);
        let first = build_loader(n, epochs, 3, true, None);
        let mut pre = BTreeSet::new();
        for _ in 0..4 {
            let b = first.next_batch(0).expect("early batches exist");
            pre.extend(b.meta.iter().map(|m| m.seq));
        }
        let mut ckpt = first.checkpoint().expect("checkpointing enabled");
        drop(first);
        ckpt.fast_budget = saved_fast;
        let ckpt = LoaderCheckpoint::decode(&ckpt.encode()).expect("round-trip");

        let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
        let second = MinatoLoader::builder(ds, Pipeline::new(vec![Arc::new(DeferThirds) as _]))
            .batch_size(3)
            .initial_workers(2)
            .max_workers(4)
            .slow_workers(2)
            .adaptive_workers(false)
            .timeout_policy(TimeoutPolicy::Fixed(Duration::from_micros(500)))
            .resume_from(ckpt)
            .build()
            .expect("valid configuration");
        let exec = second.stats().exec.expect("executor stats present");
        let budget = |role: &str| exec.role(role).expect("role registered").budget;
        assert_eq!(budget("fast"), want_fast, "saved fast share {saved_fast}");
        assert_eq!(budget("slow"), 2, "slow slice is sized by the config");
        assert!(
            exec.role("batch").is_none(),
            "shuffled mode has no batch role"
        );

        let mut post = BTreeSet::new();
        let mut popped = 0usize;
        while let Some(b) = second.next_batch(0) {
            popped += b.len();
            post.extend(b.meta.iter().map(|m| m.seq));
        }
        assert_eq!(post.len(), popped, "resume delivered a ticket twice");
        assert!(
            pre.is_disjoint(&post),
            "resume re-delivered checkpointed seqs"
        );
        let union: BTreeSet<u64> = pre.union(&post).copied().collect();
        assert_eq!(union, (0..(n * epochs) as u64).collect::<BTreeSet<u64>>());
    }
}

/// `delivered_above` must be strictly ascending and start at or above
/// the watermark: a duplicate or a seq below the watermark would stay in
/// the resumed delivery log for good, be written into every later
/// checkpoint, and inflate `delivered_count`.
#[test]
fn resume_rejects_a_malformed_delivery_record() {
    let first = build_loader(20, 1, 5, false, None);
    let ckpt = first.checkpoint().expect("checkpointing enabled");
    drop(first);
    for (watermark, above) in [(3u64, vec![7u64, 7]), (5, vec![2, 7]), (0, vec![9, 4])] {
        let bad = LoaderCheckpoint {
            watermark,
            delivered_above: above.clone(),
            ..ckpt.clone()
        };
        let bad = LoaderCheckpoint::decode(&bad.encode()).expect("round-trip");
        let ds = VecDataset::new((0..20u32).collect::<Vec<_>>());
        let built = MinatoLoader::builder(ds, Pipeline::identity())
            .resume_from(bad)
            .build();
        match built {
            Err(err) => assert!(matches!(err, LoaderError::Checkpoint(_)), "got: {err:?}"),
            Ok(_) => panic!("watermark {watermark} with {above:?} must not build"),
        }
    }
}

/// A checkpoint is a snapshot, not a pause: with the consumer wedged and
/// every queue full, it returns at once, counts exactly the popped seqs
/// as delivered, and a resume from it delivers every other seq once.
#[test]
fn checkpoint_of_a_wedged_pipeline_resumes_exactly_once() {
    for ordered in [false, true] {
        let (n, batch) = (1000usize, 4usize);
        let build = |resume: Option<LoaderCheckpoint>| {
            let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
            let mut b = MinatoLoader::builder(ds, Pipeline::identity())
                .batch_size(batch)
                .initial_workers(2)
                .max_workers(2)
                .order_preserving(ordered);
            if let Some(ck) = resume {
                b = b.resume_from(ck);
            }
            b.build().expect("valid configuration")
        };

        let first = build(None);
        let mut pre = BTreeSet::new();
        let mut popped = 0usize;
        for _ in 0..3 {
            let b = first.next_batch(0).expect("early batches exist");
            popped += b.len();
            pre.extend(b.meta.iter().map(|m| m.seq));
        }
        // The consumer stops popping; wait for the pipeline to back up
        // into the full batch queue. Shuffled, the producers block
        // pushing into the open batch; ordered, the worker emitting the
        // awaited batch blocks on the batch queue and the others on the
        // full claim window. Either way no sample completes any more.
        let t0 = Instant::now();
        let mut last_done = (u64::MAX, Instant::now());
        loop {
            let s = first.stats();
            if s.samples_done != last_done.0 {
                last_done = (s.samples_done, Instant::now());
            }
            if s.batch_queue_len == 2 && last_done.1.elapsed() >= STILL {
                break;
            }
            assert!(
                t0.elapsed() < FAIL_SAFE,
                "pipeline never wedged (ordered={ordered}): {s:?}"
            );
            std::thread::yield_now();
        }
        let ckpt = first.checkpoint().expect("checkpointing enabled");
        assert_eq!(ckpt.delivered_count(), popped as u64, "ordered={ordered}");
        drop(first);

        let ckpt = LoaderCheckpoint::decode(&ckpt.encode()).expect("round-trip");
        let second = build(Some(ckpt));
        let mut post = BTreeSet::new();
        let mut resumed = 0usize;
        while let Some(b) = second.next_batch(0) {
            resumed += b.len();
            post.extend(b.meta.iter().map(|m| m.seq));
        }
        assert_eq!(post.len(), resumed, "resume delivered a ticket twice");
        assert!(pre.is_disjoint(&post), "resume re-delivered popped seqs");
        let union: BTreeSet<u64> = pre.union(&post).copied().collect();
        assert_eq!(
            union,
            (0..n as u64).collect::<BTreeSet<u64>>(),
            "ordered={ordered}"
        );
    }
}
