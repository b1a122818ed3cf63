//! Integration tests for the zero-allocation hot path: in-place pipeline
//! execution with and without the pool, the delivery-side recycle loop,
//! resume-at-index semantics under `apply_mut`, and pool × cache
//! interplay.

use minato_core::pool::{PoolSet, Reclaim};
use minato_core::prelude::*;
use minato_core::transform::InPlace;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Element-wise `x*a + b` over a `Vec<f32>` sample, mutated where it
/// sits.
struct MulAdd {
    a: f32,
    b: f32,
}

impl Transform<Vec<f32>> for MulAdd {
    fn name(&self) -> &str {
        "muladd"
    }

    fn apply_mut(&self, v: &mut Vec<f32>, _ctx: &TransformCtx) -> Result<InPlace> {
        for x in v.iter_mut() {
            *x = *x * self.a + self.b;
        }
        Ok(InPlace::Done)
    }
}

/// Shape-preserving but buffer-swapping stage: reverses the sample into
/// a pool-drawn buffer and recycles the old one — the "fresh output
/// memory" case of the in-place contract.
struct ReverseSwap;

impl Transform<Vec<f32>> for ReverseSwap {
    fn name(&self) -> &str {
        "reverse-swap"
    }

    fn apply_mut(&self, v: &mut Vec<f32>, ctx: &TransformCtx) -> Result<InPlace> {
        let mut out = ctx.acquire_f32(v.len());
        for (o, x) in out.iter_mut().zip(v.iter().rev()) {
            *o = *x;
        }
        ctx.recycle_f32(std::mem::replace(v, out));
        Ok(InPlace::Done)
    }
}

/// Wrapper that makes the inner stage interrupt exactly once: the first
/// `apply_mut` scribbles into the sample, restores it from a snapshot,
/// and reports [`InPlace::Interrupted`] — modelling a kernel that
/// noticed the deadline mid-mutation and honoured the restore contract.
struct InterruptOnce {
    inner: Arc<dyn Transform<Vec<f32>>>,
    fired: AtomicBool,
}

impl Transform<Vec<f32>> for InterruptOnce {
    fn name(&self) -> &str {
        "interrupt-once"
    }

    fn apply_mut(&self, v: &mut Vec<f32>, ctx: &TransformCtx) -> Result<InPlace> {
        if !self.fired.swap(true, Ordering::Relaxed) {
            let snapshot = v.clone();
            for x in v.iter_mut() {
                *x = x.mul_add(3.0, 1.0);
            }
            v.clear();
            v.extend_from_slice(&snapshot);
            return Ok(InPlace::Interrupted);
        }
        self.inner.apply_mut(v, ctx)
    }
}

/// Builds `n_stages` deterministic stages; stage indices divisible by 3
/// swap buffers, the rest mutate in place.
fn stages(n_stages: usize) -> Vec<Arc<dyn Transform<Vec<f32>>>> {
    (0..n_stages)
        .map(|i| -> Arc<dyn Transform<Vec<f32>>> {
            if i % 3 == 2 {
                Arc::new(ReverseSwap)
            } else {
                Arc::new(MulAdd {
                    a: 1.0 + (i as f32) * 0.25,
                    b: (i as f32) - 1.5,
                })
            }
        })
        .collect()
}

fn sample(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(seed ^ 0x9E37_79B9) % 1000) as f32 / 31.0 - 16.0)
        .collect()
}

fn complete(run: PipelineRun<Vec<f32>>) -> Vec<f32> {
    match run {
        PipelineRun::Completed { value, .. } => value,
        PipelineRun::TimedOut { .. } => panic!("unbounded run timed out"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The satellite contract: an interrupted `apply_mut` stage leaves
    /// the sample so that re-execution from `resume_at` is
    /// byte-identical to an uninterrupted run — across stage counts,
    /// interrupt points, sample sizes, and pooled/unpooled contexts.
    #[test]
    fn resume_after_in_place_interrupt_is_byte_identical(
        n_stages in 1usize..8,
        interrupt_at in 0usize..8,
        len in 1usize..96,
        seed in 1u64..64,
        pooled in any::<bool>(),
    ) {
        let interrupt_at = interrupt_at % n_stages;
        let input = sample(len, seed);

        // Reference: uninterrupted unpooled run.
        let clean = Pipeline::new(stages(n_stages));
        let expect = complete(clean.run(input.clone(), None).unwrap());

        // Same stages, with one wrapped to interrupt on first execution.
        let mut steps = stages(n_stages);
        steps[interrupt_at] = Arc::new(InterruptOnce {
            inner: Arc::clone(&steps[interrupt_at]),
            fired: AtomicBool::new(false),
        });
        let p = Pipeline::new(steps);

        let pools = Arc::new(PoolSet::new(if pooled { 16 << 20 } else { 0 }));
        let ctx = || TransformCtx::unbounded().with_pool(Arc::clone(&pools));

        let (partial, resume_at) = match p.run_ctx(0, input.clone(), ctx()).unwrap() {
            PipelineRun::TimedOut { partial, resume_at, .. } => (partial, resume_at),
            PipelineRun::Completed { .. } => panic!("wrapped stage must interrupt"),
        };
        prop_assert_eq!(resume_at, interrupt_at, "resume at the interrupted stage");

        // Background-worker path: re-execute from the recorded index.
        let got = complete(p.run_ctx(resume_at, partial, ctx()).unwrap());
        prop_assert_eq!(got, expect, "resumed run diverged from clean run");
    }

    /// Pooled execution matches unpooled execution bit for bit on
    /// uninterrupted runs, for any stage mix: both run the stages in
    /// place, and only where scratch comes from differs.
    #[test]
    fn pooled_pipeline_matches_unpooled(
        n_stages in 1usize..8,
        len in 1usize..96,
        seed in 1u64..64,
    ) {
        let p = Pipeline::new(stages(n_stages));
        let input = sample(len, seed);
        let expect = complete(p.run(input.clone(), None).unwrap());
        let pools = Arc::new(PoolSet::new(16 << 20));
        let ctx = TransformCtx::unbounded().with_pool(pools);
        let got = complete(p.run_ctx(0, input, ctx).unwrap());
        prop_assert_eq!(got, expect);
    }
}

fn pooled_pipeline() -> Pipeline<Vec<f32>> {
    Pipeline::new(stages(5))
}

/// How often each entry point of [`CountEntries`] ran.
#[derive(Default)]
struct EntryCounts {
    apply: AtomicUsize,
    apply_mut: AtomicUsize,
}

/// Identity stage implementing both entry points, counting each.
struct CountEntries(Arc<EntryCounts>);

impl Transform<Vec<f32>> for CountEntries {
    fn name(&self) -> &str {
        "count-entries"
    }

    fn apply(&self, v: Vec<f32>, _ctx: &TransformCtx) -> Result<Outcome<Vec<f32>>> {
        self.0.apply.fetch_add(1, Ordering::Relaxed);
        Ok(Outcome::Done(v))
    }

    fn apply_mut(&self, _v: &mut Vec<f32>, _ctx: &TransformCtx) -> Result<InPlace> {
        self.0.apply_mut.fetch_add(1, Ordering::Relaxed);
        Ok(InPlace::Done)
    }
}

/// The default (unpooled) loader runs the same entry point as the pooled
/// one: every sample goes through `apply_mut`, none through `apply`.
#[test]
fn unpooled_loader_runs_every_stage_in_place() {
    let n = 48usize;
    let counts = Arc::new(EntryCounts::default());
    let stage = Arc::new(CountEntries(Arc::clone(&counts))) as Arc<dyn Transform<Vec<f32>>>;
    let ds = FnDataset::new(n, |i| Ok(vec![i as f32; 8]));
    let loader = MinatoLoader::builder(ds, Pipeline::new(vec![stage]))
        .batch_size(4)
        .max_workers(2)
        .timeout_policy(TimeoutPolicy::Disabled)
        .build()
        .expect("valid configuration");
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(delivered, n);
    assert!(loader.stats().pool.is_none(), "pool off by default");
    assert_eq!(counts.apply_mut.load(Ordering::Relaxed), n);
    assert_eq!(counts.apply.load(Ordering::Relaxed), 0);
}

/// End-to-end: pooled loader delivers the same multiset of samples as
/// the unpooled loader, and the recycle loop actually turns (pool hits
/// at steady state, consumer drops feed buffers back).
#[test]
fn pooled_loader_delivers_identically_and_recycles() {
    let n = 192usize;
    let make = |pool_budget: u64| {
        let ds = FnDataset::new(n, |i| Ok(sample(256, i as u64 + 1)));
        let mut b = MinatoLoader::builder(ds, pooled_pipeline())
            .batch_size(8)
            .seed(11)
            .max_workers(2)
            .timeout_policy(TimeoutPolicy::Disabled);
        if pool_budget > 0 {
            b = b.pool_budget_bytes(pool_budget);
        }
        b.build().expect("valid configuration")
    };

    let collect = |loader: &MinatoLoader<_>| {
        let mut all: Vec<Vec<f32>> = Vec::new();
        for b in loader.iter() {
            // Copy out, then drop the batch: leftover samples flow back
            // through the recycle hook.
            all.extend(b.samples.iter().cloned());
        }
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        all
    };

    let unpooled = make(0);
    let base = collect(&unpooled);
    assert!(unpooled.stats().pool.is_none(), "pool off by default");

    let pooled = make(64 << 20);
    let got = collect(&pooled);
    assert_eq!(got, base, "pooling must not change delivered bytes");

    let stats = pooled.stats();
    let ps = stats.pool.expect("pool stats present").combined();
    assert!(
        ps.recycled > 0,
        "stages and dropped batches must recycle buffers: {ps:?}"
    );
    assert!(
        ps.hits > 0,
        "steady state must serve buffers from the pool: {ps:?}"
    );
    assert!(
        ps.bytes <= 64 << 20,
        "resident bytes exceed the budget: {ps:?}"
    );
}

/// Order-preserving mode (the ReorderBuffer path) with pooling: strict
/// sampler order is kept and the reusable drain buffer delivers every
/// sample exactly once.
#[test]
fn order_preserving_pooled_delivery_stays_ordered() {
    let n = 96usize;
    let ds = FnDataset::new(n, |i| Ok(vec![i as f32; 16]));
    let loader = MinatoLoader::builder(ds, pooled_pipeline())
        .batch_size(4)
        .shuffle(false)
        .order_preserving(true)
        .max_workers(3)
        .pool_budget_bytes(8 << 20)
        .build()
        .expect("valid configuration");
    let p = pooled_pipeline();
    let expect: Vec<Vec<f32>> = (0..n)
        .map(|i| complete(p.run(vec![i as f32; 16], None).unwrap()))
        .collect();
    let mut got: Vec<Vec<f32>> = Vec::new();
    for b in loader.iter() {
        got.extend(b.samples.iter().cloned());
    }
    assert_eq!(got, expect, "strict order with pooled in-place execution");
}

/// Pool × cross-epoch cache: cached entries are deep copies counted by
/// the cache's own budget, pool bytes stay within the pool budget, and
/// multi-epoch delivery is correct — no double counting, no aliasing.
#[test]
fn pool_and_cache_compose_without_double_counting() {
    let n = 64usize;
    let epochs = 3usize;
    let pool_budget = 8u64 << 20;
    let ds = FnDataset::new(n, |i| Ok(sample(512, i as u64 + 7)));
    let loader = MinatoLoader::builder(ds, pooled_pipeline())
        .batch_size(8)
        .epochs(epochs)
        .seed(5)
        .max_workers(2)
        .timeout_policy(TimeoutPolicy::Disabled)
        .pool_budget_bytes(pool_budget)
        .cache_budget_bytes(64 << 20)
        .cache_weigher(|s: &Vec<f32>| (s.len() * 4) as u64)
        .build()
        .expect("valid configuration");
    let mut delivered = 0usize;
    for b in loader.iter() {
        delivered += b.len();
    }
    assert_eq!(delivered, n * epochs);
    let stats = loader.stats();
    let cache = stats.cache.expect("cache on");
    let pool = stats.pool.expect("pool on").combined();
    assert!(cache.hits > 0, "epoch 2+ must hit the cache");
    assert!(
        cache.bytes > 0,
        "cache entries are deep copies with their own byte accounting"
    );
    assert!(
        pool.bytes <= pool_budget,
        "pool bytes stay within the pool budget: {pool:?}"
    );
    // Pipeline executions + cache hits = delivered (cached samples skip
    // the pipeline entirely; both are recycled on batch drop).
    assert_eq!(stats.samples_done + cache.hits, delivered as u64);
}

/// The batches' recycle hook — the pool's, the only one there is — sees
/// exactly the samples the training loop did not take ownership of.
#[test]
fn custom_recycler_observes_dropped_samples() {
    let n = 40usize;
    // One smallest-class buffer per sample; the budget holds them all.
    let ds = FnDataset::new(n, |i| Ok(vec![i as f32; 64]));
    let loader = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(5)
        .max_workers(2)
        .pool_budget_bytes(1 << 20)
        .build()
        .expect("valid configuration");
    let mut kept = 0usize;
    let mut dropped = 0usize;
    for (i, b) in loader.iter().enumerate() {
        if i % 2 == 0 {
            kept += b.into_samples().len(); // Ownership taken: not recycled.
        } else {
            dropped += b.len(); // Dropped: recycled.
        }
    }
    assert_eq!(kept + dropped, n);
    let pool = loader.stats().pool.expect("pool on").combined();
    assert_eq!(pool.recycled, dropped as u64);
    assert_eq!(pool.dropped, 0);
}

/// `Reclaim` plumbing for common sample shapes used by the loader.
#[test]
fn reclaim_impls_route_buffers() {
    let pools = PoolSet::new(1 << 20);
    vec![1.0f32; 128].reclaim(&pools);
    vec![7u8; 128].reclaim(&pools);
    String::from("0123456789_0123456789_0123456789_0123456789_0123456789_0123456789")
        .reclaim(&pools);
    42u32.reclaim(&pools); // No-op.
    let s = pools.stats();
    assert_eq!(s.f32s.recycled, 1);
    assert_eq!(s.u8s.recycled, 2);
}

/// The recycler trait object also accepts samples through `PoolRecycler`
/// when cache hits hand out deep copies (regression guard for aliasing:
/// recycling a cache-hit clone must not corrupt the cached entry).
#[test]
fn recycling_cache_hit_clones_does_not_corrupt_cache() {
    let n = 16usize;
    let ds = FnDataset::new(n, |i| Ok(vec![i as f32; 64]));
    let loader = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(4)
        .epochs(4)
        .shuffle(false)
        .max_workers(1)
        .timeout_policy(TimeoutPolicy::Disabled)
        .pool_budget_bytes(4 << 20)
        .cache_budget_bytes(4 << 20)
        .cache_weigher(|s: &Vec<f32>| (s.len() * 4) as u64)
        .build()
        .expect("valid configuration");
    for b in loader.iter() {
        for (s, m) in b.samples.iter().zip(&b.meta) {
            assert_eq!(
                s,
                &vec![m.index as f32; 64],
                "epoch {} delivered corrupted sample {}",
                m.epoch,
                m.index
            );
        }
        // Batch dropped here: every sample (cache-hit clones included)
        // recycles into the pool.
    }
}

#[test]
fn slow_path_resumes_in_place_under_pool() {
    // Deadline-cooperative stage mix under a tight fixed timeout: slow
    // samples defer mid-pipeline and complete in the background with
    // the pool engaged; delivery must still be complete and correct.
    struct SlowEvery5;
    impl Transform<Vec<f32>> for SlowEvery5 {
        fn name(&self) -> &str {
            "slow-every-5"
        }
        fn apply_mut(&self, v: &mut Vec<f32>, ctx: &TransformCtx) -> Result<InPlace> {
            let slow = (v[0] as usize).is_multiple_of(5);
            let cost = Duration::from_millis(if slow { 30 } else { 1 });
            let t0 = std::time::Instant::now();
            while t0.elapsed() < cost {
                if ctx.expired() {
                    return Ok(InPlace::Interrupted);
                }
                std::thread::yield_now();
            }
            Ok(InPlace::Done)
        }
    }
    let n = 50usize;
    let ds = FnDataset::new(n, |i| Ok(vec![i as f32; 32]));
    let loader = MinatoLoader::builder(
        ds,
        Pipeline::new(vec![
            Arc::new(SlowEvery5) as Arc<dyn Transform<Vec<f32>>>,
            Arc::new(MulAdd { a: 2.0, b: 1.0 }) as Arc<dyn Transform<Vec<f32>>>,
        ]),
    )
    .batch_size(5)
    .max_workers(3)
    .slow_workers(2)
    .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(8)))
    .pool_budget_bytes(8 << 20)
    .build()
    .expect("valid configuration");
    let mut seen = vec![0usize; n];
    let mut slow_flags = 0usize;
    for b in loader.iter() {
        for (s, m) in b.samples.iter().zip(&b.meta) {
            assert_eq!(s[1], (m.index as f32) * 2.0 + 1.0, "transform applied");
            seen[m.index] += 1;
            slow_flags += usize::from(m.slow);
        }
    }
    assert!(seen.iter().all(|&c| c == 1), "every sample exactly once");
    assert!(slow_flags >= 5, "heavy samples deferred: {slow_flags}");
}
