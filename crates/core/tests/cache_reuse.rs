//! Cross-epoch sample-cache integration tests: multi-epoch hit rates,
//! interaction with order-preserving mode, stats isolation, and the
//! default-off guarantee.

use minato_core::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline-cooperative sleep transform: every `slow_every`-th sample
/// costs `slow_ms`, the rest `fast_ms`.
struct SlowEvery {
    slow_every: u32,
    fast: Duration,
    slow: Duration,
}

impl Transform<u32> for SlowEvery {
    fn name(&self) -> &str {
        "slow-every"
    }

    fn apply(&self, input: u32, ctx: &TransformCtx) -> minato_core::error::Result<Outcome<u32>> {
        let cost = if input.is_multiple_of(self.slow_every) {
            self.slow
        } else {
            self.fast
        };
        let start = Instant::now();
        while start.elapsed() < cost {
            if ctx.expired() {
                return Ok(Outcome::Interrupted(input));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(Outcome::Done(input))
    }
}

fn slow_heavy_pipeline(slow_every: u32, fast_us: u64, slow_ms: u64) -> Pipeline<u32> {
    Pipeline::new(vec![Arc::new(SlowEvery {
        slow_every,
        fast: Duration::from_micros(fast_us),
        slow: Duration::from_millis(slow_ms),
    }) as Arc<dyn Transform<u32>>])
}

/// The tentpole acceptance criterion: a 3-epoch run over a slow-heavy
/// dataset with an adequate budget delivers epoch-2+ samples with a
/// ≥90% cache hit rate, and executes the pipeline strictly fewer times
/// than it delivers samples.
#[test]
fn multi_epoch_run_hits_cache_after_first_epoch() {
    // An epoch request can overtake its own previous-epoch admission
    // only while that sample waits in the slow backlog, which the
    // 100-slot temp queue bounds: an epoch ten times that keeps such
    // misses far below the 10% the test allows.
    const N: usize = 1024;
    const EPOCHS: usize = 3;
    let ds = VecDataset::new((0..N as u32).collect::<Vec<_>>());
    let loader = MinatoLoader::builder(ds, slow_heavy_pipeline(3, 300, 3))
        .batch_size(16)
        .epochs(EPOCHS)
        .seed(5)
        .initial_workers(4)
        .max_workers(4)
        .slow_workers(2)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
        .cache_budget_bytes(1 << 20)
        .cache_policy(EvictionPolicy::CostAware)
        .build()
        .expect("valid configuration");

    let mut per_epoch: HashMap<usize, HashMap<u32, usize>> = HashMap::new();
    let mut delivered = 0usize;
    for b in loader.iter() {
        for (s, m) in b.samples.iter().zip(&b.meta) {
            *per_epoch.entry(m.epoch).or_default().entry(*s).or_default() += 1;
            delivered += 1;
        }
    }
    assert_eq!(delivered, N * EPOCHS);
    for epoch in 0..EPOCHS {
        let counts = &per_epoch[&epoch];
        assert_eq!(counts.len(), N, "epoch {epoch} must cover the dataset");
        assert!(counts.values().all(|&c| c == 1), "duplicates in {epoch}");
    }

    let stats = loader.stats();
    let cache = stats.cache.expect("cache enabled");
    // Each ticket consults the cache exactly once.
    assert_eq!(cache.lookups(), (N * EPOCHS) as u64);
    // Epoch 1 can only miss (every index is requested once per epoch).
    assert!(cache.misses >= N as u64);
    // ≥90% of epoch-2+ deliveries must come from the cache.
    let late_lookups = (N * (EPOCHS - 1)) as u64;
    assert!(
        cache.hits as f64 >= 0.9 * late_lookups as f64,
        "epoch-2+ hit rate too low: {} hits of {late_lookups}",
        cache.hits
    );
    // Pipeline executions (balancer completions) = cache misses, and
    // strictly fewer than samples delivered.
    assert_eq!(stats.samples_done, cache.misses);
    assert!(
        stats.samples_done < delivered as u64,
        "caching must save pipeline executions: {} !< {delivered}",
        stats.samples_done
    );
    // The saved executions are the expensive ones: with CostAware
    // eviction and ample budget, slow samples were admitted too.
    assert!(cache.entries > 0 && cache.bytes <= cache.budget_bytes);
}

/// Satellite: `order_preserving(true)` + `epochs >= 2` + cache. Strict
/// sampler order must hold in *every* epoch even when later epochs are
/// served almost entirely from the cache, and each epoch must deliver
/// the full dataset exactly once.
#[test]
fn order_preserving_multi_epoch_with_cache_keeps_per_epoch_order() {
    // Nothing is deferred here, so an epoch-2 request can overtake its
    // own epoch-1 run only behind a worker stalled mid-chunk; long
    // epochs keep such misses far below the 10% the test allows.
    const N: usize = 256;
    const EPOCHS: usize = 3;
    let ds = VecDataset::new((0..N as u32).collect::<Vec<_>>());
    let loader = MinatoLoader::builder(ds, slow_heavy_pipeline(5, 400, 2))
        .batch_size(8)
        .epochs(EPOCHS)
        .shuffle(false)
        .order_preserving(true)
        .initial_workers(2)
        .max_workers(2)
        .cache_budget_bytes(1 << 20)
        .build()
        .expect("valid configuration");

    let mut seq: Vec<(usize, u32)> = Vec::new();
    for b in loader.iter() {
        for (s, m) in b.samples.iter().zip(&b.meta) {
            seq.push((m.epoch, *s));
        }
    }
    // Global delivery order = epochs in order, each 0..N in order.
    let expect: Vec<(usize, u32)> = (0..EPOCHS)
        .flat_map(|e| (0..N as u32).map(move |i| (e, i)))
        .collect();
    assert_eq!(seq, expect, "strict per-epoch sampler order required");

    let cache = loader.stats().cache.expect("cache enabled");
    let late_lookups = (N * (EPOCHS - 1)) as u64;
    assert!(
        cache.hits as f64 >= 0.9 * late_lookups as f64,
        "order-preserving mode must still reuse the cache: {} hits",
        cache.hits
    );
}

/// Cache hits are delivered as fast samples and must not perturb the
/// balancer: no hit may appear in the profiler or the slow-flag
/// accounting, and the adaptive timeout must stay calibrated to real
/// executions.
#[test]
fn cache_hits_bypass_balancer_accounting() {
    const N: usize = 96;
    let ds = VecDataset::new((0..N as u32).collect::<Vec<_>>());
    let loader = MinatoLoader::builder(ds, slow_heavy_pipeline(4, 300, 2))
        .batch_size(12)
        .epochs(3)
        .initial_workers(3)
        .max_workers(3)
        .slow_workers(1)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
        .cache_budget_bytes(1 << 20)
        .build()
        .expect("valid configuration");
    let mut delivered = 0usize;
    let mut slow_delivered = 0usize;
    for b in loader.iter() {
        delivered += b.len();
        slow_delivered += b.slow_count();
    }
    assert_eq!(delivered, N * 3);
    let stats = loader.stats();
    let cache = stats.cache.expect("cache enabled");
    assert!(cache.hits > 0, "later epochs must hit the cache");
    // Balancer only saw the misses...
    assert_eq!(stats.samples_done + cache.hits, (N * 3) as u64);
    // ...and cached re-deliveries of slow samples ride the fast path.
    assert!(
        (slow_delivered as u64) < stats.samples_done,
        "slow flags must come from real executions only"
    );
    // The profiler's window saw exactly the executions, not the hits.
    assert_eq!(
        stats.preprocess_ms.count as u64, stats.samples_done,
        "cache hits must not be profiled"
    );
}

/// Default-off guarantee: without cache knobs the stats carry no cache
/// block and multi-epoch delivery re-executes the pipeline every epoch.
#[test]
fn cache_disabled_by_default_reexecutes_every_epoch() {
    const N: usize = 40;
    let ds = VecDataset::new((0..N as u32).collect::<Vec<_>>());
    let p: Pipeline<u32> = Pipeline::identity();
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(8)
        .epochs(3)
        .initial_workers(2)
        .max_workers(2)
        .build()
        .expect("valid configuration");
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(delivered, N * 3);
    let stats = loader.stats();
    assert!(stats.cache.is_none(), "no cache block when disabled");
    assert_eq!(
        stats.samples_done,
        (N * 3) as u64,
        "every delivery is a pipeline execution when the cache is off"
    );
    assert!(loader.trace().cache_hit_pct.is_empty());
}

/// A budget far below the working set must stay within bounds and keep
/// delivery correct — the cache degrades to fewer hits, never to wrong
/// or lost samples.
#[test]
fn tiny_budget_degrades_gracefully() {
    const N: usize = 64;
    let ds = VecDataset::new((0..N as u32).collect::<Vec<_>>());
    let loader = MinatoLoader::builder(ds, slow_heavy_pipeline(4, 200, 1))
        .batch_size(8)
        .epochs(2)
        .initial_workers(2)
        .max_workers(2)
        .slow_workers(1)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_micros(500)))
        // Room for only 16 of the 64 four-byte entries (8 shards of
        // 8 bytes).
        .cache_budget_bytes(64)
        .build()
        .expect("valid configuration");
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for b in loader.iter() {
        for s in b.into_samples() {
            *counts.entry(s).or_default() += 1;
        }
    }
    assert_eq!(counts.len(), N);
    assert!(counts.values().all(|&c| c == 2), "every sample twice");
    let cache = loader.stats().cache.expect("cache enabled");
    assert!(cache.bytes <= cache.budget_bytes);
    assert!(cache.evictions > 0, "pressure must have forced evictions");
}
