//! Counter gate for buffer pooling on the real threaded loader: with the
//! pool on, the cheap-transform workload must pay ≥50% fewer heap
//! allocations per delivered sample and run on recycled memory. Both
//! claims are counts, so they hold in debug builds; wall time is
//! `benchmark/`'s business (`pool.hit_rate`, `loader.allocs_per_sample`).

use minato_bench::alloc_counter;
use minato_core::prelude::*;
use minato_core::transform::InPlace;
use std::sync::Arc;

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// A volume-neutral gain stage over a raw `f32` payload. The by-value
/// path materializes a fresh output buffer per stage — the
/// O(k)-buffers-per-sample allocator churn the pool removes. The
/// in-place path mutates the sample where it sits.
struct GainStage(f32);

impl Transform<Vec<f32>> for GainStage {
    fn name(&self) -> &str {
        "gain"
    }

    fn apply(
        &self,
        v: Vec<f32>,
        _ctx: &TransformCtx,
    ) -> minato_core::error::Result<Outcome<Vec<f32>>> {
        Ok(Outcome::Done(v.iter().map(|x| x * self.0).collect()))
    }

    fn apply_mut(
        &self,
        v: &mut Vec<f32>,
        _ctx: &TransformCtx,
    ) -> minato_core::error::Result<InPlace> {
        v.iter_mut().for_each(|x| *x *= self.0);
        Ok(InPlace::Done)
    }

    fn cost_class(&self) -> CostClass {
        CostClass::Neutral
    }
}

/// Runs 192 × 256 KiB `f32` samples through six gain stages with
/// pooling on or off: the dataset draws raw buffers from the pool, the
/// pipeline executes in place, dropped batches recycle. With the pool
/// off the same code paths degrade to plain allocation. Returns
/// (allocations per delivered sample, pool hit rate).
fn pool_reuse_run(pooled: bool) -> (f64, f64) {
    const N: usize = 192;
    const LEN: usize = 64 * 1024;
    let pools = Arc::new(PoolSet::new(if pooled { 512 << 20 } else { 0 }));
    let ds_pool = Arc::clone(&pools);
    let ds = FnDataset::new(N, move |i| {
        let mut v = ds_pool.f32s().acquire(LEN);
        v.extend((0..LEN).map(|j| ((i * 31 + j) % 97) as f32 / 97.0));
        Ok(v)
    });
    let stages = (0..6)
        .map(|i| Arc::new(GainStage(1.0 + 0.01 * i as f32)) as Arc<dyn Transform<Vec<f32>>>)
        .collect();
    let mut builder = MinatoLoader::builder(ds, Pipeline::new(stages))
        .batch_size(8)
        .shuffle(false)
        .timeout_policy(TimeoutPolicy::Disabled)
        .initial_workers(3)
        .max_workers(3)
        .adaptive_workers(false);
    if pooled {
        builder = builder.pool(Arc::clone(&pools));
    }
    let loader = builder.build().expect("valid configuration");
    let a0 = alloc_counter::allocations();
    // Each batch drops at the end of its iteration: with the pool on,
    // every sample's buffer flows back for the next acquires.
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    let allocations = alloc_counter::allocations() - a0;
    assert_eq!(delivered, N, "must deliver every sample");
    (
        allocations as f64 / delivered as f64,
        pools.stats().combined().hit_rate(),
    )
}

#[test]
fn pooling_halves_allocations_on_the_cheap_transform_workload() {
    assert!(alloc_counter::instrumented());
    let (off_allocs, _) = pool_reuse_run(false);
    let (on_allocs, on_hit_rate) = pool_reuse_run(true);
    assert!(
        on_allocs <= 0.5 * off_allocs,
        "expected >=50% fewer allocations per sample: off {off_allocs:.1}, on {on_allocs:.1}"
    );
    assert!(
        on_hit_rate > 0.5,
        "steady state must run on recycled memory: {on_hit_rate:.2}"
    );
}
