//! Counter gate for buffer pooling on the real threaded loader: with the
//! pool on, the cheap-transform workload must take its raw sample
//! buffers from recycled memory instead of the allocator. The claims are
//! counts, so they hold in debug builds; wall time is `benchmark/`'s
//! business (`pool.hit_rate`, `loader.allocs_per_sample`).
//!
//! What the pool saves here is the raw buffer: 256 KiB and one
//! allocation per sample, except on the first acquires of each size
//! class, which miss. The stages run in place with or without the pool,
//! so they allocate nothing either way. Measured in a debug build on a
//! two-vCPU x86-64 host: off 3.68–3.70 allocations and ≈ 256 KiB per
//! sample, on 3.76–3.80 allocations and 17–21 KiB, hit rate 0.92–0.94.
//! The allocation *count* does not drop, because the pooled loader
//! creates a scratch ledger (one `Arc`) per sample, which costs the one
//! allocation the raw buffer saves. So the gate is on bytes: the pool
//! must save at least half a raw buffer per sample (it saves ≈ 0.9).

use minato_bench::alloc_counter;
use minato_core::prelude::*;
use minato_core::transform::InPlace;
use std::sync::Arc;

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Samples per run.
const N: usize = 192;
/// `f32`s per raw sample buffer (256 KiB).
const LEN: usize = 64 * 1024;

/// A volume-neutral gain stage over a raw `f32` payload, mutating the
/// sample where it sits.
struct GainStage(f32);

impl Transform<Vec<f32>> for GainStage {
    fn name(&self) -> &str {
        "gain"
    }

    fn apply_mut(
        &self,
        v: &mut Vec<f32>,
        _ctx: &TransformCtx,
    ) -> minato_core::error::Result<InPlace> {
        v.iter_mut().for_each(|x| *x *= self.0);
        Ok(InPlace::Done)
    }
}

/// Per delivered sample: heap allocations, KiB allocated, and the pool's
/// hit rate.
struct Run {
    allocs: f64,
    kib: f64,
    hit_rate: f64,
}

/// Runs `N` raw `LEN`-float samples through six gain stages with pooling
/// on or off: the dataset draws raw buffers from the pool, the pipeline
/// executes in place, dropped batches recycle. With the pool off the same
/// code paths degrade to plain allocation.
fn pool_reuse_run(pooled: bool) -> Run {
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
        .max_workers(3);
    if pooled {
        builder = builder.pool(Arc::clone(&pools));
    }
    let loader = builder.build().expect("valid configuration");
    let (a0, b0) = (
        alloc_counter::allocations(),
        alloc_counter::allocated_bytes(),
    );
    // Each batch drops at the end of its iteration: with the pool on,
    // every sample's buffer flows back for the next acquires.
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    let allocations = alloc_counter::allocations() - a0;
    let bytes = alloc_counter::allocated_bytes() - b0;
    assert_eq!(delivered, N, "must deliver every sample");
    Run {
        allocs: allocations as f64 / delivered as f64,
        kib: bytes as f64 / 1024.0 / delivered as f64,
        hit_rate: pools.stats().combined().hit_rate(),
    }
}

#[test]
fn pooling_serves_raw_buffers_from_recycled_memory() {
    assert!(alloc_counter::instrumented());
    let off = pool_reuse_run(false);
    let on = pool_reuse_run(true);
    let raw_kib = (LEN * 4) as f64 / 1024.0;
    assert!(
        off.kib - on.kib >= raw_kib / 2.0,
        "the pool must save at least half of each {raw_kib} KiB raw buffer: \
         off {:.1} KiB / {:.2} allocations per sample, on {:.1} KiB / {:.2}",
        off.kib,
        off.allocs,
        on.kib,
        on.allocs
    );
    assert!(
        on.hit_rate > 0.5,
        "steady state must run on recycled memory: {:.2}",
        on.hit_rate
    );
}
