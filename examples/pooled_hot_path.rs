//! The zero-allocation hot path: buffer pooling on the volumetric
//! segmentation pipeline.
//!
//! The loader runs every stage through `Transform::apply_mut`, pooled or
//! not. With `pool_budget_bytes` set, shape-changing stages (the crop)
//! draw their output buffers from the pool instead of the allocator, and
//! each delivered batch hands its sample buffers back when the training
//! loop drops it — so at steady state sample memory recirculates instead
//! of churning through malloc/free.
//!
//! Run with: `cargo run --release --example pooled_hot_path`

use minato::core::prelude::*;
use minato::data::volume::{segmentation_pipeline, Volume3D};

fn main() {
    let n = 96usize;
    let dataset = FnDataset::new(n, |i| {
        // Variable-sized CT volumes: 16³ – 40³ voxels (§3.2 size spread).
        let d = 16 + (i % 4) * 8;
        Ok(Volume3D::generate([d, d, d], i as u64))
    });
    let loader = MinatoLoader::builder(dataset, segmentation_pipeline([12, 12, 12]))
        .batch_size(8)
        .max_workers(3)
        .pool_budget_bytes(256 << 20) // The knob that turns pooling on.
        .build()
        .expect("valid configuration");

    let mut samples = 0usize;
    let mut voxel_bytes = 0u64;
    for batch in loader.iter() {
        samples += batch.len();
        voxel_bytes += batch.samples.iter().map(Volume3D::nbytes).sum::<u64>();
        // The batch drops here — its buffers flow back into the pool and
        // become the next samples' memory.
    }
    assert_eq!(samples, n);

    let stats = loader.stats();
    let pool = stats.pool.expect("pooling enabled").combined();
    println!(
        "delivered {samples} samples ({:.1} MiB of voxels)",
        voxel_bytes as f64 / (1 << 20) as f64
    );
    println!(
        "pool: {:.1}% hit rate, {} buffers recycled, {} dropped, {:.1} MiB resident",
        pool.hit_rate() * 100.0,
        pool.recycled,
        pool.dropped,
        pool.bytes as f64 / (1 << 20) as f64,
    );
    assert!(
        pool.recycled > 0,
        "the recycle loop must turn: crop inputs + dropped batches return buffers"
    );
}
