//! Image-segmentation scenario: 3D volumes through the Table 1 pipeline
//! (RandomCrop → RandomFlip → RandomBrightness → GaussianNoise → Cast),
//! comparing MinatoLoader against the PyTorch-style baseline on real
//! kernels over variable-sized volumes.
//!
//! Run with: `cargo run --release --example image_segmentation`

use minato::baselines::torch::{TorchConfig, TorchLoader};
use minato::core::prelude::*;
use minato::data::volume::{segmentation_pipeline, Volume3D};
use std::time::Instant;

fn dataset() -> FnDataset<Volume3D, impl Fn(usize) -> minato::core::error::Result<Volume3D>> {
    // KiTS19-like: volume sizes vary widely, so preprocessing cost does
    // too (the §3.2 size/time correlation).
    FnDataset::new(48, |i| {
        let side = 12 + (i * 7) % 36; // 12..48 voxels per side.
        Ok(Volume3D::generate([side, side, side], i as u64))
    })
    .with_size_hint(|i| {
        let side = (12 + (i * 7) % 36) as u64;
        side * side * side * 5
    })
}

fn main() {
    let pipeline = segmentation_pipeline([12, 12, 12]);

    println!("== MinatoLoader ==");
    let t0 = Instant::now();
    let loader = MinatoLoader::builder(dataset(), pipeline.clone())
        .batch_size(4)
        .max_workers(3)
        .warmup_samples(12)
        .seed(7)
        .build()
        .expect("valid configuration");
    let mut voxels = 0usize;
    for batch in loader.iter() {
        voxels += batch.samples.iter().map(|v| v.len()).sum::<usize>();
    }
    let stats = loader.stats();
    println!(
        "  {} samples ({} slow-flagged) -> {voxels} voxels in {:.2?}",
        stats.samples_done,
        stats.slow_flagged,
        t0.elapsed()
    );
    println!(
        "  preprocess ms: avg {:.1} / p75 {:.1} / max {:.1}",
        stats.preprocess_ms.avg, stats.preprocess_ms.p75, stats.preprocess_ms.max
    );

    println!("== PyTorch-style baseline ==");
    let t0 = Instant::now();
    let torch = TorchLoader::new(
        dataset(),
        pipeline,
        TorchConfig {
            batch_size: 4,
            num_workers: 3,
            seed: 7,
            ..Default::default()
        },
    )
    .expect("valid configuration");
    let mut voxels = 0usize;
    for batch in torch.iter() {
        voxels += batch.samples.iter().map(|v| v.len()).sum::<usize>();
    }
    println!(
        "  {voxels} voxels in {:.2?} (strict in-order delivery)",
        t0.elapsed()
    );
}
