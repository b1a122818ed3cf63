//! Quickstart: drop-in MinatoLoader usage on an in-memory dataset.
//!
//! Run with: `cargo run --example quickstart`

use minato::core::prelude::*;
use std::time::Duration;

fn main() {
    // 1. A dataset: anything random-access. Here, 256 integers.
    let dataset = VecDataset::new((0..256u32).collect::<Vec<_>>());

    // 2. A preprocessing pipeline: ordered transforms. The second one is
    //    artificially slow for every 8th sample, the pathology the paper
    //    targets.
    let pipeline = Pipeline::new(vec![
        fn_transform("normalize", |x: u32| Ok(x % 97)),
        fn_transform("augment", |x: u32| {
            if x.is_multiple_of(8) {
                std::thread::sleep(Duration::from_millis(8));
            } else {
                std::thread::sleep(Duration::from_micros(300));
            }
            Ok(x)
        }),
        fn_transform("to-tensor", Ok),
    ]);

    // 3. The loader: PyTorch-DataLoader-shaped builder.
    let loader = MinatoLoader::builder(dataset, pipeline)
        .batch_size(16)
        .max_workers(4)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(2)))
        .seed(42)
        .build()
        .expect("valid configuration");

    // 4. Iterate batches as they become ready; slow samples never block
    //    batch construction.
    let mut total = 0;
    let mut slow = 0;
    for (i, batch) in loader.iter().enumerate() {
        total += batch.len();
        slow += batch.slow_count();
        if i < 4 {
            println!(
                "batch {i}: {} samples, {} slow, {} raw bytes",
                batch.len(),
                batch.slow_count(),
                batch.bytes()
            );
        }
    }
    let stats = loader.stats();
    println!("\ndelivered {total} samples, {slow} took the slow path");
    println!(
        "loader stats: {} preprocessed, slow fraction {:.2}, timeout {:?}",
        stats.samples_done, stats.slow_fraction, stats.timeout
    );
    assert_eq!(total, 256);
}
