//! Multi-epoch training with the cross-epoch sample cache on vs off.
//!
//! Epoch 1 always pays full preprocessing. With the cache enabled,
//! epochs 2+ serve almost every sample from memory — slow samples
//! included, which the cost-aware eviction policy keeps resident
//! longest — so repeat epochs run at near-lookup speed.
//!
//! Run with: `cargo run --release --example multi_epoch_cache`

use minato::core::prelude::*;
use std::time::{Duration, Instant};

const N: usize = 256;
const EPOCHS: usize = 3;

/// Mixed-cost pipeline: every 8th sample is ~20x slower.
fn pipeline() -> Pipeline<u32> {
    Pipeline::new(vec![
        fn_transform("normalize", |x: u32| Ok(x % 97)),
        fn_transform("augment", |x: u32| {
            if x.is_multiple_of(8) {
                std::thread::sleep(Duration::from_millis(6));
            } else {
                std::thread::sleep(Duration::from_micros(300));
            }
            Ok(x)
        }),
    ])
}

/// Runs a full multi-epoch pass and prints per-epoch wall time; returns
/// total wall time.
fn run(label: &str, cache_budget: u64) -> f64 {
    let dataset = VecDataset::new((0..N as u32).collect::<Vec<_>>());
    let mut builder = MinatoLoader::builder(dataset, pipeline())
        .batch_size(16)
        .epochs(EPOCHS)
        .seed(42)
        .max_workers(4)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(2)));
    if cache_budget > 0 {
        builder = builder
            .cache_budget_bytes(cache_budget)
            .cache_policy(EvictionPolicy::CostAware);
    }
    let loader = builder.build().expect("valid configuration");

    let t0 = Instant::now();
    let mut left = [N; EPOCHS];
    let mut epoch_ms = [0.0f64; EPOCHS];
    let mut delivered = 0usize;
    for batch in loader.iter() {
        for m in &batch.meta {
            delivered += 1;
            left[m.epoch] -= 1;
            if left[m.epoch] == 0 {
                epoch_ms[m.epoch] = t0.elapsed().as_secs_f64() * 1e3;
            }
        }
    }
    assert_eq!(delivered, N * EPOCHS);

    println!("== {label} ==");
    let mut prev = 0.0;
    for (e, done) in epoch_ms.iter().enumerate() {
        println!("  epoch {}: {:>6.0} ms", e + 1, done - prev);
        prev = *done;
    }
    let stats = loader.stats();
    match stats.cache {
        Some(c) => println!(
            "  hit rate {:.1}% ({} hits / {} lookups), {} pipeline executions, \
             {} cached entries ({} bytes of {} budget)",
            c.hit_rate() * 100.0,
            c.hits,
            c.lookups(),
            stats.samples_done,
            c.entries,
            c.bytes,
            c.budget_bytes
        ),
        None => println!("  cache off: {} pipeline executions", stats.samples_done),
    }
    prev
}

fn main() {
    let off = run("cache off (default)", 0);
    let on = run("cache on (64 MiB, cost-aware)", 64 << 20);
    println!(
        "\ntotal: {off:.0} ms off vs {on:.0} ms on ({:.2}x)",
        off / on
    );
}
