//! Multi-job training: two loaders sharing one elastic executor pool.
//!
//! Instead of each loader spawning its own fixed thread complement, a
//! [`SharedExecutor`] owns one role-fluid worker pool and every loader
//! registers its fast/slow/batch roles on it. Workers bid for roles by
//! budget deficit across both loaders, so a job whose slow stage falls
//! behind pulls capacity from a job with idle budget — the multi-job
//! training scenario with one right-sized pool instead of two
//! over-provisioned ones.
//!
//! Run with: `cargo run --release --example shared_executor`

use minato::core::loader::ExecutorConfig;
use minato::core::prelude::*;
use std::time::{Duration, Instant};

const POOL_THREADS: usize = 6;

/// Mixed-cost pipeline; `slow_every`-th samples sleep well past the
/// classification timeout.
fn pipeline(slow_every: u32, slow_ms: u64) -> Pipeline<u32> {
    Pipeline::new(vec![fn_transform("augment", move |x: u32| {
        if x.is_multiple_of(slow_every) {
            std::thread::sleep(Duration::from_millis(slow_ms));
        } else {
            std::thread::sleep(Duration::from_micros(300));
        }
        Ok(x)
    })])
}

fn job(
    pool: &SharedExecutor,
    name: &'static str,
    n: u32,
    slow_every: u32,
    slow_ms: u64,
) -> std::thread::JoinHandle<(&'static str, usize, u64)> {
    let pool = pool.clone();
    std::thread::spawn(move || {
        let dataset = VecDataset::new((0..n).collect::<Vec<_>>());
        let loader = MinatoLoader::builder(dataset, pipeline(slow_every, slow_ms))
            .batch_size(16)
            .initial_workers(2)
            .max_workers(3)
            .slow_workers(1)
            .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(2)))
            .executor(ExecutorConfig::Shared(pool))
            .build()
            .expect("loader builds");
        let mut delivered = 0usize;
        for batch in loader.iter() {
            delivered += batch.len();
        }
        let steals = loader
            .stats()
            .exec
            .map(|e| e.roles.iter().map(|r| r.steals).sum::<u64>())
            .unwrap_or(0);
        (name, delivered, steals)
    })
}

fn main() {
    let pool = SharedExecutor::new(POOL_THREADS);
    println!(
        "shared pool: {} role-fluid workers serving two training jobs\n",
        pool.threads()
    );
    let t0 = Instant::now();
    // Job A is slow-heavy (every 4th sample defers); job B is light.
    let a = job(&pool, "job-a (slow-heavy)", 192, 4, 6);
    let b = job(&pool, "job-b (light)", 256, 64, 6);
    for h in [a, b] {
        let (name, delivered, steals) = h.join().expect("job finishes");
        println!("{name}: delivered {delivered} samples (steals into its roles: {steals})");
    }
    println!(
        "\nboth jobs done in {:.0} ms on {POOL_THREADS} shared workers",
        t0.elapsed().as_secs_f64() * 1e3
    );
    drop(pool); // Last handle: shuts the pool down and joins its workers.
}
