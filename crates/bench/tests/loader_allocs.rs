//! Counter gate for the framework tax in allocations: with an identity
//! pipeline over `u32`s the loader itself is all that allocates. The
//! claims are counts, so they hold in debug builds; wall time is
//! `benchmark/`'s business (`loader.allocs_per_sample` on `noop_tax`).
//!
//! What is left per claim of one batch (64 samples) is five
//! allocations, ≈ 0.078 per sample: the claim's tickets, its sample
//! buffer and pipeline times, and the two `Vec`s of the fresh open
//! batch that replaces each emitted one; emitting a batch allocates
//! nothing. A dataset that builds its error message on every
//! successful load adds one per sample (≈ 1.13 in all).
//!
//! `build()` is held to a byte budget: the sampler draws each epoch's
//! shuffle as tickets are claimed, so nothing scales with the dataset
//! but a shuffled sampler's zeroed 4 B per index.

use minato_bench::alloc_counter;
use minato_core::balancer::TimeoutPolicy;
use minato_core::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Samples per run: 300 batches of 64.
const N: usize = 64 * 300;

/// One test, so that no other test of this binary allocates while a
/// count is open.
#[test]
fn identity_loader_allocates_under_half_an_allocation_per_sample() {
    assert!(alloc_counter::instrumented());
    let ds = VecDataset::new((0..N as u32).collect::<Vec<_>>());

    // A successful load clones the item and allocates nothing else.
    let a0 = alloc_counter::allocations();
    let mut sum = 0u64;
    for i in 0..N {
        sum += u64::from(ds.load(i).expect("in bounds"));
    }
    assert_eq!(
        alloc_counter::allocations() - a0,
        0,
        "allocations in {N} loads"
    );
    assert_eq!(sum, (N as u64 - 1) * N as u64 / 2);

    // A 1 µs cutoff makes every claim one batch of 64, as on `noop_tax`.
    let loader = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(64)
        .max_workers(2)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_micros(1)))
        .build()
        .expect("valid configuration");
    let a0 = alloc_counter::allocations();
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    let per_sample = (alloc_counter::allocations() - a0) as f64 / delivered as f64;
    assert_eq!(delivered, N, "must deliver every sample");
    assert!(
        per_sample < 0.09,
        "{per_sample:.3} allocations per delivered sample"
    );
    drop(loader);

    // `build()` allocates no per-index order up front: a shuffled
    // sampler's 4 B slots per index (allocated zeroed), and nothing per
    // index unshuffled, plus what the threads and queues take.
    const BIG: usize = 1_000_000;
    const FIXED: u64 = 256 << 10;
    for (shuffle, budget) in [(true, 4 * BIG as u64 + FIXED), (false, FIXED)] {
        // Loads wait on the gate, so no worker gets past its first
        // claim while the count is open.
        let gate = Arc::new(AtomicBool::new(false));
        let held = Arc::clone(&gate);
        let ds = FnDataset::new(BIG, move |i| {
            while !held.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(100));
            }
            Ok(i as u32)
        });
        let b0 = alloc_counter::allocated_bytes();
        let loader = MinatoLoader::builder(ds, Pipeline::identity())
            .batch_size(64)
            .max_workers(2)
            .shuffle(shuffle)
            .build()
            .expect("valid configuration");
        let bytes = alloc_counter::allocated_bytes() - b0;
        gate.store(true, Ordering::Release);
        drop(loader);
        assert!(
            bytes < budget,
            "build() of a {BIG}-sample loader (shuffle {shuffle}) allocated {bytes} B, \
             budget {budget} B"
        );
    }
}
