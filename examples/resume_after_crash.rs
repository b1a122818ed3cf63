//! Kill a training run mid-epoch, resume it from a checkpoint, and
//! verify exactly-once delivery across the crash.
//!
//! Every loader keeps a delivery log, so any loader can snapshot its
//! resumable state — sampler stream, delivery watermark, balancer
//! estimator, fast budget — into a small serializable
//! [`LoaderCheckpoint`], at any instant and without pausing the
//! pipeline. A seq counts as delivered once `next_batch` recorded it
//! before returning. A resumed run replays the original seeded
//! ticket stream minus what was already delivered; samples in flight
//! and batches queued but never popped when the process died are simply
//! re-run, so nothing is lost and nothing is delivered twice.
//!
//! Run with: `cargo run --release --example resume_after_crash`

use minato::core::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

const N: usize = 192;
const EPOCHS: usize = 2;
const KILL_AFTER_BATCHES: usize = 9;

/// Mixed-cost pipeline: every 8th sample is ~15x slower.
fn pipeline() -> Pipeline<u32> {
    Pipeline::new(vec![
        fn_transform("normalize", |x: u32| Ok(x % 97)),
        fn_transform("augment", |x: u32| {
            if x.is_multiple_of(8) {
                std::thread::sleep(Duration::from_millis(3));
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
            Ok(x)
        }),
    ])
}

fn builder() -> MinatoLoaderBuilder<VecDataset<u32>> {
    let dataset = VecDataset::new((0..N as u32).collect::<Vec<_>>());
    MinatoLoader::builder(dataset, pipeline())
        .batch_size(16)
        .epochs(EPOCHS)
        .seed(42)
        .initial_workers(4)
        .max_workers(8)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
}

fn main() {
    // Phase 1: train for a while, checkpoint, then "crash" (drop the
    // loader with batches still queued — those are intentionally lost).
    let loader = builder().build().expect("valid configuration");
    let mut delivered_before = BTreeSet::new();
    for _ in 0..KILL_AFTER_BATCHES {
        let Some(batch) = loader.next_batch(0) else {
            break;
        };
        delivered_before.extend(batch.meta.iter().map(|m| m.seq));
    }
    let ckpt = loader.checkpoint().expect("checkpointing enabled");
    let bytes = ckpt.encode();
    drop(loader); // The crash.
    println!(
        "killed after {} of {} samples; checkpoint = {} bytes \
         (watermark {}, {} delivered above it)",
        delivered_before.len(),
        N * EPOCHS,
        bytes.len(),
        ckpt.watermark,
        ckpt.delivered_above.len(),
    );

    // Phase 2: restart from the serialized checkpoint and finish.
    let restored = LoaderCheckpoint::decode(&bytes).expect("intact checkpoint");
    let resumed = builder()
        .resume_from(restored)
        .build()
        .expect("valid configuration");
    let mut delivered_after = BTreeSet::new();
    while let Some(batch) = resumed.next_batch(0) {
        delivered_after.extend(batch.meta.iter().map(|m| m.seq));
    }
    println!(
        "resumed run delivered {} samples (timeout restored to {:?})",
        delivered_after.len(),
        resumed.stats().timeout,
    );

    // Exactly-once across the crash: disjoint halves, complete union.
    assert!(delivered_before.is_disjoint(&delivered_after));
    let union = delivered_before.len() + delivered_after.len();
    assert_eq!(union, N * EPOCHS);
    println!(
        "exactly-once verified: {} + {} = {} seqs, no duplicates",
        delivered_before.len(),
        delivered_after.len(),
        union
    );
}
