//! Differential test: `MinatoLoader` in order-preserving mode against the
//! PyTorch-semantics `TorchLoader`. Both chunk the sampler's multi-epoch
//! ticket stream into consecutive batches, deliver them in that order,
//! and leave a batch one short for each sample that fails, so on the
//! same seed they must deliver identical batches.

use minato_baselines::torch::{TorchConfig, TorchLoader};
use minato_core::prelude::*;
use std::sync::Arc;

const LEN: usize = 50;
const BATCH: usize = 8;
const EPOCHS: usize = 2;
const WORKERS: usize = 3;

/// A dataset of `LEN` samples whose index `failing`, if any, always
/// fails to load.
fn dataset(failing: Option<usize>) -> impl Dataset<Sample = u32> {
    FnDataset::new(LEN, move |i| {
        if Some(i) == failing {
            Err(LoaderError::Dataset {
                index: i,
                msg: "unreadable".into(),
            })
        } else {
            Ok(i as u32)
        }
    })
}

/// Passes every sample through but `self.0`, which it reports as
/// interrupted although no deadline is set.
struct InterruptsOn(u32);

impl Transform<u32> for InterruptsOn {
    fn name(&self) -> &str {
        "interrupts-on"
    }

    fn apply(&self, x: u32, _ctx: &TransformCtx) -> Result<Outcome<u32>> {
        Ok(if x == self.0 {
            Outcome::Interrupted(x)
        } else {
            Outcome::Done(x)
        })
    }
}

/// The identity, or `InterruptsOn(index)`.
fn pipeline(interrupting: Option<u32>) -> Pipeline<u32> {
    match interrupting {
        Some(i) => Pipeline::new(vec![Arc::new(InterruptsOn(i)) as Arc<dyn Transform<u32>>]),
        None => Pipeline::identity(),
    }
}

/// Every delivered batch as its list of seqs, in delivery order.
fn seqs(batches: impl Iterator<Item = Batch<u32>>) -> Vec<Vec<u64>> {
    batches
        .map(|b| b.meta.iter().map(|m| m.seq).collect())
        .collect()
}

fn torch_batches(seed: u64, failing: Option<usize>, interrupting: Option<u32>) -> Vec<Vec<u64>> {
    let loader = TorchLoader::new(
        dataset(failing),
        pipeline(interrupting),
        TorchConfig {
            batch_size: BATCH,
            num_workers: WORKERS,
            epochs: EPOCHS,
            shuffle: true,
            seed,
        },
    )
    .expect("valid torch configuration");
    seqs(loader.iter())
}

fn minato_batches(seed: u64, failing: Option<usize>, interrupting: Option<u32>) -> Vec<Vec<u64>> {
    let loader = MinatoLoader::builder(dataset(failing), pipeline(interrupting))
        .batch_size(BATCH)
        .epochs(EPOCHS)
        .seed(seed)
        .order_preserving(true)
        .max_workers(WORKERS)
        .build()
        .expect("valid loader configuration");
    seqs(loader.iter())
}

/// Both loaders on three seeds: the same batches, seq for seq, in the
/// same order; a failing or interrupting index costs one sample per
/// epoch.
fn check(failing: Option<usize>, interrupting: Option<u32>) {
    assert_ne!((LEN * EPOCHS) % BATCH, 0, "the last batch is partial");
    for seed in [1, 7, 42] {
        let torch = torch_batches(seed, failing, interrupting);
        let delivered: usize = torch.iter().map(Vec::len).sum();
        let lost = EPOCHS * (usize::from(failing.is_some()) + usize::from(interrupting.is_some()));
        assert_eq!(delivered, LEN * EPOCHS - lost, "seed {seed}");
        assert_eq!(
            minato_batches(seed, failing, interrupting),
            torch,
            "seed {seed}, failing {failing:?}, interrupting {interrupting:?}: batches differ"
        );
    }
}

#[test]
fn ordered_minato_matches_torch_without_failures() {
    check(None, None);
}

/// The failing sample leaves its batch one short in both loaders; no
/// later batch takes a sample from the next one to fill up.
#[test]
fn ordered_minato_matches_torch_with_a_failing_index() {
    check(Some(13), None);
}

/// With no deadline set, an interrupted run has no transformed sample
/// to deliver: both loaders skip it, and ordered mode defers nothing.
#[test]
fn ordered_minato_matches_torch_when_a_sample_interrupts_itself() {
    check(None, Some(21));
}
