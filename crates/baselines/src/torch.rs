//! PyTorch-DataLoader-style baseline (paper §2.1, Figure 1a).
//!
//! Faithfully reproduces the three properties that cause the paper's
//! head-of-line blocking:
//!
//! 1. **Pre-determined batching** — the sampler's index stream is chunked
//!    into batches *before* preprocessing; a batch's membership never
//!    changes.
//! 2. **Per-worker whole-batch processing** — batch `i` is assigned to
//!    worker `i % num_workers`, which loads and preprocesses *all* its
//!    samples sequentially (PyTorch's `_MapDatasetFetcher`).
//! 3. **Strict in-order delivery** — batches are handed to the trainer in
//!    batch-index order through a reorder buffer; one slow batch blocks
//!    everything behind it, bounded by two outstanding batches per
//!    worker (PyTorch's default `prefetch_factor`).
//!
//! The final partial batch is always delivered.

use minato_core::batch::{Batch, Prepared, ReorderBuffer, SampleMeta};
use minato_core::dataset::{Dataset, EpochSampler, SampleTicket, Sampler};
use minato_core::error::{LoaderError, Result};
use minato_core::queue::MinatoQueue;
use minato_core::transform::{Pipeline, PipelineRun};
use minato_metrics::{Counter, UtilizationMeter};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Batches each worker may have in flight (PyTorch's default
/// `prefetch_factor`).
const PREFETCH_FACTOR: usize = 2;

/// Configuration for [`TorchLoader`].
#[derive(Clone)]
pub struct TorchConfig {
    /// Samples per batch.
    pub batch_size: usize,
    /// Parallel workers (paper tuning: 12).
    pub num_workers: usize,
    /// Epochs to iterate.
    pub epochs: usize,
    /// Shuffle each epoch.
    pub shuffle: bool,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TorchConfig {
    fn default() -> Self {
        TorchConfig {
            batch_size: 1,
            num_workers: 12,
            epochs: 1,
            shuffle: true,
            seed: 0,
        }
    }
}

struct Shared<D: Dataset> {
    dataset: D,
    pipeline: Pipeline<D::Sample>,
    /// Batch index → tickets; fixed before training starts (property 1).
    plan: Vec<Vec<SampleTicket>>,
    /// Per-worker bounded task queues (property 2 + prefetch bound).
    task_qs: Vec<MinatoQueue<usize>>,
    /// Completed (batch_idx, batch) pairs awaiting reordering.
    done_q: MinatoQueue<(usize, Batch<D::Sample>)>,
    /// In-order output available to the iterator (property 3).
    out_q: MinatoQueue<Batch<D::Sample>>,
    workers_live: AtomicUsize,
    cpu_meter: UtilizationMeter,
    errors: Counter,
    first_error: Mutex<Option<LoaderError>>,
    shutdown: AtomicBool,
}

/// The PyTorch-style baseline loader.
///
/// # Examples
///
/// ```
/// use minato_baselines::torch::{TorchConfig, TorchLoader};
/// use minato_core::prelude::*;
///
/// let ds = VecDataset::new((0..20u32).collect::<Vec<_>>());
/// let p = Pipeline::new(vec![fn_transform("id", |x: u32| Ok(x))]);
/// let loader = TorchLoader::new(ds, p, TorchConfig {
///     batch_size: 4,
///     num_workers: 2,
///     ..TorchConfig::default()
/// }).unwrap();
/// assert_eq!(loader.iter().map(|b| b.len()).sum::<usize>(), 20);
/// ```
pub struct TorchLoader<D: Dataset> {
    shared: Arc<Shared<D>>,
    handles: Vec<JoinHandle<()>>,
    joined: AtomicBool,
}

impl<D: Dataset> TorchLoader<D> {
    /// Builds the batch plan and starts worker threads.
    pub fn new(dataset: D, pipeline: Pipeline<D::Sample>, cfg: TorchConfig) -> Result<Self> {
        if cfg.batch_size == 0 {
            return Err(LoaderError::Config("batch_size must be positive".into()));
        }
        if cfg.num_workers == 0 {
            return Err(LoaderError::Config("num_workers must be positive".into()));
        }
        if cfg.shuffle && u32::try_from(dataset.len()).is_err() {
            return Err(LoaderError::Config(format!(
                "a shuffled loader covers at most u32::MAX samples, not {}",
                dataset.len()
            )));
        }
        // Property 1: chunk the full (multi-epoch) ticket stream up front.
        let sampler = EpochSampler::new(dataset.len(), cfg.epochs, cfg.shuffle, cfg.seed);
        let mut plan = Vec::new();
        let mut cur = Vec::with_capacity(cfg.batch_size);
        while let Some(t) = sampler.next() {
            cur.push(t);
            if cur.len() == cfg.batch_size {
                plan.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            plan.push(cur);
        }
        let task_qs: Vec<MinatoQueue<usize>> = (0..cfg.num_workers)
            .map(|w| MinatoQueue::new(&format!("task[{w}]"), PREFETCH_FACTOR))
            .collect();
        let shared = Arc::new(Shared {
            done_q: MinatoQueue::new("done", cfg.num_workers * PREFETCH_FACTOR),
            out_q: MinatoQueue::new("out", PREFETCH_FACTOR),
            workers_live: AtomicUsize::new(cfg.num_workers),
            cpu_meter: UtilizationMeter::new(),
            errors: Counter::new(),
            first_error: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            dataset,
            pipeline,
            plan,
            task_qs,
        });
        let mut handles = Vec::new();
        // Feeder: round-robin batch indices into per-worker queues,
        // blocking on the prefetch bound.
        {
            let sh = Arc::clone(&shared);
            handles.push(spawn("torch-feeder", move || feeder(sh))?);
        }
        for w in 0..cfg.num_workers {
            let sh = Arc::clone(&shared);
            handles.push(spawn(&format!("torch-worker-{w}"), move || {
                batch_fetcher(sh, w)
            })?);
        }
        {
            let sh = Arc::clone(&shared);
            handles.push(spawn("torch-collector", move || collector(sh))?);
        }
        Ok(TorchLoader {
            shared,
            handles,
            joined: AtomicBool::new(false),
        })
    }

    /// Blocking in-order batch iterator.
    pub fn iter(&self) -> TorchIter<'_, D> {
        TorchIter { loader: self }
    }

    /// Pops the next batch; `None` when training data is exhausted.
    pub fn next_batch(&self) -> Option<Batch<D::Sample>> {
        self.shared.out_q.pop()
    }

    /// Errors skipped so far.
    pub fn errors(&self) -> u64 {
        self.shared.errors.get()
    }

    /// First error encountered, if any.
    pub fn first_error(&self) -> Option<LoaderError> {
        self.shared.first_error.lock().clone()
    }

    /// Preprocessing-CPU busy meter (for utilization traces).
    pub fn cpu_meter(&self) -> &UtilizationMeter {
        &self.shared.cpu_meter
    }

    fn join_all(&mut self) {
        if self.joined.swap(true, Ordering::AcqRel) {
            return;
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl<D: Dataset> Drop for TorchLoader<D> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for q in &self.shared.task_qs {
            q.close();
        }
        self.shared.done_q.close();
        self.shared.out_q.close();
        self.join_all();
    }
}

/// Blocking iterator over a [`TorchLoader`].
pub struct TorchIter<'a, D: Dataset> {
    loader: &'a TorchLoader<D>,
}

impl<D: Dataset> Iterator for TorchIter<'_, D> {
    type Item = Batch<D::Sample>;

    fn next(&mut self) -> Option<Self::Item> {
        self.loader.next_batch()
    }
}

fn spawn(name: &str, f: impl FnOnce() + Send + 'static) -> Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .map_err(|e| LoaderError::Config(format!("spawn failed: {e}")))
}

fn feeder<D: Dataset>(sh: Arc<Shared<D>>) {
    let workers = sh.task_qs.len();
    for batch_idx in 0..sh.plan.len() {
        if sh.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Property 2: batch i goes to worker i % W, like PyTorch's
        // round-robin worker_queue_idx.
        if sh.task_qs[batch_idx % workers].put(batch_idx).is_err() {
            break;
        }
    }
    for q in &sh.task_qs {
        q.close();
    }
}

fn batch_fetcher<D: Dataset>(sh: Arc<Shared<D>>, w: usize) {
    while let Some(batch_idx) = sh.task_qs[w].pop() {
        if sh.shutdown.load(Ordering::Acquire) {
            break;
        }
        let t0 = Instant::now();
        let mut batch = Batch::with_capacity(sh.plan[batch_idx].len());
        for ticket in &sh.plan[batch_idx] {
            // `None`: skipped, error recorded.
            if let Some(p) = fetch_one(&sh, *ticket) {
                batch.push(p);
            }
        }
        sh.cpu_meter.add_busy(t0.elapsed());
        if sh.done_q.put((batch_idx, batch)).is_err() {
            break;
        }
    }
    if sh.workers_live.fetch_sub(1, Ordering::AcqRel) == 1 {
        sh.done_q.close();
    }
}

/// Loads and preprocesses one sample; `None` when it failed (the error
/// is recorded and the sample skipped).
fn fetch_one<D: Dataset>(sh: &Shared<D>, ticket: SampleTicket) -> Option<Prepared<D::Sample>> {
    let loaded = sh
        .dataset
        .load(ticket.index)
        .and_then(|raw| sh.pipeline.run(raw, None));
    let (sample, preprocess) = match loaded {
        Ok(PipelineRun::Completed { value, elapsed }) => (value, elapsed),
        // No deadline was set, so only a transform that reported
        // `Interrupted` on its own gets here: its output is not the
        // transformed sample, so it is not delivered.
        Ok(PipelineRun::TimedOut { resume_at, .. }) => {
            let name = sh.pipeline.steps()[resume_at].name().to_string();
            let msg = "interrupted with no deadline set".into();
            record_error(sh, LoaderError::Transform { name, msg });
            return None;
        }
        Err(e) => {
            record_error(sh, e);
            return None;
        }
    };
    Some(Prepared {
        sample,
        meta: SampleMeta {
            index: ticket.index,
            epoch: ticket.epoch,
            seq: ticket.seq,
            slow: false,
            preprocess,
            bytes: sh.dataset.size_hint_bytes(ticket.index).unwrap_or(0),
            issued_ns: 0,
        },
    })
}

fn record_error<D: Dataset>(sh: &Shared<D>, e: LoaderError) {
    sh.errors.incr();
    let mut slot = sh.first_error.lock();
    if slot.is_none() {
        *slot = Some(e);
    }
}

fn collector<D: Dataset>(sh: Arc<Shared<D>>) {
    // Property 3: strict batch-index order. One reusable drain buffer
    // serves every pop instead of a fresh `Vec` per arriving batch.
    let mut reorder: ReorderBuffer<Batch<D::Sample>> = ReorderBuffer::new(0);
    let mut ready: Vec<Batch<D::Sample>> = Vec::new();
    while let Some((idx, batch)) = sh.done_q.pop() {
        reorder.offer(idx as u64, batch);
        reorder.drain_ready(&mut ready);
        for b in ready.drain(..) {
            if emit(&sh, b).is_err() {
                return;
            }
        }
    }
    for b in reorder.drain_remaining() {
        if emit(&sh, b).is_err() {
            return;
        }
    }
    sh.out_q.close();
}

fn emit<D: Dataset>(sh: &Arc<Shared<D>>, b: Batch<D::Sample>) -> std::result::Result<(), ()> {
    if b.is_empty() {
        return Ok(());
    }
    sh.out_q.put(b).map_err(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minato_core::dataset::VecDataset;
    use minato_core::transform::{fn_transform, Outcome, Transform, TransformCtx};
    use std::collections::HashMap;
    use std::time::Duration;

    fn id_pipeline() -> Pipeline<u32> {
        Pipeline::new(vec![fn_transform("id", |x: u32| Ok(x))])
    }

    #[test]
    fn rejects_bad_config() {
        let ds = VecDataset::new(vec![1u32]);
        assert!(TorchLoader::new(
            ds.clone(),
            id_pipeline(),
            TorchConfig {
                batch_size: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(TorchLoader::new(
            ds,
            id_pipeline(),
            TorchConfig {
                num_workers: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn delivers_everything_exactly_once() {
        let ds = VecDataset::new((0..100u32).collect::<Vec<_>>());
        let loader = TorchLoader::new(
            ds,
            id_pipeline(),
            TorchConfig {
                batch_size: 7,
                num_workers: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for b in loader.iter() {
            for s in &b.samples {
                *counts.entry(*s).or_default() += 1;
            }
        }
        assert_eq!(counts.len(), 100);
        assert!(counts.values().all(|&c| c == 1));
    }

    #[test]
    fn delivery_is_in_sampler_order() {
        let ds = VecDataset::new((0..60u32).collect::<Vec<_>>());
        // Variable per-sample delay: out-of-order completion is certain
        // with 4 workers, yet delivery must restore order.
        let p = Pipeline::new(vec![fn_transform("jitter", |x: u32| {
            std::thread::sleep(Duration::from_micros((x as u64 % 7) * 300));
            Ok(x)
        })]);
        let loader = TorchLoader::new(
            ds,
            p,
            TorchConfig {
                batch_size: 5,
                num_workers: 4,
                shuffle: false,
                ..Default::default()
            },
        )
        .unwrap();
        let all: Vec<u32> = loader.iter().flat_map(|b| b.into_samples()).collect();
        assert_eq!(all, (0..60).collect::<Vec<u32>>());
    }

    #[test]
    fn partial_batch_is_kept() {
        let ds = VecDataset::new((0..10u32).collect::<Vec<_>>());
        let loader = TorchLoader::new(
            ds,
            id_pipeline(),
            TorchConfig {
                batch_size: 4,
                num_workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let sizes: Vec<usize> = loader.iter().map(|b| b.len()).collect();
        assert_eq!(sizes.len(), 3);
        assert_eq!(sizes.iter().sum::<usize>(), 10);
    }

    #[test]
    fn multi_epoch_plan() {
        let ds = VecDataset::new((0..6u32).collect::<Vec<_>>());
        let loader = TorchLoader::new(
            ds,
            id_pipeline(),
            TorchConfig {
                batch_size: 3,
                num_workers: 2,
                epochs: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(loader.iter().count(), 8);
    }

    /// Reports `Interrupted` on every sample, with or without a deadline.
    struct AlwaysInterrupted;

    impl Transform<u32> for AlwaysInterrupted {
        fn name(&self) -> &str {
            "always-interrupted"
        }

        fn apply(&self, x: u32, _ctx: &TransformCtx) -> Result<Outcome<u32>> {
            Ok(Outcome::Interrupted(x))
        }
    }

    #[test]
    fn interrupted_without_deadline_is_an_error() {
        // The loader sets no deadline, so an interrupted transform has
        // not transformed the sample: it is counted, not delivered.
        let ds = VecDataset::new((0..6u32).collect::<Vec<_>>());
        let p = Pipeline::new(vec![Arc::new(AlwaysInterrupted) as Arc<dyn Transform<u32>>]);
        let loader = TorchLoader::new(
            ds,
            p,
            TorchConfig {
                batch_size: 2,
                num_workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(loader.iter().map(|b| b.len()).sum::<usize>(), 0);
        assert_eq!(loader.errors(), 6);
        assert!(matches!(
            loader.first_error(),
            Some(LoaderError::Transform { name, .. }) if name == "always-interrupted"
        ));
    }

    #[test]
    fn errors_skip_samples_but_not_batches() {
        let ds = minato_core::dataset::FnDataset::new(12, |i| {
            if i == 5 {
                Err(LoaderError::Dataset {
                    index: i,
                    msg: "bad".into(),
                })
            } else {
                Ok(i as u32)
            }
        });
        let loader = TorchLoader::new(
            ds,
            id_pipeline(),
            TorchConfig {
                batch_size: 4,
                num_workers: 2,
                shuffle: false,
                ..Default::default()
            },
        )
        .unwrap();
        let total: usize = loader.iter().map(|b| b.len()).sum();
        assert_eq!(total, 11);
        assert_eq!(loader.errors(), 1);
        assert!(loader.first_error().is_some());
    }

    #[test]
    #[allow(clippy::drop_non_drop)] // The drops ARE the behavior under test.
    fn drop_mid_iteration_is_clean() {
        let ds = VecDataset::new((0..500u32).collect::<Vec<_>>());
        let loader = TorchLoader::new(
            ds,
            id_pipeline(),
            TorchConfig {
                batch_size: 5,
                num_workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let mut it = loader.iter();
        let _ = it.next();
        drop(it);
        drop(loader);
    }

    #[test]
    fn head_of_line_blocking_is_observable() {
        // One poisoned sample (long sleep) early in the plan delays
        // delivery of *all* later batches even though they finish first —
        // the pathology of Figure 1a.
        let ds = VecDataset::new((0..40u32).collect::<Vec<_>>());
        let p = Pipeline::new(vec![fn_transform("hol", |x: u32| {
            if x == 0 {
                std::thread::sleep(Duration::from_millis(120));
            }
            Ok(x)
        })]);
        let loader = TorchLoader::new(
            ds,
            p,
            TorchConfig {
                batch_size: 4,
                num_workers: 4,
                shuffle: false,
                ..Default::default()
            },
        )
        .unwrap();
        let t0 = Instant::now();
        let first = loader.next_batch().expect("first batch");
        let t_first = t0.elapsed();
        assert!(first.samples.contains(&0));
        // The first batch contains the slow sample, so nothing could be
        // delivered before it completed.
        assert!(
            t_first >= Duration::from_millis(100),
            "expected HOL delay, got {t_first:?}"
        );
    }
}
