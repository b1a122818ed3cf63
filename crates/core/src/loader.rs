//! The `MinatoLoader` public API.
//!
//! A drop-in data loader in the shape of PyTorch's `DataLoader`: construct
//! with a dataset + transform pipeline, iterate batches. Internally it runs
//! the paper's full architecture — sample-aware load balancer (§4.2),
//! the temp and batch queues and the open batch (Figure 5), and
//! background completion of slow samples, on a fixed pool of
//! `max_workers + slow_workers` threads running one step, at most
//! `max_workers` of them in a fast claim at once. The paper's §4.3
//! worker scheduler runs only in the simulator (`minato_sim::scheduler`).
//!
//! # Examples
//!
//! ```
//! use minato_core::prelude::*;
//!
//! let dataset = VecDataset::new((0..64u32).collect::<Vec<_>>());
//! let pipeline = Pipeline::new(vec![fn_transform("double", |x: u32| Ok(x * 2))]);
//! let loader = MinatoLoader::builder(dataset, pipeline)
//!     .batch_size(8)
//!     .max_workers(2)
//!     .build()
//!     .unwrap();
//! let total: usize = loader.iter().map(|b| b.len()).sum();
//! assert_eq!(total, 64);
//! ```

use crate::balancer::{take_due, TimeoutPolicy, REFRESH_INTERVAL};
use crate::batch::Batch;
use crate::cache::{CacheConfig, ClonedSampleCache, EvictionPolicy, SampleCache, SampleWeigher};
use crate::checkpoint::{
    BalancerCheckpoint, DeliveryLog, LoaderCheckpoint, ResumeSampler, CHECKPOINT_VERSION,
};
use crate::dataset::{Dataset, EpochSampler, Sampler};
use crate::error::{LoaderError, Result};
use crate::fault::FaultInjector;
use crate::pool::AcquireObserver;
use crate::pool::{PoolRecycler, PoolSet, Reclaim, SampleRecycler};
use crate::stats::{LoaderStats, MonitorTrace};
use crate::transform::Pipeline;
use crate::worker::{Runtime, TracerStageObserver, WorkerStep, Q_BATCH};
use minato_exec::{ExecConfig, ExecHandle, Executor, RoleSpec};
use minato_trace::{Collector, EventKind, TraceConfig, Tracer, RING_CAPACITY};
use parking_lot::Mutex;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// Lock-striped shards of the sample cache; each enforces
/// `cache_budget_bytes / CACHE_SHARDS` independently.
const CACHE_SHARDS: usize = 8;

/// Fully resolved loader configuration (see [`MinatoLoaderBuilder`]).
#[derive(Debug, Clone)]
pub struct LoaderConfig {
    /// Samples per emitted batch.
    pub batch_size: usize,
    /// Number of consumer endpoints, all popping the one batch queue.
    pub num_gpus: usize,
    /// Epochs to iterate.
    pub epochs: usize,
    /// Shuffle indices each epoch.
    pub shuffle: bool,
    /// RNG seed for shuffling.
    pub seed: u64,
    /// The claim share: at most this many pool threads are in a fast
    /// claim at once (default: the CPU core count).
    pub max_workers: usize,
    /// The slow share: pool threads beyond `max_workers`, so that
    /// deferred samples resume while `max_workers` threads claim.
    pub slow_workers: usize,
    /// Capacity of the temp queue. Fixed at the paper's 100 (§5.1); no
    /// builder method sets it.
    pub queue_capacity: usize,
    /// Batches prefetched per GPU: the batch queue holds
    /// `prefetch_factor × num_gpus`. Fixed at the paper's prefetch factor
    /// of 2 (§5.1); no builder method sets it.
    pub prefetch_factor: usize,
    /// Balancer timeout policy.
    pub timeout_policy: TimeoutPolicy,
    /// Warm-up samples before the adaptive timeout activates.
    pub warmup_samples: u64,
    /// Upper bound on the pipeline's internal waits: a producer waiting
    /// for space in a full temp queue, batch delivery waiting for a
    /// batch-queue slot, an idle pool worker. Each is a condvar wait
    /// that ends as soon as the awaited state changes; when it expires
    /// the waiter re-checks what else it could do, e.g. helping the
    /// next stage. An `order_preserving` claimer waiting for room in the
    /// claim window waits until an emit or shutdown wakes it. Fixed at
    /// 1 ms (the paper polls every 10 ms); no builder method sets it.
    ///
    /// In shuffled mode it is also the longest a fast worker withholds a
    /// finished sample from its batch: once it has spent this long since
    /// taking up the oldest sample in its chunk buffer, it publishes the
    /// buffer at the next sample boundary instead of at the end of the
    /// chunk. An ordered worker fills its claimed batch whole.
    pub starvation_wait: Duration,
    /// Strict sampler-order mode (§6); disables fast/slow classification.
    pub order_preserving: bool,
    /// Byte budget of the cross-epoch sample cache; 0 disables caching
    /// (the default — behavior and stats are then identical to a
    /// cache-less build).
    pub cache_budget_bytes: u64,
    /// Eviction policy of the sample cache.
    pub cache_policy: EvictionPolicy,
    /// Per-sample lifecycle tracing (off by default — the loader is
    /// then byte-identical to an untraced build; every record site
    /// compiles down to one skipped branch).
    pub trace: TraceConfig,
}

impl LoaderConfig {
    /// Pool threads beyond the claim share: `slow_workers`, or none with
    /// the timeout disabled (always so in order-preserving mode), when
    /// every sample is fast and the temp queue stays empty.
    pub(crate) fn slow_threads(&self) -> usize {
        if matches!(self.timeout_policy, TimeoutPolicy::Disabled) {
            0
        } else {
            self.slow_workers
        }
    }
}

/// Builder for [`MinatoLoader`]. All knobs default to the paper's
/// configuration (§5.1).
pub struct MinatoLoaderBuilder<D: Dataset> {
    dataset: D,
    pipeline: Pipeline<D::Sample>,
    cfg: LoaderConfig,
    cache_weigher: Option<SampleWeigher<D::Sample>>,
    pool_set: Option<Arc<PoolSet>>,
    recycler: Option<Arc<dyn SampleRecycler<D::Sample>>>,
    /// Deferred cache construction: installed by the bounded cache
    /// setters, invoked at build time with the final config. This keeps
    /// the `D::Sample: Clone + Sync` requirement scoped to callers that
    /// actually enable the cache.
    cache_factory: Option<CacheFactory<D>>,
    resume: Option<LoaderCheckpoint>,
    injector: Option<Arc<dyn FaultInjector>>,
}

type CacheFactory<D> = Box<
    dyn FnOnce(
        &LoaderConfig,
        Option<SampleWeigher<<D as Dataset>::Sample>>,
    ) -> Arc<dyn SampleCache<<D as Dataset>::Sample>>,
>;

impl<D: Dataset> MinatoLoaderBuilder<D> {
    fn new(dataset: D, pipeline: Pipeline<D::Sample>) -> Self {
        let max_workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(16);
        MinatoLoaderBuilder {
            dataset,
            pipeline,
            cache_weigher: None,
            cache_factory: None,
            pool_set: None,
            recycler: None,
            resume: None,
            injector: None,
            cfg: LoaderConfig {
                batch_size: 1,
                num_gpus: 1,
                epochs: 1,
                shuffle: true,
                seed: 0,
                max_workers,
                slow_workers: 2,
                queue_capacity: 100,
                prefetch_factor: 2,
                timeout_policy: TimeoutPolicy::paper_default(),
                warmup_samples: 32,
                starvation_wait: Duration::from_millis(1),
                order_preserving: false,
                cache_budget_bytes: 0,
                cache_policy: EvictionPolicy::CostAware,
                trace: TraceConfig::default(),
            },
        }
    }

    /// Samples per batch.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.cfg.batch_size = n;
        self
    }

    /// Number of GPUs to feed; each pops the next batch ready.
    pub fn num_gpus(mut self, n: usize) -> Self {
        self.cfg.num_gpus = n;
        self
    }

    /// Epochs to iterate.
    pub fn epochs(mut self, n: usize) -> Self {
        self.cfg.epochs = n;
        self
    }

    /// Enable/disable per-epoch shuffling.
    pub fn shuffle(mut self, yes: bool) -> Self {
        self.cfg.shuffle = yes;
        self
    }

    /// RNG seed for shuffling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Compatibility remnant of the removed adaptive scheduler's start
    /// point: the frozen `benchmark/` package calls `initial_workers(n)`.
    /// Every pool thread runs from start to end; this accepts any `n`
    /// and changes nothing. It goes once the benchmark drops the call.
    pub fn initial_workers(self, _n: usize) -> Self {
        self
    }

    /// The claim share: at most `n` pool threads claim fast tickets at
    /// once.
    pub fn max_workers(mut self, n: usize) -> Self {
        self.cfg.max_workers = n;
        self
    }

    /// The slow share: `n` pool threads beyond `max_workers`, whose
    /// worth of steps resumes deferred samples.
    pub fn slow_workers(mut self, n: usize) -> Self {
        self.cfg.slow_workers = n;
        self
    }

    /// Compatibility remnant of the removed batch-lane count: the frozen
    /// `benchmark/` package calls `batch_workers(1)`. A loader has one
    /// open batch and no batch thread in either mode; this accepts any
    /// `n` and changes nothing. It goes once the benchmark drops the
    /// call.
    pub fn batch_workers(self, _n: usize) -> Self {
        self
    }

    /// Balancer timeout policy (adaptive P75 by default).
    pub fn timeout_policy(mut self, p: TimeoutPolicy) -> Self {
        self.cfg.timeout_policy = p;
        self
    }

    /// Warm-up sample count before the adaptive timeout activates.
    pub fn warmup_samples(mut self, n: u64) -> Self {
        self.cfg.warmup_samples = n;
        self
    }

    /// Strict-order mode (§6): disables classification and delivers in
    /// sampler order, as PyTorch's DataLoader does: each fast step fills
    /// one whole batch of consecutive tickets, and batches leave in claim
    /// order. A timeout policy other than [`TimeoutPolicy::Disabled`] set
    /// after this is a configuration error. A quarantined sample leaves
    /// its batch one short, and a run resumed with
    /// [`resume_from`](Self::resume_from) claims the checkpoint's
    /// undelivered tickets in sampler order.
    pub fn order_preserving(mut self, yes: bool) -> Self {
        self.cfg.order_preserving = yes;
        if yes {
            self.cfg.timeout_policy = TimeoutPolicy::Disabled;
        }
        self
    }

    /// Configures per-sample lifecycle tracing (see [`TraceConfig`]).
    /// Disabled by default; [`TraceConfig::on`] records every lifecycle
    /// event into per-worker lock-free rings, folds them into the
    /// stage-latency breakdown of [`LoaderStats::latency`], and retains
    /// raw events for [`MinatoLoader::export_trace`].
    pub fn trace(mut self, t: TraceConfig) -> Self {
        self.cfg.trace = t;
        self
    }

    /// Resumes a run from `ckpt` (produced by
    /// [`MinatoLoader::checkpoint`]): the loader replays the original
    /// seeded ticket stream minus the seqs the checkpoint records as
    /// delivered, seeds the resumed run's delivery log with them, and
    /// restores the balancer estimator. The sampler parameters
    /// (`epochs`, `shuffle`, `seed`) come from the checkpoint,
    /// overriding earlier builder calls. A seq counts as delivered once
    /// `next_batch` recorded it before returning; every other seq —
    /// in flight, queued but never popped, or quarantined when the
    /// checkpoint was taken — is re-run, so delivery is exactly-once
    /// across the kill.
    pub fn resume_from(mut self, ckpt: LoaderCheckpoint) -> Self {
        self.cfg.epochs = ckpt.epochs as usize;
        self.cfg.shuffle = ckpt.shuffle;
        self.cfg.seed = ckpt.seed;
        self.resume = Some(ckpt);
        self
    }

    /// Installs a fault injector consulted once per sample execution at
    /// the fast and slow sites — the chaos-testing hook of
    /// [`crate::fault`]. Injected panics and poisoned samples are
    /// quarantined on that first failure and counted in
    /// [`LoaderStats::faults`].
    pub fn fault_injector(mut self, inj: Arc<dyn FaultInjector>) -> Self {
        self.injector = Some(inj);
        self
    }

    /// Enables the sample buffer pool with a total byte budget
    /// (0 = disabled, the default). The pipeline runs in place
    /// ([`crate::transform::Transform::apply_mut`]) either way; with the
    /// pool on, shape-changing stages draw their output buffers from it
    /// instead of the allocator, and delivered batches return their
    /// samples' buffers on drop — the zero-allocation hot path of
    /// [`crate::pool`]. Requires the sample type to implement
    /// [`Reclaim`].
    pub fn pool_budget_bytes(mut self, n: u64) -> Self
    where
        D::Sample: Reclaim,
    {
        if n == 0 {
            self.pool_set = None;
            self.recycler = None;
        } else {
            let pools = Arc::new(PoolSet::new(n));
            self.recycler = Some(Arc::new(PoolRecycler::new(Arc::clone(&pools))));
            self.pool_set = Some(pools);
        }
        self
    }

    /// Uses an externally constructed (possibly shared) [`PoolSet`]
    /// instead of building one from
    /// [`pool_budget_bytes`](MinatoLoaderBuilder::pool_budget_bytes) —
    /// e.g. one pool serving several loaders, or custom size-class
    /// geometry via [`PoolSet::with_configs`].
    pub fn pool(mut self, pools: Arc<PoolSet>) -> Self
    where
        D::Sample: Reclaim,
    {
        self.recycler = Some(Arc::new(PoolRecycler::new(Arc::clone(&pools))));
        self.pool_set = Some(pools);
        self
    }

    fn ensure_cache_factory(&mut self)
    where
        D::Sample: Clone + Sync,
    {
        if self.cache_factory.is_none() {
            self.cache_factory = Some(Box::new(|cfg, weigher| {
                Arc::new(ClonedSampleCache::with_weigher(
                    CacheConfig {
                        budget_bytes: cfg.cache_budget_bytes,
                        shards: CACHE_SHARDS,
                        policy: cfg.cache_policy,
                    },
                    weigher,
                ))
            }));
        }
    }

    /// Enables the cross-epoch sample cache with a total byte budget
    /// (0 = disabled, the default). Preprocessed outputs are memoized by
    /// dataset index; on later epochs cached samples are delivered on
    /// the fast path without re-running the pipeline. Requires
    /// cloneable samples.
    ///
    /// Note: cached epochs replay the pipeline *outputs* of the first
    /// epoch, so stochastic augmentations freeze — see
    /// [`crate::cache`] for the trade-off.
    pub fn cache_budget_bytes(mut self, n: u64) -> Self
    where
        D::Sample: Clone + Sync,
    {
        self.cfg.cache_budget_bytes = n;
        self.ensure_cache_factory();
        self
    }

    /// Sample-cache eviction policy (default:
    /// [`EvictionPolicy::CostAware`], which evicts the cheapest-to-
    /// reproduce entries first so slow samples are the last to go).
    pub fn cache_policy(mut self, p: EvictionPolicy) -> Self
    where
        D::Sample: Clone + Sync,
    {
        self.cfg.cache_policy = p;
        self.ensure_cache_factory();
        self
    }

    /// Per-sample memory estimate used for the cache's byte budget.
    /// Without one, an entry weighs
    /// `max(size_hint_bytes, size_of::<Sample>(), 1)` — samples with
    /// heap payloads should supply a weigher that counts them.
    pub fn cache_weigher(mut self, f: impl Fn(&D::Sample) -> u64 + Send + Sync + 'static) -> Self
    where
        D::Sample: Clone + Sync,
    {
        self.cache_weigher = Some(Arc::new(f));
        self.ensure_cache_factory();
        self
    }

    /// Validates the configuration and starts the loader threads.
    pub fn build(self) -> Result<MinatoLoader<D>> {
        let cfg = &self.cfg;
        if cfg.batch_size == 0 {
            return Err(LoaderError::Config("batch_size must be positive".into()));
        }
        if cfg.num_gpus == 0 {
            return Err(LoaderError::Config("num_gpus must be positive".into()));
        }
        if cfg.epochs == 0 {
            return Err(LoaderError::Config("epochs must be positive".into()));
        }
        if cfg.max_workers == 0 {
            return Err(LoaderError::Config("max_workers must be positive".into()));
        }
        if cfg.slow_workers == 0 && !matches!(cfg.timeout_policy, TimeoutPolicy::Disabled) {
            return Err(LoaderError::Config(
                "slow_workers must be positive unless the timeout is disabled".into(),
            ));
        }
        if cfg.order_preserving && !matches!(cfg.timeout_policy, TimeoutPolicy::Disabled) {
            return Err(LoaderError::Config(
                "order_preserving mode classifies nothing: its timeout policy must be Disabled"
                    .into(),
            ));
        }
        if cfg.shuffle && u32::try_from(self.dataset.len()).is_err() {
            return Err(LoaderError::Config(format!(
                "a shuffled loader covers at most u32::MAX samples, not {}",
                self.dataset.len()
            )));
        }
        if cfg.cache_budget_bytes > 0 && cfg.cache_budget_bytes < CACHE_SHARDS as u64 {
            return Err(LoaderError::Config(format!(
                "cache_budget_bytes must be at least {CACHE_SHARDS} (each cache shard \
                 needs a non-zero budget slice)"
            )));
        }
        if let Some(ck) = &self.resume {
            if ck.version != CHECKPOINT_VERSION {
                return Err(LoaderError::Checkpoint(format!(
                    "checkpoint version {} unsupported (expected {CHECKPOINT_VERSION})",
                    ck.version
                )));
            }
            if ck.dataset_len != self.dataset.len() as u64 {
                return Err(LoaderError::Checkpoint(format!(
                    "checkpoint was taken over {} samples but the dataset has {}",
                    ck.dataset_len,
                    self.dataset.len()
                )));
            }
            let (total, above) = (ck.total_tickets(), &ck.delivered_above);
            if ck.watermark > total || above.iter().any(|&s| s >= total) {
                return Err(LoaderError::Checkpoint(
                    "checkpoint records deliveries beyond the run's ticket range".into(),
                ));
            }
            if above.first().is_some_and(|&s| s < ck.watermark)
                || above.windows(2).any(|w| w[0] >= w[1])
            {
                return Err(LoaderError::Checkpoint(
                    "checkpoint's seqs above the watermark are not strictly ascending from it"
                        .into(),
                ));
            }
        }
        let cache = if self.cfg.cache_budget_bytes > 0 {
            self.cache_factory
                .map(|make| make(&self.cfg, self.cache_weigher))
        } else {
            None
        };
        MinatoLoader::start(LoaderParts {
            dataset: self.dataset,
            pipeline: self.pipeline,
            cfg: self.cfg,
            cache,
            pools: self.pool_set,
            recycler: self.recycler,
            resume: self.resume,
            injector: self.injector,
        })
    }
}

/// Everything the builder hands to [`MinatoLoader::start`] once the
/// configuration has been validated and deferred pieces (the cache)
/// constructed.
struct LoaderParts<D: Dataset> {
    dataset: D,
    pipeline: Pipeline<D::Sample>,
    cfg: LoaderConfig,
    cache: Option<Arc<dyn SampleCache<D::Sample>>>,
    pools: Option<Arc<PoolSet>>,
    recycler: Option<Arc<dyn SampleRecycler<D::Sample>>>,
    resume: Option<LoaderCheckpoint>,
    injector: Option<Arc<dyn FaultInjector>>,
}

/// The MinatoLoader runtime handle.
///
/// Iterate with [`MinatoLoader::iter`] (single GPU) or
/// [`MinatoLoader::gpu_iter`] (one consumer per GPU, all popping the one
/// batch queue: a batch goes to whichever GPU asks first, and no GPU is
/// promised an equal share). Dropping the loader shuts
/// the pipeline down and joins every worker thread.
pub struct MinatoLoader<D: Dataset> {
    rt: Arc<Runtime<D>>,
    executor: Executor,
    /// Event collector of the lifecycle tracer; `Some` iff tracing is
    /// enabled. Besides `stats()` and `export_trace()`, `next_batch`
    /// drains the rings into it once per [`REFRESH_INTERVAL`], so they
    /// cannot silently overflow between `stats()` calls.
    trace_collect: Option<Mutex<Collector>>,
    /// When `next_batch` next drains the trace rings, in ns since the
    /// runtime started ([`take_due`]).
    drain_due_ns: AtomicU64,
}

impl<D: Dataset> MinatoLoader<D> {
    /// Starts building a loader over `dataset` with `pipeline` applied to
    /// every sample.
    pub fn builder(dataset: D, pipeline: Pipeline<D::Sample>) -> MinatoLoaderBuilder<D> {
        MinatoLoaderBuilder::new(dataset, pipeline)
    }

    fn start(parts: LoaderParts<D>) -> Result<Self> {
        let LoaderParts {
            dataset,
            pipeline,
            cfg,
            cache,
            pools,
            recycler,
            resume,
            injector,
        } = parts;
        // Resuming replays the original seeded ticket stream, minus the
        // seqs the checkpoint records as already delivered.
        let base_sampler = EpochSampler::new(dataset.len(), cfg.epochs, cfg.shuffle, cfg.seed);
        let sampler: Arc<dyn Sampler> = match &resume {
            Some(ck) => Arc::new(ResumeSampler::new(base_sampler, ck)),
            None => Arc::new(base_sampler),
        };
        // No batch thread: the thread that finished a sample (or, in
        // order-preserving mode, a batch) puts it into its batch.
        let threads = cfg.max_workers + cfg.slow_threads();
        let exec = ExecHandle::new(ExecConfig::fixed(threads));
        // The open batch carries the recycler, and the delivery log
        // starts from the checkpoint's.
        let log = match &resume {
            Some(ck) => DeliveryLog::seeded(ck.watermark, ck.delivered_above.iter().copied()),
            None => DeliveryLog::new(),
        };
        let mut rt = Runtime::new(
            cfg.clone(),
            dataset,
            pipeline,
            sampler,
            exec.clone(),
            recycler,
            log,
        );
        rt.cache = cache;
        rt.injector = injector;
        if let Some(ck) = &resume {
            // Reinstate the learned timeout and estimator counters so
            // the resumed run skips the optimistic warm-up phase.
            rt.balancer.restore(
                ck.balancer.timeout_ns,
                ck.balancer.completions,
                ck.balancer.flagged_slow,
            );
        }
        rt.pools = pools;
        let trace_collect = if cfg.trace.enabled {
            // Every pool worker plus per-GPU consumers, and slack for
            // other threads that record (a caller's own).
            let workers = exec.config().threads + cfg.num_gpus + 3;
            let t = Arc::new(Tracer::new(rt.started_at, workers, RING_CAPACITY));
            // Pool acquisitions report hit/miss through the first
            // observer installed on the set (first-setter-wins on shared
            // pools).
            if let Some(p) = &rt.pools {
                p.set_observer(Arc::new(TracerPoolObserver(Arc::clone(&t))));
            }
            rt.stage_obs = Some(Arc::new(TracerStageObserver(Arc::clone(&t))));
            rt.tracer = Some(t);
            let stage_names: Vec<String> = rt
                .pipeline
                .steps()
                .iter()
                .map(|s| s.name().to_string())
                .collect();
            let queue_names: Vec<String> = vec!["temp_q".into(), "batch_q".into()];
            Some(Mutex::new(Collector::new(
                stage_names,
                queue_names,
                cfg.trace.export_events,
            )))
        } else {
            None
        };
        let rt = Arc::new(rt);

        // One role on every pool thread: each step claims or resumes
        // under the claim share.
        exec.register(vec![RoleSpec {
            name: "worker".into(),
            step: Arc::new(WorkerStep::new(Arc::clone(&rt))),
            budget: threads,
            threads,
            max_concurrency: None,
        }]);
        let executor = exec
            .spawn()
            .map_err(|e| LoaderError::Config(format!("spawn failed: {e}")))?;
        Ok(MinatoLoader {
            rt,
            executor,
            trace_collect,
            drain_due_ns: AtomicU64::new(REFRESH_INTERVAL.as_nanos() as u64),
        })
    }

    /// Iterator over the batches GPU 0 pops.
    pub fn iter(&self) -> BatchIter<'_, D> {
        self.gpu_iter(0)
    }

    /// Iterator over the batches GPU `gpu` pops.
    ///
    /// # Panics
    ///
    /// Panics if `gpu >= num_gpus`.
    pub fn gpu_iter(&self, gpu: usize) -> BatchIter<'_, D> {
        assert!(gpu < self.rt.cfg.num_gpus, "gpu index out of range");
        BatchIter { loader: self, gpu }
    }

    /// Pops the next batch ready for any GPU on behalf of `gpu`, blocking;
    /// `None` once training data is exhausted, and at once for
    /// `gpu >= num_gpus`.
    pub fn next_batch(&self, gpu: usize) -> Option<Batch<D::Sample>> {
        if gpu >= self.rt.cfg.num_gpus {
            return None;
        }
        let batch = self.rt.batch_q.pop()?;
        // Seqs and their end-to-end latency are recorded at the pop, not
        // the enqueue, under one lock acquisition per batch: a batch
        // sitting in a queue when the process dies was never delivered,
        // so resume must re-run it.
        let now_ns = self.rt.now_ns();
        self.rt.delivered.lock().record(&batch.meta, now_ns);
        if let (Some(tracer), Some(collect)) = (&self.rt.tracer, &self.trace_collect) {
            if let Some(m) = batch.meta.first() {
                self.rt
                    .trace(EventKind::QueuePop, m.epoch, m.seq, Q_BATCH, 0);
            }
            for m in &batch.meta {
                self.rt.trace(
                    EventKind::Delivered,
                    m.epoch,
                    m.seq,
                    gpu as u32,
                    now_ns.saturating_sub(m.issued_ns),
                );
            }
            // Under the collector's lock, so each ring keeps one reader.
            if take_due(&self.drain_due_ns, now_ns) {
                collect.lock().drain(tracer);
            }
        }
        Some(batch)
    }

    /// Renders everything the lifecycle tracer retained so far as a
    /// Chrome/Perfetto `trace.json` string (open it at
    /// <https://ui.perfetto.dev>). `None` when tracing is disabled;
    /// empty `traceEvents` when enabled with `export_events == 0`
    /// (histograms-only mode).
    pub fn export_trace(&self) -> Option<String> {
        let collect = self.trace_collect.as_ref()?;
        let mut c = collect.lock();
        if let Some(t) = &self.rt.tracer {
            c.drain(t);
        }
        Some(c.export_chrome_trace())
    }

    /// Snapshots loader progress for
    /// [`MinatoLoaderBuilder::resume_from`]. Every loader keeps the
    /// delivery log, so this works on any loader at any time.
    ///
    /// The snapshot is consistent at any instant, so nothing pauses: it
    /// copies the delivery log under its lock and reads the balancer
    /// estimator. A seq is delivered once [`next_batch`](Self::next_batch)
    /// recorded it under that lock before returning; samples still in
    /// flight and batches queued but not yet popped are not, so a resumed
    /// run re-runs them and delivery stays exactly-once across
    /// kill/restart.
    pub fn checkpoint(&self) -> Result<LoaderCheckpoint> {
        let rt = &self.rt;
        let (watermark, delivered_above) = {
            let log = &rt.delivered.lock().log;
            (log.watermark(), log.above())
        };
        Ok(LoaderCheckpoint {
            version: CHECKPOINT_VERSION,
            dataset_len: rt.dataset.len() as u64,
            epochs: rt.cfg.epochs as u64,
            shuffle: rt.cfg.shuffle,
            seed: rt.cfg.seed,
            watermark,
            delivered_above,
            balancer: BalancerCheckpoint {
                timeout_ns: rt
                    .balancer
                    .current_timeout()
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0),
                completions: rt.balancer.completions(),
                flagged_slow: rt.balancer.flagged_slow(),
            },
        })
    }

    /// The most recent per-sample errors (dataset, transform, poison,
    /// caught panics), oldest first — a bounded ring of the last 16, so
    /// a long fault burst cannot grow memory without bound.
    pub fn recent_errors(&self) -> Vec<LoaderError> {
        self.rt.recent_errors.lock().iter().cloned().collect()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> LoaderStats {
        let rt = &self.rt;
        let done = rt.balancer.completions();
        LoaderStats {
            samples_done: done,
            slow_flagged: rt.balancer.flagged_slow(),
            slow_fraction: rt.balancer.slow_fraction(),
            batches_done: rt.batches_out.get(),
            bytes_done: rt.bytes_out.get(),
            errors: rt.faults.quarantined.get(),
            faults: rt.faults.snapshot(),
            temp_queue_len: rt.temp_q.len(),
            batch_queue_len: rt.batch_q.len(),
            queue_lock_acquisitions: rt.temp_q.lock_acquisitions() + rt.batch_q.lock_acquisitions(),
            queue_cas_retries: 0,
            cache: rt.cache.as_ref().map(|c| c.stats()),
            pool: rt.pools.as_ref().map(|p| p.stats()),
            exec: Some(rt.exec.stats()),
            active_workers: rt.cfg.max_workers,
            timeout: rt.balancer.current_timeout(),
            preprocess_ms: rt.balancer.profiler().summary_ms(),
            delivery_ms: rt.delivered.lock().latency_ms.summary(),
            trace: rt.tracer.as_ref().map(|t| t.stats()),
            latency: self.trace_collect.as_ref().map(|collect| {
                let mut c = collect.lock();
                if let Some(t) = &rt.tracer {
                    c.drain(t);
                }
                c.breakdown()
            }),
        }
    }

    /// The loader's series: only the inert [`MonitorTrace::workers`].
    pub fn trace(&self) -> MonitorTrace {
        MonitorTrace::new()
    }

    /// First error encountered (the failing sample was skipped and
    /// training continued past it).
    pub fn first_error(&self) -> Option<LoaderError> {
        self.rt.first_error.lock().clone()
    }

    /// Requests shutdown and joins all worker threads. Idempotent; also
    /// called by `Drop`.
    pub fn shutdown(&mut self) {
        self.rt.initiate_shutdown();
        self.executor.join();
    }
}

impl<D: Dataset> Drop for MinatoLoader<D> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Blocking batch iterator for one GPU endpoint.
pub struct BatchIter<'a, D: Dataset> {
    loader: &'a MinatoLoader<D>,
    gpu: usize,
}

impl<D: Dataset> Iterator for BatchIter<'_, D> {
    type Item = Batch<D::Sample>;

    fn next(&mut self) -> Option<Self::Item> {
        self.loader.next_batch(self.gpu)
    }
}

/// Bridges buffer-pool acquire outcomes into trace events. Pool
/// acquisitions have no sample identity (scratch is shared), so events
/// carry zero epoch/seq.
#[derive(Debug)]
struct TracerPoolObserver(Arc<Tracer>);

impl AcquireObserver for TracerPoolObserver {
    fn on_acquire(&self, hit: bool) {
        let kind = if hit {
            EventKind::PoolHit
        } else {
            EventKind::PoolMiss
        };
        self.0.record(kind, 0, 0, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::VecDataset;
    use crate::transform::{fn_transform, Outcome, Transform, TransformCtx};
    use std::collections::HashMap;
    use std::time::Instant;

    fn quick_loader(n: usize, batch: usize) -> MinatoLoader<VecDataset<u32>> {
        let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
        let p = Pipeline::new(vec![fn_transform("id", |x: u32| Ok(x))]);
        MinatoLoader::builder(ds, p)
            .batch_size(batch)
            .max_workers(2)
            .slow_workers(1)
            .build()
            .expect("loader builds")
    }

    #[test]
    fn builder_rejects_bad_config() {
        let ds = VecDataset::new(vec![1u32]);
        let p: Pipeline<u32> = Pipeline::identity();
        assert!(matches!(
            MinatoLoader::builder(ds.clone(), p.clone())
                .batch_size(0)
                .build(),
            Err(LoaderError::Config(_))
        ));
        assert!(matches!(
            MinatoLoader::builder(ds.clone(), p.clone())
                .num_gpus(0)
                .build(),
            Err(LoaderError::Config(_))
        ));
        assert!(matches!(
            MinatoLoader::builder(ds.clone(), p.clone())
                .max_workers(0)
                .build(),
            Err(LoaderError::Config(_))
        ));
        assert!(matches!(
            MinatoLoader::builder(ds, p).epochs(0).build(),
            Err(LoaderError::Config(_))
        ));
    }

    /// Order-preserving mode never classifies: a cutoff set after it is
    /// rejected instead of quietly turning classification back on, and
    /// one set before it is overridden.
    #[test]
    fn builder_rejects_a_timeout_policy_in_order_preserving_mode() {
        let ds = VecDataset::new(vec![1u32, 2, 3]);
        let p: Pipeline<u32> = Pipeline::identity();
        let fixed = TimeoutPolicy::Fixed(Duration::from_millis(1));
        for policy in [fixed, TimeoutPolicy::paper_default()] {
            assert!(matches!(
                MinatoLoader::builder(ds.clone(), p.clone())
                    .order_preserving(true)
                    .timeout_policy(policy)
                    .build(),
                Err(LoaderError::Config(_))
            ));
        }
        let loader = MinatoLoader::builder(ds, p)
            .timeout_policy(fixed)
            .order_preserving(true)
            .build()
            .expect("order_preserving resets the policy");
        assert_eq!(loader.iter().map(|b| b.len()).sum::<usize>(), 3);
    }

    /// A shuffled sampler keeps a 32-bit slot per index, so a longer
    /// dataset is refused before any thread starts; an unshuffled one
    /// stores nothing per index and builds.
    #[test]
    fn builder_rejects_a_shuffled_dataset_longer_than_u32_max() {
        let len = u32::MAX as usize + 1;
        let ds = crate::dataset::FnDataset::new(len, |i| Ok(i as u32));
        let p: Pipeline<u32> = Pipeline::identity();
        match MinatoLoader::builder(ds, p.clone()).shuffle(true).build() {
            Err(LoaderError::Config(msg)) => assert!(msg.contains("u32::MAX"), "{msg}"),
            Err(err) => panic!("wrong error: {err:?}"),
            Ok(_) => panic!("a shuffled loader over {len} samples must not build"),
        }
        let ds = crate::dataset::FnDataset::new(len, |i| Ok(i as u32));
        let loader = MinatoLoader::builder(ds, p)
            .shuffle(false)
            .max_workers(1)
            .build()
            .expect("an unshuffled loader has no per-index state");
        assert!(!loader.next_batch(0).expect("a first batch").is_empty());
    }

    #[test]
    fn builder_rejects_degenerate_cache_config() {
        let ds = VecDataset::new(vec![1u32]);
        let p: Pipeline<u32> = Pipeline::identity();
        // A budget smaller than the shard count gives every shard a
        // zero-byte slice: nothing could ever be admitted.
        assert!(matches!(
            MinatoLoader::builder(ds.clone(), p.clone())
                .cache_budget_bytes(4)
                .build(),
            Err(LoaderError::Config(_))
        ));
        // Setting only non-budget cache knobs leaves the cache disabled.
        let loader = MinatoLoader::builder(ds, p)
            .cache_policy(EvictionPolicy::Lru)
            .max_workers(1)
            .build()
            .expect("cache disabled: policy knob alone must not reject");
        assert!(loader.stats().cache.is_none());
    }

    #[test]
    fn delivers_every_sample_exactly_once() {
        let loader = quick_loader(100, 7);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        let mut batches = 0;
        for b in loader.iter() {
            batches += 1;
            assert!(b.len() <= 7);
            for s in &b.samples {
                *counts.entry(*s).or_default() += 1;
            }
        }
        assert_eq!(batches, 100usize.div_ceil(7));
        assert_eq!(counts.len(), 100);
        assert!(counts.values().all(|&c| c == 1));
    }

    #[test]
    fn transform_is_applied() {
        let ds = VecDataset::new(vec![1u32, 2, 3, 4]);
        let p = Pipeline::new(vec![fn_transform("x10", |x: u32| Ok(x * 10))]);
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(4)
            .max_workers(1)
            .shuffle(false)
            .build()
            .unwrap();
        let mut all: Vec<u32> = loader.iter().flat_map(|b| b.into_samples()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![10, 20, 30, 40]);
    }

    #[test]
    fn multiple_epochs_multiply_delivery() {
        let ds = VecDataset::new((0..10u32).collect::<Vec<_>>());
        let p: Pipeline<u32> = Pipeline::identity();
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(5)
            .epochs(3)
            .max_workers(2)
            .build()
            .unwrap();
        let total: usize = loader.iter().map(|b| b.len()).sum();
        assert_eq!(total, 30);
    }

    /// Transform that burns ~`cost_ms` per sample, cooperating with the
    /// deadline, where marked samples are much slower.
    struct MarkedSlow {
        slow_every: u32,
        fast_ms: u64,
        slow_ms: u64,
    }

    impl Transform<u32> for MarkedSlow {
        fn name(&self) -> &str {
            "marked-slow"
        }

        fn apply(&self, input: u32, ctx: &TransformCtx) -> crate::error::Result<Outcome<u32>> {
            let cost = if input.is_multiple_of(self.slow_every) {
                Duration::from_millis(self.slow_ms)
            } else {
                Duration::from_millis(self.fast_ms)
            };
            let start = Instant::now();
            while start.elapsed() < cost {
                if ctx.expired() {
                    return Ok(Outcome::Interrupted(input));
                }
                std::thread::yield_now();
            }
            Ok(Outcome::Done(input))
        }
    }

    #[test]
    fn slow_samples_are_flagged_and_still_delivered() {
        let ds = VecDataset::new((0..60u32).collect::<Vec<_>>());
        let p = Pipeline::new(vec![Arc::new(MarkedSlow {
            slow_every: 5,
            fast_ms: 1,
            slow_ms: 40,
        }) as Arc<dyn Transform<u32>>]);
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(6)
            .max_workers(4)
            .slow_workers(2)
            .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(10)))
            .build()
            .unwrap();
        let mut delivered = 0;
        let mut slow_total = 0;
        for b in loader.iter() {
            delivered += b.len();
            slow_total += b.slow_count();
        }
        assert_eq!(delivered, 60, "slow samples must not be lost");
        // Every 5th sample (12 of 60) is slow; allow slack for scheduling.
        assert!(slow_total >= 8, "expected ≥8 slow flags, got {slow_total}");
        let stats = loader.stats();
        assert_eq!(stats.samples_done, 60);
        assert!(stats.slow_flagged >= 8);
    }

    #[test]
    fn a_slow_load_alone_does_not_flag_a_sample() {
        // The cutoff is learned from pipeline time, so the deadline must
        // time the pipeline only: a load of twice the timeout in front
        // of a near-free pipeline flags nothing. (When the deadline also
        // covered the load, every sample here was deferred at the first
        // between-step check.)
        let ds = crate::dataset::FnDataset::new(6, |i| {
            std::thread::sleep(Duration::from_millis(40));
            Ok(i as u32)
        });
        let p = Pipeline::new(vec![
            fn_transform("id", |x: u32| Ok(x)),
            fn_transform("id", |x: u32| Ok(x)),
        ]);
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(2)
            .max_workers(2)
            .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(20)))
            .build()
            .unwrap();
        let metas: Vec<_> = loader.iter().flat_map(|b| b.into_parts().1).collect();
        assert_eq!(metas.len(), 6);
        assert!(metas.iter().all(|m| !m.slow), "{metas:?}");
        assert_eq!(loader.stats().slow_flagged, 0);
    }

    #[test]
    fn order_preserving_mode_keeps_sampler_order() {
        let ds = VecDataset::new((0..40u32).collect::<Vec<_>>());
        let p: Pipeline<u32> = Pipeline::identity();
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(4)
            .shuffle(false)
            .order_preserving(true)
            .max_workers(4)
            .build()
            .unwrap();
        let all: Vec<u32> = loader.iter().flat_map(|b| b.into_samples()).collect();
        assert_eq!(all, (0..40).collect::<Vec<u32>>());
    }

    #[test]
    fn multi_gpu_split_covers_dataset() {
        let ds = VecDataset::new((0..64u32).collect::<Vec<_>>());
        let p: Pipeline<u32> = Pipeline::identity();
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(4)
            .num_gpus(2)
            .max_workers(2)
            .build()
            .unwrap();
        let loader = Arc::new(loader);
        let l2 = Arc::clone(&loader);
        let h = std::thread::spawn(move || {
            let mut v = Vec::new();
            while let Some(b) = l2.next_batch(1) {
                v.extend(b.into_samples());
            }
            v
        });
        let mut got: Vec<u32> = Vec::new();
        while let Some(b) = loader.next_batch(0) {
            got.extend(b.into_samples());
        }
        got.extend(h.join().unwrap());
        got.sort_unstable();
        assert_eq!(got, (0..64).collect::<Vec<u32>>());
    }

    /// Regression test for GPU-feed starvation: GPU 0's consumer never
    /// pops. Every batch must reach GPU 1 and the run must terminate: the
    /// batch queue is shared, so no batch waits for the stalled GPU.
    #[test]
    fn stalled_gpu_does_not_starve_the_others() {
        let ds = VecDataset::new((0..64u32).collect::<Vec<_>>());
        let p: Pipeline<u32> = Pipeline::identity();
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(4)
            .num_gpus(2)
            .max_workers(2)
            .build()
            .unwrap();
        let mut gpu1_samples = 0;
        while let Some(b) = loader.next_batch(1) {
            gpu1_samples += b.len();
        }
        assert_eq!(gpu1_samples, 64, "a batch was stranded");
        assert_eq!(loader.stats().batches_done, 16, "emission stalled");
    }

    #[test]
    fn errors_are_skipped_and_counted() {
        let ds = crate::dataset::FnDataset::new(20, |i| {
            if i % 4 == 0 {
                Err(LoaderError::Dataset {
                    index: i,
                    msg: "synthetic".into(),
                })
            } else {
                Ok(i as u32)
            }
        });
        let p: Pipeline<u32> = Pipeline::identity();
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(5)
            .max_workers(2)
            .build()
            .unwrap();
        let delivered: usize = loader.iter().map(|b| b.len()).sum();
        assert_eq!(delivered, 15);
        assert_eq!(loader.stats().errors, 5);
        assert!(loader.first_error().is_some());
    }

    #[test]
    #[allow(clippy::drop_non_drop)] // The drops ARE the behavior under test.
    fn drop_mid_iteration_is_clean() {
        let loader = quick_loader(500, 5);
        let mut it = loader.iter();
        let _ = it.next();
        let _ = it.next();
        drop(it);
        drop(loader); // Must not hang or panic.
    }

    /// After warm-up no completion recomputes the adaptive cutoff: the
    /// claims' tick is its only refresh. Samples 0–7 end warm-up at ~0,
    /// so the cutoff it publishes defers every later sample after its
    /// 1 ms first step; only a tick can lift it to their true time. The
    /// one fast worker naps at least 192 ms, and any claim that ends past
    /// the first [`REFRESH_INTERVAL`] lifts it; a slower machine only
    /// lengthens the run.
    #[test]
    fn claims_keep_the_cutoff_live() {
        let ds = VecDataset::new((0..200u32).collect::<Vec<_>>());
        let nap = fn_transform("nap", |x: u32| {
            if x >= 8 {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(x)
        });
        let p = Pipeline::new(vec![nap, fn_transform("id", |x: u32| Ok(x))]);
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(8)
            .shuffle(false)
            .max_workers(1)
            .slow_workers(1)
            .warmup_samples(8)
            .build()
            .unwrap();
        assert_eq!(loader.iter().map(|b| b.len()).sum::<usize>(), 200);
        let timeout = loader.stats().timeout.expect("warmed up");
        assert!(
            timeout >= Duration::from_micros(500),
            "the cutoff never left its warm-up value: {timeout:?}"
        );
    }

    /// Dropping a loader joins its pool at once, whatever its threads
    /// wait on: a consumed loader's have run out of work, and a barely
    /// started one's wait for room in the full batch queue.
    #[test]
    fn drop_joins_the_pool_promptly() {
        let bound = Duration::from_secs(1);
        for consume in [true, false] {
            let ds = VecDataset::new((0..400u32).collect::<Vec<_>>());
            let loader = MinatoLoader::builder(ds, Pipeline::identity())
                .batch_size(5)
                .max_workers(2)
                .build()
                .unwrap();
            if consume {
                assert_eq!(loader.iter().map(|b| b.len()).sum::<usize>(), 400);
            } else {
                assert!(loader.next_batch(0).is_some());
            }
            let t0 = Instant::now();
            drop(loader);
            let took = t0.elapsed();
            assert!(took <= bound, "drop took {took:?} (consumed: {consume})");
        }
    }

    #[test]
    fn stats_snapshot_consistent_after_drain() {
        let loader = quick_loader(50, 5);
        let n: usize = loader.iter().map(|b| b.len()).sum();
        assert_eq!(n, 50);
        let s = loader.stats();
        assert_eq!(s.samples_done, 50);
        assert_eq!(s.batches_done, 10);
        assert_eq!(s.errors, 0);
        assert_eq!(s.temp_queue_len, 0);
    }
}
