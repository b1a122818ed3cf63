//! The `MinatoLoader` public API.
//!
//! A drop-in data loader in the shape of PyTorch's `DataLoader`: construct
//! with a dataset + transform pipeline, iterate batches. Internally it runs
//! the paper's full architecture — sample-aware load balancer (§4.2),
//! fast/slow/temp/batch queues (Figure 5), background completion of slow
//! samples, and the adaptive worker scheduler (§4.3).
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
//!     .initial_workers(2)
//!     .max_workers(4)
//!     .build()
//!     .unwrap();
//! let total: usize = loader.iter().map(|b| b.len()).sum();
//! assert_eq!(total, 64);
//! ```

use crate::balancer::TimeoutPolicy;
use crate::batch::{Batch, TransferHook};
use crate::cache::{CacheConfig, ClonedSampleCache, EvictionPolicy, SampleCache, SampleWeigher};
use crate::checkpoint::{
    BalancerCheckpoint, CacheSummary, DeliveryLog, LoaderCheckpoint, ResumeSampler,
    CHECKPOINT_VERSION,
};
use crate::dataset::{Dataset, EpochSampler, Sampler};
use crate::error::{LoaderError, Result};
use crate::fault::FaultInjector;
use crate::pool::AcquireObserver;
use crate::pool::{PoolRecycler, PoolSet, Reclaim, SampleRecycler};
use crate::scheduler::{RoleBudgets, SchedulerConfig, WorkerScheduler};
use crate::stats::{LoaderStats, MonitorTrace};
use crate::transform::Pipeline;
use crate::worker::{
    BatchStep, ExecRoles, FastStep, Runtime, SlowStep, TracerStageObserver, Q_BATCH0,
};
use minato_exec::{ExecConfig, ExecHandle, Executor, RoleSpec};
use minato_trace::{Collector, EventKind, TraceConfig, Tracer, RING_CAPACITY};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lock-striped shards of the sample cache; each enforces
/// `cache_budget_bytes / CACHE_SHARDS` independently.
const CACHE_SHARDS: usize = 8;

/// Fully resolved loader configuration (see [`MinatoLoaderBuilder`]).
#[derive(Debug, Clone)]
pub struct LoaderConfig {
    /// Samples per emitted batch.
    pub batch_size: usize,
    /// Number of consumer endpoints (one batch queue per GPU).
    pub num_gpus: usize,
    /// Epochs to iterate.
    pub epochs: usize,
    /// Shuffle indices each epoch.
    pub shuffle: bool,
    /// RNG seed for shuffling.
    pub seed: u64,
    /// Workers active at start (paper default: 12 per GPU worker).
    pub initial_workers: usize,
    /// Hard cap on preprocessing workers (paper: CPU core count).
    pub max_workers: usize,
    /// Background slow-task workers.
    pub slow_workers: usize,
    /// Batch-construction workers.
    pub batch_workers: usize,
    /// Capacity of fast/slow/temp queues. Fixed at the paper's 100
    /// (§5.1); no builder method sets it.
    pub queue_capacity: usize,
    /// Capacity of each per-GPU batch queue. Fixed at the paper's
    /// prefetch factor of 2 (§5.1); no builder method sets it.
    pub prefetch_factor: usize,
    /// Balancer timeout policy.
    pub timeout_policy: TimeoutPolicy,
    /// Warm-up samples before the adaptive timeout activates.
    pub warmup_samples: u64,
    /// Enable the adaptive worker scheduler (Formulas 1–2).
    pub adaptive_workers: bool,
    /// Scheduler tuning (gains, clip, monitor interval).
    pub scheduler: SchedulerConfig,
    /// Upper bound on the pipeline's internal waits: a starved batch
    /// worker waiting for samples, a producer waiting for space in a
    /// full fast/slow/temp queue, batch delivery waiting for a
    /// batch-queue slot, an idle pool worker. Each is a condvar wait
    /// that ends as soon as the awaited state changes; when it expires
    /// the waiter re-checks what else it could do, e.g. helping the
    /// next stage. One wait is still a plain sleep of this length: a
    /// producer facing a full queue in `order_preserving` mode, whose
    /// lane frees one slot per pop. Fixed at 1 ms (the paper polls
    /// every 10 ms); no builder method sets it.
    ///
    /// It is also the longest a fast worker withholds a finished sample
    /// from the batch stage: once it has spent this long since taking up
    /// the oldest sample in its chunk buffer, it publishes the buffer at
    /// the next sample boundary instead of at the end of the chunk.
    pub starvation_wait: Duration,
    /// Strict sampler-order mode (§6); disables fast/slow classification.
    pub order_preserving: bool,
    /// Byte budget of the cross-epoch sample cache; 0 disables caching
    /// (the default — behavior and stats are then identical to a
    /// cache-less build).
    pub cache_budget_bytes: u64,
    /// Eviction policy of the sample cache.
    pub cache_policy: EvictionPolicy,
    /// Byte budget of the sample buffer pool; 0 disables pooling (the
    /// default — behavior is then byte-identical to a pool-less build:
    /// by-value transform execution, no recycle hook on batches).
    pub pool_budget_bytes: u64,
    /// Track delivered sequence numbers so [`MinatoLoader::checkpoint`]
    /// can snapshot progress (off by default — the delivery log costs
    /// one short lock acquisition per popped batch).
    pub checkpointing: bool,
    /// Per-sample lifecycle tracing (off by default — the loader is
    /// then byte-identical to an untraced build; every record site
    /// compiles down to one skipped branch).
    pub trace: TraceConfig,
}

impl LoaderConfig {
    /// Threads on the slow role. With the timeout disabled (always so in
    /// order-preserving mode) every sample is fast and no slow worker is
    /// budgeted, but one thread stays: its only job then is the close
    /// cascade (closing the slow queue once the never-used temp queue
    /// closes).
    pub(crate) fn slow_threads(&self) -> usize {
        if matches!(self.timeout_policy, TimeoutPolicy::Disabled) {
            1
        } else {
            self.slow_workers.max(1)
        }
    }
}

/// Builder for [`MinatoLoader`]. All knobs default to the paper's
/// configuration (§5.1).
pub struct MinatoLoaderBuilder<D: Dataset> {
    dataset: D,
    pipeline: Pipeline<D::Sample>,
    cfg: LoaderConfig,
    transfer_hook: Option<Arc<dyn TransferHook<D::Sample>>>,
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
            transfer_hook: None,
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
                initial_workers: 12.min(max_workers),
                max_workers,
                slow_workers: 2,
                batch_workers: 1,
                queue_capacity: 100,
                prefetch_factor: 2,
                timeout_policy: TimeoutPolicy::paper_default(),
                warmup_samples: 32,
                adaptive_workers: true,
                scheduler: SchedulerConfig::paper_default(max_workers),
                starvation_wait: Duration::from_millis(1),
                order_preserving: false,
                cache_budget_bytes: 0,
                cache_policy: EvictionPolicy::CostAware,
                pool_budget_bytes: 0,
                checkpointing: false,
                trace: TraceConfig::default(),
            },
        }
    }

    /// Samples per batch.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.cfg.batch_size = n;
        self
    }

    /// Number of GPUs to feed (one batch queue each).
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

    /// Workers active at start.
    pub fn initial_workers(mut self, n: usize) -> Self {
        self.cfg.initial_workers = n;
        self
    }

    /// Hard worker cap (`max_workers` in Formula 1).
    pub fn max_workers(mut self, n: usize) -> Self {
        self.cfg.max_workers = n;
        self
    }

    /// Background slow-task workers.
    pub fn slow_workers(mut self, n: usize) -> Self {
        self.cfg.slow_workers = n;
        self
    }

    /// Batch-construction workers.
    pub fn batch_workers(mut self, n: usize) -> Self {
        self.cfg.batch_workers = n;
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

    /// Enable/disable adaptive worker scaling.
    pub fn adaptive_workers(mut self, yes: bool) -> Self {
        self.cfg.adaptive_workers = yes;
        self
    }

    /// Scheduler tuning parameters.
    pub fn scheduler(mut self, s: SchedulerConfig) -> Self {
        self.cfg.scheduler = s;
        self
    }

    /// Strict-order mode (§6): disables classification, restores sampler
    /// order. A quarantined sample's seq is skipped as soon as it is
    /// reported, and a run resumed with
    /// [`resume_from`](Self::resume_from) continues at the checkpoint's
    /// first undelivered seq.
    pub fn order_preserving(mut self, yes: bool) -> Self {
        self.cfg.order_preserving = yes;
        if yes {
            self.cfg.timeout_policy = TimeoutPolicy::Disabled;
        }
        self
    }

    /// Device-transfer prefetch hook, invoked per batch at enqueue time
    /// (the paper's CUDA-stream prefetch, §4.3).
    pub fn transfer_hook(mut self, hook: Arc<dyn TransferHook<D::Sample>>) -> Self {
        self.transfer_hook = Some(hook);
        self
    }

    /// Enables checkpoint/resume: the loader tracks delivered sequence
    /// numbers so [`MinatoLoader::checkpoint`] can snapshot progress at
    /// a quiescent point. Off by default (the delivery log costs one
    /// short lock acquisition per popped batch).
    pub fn checkpoint(mut self, yes: bool) -> Self {
        self.cfg.checkpointing = yes;
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
    /// delivered, restores the balancer estimator and the scheduler's
    /// role budgets, and implies [`checkpoint`](Self::checkpoint). The
    /// sampler parameters (`epochs`, `shuffle`, `seed`) come from the
    /// checkpoint, overriding earlier builder calls; batches that were
    /// in flight (queued but never popped) when the checkpoint was
    /// taken are re-run, so delivery is exactly-once across the kill.
    pub fn resume_from(mut self, ckpt: LoaderCheckpoint) -> Self {
        self.cfg.epochs = ckpt.epochs as usize;
        self.cfg.shuffle = ckpt.shuffle;
        self.cfg.seed = ckpt.seed;
        self.cfg.checkpointing = true;
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
    /// (0 = disabled, the default). With the pool on, the pipeline
    /// executes in place ([`crate::transform::Transform::apply_mut`]),
    /// shape-changing stages draw output buffers from the pool, and
    /// delivered batches return their samples' buffers on drop — the
    /// zero-allocation hot path of [`crate::pool`]. Requires the sample
    /// type to implement [`Reclaim`].
    pub fn pool_budget_bytes(mut self, n: u64) -> Self
    where
        D::Sample: Reclaim,
    {
        self.cfg.pool_budget_bytes = n;
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
        self.cfg.pool_budget_bytes =
            pools.f32s().config().budget_bytes + pools.u8s().config().budget_bytes;
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
        if cfg.initial_workers == 0 {
            return Err(LoaderError::Config(
                "initial_workers must be positive".into(),
            ));
        }
        if cfg.max_workers < cfg.initial_workers {
            return Err(LoaderError::Config(
                "max_workers must be >= initial_workers".into(),
            ));
        }
        if cfg.slow_workers == 0 && !matches!(cfg.timeout_policy, TimeoutPolicy::Disabled) {
            return Err(LoaderError::Config(
                "slow_workers must be positive unless the timeout is disabled".into(),
            ));
        }
        if cfg.batch_workers == 0 {
            return Err(LoaderError::Config("batch_workers must be positive".into()));
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
            let total = ck.total_tickets();
            if ck.watermark > total || ck.delivered_above.iter().any(|&s| s >= total) {
                return Err(LoaderError::Checkpoint(
                    "checkpoint records deliveries beyond the run's ticket range".into(),
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
            transfer_hook: self.transfer_hook,
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
    transfer_hook: Option<Arc<dyn TransferHook<D::Sample>>>,
    cache: Option<Arc<dyn SampleCache<D::Sample>>>,
    pools: Option<Arc<PoolSet>>,
    recycler: Option<Arc<dyn SampleRecycler<D::Sample>>>,
    resume: Option<LoaderCheckpoint>,
    injector: Option<Arc<dyn FaultInjector>>,
}

/// The MinatoLoader runtime handle.
///
/// Iterate with [`MinatoLoader::iter`] (single GPU) or
/// [`MinatoLoader::gpu_iter`] (per-GPU streams). Dropping the loader shuts
/// the pipeline down and joins every worker thread.
pub struct MinatoLoader<D: Dataset> {
    rt: Arc<Runtime<D>>,
    executor: Executor,
    handles: Vec<JoinHandle<()>>,
    trace: Arc<Mutex<MonitorTrace>>,
    /// Event collector of the lifecycle tracer; `Some` iff tracing is
    /// enabled. Shared with the monitor thread, which drains the rings
    /// each tick so they cannot silently overflow between `stats()`
    /// calls.
    trace_collect: Option<Arc<Mutex<Collector>>>,
    joined: AtomicBool,
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
            mut cfg,
            transfer_hook,
            cache,
            pools,
            recycler,
            resume,
            injector,
        } = parts;
        // The scheduler's pool bounds must describe the threads actually
        // spawned: the builder's `max_workers` is authoritative. (The
        // default SchedulerConfig is sized from `available_parallelism`,
        // which may be smaller than an explicit `max_workers` override.)
        cfg.scheduler.max_workers = cfg.max_workers;
        cfg.scheduler.min_workers = cfg.scheduler.min_workers.clamp(1, cfg.max_workers);
        // Resuming replays the original seeded ticket stream, minus the
        // seqs the checkpoint records as already delivered.
        let base_sampler = EpochSampler::new(dataset.len(), cfg.epochs, cfg.shuffle, cfg.seed);
        let sampler: Arc<dyn Sampler> = match &resume {
            Some(ck) => Arc::new(ResumeSampler::new(base_sampler, ck)),
            None => Arc::new(base_sampler),
        };
        let slow_threads = cfg.slow_threads();
        let batch_threads = cfg.batch_workers;
        let mut ecfg = ExecConfig::fixed(cfg.max_workers + slow_threads + batch_threads);
        ecfg.idle_wait = cfg.starvation_wait;
        let exec = ExecHandle::new(ecfg);
        let mut rt = Runtime::new(cfg.clone(), dataset, pipeline, sampler, exec.clone());
        rt.cache = cache;
        rt.recycler = recycler;
        rt.injector = injector;
        rt.transfer_hook = transfer_hook;
        if let Some(ck) = &resume {
            // Reinstate the learned timeout and estimator counters so
            // the resumed run skips the optimistic warm-up phase.
            rt.balancer.restore(
                ck.balancer.timeout_ns,
                ck.balancer.completions,
                ck.balancer.flagged_slow,
            );
            rt.delivered = Mutex::new(DeliveryLog::seeded(
                ck.watermark,
                ck.delivered_above.iter().copied(),
            ));
        }
        rt.pools = pools;
        let trace_collect = if cfg.trace.enabled {
            // Every pool worker plus per-GPU consumers, the monitor, and
            // slack for helper threads stepping in.
            let workers = exec.config().threads + cfg.num_gpus + 4;
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
            let mut queue_names: Vec<String> =
                vec!["fast_q".into(), "slow_q".into(), "temp_q".into()];
            queue_names.extend((0..cfg.num_gpus).map(|g| format!("batch_q[{g}]")));
            Some(Arc::new(Mutex::new(Collector::new(
                stage_names,
                queue_names,
                cfg.trace.export_events,
            ))))
        } else {
            None
        };
        let tracer = rt.tracer.clone();
        let rt = Arc::new(rt);

        // The three pipeline stages as executor roles. Only the fast
        // budget is scheduler-driven; the slow and batch slices are sized
        // by the config, so a checkpoint restores the fast gate alone
        // (clamped: the restart may run with fewer workers).
        let batch_step = Arc::new(BatchStep::new(Arc::clone(&rt)));
        let lanes = batch_step.lane_count();
        // In order-preserving mode a producer facing a full fast queue
        // runs this step's lane instead of sleeping.
        rt.batch_help
            .set(Arc::downgrade(&batch_step))
            .unwrap_or_else(|_| unreachable!("batch_help set once"));
        let fast_budget = match &resume {
            Some(ck) => ck.budgets.fast.clamp(1, cfg.max_workers),
            None => cfg.initial_workers,
        };
        let ids = exec.register(vec![
            RoleSpec {
                name: "fast".into(),
                step: Arc::new(FastStep::new(Arc::clone(&rt))),
                budget: fast_budget,
                threads: cfg.max_workers,
                max_concurrency: None,
            },
            RoleSpec {
                name: "slow".into(),
                step: Arc::new(SlowStep::new(Arc::clone(&rt))),
                budget: slow_threads,
                threads: slow_threads,
                max_concurrency: None,
            },
            RoleSpec {
                name: "batch".into(),
                step: batch_step,
                budget: batch_threads,
                threads: batch_threads,
                max_concurrency: Some(lanes),
            },
        ]);
        let roles = ExecRoles {
            fast: ids[0],
            slow: ids[1],
            batch: ids[2],
        };
        if rt.exec_roles.set(roles).is_err() {
            return Err(LoaderError::Config(
                "executor roles registered twice for one runtime".into(),
            ));
        }
        // Role switches at drain become RoleSwitch events (arg: 0 fast /
        // 1 slow / 2 batch / 3 other).
        if let Some(t) = &tracer {
            let t2 = Arc::clone(t);
            exec.set_switch_observer(Arc::new(move |role| {
                let arg = if role == roles.fast {
                    0
                } else if role == roles.slow {
                    1
                } else if role == roles.batch {
                    2
                } else {
                    3
                };
                t2.record(EventKind::RoleSwitch, 0, 0, arg, 0);
            }));
        }
        let executor = exec
            .spawn()
            .map_err(|e| LoaderError::Config(format!("spawn failed: {e}")))?;

        let trace = Arc::new(Mutex::new(MonitorTrace::new()));
        let mut handles = Vec::new();
        {
            let rt2 = Arc::clone(&rt);
            let trace2 = Arc::clone(&trace);
            let collect2 = trace_collect.clone();
            handles.push(
                std::thread::Builder::new()
                    .name("minato-monitor".into())
                    .spawn(move || monitor_loop(rt2, trace2, collect2, roles))
                    .map_err(|e| LoaderError::Config(format!("spawn failed: {e}")))?,
            );
        }
        Ok(MinatoLoader {
            rt,
            executor,
            handles,
            trace,
            trace_collect,
            joined: AtomicBool::new(false),
        })
    }

    /// Iterator over batches destined for GPU 0.
    pub fn iter(&self) -> BatchIter<'_, D> {
        self.gpu_iter(0)
    }

    /// Iterator over batches destined for GPU `gpu`.
    ///
    /// # Panics
    ///
    /// Panics if `gpu >= num_gpus`.
    pub fn gpu_iter(&self, gpu: usize) -> BatchIter<'_, D> {
        assert!(gpu < self.rt.batch_qs.len(), "gpu index out of range");
        BatchIter { loader: self, gpu }
    }

    /// Pops the next batch for `gpu`, blocking; `None` once training data
    /// is exhausted.
    pub fn next_batch(&self, gpu: usize) -> Option<Batch<D::Sample>> {
        let batch = self.rt.batch_qs.get(gpu)?.pop()?;
        if self.rt.cfg.checkpointing {
            // The delivery log records seqs at the pop, not the enqueue:
            // a batch sitting in a queue when the process dies was never
            // delivered, so resume must re-run it.
            let mut log = self.rt.delivered.lock();
            for m in &batch.meta {
                log.record(m.seq);
            }
        }
        // Always-on end-to-end delivery latency (ticket issue → this
        // pop): one short lock acquisition per batch, like the delivery
        // log above.
        let now_ns = self.rt.now_ns();
        {
            let mut lat = self.rt.delivery_ms.lock();
            for m in &batch.meta {
                lat.record(now_ns.saturating_sub(m.issued_ns) as f64 / 1e6);
            }
        }
        if self.rt.tracer.is_some() {
            if let Some(m) = batch.meta.first() {
                self.rt.trace(
                    EventKind::QueuePop,
                    m.epoch,
                    m.seq,
                    Q_BATCH0 + gpu as u32,
                    0,
                );
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

    /// Captures a crash-safe snapshot of loader progress at a quiescent
    /// point, for [`MinatoLoaderBuilder::resume_from`].
    ///
    /// The call parks the fast role at its step boundary, waits
    /// briefly for in-flight samples to drain into queues, snapshots the
    /// delivery log plus balancer/budget/cache state, and resumes the
    /// pipeline. Requires [`MinatoLoaderBuilder::checkpoint`].
    ///
    /// Batches already queued but not yet popped are *not* recorded —
    /// they re-run after a resume, preserving exactly-once delivery to
    /// consumers across kill/restart.
    pub fn checkpoint(&self) -> Result<LoaderCheckpoint> {
        let rt = &self.rt;
        if !rt.cfg.checkpointing {
            return Err(LoaderError::Checkpoint(
                "checkpointing is disabled; enable it with MinatoLoaderBuilder::checkpoint".into(),
            ));
        }
        rt.checkpoint_pause.store(true, Ordering::Release);
        let quiesce = Instant::now();
        while rt.in_flight.load(Ordering::Acquire) > 0
            && quiesce.elapsed() < Duration::from_millis(250)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (watermark, delivered_above) = {
            let log = rt.delivered.lock();
            (log.watermark(), log.above())
        };
        let budgets = rt
            .exec_roles
            .get()
            .map(|roles| RoleBudgets {
                fast: rt.exec.budget(roles.fast),
                slow: rt.exec.budget(roles.slow),
                batch: rt.exec.budget(roles.batch),
            })
            .unwrap_or(RoleBudgets {
                fast: rt.cfg.initial_workers,
                slow: rt.cfg.slow_workers,
                batch: rt.cfg.batch_workers,
            });
        let cache = rt
            .cache
            .as_ref()
            .map(|c| {
                let s = c.stats();
                CacheSummary {
                    entries: s.entries,
                    bytes: s.bytes,
                }
            })
            .unwrap_or_default();
        let ckpt = LoaderCheckpoint {
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
            budgets,
            cache,
        };
        rt.checkpoint_pause.store(false, Ordering::Release);
        Ok(ckpt)
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
            errors: rt.errors.get(),
            faults: rt.faults.snapshot(),
            fast_queue_len: rt.fast_q.len(),
            slow_queue_len: rt.slow_q.len(),
            temp_queue_len: rt.temp_q.len(),
            batch_queue_len: rt.batch_qs.iter().map(|q| q.len()).sum(),
            queue_lock_acquisitions: rt.fast_q.lock_acquisitions()
                + rt.slow_q.lock_acquisitions()
                + rt.temp_q.lock_acquisitions()
                + rt.batch_qs
                    .iter()
                    .map(|q| q.lock_acquisitions())
                    .sum::<u64>(),
            queue_cas_retries: 0,
            cache: rt.cache.as_ref().map(|c| c.stats()),
            pool: rt.pools.as_ref().map(|p| p.stats()),
            exec: Some(rt.exec.stats()),
            active_workers: rt
                .exec_roles
                .get()
                .map(|roles| rt.exec.budget(roles.fast))
                .unwrap_or(rt.cfg.initial_workers),
            timeout: rt.balancer.current_timeout(),
            preprocess_ms: rt.balancer.profiler().summary_ms(),
            delivery_ms: rt.delivery_ms.lock().summary(),
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

    /// The monitor thread's recorded trace so far.
    pub fn trace(&self) -> MonitorTrace {
        self.trace.lock().clone()
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
        self.join_all();
    }

    fn join_all(&mut self) {
        if self.joined.swap(true, Ordering::AcqRel) {
            return;
        }
        self.executor.join();
        for h in self.handles.drain(..) {
            // A panicked worker already recorded its damage; joining must
            // not propagate the panic into the caller's drop path.
            let _ = h.join();
        }
    }
}

impl<D: Dataset> Drop for MinatoLoader<D> {
    fn drop(&mut self) {
        self.rt.initiate_shutdown();
        self.join_all();
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

/// Monitor loop: samples utilization/occupancy, drives the adaptive worker
/// scheduler (the fast role's budget is its gate limit), and keeps the
/// balancer's timeout fresh (§4.3).
fn monitor_loop<D: Dataset>(
    rt: Arc<Runtime<D>>,
    trace: Arc<Mutex<MonitorTrace>>,
    collector: Option<Arc<Mutex<Collector>>>,
    roles: ExecRoles,
) {
    let mut scheduler = WorkerScheduler::new(rt.cfg.scheduler.clone());
    let interval = rt.cfg.scheduler.interval;
    let mut prev_busy = 0u64;
    let mut prev_slow_busy = 0u64;
    let mut prev_bytes = 0u64;
    let mut prev_cache_hits = 0u64;
    let mut prev_cache_lookups = 0u64;
    let mut prev_pool_hits = 0u64;
    let mut prev_pool_lookups = 0u64;
    loop {
        if !rt.monitor_wait(interval) {
            break;
        }
        let all_closed = rt.batch_qs.iter().all(|q| q.is_closed());
        let now = rt.started_at.elapsed().as_secs_f64();
        let active = rt.exec.budget(roles.fast).max(1);

        // CPU utilization of *active loader* workers over the last
        // interval. Slow workers meter their busy time separately: they
        // are not gated by the scheduler, so folding their time into this
        // numerator while normalizing by the active loader count would
        // inflate `cpu_norm` into the clamp and bias Formulas 1–2.
        let busy = rt.cpu_meter.busy_ns();
        let busy_delta = busy.saturating_sub(prev_busy);
        prev_busy = busy;
        let cpu_norm =
            (busy_delta as f64 / (interval.as_nanos() as f64 * active as f64)).clamp(0.0, 1.0);
        let slow_busy = rt.slow_meter.busy_ns();
        let slow_delta = slow_busy.saturating_sub(prev_slow_busy);
        prev_slow_busy = slow_busy;
        let slow_norm = (slow_delta as f64
            / (interval.as_nanos() as f64 * rt.slow_meter.slots() as f64))
            .clamp(0.0, 1.0);

        // Batch-queue occupancy as a fraction of total capacity.
        let q_len: usize = rt.batch_qs.iter().map(|q| q.len()).sum();
        let q_cap: usize = rt.batch_qs.iter().map(|q| q.capacity()).sum();

        // Delivered throughput over the interval.
        let bytes = rt.bytes_out.get();
        let mbps = (bytes.saturating_sub(prev_bytes)) as f64 / 1e6 / interval.as_secs_f64();
        prev_bytes = bytes;

        // Cache hit rate over the interval (the cache stays `None` when
        // disabled, leaving the series empty).
        let cache_hit_pct = rt.cache.as_ref().map(|c| {
            let s = c.stats();
            let lookups = s.lookups();
            let d_lookups = lookups.saturating_sub(prev_cache_lookups);
            let d_hits = s.hits.saturating_sub(prev_cache_hits);
            prev_cache_lookups = lookups;
            prev_cache_hits = s.hits;
            if d_lookups == 0 {
                0.0
            } else {
                d_hits as f64 / d_lookups as f64 * 100.0
            }
        });

        // Pool hit rate over the interval plus the resident byte count —
        // the steady-state working set the recycle loop retains (both
        // series stay empty when pooling is disabled).
        let pool_sample = rt.pools.as_ref().map(|p| {
            let s = p.stats().combined();
            let lookups = s.lookups();
            let d_lookups = lookups.saturating_sub(prev_pool_lookups);
            let d_hits = s.hits.saturating_sub(prev_pool_hits);
            prev_pool_lookups = lookups;
            prev_pool_hits = s.hits;
            let pct = if d_lookups == 0 {
                0.0
            } else {
                d_hits as f64 / d_lookups as f64 * 100.0
            };
            (pct, s.bytes as f64)
        });

        // Drain the event rings every tick (so they cannot silently
        // overflow between stats() calls) and snapshot the running
        // dropped-event total — loss is never invisible. Done before the
        // MonitorTrace lock so no two locks are ever held together.
        let trace_drop_total = if let (Some(tracer), Some(collect)) = (&rt.tracer, &collector) {
            collect.lock().drain(tracer);
            Some(tracer.stats().total_dropped() as f64)
        } else {
            None
        };

        {
            let mut t = trace.lock();
            t.cpu_pct.push(now, cpu_norm * 100.0);
            t.slow_cpu_pct.push(now, slow_norm * 100.0);
            t.workers.push(now, active as f64);
            t.batch_occupancy
                .push(now, q_len as f64 / q_cap.max(1) as f64);
            t.throughput_mbps.push(now, mbps);
            if let Some(pct) = cache_hit_pct {
                t.cache_hit_pct.push(now, pct);
            }
            if let Some((pct, bytes)) = pool_sample {
                t.pool_hit_pct.push(now, pct);
                t.pool_bytes.push(now, bytes);
            }
            if let Some(dropped) = trace_drop_total {
                t.trace_dropped.push(now, dropped);
            }
            let f = rt.faults.snapshot();
            t.fault_counts[0].push(now, f.panics as f64);
            t.fault_counts[1].push(now, f.poisoned as f64);
            t.fault_counts[2].push(now, f.quarantined as f64);
            t.fault_counts[3].push(now, f.rerouted as f64);
        }

        if rt.cfg.adaptive_workers {
            let target = scheduler.decide(active, q_len, q_cap, cpu_norm);
            if target != active {
                rt.exec.set_budget(roles.fast, target);
            }
        }
        rt.balancer.refresh_now();

        if all_closed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::VecDataset;
    use crate::transform::{fn_transform, Outcome, Transform, TransformCtx};
    use std::collections::HashMap;

    fn quick_loader(n: usize, batch: usize) -> MinatoLoader<VecDataset<u32>> {
        let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
        let p = Pipeline::new(vec![fn_transform("id", |x: u32| Ok(x))]);
        MinatoLoader::builder(ds, p)
            .batch_size(batch)
            .initial_workers(2)
            .max_workers(4)
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
                .initial_workers(8)
                .max_workers(2)
                .build(),
            Err(LoaderError::Config(_))
        ));
        assert!(matches!(
            MinatoLoader::builder(ds.clone(), p.clone())
                .batch_workers(0)
                .build(),
            Err(LoaderError::Config(_))
        ));
        assert!(matches!(
            MinatoLoader::builder(ds, p).epochs(0).build(),
            Err(LoaderError::Config(_))
        ));
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
            .initial_workers(1)
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
            .initial_workers(1)
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
            .initial_workers(2)
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
            .initial_workers(4)
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
            .initial_workers(2)
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
            .initial_workers(4)
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
            .initial_workers(2)
            .max_workers(4)
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
    /// pops, so its batch queue fills and stays full. Delivery must fall
    /// through to GPU 1 and the run must terminate — with the old
    /// choose-then-block emit, a momentary occupancy tie wedged every
    /// GPU behind the stalled one.
    #[test]
    fn stalled_gpu_does_not_starve_the_others() {
        let ds = VecDataset::new((0..64u32).collect::<Vec<_>>());
        let p: Pipeline<u32> = Pipeline::identity();
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(4)
            .num_gpus(2)
            .initial_workers(2)
            .max_workers(2)
            .build()
            .unwrap();
        let mut gpu1_samples = 0;
        while let Some(b) = loader.next_batch(1) {
            gpu1_samples += b.len();
        }
        // GPU 0 can absorb at most its two-batch queue; everything
        // else must have been delivered to the live consumer.
        assert!(
            gpu1_samples >= 64 - 2 * 4,
            "live GPU starved: got {gpu1_samples} of 64 samples"
        );
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
            .initial_workers(2)
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

    #[test]
    fn stats_snapshot_consistent_after_drain() {
        let loader = quick_loader(50, 5);
        let n: usize = loader.iter().map(|b| b.len()).sum();
        assert_eq!(n, 50);
        let s = loader.stats();
        assert_eq!(s.samples_done, 50);
        assert_eq!(s.batches_done, 10);
        assert_eq!(s.errors, 0);
        assert_eq!(s.fast_queue_len, 0);
        assert_eq!(s.slow_queue_len, 0);
    }
}

#[cfg(test)]
mod transfer_hook_tests {
    use super::*;
    use crate::dataset::VecDataset;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn transfer_hook_fires_once_per_batch() {
        let count = Arc::new(AtomicUsize::new(0));
        let gpus_seen = Arc::new(Mutex::new(Vec::new()));
        let c2 = Arc::clone(&count);
        let g2 = Arc::clone(&gpus_seen);
        let ds = VecDataset::new((0..40u32).collect::<Vec<_>>());
        let loader = MinatoLoader::builder(ds, Pipeline::identity())
            .batch_size(5)
            .num_gpus(2)
            .initial_workers(2)
            .max_workers(2)
            .transfer_hook(Arc::new(move |b: &Batch<u32>, gpu: usize| {
                assert!(!b.is_empty());
                c2.fetch_add(1, Ordering::Relaxed);
                g2.lock().push(gpu);
            }))
            .build()
            .expect("valid configuration");
        let loader = Arc::new(loader);
        let l2 = Arc::clone(&loader);
        let h = std::thread::spawn(move || {
            let mut n = 0;
            while let Some(b) = l2.next_batch(1) {
                n += b.len();
            }
            n
        });
        // GPU 0's consumer starts only once a batch has gone to GPU 1:
        // with queue 0 left alone, least-occupied-first has to send the
        // second batch there, however quick either consumer is.
        let t0 = Instant::now();
        while !gpus_seen.lock().contains(&1) {
            assert!(t0.elapsed() < Duration::from_secs(10), "GPU 1 never fed");
            std::thread::yield_now();
        }
        let mut n = 0;
        while let Some(b) = loader.next_batch(0) {
            n += b.len();
        }
        n += h.join().expect("consumer thread");
        assert_eq!(n, 40);
        assert_eq!(count.load(Ordering::Relaxed), 8, "one transfer per batch");
        let gpus = gpus_seen.lock();
        assert!(gpus.iter().all(|&g| g < 2));
        assert!(
            gpus.contains(&0) && gpus.contains(&1),
            "both devices prefetched into"
        );
    }
}
