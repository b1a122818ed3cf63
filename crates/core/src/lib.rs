//! # MinatoLoader
//!
//! A from-scratch Rust implementation of **MinatoLoader** (Nouaji et al.,
//! EuroSys 2026): a general-purpose data loader that eliminates
//! head-of-line blocking in ML preprocessing pipelines by classifying
//! samples as fast or slow *at runtime* and constructing batches from
//! whichever samples finish first, while slow samples complete in the
//! background.
//!
//! ## Architecture (paper Figure 5)
//!
//! * [`dataset`] — `Dataset` / `Sampler` abstractions (PyTorch-shaped).
//! * [`transform`] — resumable preprocessing pipelines with cooperative
//!   timeout interruption (Algorithm 1).
//! * [`balancer`] — the dynamic sample-aware load balancer: optimistic
//!   start, warm-up profiling, P75 timeout with P90 fallback (§4.2).
//! * [`queue`] — bounded instrumented MPMC queues (fast/slow/temp/batch):
//!   one mutex+condvar implementation with batched operations.
//! * [`scheduler`] — the adaptive worker scheduler, Formulas 1–2 (§4.3).
//! * [`cache`] — cross-epoch sample cache: memoized preprocessed outputs
//!   served on the fast path in later epochs (sharded, byte-budgeted,
//!   cost-aware eviction; off by default).
//! * [`loader`] — the public `MinatoLoader` builder/iterator API.
//!
//! The worker runtime itself lives on the `minato-exec` executor: the
//! fast/slow/batch stages are role handlers one thread pool runs, each
//! on its own slice of threads (the fast slice gated by the scheduler's
//! budget); a thread whose stage is exhausted joins the stages still
//! live, so the tail of a run is finished by the whole pool.
//!
//! ## Quick start
//!
//! ```
//! use minato_core::prelude::*;
//!
//! // Any random-access data source works; here, a vector.
//! let dataset = VecDataset::new((0..128u32).collect::<Vec<_>>());
//! // Preprocessing = ordered list of transforms.
//! let pipeline = Pipeline::new(vec![fn_transform("scale", |x: u32| Ok(x * 3))]);
//!
//! let loader = MinatoLoader::builder(dataset, pipeline)
//!     .batch_size(16)
//!     .initial_workers(4)
//!     .max_workers(8)
//!     .build()
//!     .expect("valid configuration");
//!
//! let mut samples = 0;
//! for batch in loader.iter() {
//!     samples += batch.len();
//! }
//! assert_eq!(samples, 128);
//! ```

pub mod balancer;
pub mod batch;
pub mod cache;
pub mod checkpoint;
pub mod dataset;
pub mod error;
pub mod fault;
pub mod loader;
pub mod pool;
pub mod profiler;
pub mod queue;
pub mod scheduler;
pub mod stats;
pub mod transform;

mod worker;

/// Convenient glob import for typical loader usage.
pub mod prelude {
    pub use crate::balancer::{BalancerConfig, LoadBalancer, TimeoutPolicy};
    pub use crate::batch::{Batch, Prepared, SampleMeta};
    pub use crate::cache::{CacheStats, ClonedSampleCache, EvictionPolicy, SampleCache};
    pub use crate::checkpoint::{
        BalancerCheckpoint, DeliveryLog, LoaderCheckpoint, ResumeSampler, CHECKPOINT_VERSION,
    };
    pub use crate::dataset::{Dataset, EpochSampler, FnDataset, Sampler, VecDataset};
    pub use crate::error::{LoaderError, Result};
    pub use crate::fault::{FaultAction, FaultInjector, FaultSite, FaultStats};
    pub use crate::loader::{LoaderConfig, MinatoLoader, MinatoLoaderBuilder};
    pub use crate::pool::{
        BufferPool, PoolConfig, PoolRecycler, PoolSet, PoolSetStats, PoolStats, Reclaim,
        SampleRecycler,
    };
    pub use crate::queue::MinatoQueue;
    pub use crate::scheduler::{SchedulerConfig, WorkerScheduler};
    pub use crate::stats::{LoaderStats, MonitorTrace};
    pub use crate::transform::{
        fn_transform, CostClass, InPlace, Outcome, Pipeline, PipelineRun, Transform, TransformCtx,
    };
    pub use minato_exec::{ExecStats, RoleStatsSnapshot};
    pub use minato_trace::{LatencyBreakdown, StageLatency, TraceConfig, TraceStats};
}
