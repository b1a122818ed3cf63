//! Role handlers and the shared loader runtime.
//!
//! The runtime wires together the queue topology of Figure 5:
//!
//! ```text
//! sampler → [fast role] → fast_q ─┐
//!              │ timeout          ├→ [batch role] → batch_q[gpu] → training
//!              └→ temp_q → [slow role] → slow_q ─┘
//! ```
//!
//! The three stages are [`minato_exec::RoleStep`] implementations
//! ([`FastStep`], [`SlowStep`], [`BatchStep`]) run one bounded step at a
//! time by the loader's executor pool: each stage has its own threads
//! (the fast ones gated by the scheduler's budget), and a thread whose
//! stage is exhausted joins the stages still live, so the deferred
//! backlog at the end of a run is finished by the whole pool.
//!
//! Order-preserving mode (§6) is this same topology with classification
//! off (nothing is ever deferred) and a reorder buffer in the batch
//! role's single lane. The lane, its push/emit loop and its `finish` are
//! shared with the shuffled mode; what stays its own is the pull (one
//! sample per pass) and the producers' back-pressure (help or sleep).
//!
//! Shutdown is a close cascade, never a hard stop: the fast role's
//! `finish` closes `fast_q`/`temp_q` (normally `maybe_close_sources`
//! already did), the slow role's `finish` closes `slow_q`, the batch
//! role's `finish` flushes partial batches and closes every batch queue.
//! Queues drain after close, so no prepared sample is lost.

use crate::balancer::{BalancerConfig, LoadBalancer};
use crate::batch::{Batch, Prepared, ReorderBuffer, SampleMeta, TransferHook};
use crate::cache::SampleCache;
use crate::checkpoint::DeliveryLog;
use crate::dataset::{Dataset, Sampler};
use crate::error::LoaderError;
use crate::fault::{FaultAction, FaultInjector, FaultSite, FaultStats};
use crate::loader::LoaderConfig;
use crate::pool::{PoolSet, SampleRecycler};
use crate::profiler::SampleRecord;
use crate::queue::{Closed, MinatoQueue, PopResult, TryPutError, TryReserveError};
use crate::transform::{Pipeline, PipelineRun, ScratchLedger, StageObserver, TransformCtx};
use minato_exec::{ExecHandle, RoleId, RoleStep, StepOutcome};
use minato_metrics::{Counter, Reservoir, UtilizationMeter};
use minato_trace::{EventKind, Tracer};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// How long a slow-role step waits for a deferred sample before it
/// reports idle. A slow worker has nowhere else to go while its role is
/// live, and a put or the close of the temp queue ends the wait at once,
/// so the bound only sets how often an idle worker returns to the
/// executor.
const SLOW_CLAIM_WAIT: Duration = Duration::from_millis(25);

/// Tickets a fast worker claims from the sampler per step, and the most
/// fast samples it publishes in one queue operation. It amortizes locks
/// only: how long a finished sample may sit in a worker's chunk buffer
/// is bounded by `starvation_wait`, not by the chunk. Times
/// `slow_workers` it is also the temp-queue backlog above which one fast
/// worker at a time completes deferred samples ([`Runtime::moonlight`]).
const TICKET_CHUNK: usize = 8;

/// Bound on the `recent_errors` ring: enough to see a fault *burst*,
/// small enough that a pathological run cannot grow memory unboundedly.
pub(crate) const RECENT_ERRORS_CAP: usize = 16;

// Queue ids stamped into trace `QueuePut`/`QueuePop` events. The
// collector's `queue_names` follow the same order; GPU `g`'s batch
// queue is `Q_BATCH0 + g`, traced at batch granularity (one event per
// batch, keyed by its first sample).
pub(crate) const Q_FAST: u32 = 0;
pub(crate) const Q_SLOW: u32 = 1;
pub(crate) const Q_TEMP: u32 = 2;
pub(crate) const Q_BATCH0: u32 = 3;

/// Bridges per-step [`StageObserver`] callbacks into trace events.
#[derive(Debug)]
pub(crate) struct TracerStageObserver(pub(crate) Arc<Tracer>);

impl StageObserver for TracerStageObserver {
    fn stage_start(&self, step: usize, epoch: u16, seq: u64) {
        self.0
            .record(EventKind::StageStart, epoch, seq, step as u32, 0);
    }

    fn stage_end(&self, step: usize, epoch: u16, seq: u64, dur: Duration) {
        self.0.record(
            EventKind::StageEnd,
            epoch,
            seq,
            step as u32,
            dur.as_nanos() as u64,
        );
    }
}

/// A sample parked mid-pipeline after a timeout (temp-queue entry).
#[derive(Debug)]
pub(crate) struct Deferred<S> {
    pub partial: S,
    pub resume_at: usize,
    pub meta: SampleMeta,
    /// Foreground preprocessing time already spent before deferral.
    pub spent: Duration,
    /// Pool-scratch ledger carried over from the foreground run, so a
    /// panic during background completion repays what the *whole*
    /// sample still holds, not just what the resume acquired.
    pub scratch: Option<Arc<ScratchLedger>>,
}

/// Live fault counters ([`FaultStats`] is their snapshot).
pub(crate) struct FaultCounters {
    pub panics: Counter,
    pub poisoned: Counter,
    pub quarantined: Counter,
    pub rerouted: Counter,
}

impl FaultCounters {
    pub(crate) fn new() -> FaultCounters {
        FaultCounters {
            panics: Counter::new(),
            poisoned: Counter::new(),
            quarantined: Counter::new(),
            rerouted: Counter::new(),
        }
    }

    pub(crate) fn snapshot(&self) -> FaultStats {
        FaultStats {
            panics: self.panics.get(),
            poisoned: self.poisoned.get(),
            quarantined: self.quarantined.get(),
            rerouted: self.rerouted.get(),
        }
    }
}

/// Repays un-recycled pool scratch when a sample execution unwinds.
///
/// Armed by [`Runtime::guarded_ctx`] around every pipeline run that has
/// a pool attached; the success paths call [`ScratchGuard::disarm`], so
/// the `Drop` impl only fires when the run panicked or errored out —
/// exactly the paths that lose their buffers to the unwinding stack.
struct ScratchGuard {
    pools: Option<Arc<PoolSet>>,
    ledger: Option<Arc<ScratchLedger>>,
    armed: bool,
}

impl ScratchGuard {
    /// Guard for an unpooled run: nothing to repay.
    fn disabled() -> ScratchGuard {
        ScratchGuard {
            pools: None,
            ledger: None,
            armed: false,
        }
    }

    /// Defuses the guard (the run completed; its buffers live on in the
    /// sample) and hands the ledger back for deferred runs to carry.
    fn disarm(&mut self) -> Option<Arc<ScratchLedger>> {
        self.armed = false;
        self.ledger.take()
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        if self.armed {
            if let (Some(pools), Some(ledger)) = (&self.pools, &self.ledger) {
                ledger.repay(pools);
            }
        }
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_payload_msg(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

/// The loader's role ids on its executor pool, set once at build time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecRoles {
    pub fast: RoleId,
    pub slow: RoleId,
    pub batch: RoleId,
}

/// State shared by every pool worker and the monitor thread.
pub(crate) struct Runtime<D: Dataset> {
    pub dataset: D,
    pub pipeline: Pipeline<D::Sample>,
    pub sampler: Arc<dyn Sampler>,
    pub balancer: LoadBalancer,
    /// Cross-epoch sample cache; `None` when disabled (the default).
    /// Hits bypass the dataset, the pipeline, and timeout
    /// classification, and never feed the balancer's profiler.
    pub cache: Option<Arc<dyn SampleCache<D::Sample>>>,
    /// Buffer pools for the zero-allocation hot path; `None` when
    /// pooling is disabled (the default). With pools attached, the
    /// pipeline executes in place and stages draw fresh buffers from
    /// (and recycle replaced buffers into) this set.
    pub pools: Option<Arc<PoolSet>>,
    /// Delivery-side recycle hook attached to every emitted batch, so
    /// the training loop dropping a batch hands sample buffers back to
    /// the pool. `None` when pooling is disabled.
    pub recycler: Option<Arc<dyn SampleRecycler<D::Sample>>>,
    pub fast_q: MinatoQueue<Prepared<D::Sample>>,
    pub slow_q: MinatoQueue<Prepared<D::Sample>>,
    pub temp_q: MinatoQueue<Deferred<D::Sample>>,
    pub batch_qs: Vec<MinatoQueue<Batch<D::Sample>>>,
    /// Control handle of the executor pool running this loader's roles.
    pub exec: ExecHandle,
    /// The loader's role ids on that pool (empty in handler unit tests
    /// that drive steps directly).
    pub(crate) exec_roles: OnceLock<ExecRoles>,
    /// Back-reference to the batch role so that, in order-preserving
    /// mode, a producer facing a full fast queue can run the assembly
    /// lane instead of sleeping (see [`Runtime::help_batch_once`]).
    /// Weak: the executor owns the step.
    pub(crate) batch_help: OnceLock<Weak<BatchStep<D>>>,
    pub cfg: LoaderConfig,
    /// Tickets claimed from the sampler but not yet routed to a queue (or
    /// dropped on error). Together with `source_drained`, this drives the
    /// close cascade without depending on every pool worker exiting —
    /// a worker parked by the scheduler must not stall completion.
    pub in_flight: AtomicUsize,
    /// Set once any worker observes the sampler exhausted.
    pub source_drained: AtomicBool,
    /// The single moonlighting token: the fast worker that holds it is
    /// completing deferred samples between two of its chunks (see
    /// [`Runtime::moonlight`]); the others keep producing fast samples.
    pub slow_helper: AtomicBool,
    /// Busy time of fast-role work only; the monitor normalizes it by
    /// the fast-role budget, so mixing in slow-role busy time (see
    /// `slow_meter`) would inflate `cpu_norm` and bias the Formula 1–2
    /// scheduler.
    pub cpu_meter: UtilizationMeter,
    /// Busy time of background slow-role work, tracked separately.
    pub slow_meter: UtilizationMeter,
    pub samples_out: Counter,
    pub bytes_out: Counter,
    pub batches_out: Counter,
    pub errors: Counter,
    pub first_error: Mutex<Option<LoaderError>>,
    /// Ring of the most recent errors (cap [`RECENT_ERRORS_CAP`]), so a
    /// burst of *distinct* faults stays observable — `first_error` alone
    /// keeps only the oldest and every later fault vanishes.
    pub recent_errors: Mutex<VecDeque<LoaderError>>,
    /// Fault-containment counters snapshot into `LoaderStats.faults`.
    pub faults: FaultCounters,
    /// Seqs delivered to consumers; only populated when
    /// `cfg.checkpointing` is on (recorded by `next_batch`).
    pub delivered: Mutex<DeliveryLog>,
    /// Seqs quarantined in order-preserving mode and not yet reported to
    /// the assembly lane, which drains this every pass and marks them
    /// resolved in its reorder buffer, so delivery continues past the
    /// gap. Never touched on the shuffled path.
    pub(crate) ordered_gaps: Mutex<Vec<u64>>,
    /// Safe-point rendezvous for `MinatoLoader::checkpoint()`: while
    /// set, fast-role steps idle at their step boundary instead of
    /// claiming new tickets, quiescing the claim pipeline.
    pub checkpoint_pause: AtomicBool,
    /// Deterministic fault oracle for the chaos suite; `None` (the
    /// production default) costs one branch per sample.
    pub injector: Option<Arc<dyn FaultInjector>>,
    pub shutdown: AtomicBool,
    /// The monitor thread waits out its refresh interval on this pair,
    /// so `initiate_shutdown` can end the wait at once.
    pub(crate) monitor_lock: Mutex<()>,
    pub(crate) monitor_cv: Condvar,
    pub started_at: Instant,
    /// Optional device-transfer prefetch hook (§4.3's CUDA stream).
    pub transfer_hook: Option<Arc<dyn TransferHook<D::Sample>>>,
    /// Lifecycle tracer; `None` when tracing is disabled (the default),
    /// in which case every record site costs one branch and nothing
    /// else.
    pub tracer: Option<Arc<Tracer>>,
    /// Stage observer attached to transform contexts; `Some` iff
    /// `tracer` is `Some` (built once at loader start, cloned per
    /// sample — refcount traffic only).
    pub(crate) stage_obs: Option<Arc<dyn StageObserver>>,
    /// Always-on end-to-end delivery latency in milliseconds (ticket
    /// issue → consumer pop), recorded by `next_batch` under one lock
    /// acquisition per popped batch.
    pub delivery_ms: Mutex<Reservoir>,
}

impl<D: Dataset> Runtime<D> {
    /// A runtime over `cfg` with every opt-in subsystem absent (cache,
    /// pools, recycler, fault injector, transfer hook, tracer) and
    /// nothing delivered yet. `MinatoLoader::start` sets what the builder
    /// configured before it shares the runtime; unit tests drive the
    /// role steps against it directly.
    pub(crate) fn new(
        cfg: LoaderConfig,
        dataset: D,
        pipeline: Pipeline<D::Sample>,
        sampler: Arc<dyn Sampler>,
        exec: ExecHandle,
    ) -> Runtime<D> {
        Runtime {
            dataset,
            pipeline,
            sampler,
            balancer: LoadBalancer::new(BalancerConfig {
                policy: cfg.timeout_policy,
                warmup_samples: cfg.warmup_samples,
                ..BalancerConfig::default()
            }),
            cache: None,
            pools: None,
            recycler: None,
            fast_q: MinatoQueue::new("fast", cfg.queue_capacity),
            slow_q: MinatoQueue::new("slow", cfg.queue_capacity),
            temp_q: MinatoQueue::new("temp", cfg.queue_capacity),
            batch_qs: (0..cfg.num_gpus)
                .map(|g| MinatoQueue::new(&format!("batch[{g}]"), cfg.prefetch_factor))
                .collect(),
            exec,
            exec_roles: OnceLock::new(),
            batch_help: OnceLock::new(),
            in_flight: AtomicUsize::new(0),
            source_drained: AtomicBool::new(false),
            slow_helper: AtomicBool::new(false),
            cpu_meter: UtilizationMeter::new(cfg.max_workers),
            slow_meter: UtilizationMeter::new(cfg.slow_threads()),
            samples_out: Counter::new(),
            bytes_out: Counter::new(),
            batches_out: Counter::new(),
            errors: Counter::new(),
            first_error: Mutex::new(None),
            recent_errors: Mutex::new(VecDeque::new()),
            faults: FaultCounters::new(),
            delivered: Mutex::new(DeliveryLog::new()),
            ordered_gaps: Mutex::new(Vec::new()),
            checkpoint_pause: AtomicBool::new(false),
            injector: None,
            shutdown: AtomicBool::new(false),
            monitor_lock: Mutex::new(()),
            monitor_cv: Condvar::new(),
            // One monotonic clock for the whole run: `issued_ns` stamps,
            // the delivery-latency reservoir, and (when enabled) every
            // trace event measure against this instant.
            started_at: Instant::now(),
            transfer_hook: None,
            tracer: None,
            stage_obs: None,
            delivery_ms: Mutex::new(Reservoir::new(4096)),
            cfg,
        }
    }

    /// Records one trace event when tracing is enabled; a single branch
    /// otherwise. Epochs beyond `u16::MAX` saturate (the event word
    /// packs the epoch into 16 bits).
    // minato-verify: hot-path
    #[inline]
    pub(crate) fn trace(&self, kind: EventKind, epoch: usize, seq: u64, arg: u32, dur_ns: u64) {
        if let Some(t) = &self.tracer {
            t.record(kind, epoch.min(u16::MAX as usize) as u16, seq, arg, dur_ns);
        }
    }

    /// Records one queue event per sample in `items` (used for bulk
    /// put/pop sites, so the disabled path stays a single branch).
    // minato-verify: hot-path
    fn trace_queue(&self, kind: EventKind, qid: u32, items: &[Prepared<D::Sample>]) {
        if self.tracer.is_some() {
            for p in items {
                self.trace(kind, p.meta.epoch, p.meta.seq, qid, 0);
            }
        }
    }

    /// Nanoseconds since loader start — the clock `issued_ns` and the
    /// tracer share.
    // minato-verify: hot-path
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.started_at.elapsed().as_nanos() as u64
    }

    /// Shared bookkeeping for any quarantined sample: error counter,
    /// bounded recent-errors ring, first-error slot.
    fn note_error(&self, err: LoaderError) {
        self.errors.incr();
        let mut ring = self.recent_errors.lock();
        if ring.len() == RECENT_ERRORS_CAP {
            ring.pop_front();
        }
        ring.push_back(err.clone());
        drop(ring);
        let mut slot = self.first_error.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// Records a sample quarantined by a clean error (dataset failure,
    /// transform error, poisoned sample).
    pub(crate) fn record_error(&self, err: LoaderError) {
        self.faults.poisoned.incr();
        self.faults.quarantined.incr();
        self.note_error(err);
    }

    /// Records a sample quarantined by a caught panic.
    pub(crate) fn record_panic(&self, err: LoaderError) {
        self.faults.panics.incr();
        self.faults.quarantined.incr();
        self.note_error(err);
    }

    /// Requests a full stop: queues close, pool workers wake and exit.
    pub(crate) fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Taking the lock orders this wake after a monitor that has
        // checked `shutdown` but not yet started waiting.
        drop(self.monitor_lock.lock());
        self.monitor_cv.notify_all();
        self.fast_q.close();
        self.slow_q.close();
        self.temp_q.close();
        for q in &self.batch_qs {
            q.close();
        }
        self.exec.shutdown();
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Waits out one monitor refresh interval (a full one: the monitor
    /// computes its rates over it). Returns false as soon as shutdown is
    /// requested.
    pub(crate) fn monitor_wait(&self, interval: Duration) -> bool {
        let deadline = Instant::now() + interval;
        let mut g = self.monitor_lock.lock();
        while !self.is_shutdown() && !self.monitor_cv.wait_until(&mut g, deadline).timed_out() {}
        !self.is_shutdown()
    }

    /// Builds the per-run transform context — no deadline (the fast path
    /// sets its own where the pipeline starts), the buffer pools (which
    /// engage in-place execution) when pooling is on — paired with a
    /// [`ScratchGuard`] that repays un-recycled
    /// pool scratch if the run unwinds. `ledger` carries a deferred
    /// sample's existing ledger into its background resume; fresh runs
    /// pass `None` and get a new one. `epoch`/`seq` identify the sample
    /// on stage-observer callbacks when tracing is enabled.
    fn guarded_ctx(
        &self,
        ledger: Option<Arc<ScratchLedger>>,
        epoch: usize,
        seq: u64,
    ) -> (TransformCtx, ScratchGuard) {
        let ctx = TransformCtx::unbounded();
        let ctx = match &self.stage_obs {
            Some(obs) => {
                ctx.with_observer(Arc::clone(obs), epoch.min(u16::MAX as usize) as u16, seq)
            }
            None => ctx,
        };
        match &self.pools {
            Some(p) => {
                let ledger = ledger.unwrap_or_else(|| Arc::new(ScratchLedger::new()));
                let ctx = ctx
                    .with_pool(Arc::clone(p))
                    .with_scratch(Arc::clone(&ledger));
                let guard = ScratchGuard {
                    pools: Some(Arc::clone(p)),
                    ledger: Some(ledger),
                    armed: true,
                };
                (ctx, guard)
            }
            None => (ctx, ScratchGuard::disabled()),
        }
    }

    /// Runs `body` — the one attempt at a sample: load and/or pipeline
    /// run — under the panic containment both the fast and the slow path
    /// need: the close cascade depends on every step reaching its exit
    /// accounting, so a panicking dataset or transform degrades to a
    /// recorded error for this sample instead of unwinding the worker.
    /// The fault injector is consulted once, before `body`; a failure
    /// stands and the caller quarantines the sample. Returns the run's
    /// result, whether it panicked, and its scratch guard, which repays
    /// pool scratch the run never recycled unless the caller disarms it.
    fn run_contained(
        &self,
        site: FaultSite,
        ledger: Option<Arc<ScratchLedger>>,
        (index, epoch, seq): (usize, usize, u64),
        body: impl FnOnce(TransformCtx) -> crate::error::Result<PipelineRun<D::Sample>>,
    ) -> (
        crate::error::Result<PipelineRun<D::Sample>>,
        bool,
        ScratchGuard,
    ) {
        let (ctx, guard) = self.guarded_ctx(ledger, epoch, seq);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(inj) = &self.injector {
                match inj.decide(site, index, seq) {
                    FaultAction::Panic => panic!("injected {site:?}-path fault at seq {seq}"),
                    FaultAction::Poison => {
                        return Err(LoaderError::Transform {
                            name: "poisoned".into(),
                            msg: format!("injected poison at seq {seq}"),
                        })
                    }
                    FaultAction::None => {}
                }
            }
            body(ctx)
        }));
        let panicked = caught.is_err();
        let run = caught.unwrap_or_else(|p| {
            Err(LoaderError::Transform {
                name: "panicked".into(),
                msg: panic_payload_msg(p),
            })
        });
        (run, panicked, guard)
    }

    /// Quarantines a sample whose contained run failed: the
    /// `FaultHit` event, then the panic or clean-error accounting. In
    /// order-preserving mode the seq is also reported to the assembly
    /// lane, which would otherwise hold every later sample behind it
    /// until the run drains.
    fn quarantine(&self, epoch: usize, seq: u64, panicked: bool, err: LoaderError) {
        self.trace(EventKind::FaultHit, epoch, seq, u32::from(panicked), 0);
        if self.cfg.order_preserving {
            self.ordered_gaps.lock().push(seq);
        }
        if panicked {
            self.record_panic(err);
        } else {
            self.record_error(err);
        }
    }

    /// An empty batch carrying the delivery-side recycle hook (a no-op
    /// plain batch when pooling is off).
    fn new_batch(&self) -> Batch<D::Sample> {
        Batch::with_recycler(self.cfg.batch_size, self.recycler.clone())
    }

    /// Closes the producer-side queues once no new samples can ever reach
    /// them: the sampler is drained and nothing is in flight.
    fn maybe_close_sources(&self) {
        if self.source_drained.load(Ordering::SeqCst) && self.in_flight.load(Ordering::SeqCst) == 0
        {
            self.fast_q.close();
            self.temp_q.close();
        }
    }

    // ------------------------------------------------------------------
    // Backpressure helping.
    //
    // A fast worker facing a full temp queue does not wait for the slow
    // workers to drain it: it completes one deferred sample inline
    // (`route_deferred`), which also frees the slot it needs. A producer
    // facing a full fast or slow queue has nothing to help with — batch
    // assembly always has its own threads — so it waits for space on the
    // queue itself, woken by the pop that frees a slot and for at most
    // `starvation_wait` at a time. The chain bottoms out at the per-GPU
    // batch queues, which only the external consumer drains — the one
    // place where waiting is correct backpressure. Order-preserving mode
    // is the exception: its lane pops one sample at a time, so every pop
    // would wake every blocked producer for a single slot; there the
    // producer runs an assembly pass itself when the lane is free and
    // sleeps `starvation_wait` out when it is not (see
    // `publish_helping`).
    // ------------------------------------------------------------------

    /// Completes one deferred sample on the (timeout-free) slow path:
    /// resume from its recorded transform index, meter the background
    /// time, feed the balancer, admit to the cache. Returns `None` when
    /// the sample errored (already recorded).
    fn complete_one(&self, d: Deferred<D::Sample>) -> Option<Prepared<D::Sample>> {
        let t0 = Instant::now();
        let resume_at = d.resume_at;
        let (index, seq) = (d.meta.index, d.meta.seq);
        let epoch = d.meta.epoch;
        let (run, panicked, mut guard) =
            self.run_contained(FaultSite::Slow, d.scratch, (index, epoch, seq), |ctx| {
                self.pipeline.run_ctx(resume_at, d.partial, ctx)
            });
        self.slow_meter.add_busy(t0.elapsed());
        match run {
            Ok(PipelineRun::Completed { value, elapsed }) => {
                guard.disarm();
                let total = d.spent + elapsed;
                let meta = SampleMeta {
                    preprocess: total,
                    ..d.meta
                };
                self.trace(
                    EventKind::SlowResume,
                    epoch,
                    seq,
                    resume_at as u32,
                    elapsed.as_nanos() as u64,
                );
                self.balancer
                    .on_slow_complete(&SampleRecord::total_only(total));
                // Admit with the *full* measured cost: under cost-aware
                // eviction this is what keeps slow samples resident
                // longest.
                if let Some(cache) = self.cache.as_deref() {
                    cache.admit(meta.index, &value, meta.bytes, total);
                }
                Some(Prepared {
                    sample: value,
                    meta,
                })
            }
            // No timeout was set, so TimedOut is unreachable; treat it
            // as an internal error rather than asserting in release
            // builds.
            Ok(PipelineRun::TimedOut { .. }) => {
                debug_assert!(false, "background run cannot time out");
                let err = LoaderError::Transform {
                    name: "background".into(),
                    msg: "unexpected timeout without deadline".into(),
                };
                self.quarantine(epoch, seq, false, err);
                None
            }
            Err(e) => {
                // The guard's drop repays pool scratch the unwinding
                // (or error-propagating) run never recycled.
                self.quarantine(epoch, seq, panicked, e);
                None
            }
        }
    }

    /// Completes one deferred sample just popped from the temp queue and
    /// publishes it to the slow queue: one unit of slow-role work,
    /// whoever runs it. Fails only when the slow queue closed.
    fn resume_and_publish(&self, d: Deferred<D::Sample>) -> Result<(), Closed> {
        self.trace(EventKind::QueuePop, d.meta.epoch, d.meta.seq, Q_TEMP, 0);
        match self.complete_one(d) {
            Some(p) => {
                // Record-once-before-retry: backpressure re-puts inside
                // `publish_helping` must not duplicate the event.
                self.trace(EventKind::QueuePut, p.meta.epoch, p.meta.seq, Q_SLOW, 0);
                self.publish_helping(&self.slow_q, vec![p])
            }
            None => Ok(()), // Errored: already recorded.
        }
    }

    /// Pops one deferred sample from the temp queue and completes it
    /// inline (a fast-role worker moonlighting as a slow worker).
    /// Returns whether anything was there to help with.
    fn help_slow_once(&self) -> bool {
        match self.temp_q.try_pop() {
            PopResult::Item(d) => {
                let _ = self.resume_and_publish(d);
                true
            }
            _ => false,
        }
    }

    /// Early slow-path help, run by a fast worker between two chunks:
    /// when the temp-queue backlog exceeds one ticket chunk per slow
    /// worker, the one worker that wins the `slow_helper` token
    /// completes deferred samples until the backlog is back under that
    /// mark. The other fast workers keep producing,
    /// so the temp queue stays short without the fast path ever
    /// stopping as a whole (which is what happens when it fills up and
    /// every worker helps inline from [`Runtime::route_deferred`], still
    /// the progress backstop).
    ///
    /// The caller must hold an `in_flight` claim taken while
    /// `source_drained` was unset: that is what keeps the close cascade
    /// from closing the slow queue under a sample being completed here.
    // minato-verify: hot-path
    fn moonlight(&self) {
        let mark = TICKET_CHUNK * self.cfg.slow_workers.max(1);
        if self.temp_q.len() <= mark
            || self
                .slow_helper
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        while !self.is_shutdown() && self.temp_q.len() > mark && self.help_slow_once() {}
        self.slow_helper.store(false, Ordering::Release);
    }

    /// Runs one batch-assembly pass inline. Returns whether it made
    /// progress (false also when no batch step is wired up, or another
    /// worker holds every assembly lane — that worker is the one making
    /// progress then).
    fn help_batch_once(&self) -> bool {
        match self.batch_help.get().and_then(Weak::upgrade) {
            Some(step) => matches!(RoleStep::step(&*step), StepOutcome::Progress),
            None => false,
        }
    }

    /// Publishes prepared samples into `q` (the fast or slow queue),
    /// waiting for space while it is full. Fails only when the queue
    /// closed.
    ///
    /// The producer parks on the queue's not-full signal for at most
    /// `starvation_wait` at a time.
    ///
    /// Order-preserving mode cannot park: the ordered lane pops one
    /// sample per pass, so parked producers would all be woken once per
    /// sample to contend for one slot. There the producer runs the lane
    /// itself whenever the batch worker is between two passes, and
    /// sleeps only when it is not: with the sleep alone `noop_ordered`
    /// delivers 143 k samples/s instead of 237 k.
    fn publish_helping(
        &self,
        q: &MinatoQueue<Prepared<D::Sample>>,
        items: Vec<Prepared<D::Sample>>,
    ) -> Result<(), Closed> {
        let mut rest = items;
        loop {
            match q.try_put_many(rest) {
                Ok(()) => return Ok(()),
                Err(TryPutError::Closed(_)) => return Err(Closed),
                Err(TryPutError::Full(r)) => rest = r,
            }
            if self.cfg.order_preserving {
                if !self.help_batch_once() {
                    std::thread::sleep(self.cfg.starvation_wait);
                }
                continue;
            }
            match q.reserve_timeout(self.cfg.starvation_wait) {
                // The woken slot takes the head item (order within the
                // chunk is kept); the bulk put above retries the rest.
                Ok(slot) => slot.publish(rest.remove(0))?,
                Err(TryReserveError::Full) => {}
                Err(TryReserveError::Closed) => return Err(Closed),
            }
        }
    }

    /// Routes a deferral into the temp queue, completing other deferred
    /// samples inline while it is full (which also frees the slot this
    /// routing needs). Returns false when the queue closed.
    fn route_deferred(&self, d: Deferred<D::Sample>) -> bool {
        let mut d = d;
        loop {
            match self.temp_q.try_put(d) {
                Ok(()) => return true,
                Err(TryPutError::Closed(_)) => return false,
                Err(TryPutError::Full(back)) => d = back,
            }
            // Full implies non-empty, so helping normally frees a slot
            // immediately; the bounded wait for space only covers
            // losing that slot to a concurrent producer.
            if self.help_slow_once() {
                continue;
            }
            match self.temp_q.reserve_timeout(self.cfg.starvation_wait) {
                Ok(slot) => return slot.publish(d).is_ok(),
                Err(TryReserveError::Full) => {}
                Err(TryReserveError::Closed) => return false,
            }
        }
    }
}

/// Fast role: claims tickets in [`TICKET_CHUNK`]-sized chunks, loads,
/// preprocesses against the balancer's timeout, and routes to fast or
/// temp queue (Algorithm 1 lines 6–12). One step = one chunk.
///
/// Completed fast samples accumulate in a chunk-local buffer so that
/// the dominant per-sample cost (a queue mutex acquisition plus condvar
/// signalling) is paid once per [`MinatoQueue::put_many`], not once per
/// sample — but a finished sample is withheld from the batch stage for
/// at most `starvation_wait`: once the worker has spent that long since
/// it took up the oldest buffered sample, it publishes the buffer at
/// that sample boundary. Samples that take microseconds therefore still
/// publish once per chunk, samples that take milliseconds one by one,
/// and the chunk never re-creates the head-of-line wait the fast path
/// exists to remove. Timed-out samples go to the temp queue at once:
/// deferring a deferral would delay its background completion for no
/// benefit.
///
/// Between two chunks, one fast worker at a time moonlights on slow
/// overflow ([`Runtime::moonlight`]).
pub(crate) struct FastStep<D: Dataset> {
    rt: Arc<Runtime<D>>,
}

impl<D: Dataset> FastStep<D> {
    pub(crate) fn new(rt: Arc<Runtime<D>>) -> FastStep<D> {
        FastStep { rt }
    }
}

impl<D: Dataset> RoleStep for FastStep<D> {
    fn step(&self) -> StepOutcome {
        let rt = &*self.rt;
        if rt.is_shutdown() {
            return StepOutcome::Exhausted;
        }
        // Checkpoint rendezvous: idle at the step boundary instead of
        // claiming tickets, so `MinatoLoader::checkpoint()` can observe
        // a quiescent claim pipeline. Samples already claimed keep
        // flowing; only new claims stop.
        if rt.checkpoint_pause.load(Ordering::Acquire) {
            return StepOutcome::Idle;
        }
        let chunk = TICKET_CHUNK;
        // Claim accounting: raise `in_flight` *before* taking tickets so
        // a concurrent worker observing the drained sampler cannot close
        // the queues while these samples are between claim and routing.
        rt.in_flight.fetch_add(chunk, Ordering::SeqCst);
        // Between two chunks, under the claim just raised: with the
        // source not yet seen drained, no worker can start the close
        // cascade until this one has routed (or handed back) its claim,
        // so a deferred sample completed here still finds `slow_q` open.
        if !rt.source_drained.load(Ordering::SeqCst) {
            rt.moonlight();
        }
        let tickets = rt.sampler.next_many(chunk);
        let drained = tickets.len() < chunk;
        if drained {
            rt.in_flight
                .fetch_sub(chunk - tickets.len(), Ordering::SeqCst);
            rt.source_drained.store(true, Ordering::SeqCst);
        }
        if tickets.is_empty() {
            rt.maybe_close_sources();
            return StepOutcome::Exhausted;
        }
        let total = tickets.len();
        let mut processed = 0usize;
        let mut fast_buf: Vec<Prepared<D::Sample>> = Vec::with_capacity(total);
        // Pipeline times of the chunk's fast completions (cache hits
        // excluded), handed to the balancer in one call after the loop.
        let mut fast_times: Vec<Duration> = Vec::with_capacity(total);
        // Publishes the buffered fast samples in one queue operation and
        // settles their in-flight claims; false = fast queue closed.
        let flush_fast = |buf: &mut Vec<Prepared<D::Sample>>| -> bool {
            if buf.is_empty() {
                return true;
            }
            let n = buf.len();
            // Record-once-before-retry: the put event fires here, not
            // inside `publish_helping`'s backpressure loop, so retries
            // never inflate event counts.
            rt.trace_queue(EventKind::QueuePut, Q_FAST, buf);
            let ok = rt.publish_helping(&rt.fast_q, std::mem::take(buf)).is_ok();
            rt.in_flight.fetch_sub(n, Ordering::SeqCst);
            ok
        };
        let hold_ns = rt.cfg.starvation_wait.as_nanos() as u64;
        let mut routed = true;
        for ticket in tickets {
            if rt.is_shutdown() {
                break;
            }
            processed += 1;
            let issued_ns = rt.now_ns();
            rt.trace(EventKind::TicketClaimed, ticket.epoch, ticket.seq, 0, 0);
            // Cross-epoch cache: a hit skips load + preprocessing and
            // rides the fast path with its ticket's epoch/seq. It must
            // not reach the balancer — a ~0 ms "completion" would drag
            // the adaptive P75 timeout toward zero.
            if let Some(cache) = rt.cache.as_deref() {
                if let Some(hit) = cache.lookup(ticket.index) {
                    rt.trace(EventKind::CacheHit, ticket.epoch, ticket.seq, 0, 0);
                    fast_buf.push(Prepared {
                        sample: hit.sample,
                        meta: SampleMeta {
                            index: ticket.index,
                            epoch: ticket.epoch,
                            seq: ticket.seq,
                            slow: false,
                            preprocess: Duration::ZERO,
                            bytes: hit.bytes,
                            issued_ns,
                        },
                    });
                    continue; // Stays in flight until the chunk flush.
                }
                rt.trace(EventKind::CacheMiss, ticket.epoch, ticket.seq, 0, 0);
            }
            let t0 = Instant::now();
            // Contained: the in-flight claim has to be released whether
            // or not the dataset or a transform panics.
            let timeout = rt.balancer.current_timeout();
            let (run, panicked, mut guard) = rt.run_contained(
                FaultSite::Fast,
                None,
                (ticket.index, ticket.epoch, ticket.seq),
                |ctx| {
                    let raw = rt.dataset.load(ticket.index)?;
                    // The deadline starts with the pipeline: a slow load
                    // is already paid and cannot be deferred.
                    rt.pipeline.run_ctx(0, raw, ctx.with_timeout(timeout))
                },
            );
            let bytes = rt.dataset.size_hint_bytes(ticket.index).unwrap_or(0);
            let busy = t0.elapsed();
            rt.cpu_meter.add_busy(busy);
            match run {
                Ok(PipelineRun::Completed { value, elapsed }) => {
                    guard.disarm();
                    let meta = SampleMeta {
                        index: ticket.index,
                        epoch: ticket.epoch,
                        seq: ticket.seq,
                        slow: false,
                        preprocess: elapsed,
                        bytes,
                        issued_ns,
                    };
                    fast_times.push(elapsed);
                    if let Some(cache) = rt.cache.as_deref() {
                        cache.admit(ticket.index, &value, bytes, elapsed);
                    }
                    // Stays in flight until the chunk flush below.
                    fast_buf.push(Prepared {
                        sample: value,
                        meta,
                    });
                }
                Ok(PipelineRun::TimedOut {
                    partial,
                    resume_at,
                    elapsed,
                }) => {
                    let meta = SampleMeta {
                        index: ticket.index,
                        epoch: ticket.epoch,
                        seq: ticket.seq,
                        slow: true,
                        preprocess: elapsed, // Updated on background completion.
                        bytes,
                        issued_ns,
                    };
                    // Defer + temp-queue put, recorded once before the
                    // routing retries below.
                    rt.trace(
                        EventKind::SlowDefer,
                        ticket.epoch,
                        ticket.seq,
                        resume_at as u32,
                        elapsed.as_nanos() as u64,
                    );
                    rt.trace(EventKind::QueuePut, ticket.epoch, ticket.seq, Q_TEMP, 0);
                    let deferred = Deferred {
                        partial,
                        resume_at,
                        meta,
                        spent: elapsed,
                        // The partial sample still owns its pool
                        // scratch: hand the ledger to the background
                        // resume instead of repaying.
                        scratch: guard.disarm(),
                    };
                    // A full temp queue means the slow stage is behind —
                    // publish the buffered fast samples first (they'd
                    // sit invisible to the batch worker for the whole
                    // wait), then route with inline helping.
                    routed = match rt.temp_q.try_put(deferred) {
                        Ok(()) => true,
                        Err(TryPutError::Closed(_)) => false,
                        Err(TryPutError::Full(d)) => {
                            flush_fast(&mut fast_buf) && rt.route_deferred(d)
                        }
                    };
                    rt.in_flight.fetch_sub(1, Ordering::SeqCst);
                    if !routed {
                        break; // Queue closed under us: shutting down.
                    }
                }
                Err(e) => {
                    rt.quarantine(ticket.epoch, ticket.seq, panicked, e);
                    rt.in_flight.fetch_sub(1, Ordering::SeqCst);
                }
            }
            // Bounded hold: once this worker has spent `starvation_wait`
            // since it took up the oldest buffered sample, the buffer
            // goes out now instead of at the end of the chunk. "Now" is
            // this sample's issue time plus the time just measured, so
            // the check costs no clock read.
            let held_ns = fast_buf.first().map_or(0, |oldest| {
                (issued_ns + busy.as_nanos() as u64).saturating_sub(oldest.meta.issued_ns)
            });
            if held_ns >= hold_ns && !flush_fast(&mut fast_buf) {
                routed = false;
                break; // Queue closed under us: shutting down.
            }
        }
        // Claims never processed (shutdown or routing failure mid-chunk).
        if processed < total {
            rt.in_flight.fetch_sub(total - processed, Ordering::SeqCst);
        }
        rt.balancer.on_fast_complete_many(&fast_times);
        // Flush the chunk's remaining fast samples in one queue operation.
        if !flush_fast(&mut fast_buf) {
            routed = false;
        }
        rt.maybe_close_sources();
        if !routed || drained {
            StepOutcome::Exhausted
        } else {
            StepOutcome::Progress
        }
    }

    // Belt-and-braces: the fast role finishing implies nothing can be in
    // flight; `maybe_close_sources` in the step body normally closed the
    // queues already (closing is idempotent).
    fn finish(&self) {
        self.rt.fast_q.close();
        self.rt.temp_q.close();
    }
}

/// Slow role: resumes deferred samples from their recorded transform
/// index, without any timeout (Algorithm 1 lines 14–18). One step = one
/// deferred sample, claimed and published on its own, so a finished
/// sample is never withheld behind another's unbounded background work.
///
/// Claiming one at a time also keeps the whole backlog visible in the
/// temp queue: a burst of eight 6 ms samples claimed by one worker would
/// be 45 ms of work serialised on that thread and hidden from the
/// moonlighting fast worker's backlog test ([`Runtime::moonlight`]) and
/// from the workers that share this role once the source has drained.
pub(crate) struct SlowStep<D: Dataset> {
    rt: Arc<Runtime<D>>,
}

impl<D: Dataset> SlowStep<D> {
    pub(crate) fn new(rt: Arc<Runtime<D>>) -> SlowStep<D> {
        SlowStep { rt }
    }
}

impl<D: Dataset> RoleStep for SlowStep<D> {
    fn step(&self) -> StepOutcome {
        let rt = &*self.rt;
        if rt.is_shutdown() {
            return StepOutcome::Exhausted;
        }
        match rt.temp_q.pop_timeout(SLOW_CLAIM_WAIT) {
            Ok(Some(d)) => match rt.resume_and_publish(d) {
                Ok(()) => StepOutcome::Progress,
                Err(Closed) => StepOutcome::Exhausted, // Queue closed under us.
            },
            Ok(None) => StepOutcome::Idle,
            Err(Closed) => StepOutcome::Exhausted, // Closed and drained.
        }
    }

    fn finish(&self) {
        self.rt.slow_q.close();
    }
}

/// Delivers a full batch to the hungriest GPU that can take it.
///
/// Queues are tried least-occupied first with a slot reservation,
/// falling through to the next candidate when one is full — a stalled
/// consumer must not wedge delivery to every other GPU while their
/// queues have space. Only when *all* queues are full does the worker
/// block, and then only for a bounded wait before re-scanning, so a
/// queue freed in the meantime is picked up.
///
/// Reserve-then-publish keeps the device-transfer prefetch hook (§4.3)
/// honest: it fires exactly once, for the GPU whose queue actually
/// claimed the batch, runs outside any queue lock (a slow transfer must
/// not block consumers popping batches already delivered), and finishes
/// before the batch becomes poppable.
fn emit_batch<D: Dataset>(rt: &Runtime<D>, batch: &mut Batch<D::Sample>) -> bool {
    if batch.is_empty() {
        return true;
    }
    let full = std::mem::replace(batch, rt.new_batch());
    let samples = full.len() as u64;
    let bytes = full.bytes();
    // Batch queues are traced at batch granularity, keyed by the first
    // sample (captured here: `publish` consumes the batch).
    let first = full.meta.first().map(|m| (m.epoch, m.seq));
    let mut order: Vec<usize> = (0..rt.batch_qs.len()).collect();
    let (gpu, slot) = 'deliver: loop {
        order.sort_unstable_by_key(|&g| rt.batch_qs[g].len());
        for &gpu in &order {
            match rt.batch_qs[gpu].try_reserve() {
                Ok(slot) => break 'deliver (gpu, slot),
                Err(TryReserveError::Full) => continue,
                Err(TryReserveError::Closed) => return false, // Shutting down.
            }
        }
        // Every queue is full: all GPUs are ahead of preprocessing. Block
        // on the hungriest, but re-scan on timeout in case another
        // consumer freed space first.
        match rt.batch_qs[order[0]].reserve_timeout(rt.cfg.starvation_wait) {
            Ok(slot) => break 'deliver (order[0], slot),
            Err(TryReserveError::Full) => continue,
            Err(TryReserveError::Closed) => return false,
        }
    };
    // Delivered while another GPU's queue sat full: this batch was
    // routed *around* a saturated (possibly wedged) consumer — the
    // fault stats surface how often delivery had to dodge a stall.
    if rt
        .batch_qs
        .iter()
        .enumerate()
        .any(|(g, q)| g != gpu && q.len() >= q.capacity())
    {
        rt.faults.rerouted.incr();
    }
    // Prefetch to the device before the consumer asks (§4.3).
    if let Some(hook) = &rt.transfer_hook {
        hook.transfer(&full, gpu);
    }
    if slot.publish(full).is_err() {
        return false; // Closed while transferring: shutting down.
    }
    if let Some((epoch, seq)) = first {
        rt.trace(EventKind::BatchEmit, epoch, seq, gpu as u32, 0);
        rt.trace(EventKind::QueuePut, epoch, seq, Q_BATCH0 + gpu as u32, 0);
    }
    rt.samples_out.add(samples);
    rt.bytes_out.add(bytes);
    rt.batches_out.incr();
    true
}

/// Assembly state of one batch lane.
struct Lane<D: Dataset> {
    batch: Batch<D::Sample>,
    /// Sticky per-queue completion flags: once a queue reports closed
    /// and drained it can never produce again, so the lane stops
    /// touching it — popping a closed queue returns instantly, and a
    /// step doing that while the *other* queue trickles stragglers
    /// would spin a full core.
    fast_done: bool,
    slow_done: bool,
    /// Order-preserving mode (§6) only: restores strict sampler order
    /// before batching — intentionally reintroducing head-of-line
    /// blocking in exchange for ordering guarantees.
    reorder: Option<ReorderBuffer<Prepared<D::Sample>>>,
    /// Reusable drain buffer of `reorder`: one allocation serves every
    /// pass.
    ready: Vec<Prepared<D::Sample>>,
}

/// Batch role: assembles batches preferring fast samples, falling back
/// to completed slow samples (Algorithm 1 lines 20–30), and feeds the
/// least-occupied per-GPU batch queue. One step = one assembly pass.
///
/// Assembly state lives in *lanes* (one per configured batch worker;
/// exactly one in order-preserving mode, whose reorder buffer cannot be
/// split): a stepping worker locks a free lane, runs one pass, and
/// releases it. The executor caps the role's concurrency at the lane
/// count.
pub(crate) struct BatchStep<D: Dataset> {
    rt: Arc<Runtime<D>>,
    lanes: Vec<Mutex<Lane<D>>>,
    /// Rotates the lane each step starts from, so a lane holding a
    /// partial batch cannot be starved behind an always-free earlier
    /// lane.
    cursor: AtomicUsize,
}

impl<D: Dataset> BatchStep<D> {
    pub(crate) fn new(rt: Arc<Runtime<D>>) -> BatchStep<D> {
        let lane = |reorder| {
            Mutex::new(Lane {
                batch: rt.new_batch(),
                fast_done: false,
                slow_done: false,
                reorder,
                ready: Vec::new(),
            })
        };
        let lanes = if rt.cfg.order_preserving {
            // The ordered stream starts where the delivery log does: on
            // a resumed run at the checkpoint's watermark, with the seqs
            // delivered above it already resolved.
            let log = rt.delivered.lock();
            let mut reorder = ReorderBuffer::new(log.watermark());
            for seq in log.above() {
                reorder.skip(seq);
            }
            vec![lane(Some(reorder))]
        } else {
            (0..rt.cfg.batch_workers.max(1))
                .map(|_| lane(None))
                .collect()
        };
        BatchStep {
            rt,
            lanes,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Number of assembly lanes (the role's max concurrency).
    pub(crate) fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The shuffled pull: drains in bulk up to the remaining batch
    /// budget — fast queue first; completed slow samples are mixed in as
    /// soon as they are ready, never deferred to the end of training
    /// (§4.1) — and waits briefly when neither side has anything.
    // minato-verify: hot-path
    fn pull_burst(
        rt: &Runtime<D>,
        need: usize,
        fast_done: &mut bool,
        slow_done: &mut bool,
    ) -> Vec<Prepared<D::Sample>> {
        // minato-verify: allow(V2) zero-capacity constructor never touches the heap; the backing allocation happens inside try_pop_many
        let mut pulled = Vec::new();
        let mut pulled_q = Q_FAST;
        if !*fast_done {
            match rt.fast_q.try_pop_many(need) {
                Ok(items) => pulled = items,
                Err(Closed) => *fast_done = true,
            }
        }
        if pulled.is_empty() && !*slow_done {
            match rt.slow_q.try_pop_many(need) {
                Ok(items) => {
                    pulled = items;
                    pulled_q = Q_SLOW;
                }
                Err(Closed) => *slow_done = true,
            }
        }
        if pulled.is_empty() && !(*fast_done && *slow_done) {
            // Not enough samples yet: wait briefly on whichever side can
            // still produce (Algorithm 1 line 28; the paper sleeps 10 ms,
            // this is a condvar wait that a put ends at once).
            let (waited, waited_q) = if !*fast_done {
                (
                    rt.fast_q.pop_many_timeout(need, rt.cfg.starvation_wait),
                    Q_FAST,
                )
            } else {
                (
                    rt.slow_q.pop_many_timeout(need, rt.cfg.starvation_wait),
                    Q_SLOW,
                )
            };
            match waited {
                Ok(items) => {
                    pulled = items;
                    pulled_q = waited_q;
                }
                Err(Closed) => {
                    if !*fast_done {
                        *fast_done = true;
                    } else {
                        *slow_done = true;
                    }
                }
            }
        }
        rt.trace_queue(EventKind::QueuePop, pulled_q, &pulled);
        pulled
    }

    /// The ordered pull: one sample per pass through one bounded
    /// blocking pop of the fast queue (classification is off, so nothing
    /// ever reaches the slow queue), offered to `reorder`; what the
    /// buffer releases — possibly a run, possibly nothing — lands in
    /// `lane.ready`. Quarantined seqs are resolved first, so a run
    /// parked behind one is released by this very pass. Returns whether
    /// a sample was popped.
    ///
    /// One sample, not a burst: [`BatchStep::pull_burst`] with parking
    /// producers runs this mode about five times faster on
    /// `noop_ordered`, with a run-to-run spread the benchmark's gate
    /// cannot resolve against today's baseline. Until that workload is
    /// re-frozen, this pull and the producers' help-or-sleep in
    /// [`Runtime::publish_helping`] stay, as a pair (ROADMAP item 3).
    // minato-verify: hot-path
    fn pull_in_order(
        rt: &Runtime<D>,
        reorder: &mut ReorderBuffer<Prepared<D::Sample>>,
        ready: &mut Vec<Prepared<D::Sample>>,
        fast_done: &mut bool,
        slow_done: &mut bool,
    ) -> bool {
        for seq in rt.ordered_gaps.lock().drain(..) {
            reorder.skip(seq);
        }
        let popped = match rt.fast_q.pop_timeout(rt.cfg.starvation_wait) {
            Ok(Some(p)) => {
                rt.trace(EventKind::QueuePop, p.meta.epoch, p.meta.seq, Q_FAST, 0);
                reorder.offer(p.meta.seq, p);
                true
            }
            Ok(None) => false,
            Err(Closed) => {
                *fast_done = true;
                *slow_done = true;
                false
            }
        };
        reorder.drain_ready(ready);
        popped
    }

    /// One assembly pass: pull (a burst, or in order-preserving mode one
    /// sample through the reorder buffer), push, emit on every full
    /// batch.
    // minato-verify: hot-path
    fn assemble(&self, lane: &mut Lane<D>) -> StepOutcome {
        let rt = &*self.rt;
        let Lane {
            batch,
            fast_done,
            slow_done,
            reorder,
            ready,
        } = lane;
        let mut pulled;
        let (progressed, ready) = match reorder {
            Some(reorder) => {
                let popped = Self::pull_in_order(rt, reorder, ready, fast_done, slow_done);
                (popped || !ready.is_empty(), ready)
            }
            None => {
                let need = rt.cfg.batch_size - batch.len();
                pulled = Self::pull_burst(rt, need, fast_done, slow_done);
                (!pulled.is_empty(), &mut pulled)
            }
        };
        for p in ready.drain(..) {
            batch.push(p);
            if batch.len() >= rt.cfg.batch_size && !emit_batch(rt, batch) {
                return StepOutcome::Exhausted;
            }
        }
        if progressed {
            StepOutcome::Progress
        } else if *fast_done && *slow_done {
            StepOutcome::Exhausted
        } else {
            StepOutcome::Idle
        }
    }
}

impl<D: Dataset> RoleStep for BatchStep<D> {
    fn step(&self) -> StepOutcome {
        if self.rt.is_shutdown() {
            return StepOutcome::Exhausted;
        }
        let n = self.lanes.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) % n;
        for i in 0..n {
            let lane = &self.lanes[(start + i) % n];
            if let Some(mut g) = lane.try_lock() {
                return self.assemble(&mut g);
            }
        }
        // Every lane is held by another worker already assembling.
        StepOutcome::Idle
    }

    /// Flushes each lane's leftovers (in ordered mode first the samples
    /// still parked behind a gap nobody reported, then the partial
    /// batch) and closes the batch queues. On the shutdown path the
    /// queues are already closed and the flush emits fail harmlessly.
    fn finish(&self) {
        let rt = &*self.rt;
        for lane in &self.lanes {
            let mut g = lane.lock();
            let lane = &mut *g;
            let parked = lane.reorder.as_mut().map(ReorderBuffer::drain_remaining);
            let mut open = true;
            for p in parked.into_iter().flatten() {
                lane.batch.push(p);
                if lane.batch.len() >= rt.cfg.batch_size && !emit_batch(rt, &mut lane.batch) {
                    open = false;
                    break;
                }
            }
            if open {
                let _ = emit_batch(rt, &mut lane.batch);
            }
        }
        for q in &rt.batch_qs {
            q.close();
        }
    }
}

/// Runs the batch role to completion on the calling thread — the
/// single-worker reference driver used by unit tests (production goes
/// through the executor pool).
#[cfg(test)]
pub(crate) fn batch_worker<D: Dataset>(rt: Arc<Runtime<D>>) {
    let step = BatchStep::new(rt);
    loop {
        if let StepOutcome::Exhausted = RoleStep::step(&step) {
            break;
        }
    }
    step.finish();
}

#[cfg(test)]
mod tests {
    // The role handlers are exercised end-to-end through `MinatoLoader`
    // in `loader.rs` tests and the crate's integration tests; unit tests
    // here cover the pieces with no loader dependency.
    use super::*;
    use crate::balancer::TimeoutPolicy;
    use crate::dataset::{EpochSampler, VecDataset};
    use crate::scheduler::SchedulerConfig;
    use minato_exec::ExecConfig;
    use std::thread;

    fn mini_cfg() -> LoaderConfig {
        LoaderConfig {
            batch_size: 4,
            num_gpus: 1,
            epochs: 1,
            shuffle: false,
            seed: 0,
            initial_workers: 1,
            max_workers: 1,
            slow_workers: 1,
            batch_workers: 1,
            queue_capacity: 16,
            prefetch_factor: 8,
            timeout_policy: TimeoutPolicy::Disabled,
            warmup_samples: 8,
            adaptive_workers: false,
            scheduler: SchedulerConfig::paper_default(1),
            starvation_wait: Duration::from_millis(1),
            order_preserving: false,
            cache_budget_bytes: 0,
            cache_policy: crate::cache::EvictionPolicy::CostAware,
            pool_budget_bytes: 0,
            checkpointing: false,
            trace: minato_trace::TraceConfig::default(),
        }
    }

    type Ds = VecDataset<u32>;

    /// A runtime with no spawned threads: tests drive the role handlers
    /// directly against hand-fed queues.
    fn mini_runtime(cfg: LoaderConfig) -> Arc<Runtime<Ds>> {
        Arc::new(Runtime::new(
            cfg,
            VecDataset::new(Vec::new()),
            Pipeline::identity(),
            Arc::new(EpochSampler::new(0, 1, false, 0)),
            ExecHandle::new(ExecConfig::fixed(0)),
        ))
    }

    fn prepared(i: u32) -> Prepared<u32> {
        Prepared {
            sample: i,
            meta: SampleMeta {
                index: i as usize,
                epoch: 0,
                seq: i as u64,
                slow: true,
                preprocess: Duration::ZERO,
                bytes: 0,
                issued_ns: 0,
            },
        }
    }

    fn deferred(i: u32) -> Deferred<u32> {
        Deferred {
            partial: i,
            resume_at: 0,
            meta: prepared(i).meta,
            spent: Duration::ZERO,
            scratch: None,
        }
    }

    /// A runtime for the back-pressure tests: small internal queues and
    /// a `starvation_wait` of 2 s — so long that a producer which sleeps
    /// it out, instead of being woken by the freed slot, cannot meet the
    /// tests' bound.
    fn backpressure_runtime(capacity: usize) -> Arc<Runtime<Ds>> {
        let mut cfg = mini_cfg();
        cfg.queue_capacity = capacity;
        cfg.starvation_wait = Duration::from_secs(2);
        mini_runtime(cfg)
    }

    /// Yields until `cond` holds; the tests' only way of waiting. Fails
    /// with `what` after 10 s, so a lost wake-up is a failure, not a
    /// hang.
    fn spin_until(what: &str, cond: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed() < Duration::from_secs(10), "{what}");
            thread::yield_now();
        }
    }

    /// Yields until `q` has been locked since `base` was read: the
    /// producer's first (failing) put. From then on only a wake-up (or
    /// the full `starvation_wait`) lets it return.
    fn wait_until_blocked_on<T>(q: &MinatoQueue<T>, base: u64) {
        let what = format!("producer never blocked on the full `{}` queue", q.name());
        spin_until(&what, || q.lock_acquisitions() != base);
    }

    /// A runtime whose sampler issues the tickets `0..n` once, in order,
    /// over a dataset holding those same values.
    fn runtime_over(cfg: LoaderConfig, n: u32, pipeline: Pipeline<u32>) -> Arc<Runtime<Ds>> {
        let mut rt = mini_runtime(cfg);
        let r = Arc::get_mut(&mut rt).expect("sole owner");
        r.dataset = VecDataset::new((0..n).collect());
        r.sampler = Arc::new(EpochSampler::new(n as usize, 1, false, 0));
        r.pipeline = pipeline;
        rt
    }

    /// Numbered gates a transform blocks on until the test opens them.
    struct Gates {
        open: Mutex<u32>,
        cv: Condvar,
    }

    impl Gates {
        fn closed() -> Arc<Gates> {
            Arc::new(Gates {
                open: Mutex::new(0),
                cv: Condvar::new(),
            })
        }

        /// Opens every gate below `n`.
        fn open_below(&self, n: u32) {
            *self.open.lock() = n;
            self.cv.notify_all();
        }

        /// Blocks until gate `k` is open (10 s fail-safe).
        fn pass(&self, k: u32) {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut open = self.open.lock();
            while *open <= k {
                assert!(
                    !self.cv.wait_until(&mut open, deadline).timed_out(),
                    "gate {k} never opened"
                );
            }
        }
    }

    /// Everything `q` holds, as sample values.
    fn drain_values(q: &MinatoQueue<Prepared<u32>>) -> Vec<u32> {
        q.pop_many(usize::MAX).iter().map(|p| p.sample).collect()
    }

    /// Bounded hold: a sample that took longer than `starvation_wait`
    /// is in the fast queue before its worker has finished the next one
    /// of the same chunk.
    #[test]
    fn slow_fast_sample_is_published_before_its_chunk_ends() {
        let gates = Gates::closed();
        let entered = Arc::new(AtomicUsize::new(0));
        let (g, e) = (Arc::clone(&gates), Arc::clone(&entered));
        let pipeline = Pipeline::new(vec![crate::transform::fn_transform("gated", move |x| {
            e.fetch_add(1, Ordering::SeqCst);
            g.pass(x);
            Ok(x)
        })]);
        let rt = runtime_over(mini_cfg(), TICKET_CHUNK as u32, pipeline);
        let rt2 = Arc::clone(&rt);
        let worker = thread::spawn(move || RoleStep::step(&FastStep::new(rt2)));
        // Hold sample 0 inside its transform for `starvation_wait` by
        // this thread's clock; the worker's own measurement spans it.
        spin_until("sample 0 never started", || {
            entered.load(Ordering::SeqCst) == 1
        });
        let t0 = Instant::now();
        spin_until("clock stopped", || t0.elapsed() >= rt.cfg.starvation_wait);
        gates.open_below(1);
        spin_until("sample 1 never started", || {
            entered.load(Ordering::SeqCst) == 2
        });
        // The worker is inside sample 1 of its chunk (gate 1 is shut).
        match rt.fast_q.try_pop() {
            PopResult::Item(p) => assert_eq!(p.sample, 0),
            _ => panic!("sample 0 withheld until the end of its chunk"),
        }
        gates.open_below(u32::MAX);
        assert_eq!(worker.join().unwrap(), StepOutcome::Progress);
        // The others took no time: they left together.
        assert_eq!(rt.fast_q.lock_acquisitions(), 3, "two puts and the pop");
        assert_eq!(drain_values(&rt.fast_q), [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(rt.in_flight.load(Ordering::SeqCst), 0);
    }

    /// The other half of the hold rule: samples far quicker than
    /// `starvation_wait` still enter the fast queue once per chunk.
    #[test]
    fn quick_samples_are_published_once_per_chunk() {
        let mut cfg = mini_cfg();
        // Out of reach of any scheduling hiccup inside a chunk.
        cfg.starvation_wait = Duration::from_secs(10);
        let rt = runtime_over(cfg, 16, Pipeline::identity());
        let step = FastStep::new(Arc::clone(&rt));
        while RoleStep::step(&step) != StepOutcome::Exhausted {}
        assert_eq!(rt.fast_q.total_puts(), 16);
        assert_eq!(rt.fast_q.lock_acquisitions(), 2, "one put per chunk of 8");
        assert!(rt.fast_q.is_closed(), "drained source closed the queue");
    }

    /// Moonlighting: with a temp-queue backlog over the mark, exactly
    /// one of three fast workers completes deferred samples while the
    /// other two drain the sampler; its `in_flight` claim keeps the
    /// close cascade off until it is done, so nothing is lost.
    #[test]
    fn one_fast_worker_moonlights_and_its_claim_holds_the_cascade() {
        const DEFERRED: u32 = 1000;
        let gates = Gates::closed();
        // Deferred samples being completed right now, and the most seen
        // at once. Only the first of them is gated.
        let inside = Arc::new(AtomicUsize::new(0));
        let most = Arc::new(AtomicUsize::new(0));
        let first = Arc::new(AtomicBool::new(true));
        let (g, i, m) = (Arc::clone(&gates), Arc::clone(&inside), Arc::clone(&most));
        let pipeline = Pipeline::new(vec![crate::transform::fn_transform("gated", move |x| {
            if x >= DEFERRED {
                m.fetch_max(i.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                if first.swap(false, Ordering::SeqCst) {
                    g.pass(0);
                }
                i.fetch_sub(1, Ordering::SeqCst);
            }
            Ok(x)
        })]);
        // Mark = `TICKET_CHUNK` × 1 slow worker; the backlog is twice it.
        const BACKLOG: u32 = 2 * TICKET_CHUNK as u32;
        let rt = runtime_over(mini_cfg(), 12, pipeline);
        for k in 0..BACKLOG {
            rt.temp_q.put(deferred(DEFERRED + k)).unwrap();
        }
        let returned = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (rt, returned) = (Arc::clone(&rt), Arc::clone(&returned));
                thread::spawn(move || {
                    let step = FastStep::new(rt);
                    while RoleStep::step(&step) != StepOutcome::Exhausted {}
                    returned.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        // Whichever worker stepped first holds the token and sits in the
        // gated sample; the other two saw the same backlog at every one
        // of their steps, were refused, and drained the sampler.
        spin_until(
            "the other two fast workers never drained the source",
            || returned.load(Ordering::SeqCst) == 2 && inside.load(Ordering::SeqCst) == 1,
        );
        assert_eq!(most.load(Ordering::SeqCst), 1, "two helpers at once");
        assert!(rt.source_drained.load(Ordering::SeqCst));
        // The slow role meanwhile works the queue down and then finds it
        // empty but *open*: had the helper given up its claim, the drain
        // would have closed it, this role would finish and close `slow_q`
        // under the sample the helper still holds.
        let slow = SlowStep::new(Arc::clone(&rt));
        let mut outcome = RoleStep::step(&slow);
        while outcome == StepOutcome::Progress {
            outcome = RoleStep::step(&slow);
        }
        assert_eq!(
            outcome,
            StepOutcome::Idle,
            "temp queue closed under the helper"
        );
        gates.open_below(1);
        for w in workers {
            w.join().unwrap();
        }
        assert!(rt.temp_q.is_closed(), "the helper's last step closes");
        assert_eq!(RoleStep::step(&slow), StepOutcome::Exhausted);
        slow.finish();
        let mut got = drain_values(&rt.fast_q);
        got.extend(drain_values(&rt.slow_q));
        got.sort_unstable();
        let want: Vec<u32> = (0..12).chain(DEFERRED..DEFERRED + BACKLOG).collect();
        assert_eq!(got, want, "every sample exactly once");
        assert!(!rt.slow_helper.load(Ordering::SeqCst), "token handed back");
    }

    /// A producer blocked in `publish_helping` (fast queue full) must
    /// return as soon as the batch side pops, not after
    /// `starvation_wait`.
    #[test]
    fn blocked_publisher_wakes_when_a_slot_is_popped() {
        let rt = backpressure_runtime(4);
        rt.fast_q.put_many((0..4).map(prepared).collect()).unwrap();
        let base = rt.fast_q.lock_acquisitions();
        let rt2 = Arc::clone(&rt);
        let producer = thread::spawn(move || {
            rt2.publish_helping(&rt2.fast_q, (10..13).map(prepared).collect())
        });
        wait_until_blocked_on(&rt.fast_q, base);
        let t0 = Instant::now();
        assert_eq!(rt.fast_q.pop_many(3).len(), 3);
        producer.join().unwrap().expect("queue stayed open");
        let took = t0.elapsed();
        assert!(
            took <= rt.cfg.starvation_wait / 2,
            "publish took {took:?} after the pop"
        );
        // One item through the woken reservation, the rest in bulk,
        // chunk order kept.
        let left: Vec<u32> = rt.fast_q.pop_many(4).iter().map(|p| p.sample).collect();
        assert_eq!(left, [3, 10, 11, 12]);
    }

    /// `route_deferred` on a temp queue whose slots a concurrent
    /// producer holds (reserved, not yet published: full, yet nothing to
    /// help with) must return as soon as one slot is released.
    #[test]
    fn blocked_deferral_wakes_when_a_slot_is_released() {
        let rt = backpressure_runtime(2);
        let mut held = vec![
            rt.temp_q.try_reserve().unwrap(),
            rt.temp_q.try_reserve().unwrap(),
        ];
        let base = rt.temp_q.lock_acquisitions();
        let rt2 = Arc::clone(&rt);
        let producer = thread::spawn(move || rt2.route_deferred(deferred(7)));
        wait_until_blocked_on(&rt.temp_q, base);
        let t0 = Instant::now();
        held.pop();
        assert!(producer.join().unwrap(), "deferral routed");
        let took = t0.elapsed();
        assert!(
            took <= rt.cfg.starvation_wait / 2,
            "routing took {took:?} after the release"
        );
        assert_eq!(rt.temp_q.len(), 1);
    }

    /// Order-preserving mode: with the assembly lane free, a producer
    /// facing a full fast queue assembles batches itself and so never
    /// sleeps.
    #[test]
    fn blocked_publisher_helps_when_nobody_holds_the_batch_role() {
        let mut cfg = mini_cfg();
        cfg.queue_capacity = 4;
        cfg.starvation_wait = Duration::from_secs(2);
        cfg.order_preserving = true;
        let rt = mini_runtime(cfg);
        let step = Arc::new(BatchStep::new(Arc::clone(&rt)));
        assert!(rt.batch_help.set(Arc::downgrade(&step)).is_ok());
        rt.fast_q.put_many((0..4).map(prepared).collect()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let rt2 = Arc::clone(&rt);
        let t0 = Instant::now();
        let producer = thread::spawn(move || {
            let sent = rt2.publish_helping(&rt2.fast_q, (4..16).map(prepared).collect());
            tx.send(sent).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("producer made no progress by helping")
            .expect("queue stayed open");
        let took = t0.elapsed();
        producer.join().unwrap();
        assert!(
            took <= rt.cfg.starvation_wait / 2,
            "publish took {took:?} with helping available"
        );
        // 16 samples: whatever is not still queued left as batches
        // of 4, assembled by the producer.
        let queued = rt.fast_q.len() as u64;
        assert_eq!(rt.samples_out.get() + queued, 16);
        assert!(rt.batches_out.get() >= 3);
    }

    /// Regression test for the batch-worker busy-spin: with `fast_q`
    /// closed and drained but `slow_q` still producing stragglers, the
    /// worker must wait on the slow side instead of hammering the closed
    /// fast queue (whose `pop` returns instantly) at full speed.
    #[test]
    fn batch_worker_does_not_spin_on_closed_fast_queue() {
        let rt = mini_runtime(mini_cfg());
        rt.fast_q.close(); // Fast path fully drained before start.
        let rt2 = Arc::clone(&rt);
        let worker = thread::spawn(move || batch_worker(rt2));
        // Trickle 8 straggler completions over ~80 ms.
        for i in 0..8u32 {
            thread::sleep(Duration::from_millis(10));
            rt.slow_q.put(prepared(i)).unwrap();
        }
        thread::sleep(Duration::from_millis(20));
        let fast_ops = rt.fast_q.lock_acquisitions();
        rt.slow_q.close();
        worker.join().unwrap();
        // One probe tells the worker the fast side is done; anything
        // near the spin regime (tens of thousands of acquisitions over
        // 100 ms) means the fix regressed. Allow generous slack.
        assert!(
            fast_ops <= 8,
            "batch worker kept polling the closed fast queue: {fast_ops} lock acquisitions"
        );
        // The stragglers were still delivered as batches.
        let mut delivered = 0;
        while let Some(b) = rt.batch_qs[0].pop() {
            delivered += b.len();
        }
        assert_eq!(delivered, 8);
    }

    /// Regression test for GPU-feed starvation: a consumer that never
    /// drains its queue must not wedge delivery to the other GPUs once
    /// its queue fills.
    #[test]
    fn emit_batch_falls_through_stalled_queue() {
        let mut cfg = mini_cfg();
        cfg.num_gpus = 2;
        cfg.prefetch_factor = 1;
        cfg.batch_size = 2;
        let rt = mini_runtime(cfg);
        // Wedge GPU 0: park a batch its (absent) consumer never drains,
        // filling the capacity-1 queue.
        let mut parked = Batch::with_capacity(2);
        parked.push(prepared(0));
        parked.push(prepared(1));
        rt.batch_qs[0].put(parked).unwrap();
        assert_eq!(rt.batch_qs[0].len(), 1);
        // Next emissions must fall through to GPU 1 without blocking.
        for i in 0..3u32 {
            let mut b = Batch::with_capacity(2);
            b.push(prepared(10 + i));
            assert!(emit_batch(&*rt, &mut b), "emission {i} wedged");
            // GPU 1 is drained by the test between emissions.
            let got = rt.batch_qs[1].pop().expect("delivered to the live GPU");
            assert_eq!(got.len(), 1);
        }
        assert_eq!(rt.batch_qs[0].len(), 1, "stalled queue untouched");
    }

    /// A slow step with an empty-but-open temp queue reports idle (so a
    /// draining worker bids elsewhere) and exhausted once it closes.
    #[test]
    fn slow_step_reports_idle_then_exhausted() {
        let rt = mini_runtime(mini_cfg());
        let step = SlowStep::new(Arc::clone(&rt));
        assert_eq!(RoleStep::step(&step), StepOutcome::Idle);
        rt.temp_q.close();
        assert_eq!(RoleStep::step(&step), StepOutcome::Exhausted);
        assert!(!rt.slow_q.is_closed(), "finish, not step, closes slow_q");
        step.finish();
        assert!(rt.slow_q.is_closed());
    }

    /// The batch role's lanes cap its concurrency: a second worker
    /// stepping while the only lane is held reports idle instead of
    /// corrupting the partial batch.
    #[test]
    fn batch_step_single_lane_excludes_second_worker() {
        let rt = mini_runtime(mini_cfg());
        let step = Arc::new(BatchStep::new(Arc::clone(&rt)));
        assert_eq!(step.lane_count(), 1);
        let held = step.lanes[0].lock();
        assert_eq!(RoleStep::step(&*step), StepOutcome::Idle);
        drop(held);
    }

    #[test]
    fn deferred_carries_resume_index() {
        let d = Deferred {
            partial: 5u32,
            resume_at: 2,
            meta: SampleMeta {
                index: 0,
                epoch: 0,
                seq: 0,
                slow: true,
                preprocess: Duration::ZERO,
                bytes: 0,
                issued_ns: 0,
            },
            spent: Duration::from_millis(3),
            scratch: None,
        };
        assert_eq!(d.resume_at, 2);
        assert!(d.meta.slow);
    }

    /// A rerouted batch (full queue skipped, delivered elsewhere) must
    /// bump the `rerouted` fault counter; plain deliveries must not.
    #[test]
    fn emit_batch_counts_reroutes() {
        let mut cfg = mini_cfg();
        cfg.num_gpus = 2;
        cfg.prefetch_factor = 1;
        cfg.batch_size = 2;
        let rt = mini_runtime(cfg);
        let mut b = Batch::with_capacity(2);
        b.push(prepared(0));
        assert!(emit_batch(&*rt, &mut b), "plain delivery");
        assert_eq!(rt.faults.rerouted.get(), 0, "no saturated queue yet");
        // The first batch's consumer never drains its capacity-1 queue,
        // so the next delivery dodges a wedged consumer.
        let mut b = Batch::with_capacity(2);
        b.push(prepared(1));
        assert!(emit_batch(&*rt, &mut b));
        assert_eq!(rt.faults.rerouted.get(), 1, "routed around the stall");
    }

    /// `recent_errors` is a bounded ring: the cap holds, old entries
    /// fall out, and distinct later faults stay observable.
    #[test]
    fn recent_errors_ring_is_bounded() {
        let rt = mini_runtime(mini_cfg());
        for i in 0..(RECENT_ERRORS_CAP + 5) {
            rt.record_error(LoaderError::Dataset {
                index: i,
                msg: "boom".into(),
            });
        }
        let ring = rt.recent_errors.lock();
        assert_eq!(ring.len(), RECENT_ERRORS_CAP);
        assert!(
            matches!(ring.back(), Some(LoaderError::Dataset { index, .. }) if *index == RECENT_ERRORS_CAP + 4),
            "newest error must be retained"
        );
        assert!(
            matches!(ring.front(), Some(LoaderError::Dataset { index, .. }) if *index == 5),
            "oldest entries must have fallen out"
        );
        drop(ring);
        assert_eq!(rt.errors.get(), (RECENT_ERRORS_CAP + 5) as u64);
        assert_eq!(
            rt.faults.snapshot().quarantined,
            (RECENT_ERRORS_CAP + 5) as u64
        );
        assert!(
            matches!(
                &*rt.first_error.lock(),
                Some(LoaderError::Dataset { index: 0, .. })
            ),
            "first_error still pins the first fault"
        );
    }
}
