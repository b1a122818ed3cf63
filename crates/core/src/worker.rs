//! The worker step and the shared loader runtime.
//!
//! The runtime wires together the queue topology of Figure 5:
//!
//! ```text
//! sampler → [claim] ── shuffled ──────────→ open batch ──┐
//!             │ └─ ordered: one claimed batch → window ──┤
//!             │ timeout                                  ↓
//!             └→ temp_q → [resume] → open batch     batch_q → training (any GPU)
//! ```
//!
//! Both halves are one step, [`WorkerStep`], the only role of the
//! loader's executor pool: `max_workers` threads plus `slow_workers`
//! when a timeout can defer samples, all active from start to end, none
//! bound to either half. A step claims fast tickets while fewer than
//! `max_workers` threads are in a claim, and otherwise resumes one
//! deferred sample from `temp_q`; so the fast side keeps `max_workers`
//! threads' worth and the slow side the rest (its fixed share),
//! whichever threads they are. Once the sampler is drained every thread
//! resumes, so the deferred backlog at the end of a run is finished by
//! the whole pool.
//!
//! Batches fill in the one open batch the runtime owns (`Runtime::open`),
//! under a short-held lock, and every push goes through one entry point
//! ([`Runtime::deliver_claim`]). In shuffled mode the thread that
//! finished a sample pushes it there itself: a claiming worker every
//! flush of its claim, a resuming (or helping) one every resumed sample.
//! No queue and no batch thread sit between a finished sample and its
//! batch, and a slow sample joins the next batch to fill (§4.1).
//!
//! Order-preserving mode (§6) classifies and defers nothing and works at
//! batch granularity, as PyTorch's DataLoader does. A claim takes
//! one batch of tickets under the window lock, which numbers the claim
//! k in claim order, fills that batch itself and parks it in slot k of
//! the window ([`Runtime::park`]); whoever parks the awaited slot emits
//! the ready run. A worker claims only while k < awaited + R, R =
//! `prefetch_factor × max_workers`, and otherwise waits on the window's
//! condvar, so the reorder depth is bounded. A quarantined sample leaves
//! its batch one short. Lock order: window → batch queue.
//!
//! Shutdown is a close cascade, never a hard stop. A ticket counts in
//! `in_flight` from its claim until its sample is in the open batch or,
//! ordered, until its claim's batch is parked (a quarantined one too); a
//! deferred one across its whole stay in `temp_q`. Once the sampler is
//! drained and nothing is in flight, `maybe_close_sources` closes
//! `temp_q`, emits the open batch and closes the batch queue, in both
//! modes: every parked batch was emitted by then, because a park comes
//! before its release and emits whatever it makes ready. Queues drain
//! after close, so no prepared sample is lost.

use crate::balancer::{BalancerConfig, LoadBalancer};
use crate::batch::{Batch, Prepared, ReorderBuffer, SampleMeta};
use crate::cache::SampleCache;
use crate::checkpoint::DeliveryLog;
use crate::dataset::{Dataset, SampleTicket, Sampler};
use crate::error::LoaderError;
use crate::fault::{FaultAction, FaultInjector, FaultSite, FaultStats};
use crate::loader::LoaderConfig;
use crate::pool::{PoolSet, SampleRecycler};
use crate::profiler::SampleRecord;
use crate::queue::{Closed, MinatoQueue, PopResult, TryPutError, TryReserveError};
use crate::transform::{Pipeline, PipelineRun, ScratchLedger, StageObserver, TransformCtx};
use minato_exec::{ExecHandle, RoleStep, StepOutcome};
use minato_metrics::{Counter, Reservoir};
use minato_trace::{EventKind, Tracer};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a step outside the claim share waits for a deferred sample
/// before it reports idle. A put or the close of the temp queue ends the
/// wait at once, so the bound only sets how often an idle worker looks
/// again for a free place in the claim share.
const SLOW_CLAIM_WAIT: Duration = Duration::from_millis(25);

/// Tickets a shuffled fast worker claims from the sampler per step when
/// there is no cutoff (warm-up, `TimeoutPolicy::Disabled`), and the
/// smallest claim under a cutoff ([`claim_size`]; an order-preserving
/// claim is one batch). A claim amortizes locks only: how long a finished
/// sample may sit in a worker's claim buffer is bounded by
/// `starvation_wait` plus the run of the sample in progress, not by the
/// claim. Times `slow_workers` it is also the temp-queue backlog above
/// which one fast worker at a time completes deferred samples
/// ([`Runtime::moonlight`]).
const TICKET_CHUNK: usize = 8;

/// Tickets a shuffled fast worker claims in one step (an ordered one
/// claims one batch): [`TICKET_CHUNK`] without a cutoff, and under one
/// as many samples as fit in one hold window (`hold / cutoff`), clamped
/// to `TICKET_CHUNK ..= max(TICKET_CHUNK, min(batch_size,
/// queue_capacity))`. So a claim over `TICKET_CHUNK`
/// always has `claim × cutoff ≤ hold`: samples that each run or are
/// deferred within the cutoff fill it before the hold rule would publish
/// it, and cheap samples reach their batch one whole batch per flush.
fn claim_size(
    cutoff: Option<Duration>,
    hold: Duration,
    batch_size: usize,
    queue_capacity: usize,
) -> usize {
    let cap = TICKET_CHUNK.max(batch_size.min(queue_capacity));
    match cutoff {
        Some(c) if !c.is_zero() => {
            let fits = (hold.as_nanos() / c.as_nanos()).min(cap as u128) as usize;
            fits.max(TICKET_CHUNK)
        }
        _ => TICKET_CHUNK,
    }
}

/// Bound on the `recent_errors` ring: enough to see a fault *burst*,
/// small enough that a pathological run cannot grow memory unboundedly.
pub(crate) const RECENT_ERRORS_CAP: usize = 16;

// Queue ids stamped into trace `QueuePut`/`QueuePop` events. The
// collector's `queue_names` follow the same order; the batch queue is
// traced at batch granularity (one event per batch, keyed by its first
// sample).
pub(crate) const Q_TEMP: u32 = 0;
pub(crate) const Q_BATCH: u32 = 1;

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
}

impl FaultCounters {
    pub(crate) fn new() -> FaultCounters {
        FaultCounters {
            panics: Counter::new(),
            poisoned: Counter::new(),
            quarantined: Counter::new(),
        }
    }

    pub(crate) fn snapshot(&self) -> FaultStats {
        FaultStats {
            panics: self.panics.get(),
            poisoned: self.poisoned.get(),
            quarantined: self.quarantined.get(),
        }
    }
}

/// Repays un-recycled pool scratch when a sample execution unwinds.
///
/// Armed by [`Runtime::run_contained`] around every pipeline run that
/// has a pool attached; the success paths call [`ScratchGuard::disarm`],
/// so the `Drop` impl only fires when the run panicked or errored out —
/// exactly the paths that lose their buffers to the unwinding stack.
struct ScratchGuard<'a> {
    /// The pools and the run's ledger; `None` for an unpooled run and
    /// once disarmed.
    armed: Option<(&'a PoolSet, Arc<ScratchLedger>)>,
}

impl ScratchGuard<'_> {
    /// Defuses the guard (the run completed; its buffers live on in the
    /// sample) and hands the ledger back for deferred runs to carry.
    fn disarm(&mut self) -> Option<Arc<ScratchLedger>> {
        self.armed.take().map(|(_, ledger)| ledger)
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if let Some((pools, ledger)) = &self.armed {
            ledger.repay(pools);
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
    /// pooling is disabled (the default). The pipeline runs in place
    /// either way; with pools attached, stages draw fresh buffers from
    /// (and recycle replaced buffers into) this set instead of the
    /// allocator.
    pub pools: Option<Arc<PoolSet>>,
    /// Delivery-side recycle hook attached to every emitted batch, so
    /// the training loop dropping a batch hands sample buffers back to
    /// the pool. `None` when pooling is disabled.
    pub recycler: Option<Arc<dyn SampleRecycler<D::Sample>>>,
    pub temp_q: MinatoQueue<Deferred<D::Sample>>,
    /// Finished batches, `prefetch_factor × num_gpus` deep: every GPU's
    /// consumer pops from it, so the next batch goes to whichever
    /// consumer asks first.
    pub batch_q: MinatoQueue<Batch<D::Sample>>,
    /// Control handle of the executor pool running this loader's steps.
    pub exec: ExecHandle,
    /// The open batch of shuffled mode, carrying the recycler. Held only
    /// to push samples and emit the batches they fill
    /// ([`Runtime::deliver_claim`]).
    pub(crate) open: Mutex<Batch<D::Sample>>,
    /// Order-preserving mode's claim window ([`Window`]), held to claim
    /// a batch of tickets and to park a filled batch; untouched in
    /// shuffled mode.
    pub(crate) window: Mutex<Window<D::Sample>>,
    /// Claimers facing a full window wait here; emitting from the
    /// window and `initiate_shutdown` wake them.
    window_cv: Condvar,
    pub cfg: LoaderConfig,
    /// Tickets claimed from the sampler whose samples are not yet in the
    /// open batch, or ordered in a parked batch, or quarantined (ordered:
    /// not before their claim's batch is parked). A deferred
    /// ticket stays counted while its sample waits in `temp_q` and is
    /// resumed. Together with `source_drained`, this drives the close
    /// cascade without depending on every pool worker exiting.
    pub in_flight: AtomicUsize,
    /// Set once any worker observes the sampler exhausted.
    pub source_drained: AtomicBool,
    /// Set by the one thread that runs the close cascade
    /// ([`Runtime::maybe_close_sources`]).
    closing: AtomicBool,
    /// The single moonlighting token: the claiming worker that holds it is
    /// completing deferred samples between two of its claims (see
    /// [`Runtime::moonlight`]); the others keep producing fast samples.
    pub slow_helper: AtomicBool,
    /// Threads in a claim right now: at most `max_workers`
    /// ([`Runtime::claim_share`]).
    claiming: AtomicUsize,
    pub samples_out: Counter,
    pub bytes_out: Counter,
    pub batches_out: Counter,
    pub first_error: Mutex<Option<LoaderError>>,
    /// Ring of the most recent errors (cap [`RECENT_ERRORS_CAP`]), so a
    /// burst of *distinct* faults stays observable — `first_error` alone
    /// keeps only the oldest and every later fault vanishes.
    pub recent_errors: Mutex<VecDeque<LoaderError>>,
    /// Fault-containment counters snapshot into `LoaderStats.faults`.
    pub faults: FaultCounters,
    /// Seqs delivered to consumers and their end-to-end latency,
    /// recorded by `next_batch` under one lock acquisition per popped
    /// batch.
    pub delivered: Mutex<Deliveries>,
    /// Deterministic fault oracle for the chaos suite; `None` (the
    /// production default) costs one branch per sample.
    pub injector: Option<Arc<dyn FaultInjector>>,
    pub shutdown: AtomicBool,
    /// The monitor thread waits out its refresh interval on this pair,
    /// so `initiate_shutdown` can end the wait at once.
    pub(crate) monitor_lock: Mutex<()>,
    pub(crate) monitor_cv: Condvar,
    pub started_at: Instant,
    /// Lifecycle tracer; `None` when tracing is disabled (the default),
    /// in which case every record site costs one branch and nothing
    /// else.
    pub tracer: Option<Arc<Tracer>>,
    /// Stage observer attached to transform contexts; `Some` iff
    /// `tracer` is `Some` (built once at loader start, cloned per
    /// sample — refcount traffic only).
    pub(crate) stage_obs: Option<Arc<dyn StageObserver>>,
}

/// What `next_batch` records for every popped batch, under one lock.
pub(crate) struct Deliveries {
    /// Every seq popped so far; a checkpoint copies it.
    pub(crate) log: DeliveryLog,
    /// End-to-end delivery latency in milliseconds (ticket issue →
    /// consumer pop), summarized into `LoaderStats::delivery_ms`.
    pub(crate) latency_ms: Reservoir,
}

impl Deliveries {
    /// Records the samples of a batch popped at `now_ns`.
    pub(crate) fn record(&mut self, meta: &[SampleMeta], now_ns: u64) {
        for m in meta {
            self.log.record(m.seq);
            self.latency_ms
                .record(now_ns.saturating_sub(m.issued_ns) as f64 / 1e6);
        }
    }
}

impl<D: Dataset> Runtime<D> {
    /// A runtime over `cfg` with the other opt-in subsystems absent
    /// (cache, pools, fault injector, tracer). Its open batch carries
    /// `recycler`, and its delivery record starts from `log` (a resumed
    /// run's checkpoint). `MinatoLoader::start` sets what else
    /// the builder configured before it shares the runtime; unit tests
    /// drive the worker step against it directly.
    pub(crate) fn new(
        cfg: LoaderConfig,
        dataset: D,
        pipeline: Pipeline<D::Sample>,
        sampler: Arc<dyn Sampler>,
        exec: ExecHandle,
        recycler: Option<Arc<dyn SampleRecycler<D::Sample>>>,
        log: DeliveryLog,
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
            open: Mutex::new(Batch::with_recycler(cfg.batch_size, recycler.clone())),
            recycler,
            window: Mutex::new(Window {
                claimed: 0,
                parked: ReorderBuffer::new(0),
                ready: Vec::new(),
            }),
            window_cv: Condvar::new(),
            temp_q: MinatoQueue::new("temp", cfg.queue_capacity),
            batch_q: MinatoQueue::new("batch", cfg.prefetch_factor * cfg.num_gpus),
            exec,
            in_flight: AtomicUsize::new(0),
            source_drained: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            slow_helper: AtomicBool::new(false),
            claiming: AtomicUsize::new(0),
            samples_out: Counter::new(),
            bytes_out: Counter::new(),
            batches_out: Counter::new(),
            first_error: Mutex::new(None),
            recent_errors: Mutex::new(VecDeque::new()),
            faults: FaultCounters::new(),
            delivered: Mutex::new(Deliveries {
                log,
                latency_ms: Reservoir::new(4096),
            }),
            injector: None,
            shutdown: AtomicBool::new(false),
            monitor_lock: Mutex::new(()),
            monitor_cv: Condvar::new(),
            // One monotonic clock for the whole run: `issued_ns` stamps,
            // the delivery-latency reservoir, and (when enabled) every
            // trace event measure against this instant.
            started_at: Instant::now(),
            tracer: None,
            stage_obs: None,
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

    /// Nanoseconds since loader start — the clock `issued_ns` and the
    /// tracer share.
    // minato-verify: hot-path
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.started_at.elapsed().as_nanos() as u64
    }

    /// Shared bookkeeping for any quarantined sample: bounded
    /// recent-errors ring, first-error slot.
    fn note_error(&self, err: LoaderError) {
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
        self.temp_q.close();
        self.batch_q.close();
        // After the batch queue: an emitter holding the window lock
        // returns once it is closed. The lock orders the wake after a
        // claimer that has checked `shutdown` but not yet started waiting.
        drop(self.window.lock());
        self.window_cv.notify_all();
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

    /// The one contained run of a sample, on every path: fast or
    /// resumed, pooled or not, traced or not. Runs `body` — the one
    /// attempt at a sample: load and/or pipeline run — under the panic
    /// containment both the fast and the slow path need: the close
    /// cascade depends on every step reaching its exit accounting, so a
    /// panicking dataset or transform degrades to a recorded error for
    /// this sample instead of unwinding the worker. The fault injector
    /// is consulted once, before `body`; a failure stands and the caller
    /// quarantines the sample.
    ///
    /// `body` gets a context built in place: no deadline (the fast path
    /// sets its own where the pipeline starts), the stage observer when
    /// tracing, and the buffer pools with the run's scratch ledger when
    /// pooling. `ledger` carries a deferred sample's ledger into its
    /// background resume; a fresh run passes `None` and gets a new one.
    /// Returns the run's result, whether it panicked, and its scratch
    /// guard (armed only when pools are attached), which repays pool
    /// scratch the run never recycled unless the caller disarms it.
    fn run_contained(
        &self,
        site: FaultSite,
        ledger: Option<Arc<ScratchLedger>>,
        (index, epoch, seq): (usize, usize, u64),
        body: impl FnOnce(TransformCtx) -> crate::error::Result<PipelineRun<D::Sample>>,
    ) -> (
        crate::error::Result<PipelineRun<D::Sample>>,
        bool,
        ScratchGuard<'_>,
    ) {
        let guard = ScratchGuard {
            armed: self
                .pools
                .as_deref()
                .map(|p| (p, ledger.unwrap_or_else(|| Arc::new(ScratchLedger::new())))),
        };
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
            let mut ctx = TransformCtx::unbounded();
            if let Some(obs) = &self.stage_obs {
                let epoch = epoch.min(u16::MAX as usize) as u16;
                ctx = ctx.with_observer(Arc::clone(obs), epoch, seq);
            }
            if let (Some(pools), Some((_, ledger))) = (&self.pools, &guard.armed) {
                ctx = ctx
                    .with_pool(Arc::clone(pools))
                    .with_scratch(Arc::clone(ledger));
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
    /// `FaultHit` event, then the panic or clean-error accounting.
    fn quarantine(&self, epoch: usize, seq: u64, panicked: bool, err: LoaderError) {
        self.trace(EventKind::FaultHit, epoch, seq, u32::from(panicked), 0);
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

    /// The close cascade, run once, by whichever thread first sees the
    /// sampler drained with nothing in flight: every sample is then in
    /// the open batch, or in an emitted batch, or quarantined. Closes
    /// `temp_q`, emits the open batch and closes the batch queue: the
    /// end of the run for the consumers. On the shutdown path the queues
    /// are already closed and the emit fails harmlessly.
    ///
    /// Called after every `in_flight` release that can be the last: the
    /// end of a claim and each resumed sample's delivery. The release
    /// and the drained flag are both `SeqCst`, so of two threads racing
    /// over the last release and the flag, one sees both.
    fn maybe_close_sources(&self) {
        if !self.source_drained.load(Ordering::SeqCst)
            || self.in_flight.load(Ordering::SeqCst) != 0
            || self.closing.swap(true, Ordering::AcqRel)
        {
            return;
        }
        self.temp_q.close();
        let last = std::mem::replace(&mut *self.open.lock(), self.new_batch());
        let _ = emit_batch(self, last);
        self.batch_q.close();
    }

    // ------------------------------------------------------------------
    // Backpressure helping.
    //
    // A claiming worker facing a full temp queue does not wait for the
    // resuming steps to drain it: it completes one deferred sample inline
    // (`route_deferred`), which also frees the slot it needs. A finished
    // sample goes into the open batch in shuffled mode, so the chain
    // bottoms out at the batch queue, which only the external consumers
    // drain — the one place where waiting is correct backpressure. In
    // order-preserving mode the window is the back-pressure: a claimer
    // waits for room in it (`claim_batch`), and the emitter of the
    // awaited batch waits on the batch queue.
    // ------------------------------------------------------------------

    /// Completes one deferred sample on the (timeout-free) slow path:
    /// resume from its recorded transform index, feed the balancer, admit
    /// to the cache. Returns `None` when the sample errored (already
    /// recorded).
    fn complete_one(&self, d: Deferred<D::Sample>) -> Option<Prepared<D::Sample>> {
        let resume_at = d.resume_at;
        let (index, seq) = (d.meta.index, d.meta.seq);
        let epoch = d.meta.epoch;
        let (run, panicked, mut guard) =
            self.run_contained(FaultSite::Slow, d.scratch, (index, epoch, seq), |ctx| {
                self.pipeline.run_ctx(resume_at, d.partial, ctx)
            });
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
    /// delivers it into the open batch: one unit of slow-side work,
    /// whoever runs it. Its ticket leaves `in_flight` only after the push
    /// (or the quarantine), so the close cascade cannot flush the open
    /// batch under it. False once the batch queue closed (shutting
    /// down).
    fn resume_and_deliver(&self, d: Deferred<D::Sample>) -> bool {
        debug_assert!(!self.cfg.order_preserving, "ordered mode defers nothing");
        self.trace(EventKind::QueuePop, d.meta.epoch, d.meta.seq, Q_TEMP, 0);
        let delivered = match self.complete_one(d) {
            Some(p) => self.deliver_claim(std::iter::once(p)),
            None => true, // Errored: already recorded.
        };
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.maybe_close_sources();
        delivered
    }

    /// Pops one deferred sample from the temp queue and completes it
    /// inline (a claiming worker helping the slow side).
    /// Returns whether anything was there to help with.
    fn help_slow_once(&self) -> bool {
        match self.temp_q.try_pop() {
            PopResult::Item(d) => {
                self.resume_and_deliver(d);
                true
            }
            _ => false,
        }
    }

    /// Early slow-path help, run by a claiming worker between two claims:
    /// when the temp-queue backlog exceeds `TICKET_CHUNK` per slow
    /// worker, the one worker that wins the `slow_helper` token
    /// completes deferred samples until the backlog is back under that
    /// mark. The other claiming workers keep producing, so the temp
    /// queue stays short without the fast path ever stopping as a whole
    /// (which is what happens when it fills up and every worker helps
    /// inline from [`Runtime::route_deferred`], still the progress
    /// backstop). Each deferred sample holds its own ticket in
    /// `in_flight` until it is delivered, so the close cascade waits for
    /// it whoever completes it.
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

    /// A place in the claim share: `Some` while the sampler is not known
    /// to be drained and fewer than `max_workers` threads are in a claim.
    /// The place is given back when the guard drops, on every path out
    /// of the claim; a refused step gives back what it took at once.
    fn claim_share(&self) -> Option<ClaimShare<'_>> {
        if self.source_drained.load(Ordering::SeqCst) {
            return None;
        }
        let ahead = self.claiming.fetch_add(1, Ordering::AcqRel);
        let share = ClaimShare(&self.claiming);
        (ahead < self.cfg.max_workers).then_some(share)
    }

    /// Tickets the next claim takes: one batch in order-preserving
    /// mode, otherwise [`claim_size`] under the balancer's current cutoff.
    fn fast_claim(&self) -> usize {
        if self.cfg.order_preserving {
            return self.cfg.batch_size;
        }
        claim_size(
            self.balancer.current_timeout(),
            self.cfg.starvation_wait,
            self.cfg.batch_size,
            self.cfg.queue_capacity,
        )
    }

    /// The one entry point into the open batch: locks it, pushes
    /// `claim` oldest first, and emits each batch that fills: a fast
    /// worker's flush or one resumed slow sample, in shuffled mode.
    /// False once the batch queue closed (shutting down).
    fn deliver_claim(&self, claim: impl IntoIterator<Item = Prepared<D::Sample>>) -> bool {
        let mut open = self.open.lock();
        for p in claim {
            open.push(p);
            if open.len() >= self.cfg.batch_size {
                let full = std::mem::replace(&mut *open, self.new_batch());
                if !emit_batch(self, full) {
                    return false;
                }
            }
        }
        true
    }

    /// Order-preserving mode: takes up to `n` tickets from the sampler
    /// and the number of their claim, waiting while the window is full:
    /// claims run at most R = `prefetch_factor × max_workers` ahead of
    /// the awaited one, PyTorch's bound. The sampler is read under the
    /// window lock, so claim order is sampler order. An empty claim
    /// takes no number. `None` on shutdown.
    fn claim_batch(&self, n: usize) -> Option<(u64, Vec<SampleTicket>)> {
        let r = (self.cfg.prefetch_factor * self.cfg.max_workers) as u64;
        let mut w = self.window.lock();
        while w.claimed >= w.parked.next_seq() + r && !self.is_shutdown() {
            self.window_cv.wait(&mut w);
        }
        if self.is_shutdown() {
            return None;
        }
        let tickets = self.sampler.next_many(n);
        let k = w.claimed;
        w.claimed += u64::from(!tickets.is_empty());
        Some((k, tickets))
    }

    /// Order-preserving mode: parks claim `k`'s batch in the window and,
    /// when `k` is the awaited claim, emits the ready run in claim order
    /// and wakes the claimers waiting for room. A batch is emitted under
    /// the window lock, so emits never overtake one another. False once
    /// the batch queue closed (shutting down).
    fn park(&self, k: u64, samples: impl IntoIterator<Item = Prepared<D::Sample>>) -> bool {
        let mut batch = self.new_batch();
        samples.into_iter().for_each(|p| batch.push(p));
        let mut w = self.window.lock();
        let Window { parked, ready, .. } = &mut *w;
        parked.offer(k, batch);
        parked.drain_ready(ready);
        if ready.is_empty() {
            return true;
        }
        let emitted = ready.drain(..).all(|b| emit_batch(self, b));
        drop(w);
        self.window_cv.notify_all();
        emitted
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

/// Gives a place in the claim share back when dropped
/// ([`Runtime::claim_share`]).
struct ClaimShare<'a>(&'a AtomicUsize);

impl Drop for ClaimShare<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The one worker step (Algorithm 1): every thread of the loader's pool
/// runs it. While the sampler has tickets and fewer than `max_workers`
/// threads are in a claim, a step claims fast tickets
/// ([`WorkerStep::claim`]); otherwise it resumes one deferred sample
/// ([`WorkerStep::resume`]), waiting at most [`SLOW_CLAIM_WAIT`] for one.
/// So the slow side is a fixed share of the pool, `slow_workers`
/// threads' worth, served by whichever threads find the claim share
/// full. A claim that finds the sampler drained goes on to resume in
/// the same step, and from then on every step resumes, until the close
/// cascade closes `temp_q` and each thread sees it closed and drained.
///
/// **Claim** (lines 6–12): load, preprocess against the balancer's
/// timeout, and route each sample to its batch or to the temp queue.
/// One claim is, in shuffled mode, eight tickets by default, and under
/// a cutoff as many as fit in one hold window, up to one batch (at most
/// `queue_capacity`); in order-preserving mode exactly one batch,
/// numbered in the window.
///
/// Completed fast samples accumulate in a claim-local buffer so that
/// the dominant per-sample cost (a lock acquisition) is paid once per
/// flush, not once per sample. In shuffled mode every flush goes into
/// the open batch, which the worker emits when it fills
/// ([`Runtime::deliver_claim`]), and which samples share a batch
/// follows the order of the flushes alone, not which of them the hold
/// rule split. A finished sample is withheld from its batch for at most
/// `starvation_wait` plus the run of the sample in progress: once the
/// worker has spent `starvation_wait` since it took up the oldest
/// buffered sample, it publishes the buffer at the next sample
/// boundary. Samples that take microseconds therefore still publish
/// once per claim, samples that take milliseconds one by one, and the
/// claim never re-creates the head-of-line wait the fast path exists to
/// remove. The caveat is a transform that ignores its deadline: it can
/// hold up to claim − 1 finished samples of its worker for its whole
/// run. Timed-out samples go to the temp queue at once, their tickets
/// still in flight: deferring a deferral would delay its background
/// completion for no benefit.
///
/// In order-preserving mode the buffer is the claim's batch: it leaves
/// once, parked in the window ([`Runtime::park`]), and a sample that
/// interrupts itself with no deadline set is quarantined, as PyTorch's
/// DataLoader skips it.
///
/// Between two claims, one claiming worker at a time moonlights on slow
/// overflow ([`Runtime::moonlight`]), and a claim that meets a full temp
/// queue completes deferred samples inline ([`Runtime::route_deferred`]).
///
/// In shuffled mode an untraced, uncached sample reads the clock twice:
/// where [`TransformCtx::with_timeout`] anchors the deadline after the
/// load, and at the end of [`Pipeline::run_ctx`]. Its start (`t0`,
/// which also gives `issued_ns`) is where the previous sample's run
/// ended, its `anchor + elapsed`, already known. The clock is read for
/// `t0` only at the claim's first sample and after anything between
/// two samples that can block or take a lock: a flush, a deferral, a
/// quarantine, a cache hit or admission (with a cache attached every
/// sample reads its own). A sample's busy time is
/// `anchor − t0 + elapsed`, which the hold rule reads.
///
/// An uncached order-preserving claim has no deadline, no hold rule
/// and no admission to feed, so it reads the clock twice in all, not
/// per sample: at its start, which is every sample's `t0` and
/// `issued_ns`, and after its last sample. Its samples run untimed
/// ([`TransformCtx::untimed`]); each completed one reports the claim's
/// wall time divided by the number completed as its `preprocess`, and
/// the balancer receives the same share per sample. With a cache
/// attached an ordered claim times each sample as shuffled mode does,
/// since cost-aware admission weighs a sample's own cost. A stage
/// observer (tracing) still times each step in both modes.
///
/// **Resume** (lines 14–18, with the batch worker's merge done by the
/// thread that finished the sample): one deferred sample from its
/// recorded transform index, without any timeout, delivered into the
/// open batch on its own, so a finished sample is never withheld behind
/// another's unbounded background work. Taking one at a time also keeps
/// the whole backlog visible in the temp queue, to the moonlighting
/// worker's backlog test and to every thread once the source has
/// drained.
pub(crate) struct WorkerStep<D: Dataset> {
    rt: Arc<Runtime<D>>,
}

impl<D: Dataset> WorkerStep<D> {
    pub(crate) fn new(rt: Arc<Runtime<D>>) -> WorkerStep<D> {
        WorkerStep { rt }
    }

    /// One claim; `Exhausted` once the sampler is found drained or the
    /// queues closed under it (shutting down).
    fn claim(&self) -> StepOutcome {
        let rt = &*self.rt;
        if rt.is_shutdown() {
            return StepOutcome::Exhausted;
        }
        let claim = rt.fast_claim();
        // Claim accounting: raise `in_flight` *before* taking tickets so
        // a concurrent worker observing the drained sampler cannot close
        // the queues while these samples are between claim and routing.
        rt.in_flight.fetch_add(claim, Ordering::SeqCst);
        // Between two claims. Once the source is drained, every step
        // resumes.
        if !rt.source_drained.load(Ordering::SeqCst) {
            rt.moonlight();
        }
        // Order-preserving mode parks the claim in its window slot.
        let (slot, tickets) = if rt.cfg.order_preserving {
            match rt.claim_batch(claim) {
                Some((k, tickets)) => (Some(k), tickets),
                None => {
                    rt.in_flight.fetch_sub(claim, Ordering::SeqCst);
                    return StepOutcome::Exhausted; // Shutting down.
                }
            }
        } else {
            (None, rt.sampler.next_many(claim))
        };
        let drained = tickets.len() < claim;
        if drained {
            rt.in_flight
                .fetch_sub(claim - tickets.len(), Ordering::SeqCst);
            rt.source_drained.store(true, Ordering::SeqCst);
        }
        if tickets.is_empty() {
            rt.maybe_close_sources();
            return StepOutcome::Exhausted;
        }
        let total = tickets.len();
        let mut processed = 0usize;
        // Quarantined tickets, released with the claim's last flush: an
        // ordered claim holds the close cascade until its batch is
        // parked, also when nothing in it survived.
        let mut failed = 0usize;
        let mut fast_buf: Vec<Prepared<D::Sample>> = Vec::with_capacity(total);
        // Pipeline times of the claim's fast completions (cache hits
        // excluded), handed to the balancer in one call after the loop.
        let mut fast_times: Vec<Duration> = Vec::with_capacity(total);
        // Publishes the buffered fast samples and settles their in-flight
        // claims; false = batch queue closed. A shuffled flush pushes
        // them into the open batch; an ordered one (`slot`, the claim's
        // last) parks them as the claim's batch, also when there are none.
        let flush_fast = |buf: &mut Vec<Prepared<D::Sample>>, slot: Option<u64>| -> bool {
            let n = buf.len();
            let ok = match slot {
                Some(k) => rt.park(k, buf.drain(..)),
                None if n == 0 => return true,
                None => rt.deliver_claim(buf.drain(..)),
            };
            // Only now: the close cascade runs at `in_flight == 0`.
            rt.in_flight.fetch_sub(n, Ordering::SeqCst);
            ok
        };
        // An ordered claim leaves once, whole: no hold rule.
        let hold_ns = match slot {
            Some(_) => u64::MAX,
            None => rt.cfg.starvation_wait.as_nanos() as u64,
        };
        let mut routed = true;
        // An uncached ordered claim is timed as a whole (see above):
        // its start, read here, is every sample's start.
        let claim_t0 = (slot.is_some() && rt.cache.is_none()).then(Instant::now);
        // Where the previous sample's run ended, and so where the next
        // one starts; `None` where the next sample reads its start itself.
        let mut chain: Option<Instant> = None;
        for ticket in tickets {
            if rt.is_shutdown() {
                break;
            }
            processed += 1;
            // The sample's start, which also stamps its issue time: the
            // claim's start in an untimed claim, else a clock read only
            // when the chain was cut.
            let t0 = claim_t0
                .or_else(|| chain.take())
                .unwrap_or_else(Instant::now);
            let issued_ns = t0.saturating_duration_since(rt.started_at).as_nanos() as u64;
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
                    continue; // Stays in flight until the claim flush.
                }
                rt.trace(EventKind::CacheMiss, ticket.epoch, ticket.seq, 0, 0);
            }
            // Contained: the in-flight claim has to be released whether
            // or not the dataset or a transform panics.
            let timeout = rt.balancer.current_timeout();
            let mut anchor = None;
            let (run, panicked, mut guard) = rt.run_contained(
                FaultSite::Fast,
                None,
                (ticket.index, ticket.epoch, ticket.seq),
                |ctx| {
                    let raw = rt.dataset.load(ticket.index)?;
                    let ctx = if claim_t0.is_some() {
                        ctx.untimed()
                    } else {
                        // The deadline starts with the pipeline: a slow
                        // load is already paid and cannot be deferred.
                        // Clock read 1 of 2: the anchor the deadline and
                        // `elapsed` share.
                        let ctx = ctx.with_timeout(timeout);
                        anchor = ctx.anchor();
                        ctx
                    };
                    // Clock read 2 of 2, if timed: the end, in `run_ctx`.
                    rt.pipeline.run_ctx(0, raw, ctx)
                },
            );
            let bytes = rt.dataset.size_hint_bytes(ticket.index).unwrap_or(0);
            // The end of the run is its anchor plus its `elapsed`, so the
            // busy time (the load, start to anchor, plus the run) that the
            // hold rule below reads needs no clock read of its own; only a
            // failed run, which reports no `elapsed`, reads the clock here.
            // An untimed run has no hold rule to feed.
            let end = match (&run, anchor) {
                (
                    Ok(
                        PipelineRun::Completed { elapsed, .. }
                        | PipelineRun::TimedOut { elapsed, .. },
                    ),
                    Some(a),
                ) => a + *elapsed,
                _ if claim_t0.is_some() => t0,
                _ => Instant::now(),
            };
            let busy = end.saturating_duration_since(t0);
            let run = match run {
                Ok(PipelineRun::TimedOut { resume_at, .. }) if slot.is_some() => {
                    Err(LoaderError::Transform {
                        name: rt.pipeline.steps()[resume_at].name().to_string(),
                        msg: "interrupted with no deadline set".into(),
                    })
                }
                run => run,
            };
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
                    match rt.cache.as_deref() {
                        Some(cache) => cache.admit(ticket.index, &value, bytes, elapsed),
                        // Nothing up to the next sample can block or
                        // take a lock, unless the hold rule flushes
                        // below: it starts where this run ended.
                        None => chain = Some(end),
                    }
                    // Stays in flight until the claim flush below.
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
                    // sit invisible to the consumers for the whole
                    // wait), then route with inline helping.
                    routed = match rt.temp_q.try_put(deferred) {
                        Ok(()) => true,
                        Err(TryPutError::Closed(_)) => false,
                        Err(TryPutError::Full(d)) => {
                            flush_fast(&mut fast_buf, None) && rt.route_deferred(d)
                        }
                    };
                    // A routed ticket stays in flight until its resumed
                    // sample is delivered ([`Runtime::resume_and_deliver`]).
                    if !routed {
                        rt.in_flight.fetch_sub(1, Ordering::SeqCst);
                        break; // Queue closed under us: shutting down.
                    }
                }
                Err(e) => {
                    rt.quarantine(ticket.epoch, ticket.seq, panicked, e);
                    failed += 1;
                }
            }
            // Bounded hold: once this worker has spent `starvation_wait`
            // since it took up the oldest buffered sample, the buffer
            // goes out now instead of at the end of the claim. "Now" is
            // this sample's issue time plus the time just measured, so
            // the check costs no clock read.
            let held_ns = fast_buf.first().map_or(0, |oldest| {
                (issued_ns + busy.as_nanos() as u64).saturating_sub(oldest.meta.issued_ns)
            });
            if held_ns >= hold_ns {
                // The flush takes the open batch's lock and may wait on
                // a full batch queue: the next sample reads its start.
                chain = None;
                if !flush_fast(&mut fast_buf, None) {
                    routed = false;
                    break; // Queue closed under us: shutting down.
                }
            }
        }
        // An untimed claim's second clock read: its wall time, shared
        // evenly by the samples it completed.
        if let (Some(t0), n @ 1..) = (claim_t0, fast_buf.len()) {
            let each = t0.elapsed() / n as u32;
            for p in &mut fast_buf {
                p.meta.preprocess = each;
            }
            fast_times.fill(each);
        }
        rt.balancer.on_fast_complete_many(&fast_times);
        // Flush the claim's remaining fast samples in one operation.
        if !flush_fast(&mut fast_buf, slot) {
            routed = false;
        }
        // Then the quarantined tickets and those never processed
        // (shutdown or routing failure mid-claim).
        let unsettled = failed + total - processed;
        if unsettled > 0 {
            rt.in_flight.fetch_sub(unsettled, Ordering::SeqCst);
        }
        rt.maybe_close_sources();
        if !routed || drained {
            StepOutcome::Exhausted
        } else {
            StepOutcome::Progress
        }
    }

    /// One deferred sample from the temp queue, resumed and delivered;
    /// `Idle` when none came within [`SLOW_CLAIM_WAIT`], `Exhausted` once
    /// the queue is closed and drained or the batch queue closed.
    fn resume(&self) -> StepOutcome {
        let rt = &*self.rt;
        if rt.is_shutdown() {
            return StepOutcome::Exhausted;
        }
        match rt.temp_q.pop_timeout(SLOW_CLAIM_WAIT) {
            Ok(Some(d)) => {
                if rt.resume_and_deliver(d) {
                    StepOutcome::Progress
                } else {
                    StepOutcome::Exhausted // Batch queue closed: shutting down.
                }
            }
            Ok(None) => StepOutcome::Idle,
            Err(Closed) => StepOutcome::Exhausted, // Closed and drained.
        }
    }
}

impl<D: Dataset> RoleStep for WorkerStep<D> {
    fn step(&self) -> StepOutcome {
        if let Some(_share) = self.rt.claim_share() {
            let out = self.claim();
            if out == StepOutcome::Progress || self.rt.is_shutdown() {
                return out;
            }
            // The claim found the sampler drained: resume from now on.
        }
        self.resume()
    }
}

/// Puts a batch into the batch queue, blocking while it is full; an
/// empty batch is dropped. Returns false once the queue is closed
/// (shutting down). Every GPU's consumer pops from the one queue, so a
/// consumer that stops popping holds back no batch from the others.
///
/// Callers emit under the lock of the batch's source (lock order: open
/// batch or window → batch queue), so the worker whose push fills the
/// open batch, or whose park releases a run of the window, blocks on a
/// full batch queue as a batch worker would.
// minato-verify: hot-path
fn emit_batch<D: Dataset>(rt: &Runtime<D>, full: Batch<D::Sample>) -> bool {
    if full.is_empty() {
        return true;
    }
    let samples = full.len() as u64;
    let bytes = full.bytes();
    // The batch queue is traced at batch granularity, keyed by the first
    // sample (captured here: `put` consumes the batch).
    let first = full.meta.first().map(|m| (m.epoch, m.seq));
    if rt.batch_q.put(full).is_err() {
        return false;
    }
    if let Some((epoch, seq)) = first {
        rt.trace(EventKind::BatchEmit, epoch, seq, 0, 0);
        rt.trace(EventKind::QueuePut, epoch, seq, Q_BATCH, 0);
    }
    rt.samples_out.add(samples);
    rt.bytes_out.add(bytes);
    rt.batches_out.incr();
    true
}

/// Order-preserving mode's claim window: claims numbered in claim
/// order, and the filled batches parked until every earlier claim's
/// batch is emitted.
pub(crate) struct Window<S: 'static> {
    /// Claims numbered so far: the next claim is number `claimed`.
    claimed: u64,
    /// Parked batches by claim number; its `next_seq` is the awaited
    /// claim.
    parked: ReorderBuffer<Batch<S>>,
    /// Reusable drain buffer of `parked`.
    ready: Vec<Batch<S>>,
}

#[cfg(test)]
mod tests {
    // The role handlers are exercised end-to-end through `MinatoLoader`
    // in `loader.rs` tests and the crate's integration tests; unit tests
    // here cover the pieces with no loader dependency.
    use super::*;
    use crate::balancer::TimeoutPolicy;
    use crate::dataset::{EpochSampler, VecDataset};
    use minato_exec::ExecConfig;
    use std::thread;

    fn mini_cfg() -> LoaderConfig {
        LoaderConfig {
            batch_size: 4,
            num_gpus: 1,
            epochs: 1,
            shuffle: false,
            seed: 0,
            max_workers: 1,
            slow_workers: 1,
            queue_capacity: 16,
            prefetch_factor: 8,
            timeout_policy: TimeoutPolicy::Disabled,
            warmup_samples: 8,
            monitor_interval: Duration::from_millis(100),
            starvation_wait: Duration::from_millis(1),
            order_preserving: false,
            cache_budget_bytes: 0,
            cache_policy: crate::cache::EvictionPolicy::CostAware,
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
            None,
            DeliveryLog::new(),
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

    /// The samples of every emitted batch, in emission order, then those
    /// still in the open batch.
    fn emitted_and_open(rt: &Runtime<Ds>) -> Vec<u32> {
        let mut got: Vec<u32> = rt
            .batch_q
            .try_pop_many(usize::MAX)
            .unwrap_or_default()
            .into_iter()
            .flat_map(Batch::into_samples)
            .collect();
        got.append(&mut rt.open.lock().samples);
        got
    }

    /// A config under which [`claim_size`] is one batch of 64: a 1 µs
    /// cutoff, batch and queue capacity 64.
    fn batch_claim_cfg() -> LoaderConfig {
        let mut cfg = mini_cfg();
        cfg.timeout_policy = TimeoutPolicy::Fixed(Duration::from_micros(1));
        cfg.batch_size = 64;
        cfg.queue_capacity = 64;
        cfg
    }

    #[test]
    fn claim_is_eight_without_a_cutoff_and_one_batch_under_a_cheap_one() {
        let ms = Duration::from_millis(1);
        assert_eq!(claim_size(None, ms, 64, 100), TICKET_CHUNK, "no cutoff");
        // A cutoff at or above an eighth of the hold window: eight.
        assert_eq!(claim_size(Some(ms / 8), ms, 64, 100), TICKET_CHUNK);
        assert_eq!(claim_size(Some(ms), ms, 64, 100), TICKET_CHUNK);
        // `noop_tax`: a 69 ns cutoff fills one batch.
        let cheap = Some(Duration::from_nanos(69));
        assert_eq!(claim_size(cheap, ms, 64, 100), 64);
        assert_eq!(claim_size(cheap, ms, 4, 100), TICKET_CHUNK, "batch 4");
        assert_eq!(claim_size(cheap, ms, 64, 16), 16, "queue capacity caps it");
        assert_eq!(claim_size(cheap, ms, 64, 4), TICKET_CHUNK);
        assert_eq!(claim_size(Some(Duration::ZERO), ms, 64, 100), TICKET_CHUNK);
    }

    /// Order-preserving mode runs with the timeout disabled (the
    /// builder admits no other policy there), where a shuffled claim is
    /// eight, and claims exactly one batch whatever its size: one below
    /// eight, and one over the queue capacity that caps a shuffled claim.
    #[test]
    fn order_preserving_mode_claims_one_batch() {
        let mut cfg = batch_claim_cfg();
        assert_eq!(mini_runtime(cfg.clone()).fast_claim(), 64);
        cfg.timeout_policy = TimeoutPolicy::Disabled;
        assert_eq!(mini_runtime(cfg.clone()).fast_claim(), TICKET_CHUNK);
        cfg.order_preserving = true;
        for batch in [4, 64, 100] {
            cfg.batch_size = batch;
            assert_eq!(mini_runtime(cfg.clone()).fast_claim(), batch);
        }
    }

    #[test]
    fn a_claim_over_eight_fits_in_one_hold_window() {
        let hold = Duration::from_millis(1);
        for cutoff_ns in (1..=200_000u64).step_by(997) {
            let cutoff = Duration::from_nanos(cutoff_ns);
            for (batch, capacity) in [(4, 100), (8, 100), (24, 16), (64, 100), (256, 1000)] {
                let claim = claim_size(Some(cutoff), hold, batch, capacity);
                assert!(claim >= TICKET_CHUNK);
                assert!(claim <= TICKET_CHUNK.max(batch.min(capacity)));
                if claim > TICKET_CHUNK {
                    assert!(cutoff * claim as u32 <= hold, "{claim} × {cutoff:?}");
                }
            }
        }
    }

    /// Bounded hold: a sample that took longer than `starvation_wait`
    /// is published into the open batch before its worker has finished
    /// the next one of the same claim (a claim of eight, and one of a
    /// whole batch).
    #[test]
    fn slow_fast_sample_is_published_before_its_chunk_ends() {
        for (mut cfg, n) in [(mini_cfg(), TICKET_CHUNK), (batch_claim_cfg(), 64)] {
            // Long enough that the samples after sample 1, which take no
            // time, still leave together when an unoptimised build shares
            // its cores with other work.
            cfg.starvation_wait = Duration::from_millis(20);
            let gates = Gates::closed();
            let entered = Arc::new(AtomicUsize::new(0));
            let (g, e) = (Arc::clone(&gates), Arc::clone(&entered));
            let pipeline = Pipeline::new(vec![crate::transform::fn_transform("gated", move |x| {
                e.fetch_add(1, Ordering::SeqCst);
                g.pass(x);
                Ok(x)
            })]);
            let rt = runtime_over(cfg, n as u32, pipeline);
            assert_eq!(rt.fast_claim(), n);
            let rt2 = Arc::clone(&rt);
            let worker = thread::spawn(move || RoleStep::step(&WorkerStep::new(rt2)));
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
            // The worker is inside sample 1 of its claim (gate 1 is shut).
            assert_eq!(
                rt.open.lock().samples,
                [0],
                "sample 0 withheld until the end of its claim of {n}"
            );
            gates.open_below(u32::MAX);
            assert_eq!(worker.join().unwrap(), StepOutcome::Progress);
            assert_eq!(emitted_and_open(&rt), (0..n as u32).collect::<Vec<_>>());
            assert_eq!(rt.in_flight.load(Ordering::SeqCst), 0);
        }
    }

    /// The other half of the hold rule: samples far quicker than
    /// `starvation_wait` go into the open batch once per chunk of eight
    /// in shuffled mode and leave as batches, in claim order. In
    /// order-preserving mode each claim is one batch, parked and emitted
    /// whole, and the open batch stays unused.
    #[test]
    fn quick_samples_are_published_once_per_chunk() {
        for ordered in [true, false] {
            let mut cfg = mini_cfg();
            cfg.order_preserving = ordered;
            // Out of reach of any scheduling hiccup inside a chunk.
            cfg.starvation_wait = Duration::from_secs(10);
            let rt = runtime_over(cfg, 16, Pipeline::identity());
            let step = WorkerStep::new(Arc::clone(&rt));
            let mut steps = 0;
            while RoleStep::step(&step) != StepOutcome::Exhausted {
                steps += 1;
            }
            assert_eq!(steps, if ordered { 4 } else { 2 }, "ordered: {ordered}");
            assert_eq!(rt.batches_out.get(), 4, "batches of 4");
            assert_eq!(emitted_and_open(&rt), (0..16).collect::<Vec<_>>());
            let w = rt.window.lock();
            let claims = if ordered { 4 } else { 0 };
            assert_eq!((w.claimed, w.parked.next_seq()), (claims, claims));
            drop(w);
            assert!(rt.batch_q.is_closed(), "drained source ended the run");
        }
    }

    /// Under a cutoff the claim grows to one batch: 128 quick samples
    /// leave as two publishes of 64, not sixteen of eight — and, each
    /// claim being one whole batch, as two batches straight from the
    /// fast worker.
    #[test]
    fn quick_samples_under_a_cutoff_are_published_once_per_claim() {
        let mut cfg = batch_claim_cfg();
        // Out of reach of any scheduling hiccup inside a claim.
        cfg.starvation_wait = Duration::from_secs(10);
        let rt = runtime_over(cfg, 128, Pipeline::identity());
        assert_eq!(rt.fast_claim(), 64);
        let step = WorkerStep::new(Arc::clone(&rt));
        while RoleStep::step(&step) != StepOutcome::Exhausted {}
        assert_eq!(rt.batches_out.get(), 2, "one publish per claim of 64");
        assert_eq!(rt.samples_out.get(), 128);
        let batches = rt.batch_q.pop_many(usize::MAX);
        let got: Vec<u32> = batches.into_iter().flat_map(Batch::into_samples).collect();
        assert_eq!(got, (0..128).collect::<Vec<_>>(), "each claim in order");
        assert!(rt.open.lock().is_empty());
        assert_eq!(rt.in_flight.load(Ordering::SeqCst), 0);
        assert!(rt.batch_q.is_closed(), "drained source ended the run");
    }

    /// A transform that spins for at least `SPIN`, the floor the
    /// clock tests check preprocessing times against.
    const SPIN: Duration = Duration::from_micros(50);

    fn spin_pipeline() -> Pipeline<u32> {
        Pipeline::new(vec![crate::transform::fn_transform("spin", |x| {
            let t0 = Instant::now();
            while t0.elapsed() < SPIN {
                std::hint::spin_loop();
            }
            Ok(x)
        })])
    }

    /// The chained clock: within a claim a sample starts where the one
    /// before it ended, so it is issued no earlier than the previous
    /// sample's issue time plus its preprocessing. A hold of 120 µs over
    /// samples of at least 50 µs flushes mid-claim (after three samples
    /// at the latest), and the chain is cut and re-read across each
    /// flush.
    #[test]
    fn chained_clock_issues_each_sample_after_the_last_one_ran() {
        let mut cfg = mini_cfg();
        cfg.batch_size = 8;
        cfg.starvation_wait = Duration::from_micros(120);
        let rt = runtime_over(cfg, 8, spin_pipeline());
        assert_eq!(rt.fast_claim(), 8, "one claim of 8");
        let step = WorkerStep::new(Arc::clone(&rt));
        while RoleStep::step(&step) != StepOutcome::Exhausted {}
        let PopResult::Item(batch) = rt.batch_q.try_pop() else {
            panic!("no batch emitted");
        };
        assert_eq!(batch.samples, (0..8).collect::<Vec<_>>());
        let meta = &batch.meta;
        assert!(meta.iter().all(|m| m.preprocess >= SPIN));
        for w in meta.windows(2) {
            assert!(
                w[1].issued_ns >= w[0].issued_ns + w[0].preprocess.as_nanos() as u64,
                "seq {} issued before seq {} ran",
                w[1].seq,
                w[0].seq
            );
        }
    }

    /// An uncached ordered claim is timed as a whole: every sample is
    /// issued at the claim's start, and the claim's wall time is shared
    /// evenly, so each sample reports at least the transform's floor
    /// and together they report no more than the claim took.
    #[test]
    fn an_uncached_ordered_claim_is_timed_as_a_whole() {
        let mut cfg = mini_cfg();
        cfg.order_preserving = true;
        cfg.batch_size = 8;
        let rt = runtime_over(cfg, 8, spin_pipeline());
        let step = WorkerStep::new(Arc::clone(&rt));
        let since_start = |t: Instant| t.duration_since(rt.started_at).as_nanos() as u64;
        let before = Instant::now();
        assert_eq!(RoleStep::step(&step), StepOutcome::Progress, "one claim");
        let wall = before.elapsed();
        let after_ns = since_start(before + wall);
        while RoleStep::step(&step) != StepOutcome::Exhausted {}
        let PopResult::Item(batch) = rt.batch_q.try_pop() else {
            panic!("no batch emitted");
        };
        assert_eq!(batch.samples, (0..8).collect::<Vec<_>>());
        let meta = &batch.meta;
        let issued = meta[0].issued_ns;
        assert!((since_start(before)..=after_ns).contains(&issued));
        assert!(
            meta.iter().all(|m| m.issued_ns == issued),
            "the claim's start"
        );
        assert!(meta.iter().all(|m| m.preprocess >= SPIN));
        assert!(meta.iter().all(|m| m.preprocess == meta[0].preprocess));
        let total: Duration = meta.iter().map(|m| m.preprocess).sum();
        assert!(total <= wall, "{total:?} preprocessing in a {wall:?} claim");
    }

    /// A cache that never hits and logs each admission's cost.
    #[derive(Default)]
    struct AdmitLog(Mutex<Vec<(usize, Duration)>>);

    impl SampleCache<u32> for AdmitLog {
        fn lookup(&self, _index: usize) -> Option<crate::cache::CachedSample<u32>> {
            None
        }
        fn admit(&self, index: usize, _sample: &u32, _raw_bytes: u64, cost: Duration) {
            self.0.lock().push((index, cost));
        }
        fn stats(&self) -> crate::cache::CacheStats {
            crate::cache::CacheStats::default()
        }
    }

    /// With a cache attached an ordered claim times each sample on its
    /// own, since cost-aware admission weighs each sample's own cost:
    /// the index that sleeps reports, and is admitted at, more than
    /// every other.
    #[test]
    fn an_ordered_claim_with_a_cache_times_each_sample() {
        const NAP: Duration = Duration::from_millis(20);
        let mut cfg = mini_cfg();
        cfg.order_preserving = true;
        cfg.batch_size = 8;
        let nap = crate::transform::fn_transform("nap", |x: u32| {
            if x == 5 {
                thread::sleep(NAP);
            }
            Ok(x)
        });
        let mut rt = runtime_over(cfg, 8, Pipeline::new(vec![nap]));
        let log = Arc::new(AdmitLog::default());
        Arc::get_mut(&mut rt).expect("sole owner").cache =
            Some(Arc::clone(&log) as Arc<dyn SampleCache<u32>>);
        let step = WorkerStep::new(Arc::clone(&rt));
        while RoleStep::step(&step) != StepOutcome::Exhausted {}
        let PopResult::Item(batch) = rt.batch_q.try_pop() else {
            panic!("no batch emitted");
        };
        assert_eq!(batch.samples, (0..8).collect::<Vec<_>>());
        let napped = batch.meta[5].preprocess;
        assert!(napped >= NAP, "{napped:?}");
        for m in batch.meta.iter().filter(|m| m.index != 5) {
            assert!(
                m.preprocess < napped,
                "index {}: {:?}",
                m.index,
                m.preprocess
            );
        }
        let admitted = log.0.lock().clone();
        let reported: Vec<(usize, Duration)> =
            batch.meta.iter().map(|m| (m.index, m.preprocess)).collect();
        assert_eq!(
            admitted, reported,
            "admission weighs what the sample reports"
        );
    }

    /// A whole claim meeting an open batch left holding `k` samples
    /// completes it: the emitted batch starts with those `k`, and the
    /// claim's last `k` stay open for the next one — here the close
    /// cascade's flush, run by the step that finds the source drained.
    #[test]
    fn a_whole_claim_completes_the_open_batch() {
        const K: u32 = 5;
        let mut cfg = batch_claim_cfg();
        cfg.starvation_wait = Duration::from_secs(10);
        let rt = runtime_over(cfg, 64, Pipeline::identity());
        {
            let mut open = rt.open.lock();
            for i in 0..K {
                open.push(prepared(1000 + i));
            }
        }
        let step = WorkerStep::new(Arc::clone(&rt));
        assert_eq!(RoleStep::step(&step), StepOutcome::Progress);
        assert_eq!(rt.batches_out.get(), 1);
        let batch = rt.batch_q.try_pop();
        let PopResult::Item(batch) = batch else {
            panic!("no batch emitted");
        };
        let want: Vec<u32> = (1000..1000 + K).chain(0..64 - K).collect();
        assert_eq!(batch.into_samples(), want);
        let rest: Vec<u32> = (64 - K..64).collect();
        assert_eq!(rt.open.lock().samples, rest);
        assert_eq!(rt.in_flight.load(Ordering::SeqCst), 0);
        assert_eq!(RoleStep::step(&step), StepOutcome::Exhausted);
        assert_eq!(emitted_and_open(&rt), rest, "flushed at the drain");
        assert!(rt.batch_q.is_closed());
    }

    /// Transform that defers every sample from `first` on whenever it
    /// runs under a deadline, and passes the others through.
    struct DeferFrom(u32);

    impl crate::transform::Transform<u32> for DeferFrom {
        fn name(&self) -> &str {
            "defer-from"
        }

        fn apply(
            &self,
            x: u32,
            ctx: &TransformCtx,
        ) -> crate::error::Result<crate::transform::Outcome<u32>> {
            Ok(if x >= self.0 && ctx.deadline().is_some() {
                crate::transform::Outcome::Interrupted(x)
            } else {
                crate::transform::Outcome::Done(x)
            })
        }
    }

    /// What a shuffled claim finishes fast goes into the open batch also
    /// when some of its samples were deferred and when the hold rule
    /// split it.
    #[test]
    fn a_claim_enters_the_open_batch_around_deferrals_and_splits() {
        // Deferrals: a claim of 64 (batch 64) with its last sample
        // deferred, and a claim of 8 (batch 4) with its last four
        // deferred, whose four fast samples make exactly one batch.
        let mut few = mini_cfg();
        few.timeout_policy = TimeoutPolicy::Fixed(Duration::from_micros(1));
        for (mut cfg, claim, first_deferred, batches) in
            [(batch_claim_cfg(), 64, 63, 0), (few, 8, 4, 1)]
        {
            cfg.starvation_wait = Duration::from_secs(10);
            let deferring = Pipeline::new(vec![Arc::new(DeferFrom(first_deferred)) as Arc<_>]);
            let rt = runtime_over(cfg, claim as u32, deferring);
            assert_eq!(rt.fast_claim(), claim);
            assert_eq!(
                RoleStep::step(&WorkerStep::new(Arc::clone(&rt))),
                StepOutcome::Progress
            );
            assert_eq!(rt.batches_out.get(), batches, "claim of {claim}");
            let fast: Vec<u32> = (0..first_deferred).collect();
            assert_eq!(emitted_and_open(&rt), fast, "claim of {claim}");
            assert_eq!(rt.temp_q.len(), claim - first_deferred as usize);
        }

        // A hold-window flush: sample 0 outlasts `starvation_wait`, so it
        // leaves alone and the other 63 follow it into the open batch,
        // which the last of them fills.
        let mut cfg = batch_claim_cfg();
        cfg.starvation_wait = Duration::from_millis(2);
        let hold = cfg.starvation_wait;
        // One step, so no deadline check ever defers sample 0.
        let pipeline = Pipeline::new(vec![crate::transform::fn_transform("slow-0", move |x| {
            if x == 0 {
                thread::sleep(2 * hold);
            }
            Ok(x)
        })]);
        let rt = runtime_over(cfg, 64, pipeline);
        assert_eq!(rt.fast_claim(), 64);
        assert_eq!(
            RoleStep::step(&WorkerStep::new(Arc::clone(&rt))),
            StepOutcome::Progress
        );
        assert_eq!(rt.batches_out.get(), 1, "held");
        assert_eq!(emitted_and_open(&rt), (0..64).collect::<Vec<_>>(), "held");
    }

    /// Batch composition does not follow the clock: a claim the hold
    /// rule splits and the whole claims after it fill batches in claim
    /// order, exactly as if nothing had been split — one route, one
    /// order, whatever the timing.
    #[test]
    fn a_split_claim_is_not_overtaken_by_a_whole_one() {
        let mut cfg = mini_cfg();
        cfg.batch_size = TICKET_CHUNK;
        cfg.starvation_wait = Duration::from_millis(2);
        let hold = cfg.starvation_wait;
        let pipeline = Pipeline::new(vec![crate::transform::fn_transform("slow-3", move |x| {
            if x == 3 {
                thread::sleep(2 * hold);
            }
            Ok(x)
        })]);
        let rt = runtime_over(cfg, 24, pipeline);
        assert_eq!(rt.fast_claim(), TICKET_CHUNK);
        let step = WorkerStep::new(Arc::clone(&rt));
        while RoleStep::step(&step) != StepOutcome::Exhausted {}
        let batches: Vec<Vec<u32>> = rt
            .batch_q
            .pop_many(usize::MAX)
            .into_iter()
            .map(Batch::into_samples)
            .collect();
        let want: Vec<Vec<u32>> = (0..3).map(|b| (8 * b..8 * b + 8).collect()).collect();
        assert_eq!(batches, want);
        assert_eq!(rt.in_flight.load(Ordering::SeqCst), 0);
    }

    /// A resumed slow sample goes into the open batch from the thread
    /// that finished it, with no batch step run, and its ticket leaves
    /// `in_flight` only after the push: the delivery that releases the
    /// last ticket runs the close cascade, and the batch that cascade
    /// flushes already holds its sample.
    #[test]
    fn a_resumed_sample_lands_in_the_open_batch_before_its_ticket_leaves() {
        let rt = mini_runtime(mini_cfg());
        let slow = WorkerStep::new(Arc::clone(&rt));
        // Two deferred tickets, in flight as the claiming worker left
        // them, and the source drained: every step resumes.
        rt.in_flight.fetch_add(2, Ordering::SeqCst);
        rt.temp_q.put(deferred(7)).unwrap();
        rt.temp_q.put(deferred(8)).unwrap();
        rt.source_drained.store(true, Ordering::SeqCst);
        assert_eq!(RoleStep::step(&slow), StepOutcome::Progress);
        assert_eq!(rt.open.lock().samples, [7]);
        assert_eq!(rt.in_flight.load(Ordering::SeqCst), 1);
        assert!(!rt.batch_q.is_closed());
        assert_eq!(RoleStep::step(&slow), StepOutcome::Progress);
        assert_eq!(rt.in_flight.load(Ordering::SeqCst), 0);
        assert!(rt.temp_q.is_closed(), "the last delivery ran the cascade");
        assert!(rt.batch_q.is_closed(), "the last delivery ran the cascade");
        // Released before its push, sample 8 would have missed the flush
        // and been left in the open batch.
        assert_eq!(rt.batches_out.get(), 1);
        assert_eq!(emitted_and_open(&rt), [7, 8]);
        assert_eq!(RoleStep::step(&slow), StepOutcome::Exhausted);
    }

    /// Ordered steps on three threads (two claim at a time:
    /// `max_workers`), the consumer stopped and the awaited claim's first
    /// sample held in its transform: the others claim, fill and park the next R − 1 batches and then wait,
    /// so claims stay within R = `prefetch_factor × max_workers` of the
    /// awaited one and no later ticket is touched. Released, the awaited
    /// claim emits what the two-batch queue takes, its worker blocks on
    /// the stopped consumer, and shutdown wakes and ends every step.
    #[test]
    fn the_ordered_window_bounds_claims_ahead_of_the_awaited_one() {
        let mut cfg = mini_cfg();
        cfg.order_preserving = true;
        cfg.max_workers = 2;
        cfg.prefetch_factor = 2;
        let r = (cfg.prefetch_factor * cfg.max_workers) as u64;
        let batch = cfg.batch_size as u32;
        let gates = Gates::closed();
        let entered = Arc::new(AtomicUsize::new(0));
        let (g, e) = (Arc::clone(&gates), Arc::clone(&entered));
        let pipeline = Pipeline::new(vec![crate::transform::fn_transform("gated", move |x| {
            e.fetch_add(1, Ordering::SeqCst);
            if x == 0 {
                g.pass(0);
            }
            Ok(x)
        })]);
        let rt = runtime_over(cfg, 400, pipeline);
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let rt = Arc::clone(&rt);
                thread::spawn(move || {
                    let step = WorkerStep::new(rt);
                    while RoleStep::step(&step) != StepOutcome::Exhausted {}
                })
            })
            .collect();
        // Sample 0, and every sample of claims 1 ..= R − 1.
        let blocked = 1 + (r as usize - 1) * batch as usize;
        let window = || {
            let w = rt.window.lock();
            (w.claimed, w.parked.next_seq(), w.parked.pending() as u64)
        };
        spin_until("the claims after the awaited one never parked", || {
            entered.load(Ordering::SeqCst) >= blocked && window().2 == r - 1
        });
        for _ in 0..1000 {
            thread::yield_now();
        }
        let (claimed, awaited, parked) = window();
        assert_eq!(
            (claimed, awaited, parked),
            (r, 0, r - 1),
            "claimed − awaited ≤ R"
        );
        assert_eq!(
            entered.load(Ordering::SeqCst),
            blocked,
            "a ticket past R ran"
        );
        assert_eq!(rt.batches_out.get(), 0);
        gates.open_below(1);
        spin_until("the awaited claim emitted nothing", || {
            rt.batches_out.get() == rt.cfg.prefetch_factor as u64
        });
        rt.initiate_shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let got: Vec<u32> = rt
            .batch_q
            .try_pop_many(usize::MAX)
            .unwrap_or_default()
            .into_iter()
            .flat_map(Batch::into_samples)
            .collect();
        assert_eq!(got, (0..2 * batch).collect::<Vec<_>>(), "in claim order");
        assert_eq!(rt.in_flight.load(Ordering::SeqCst), 0);
    }

    /// An ordered claim whose every sample is quarantined still holds its
    /// tickets in flight until its (empty) batch is parked: the worker
    /// that drained the source must not run the close cascade while the
    /// later batches wait behind it, or they would never be emitted.
    #[test]
    fn an_emptied_ordered_claim_holds_the_cascade_until_it_is_parked() {
        let mut cfg = mini_cfg();
        cfg.order_preserving = true;
        cfg.batch_size = 2;
        let gates = Gates::closed();
        let g = Arc::clone(&gates);
        let pipeline = Pipeline::new(vec![crate::transform::fn_transform("fail-0-1", move |x| {
            if x == 1 {
                g.pass(0);
            }
            if x < 2 {
                return Err(LoaderError::Transform {
                    name: "fail-0-1".into(),
                    msg: format!("sample {x}"),
                });
            }
            Ok(x)
        })]);
        let rt = runtime_over(cfg, 6, pipeline);
        let rt2 = Arc::clone(&rt);
        let first = thread::spawn(move || RoleStep::step(&WorkerStep::new(rt2)));
        spin_until("claim 0 never started", || rt.window.lock().claimed == 1);
        // Claims 1 and 2 park behind claim 0; the third claim drains the
        // source and finds claim 0's tickets still in flight. (Claimed
        // directly: claim 0 holds the one place in the claim share.)
        let step = WorkerStep::new(Arc::clone(&rt));
        while step.claim() != StepOutcome::Exhausted {}
        assert!(rt.source_drained.load(Ordering::SeqCst));
        assert!(!rt.batch_q.is_closed(), "closed under the parked batches");
        assert_eq!(rt.in_flight.load(Ordering::SeqCst), 2);
        gates.open_below(1);
        assert_eq!(first.join().unwrap(), StepOutcome::Progress);
        assert!(rt.batch_q.is_closed(), "the park ran the cascade");
        assert_eq!(emitted_and_open(&rt), [2, 3, 4, 5]);
        assert_eq!(rt.batches_out.get(), 2, "the empty batch is not emitted");
        assert_eq!(rt.faults.quarantined.get(), 2);
    }

    /// Moonlighting: with a temp-queue backlog over the mark, exactly
    /// one of three claiming workers completes deferred samples while the
    /// other two drain the sampler. The deferred tickets, in flight until
    /// their samples are delivered, keep the close cascade off until the
    /// helper is done, so nothing is lost; its delivery runs the cascade.
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
        // In flight, as the claiming workers that deferred them left them.
        rt.in_flight.fetch_add(BACKLOG as usize, Ordering::SeqCst);
        for k in 0..BACKLOG {
            rt.temp_q.put(deferred(DEFERRED + k)).unwrap();
        }
        let returned = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (rt, returned) = (Arc::clone(&rt), Arc::clone(&returned));
                // Claims only, outside the claim share: the three claim
                // side by side, and none resumes once the source drains.
                thread::spawn(move || {
                    let step = WorkerStep::new(rt);
                    while step.claim() != StepOutcome::Exhausted {}
                    returned.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        // Whichever worker stepped first holds the token and sits in the
        // gated sample; the other two saw the same backlog at every one
        // of their steps, were refused, and drained the sampler.
        spin_until(
            "the other two claiming workers never drained the source",
            || returned.load(Ordering::SeqCst) == 2 && inside.load(Ordering::SeqCst) == 1,
        );
        assert_eq!(most.load(Ordering::SeqCst), 1, "two helpers at once");
        assert!(rt.source_drained.load(Ordering::SeqCst));
        // A step, which resumes once the source is drained, meanwhile
        // works the queue down and then finds it empty but *open*: had
        // the helper's sample left `in_flight` before its delivery, the
        // drain would have closed it and flushed the open batch and
        // closed the batch queue under the sample the helper still
        // holds.
        let slow = WorkerStep::new(Arc::clone(&rt));
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
        assert!(rt.batch_q.is_closed(), "and ends the run");
        assert_eq!(RoleStep::step(&slow), StepOutcome::Exhausted);
        // Fast and resumed samples alike went into the open batch and
        // out as batches of four.
        let mut got = emitted_and_open(&rt);
        got.sort_unstable();
        let want: Vec<u32> = (0..12).chain(DEFERRED..DEFERRED + BACKLOG).collect();
        assert_eq!(got, want, "every sample exactly once");
        assert!(!rt.slow_helper.load(Ordering::SeqCst), "token handed back");
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

    /// A consumer that stops popping holds back no batch: every GPU pops
    /// the one batch queue, so a batch left unpopped goes to the consumer
    /// that still pops, and an emission facing the full queue returns as
    /// soon as that consumer pops.
    #[test]
    fn an_unpopped_batch_does_not_block_the_next_emission() {
        let mut cfg = mini_cfg();
        cfg.num_gpus = 2;
        cfg.prefetch_factor = 1;
        let rt = mini_runtime(cfg);
        assert_eq!(rt.batch_q.capacity(), 2, "prefetch_factor × num_gpus");
        let emit = |rt: &Runtime<Ds>, i: u32| {
            let mut b = Batch::with_capacity(1);
            b.push(prepared(i));
            assert!(emit_batch(rt, b), "emission {i}");
        };
        // GPU 0's consumer has stopped popping: two batches fill the queue.
        emit(&rt, 0);
        emit(&rt, 1);
        let base = rt.batch_q.lock_acquisitions();
        let rt2 = Arc::clone(&rt);
        let emitter = thread::spawn(move || emit(&rt2, 2));
        wait_until_blocked_on(&rt.batch_q, base);
        // GPU 1's consumer pops the batch GPU 0 left, freeing the slot.
        assert_eq!(rt.batch_q.pop().unwrap().samples, [0]);
        emitter.join().unwrap();
        assert_eq!(emitted_and_open(&rt), [1, 2]);
        assert_eq!(rt.batches_out.get(), 3);
    }

    /// A step that resumes (here: the source is drained) reports idle on
    /// an empty-but-open temp queue, and exhausted once it closes. In
    /// either mode resuming closes nothing itself: the batch queue stays
    /// open for the close cascade.
    #[test]
    fn slow_step_reports_idle_then_exhausted() {
        for ordered in [false, true] {
            let mut cfg = mini_cfg();
            cfg.order_preserving = ordered;
            let rt = mini_runtime(cfg);
            rt.source_drained.store(true, Ordering::SeqCst);
            let step = WorkerStep::new(Arc::clone(&rt));
            assert_eq!(RoleStep::step(&step), StepOutcome::Idle);
            rt.temp_q.close();
            assert_eq!(RoleStep::step(&step), StepOutcome::Exhausted);
            step.finish();
            assert!(!rt.batch_q.is_closed(), "ordered: {ordered}");
        }
    }

    /// A step claims only while fewer than `max_workers` threads are in a
    /// claim, and gives its place back on every path out: a claim that
    /// finds the sampler drained although the flag was unset when the
    /// step checked it, a claim refused at shutdown, and a step refused a
    /// place, which resumes a deferred sample instead.
    #[test]
    fn the_claim_share_is_given_back_on_every_path() {
        let claiming = |rt: &Runtime<Ds>| rt.claiming.load(Ordering::SeqCst);
        // Drained under the check: no tickets, the flag not yet set.
        let rt = runtime_over(mini_cfg(), 0, Pipeline::identity());
        let step = WorkerStep::new(Arc::clone(&rt));
        assert_eq!(RoleStep::step(&step), StepOutcome::Exhausted);
        assert!(rt.source_drained.load(Ordering::SeqCst));
        assert_eq!(claiming(&rt), 0, "drained claim");
        // Shut down with tickets left.
        let rt = runtime_over(mini_cfg(), 8, Pipeline::identity());
        let step = WorkerStep::new(Arc::clone(&rt));
        rt.initiate_shutdown();
        assert_eq!(RoleStep::step(&step), StepOutcome::Exhausted);
        assert_eq!(claiming(&rt), 0, "shutdown");
        // The one place (`max_workers` 1) held elsewhere: the step
        // resumes the deferred sample and leaves the sampler alone.
        let rt = runtime_over(mini_cfg(), 8, Pipeline::identity());
        let step = WorkerStep::new(Arc::clone(&rt));
        let held = rt.claim_share().expect("a free place");
        assert!(rt.claim_share().is_none(), "two places in a share of one");
        rt.in_flight.fetch_add(1, Ordering::SeqCst);
        rt.temp_q.put(deferred(100)).unwrap();
        assert_eq!(RoleStep::step(&step), StepOutcome::Progress);
        assert_eq!(rt.open.lock().samples, [100]);
        assert_eq!((rt.batches_out.get(), claiming(&rt)), (0, 1));
        drop(held);
        assert_eq!(claiming(&rt), 0);
        assert_eq!(RoleStep::step(&step), StepOutcome::Progress);
        assert_eq!(rt.batches_out.get(), 2, "a claim of eight, batches of four");
        assert_eq!(claiming(&rt), 0, "claim");
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
