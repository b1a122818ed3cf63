//! Preprocessing transforms and resumable pipelines.
//!
//! The paper's Algorithm 1 applies transformations sequentially while
//! watching a per-sample timeout. When the timeout fires, the sample is
//! parked together with **the index of the transformation in progress** so
//! a background worker can resume from that index instead of restarting the
//! whole pipeline (§4.2). [`Pipeline::run_from`] implements exactly that
//! contract.
//!
//! Two timeout behaviours compose:
//!
//! * *between* transforms, the pipeline checks the deadline after each step
//!   (a completed step is never redone — resume continues at `i + 1`);
//! * *within* a transform, implementations may poll
//!   [`TransformCtx::expired`] and bail out early by returning
//!   [`Outcome::Interrupted`]; the pipeline then records index `i` so the
//!   interrupted transform re-executes, matching the paper's "the last
//!   transformation was only partially applied, it must be re-executed".
//!
//! # In-place execution
//!
//! By-value [`Transform::apply`] forces every shape-changing stage to
//! materialize a fresh output buffer per sample. The in-place contract —
//! [`Transform::apply_mut`] — lets stages mutate (or shrink) the sample
//! where it sits, and draw any genuinely new buffers from a shared
//! [`PoolSet`] carried by the [`TransformCtx`]. The pipeline engages the
//! in-place path per run (see [`Pipeline::run_ctx`]); transforms without
//! an in-place implementation fall back to by-value `apply`
//! transparently, and resume-at-index semantics are identical in both
//! modes: an interrupted `apply_mut` **must leave the sample in its
//! input state** so re-executing transform `i` reproduces the
//! uninterrupted result.

use crate::error::Result;
use minato_pool::PoolSet;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-sample record of pool scratch a transform holds right now.
///
/// A transform that panics between `acquire_*` and `recycle_*` unwinds
/// past the recycle call, and the pool's byte budget stays debited
/// forever — enough panics and the pool stops serving buffers at all.
/// The ledger notes every pool-served acquisition (by capacity) and
/// forgets it on recycle; whatever is still outstanding when the worker
/// catches the panic is *repaid* to the pool by
/// [`ScratchLedger::repay`], restoring the budget to what a panic-free
/// run would leave.
#[derive(Debug, Default)]
pub struct ScratchLedger {
    f32_caps: Mutex<Vec<usize>>,
    u8_caps: Mutex<Vec<usize>>,
}

impl ScratchLedger {
    /// Creates an empty ledger.
    pub fn new() -> ScratchLedger {
        ScratchLedger::default()
    }

    fn note(list: &Mutex<Vec<usize>>, cap: usize) {
        list.lock().push(cap);
    }

    /// Removes the entry matching `cap` (or the most recent one — a
    /// transform may have grown the buffer past its acquired capacity).
    fn settle(list: &Mutex<Vec<usize>>, cap: usize) {
        let mut caps = list.lock();
        match caps.iter().rposition(|&c| c == cap) {
            Some(i) => {
                caps.swap_remove(i);
            }
            None => {
                caps.pop();
            }
        }
    }

    fn note_f32(&self, cap: usize) {
        Self::note(&self.f32_caps, cap);
    }

    fn settle_f32(&self, cap: usize) {
        Self::settle(&self.f32_caps, cap);
    }

    fn note_u8(&self, cap: usize) {
        Self::note(&self.u8_caps, cap);
    }

    fn settle_u8(&self, cap: usize) {
        Self::settle(&self.u8_caps, cap);
    }

    /// Buffers currently acquired and not yet recycled.
    pub fn outstanding(&self) -> usize {
        self.f32_caps.lock().len() + self.u8_caps.lock().len()
    }

    /// Returns every outstanding buffer's capacity to `pools` (the
    /// original allocations were lost to the unwinding stack, so
    /// equivalent fresh capacity is recycled in their place — the pool
    /// only cares about capacity, not contents). Returns how many
    /// buffers were repaid.
    pub fn repay(&self, pools: &PoolSet) -> usize {
        let mut repaid = 0;
        for cap in self.f32_caps.lock().drain(..) {
            pools.f32s().recycle(Vec::with_capacity(cap));
            repaid += 1;
        }
        for cap in self.u8_caps.lock().drain(..) {
            pools.u8s().recycle(Vec::with_capacity(cap));
            repaid += 1;
        }
        repaid
    }
}

/// Pecan-style classification of a transform's effect on sample volume
/// (§2.1: AutoOrder moves deflationary steps earlier, inflationary later).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Increases data volume (e.g., padding, one-hot encoding).
    Inflationary,
    /// Decreases data volume (e.g., sampling, filtering, cropping).
    Deflationary,
    /// Volume-neutral (e.g., flip, permute).
    Neutral,
    /// Effect unknown; AutoOrder leaves it in place.
    Unknown,
}

/// Observer of per-step execution inside [`Pipeline::run_ctx`].
///
/// Implemented by the tracing layer: `stage_start` fires before a step
/// executes, `stage_end` after it completes (interrupted steps fire no
/// `stage_end`; they re-execute later and report then). `Debug` is a
/// supertrait so contexts carrying an observer stay debug-printable.
///
/// Implementations must be cheap and non-blocking: they run on the
/// per-sample hot path of every worker.
pub trait StageObserver: Send + Sync + std::fmt::Debug {
    /// A pipeline step is about to run on the sample `(epoch, seq)`.
    fn stage_start(&self, step: usize, epoch: u16, seq: u64);
    /// Step `step` completed on `(epoch, seq)` after `dur`.
    fn stage_end(&self, step: usize, epoch: u16, seq: u64, dur: Duration);
}

/// Execution context handed to every transform invocation.
#[derive(Debug, Clone)]
pub struct TransformCtx {
    deadline: Option<Instant>,
    /// Speed multiplier applied by accelerator-offloaded execution
    /// (the DALI baseline divides synthetic compute cost by this; CPU
    /// execution uses 1.0).
    pub speedup: f64,
    /// Buffer pools for in-place stages that still need fresh output
    /// memory (transposes, resizes); `None` on the by-value path.
    pools: Option<Arc<PoolSet>>,
    /// Run transforms through [`Transform::apply_mut`] when set.
    in_place: bool,
    /// Upper bound on how many [`TransformCtx::expired`] calls may pass
    /// between two clock reads; tight kernels can poll per row without
    /// paying a syscall-ish `Instant::now()` each time. The effective
    /// stride is *adaptive*: each clock read measures the observed
    /// per-poll interval and schedules the next read so the
    /// undetected-expiry window stays small in wall time, never
    /// exceeding this many polls.
    poll_stride: u32,
    /// Total [`TransformCtx::expired`] calls so far.
    polls: Cell<u64>,
    /// Poll count at which the clock is read next.
    next_read: Cell<u64>,
    /// Timestamp / poll count of the previous clock read (calibration).
    last_read: Cell<Option<Instant>>,
    last_read_polls: Cell<u64>,
    /// Stride granted by the previous clock read. A read may at most
    /// double it: one noisy-short interval (e.g. the first in-stage
    /// poll landing right after a between-step reset) must not jump
    /// the stride straight to the cap.
    granted_stride: Cell<u64>,
    /// Deadlines are monotone: once observed expired, stay expired
    /// without further clock reads.
    expired_latch: Cell<bool>,
    /// Ledger of pool scratch held by the running sample, so the worker
    /// can repay it if the transform panics; `None` when unpooled.
    scratch: Option<Arc<ScratchLedger>>,
    /// Per-step observer (tracing); `None` costs a single branch per
    /// step in [`Pipeline::run_ctx`] and no clock reads.
    observer: Option<Arc<dyn StageObserver>>,
    /// Sample identity stamped onto observer callbacks.
    obs_epoch: u16,
    obs_seq: u64,
}

impl TransformCtx {
    /// Default cap of the amortized deadline check: at most 64
    /// [`TransformCtx::expired`] calls between clock reads.
    pub const DEFAULT_POLL_STRIDE: u32 = 64;

    /// Target bound on how long an expired deadline may go unnoticed
    /// while polls are being skipped. The adaptive stride aims below
    /// this; the configured `poll_stride` still caps the skip count.
    pub const MAX_POLL_SKEW: Duration = Duration::from_micros(500);

    fn base(deadline: Option<Instant>) -> TransformCtx {
        TransformCtx {
            deadline,
            speedup: 1.0,
            pools: None,
            in_place: false,
            poll_stride: Self::DEFAULT_POLL_STRIDE,
            polls: Cell::new(0),
            next_read: Cell::new(1),
            last_read: Cell::new(None),
            last_read_polls: Cell::new(0),
            granted_stride: Cell::new(1),
            expired_latch: Cell::new(false),
            scratch: None,
            observer: None,
            obs_epoch: 0,
            obs_seq: 0,
        }
    }

    /// Context with no deadline and CPU-speed execution.
    pub fn unbounded() -> TransformCtx {
        TransformCtx::base(None)
    }

    /// Context that expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> TransformCtx {
        TransformCtx::base(Some(deadline))
    }

    /// Returns a copy whose deadline is `timeout` from now (`None`:
    /// unbounded). Called where the pipeline starts, not where the
    /// context is built: the balancer learns its cutoff from
    /// [`PipelineRun`]'s `elapsed`, which [`Pipeline::run_ctx`] starts
    /// after the `Dataset::load`, so a deadline that also timed the load
    /// would flag samples the cutoff never meant.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> TransformCtx {
        self.deadline = timeout.map(|t| Instant::now() + t);
        self
    }

    /// Returns a copy with the accelerator speedup set.
    pub fn with_speedup(mut self, speedup: f64) -> TransformCtx {
        self.speedup = speedup.max(f64::MIN_POSITIVE);
        self
    }

    /// Returns a copy carrying `pools` and with in-place execution
    /// engaged (stages acquire scratch from and recycle buffers into
    /// the set; a disabled set still runs stages in place).
    pub fn with_pool(mut self, pools: Arc<PoolSet>) -> TransformCtx {
        self.pools = Some(pools);
        self.in_place = true;
        self
    }

    /// Returns a copy with in-place execution explicitly switched
    /// on/off (independent of whether a pool is attached).
    pub fn with_in_place(mut self, yes: bool) -> TransformCtx {
        self.in_place = yes;
        self
    }

    /// Returns a copy that records pool-served acquisitions in
    /// `ledger`, letting the worker repay un-recycled scratch after a
    /// panic (see [`ScratchLedger`]).
    pub fn with_scratch(mut self, ledger: Arc<ScratchLedger>) -> TransformCtx {
        self.scratch = Some(ledger);
        self
    }

    /// Returns a copy that reports per-step start/end (with the sample's
    /// `(epoch, seq)` identity) to `observer` during
    /// [`Pipeline::run_ctx`]. Attaching an observer is an `Arc` clone —
    /// refcount traffic only, no allocation.
    pub fn with_observer(
        mut self,
        observer: Arc<dyn StageObserver>,
        epoch: u16,
        seq: u64,
    ) -> TransformCtx {
        self.observer = Some(observer);
        self.obs_epoch = epoch;
        self.obs_seq = seq;
        self
    }

    /// Returns a copy polling the clock every `n`-th
    /// [`TransformCtx::expired`] call (`n >= 1`; default
    /// [`TransformCtx::DEFAULT_POLL_STRIDE`]).
    pub fn with_poll_stride(mut self, n: u32) -> TransformCtx {
        self.poll_stride = n.max(1);
        self
    }

    /// The deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The buffer pools, when the run is pooled.
    pub fn pool(&self) -> Option<&PoolSet> {
        self.pools.as_deref()
    }

    /// Whether transforms should execute through
    /// [`Transform::apply_mut`].
    pub fn in_place(&self) -> bool {
        self.in_place
    }

    /// The scratch ledger, when panic repayment is armed.
    pub fn scratch(&self) -> Option<&Arc<ScratchLedger>> {
        self.scratch.as_ref()
    }

    /// Whether the deadline has passed — amortized: most calls only
    /// bump a counter; the clock is read on a stride calibrated from
    /// the observed poll rate, so a kernel polling per row pays at most
    /// one `Instant::now()` per `poll_stride` polls while a kernel
    /// polling every few hundred microseconds still observes expiry
    /// within roughly [`MAX_POLL_SKEW`](Self::MAX_POLL_SKEW). Use
    /// [`TransformCtx::expired_now`] where exact timing matters.
    pub fn expired(&self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.expired_latch.get() {
            return true;
        }
        let n = self.polls.get() + 1;
        self.polls.set(n);
        if n < self.next_read.get() {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            self.expired_latch.set(true);
            return true;
        }
        // Calibrate the next read: skip however many polls fit in the
        // skew budget at the measured per-poll rate (1 when the rate is
        // unknown or slow, `poll_stride` at most). Nearing the deadline
        // shrinks the budget, so detection tightens exactly when it
        // matters. Growth is geometric (at most doubling per read): one
        // noisy-short interval must not grant the full cap to a kernel
        // that actually polls slowly.
        let budget = (deadline - now).div_f64(4.0).min(Self::MAX_POLL_SKEW);
        let by_rate = match self.last_read.get() {
            Some(prev) if n > self.last_read_polls.get() && now > prev => {
                let per_poll =
                    (now - prev).as_nanos().max(1) / u128::from(n - self.last_read_polls.get());
                (budget.as_nanos() / per_poll.max(1)).clamp(1, u128::from(self.poll_stride)) as u64
            }
            _ => 1,
        };
        let stride = by_rate
            .min(self.granted_stride.get().saturating_mul(2))
            .max(1);
        self.granted_stride.set(stride);
        self.last_read.set(Some(now));
        self.last_read_polls.set(n);
        self.next_read.set(n + stride);
        false
    }

    /// Whether the deadline has passed, checked against the clock right
    /// now (no stride amortization).
    ///
    /// Also resets the stride calibration: the skip count measured for
    /// one kernel's poll rate must not carry into the next — a stage
    /// polling every microsecond calibrates to the stride cap, and a
    /// following stage polling every 20 ms would otherwise wait the
    /// whole cap out in *its* time scale before the first clock read.
    /// The pipeline calls this between steps, so every stage starts
    /// with a fresh (read-immediately) stride and recalibrates to its
    /// own rate within two polls.
    pub fn expired_now(&self) -> bool {
        if self.expired_latch.get() {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        let now = Instant::now();
        self.last_read.set(Some(now));
        self.last_read_polls.set(self.polls.get());
        self.next_read.set(self.polls.get() + 1);
        self.granted_stride.set(1);
        if now >= deadline {
            self.expired_latch.set(true);
            return true;
        }
        false
    }

    /// Time remaining until the deadline (`None` = unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// A zero-filled `f32` buffer of length `len` — pool-served when a
    /// pool is attached, `vec![0.0; len]` otherwise. Byte-identical to
    /// the allocation it replaces.
    pub fn acquire_f32(&self, len: usize) -> Vec<f32> {
        match self.pool() {
            Some(p) => {
                let buf = p.f32s().acquire_filled(len, 0.0);
                if let Some(ledger) = &self.scratch {
                    ledger.note_f32(buf.capacity());
                }
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns an `f32` buffer to the pool (dropped when unpooled).
    pub fn recycle_f32(&self, buf: Vec<f32>) {
        if let Some(p) = self.pool() {
            if let Some(ledger) = &self.scratch {
                ledger.settle_f32(buf.capacity());
            }
            p.f32s().recycle(buf);
        }
    }

    /// An `f32` buffer holding a copy of `src` — pool-served when a
    /// pool is attached. The scratch-then-commit pattern for
    /// interruptible in-place stages: work on the copy, swap it in only
    /// on completion, so an interrupt leaves the sample untouched.
    pub fn acquire_f32_from(&self, src: &[f32]) -> Vec<f32> {
        match self.pool() {
            Some(p) => {
                let mut buf = p.f32s().acquire(src.len());
                if let Some(ledger) = &self.scratch {
                    ledger.note_f32(buf.capacity());
                }
                buf.extend_from_slice(src);
                buf
            }
            None => src.to_vec(),
        }
    }

    /// A zero-filled `u8` buffer of length `len` (see
    /// [`TransformCtx::acquire_f32`]).
    pub fn acquire_u8(&self, len: usize) -> Vec<u8> {
        match self.pool() {
            Some(p) => {
                let buf = p.u8s().acquire_filled(len, 0);
                if let Some(ledger) = &self.scratch {
                    ledger.note_u8(buf.capacity());
                }
                buf
            }
            None => vec![0; len],
        }
    }

    /// Returns a `u8` buffer to the pool (dropped when unpooled).
    pub fn recycle_u8(&self, buf: Vec<u8>) {
        if let Some(p) = self.pool() {
            if let Some(ledger) = &self.scratch {
                ledger.settle_u8(buf.capacity());
            }
            p.u8s().recycle(buf);
        }
    }
}

/// Result of applying one transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The transform completed; `T` is the transformed value.
    Done(T),
    /// The transform noticed the deadline and bailed out; `T` is the
    /// *input* value, unchanged, so the transform can be re-executed by a
    /// background worker.
    Interrupted(T),
}

/// Result of applying one transform in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InPlace {
    /// The transform mutated the sample to completion.
    Done,
    /// The transform noticed the deadline and bailed out, leaving the
    /// sample **in its input state** so re-executing this transform
    /// (background worker, no deadline) reproduces the uninterrupted
    /// result.
    Interrupted,
    /// The transform has no in-place implementation; the pipeline falls
    /// back to by-value [`Transform::apply`] for this step.
    ByValue,
}

/// A single preprocessing step.
///
/// Transforms are shared across worker threads, so implementations must be
/// `Send + Sync` and must not cache per-sample state internally.
pub trait Transform<T>: Send + Sync + 'static {
    /// Stable name used in profiling output and error messages.
    fn name(&self) -> &str;

    /// Applies the transform to `input`.
    ///
    /// Long-running implementations should periodically check
    /// [`TransformCtx::expired`] and return [`Outcome::Interrupted`] with
    /// the original input to honor the load balancer's timeout; short
    /// transforms may ignore the context entirely.
    fn apply(&self, input: T, ctx: &TransformCtx) -> Result<Outcome<T>>;

    /// Applies the transform by mutating `sample` in place — the
    /// zero-allocation hot path. Stages needing a differently shaped
    /// output buffer should draw it from [`TransformCtx::acquire_f32`]/
    /// [`TransformCtx::acquire_u8`] and recycle the buffer it replaces.
    ///
    /// The default has no in-place implementation and returns
    /// [`InPlace::ByValue`], making the pipeline fall back to the
    /// by-value [`Transform::apply`] for this step — existing transforms
    /// keep working unchanged.
    ///
    /// **Contract:** returning [`InPlace::Interrupted`] promises that
    /// `sample` was left in its input state (restore before bailing
    /// out), because the resume path re-executes this transform from
    /// scratch and must produce byte-identical output.
    fn apply_mut(&self, _sample: &mut T, _ctx: &TransformCtx) -> Result<InPlace> {
        Ok(InPlace::ByValue)
    }

    /// Volume classification used by Pecan's AutoOrder policy.
    fn cost_class(&self) -> CostClass {
        CostClass::Unknown
    }

    /// Whether this transform is a reordering barrier (AutoOrder never
    /// moves transforms across a barrier, §2.1).
    fn is_barrier(&self) -> bool {
        false
    }
}

/// Outcome of running a pipeline against a deadline.
#[derive(Debug)]
pub enum PipelineRun<T> {
    /// Every transform completed within the deadline.
    Completed {
        /// The fully preprocessed sample.
        value: T,
        /// Wall time spent inside this call.
        elapsed: Duration,
    },
    /// The deadline fired at transform `resume_at`; `partial` holds the
    /// value produced by transforms `0..resume_at`.
    TimedOut {
        /// Partially preprocessed sample.
        partial: T,
        /// Index of the first transform still to run.
        resume_at: usize,
        /// Wall time spent inside this call.
        elapsed: Duration,
    },
}

/// An ordered sequence of transforms applied to every sample.
///
/// # Examples
///
/// ```
/// use minato_core::transform::{fn_transform, Pipeline, PipelineRun};
///
/// let p: Pipeline<i32> = Pipeline::new(vec![
///     fn_transform("double", |x: i32| Ok(x * 2)),
///     fn_transform("inc", |x: i32| Ok(x + 1)),
/// ]);
/// match p.run(5, None).unwrap() {
///     PipelineRun::Completed { value, .. } => assert_eq!(value, 11),
///     _ => unreachable!("no deadline was set"),
/// }
/// ```
pub struct Pipeline<T> {
    steps: Vec<Arc<dyn Transform<T>>>,
}

impl<T> Clone for Pipeline<T> {
    fn clone(&self) -> Self {
        Pipeline {
            steps: self.steps.clone(),
        }
    }
}

impl<T: Send + 'static> Pipeline<T> {
    /// Creates a pipeline from an ordered list of transforms.
    pub fn new(steps: Vec<Arc<dyn Transform<T>>>) -> Pipeline<T> {
        Pipeline { steps }
    }

    /// An empty (identity) pipeline.
    pub fn identity() -> Pipeline<T> {
        Pipeline { steps: Vec::new() }
    }

    /// Number of transforms.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the pipeline has no transforms.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The transforms, in execution order.
    pub fn steps(&self) -> &[Arc<dyn Transform<T>>] {
        &self.steps
    }

    /// Returns a pipeline with the same transforms in a new order given by
    /// `order` (a permutation of `0..len`). Used by Pecan's AutoOrder.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..len`.
    pub fn reordered(&self, order: &[usize]) -> Pipeline<T> {
        assert_eq!(order.len(), self.steps.len(), "order length mismatch");
        let mut seen = vec![false; order.len()];
        for &i in order {
            assert!(
                i < self.steps.len() && !seen[i],
                "order is not a permutation"
            );
            seen[i] = true;
        }
        Pipeline {
            steps: order.iter().map(|&i| Arc::clone(&self.steps[i])).collect(),
        }
    }

    /// Runs the full pipeline from the first transform. See
    /// [`Pipeline::run_from`].
    pub fn run(&self, input: T, timeout: Option<Duration>) -> Result<PipelineRun<T>> {
        self.run_from(0, input, timeout)
    }

    /// Runs transforms `start_at..` on `input`, checking `timeout` between
    /// steps (Algorithm 1 lines 8–12).
    ///
    /// With `timeout = None` the pipeline always runs to completion — this
    /// is the background slow-worker path (Algorithm 1 lines 14–18).
    pub fn run_from(
        &self,
        start_at: usize,
        input: T,
        timeout: Option<Duration>,
    ) -> Result<PipelineRun<T>> {
        let ctx = TransformCtx::unbounded().with_timeout(timeout);
        self.run_ctx(start_at, input, ctx)
    }

    /// Runs transforms `start_at..` on `input` under an explicit
    /// execution context — the primitive behind [`Pipeline::run`] and
    /// [`Pipeline::run_from`].
    ///
    /// With [`TransformCtx::in_place`] set (e.g. via
    /// [`TransformCtx::with_pool`]) each step executes through
    /// [`Transform::apply_mut`], falling back to by-value
    /// [`Transform::apply`] per step when it reports
    /// [`InPlace::ByValue`]. Resume-at-index semantics are identical in
    /// both modes: a completed step is never redone, and an interrupted
    /// step `i` (which left the sample in its input state, per the
    /// `apply_mut` contract) re-executes from `resume_at = i`.
    pub fn run_ctx(&self, start_at: usize, input: T, ctx: TransformCtx) -> Result<PipelineRun<T>> {
        let start = Instant::now();
        let in_place = ctx.in_place();
        // The sample is owned directly: the by-value fallback moves it
        // into `apply` and reassigns from the outcome, so every exit path
        // has the value in hand without an `Option` dance.
        let mut value = input;
        let mut i = start_at;
        while i < self.steps.len() {
            let step = &self.steps[i];
            // Observer timing reads the clock only when one is attached,
            // keeping the unobserved path byte-identical.
            let step_t0 = ctx.observer.as_ref().map(|obs| {
                obs.stage_start(i, ctx.obs_epoch, ctx.obs_seq);
                Instant::now()
            });
            let status = if in_place {
                step.apply_mut(&mut value, &ctx)?
            } else {
                InPlace::ByValue
            };
            let interrupted = match status {
                InPlace::Done => false,
                InPlace::Interrupted => true,
                InPlace::ByValue => match step.apply(value, &ctx)? {
                    Outcome::Done(v) => {
                        value = v;
                        false
                    }
                    Outcome::Interrupted(v) => {
                        value = v;
                        true
                    }
                },
            };
            if interrupted {
                // The transform bailed out mid-flight; it must be
                // re-executed from scratch by the background worker.
                // No `stage_end`: the step will re-run and report then.
                return Ok(PipelineRun::TimedOut {
                    partial: value,
                    resume_at: i,
                    elapsed: start.elapsed(),
                });
            }
            if let (Some(obs), Some(t0)) = (&ctx.observer, step_t0) {
                obs.stage_end(i, ctx.obs_epoch, ctx.obs_seq, t0.elapsed());
            }
            i += 1;
            // Deadline check *after* the completed transform: resume
            // continues at the next step (nothing is redone). Forced
            // clock read — the between-step check must stay timely even
            // when kernels amortize their polls.
            if i < self.steps.len() && ctx.expired_now() {
                return Ok(PipelineRun::TimedOut {
                    partial: value,
                    resume_at: i,
                    elapsed: start.elapsed(),
                });
            }
        }
        Ok(PipelineRun::Completed {
            value,
            elapsed: start.elapsed(),
        })
    }
}

struct FnTransform<F> {
    name: String,
    f: F,
    class: CostClass,
    barrier: bool,
}

impl<T, F> Transform<T> for FnTransform<F>
where
    T: Send + 'static,
    F: Fn(T) -> Result<T> + Send + Sync + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn apply(&self, input: T, _ctx: &TransformCtx) -> Result<Outcome<T>> {
        (self.f)(input).map(Outcome::Done)
    }

    fn cost_class(&self) -> CostClass {
        self.class
    }

    fn is_barrier(&self) -> bool {
        self.barrier
    }
}

/// Wraps a plain closure as a (non-interruptible) transform.
pub fn fn_transform<T, F>(name: &str, f: F) -> Arc<dyn Transform<T>>
where
    T: Send + 'static,
    F: Fn(T) -> Result<T> + Send + Sync + 'static,
{
    Arc::new(FnTransform {
        name: name.to_string(),
        f,
        class: CostClass::Unknown,
        barrier: false,
    })
}

/// Like [`fn_transform`] but with an explicit [`CostClass`] (for AutoOrder).
pub fn fn_transform_classed<T, F>(name: &str, class: CostClass, f: F) -> Arc<dyn Transform<T>>
where
    T: Send + 'static,
    F: Fn(T) -> Result<T> + Send + Sync + 'static,
{
    Arc::new(FnTransform {
        name: name.to_string(),
        f,
        class,
        barrier: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::LoaderError;

    /// Transform that burns CPU for a fixed duration, polling the deadline.
    struct Burn {
        name: String,
        cost: Duration,
        cooperative: bool,
    }

    impl Transform<u64> for Burn {
        fn name(&self) -> &str {
            &self.name
        }

        fn apply(&self, input: u64, ctx: &TransformCtx) -> Result<Outcome<u64>> {
            let start = Instant::now();
            while start.elapsed() < self.cost {
                if self.cooperative && ctx.expired() {
                    return Ok(Outcome::Interrupted(input));
                }
                std::hint::spin_loop();
            }
            Ok(Outcome::Done(input + 1))
        }
    }

    fn burn(name: &str, ms: u64, cooperative: bool) -> Arc<dyn Transform<u64>> {
        Arc::new(Burn {
            name: name.into(),
            cost: Duration::from_millis(ms),
            cooperative,
        })
    }

    #[test]
    fn completes_without_deadline() {
        let p = Pipeline::new(vec![burn("a", 1, false), burn("b", 1, false)]);
        match p.run(0, None).unwrap() {
            PipelineRun::Completed { value, .. } => assert_eq!(value, 2),
            PipelineRun::TimedOut { .. } => panic!("should complete"),
        }
    }

    #[test]
    fn times_out_between_transforms() {
        // First transform (non-cooperative) exceeds the deadline; the check
        // after it fires and the second transform never runs.
        let p = Pipeline::new(vec![burn("slow", 30, false), burn("next", 1, false)]);
        match p.run(0, Some(Duration::from_millis(5))).unwrap() {
            PipelineRun::TimedOut {
                partial, resume_at, ..
            } => {
                assert_eq!(partial, 1); // First transform DID complete.
                assert_eq!(resume_at, 1); // Resume at the second.
            }
            PipelineRun::Completed { .. } => panic!("should time out"),
        }
    }

    #[test]
    fn cooperative_transform_is_interrupted_and_reexecuted() {
        let p = Pipeline::new(vec![burn("fast", 1, true), burn("slow", 50, true)]);
        match p.run(0, Some(Duration::from_millis(10))).unwrap() {
            PipelineRun::TimedOut {
                partial, resume_at, ..
            } => {
                assert_eq!(resume_at, 1); // The slow transform re-executes.
                assert_eq!(partial, 1); // Output of the fast transform.
                                        // Background path: resume without timeout completes.
                match p.run_from(resume_at, partial, None).unwrap() {
                    PipelineRun::Completed { value, .. } => assert_eq!(value, 2),
                    _ => panic!("background run must complete"),
                }
            }
            PipelineRun::Completed { .. } => panic!("should time out"),
        }
    }

    #[test]
    fn last_transform_timeout_still_completes() {
        // Timeout noticed after the final transform is moot: the sample is
        // done and must be treated as completed.
        let p = Pipeline::new(vec![burn("only", 20, false)]);
        match p.run(0, Some(Duration::from_millis(1))).unwrap() {
            PipelineRun::Completed { value, .. } => assert_eq!(value, 1),
            PipelineRun::TimedOut { .. } => panic!("finished samples are fast samples"),
        }
    }

    #[test]
    fn expired_is_false_without_deadline() {
        let ctx = TransformCtx::unbounded();
        for _ in 0..1000 {
            assert!(!ctx.expired());
        }
    }

    #[test]
    fn expired_latches_once_observed() {
        let ctx = TransformCtx::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(ctx.expired(), "past deadline observed on the first poll");
        assert!(ctx.expired(), "latched without further clock reads");
        assert!(ctx.expired_now());
    }

    #[test]
    fn tight_polls_amortize_clock_reads_but_still_detect() {
        // A tight kernel polling millions of times must still notice a
        // short deadline — the adaptive stride caps skipped polls, so
        // expiry is detected promptly in wall time.
        let ctx = TransformCtx::with_deadline(Instant::now() + Duration::from_millis(5))
            .with_poll_stride(64);
        let t0 = Instant::now();
        let mut polls = 0u64;
        while !ctx.expired() {
            polls += 1;
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "expiry never detected after {polls} polls"
            );
        }
        // Detection may lag the 5 ms deadline only by the skew budget
        // plus scheduler noise, never by the old stride-in-polls bound.
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "detection too late: {:?}",
            t0.elapsed()
        );
        assert!(polls > 64, "tight loop must have skipped clock reads");
    }

    #[test]
    fn slow_polls_detect_within_skew_budget() {
        // A coarse poller (hundreds of µs between polls, like an
        // I/O-bound stage) must not wait `poll_stride` polls for the
        // clock: the adaptive stride drops to ~1 at this rate.
        let deadline = Duration::from_millis(5);
        let ctx = TransformCtx::with_deadline(Instant::now() + deadline);
        let t0 = Instant::now();
        let mut polls = 0u32;
        while !ctx.expired() {
            polls += 1;
            assert!(polls < 10_000, "expiry missed");
            std::thread::sleep(Duration::from_micros(300));
        }
        let lag = t0.elapsed().saturating_sub(deadline);
        assert!(
            lag < Duration::from_millis(20),
            "coarse poller detected expiry {lag:?} late"
        );
    }

    #[test]
    fn coarse_poller_after_tight_stage_still_detects_promptly() {
        // Regression: a tight stage calibrates the stride up, the
        // pipeline's between-step check resets it, and the next stage
        // polls every ~300µs. The first in-stage poll lands right after
        // the reset (a microsecond interval); the geometric ramp must
        // keep that from granting the full 64-poll cap, or a 6 ms
        // deadline goes unseen for ~19 ms and nothing classifies slow.
        let deadline = Duration::from_millis(6);
        let ctx = TransformCtx::with_deadline(Instant::now() + deadline);
        for _ in 0..10_000 {
            let _ = ctx.expired(); // Tight stage.
        }
        assert!(!ctx.expired_now()); // Step boundary.
        let mut polls = 0u32;
        while !ctx.expired() {
            polls += 1;
            assert!(polls < 10_000, "expiry missed");
            std::thread::sleep(Duration::from_micros(300));
        }
        // How far past the deadline the detection landed.
        let overshoot = ctx.deadline().unwrap().elapsed();
        assert!(
            overshoot < Duration::from_millis(20),
            "coarse poller detected expiry {overshoot:?} late after a tight stage"
        );
    }

    #[test]
    fn between_step_check_resets_stride_calibration() {
        // A tight kernel calibrates the stride up to the cap; the
        // between-step `expired_now` must reset it so the next stage
        // (possibly polling 4 orders of magnitude slower) reads the
        // clock on its first poll instead of skipping the cap out.
        let ctx = TransformCtx::with_deadline(Instant::now() + Duration::from_secs(3600));
        for _ in 0..10_000 {
            let _ = ctx.expired(); // Tight stage: stride grows to the cap.
        }
        assert!(ctx.next_read.get() > ctx.polls.get() + 1, "stride grew");
        assert!(!ctx.expired_now()); // Step boundary.
        assert_eq!(
            ctx.next_read.get(),
            ctx.polls.get() + 1,
            "next stage must read the clock on its first poll"
        );
    }

    #[test]
    fn in_place_falls_back_to_by_value_per_step() {
        // Transforms without `apply_mut` run through `apply` even when
        // the context requests in-place execution.
        let p: Pipeline<u64> = Pipeline::new(vec![
            fn_transform("x2", |x: u64| Ok(x * 2)),
            fn_transform("inc", |x: u64| Ok(x + 1)),
        ]);
        let ctx = TransformCtx::unbounded().with_in_place(true);
        match p.run_ctx(0, 5, ctx).unwrap() {
            PipelineRun::Completed { value, .. } => assert_eq!(value, 11),
            _ => panic!("no deadline"),
        }
    }

    #[test]
    fn ctx_acquire_without_pool_allocates_plainly() {
        let ctx = TransformCtx::unbounded();
        assert_eq!(ctx.acquire_f32(4), vec![0.0f32; 4]);
        assert_eq!(ctx.acquire_u8(3), vec![0u8; 3]);
        assert_eq!(ctx.acquire_f32_from(&[1.0, 2.0]), vec![1.0, 2.0]);
        ctx.recycle_f32(vec![0.0; 8]); // No pool: simply dropped.
    }

    #[test]
    fn ctx_acquire_round_trips_through_pool() {
        let pools = Arc::new(PoolSet::new(1 << 20));
        let ctx = TransformCtx::unbounded().with_pool(Arc::clone(&pools));
        assert!(ctx.in_place());
        let buf = ctx.acquire_f32(128);
        assert_eq!(buf, vec![0.0f32; 128]);
        ctx.recycle_f32(buf);
        // Same size class (64..128]: the recycled buffer serves it.
        let again = ctx.acquire_f32_from(&[3.0; 100]);
        assert_eq!(again, vec![3.0f32; 100]);
        assert!(pools.stats().f32s.hits >= 1, "second acquire reuses");
    }

    #[test]
    fn scratch_ledger_repays_unrecycled_buffers() {
        let pools = Arc::new(PoolSet::new(1 << 20));
        let ledger = Arc::new(ScratchLedger::new());
        let ctx = TransformCtx::unbounded()
            .with_pool(Arc::clone(&pools))
            .with_scratch(Arc::clone(&ledger));
        // Recycled scratch settles its ledger entry.
        let buf = ctx.acquire_f32(64);
        assert_eq!(ledger.outstanding(), 1);
        ctx.recycle_f32(buf);
        assert_eq!(ledger.outstanding(), 0);
        let baseline = pools.stats().f32s.bytes + pools.stats().u8s.bytes;
        // A "panicking" transform acquires and never recycles: the
        // buffers vanish with the unwinding stack (dropped here), and
        // only the ledger knows what the pool is still owed.
        let lost_f32 = ctx.acquire_f32(64);
        let lost_u8 = ctx.acquire_u8(256);
        drop((lost_f32, lost_u8));
        assert_eq!(ledger.outstanding(), 2);
        assert_eq!(ledger.repay(&pools), 2);
        assert_eq!(ledger.outstanding(), 0);
        let repaid = pools.stats().f32s.bytes + pools.stats().u8s.bytes;
        assert!(
            repaid >= baseline,
            "repay must restore pool bytes ({repaid} < {baseline})"
        );
    }

    /// In-place doubler whose first execution interrupts after restoring
    /// the sample — the `apply_mut` resume contract under test.
    struct InterruptOnce {
        fired: std::sync::atomic::AtomicBool,
    }

    impl Transform<Vec<f32>> for InterruptOnce {
        fn name(&self) -> &str {
            "interrupt-once"
        }

        fn apply(&self, mut v: Vec<f32>, _ctx: &TransformCtx) -> Result<Outcome<Vec<f32>>> {
            for x in v.iter_mut() {
                *x *= 2.0;
            }
            Ok(Outcome::Done(v))
        }

        fn apply_mut(&self, v: &mut Vec<f32>, _ctx: &TransformCtx) -> Result<InPlace> {
            use std::sync::atomic::Ordering;
            if !self.fired.swap(true, Ordering::Relaxed) {
                // Simulate noticing the deadline mid-mutation: scribble,
                // restore from a snapshot, bail out.
                let snapshot = v.clone();
                for x in v.iter_mut() {
                    *x += 7.0;
                }
                v.copy_from_slice(&snapshot);
                return Ok(InPlace::Interrupted);
            }
            for x in v.iter_mut() {
                *x *= 2.0;
            }
            Ok(InPlace::Done)
        }
    }

    #[test]
    fn interrupted_in_place_stage_resumes_byte_identically() {
        let p: Pipeline<Vec<f32>> = Pipeline::new(vec![Arc::new(InterruptOnce {
            fired: std::sync::atomic::AtomicBool::new(false),
        })]);
        let ctx = TransformCtx::unbounded().with_in_place(true);
        let (partial, resume_at) = match p.run_ctx(0, vec![1.5, -2.0, 3.25], ctx).unwrap() {
            PipelineRun::TimedOut {
                partial, resume_at, ..
            } => (partial, resume_at),
            _ => panic!("first execution must interrupt"),
        };
        assert_eq!(partial, vec![1.5, -2.0, 3.25], "input state restored");
        assert_eq!(resume_at, 0);
        let ctx = TransformCtx::unbounded().with_in_place(true);
        match p.run_ctx(resume_at, partial, ctx).unwrap() {
            PipelineRun::Completed { value, .. } => {
                assert_eq!(value, vec![3.0, -4.0, 6.5]);
            }
            _ => panic!("re-execution must complete"),
        }
    }

    #[test]
    fn errors_propagate() {
        let t = fn_transform("bad", |_x: u64| {
            Err(LoaderError::Transform {
                name: "bad".into(),
                msg: "boom".into(),
            })
        });
        let p = Pipeline::new(vec![t]);
        assert!(p.run(0, None).is_err());
    }

    #[test]
    fn identity_pipeline_passes_through() {
        let p: Pipeline<u64> = Pipeline::identity();
        match p.run(9, Some(Duration::ZERO)).unwrap() {
            PipelineRun::Completed { value, .. } => assert_eq!(value, 9),
            _ => panic!("identity cannot time out"),
        }
    }

    #[test]
    fn reordered_permutes_steps() {
        let p = Pipeline::new(vec![
            fn_transform("add1", |x: u64| Ok(x + 1)),
            fn_transform("mul2", |x: u64| Ok(x * 2)),
        ]);
        let r = p.reordered(&[1, 0]);
        match r.run(3, None).unwrap() {
            PipelineRun::Completed { value, .. } => assert_eq!(value, 7), // (3*2)+1
            _ => panic!(),
        }
        assert_eq!(r.steps()[0].name(), "mul2");
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn reordered_rejects_bad_permutation() {
        let p = Pipeline::new(vec![
            fn_transform("a", |x: u64| Ok(x)),
            fn_transform("b", |x: u64| Ok(x)),
        ]);
        let _ = p.reordered(&[0, 0]);
    }

    #[test]
    fn ctx_speedup_clamped_positive() {
        let ctx = TransformCtx::unbounded().with_speedup(0.0);
        assert!(ctx.speedup > 0.0);
    }

    #[test]
    fn run_from_skips_completed_prefix() {
        let p = Pipeline::new(vec![
            fn_transform("a", |x: u64| Ok(x + 1)),
            fn_transform("b", |x: u64| Ok(x + 10)),
        ]);
        match p.run_from(1, 100, None).unwrap() {
            PipelineRun::Completed { value, .. } => assert_eq!(value, 110),
            _ => panic!(),
        }
    }
}
