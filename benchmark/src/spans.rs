//! The outside-in tracer: spans recorded from the benchmark's own files
//! around the calls into each layer — `Dataset::load`, every pipeline
//! step's `apply`/`apply_mut`, and the consumer's `next_batch`.
//!
//! Spans go to pre-sized per-thread buffers and are joined, analysed and
//! written out only after the repetition ends. Nothing is recorded inside
//! the program.

use crate::stats::{median, percentile};
use crate::workloads::BenchSample;
use minato_core::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span around one `next_batch` call on the consumer thread.
pub const KIND_NEXT_BATCH: u16 = 0;
/// Span around one `Dataset::load`.
pub const KIND_LOAD: u16 = 1;
/// Span around pipeline step `i` is `KIND_STEP0 + i`.
pub const KIND_STEP0: u16 = 2;

/// The transform ran to completion.
pub const DONE: u8 = 0;
/// The transform noticed the balancer's deadline and gave its input
/// back: the time in this span is wasted, the step runs again later.
pub const INTERRUPTED: u8 = 1;
/// The call returned an error.
pub const FAILED: u8 = 2;

#[derive(Clone, Copy)]
pub struct Span {
    pub kind: u16,
    pub outcome: u8,
    pub thread: u32,
    /// Dataset index of the sample; the batch number for `next_batch`.
    pub index: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where every thread's spans of one repetition end up.
pub struct SpanSink {
    origin: Instant,
    per_thread_capacity: usize,
    next_thread: AtomicU32,
    finished: Mutex<Vec<Vec<Span>>>,
}

/// One thread's buffer; handed to the sink when the thread exits (the
/// loader joins its threads on drop) or when the sink is collected.
struct Local {
    sink: Arc<SpanSink>,
    thread: u32,
    spans: Vec<Span>,
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut finished) = self.sink.finished.lock() {
            finished.push(std::mem::take(&mut self.spans));
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

impl SpanSink {
    pub fn new(per_thread_capacity: usize) -> Arc<SpanSink> {
        Arc::new(SpanSink {
            origin: Instant::now(),
            per_thread_capacity,
            next_thread: AtomicU32::new(0),
            finished: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn record(self: &Arc<Self>, kind: u16, outcome: u8, index: u32, start_ns: u64) {
        let end_ns = self.now_ns();
        LOCAL.with(|cell| {
            let mut slot = cell.borrow_mut();
            if !slot.as_ref().is_some_and(|l| Arc::ptr_eq(&l.sink, self)) {
                // First span of this thread for this sink (the consumer
                // thread outlives a repetition; dropping the old buffer
                // hands it to its own sink).
                *slot = Some(Local {
                    sink: Arc::clone(self),
                    thread: self.next_thread.fetch_add(1, Ordering::Relaxed),
                    spans: Vec::with_capacity(self.per_thread_capacity),
                });
            }
            let local = slot.as_mut().expect("slot was just filled");
            local.spans.push(Span {
                kind,
                outcome,
                thread: local.thread,
                index,
                start_ns,
                end_ns,
            });
        });
    }

    /// Every span recorded so far. Call after the loader was dropped, so
    /// its threads have exited and handed their buffers in.
    pub fn collect(self: &Arc<Self>) -> Vec<Span> {
        LOCAL.with(|cell| {
            let mut slot = cell.borrow_mut();
            if slot.as_ref().is_some_and(|l| Arc::ptr_eq(&l.sink, self)) {
                *slot = None;
            }
        });
        let mut finished = self.finished.lock().expect("span sink lock poisoned");
        let mut all: Vec<Span> = finished.drain(..).flatten().collect();
        all.sort_by_key(|s| s.start_ns);
        all
    }
}

/// Records a span around every `load`.
pub struct TimedDataset<D> {
    inner: D,
    sink: Arc<SpanSink>,
}

impl<D> TimedDataset<D> {
    pub fn new(inner: D, sink: Arc<SpanSink>) -> TimedDataset<D> {
        TimedDataset { inner, sink }
    }
}

impl<D: Dataset> Dataset for TimedDataset<D> {
    type Sample = D::Sample;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn load(&self, index: usize) -> Result<D::Sample> {
        let t0 = self.sink.now_ns();
        let loaded = self.inner.load(index);
        let outcome = if loaded.is_ok() { DONE } else { FAILED };
        self.sink.record(KIND_LOAD, outcome, index as u32, t0);
        loaded
    }

    fn size_hint_bytes(&self, index: usize) -> Option<u64> {
        self.inner.size_hint_bytes(index)
    }
}

/// Records a span around every `apply`/`apply_mut` of one pipeline step,
/// with what the call returned.
struct TimedTransform<S> {
    inner: Arc<dyn Transform<S>>,
    kind: u16,
    sink: Arc<SpanSink>,
}

impl<S: BenchSample> Transform<S> for TimedTransform<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn apply(&self, input: S, ctx: &TransformCtx) -> Result<Outcome<S>> {
        let index = input.index() as u32;
        let t0 = self.sink.now_ns();
        let out = self.inner.apply(input, ctx);
        let outcome = match &out {
            Ok(Outcome::Done(_)) => DONE,
            Ok(Outcome::Interrupted(_)) => INTERRUPTED,
            Err(_) => FAILED,
        };
        self.sink.record(self.kind, outcome, index, t0);
        out
    }

    fn apply_mut(&self, sample: &mut S, ctx: &TransformCtx) -> Result<InPlace> {
        let index = sample.index() as u32;
        let t0 = self.sink.now_ns();
        let out = self.inner.apply_mut(sample, ctx);
        let outcome = match &out {
            Ok(InPlace::Done) => DONE,
            Ok(InPlace::Interrupted) => INTERRUPTED,
            // No in-place form: the pipeline calls `apply` next, and that
            // call is the one that counts.
            Ok(InPlace::ByValue) => return out,
            Err(_) => FAILED,
        };
        self.sink.record(self.kind, outcome, index, t0);
        out
    }

    fn cost_class(&self) -> CostClass {
        self.inner.cost_class()
    }

    fn is_barrier(&self) -> bool {
        self.inner.is_barrier()
    }
}

/// The same pipeline with every step wrapped.
pub fn timed_pipeline<S: BenchSample>(pipeline: &Pipeline<S>, sink: &Arc<SpanSink>) -> Pipeline<S> {
    let steps = pipeline
        .steps()
        .iter()
        .enumerate()
        .map(|(i, step)| {
            Arc::new(TimedTransform {
                inner: Arc::clone(step),
                kind: KIND_STEP0 + i as u16,
                sink: Arc::clone(sink),
            }) as Arc<dyn Transform<S>>
        })
        .collect();
    Pipeline::new(steps)
}

/// One sample handed to the consumer.
#[derive(Clone, Copy)]
pub struct Delivery {
    pub epoch: u32,
    pub index: u32,
    /// Number of the `next_batch` call that returned it.
    pub batch: u32,
    pub slow: bool,
    pub seq: u64,
    pub checksum: u64,
}

/// What one traced repetition says about the layers.
#[derive(Default)]
pub struct Digest {
    pub load_us_per_sample: f64,
    pub busy_us_per_sample: f64,
    pub wasted_us_per_sample: f64,
    pub useful_frac: f64,
    pub calls_per_sample: f64,
    pub interrupts_per_sample: f64,
    pub residency_p50_ms: f64,
    pub wait_p50_ms: f64,
    /// Σ over `load` and every step of the span's median duration.
    pub stage_p50_sum_ms: f64,
}

/// Spans joined to the samples they belong to.
pub struct Joined {
    spans: Vec<Span>,
    /// Per span: `(epoch, delivering batch)` of its sample, when the
    /// sample's delivery was found.
    owner: Vec<Option<(u32, u32)>>,
    pub digest: Digest,
}

/// Joins worker-side spans to deliveries and folds them into a [`Digest`].
///
/// A span knows its sample's dataset index but not its epoch. Per index,
/// loads and deliveries are paired in time order: a delivery takes the
/// earliest unclaimed load that started before it, and a delivery with no
/// such load was served by the sample cache. A transform span belongs to
/// the latest load of its index that started before it. Two epochs of one
/// index in flight at once (possible only across an epoch boundary) can
/// swap owners; the digest's medians do not notice.
pub fn join(
    spans: Vec<Span>,
    deliveries: &[Delivery],
    batch_end_ns: &[u64],
    steps: usize,
) -> Joined {
    let delivered = deliveries.len().max(1) as f64;
    let mut loads: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.kind == KIND_LOAD {
            loads.entry(s.index).or_default().push(i);
        }
    }
    // Claim loads for deliveries, in delivery order (spans are sorted by
    // start, so each index's load list is too).
    let mut claimed: HashMap<u32, usize> = HashMap::new();
    let mut owner: Vec<Option<(u32, u32)>> = vec![None; spans.len()];
    let mut load_delivery_ns: HashMap<usize, u64> = HashMap::new();
    for d in deliveries {
        let Some(list) = loads.get(&d.index) else {
            continue;
        };
        let next = claimed.entry(d.index).or_insert(0);
        let t_delivered = batch_end_ns[d.batch as usize];
        if let Some(&li) = list.get(*next) {
            if spans[li].start_ns < t_delivered {
                owner[li] = Some((d.epoch, d.batch));
                load_delivery_ns.insert(li, t_delivered);
                *next += 1;
            }
        }
    }
    // Hand every transform span to the latest load of its index.
    let mut own_ns: HashMap<usize, u64> = HashMap::new();
    for i in 0..spans.len() {
        let s = spans[i];
        if s.kind < KIND_STEP0 {
            continue;
        }
        let Some(list) = loads.get(&s.index) else {
            continue;
        };
        let at = list.partition_point(|&li| spans[li].start_ns <= s.start_ns);
        if at > 0 {
            let li = list[at - 1];
            owner[i] = owner[li];
            *own_ns.entry(li).or_insert(0) += s.dur_ns();
        }
    }

    let mut digest = Digest::default();
    let mut load_ns = 0u64;
    let mut busy_ns = 0u64;
    let mut wasted_ns = 0u64;
    let mut calls = 0u64;
    let mut interrupts = 0u64;
    let mut per_kind_ms: Vec<Vec<f64>> = vec![Vec::new(); steps + 1];
    for s in &spans {
        match s.kind {
            KIND_NEXT_BATCH => {}
            KIND_LOAD => {
                load_ns += s.dur_ns();
                per_kind_ms[0].push(s.dur_ns() as f64 / 1e6);
            }
            _ => {
                busy_ns += s.dur_ns();
                calls += 1;
                if s.outcome == INTERRUPTED {
                    interrupts += 1;
                    wasted_ns += s.dur_ns();
                } else if let Some(v) = per_kind_ms.get_mut((s.kind - KIND_STEP0) as usize + 1) {
                    v.push(s.dur_ns() as f64 / 1e6);
                }
            }
        }
    }
    digest.load_us_per_sample = load_ns as f64 / 1e3 / delivered;
    digest.busy_us_per_sample = busy_ns as f64 / 1e3 / delivered;
    digest.wasted_us_per_sample = wasted_ns as f64 / 1e3 / delivered;
    digest.useful_frac = if busy_ns == 0 {
        1.0
    } else {
        1.0 - wasted_ns as f64 / busy_ns as f64
    };
    digest.calls_per_sample = calls as f64 / delivered;
    digest.interrupts_per_sample = interrupts as f64 / delivered;
    digest.stage_p50_sum_ms = per_kind_ms.iter().map(|v| median(v)).sum();

    let mut residency_ms = Vec::with_capacity(load_delivery_ns.len());
    let mut wait_ms = Vec::with_capacity(load_delivery_ns.len());
    for (&li, &t_delivered) in &load_delivery_ns {
        let residency = t_delivered - spans[li].start_ns;
        let own = spans[li].dur_ns() + own_ns.get(&li).copied().unwrap_or(0);
        residency_ms.push(residency as f64 / 1e6);
        wait_ms.push(residency.saturating_sub(own) as f64 / 1e6);
    }
    digest.residency_p50_ms = percentile(&residency_ms, 50.0);
    digest.wait_p50_ms = percentile(&wait_ms, 50.0);

    Joined {
        spans,
        owner,
        digest,
    }
}

impl Joined {
    /// Writes the spans as one JSON document: a `names` table for the
    /// span kinds and one row per span, `[kind, outcome, thread, epoch,
    /// index, start_ns, end_ns, parent]`. `parent` is the number of the
    /// `next_batch` span that delivered the sample (that span's own
    /// `index`); `epoch` and `parent` are -1 where the join found none.
    pub fn write(&self, path: &Path, workload: &str, step_names: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"names\":[\"next_batch\",\"load\""
        )?;
        for n in step_names {
            write!(out, ",\"{n}\"")?;
        }
        writeln!(
            out,
            "],\"outcomes\":[\"done\",\"interrupted\",\"failed\"],\
             \"columns\":[\"kind\",\"outcome\",\"thread\",\"epoch\",\"index\",\
             \"start_ns\",\"end_ns\",\"parent\"],\"spans\":["
        )?;
        for (i, (s, owner)) in self.spans.iter().zip(&self.owner).enumerate() {
            let (epoch, parent) = owner.map_or((-1, -1), |(e, b)| (i64::from(e), i64::from(b)));
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{},{},{},{},{},{},{},{}]{}",
                s.kind, s.outcome, s.thread, epoch, s.index, s.start_ns, s.end_ns, parent, sep
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
