//! One repetition: build a loader, consume it to exhaustion as a single
//! closed-loop client, check every delivered sample, and keep what the
//! metrics are computed from.

use crate::spans::{self, Delivery, Digest, SpanSink, TimedDataset};
use crate::stats::percentile;
use crate::sys;
use crate::workloads::{configure, order_seed, BenchSample, Shape, Workload};
use minato_baselines::torch::{TorchConfig, TorchLoader};
use minato_core::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Single-threaded outputs every delivered sample is compared with.
pub struct Reference {
    checksums: Vec<u64>,
    /// Σ of the preprocessed samples' payload bytes over one epoch.
    pub working_set_bytes: u64,
}

/// Runs the pipeline over the whole dataset on this thread. All in-tree
/// kernels seed their randomness from the sample, so what the loader's
/// workers produce must match bit for bit.
pub fn reference<W: Workload>(w: &W) -> Reference {
    let data = w.dataset();
    let pipeline = w.pipeline();
    let mut checksums = Vec::with_capacity(data.len());
    let mut working_set_bytes = 0;
    for i in 0..data.len() {
        let raw = data.load(i).expect("reference load failed");
        match pipeline.run_ctx(0, raw, w.reference_ctx()) {
            Ok(PipelineRun::Completed { value, .. }) => {
                checksums.push(value.checksum());
                working_set_bytes += value.payload_bytes();
            }
            Ok(PipelineRun::TimedOut { .. }) => panic!("reference run of sample {i} timed out"),
            Err(e) => panic!("reference run of sample {i} failed: {e}"),
        }
    }
    Reference {
        checksums,
        working_set_bytes,
    }
}

/// What is switched on around the loader in a repetition.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the only mode end-to-end metrics are taken from.
    Untraced,
    /// The harness's own span wrappers.
    Wrapped,
    /// The wrappers plus the loader's built-in tracer, histograms only.
    WrappedBuiltin,
}

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// Input generation + `builder.build()` returning.
    pub build_s: f64,
    pub delivered: usize,
    pub attempted: usize,
    pub failed: u64,
    pub throughput_sps: f64,
    /// Time the consumer was blocked inside `next_batch`, per batch.
    pub wait_mean_ms: f64,
    pub wait_p50_ms: f64,
    pub wait_p95_ms: f64,
    pub cpu_ms_per_ksample: f64,
    /// Share of all CPUs' time the host stole while the loader was consumed.
    pub steal_frac: f64,
    pub first_batch_ms: f64,
    pub shutdown_ms: f64,
    pub allocs_per_sample: f64,
    pub alloc_kb_per_sample: f64,
    pub threads: usize,
    pub slow_frac: f64,
    pub fill_frac: f64,
    pub slow_per_batch_p95: f64,
    /// Samples per second while the first epoch was delivered, and over
    /// the epochs after it (0 for a single epoch).
    pub fill_epoch_sps: f64,
    pub steady_epoch_sps: f64,
    /// Final loader counters; `None` for the torch baseline.
    pub stats: Option<LoaderStats>,
    pub workers_mean: f64,
    pub digest: Option<Digest>,
}

struct Consumed {
    wall_s: f64,
    cpu_ms: f64,
    steal_frac: f64,
    allocs: u64,
    alloc_bytes: u64,
    threads: usize,
    wait_ms: Vec<f64>,
    batch_end_ns: Vec<u64>,
    deliveries: Vec<Delivery>,
}

/// The closed loop: one consumer asks for the next batch only after it is
/// done with the previous one (checksum, drop, optional "GPU step").
fn consume<S: BenchSample>(
    shape: &Shape,
    sink: Option<&Arc<SpanSink>>,
    mut next: impl FnMut() -> Option<Batch<S>>,
) -> Consumed {
    let total = shape.total_samples();
    let batches = total.div_ceil(shape.batch_size);
    let mut wait_ms = Vec::with_capacity(batches + 1);
    let mut batch_end_ns = Vec::with_capacity(batches + 1);
    let mut deliveries: Vec<Delivery> = Vec::with_capacity(total);
    let mut threads = 0;
    let ticks0 = sys::cpu_ticks();
    let (allocs0, bytes0) = sys::alloc_counts();
    let cpu0 = sys::process_cpu_ns();
    let origin = Instant::now();
    loop {
        let asked = Instant::now();
        let asked_ns = sink.map(|s| s.now_ns());
        let Some(batch) = next() else {
            break;
        };
        let waited = asked.elapsed();
        let number = wait_ms.len() as u32;
        if let (Some(sink), Some(t0)) = (sink, asked_ns) {
            sink.record(spans::KIND_NEXT_BATCH, spans::DONE, number, t0);
            batch_end_ns.push(sink.now_ns());
        } else {
            batch_end_ns.push(origin.elapsed().as_nanos() as u64);
        }
        wait_ms.push(waited.as_secs_f64() * 1e3);
        for (sample, meta) in batch.samples.iter().zip(&batch.meta) {
            deliveries.push(Delivery {
                epoch: meta.epoch as u32,
                index: meta.index as u32,
                batch: number,
                slow: meta.slow,
                seq: meta.seq,
                checksum: sample.checksum(),
            });
        }
        drop(batch);
        if wait_ms.len() == batches / 2 {
            threads = sys::thread_count();
        }
        if !shape.gpu_step.is_zero() {
            std::thread::sleep(shape.gpu_step);
        }
    }
    let wall_s = origin.elapsed().as_secs_f64();
    let cpu_ms = (sys::process_cpu_ns() - cpu0) as f64 / 1e6;
    let (allocs1, bytes1) = sys::alloc_counts();
    Consumed {
        wall_s,
        cpu_ms,
        steal_frac: sys::steal_frac(ticks0, sys::cpu_ticks()),
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        threads,
        wait_ms,
        batch_end_ns,
        deliveries,
    }
}

/// Counts failed operations. An operation is one `(epoch, index)`; it
/// fails when it is missing, delivered twice, outside the epoch × index
/// grid, reported as an error by the loader, carries a payload whose
/// checksum differs from the reference, or (ordered mode) arrives with a
/// `seq` that does not increase.
fn count_failed(shape: &Shape, reference: &Reference, deliveries: &[Delivery], errors: u64) -> u64 {
    let mut seen = vec![false; shape.total_samples()];
    let mut failed = 0u64;
    let mut last_seq = None;
    for d in deliveries {
        let (epoch, index) = (d.epoch as usize, d.index as usize);
        if epoch >= shape.epochs || index >= shape.samples {
            failed += 1;
            continue;
        }
        let slot = &mut seen[epoch * shape.samples + index];
        if *slot || d.checksum != reference.checksums[index] {
            failed += 1;
        }
        *slot = true;
        if shape.ordered {
            if last_seq.is_some_and(|last| d.seq <= last) {
                failed += 1;
            }
            last_seq = Some(d.seq);
        }
    }
    let missing = seen.iter().filter(|s| !**s).count() as u64;
    // An errored sample is also a missing one: count it once.
    failed + missing.max(errors)
}

fn finish(
    shape: &Shape,
    reference: &Reference,
    build_s: f64,
    shutdown_ms: f64,
    errors: u64,
    c: &Consumed,
) -> Rep {
    let delivered = c.deliveries.len();
    let per_sample = delivered.max(1) as f64;
    let mut slow_per_batch = vec![0.0; c.wait_ms.len()];
    for d in &c.deliveries {
        if d.slow {
            slow_per_batch[d.batch as usize] += 1.0;
        }
    }
    // An epoch is complete when its last sample was handed over.
    let mut epoch_end_s = vec![0.0f64; shape.epochs];
    for d in &c.deliveries {
        if let Some(end) = epoch_end_s.get_mut(d.epoch as usize) {
            *end = end.max(c.batch_end_ns[d.batch as usize] as f64 / 1e9);
        }
    }
    let first_end = epoch_end_s[0];
    let last_end = epoch_end_s[shape.epochs - 1];
    let rate = |samples: usize, seconds: f64| {
        if seconds > 0.0 {
            samples as f64 / seconds
        } else {
            0.0
        }
    };
    Rep {
        build_s,
        delivered,
        attempted: shape.total_samples(),
        failed: count_failed(shape, reference, &c.deliveries, errors),
        throughput_sps: rate(delivered, c.wall_s),
        wait_mean_ms: c.wait_ms.iter().sum::<f64>() / c.wait_ms.len().max(1) as f64,
        wait_p50_ms: percentile(&c.wait_ms, 50.0),
        wait_p95_ms: percentile(&c.wait_ms, 95.0),
        cpu_ms_per_ksample: c.cpu_ms * 1e3 / per_sample,
        steal_frac: c.steal_frac,
        first_batch_ms: c.wait_ms.first().copied().unwrap_or(0.0),
        shutdown_ms,
        allocs_per_sample: c.allocs as f64 / per_sample,
        alloc_kb_per_sample: c.alloc_bytes as f64 / 1024.0 / per_sample,
        threads: c.threads,
        slow_frac: c.deliveries.iter().filter(|d| d.slow).count() as f64 / per_sample,
        fill_frac: delivered as f64 / (c.wait_ms.len().max(1) * shape.batch_size) as f64,
        slow_per_batch_p95: percentile(&slow_per_batch, 95.0),
        fill_epoch_sps: rate(shape.samples, first_end),
        steady_epoch_sps: rate(shape.samples * (shape.epochs - 1), last_end - first_end),
        stats: None,
        workers_mean: 0.0,
        digest: None,
    }
}

/// The builder of repetition `rep`'s loader over `data` and `pipeline`.
fn builder_for<W: Workload, D: Dataset<Sample = W::Sample>>(
    w: &W,
    reference: &Reference,
    data: D,
    pipeline: Pipeline<W::Sample>,
    mode: Mode,
    rep: usize,
) -> MinatoLoaderBuilder<D> {
    let builder = configure(
        w,
        MinatoLoader::builder(data, pipeline),
        rep,
        reference.working_set_bytes,
    );
    if mode == Mode::WrappedBuiltin {
        builder.trace(TraceConfig::histograms_only())
    } else {
        builder
    }
}

fn drive<D: Dataset>(
    shape: &Shape,
    reference: &Reference,
    builder: MinatoLoaderBuilder<D>,
    sink: Option<&Arc<SpanSink>>,
    setup_started: Instant,
) -> (Rep, Consumed)
where
    D::Sample: BenchSample,
{
    let loader = builder.build().expect("loader configuration rejected");
    let build_s = setup_started.elapsed().as_secs_f64();
    let consumed = consume(shape, sink, || loader.next_batch(0));
    let stats = loader.stats();
    let monitor = loader.trace();
    let closing = Instant::now();
    drop(loader);
    let shutdown_ms = closing.elapsed().as_secs_f64() * 1e3;
    let mut rep = finish(
        shape,
        reference,
        build_s,
        shutdown_ms,
        stats.errors,
        &consumed,
    );
    rep.workers_mean = if monitor.workers.is_empty() {
        stats.active_workers as f64
    } else {
        monitor.workers.mean()
    };
    rep.stats = Some(stats);
    (rep, consumed)
}

/// Repetition `rep` of the real loader. With a traced `mode` and a
/// `trace_file`, the joined spans are written there.
pub fn run_minato<W: Workload>(
    w: &W,
    reference: &Reference,
    mode: Mode,
    rep: usize,
    trace_file: Option<&Path>,
) -> Rep {
    let setup_started = Instant::now();
    let shape = w.shape();
    let data = w.dataset();
    let pipeline = w.pipeline();
    if mode == Mode::Untraced {
        let builder = builder_for(w, reference, data, pipeline, mode, rep);
        return drive(&shape, reference, builder, None, setup_started).0;
    }
    let steps = pipeline.len();
    let step_names: Vec<String> = pipeline.steps().iter().map(|s| s.name().into()).collect();
    // Any one thread may end up doing most of the work.
    let sink = SpanSink::new(shape.total_samples() * (steps + 1) / 2 + 1024);
    let timed = spans::timed_pipeline(&pipeline, &sink);
    let data = TimedDataset::new(data, Arc::clone(&sink));
    let builder = builder_for(w, reference, data, timed, mode, rep);
    let (mut rep, kept) = drive(&shape, reference, builder, Some(&sink), setup_started);
    let joined = spans::join(sink.collect(), &kept.deliveries, &kept.batch_end_ns, steps);
    if let Some(path) = trace_file {
        joined
            .write(path, shape.name, &step_names)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    rep.digest = Some(joined.digest);
    rep
}

/// Repetition `rep` of the in-tree PyTorch-style baseline on the same
/// inputs, consumer and checker.
pub fn run_torch<W: Workload>(w: &W, reference: &Reference, rep: usize) -> Rep {
    let shape = w.shape();
    let setup_started = Instant::now();
    let loader = TorchLoader::new(
        w.dataset(),
        w.pipeline(),
        TorchConfig {
            batch_size: shape.batch_size,
            num_workers: shape.workers.fast + shape.workers.slow,
            epochs: shape.epochs,
            shuffle: shape.shuffle,
            seed: order_seed(w, rep),
            ..TorchConfig::default()
        },
    )
    .expect("torch baseline configuration rejected");
    let build_s = setup_started.elapsed().as_secs_f64();
    let consumed = consume(&shape, None, || loader.next_batch());
    let errors = loader.errors();
    let closing = Instant::now();
    drop(loader);
    let shutdown_ms = closing.elapsed().as_secs_f64() * 1e3;
    finish(&shape, reference, build_s, shutdown_ms, errors, &consumed)
}
