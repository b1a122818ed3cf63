//! The standing perf trajectory: canonical workloads on the real
//! threaded loader, each distilled into one `BENCH_<workload>.json`.
//!
//! Unlike the `fig*`/`tab*` harnesses (which reproduce the paper's
//! artifacts once), these runs are meant to be re-emitted on every CI
//! build and kept as a trajectory: each report carries throughput,
//! delivery-latency quantiles, allocations and lock acquisitions per
//! sample, cache/pool hit rates, and the per-stage latency breakdown
//! folded from the trace — enough to spot a regression in any one
//! subsystem from the JSON alone.
//!
//! The five workloads cover the runtime's distinct regimes:
//!
//! | workload             | exercises                                     |
//! |----------------------|-----------------------------------------------|
//! | `balanced`           | steady fast-path delivery, default timeouts   |
//! | `slow_heavy`         | timeout classification + background resume    |
//! | `phase_shift`        | elastic role migration under a moving bottleneck |
//! | `multi_epoch_cache`  | cross-epoch cache hits on later epochs        |
//! | `multi_tenant`       | two loaders sharing one executor pool, per-loader fairness |
//!
//! Allocation counts come from the process-global
//! [`crate::alloc_counter`]; binaries that do not register
//! [`CountingAlloc`](crate::alloc_counter::CountingAlloc) report 0
//! allocations per sample (not allocation-free — uninstrumented).

use crate::ablations::ShapedCost;
use crate::alloc_counter;
use minato_core::prelude::*;
use minato_core::transform::Transform;
use minato_data::{synthetic_dataset, work_pipeline_with_mode, WorkMode, WorkloadSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every workload `bench_all` knows how to run, in emission order.
pub const WORKLOADS: [&str; 5] = [
    "balanced",
    "slow_heavy",
    "phase_shift",
    "multi_epoch_cache",
    "multi_tenant",
];

/// One workload's distilled measurement — everything that lands in its
/// `BENCH_<workload>.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Whether this was a capped smoke run (CI) or a full run.
    pub smoke: bool,
    /// Samples delivered across all loaders/epochs.
    pub samples: u64,
    /// Batches delivered.
    pub batches: u64,
    /// Wall time of the iteration, milliseconds.
    pub wall_ms: f64,
    /// Delivered samples per second.
    pub throughput_sps: f64,
    /// Delivered raw-byte throughput, MB/s (0 when the dataset carries
    /// no size hints).
    pub throughput_mbps: f64,
    /// Median end-to-end delivery latency (ticket issue → consumer
    /// pop), milliseconds.
    pub delivery_p50_ms: f64,
    /// P99 end-to-end delivery latency, milliseconds.
    pub delivery_p99_ms: f64,
    /// Heap allocations per delivered sample; 0 when the binary did not
    /// register the counting allocator.
    pub allocs_per_sample: f64,
    /// Queue-mutex acquisitions per delivered sample.
    pub locks_per_sample: f64,
    /// Fraction of samples that took the slow path.
    pub slow_fraction: f64,
    /// Cross-epoch cache hit rate; `None` when the cache is off.
    pub cache_hit_rate: Option<f64>,
    /// Buffer-pool hit rate; `None` when pooling is off.
    pub pool_hit_rate: Option<f64>,
    /// Min/max per-loader throughput ratio over the loaders sharing
    /// one pool (1.0 = perfectly fair); `None` for workloads that run
    /// a single loader.
    pub fairness_ratio: Option<f64>,
    /// Trace events recorded across all rings.
    pub trace_recorded: u64,
    /// Trace events dropped (ring overflow + unassigned threads).
    pub trace_dropped: u64,
    /// Per-stage latency rows folded from the trace (pipeline steps,
    /// queue waits, slow resume).
    pub stages: Vec<StageLatency>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a float as JSON (finite guaranteed by construction; NaN and
/// infinities degrade to 0 rather than producing invalid JSON).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0".to_string()
    }
}

impl BenchReport {
    /// Serializes the report as a self-contained JSON object (no
    /// dependencies; validated against `minato_trace::json` in tests).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str(&format!(
            "\"workload\":\"{}\",\"smoke\":{},\"samples\":{},\"batches\":{}",
            json_escape(&self.workload),
            self.smoke,
            self.samples,
            self.batches
        ));
        out.push_str(&format!(
            ",\"wall_ms\":{},\"throughput_sps\":{},\"throughput_mbps\":{}",
            jnum(self.wall_ms),
            jnum(self.throughput_sps),
            jnum(self.throughput_mbps)
        ));
        out.push_str(&format!(
            ",\"delivery_p50_ms\":{},\"delivery_p99_ms\":{}",
            jnum(self.delivery_p50_ms),
            jnum(self.delivery_p99_ms)
        ));
        out.push_str(&format!(
            ",\"allocs_per_sample\":{},\"locks_per_sample\":{},\"slow_fraction\":{}",
            jnum(self.allocs_per_sample),
            jnum(self.locks_per_sample),
            jnum(self.slow_fraction)
        ));
        match self.cache_hit_rate {
            Some(r) => out.push_str(&format!(",\"cache_hit_rate\":{}", jnum(r))),
            None => out.push_str(",\"cache_hit_rate\":null"),
        }
        match self.pool_hit_rate {
            Some(r) => out.push_str(&format!(",\"pool_hit_rate\":{}", jnum(r))),
            None => out.push_str(",\"pool_hit_rate\":null"),
        }
        match self.fairness_ratio {
            Some(r) => out.push_str(&format!(",\"fairness_ratio\":{}", jnum(r))),
            None => out.push_str(",\"fairness_ratio\":null"),
        }
        out.push_str(&format!(
            ",\"trace_recorded\":{},\"trace_dropped\":{}",
            self.trace_recorded, self.trace_dropped
        ));
        out.push_str(",\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stage\":\"{}\",\"count\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{}}}",
                json_escape(&s.stage),
                s.count,
                jnum(s.p50_ms),
                jnum(s.p95_ms),
                jnum(s.p99_ms)
            ));
        }
        out.push_str("]}");
        out
    }

    /// The artifact filename this report is written under.
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.workload)
    }
}

/// Shared measurement scaffolding: iterates `loader` to exhaustion and
/// distills its stats into a [`BenchReport`].
fn measure<D: minato_core::dataset::Dataset>(
    workload: &str,
    smoke: bool,
    loader: &MinatoLoader<D>,
) -> BenchReport {
    let allocs0 = alloc_counter::allocations();
    let t0 = Instant::now();
    let mut samples = 0u64;
    let mut batches = 0u64;
    for b in loader.iter() {
        samples += b.len() as u64;
        batches += 1;
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let allocs = alloc_counter::allocations().saturating_sub(allocs0);
    report_from_stats(
        workload,
        smoke,
        samples,
        batches,
        wall_ms,
        allocs,
        &loader.stats(),
    )
}

fn report_from_stats(
    workload: &str,
    smoke: bool,
    samples: u64,
    batches: u64,
    wall_ms: f64,
    allocs: u64,
    stats: &LoaderStats,
) -> BenchReport {
    let wall_s = (wall_ms / 1e3).max(f64::MIN_POSITIVE);
    let per_sample = |v: u64| {
        if samples == 0 {
            0.0
        } else {
            v as f64 / samples as f64
        }
    };
    let breakdown = stats.latency.clone().unwrap_or_default();
    BenchReport {
        workload: workload.to_string(),
        smoke,
        samples,
        batches,
        wall_ms,
        throughput_sps: samples as f64 / wall_s,
        throughput_mbps: stats.bytes_done as f64 / 1e6 / wall_s,
        delivery_p50_ms: stats.delivery_ms.median,
        delivery_p99_ms: stats.delivery_ms.p99,
        allocs_per_sample: per_sample(allocs),
        locks_per_sample: per_sample(stats.queue_lock_acquisitions),
        slow_fraction: stats.slow_fraction,
        cache_hit_rate: stats.cache.as_ref().map(|c| c.hit_rate()),
        pool_hit_rate: stats.pool.as_ref().map(|p| p.combined().hit_rate()),
        fairness_ratio: None,
        trace_recorded: stats.trace.as_ref().map(|t| t.recorded).unwrap_or(0),
        trace_dropped: stats.trace.as_ref().map(|t| t.total_dropped()).unwrap_or(0),
        stages: breakdown.stages,
    }
}

/// Steady fast-path delivery on the image-segmentation profile with
/// default (paper P75) timeouts.
fn run_balanced(smoke: bool) -> BenchReport {
    let mut wl = WorkloadSpec::image_segmentation();
    wl.n_samples = if smoke { 48 } else { 240 };
    let ds = synthetic_dataset(&wl, 0.002);
    let loader = MinatoLoader::builder(ds, work_pipeline_with_mode(&wl, WorkMode::Sleep))
        .batch_size(8)
        .epochs(1)
        .initial_workers(3)
        .max_workers(4)
        .trace(TraceConfig::histograms_only())
        .build()
        .expect("valid configuration");
    measure("balanced", smoke, &loader)
}

/// The speech workload's long tail under an aggressive fixed cutoff:
/// heavy samples defer to the background path and resume there.
fn run_slow_heavy(smoke: bool) -> BenchReport {
    let mut wl = WorkloadSpec::speech(3.0);
    wl.n_samples = if smoke { 40 } else { 200 };
    let ds = synthetic_dataset(&wl, 0.002);
    let loader = MinatoLoader::builder(ds, work_pipeline_with_mode(&wl, WorkMode::Sleep))
        .batch_size(8)
        .epochs(1)
        .initial_workers(3)
        .max_workers(4)
        .slow_workers(2)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(2)))
        .trace(TraceConfig::histograms_only())
        .build()
        .expect("valid configuration");
    measure("slow_heavy", smoke, &loader)
}

/// The fig12-style moving bottleneck on the elastic executor: the
/// second half of the run turns mostly slow, so capacity must migrate.
fn run_phase_shift(smoke: bool) -> BenchReport {
    let n: u32 = if smoke { 96 } else { 320 };
    let cost_of = move |i: u32| {
        if i >= n / 2 && !i.is_multiple_of(5) {
            Duration::from_millis(4)
        } else {
            Duration::from_micros(400)
        }
    };
    let ds = VecDataset::new((0..n).collect::<Vec<_>>());
    let pipeline = Pipeline::new(vec![
        Arc::new(ShapedCost::new(cost_of)) as Arc<dyn Transform<u32>>
    ]);
    let loader = MinatoLoader::builder(ds, pipeline)
        .batch_size(8)
        .shuffle(false)
        .initial_workers(3)
        .max_workers(3)
        .slow_workers(1)
        .batch_workers(1)
        .queue_capacity(n as usize * 2)
        .ticket_chunk(4)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
        .executor(ExecutorConfig::Elastic { threads: 5 })
        .trace(TraceConfig::histograms_only())
        .build()
        .expect("valid configuration");
    measure("phase_shift", smoke, &loader)
}

/// Three epochs over the speech profile with the cross-epoch cache on:
/// epochs 2+ serve hits instead of re-running the pipeline.
fn run_multi_epoch_cache(smoke: bool) -> BenchReport {
    let mut wl = WorkloadSpec::speech(3.0);
    wl.n_samples = if smoke { 32 } else { 96 };
    let ds = synthetic_dataset(&wl, 0.002);
    let loader = MinatoLoader::builder(ds, work_pipeline_with_mode(&wl, WorkMode::Sleep))
        .batch_size(8)
        .epochs(3)
        .shuffle(false)
        .initial_workers(3)
        .max_workers(4)
        .cache_budget_bytes(1 << 30)
        .trace(TraceConfig::histograms_only())
        .build()
        .expect("valid configuration");
    measure("multi_epoch_cache", smoke, &loader)
}

/// Two identically shaped loaders on one shared executor pool.
/// `fairness_ratio` is min/max of their throughputs. Latency and trace
/// metrics come from loader 0; sample counts and throughput aggregate
/// both.
fn run_multi_tenant(smoke: bool) -> BenchReport {
    fn drain(l: &MinatoLoader<VecDataset<u32>>) -> (u64, u64, f64) {
        let t = Instant::now();
        let (mut samples, mut batches) = (0u64, 0u64);
        for batch in l.iter() {
            samples += batch.len() as u64;
            batches += 1;
        }
        (samples, batches, t.elapsed().as_secs_f64())
    }
    let per_loader: u32 = if smoke { 48 } else { 160 };
    let pool = SharedExecutor::new(5);
    let mk = |traced: bool| {
        let cost_of = |i: u32| {
            if i.is_multiple_of(10) {
                Duration::from_millis(2)
            } else {
                Duration::from_micros(400)
            }
        };
        let ds = VecDataset::new((0..per_loader).collect::<Vec<_>>());
        let pipeline = Pipeline::new(vec![
            Arc::new(ShapedCost::new(cost_of)) as Arc<dyn Transform<u32>>
        ]);
        MinatoLoader::builder(ds, pipeline)
            .batch_size(8)
            .shuffle(false)
            .initial_workers(2)
            .max_workers(2)
            .queue_capacity(per_loader as usize * 2)
            .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
            .executor(ExecutorConfig::Shared(pool.clone()))
            .trace(if traced {
                TraceConfig::histograms_only()
            } else {
                TraceConfig::default()
            })
            .build()
            .expect("valid configuration")
    };
    let a = mk(true);
    let b = mk(false);
    let allocs0 = alloc_counter::allocations();
    let t0 = Instant::now();
    let tb = std::thread::spawn(move || drain(&b));
    let (samples, batches, secs_a) = drain(&a);
    let (samples_b, _, secs_b) = tb.join().expect("loader thread must not panic");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let allocs = alloc_counter::allocations().saturating_sub(allocs0);
    let mut r = report_from_stats(
        "multi_tenant",
        smoke,
        samples + samples_b,
        batches,
        wall_ms,
        allocs,
        &a.stats(),
    );
    let thr_a = samples as f64 / secs_a.max(f64::MIN_POSITIVE);
    let thr_b = samples_b as f64 / secs_b.max(f64::MIN_POSITIVE);
    let max = thr_a.max(thr_b);
    r.fairness_ratio = Some(if max > 0.0 {
        thr_a.min(thr_b) / max
    } else {
        0.0
    });
    // locks/sample from loader 0's counters over loader 0's samples.
    r.locks_per_sample = if samples == 0 {
        0.0
    } else {
        a.stats().queue_lock_acquisitions as f64 / samples as f64
    };
    r
}

/// Runs one named workload. Unknown names return `None`.
pub fn run_workload(name: &str, smoke: bool) -> Option<BenchReport> {
    match name {
        "balanced" => Some(run_balanced(smoke)),
        "slow_heavy" => Some(run_slow_heavy(smoke)),
        "phase_shift" => Some(run_phase_shift(smoke)),
        "multi_epoch_cache" => Some(run_multi_epoch_cache(smoke)),
        "multi_tenant" => Some(run_multi_tenant(smoke)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minato_trace::json;

    #[test]
    fn report_json_is_valid_and_complete() {
        let r = BenchReport {
            workload: "unit \"quoted\"".to_string(),
            smoke: true,
            samples: 10,
            batches: 2,
            wall_ms: 12.5,
            throughput_sps: 800.0,
            throughput_mbps: 1.5,
            delivery_p50_ms: 3.0,
            delivery_p99_ms: 9.0,
            allocs_per_sample: 4.2,
            locks_per_sample: 1.1,
            slow_fraction: 0.25,
            cache_hit_rate: None,
            pool_hit_rate: Some(0.9),
            fairness_ratio: Some(0.75),
            trace_recorded: 100,
            trace_dropped: 0,
            stages: vec![StageLatency {
                stage: "decode".to_string(),
                count: 10,
                p50_ms: 1.0,
                p95_ms: 2.0,
                p99_ms: 3.0,
            }],
        };
        let v = json::parse(&r.to_json()).expect("report must be valid JSON");
        assert_eq!(
            v.get("workload").and_then(|w| w.as_str()),
            Some("unit \"quoted\"")
        );
        assert_eq!(v.get("samples").and_then(|s| s.as_f64()), Some(10.0));
        assert!(matches!(
            v.get("cache_hit_rate"),
            Some(json::JsonValue::Null)
        ));
        assert_eq!(v.get("pool_hit_rate").and_then(|p| p.as_f64()), Some(0.9));
        assert_eq!(v.get("fairness_ratio").and_then(|f| f.as_f64()), Some(0.75));
        let stages = v
            .get("stages")
            .and_then(|s| s.as_array())
            .expect("stages array");
        assert_eq!(stages.len(), 1);
        assert_eq!(
            stages[0].get("stage").and_then(|s| s.as_str()),
            Some("decode")
        );
        assert_eq!(stages[0].get("p95_ms").and_then(|p| p.as_f64()), Some(2.0));
    }

    #[test]
    fn unknown_workload_is_rejected() {
        assert!(run_workload("nope", true).is_none());
        for w in WORKLOADS {
            // Names stay resolvable (runs themselves are exercised by
            // the smoke binary and crates/bench/tests/bench_all.rs).
            assert!(WORKLOADS.contains(&w));
        }
    }
}
