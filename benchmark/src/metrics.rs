//! The metric dictionary: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! says the same to the driver (a test below holds the two together);
//! `README.md` explains each row.

use crate::workloads::{AudioCacheEpochs, ImgsegKernels, Noop, SpeechHol};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the loader sees. Taken from untraced repetitions only.
/// Each bound is three times the widest spread (IQR / median over ten
/// runs) the metric showed on any workload, rounded up to 0.05 and capped
/// at the driver's 0.25; `README.md` has the numbers, and says why the
/// mean wait and the CPU per sample are per-layer rows and not here.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_sps", "1/s", Higher, 0.25),
    e2e("batch_wait_p95_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One layer each; the prefix is the module's name.
pub const PER_LAYER: &[MetricDef] = &[
    layer("data.load_us_per_sample", "us", Lower),
    layer("transform.busy_us_per_sample", "us", Lower),
    layer("transform.wasted_us_per_sample", "us", Lower),
    layer("transform.useful_frac", "ratio", Higher),
    layer("transform.calls_per_sample", "count", Lower),
    layer("transform.solo_us_per_sample", "us", Lower),
    layer("transform.solo_inplace_us_per_sample", "us", Lower),
    layer("balancer.slow_frac", "ratio", Lower),
    layer("balancer.timeout_ms", "ms", Lower),
    layer("balancer.interrupts_per_sample", "count", Lower),
    layer("balancer.observe_ns", "ns", Lower),
    layer("queue.locks_per_sample", "count", Lower),
    layer("queue.cas_retries_per_sample", "count", Lower),
    layer("queue.uncontended_ns_per_item", "ns", Lower),
    layer("queue.handoff_ns_per_item", "ns", Lower),
    layer("queue.bulk8_ns_per_item", "ns", Lower),
    layer("queue.reserve_publish_ns", "ns", Lower),
    layer("batch.fill_frac", "ratio", Higher),
    layer("batch.slow_per_batch_p95", "count", Lower),
    layer("batch.reorder_ns_per_item", "ns", Lower),
    layer("sampler.next_many_ns_per_ticket", "ns", Lower),
    layer("scheduler.workers_mean", "count", Lower),
    layer("exec.switches_per_ksample", "count", Lower),
    layer("exec.steals_per_ksample", "count", Lower),
    layer("exec.step_overhead_ns", "ns", Lower),
    layer("cache.hit_rate", "ratio", Higher),
    layer("cache.evictions_per_sample", "count", Lower),
    layer("cache.resident_mb", "MB", Lower),
    layer("cache.fill_epoch_sps", "1/s", Higher),
    layer("cache.steady_epoch_sps", "1/s", Higher),
    layer("cache.get_hit_ns", "ns", Lower),
    layer("cache.insert_ns", "ns", Lower),
    layer("cache.insert_evict_ns", "ns", Lower),
    layer("pool.hit_rate", "ratio", Higher),
    layer("pool.resident_mb", "MB", Lower),
    layer("pool.acquire_recycle_ns", "ns", Lower),
    layer("pool.acquire_miss_ns", "ns", Lower),
    layer("trace.harness_overhead_frac", "ratio", Lower),
    layer("trace.builtin_overhead_frac", "ratio", Lower),
    layer("trace.dropped_frac", "ratio", Lower),
    layer("trace.record_ns", "ns", Lower),
    layer("loader.batch_wait_mean_ms", "ms", Lower),
    layer("loader.batch_wait_p50_ms", "ms", Lower),
    layer("loader.cpu_ms_per_ksample", "ms", Lower),
    layer("loader.build_ms", "ms", Lower),
    layer("loader.first_batch_ms", "ms", Lower),
    layer("loader.shutdown_ms", "ms", Lower),
    layer("loader.allocs_per_sample", "count", Lower),
    layer("loader.alloc_kb_per_sample", "KB", Lower),
    layer("loader.threads", "count", Lower),
    layer("loader.delivery_p50_ms", "ms", Lower),
    layer("loader.delivery_p99_ms", "ms", Lower),
    layer("loader.rep_spread_frac", "ratio", Lower),
    layer("loader.rss_growth_mb_per_rep", "MB", Lower),
    layer("loader.residency_p50_ms", "ms", Lower),
    layer("loader.wait_p50_ms", "ms", Lower),
    layer("loader.unexplained_frac", "ratio", Lower),
    layer("baselines.torch_sps", "1/s", Higher),
    layer("baselines.torch_batch_wait_p95_ms", "ms", Lower),
    layer("baselines.minato_over_torch", "ratio", Higher),
];

/// The workloads the driver gates on, and the one line on why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        ImgsegKernels::NAME,
        "real size-correlated volume kernels: data and transform do the work, queues almost none",
    ),
    (
        SpeechHol::NAME,
        "paper's head-of-line microbenchmark with sleeping transforms: balancer, slow path, batch assembly",
    ),
    (
        Noop::TAX,
        "identity transform, shuffled: only queue, exec, batch, sampler and counters work (framework tax)",
    ),
    (
        Noop::ORDERED,
        "identity transform in strict order: the same queue and batch layers through the reorder path",
    ),
];

/// Measured by this package's own commands and left out of
/// `BENCHMARK.json`: identical runs of it on this host are up to 38 % apart
/// in throughput, which no bound the driver allows holds (`README.md`).
pub const UNGATED: &[(&str, &str)] = &[(
    AudioCacheEpochs::NAME,
    "six epochs of audio kernels with the cache at half the working set over the buffer pool",
)];

/// Seconds one run measures for; also `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 27;

#[cfg(test)]
mod tests {
    use super::*;
    use minato_trace::json::{self, JsonValue};

    /// `(name, unit, better, bound)` of every entry of a metric list.
    fn rows(list: &JsonValue) -> Vec<(String, String, String, Option<f64>)> {
        let text = |m: &JsonValue, key| m.get(key).and_then(JsonValue::as_str).unwrap().to_string();
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(JsonValue::as_f64);
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect()
    }

    fn dictionary(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                let better = d.better.as_str().into();
                (d.name.into(), d.unit.into(), better, d.bound)
            })
            .collect()
    }

    /// The driver reads `BENCHMARK.json`, the program prints from this
    /// file's tables: they must say the same.
    #[test]
    fn benchmark_json_matches_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            rows(file.get("end_to_end").unwrap()),
            dictionary(END_TO_END)
        );
        assert_eq!(rows(file.get("per_layer").unwrap()), dictionary(PER_LAYER));
        let workloads: Vec<(&str, &str)> = file
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let text = |key| w.get(key).and_then(JsonValue::as_str).unwrap();
                (text("name"), text("why"))
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let seconds = file.get("run_seconds").and_then(JsonValue::as_f64);
        assert_eq!(seconds, Some(RUN_SECONDS as f64));
    }
}
