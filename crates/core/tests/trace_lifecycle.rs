//! Acceptance tests for minato-trace wired through the loader: lifecycle
//! events flow from workers to the collector, the breakdown and
//! Perfetto export are well-formed, tracing is deterministic for a
//! deterministic loader configuration, and disabling it changes
//! nothing about what the loader delivers.

use minato_core::prelude::*;
use minato_trace::json::{self, JsonValue};
use std::time::Duration;

/// A deterministic single-worker loader: fixed ticket order, no
/// timeouts, no adaptive scaling — delivery (and therefore the traced
/// event stream) must be identical run to run.
fn deterministic_loader(trace: TraceConfig) -> MinatoLoader<VecDataset<u32>> {
    let ds = VecDataset::new((0..64u32).collect::<Vec<_>>());
    let pipeline = Pipeline::new(vec![
        fn_transform("scale", |x: u32| Ok(x * 3)),
        fn_transform("offset", |x: u32| Ok(x + 1)),
    ]);
    MinatoLoader::builder(ds, pipeline)
        .batch_size(8)
        .shuffle(false)
        .initial_workers(1)
        .max_workers(1)
        .timeout_policy(TimeoutPolicy::Disabled)
        .adaptive_workers(false)
        .trace(trace)
        .build()
        .expect("valid configuration")
}

fn delivered_indices(loader: &MinatoLoader<VecDataset<u32>>) -> Vec<Vec<usize>> {
    loader
        .iter()
        .map(|b| b.meta.iter().map(|m| m.index).collect())
        .collect()
}

/// A traced run records lifecycle events, folds a per-stage breakdown
/// with every pipeline step present, and reports end-to-end latency —
/// while the always-on delivery summary fills regardless.
#[test]
fn traced_run_populates_stats_and_breakdown() {
    let loader = deterministic_loader(TraceConfig::on());
    let n: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(n, 64);
    let stats = loader.stats();
    let trace = stats
        .trace
        .expect("tracing enabled must surface TraceStats");
    assert!(trace.recorded > 0, "events must be recorded");
    assert_eq!(trace.total_dropped(), 0, "tiny run must not overflow rings");
    let latency = stats
        .latency
        .expect("tracing enabled must fold a breakdown");
    assert!(latency.stage("scale").is_some(), "step 0 must have a row");
    assert!(latency.stage("offset").is_some(), "step 1 must have a row");
    assert_eq!(latency.stage("scale").map(|s| s.count), Some(64));
    let e2e = latency
        .end_to_end
        .expect("delivered samples imply end-to-end");
    assert_eq!(e2e.count, 64);
    assert!(e2e.p50_ms >= 0.0 && e2e.p50_ms <= e2e.p99_ms);
    assert_eq!(stats.delivery_ms.count, 64, "always-on delivery summary");
    assert!(stats.delivery_ms.p99 >= stats.delivery_ms.median);
}

/// With tracing off (the default), `stats()` carries no trace sections,
/// `export_trace` yields nothing — and the always-on delivery latency
/// still fills.
#[test]
fn disabled_tracing_is_absent_but_delivery_latency_remains() {
    let loader = deterministic_loader(TraceConfig::default());
    let n: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(n, 64);
    let stats = loader.stats();
    assert!(stats.trace.is_none());
    assert!(stats.latency.is_none());
    assert!(loader.export_trace().is_none());
    assert_eq!(stats.delivery_ms.count, 64);
    assert!(loader.trace().trace_dropped.is_empty());
}

/// Zero behavioral change when tracing toggles: same-seed runs with
/// tracing off and on deliver byte-identical batch compositions.
#[test]
fn tracing_does_not_change_delivery() {
    let off = deterministic_loader(TraceConfig::default());
    let on = deterministic_loader(TraceConfig::on());
    assert_eq!(
        delivered_indices(&off),
        delivered_indices(&on),
        "tracing must be observationally transparent"
    );
}

/// Two same-seed traced runs produce identical sample counts and
/// identical event counts — recording never perturbs scheduling on a
/// deterministic configuration.
#[test]
fn traced_runs_are_deterministic() {
    let run = || {
        let loader = deterministic_loader(TraceConfig::on());
        let samples: usize = loader.iter().map(|b| b.len()).sum();
        let stats = loader.stats();
        let trace = stats.trace.expect("tracing on");
        assert_eq!(trace.total_dropped(), 0, "counts only comparable lossless");
        let stage_counts: Vec<(String, u64)> = stats
            .latency
            .expect("breakdown")
            .stages
            .iter()
            .map(|s| (s.stage.clone(), s.count))
            .collect();
        (samples, trace.recorded, stage_counts)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "sample counts must match");
    assert_eq!(a.1, b.1, "recorded event counts must match");
    assert_eq!(a.2, b.2, "per-stage fold counts must match");
}

/// The Perfetto export round-trips through a JSON parse and carries
/// pid/tid/ts/dur/name on every span.
#[test]
fn chrome_trace_export_round_trips() {
    let loader = deterministic_loader(TraceConfig::on());
    let n: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(n, 64);
    let exported = loader.export_trace().expect("export_events > 0");
    let v = json::parse(&exported).expect("export must be valid JSON");
    assert_eq!(
        v.get("displayTimeUnit").and_then(|u| u.as_str()),
        Some("ms")
    );
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "a traced run must export spans");
    for (i, span) in events.iter().enumerate() {
        for key in ["pid", "tid", "ts", "dur"] {
            let num = span.get(key).and_then(|x| x.as_f64());
            assert!(
                num.is_some_and(|x| x >= 0.0),
                "span {i} must carry numeric {key}: {span:?}"
            );
        }
        assert!(
            span.get("name")
                .and_then(|x| x.as_str())
                .is_some_and(|s| !s.is_empty()),
            "span {i} must carry a name"
        );
        assert!(
            matches!(span.get("ph"), Some(JsonValue::String(p)) if p == "X"),
            "span {i} must be a complete event"
        );
    }
}

/// A deferred sample's background completion is a stage of its own:
/// every sample that crossed the cutoff folds into the `slow_resume` row.
#[test]
fn deferred_samples_fold_a_slow_resume_row() {
    let ds = VecDataset::new((0..32u32).collect::<Vec<_>>());
    let pipeline = Pipeline::new(vec![
        fn_transform("augment", |x: u32| {
            if x.is_multiple_of(8) {
                std::thread::sleep(Duration::from_millis(4));
            }
            Ok(x)
        }),
        fn_transform("to-tensor", Ok),
    ]);
    let loader = MinatoLoader::builder(ds, pipeline)
        .batch_size(8)
        .initial_workers(2)
        .max_workers(2)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
        .trace(TraceConfig::on())
        .build()
        .expect("valid configuration");
    let slow: usize = loader.iter().map(|b| b.slow_count()).sum();
    assert!(slow >= 4, "every 8th sample sleeps past the fixed cutoff");
    let stats = loader.stats();
    assert_eq!(stats.trace.expect("tracing on").total_dropped(), 0);
    let latency = stats.latency.expect("tracing on folds a breakdown");
    assert_eq!(
        latency.stage("slow_resume").map(|s| s.count),
        Some(slow as u64),
        "one resume per deferred sample"
    );
}

/// Tracing composes with the cache and pool observers: a multi-epoch
/// cached + pooled run records cache and pool events alongside the
/// lifecycle stream.
#[test]
fn cache_and_pool_events_flow() {
    let ds = VecDataset::new((0..32u32).collect::<Vec<_>>());
    let pipeline = Pipeline::new(vec![fn_transform("scale", |x: u32| Ok(x * 3))]);
    let loader = MinatoLoader::builder(ds, pipeline)
        .batch_size(8)
        .epochs(3)
        .shuffle(false)
        .initial_workers(1)
        .max_workers(1)
        .timeout_policy(TimeoutPolicy::Disabled)
        .cache_budget_bytes(1 << 20)
        .pool_budget_bytes(1 << 20)
        .trace(TraceConfig::on())
        .build()
        .expect("valid configuration");
    let n: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(n, 96);
    let stats = loader.stats();
    let cache = stats.cache.expect("cache enabled");
    assert!(cache.hits > 0, "epochs 2+ must hit the cache");
    let trace = stats.trace.expect("tracing on");
    assert!(trace.recorded > 0);
    // The exported window must contain cache hit spans from epochs 2+.
    let exported = loader.export_trace().expect("export on");
    assert!(
        exported.contains("cache_hit"),
        "cache hits must appear in the exported trace"
    );
}
