//! Functional gate for the `bench_all` perf-trajectory harness: every
//! canonical workload runs in smoke mode, delivers samples, and emits
//! a JSON report that parses and carries the trajectory's key metrics.

use minato_bench::bench_all::{run_workload, WORKLOADS};
use minato_trace::json;

#[test]
fn every_workload_emits_a_parsable_report() {
    for name in WORKLOADS {
        let r = run_workload(name, true).expect("known workload");
        assert_eq!(r.workload, name);
        assert!(r.samples > 0, "{name}: must deliver samples");
        assert!(r.batches > 0, "{name}: must deliver batches");
        assert!(
            r.throughput_sps > 0.0,
            "{name}: throughput must be positive"
        );
        assert_eq!(r.filename(), format!("BENCH_{name}.json"));
        let v = json::parse(&r.to_json()).unwrap_or_else(|e| {
            panic!("{name}: report must be valid JSON: {e:?}");
        });
        for key in [
            "workload",
            "samples",
            "wall_ms",
            "throughput_sps",
            "delivery_p50_ms",
            "delivery_p99_ms",
            "allocs_per_sample",
            "locks_per_sample",
            "cache_hit_rate",
            "pool_hit_rate",
            "fairness_ratio",
            "trace_recorded",
            "stages",
        ] {
            assert!(v.get(key).is_some(), "{name}: report must carry {key:?}");
        }
        assert!(
            v.get("stages")
                .and_then(|s| s.as_array())
                .is_some_and(|s| !s.is_empty()),
            "{name}: traced run must fold at least one stage row"
        );
        assert_eq!(
            v.get("samples").and_then(|s| s.as_f64()),
            Some(r.samples as f64)
        );
    }
}

#[test]
fn shared_pool_workload_reports_fairness() {
    let r = run_workload("multi_tenant", true).expect("known workload");
    let f = r
        .fairness_ratio
        .expect("two loaders on one pool compute per-loader fairness");
    assert!(f > 0.0 && f <= 1.0, "fairness ratio must be in (0, 1]: {f}");
}

#[test]
fn cache_workload_reports_cache_hits() {
    let r = run_workload("multi_epoch_cache", true).expect("known workload");
    let hit_rate = r.cache_hit_rate.expect("cache workload enables the cache");
    assert!(
        hit_rate > 0.3,
        "epochs 2+ must hit the cache: hit rate {hit_rate:.2}"
    );
}

#[test]
fn slow_workload_reports_slow_fraction_and_resume_stage() {
    let r = run_workload("slow_heavy", true).expect("known workload");
    assert!(
        r.slow_fraction > 0.0,
        "aggressive cutoff must defer some samples"
    );
    assert!(
        r.stages.iter().any(|s| s.stage == "slow_resume"),
        "deferred samples must fold a slow_resume stage row"
    );
}
