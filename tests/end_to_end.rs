//! Cross-crate integration tests: the real loaders over the calibrated
//! synthetic workloads, compared against each other and the simulator.

use minato::baselines::torch::{TorchConfig, TorchLoader};
use minato::core::prelude::*;
use minato::data::{synthetic_dataset, work_pipeline_with_mode, WorkMode, WorkloadSpec};
use std::collections::HashMap;
use std::time::Duration;

/// A scaled-down speech workload: the work pipeline burns real CPU
/// proportional to the paper-calibrated per-sample costs.
fn speech_small() -> (WorkloadSpec, f64) {
    let mut wl = WorkloadSpec::speech(3.0);
    wl.n_samples = 40;
    (wl, 0.002) // 1/500 scale: heavy ≈ 6 ms, light ≈ 1 ms.
}

#[test]
fn minato_delivers_calibrated_workload_exactly_once() {
    let (wl, scale) = speech_small();
    let ds = synthetic_dataset(&wl, scale);
    let pipeline = work_pipeline_with_mode(&wl, WorkMode::Sleep);
    let loader = MinatoLoader::builder(ds, pipeline)
        .batch_size(8)
        .initial_workers(3)
        .max_workers(4)
        .warmup_samples(10)
        .build()
        .expect("valid configuration");
    let mut seen: HashMap<usize, usize> = HashMap::new();
    for batch in loader.iter() {
        for s in &batch.samples {
            *seen.entry(s.index).or_default() += 1;
            // Every transform ran.
            assert_eq!(s.steps_done, wl.steps.len());
        }
    }
    assert_eq!(seen.len(), 40);
    assert!(seen.values().all(|&c| c == 1));
}

#[test]
fn minato_flags_heavy_samples_slow() {
    // Sleeping steps at 1/250 scale: a light sample sleeps ≈ 2 ms in its
    // LightStep, a heavy one (index % 5 == 0) another 38 ms in its
    // HeavyStep, the last step. The cutoff is 6 ms. Only properties that
    // hold however slowly the host runs are asserted.
    let mut wl = WorkloadSpec::speech(10.0);
    wl.n_samples = 40;
    let scale = 0.004;
    let cutoff = Duration::from_millis(6);
    let ds = synthetic_dataset(&wl, scale);
    let loader = MinatoLoader::builder(ds, work_pipeline_with_mode(&wl, WorkMode::Sleep))
        .batch_size(8)
        .epochs(3)
        .initial_workers(3)
        .max_workers(4)
        .slow_workers(2)
        .timeout_policy(TimeoutPolicy::Fixed(cutoff))
        .build()
        .expect("valid configuration");
    let mut delivered: HashMap<usize, usize> = HashMap::new();
    let mut heavy_flags = 0usize;
    let mut light_flags = Vec::new();
    for batch in loader.iter() {
        for m in &batch.meta {
            *delivered.entry(m.index).or_default() += 1;
            if !m.slow {
                continue;
            }
            // A sample is flagged only when its fast run saw the deadline
            // pass, and the deadline and the reported time count from
            // the same instant: no flagged sample took less than the
            // cutoff, however the host schedules the sleeps.
            assert!(
                m.preprocess >= cutoff,
                "sample {} flagged after {:?}",
                m.index,
                m.preprocess
            );
            if m.index % 5 == 0 {
                heavy_flags += 1;
            } else {
                light_flags.push(m.index);
            }
        }
    }
    assert_eq!(delivered.len(), 40);
    assert!(
        delivered.values().all(|&n| n == 3),
        "3 epochs, exactly once"
    );
    // The HeavyStep dozes in slices of at most 300 µs and polls the
    // deadline between them. It starts at most 6 ms before the deadline
    // and needs 38 ms, so it is always interrupted unless one or two
    // slices overrun by more than 30 ms; a deadline that passes during
    // an earlier step is caught by the check between steps. So every
    // heavy execution is flagged: 8 heavy samples × 3 epochs.
    assert_eq!(heavy_flags, 24, "heavy executions missed the deadline");
    // A light sample is flagged only when the host stretched its 2 ms of
    // sleep past the cutoff, which depends on the host's load: reported,
    // not asserted.
    println!(
        "light samples flagged: {} of 96 {light_flags:?}",
        light_flags.len()
    );
}

#[test]
fn torch_baseline_and_minato_agree_on_content() {
    let (wl, scale) = speech_small();
    let minato = {
        let loader = MinatoLoader::builder(
            synthetic_dataset(&wl, scale),
            work_pipeline_with_mode(&wl, WorkMode::Sleep),
        )
        .batch_size(8)
        .seed(11)
        .initial_workers(2)
        .max_workers(3)
        .build()
        .expect("valid configuration");
        let mut idx: Vec<usize> = loader
            .iter()
            .flat_map(|b| b.into_samples())
            .map(|s| s.index)
            .collect();
        idx.sort_unstable();
        idx
    };
    let torch = {
        let loader = TorchLoader::new(
            synthetic_dataset(&wl, scale),
            work_pipeline_with_mode(&wl, WorkMode::Sleep),
            TorchConfig {
                batch_size: 8,
                num_workers: 2,
                seed: 11,
                ..Default::default()
            },
        )
        .expect("valid configuration");
        let mut idx: Vec<usize> = loader
            .iter()
            .flat_map(|b| b.into_samples())
            .map(|s| s.index)
            .collect();
        idx.sort_unstable();
        idx
    };
    assert_eq!(minato, torch, "both loaders cover the same sample set");
}

#[test]
fn adaptive_scheduler_reacts_to_load() {
    // Underprovision the initial workers; the monitor must scale up.
    let (wl, scale) = speech_small();
    let loader = MinatoLoader::builder(
        synthetic_dataset(&wl, scale),
        work_pipeline_with_mode(&wl, WorkMode::Sleep),
    )
    .batch_size(4)
    .epochs(4)
    .initial_workers(1)
    .max_workers(4)
    .scheduler({
        let mut s = SchedulerConfig::paper_default(4);
        s.interval = Duration::from_millis(20);
        s
    })
    .build()
    .expect("valid configuration");
    let n: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(n, 160);
    let trace = loader.trace();
    let max_workers_seen = trace.workers.max();
    assert!(
        max_workers_seen > 1.0,
        "scheduler never scaled up: {max_workers_seen}"
    );
}

#[test]
fn order_preserving_mode_round_trip() {
    let (wl, scale) = speech_small();
    let loader = MinatoLoader::builder(
        synthetic_dataset(&wl, scale),
        work_pipeline_with_mode(&wl, WorkMode::Sleep),
    )
    .batch_size(8)
    .shuffle(false)
    .order_preserving(true)
    .initial_workers(3)
    .max_workers(3)
    .build()
    .expect("valid configuration");
    let idx: Vec<usize> = loader
        .iter()
        .flat_map(|b| b.into_samples())
        .map(|s| s.index)
        .collect();
    assert_eq!(idx, (0..40).collect::<Vec<_>>(), "strict order required");
}

#[test]
fn simulator_and_real_loader_agree_on_slow_fraction() {
    // The sim and the threaded loader share the calibrated workload; the
    // fraction of slow-classified samples should be in the same ballpark
    // (≈ 20% heavy for the speech microbenchmark).
    let mut cfg = minato::sim::SimConfig::config_a(WorkloadSpec::speech(3.0));
    cfg.max_batches = 60;
    let sim = minato::sim::simulate(minato::sim::Policy::Minato, &cfg);
    let sim_frac = sim.slow_flagged as f64 / sim.samples as f64;

    let (wl, scale) = speech_small();
    let loader = MinatoLoader::builder(
        synthetic_dataset(&wl, scale),
        work_pipeline_with_mode(&wl, WorkMode::Sleep),
    )
    .batch_size(8)
    .epochs(4)
    .initial_workers(3)
    .max_workers(4)
    .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(3)))
    .build()
    .expect("valid configuration");
    let mut slow = 0usize;
    let mut total = 0usize;
    for b in loader.iter() {
        slow += b.slow_count();
        total += b.len();
    }
    let real_frac = slow as f64 / total as f64;
    assert!(
        (sim_frac - real_frac).abs() < 0.12,
        "sim {sim_frac:.3} vs real {real_frac:.3}"
    );
}
