//! Ablations of MinatoLoader's design choices (DESIGN.md §5), on the
//! simulator.
//!
//! Not figures from the paper — these quantify the *design decisions* the
//! paper argues for: the timeout percentile (why P75, §4.2), adaptive
//! worker scaling (§4.3) and batch-queue depth. Anything measured on the
//! real threaded loader lives in `benchmark/`.

use crate::Scale;
use minato_data::WorkloadSpec;
use minato_metrics::table::{fnum, Table};
use minato_sim::{simulate, Policy, SimConfig};

/// Timeout-percentile sweep on the speech workload (simulator).
pub fn ablation_timeout_percentile(scale: Scale) -> String {
    let mut t = Table::new(&["percentile", "time (s)", "slow flagged %", "GPU %"]);
    for pct in [0.50, 0.75, 0.90, 0.99] {
        let mut cfg = SimConfig::config_a(WorkloadSpec::speech(3.0));
        cfg.max_batches = scale.cap(120);
        cfg.minato.timeout_percentile = pct;
        let r = simulate(Policy::Minato, &cfg);
        t.row_owned(vec![
            format!("P{:.0}", pct * 100.0),
            fnum(r.train_time_s, 0),
            fnum(r.slow_flagged as f64 / r.samples.max(1) as f64 * 100.0, 1),
            fnum(r.gpu_util_pct, 1),
        ]);
    }
    format!(
        "Ablation — timeout percentile (speech-3s; P75 defers the most samples\n\
         and is no slower than P99; P50 would flag over 35%, so the balancer\n\
         falls back to P90 and those two rows match)\n{}",
        t.render()
    )
}

/// Adaptive scheduler on/off across initial worker provisioning
/// (simulator).
pub fn ablation_adaptive_workers(scale: Scale) -> String {
    let mut t = Table::new(&["initial workers/GPU", "fixed (s)", "adaptive (s)", "gain"]);
    for wpg in [2usize, 6, 12, 24] {
        let mut cfg = SimConfig::config_a(WorkloadSpec::image_segmentation());
        cfg.max_batches = scale.cap(150);
        cfg.workers_per_gpu = wpg;
        let mut fixed = cfg.clone();
        fixed.minato.adaptive = false;
        let a = simulate(Policy::Minato, &cfg);
        let f = simulate(Policy::Minato, &fixed);
        t.row_owned(vec![
            format!("{wpg}"),
            fnum(f.train_time_s, 0),
            fnum(a.train_time_s, 0),
            format!("{:.2}x", f.train_time_s / a.train_time_s.max(1e-9)),
        ]);
    }
    format!(
        "Ablation — adaptive worker scheduler (img-seg; Formulas 1-2 recover\n\
         from mis-provisioned initial worker counts)\n{}",
        t.render()
    )
}

/// Batch-queue depth (prefetch) sweep for MinatoLoader (simulator).
pub fn ablation_queue_depth(scale: Scale) -> String {
    let mut t = Table::new(&["batch-queue depth", "time (s)", "GPU %"]);
    for depth in [1usize, 2, 4, 8] {
        let mut cfg = SimConfig::config_a(WorkloadSpec::image_segmentation());
        cfg.max_batches = scale.cap(150);
        cfg.prefetch = depth;
        let r = simulate(Policy::Minato, &cfg);
        t.row_owned(vec![
            format!("{depth}"),
            fnum(r.train_time_s, 0),
            fnum(r.gpu_util_pct, 1),
        ]);
    }
    format!(
        "Ablation — per-GPU batch-queue depth (img-seg; depth 2 suffices, the\n\
         paper's prefetch setting)\n{}",
        t.render()
    )
}

/// All three ablations, concatenated (the `ablations` row of
/// [`EXPERIMENTS`](crate::EXPERIMENTS)).
pub fn all_ablations(scale: Scale) -> String {
    format!(
        "{}\n{}\n{}",
        ablation_timeout_percentile(scale),
        ablation_adaptive_workers(scale),
        ablation_queue_depth(scale),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_sweep_produces_all_rows() {
        let s = ablation_timeout_percentile(Scale::Quick);
        for p in ["P50", "P75", "P90", "P99"] {
            assert!(s.contains(p), "missing {p}");
        }
    }

    #[test]
    fn adaptive_never_loses_badly() {
        // The adaptive scheduler must not be materially worse than fixed
        // provisioning anywhere in the sweep.
        let mut cfg = SimConfig::config_a(WorkloadSpec::image_segmentation());
        cfg.max_batches = 100;
        cfg.workers_per_gpu = 4;
        let mut fixed = cfg.clone();
        fixed.minato.adaptive = false;
        let a = simulate(Policy::Minato, &cfg);
        let f = simulate(Policy::Minato, &fixed);
        assert!(a.train_time_s <= f.train_time_s * 1.1);
    }
}
