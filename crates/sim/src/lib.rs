//! Discrete-event simulator of single-server multi-GPU training pipelines.
//!
//! The paper's evaluation runs on 4×A100 / 8×V100 servers over hours of
//! wall time; this crate reproduces those experiments in virtual time:
//! CPU worker pools, GPUs, and bandwidth-limited storage with an LRU page
//! cache are modelled as FIFO resources, and each data loader is a
//! deterministic event-driven policy over them. A full paper-scale run
//! simulates in milliseconds, so every figure regenerates exactly.
//!
//! One entry point, [`simulate`], runs a [`Policy`] over a [`SimConfig`]:
//! `Torch`, `Pecan` and `DALI` on the in-order engine, `Minato`, the
//! `SizeHeuristic` strawman and the `NoClassify` ablation on Minato's.
//! Every policy counts a batch's slow samples against the same
//! ground-truth threshold ([`slow_threshold_ms`]), so any two policies
//! run over one configuration report the same total. Cost models come
//! from [`minato_data::WorkloadSpec`], calibrated to the paper's Table 2.

pub mod busy;
pub mod config;
pub mod policy;
pub mod report;
pub mod resources;
pub mod time;

pub use config::{MinatoSimCfg, SimConfig};
pub use policy::{simulate, Policy};
pub use report::SimReport;
pub use time::{SimDuration, SimTime};

use minato_data::WorkloadSpec;

/// Ground-truth "slow sample" threshold: the P75 of preprocessing times
/// over a fixed sample of profiles. Used consistently across all policies
/// so batch-composition comparisons (Figure 11) are apples-to-apples.
pub fn slow_threshold_ms(wl: &WorkloadSpec) -> f64 {
    let n = 2000.min(wl.n_samples.max(1));
    let mut totals: Vec<f64> = (0..n).map(|i| wl.sample_profile(i).total_ms).collect();
    totals.sort_by(f64::total_cmp);
    minato_metrics::quantile_sorted(&totals, 0.75).unwrap_or(f64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_threshold_sits_between_modes_for_speech() {
        let t = slow_threshold_ms(&WorkloadSpec::speech(3.0));
        assert!(t > 400.0 && t < 3000.0, "got {t}");
    }

    #[test]
    fn slow_threshold_near_p75_for_imgseg() {
        let t = slow_threshold_ms(&WorkloadSpec::image_segmentation());
        assert!((500.0..750.0).contains(&t), "got {t}");
    }
}
