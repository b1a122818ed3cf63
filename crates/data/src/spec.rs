//! Workload specifications calibrated to the paper (Tables 1–3).
//!
//! A [`WorkloadSpec`] captures everything the simulator and the synthetic
//! datasets need to reproduce one of the paper's four workloads:
//!
//! * the preprocessing pipeline (transform names, per-transform cost
//!   shares, Pecan cost classes) — Table 1,
//! * per-sample raw/preprocessed sizes and total preprocessing time
//!   distributions — §2.2 and Table 2,
//! * training configuration (batch size, epochs/iterations) — Table 3,
//! * calibrated GPU step times for the A100/V100 testbeds (see DESIGN.md
//!   §4: chosen so baseline utilization matches Figure 1b; absolute
//!   seconds are substrate-specific, ratios are what we reproduce).
//!
//! Sample profiles are generated deterministically from `(seed, index)` so
//! every crate sees the same synthetic dataset.

use crate::dist::{standard_normal, Dist};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Pecan volume classification for a pipeline step (mirrors
/// `minato_core::transform::CostClass` without depending on it here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// Increases sample volume.
    Inflationary,
    /// Decreases sample volume.
    Deflationary,
    /// Volume-neutral.
    Neutral,
    /// Unknown effect.
    Unknown,
}

/// One step of a preprocessing pipeline.
#[derive(Debug, Clone)]
pub struct StepSpec {
    /// Transform name as in Table 1.
    pub name: &'static str,
    /// Fraction of the sample's *variable* preprocessing cost spent here.
    pub cost_share: f64,
    /// Fixed cost added to every sample for this step, in milliseconds
    /// (used by the speech workload's constant LightStep/HeavyStep).
    pub fixed_ms: f64,
    /// Pecan classification.
    pub class: StepClass,
    /// AutoOrder barrier (reordering never crosses it).
    pub barrier: bool,
}

impl StepSpec {
    fn new(name: &'static str, cost_share: f64, class: StepClass) -> StepSpec {
        StepSpec {
            name,
            cost_share,
            fixed_ms: 0.0,
            class,
            barrier: false,
        }
    }
}

/// Which GPU the step-time calibration refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuArch {
    /// NVIDIA A100 40 GB (paper Config. A).
    A100,
    /// NVIDIA V100 32 GB (paper Config. B; ≈2.1× slower steps).
    V100,
}

/// Training length, as configured in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainLength {
    /// Fixed number of passes over the dataset.
    Epochs(usize),
    /// Fixed number of optimizer steps (batches).
    Iterations(usize),
}

/// Deterministic per-sample profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleProfile {
    /// Raw on-storage size in bytes.
    pub raw_bytes: u64,
    /// Size after preprocessing in bytes.
    pub preprocessed_bytes: u64,
    /// Total CPU preprocessing time in milliseconds (one worker,
    /// Config. A-class core).
    pub total_ms: f64,
    /// Per-transform breakdown, aligned with [`WorkloadSpec::steps`]; sums
    /// to `total_ms`.
    pub per_step_ms: Vec<f64>,
}

/// A fully calibrated workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Workload name (e.g., `"image-segmentation"`).
    pub name: &'static str,
    /// Short label used in tables (e.g., `"Img. Seg."`).
    pub label: &'static str,
    /// Samples per epoch.
    pub n_samples: usize,
    /// Training length (Table 3).
    pub length: TrainLength,
    /// Batch size (Table 3).
    pub batch_size: usize,
    /// Pipeline steps (Table 1).
    pub steps: Vec<StepSpec>,
    /// GPU time to train one batch on an A100, in milliseconds.
    pub gpu_step_ms_a100: f64,
    /// DALI's accelerator speedup over CPU preprocessing (§5.1: measured
    /// 10× for the speech transforms; used by the DALI baseline/policy).
    pub dali_speedup: f64,
    /// Base RNG seed for sample-profile generation.
    pub seed: u64,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    ObjectDetection,
    ImageSegmentation,
    Speech {
        heavy_ms: f64,
        /// Probability a sample receives the HeavyStep. The paper's
        /// default pipeline applies it every 5th sample (0.2); Figure 12
        /// sweeps this fraction.
        heavy_fraction: f64,
        /// Apply heavy deterministically to `index % 5 == 0` (paper
        /// default) instead of by hashed fraction.
        every_fifth: bool,
    },
}

/// V100 step-time multiplier relative to A100 (older architecture;
/// calibrated so Config. B results in Figure 9 scale like the paper's).
pub const V100_SLOWDOWN: f64 = 2.1;

impl WorkloadSpec {
    /// Image segmentation: 3D-UNet over a KiTS19-like dataset (29 GB, 210
    /// training cases, heavy and highly variable preprocessing).
    pub fn image_segmentation() -> WorkloadSpec {
        WorkloadSpec {
            name: "image-segmentation",
            label: "Img. Seg.",
            n_samples: 210,
            length: TrainLength::Epochs(50),
            batch_size: 3,
            steps: vec![
                // RandomCrop dominates at ~338 ms of a ~500 ms average
                // (§3.1): share 0.68.
                StepSpec::new("RandomCrop", 0.68, StepClass::Deflationary),
                StepSpec::new("RandomFlip", 0.06, StepClass::Neutral),
                StepSpec::new("RandomBrightness", 0.10, StepClass::Neutral),
                StepSpec::new("GaussianNoise", 0.12, StepClass::Neutral),
                StepSpec::new("Cast", 0.04, StepClass::Neutral),
            ],
            gpu_step_ms_a100: 300.0,
            dali_speedup: 10.0,
            seed: 0x5eed_0001,
            kind: Kind::ImageSegmentation,
        }
    }

    /// Object detection: Mask R-CNN over a COCO-like dataset (58 GB,
    /// lightweight preprocessing).
    pub fn object_detection() -> WorkloadSpec {
        WorkloadSpec {
            name: "object-detection",
            label: "Obj. Det.",
            n_samples: 72_000,
            length: TrainLength::Iterations(1000),
            batch_size: 48,
            steps: vec![
                StepSpec::new("Resize", 0.45, StepClass::Unknown),
                StepSpec::new("RandomHorizontalFlip", 0.15, StepClass::Neutral),
                StepSpec::new("ToTensor", 0.20, StepClass::Neutral),
                StepSpec::new("Normalize", 0.20, StepClass::Neutral),
            ],
            gpu_step_ms_a100: 270.0,
            dali_speedup: 10.0,
            seed: 0x5eed_0002,
            kind: Kind::ObjectDetection,
        }
    }

    /// Speech recognition microbenchmark: RNN-T over a LibriSpeech-like
    /// dataset with a 0.5 s LightStep on every sample and a HeavyStep of
    /// `heavy_secs` on every 5th sample (§2.2).
    pub fn speech(heavy_secs: f64) -> WorkloadSpec {
        WorkloadSpec {
            name: if heavy_secs >= 10.0 {
                "speech-10s"
            } else {
                "speech-3s"
            },
            label: if heavy_secs >= 10.0 {
                "Speech-10s"
            } else {
                "Speech-3s"
            },
            n_samples: 28_000,
            length: TrainLength::Iterations(1000),
            batch_size: 24,
            steps: speech_steps(),
            gpu_step_ms_a100: 560.0,
            dali_speedup: 10.0,
            seed: 0x5eed_0003,
            kind: Kind::Speech {
                heavy_ms: heavy_secs * 1e3,
                heavy_fraction: 0.2,
                every_fifth: true,
            },
        }
    }

    /// Figure 12 variant: HeavyStep (3 s) applied to a hashed `fraction`
    /// of samples instead of every 5th.
    pub fn speech_with_slow_fraction(fraction: f64) -> WorkloadSpec {
        let mut s = WorkloadSpec::speech(3.0);
        s.name = "speech-3s-fraction";
        s.kind = Kind::Speech {
            heavy_ms: 3000.0,
            heavy_fraction: fraction.clamp(0.0, 1.0),
            every_fifth: false,
        };
        s
    }

    /// All four paper workloads, in the order the figures use.
    pub fn all_paper_workloads() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::image_segmentation(),
            WorkloadSpec::object_detection(),
            WorkloadSpec::speech(3.0),
            WorkloadSpec::speech(10.0),
        ]
    }

    /// GPU time for one training step on `arch`, in milliseconds.
    pub fn gpu_step_ms(&self, arch: GpuArch) -> f64 {
        match arch {
            GpuArch::A100 => self.gpu_step_ms_a100,
            GpuArch::V100 => self.gpu_step_ms_a100 * V100_SLOWDOWN,
        }
    }

    /// Total batches one full training run consumes on `gpus` GPUs.
    pub fn total_batches(&self) -> usize {
        match self.length {
            TrainLength::Epochs(e) => (self.n_samples * e).div_ceil(self.batch_size),
            TrainLength::Iterations(i) => i,
        }
    }

    /// Total samples a full training run consumes.
    pub fn total_samples(&self) -> usize {
        match self.length {
            TrainLength::Epochs(e) => self.n_samples * e,
            TrainLength::Iterations(i) => i * self.batch_size,
        }
    }

    /// Deterministic profile of sample `index`.
    pub fn sample_profile(&self, index: usize) -> SampleProfile {
        // Per-sample RNG: reproducible across crates and runs.
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match self.kind {
            Kind::ImageSegmentation => image_segmentation_profile(&self.steps, &mut rng),
            Kind::ObjectDetection => object_detection_profile(&self.steps, &mut rng),
            Kind::Speech {
                heavy_ms,
                heavy_fraction,
                every_fifth,
            } => speech_profile(
                &self.steps,
                heavy_ms,
                heavy_fraction,
                every_fifth,
                index,
                &mut rng,
            ),
        }
    }
}

fn speech_steps() -> Vec<StepSpec> {
    // The five real audio steps carry the (tiny) variable cost; LightStep
    // and HeavyStep are fixed-cost simulated compute (§2.2). Pad inflates
    // (Pecan moves it last in AutoOrder, §5.1).
    vec![
        StepSpec::new("Pad", 0.10, StepClass::Inflationary),
        StepSpec::new("SpecAugment", 0.25, StepClass::Neutral),
        StepSpec::new("FilterBank", 0.35, StepClass::Deflationary),
        StepSpec::new("FrameSplicing", 0.20, StepClass::Neutral),
        StepSpec::new("PermuteAudio", 0.10, StepClass::Neutral),
        StepSpec {
            name: "LightStep",
            cost_share: 0.0,
            fixed_ms: 500.0,
            class: StepClass::Neutral,
            barrier: true, // Simulated steps must not be reordered.
        },
        StepSpec {
            name: "HeavyStep",
            cost_share: 0.0,
            fixed_ms: 0.0, // Per-sample: set in the profile.
            class: StepClass::Neutral,
            barrier: true,
        },
    ]
}

fn split_shares(steps: &[StepSpec], variable_ms: f64) -> Vec<f64> {
    steps
        .iter()
        .map(|s| s.fixed_ms + s.cost_share * variable_ms)
        .collect()
}

/// Image segmentation (Table 2 row: avg 500, med 470, P75 630, P90 750,
/// min 10, max 2230, std 197). Preprocessing time correlates strongly with
/// raw volume size (§3.2), which the size heuristic exploits here — and
/// only here.
fn image_segmentation_profile(steps: &[StepSpec], rng: &mut StdRng) -> SampleProfile {
    // Shared latent factor: big volumes take long.
    let z = standard_normal(rng).clamp(-1.4, 3.2);
    let mut raw_mb = (136.0 + 72.0 * z).clamp(30.0, 375.0);
    let mut total_ms = 485.0 + 160.0 * z + 42.0 * standard_normal(rng);
    // Rare overrides reproducing the observed min/max tails. The override
    // sizes move with the override times: in KiTS19 the outliers are
    // physically small/large volumes, which is what keeps the size/time
    // correlation strong (§3.2).
    let coin: f64 = rng.random();
    if coin < 0.01 {
        total_ms = rng.random_range(1500.0..2230.0);
        raw_mb = rng.random_range(320.0..375.0);
    } else if coin < 0.04 {
        total_ms = rng.random_range(10.0..50.0);
        raw_mb = rng.random_range(30.0..45.0);
    }
    let total_ms = total_ms.clamp(10.0, 2230.0);
    SampleProfile {
        raw_bytes: (raw_mb * 1e6) as u64,
        preprocessed_bytes: 10_000_000, // Uniform 10 MB after preprocessing.
        per_step_ms: split_shares(steps, total_ms),
        total_ms,
    }
}

/// Object detection (Table 2 row: avg 31, med 28, P75 30, P90 35, min 11,
/// max 176, std 19). Time is *uncorrelated* with size (§3.2: a 408 KB
/// image in 13 ms, a 220 KB image in 155 ms), defeating the size
/// heuristic.
fn object_detection_profile(steps: &[StepSpec], rng: &mut StdRng) -> SampleProfile {
    let raw_mb = Dist::mixture(vec![
        (0.75, Dist::uniform(0.6, 1.0)),
        (0.25, Dist::uniform(0.1, 0.6)),
    ])
    .sample(rng);
    let body = 28.0 + 4.0 * standard_normal(rng);
    let coin: f64 = rng.random();
    let total_ms = if coin < 0.02 {
        rng.random_range(80.0..176.0)
    } else {
        body.max(11.0)
    };
    let pre_mb = rng.random_range(4.0..12.0);
    SampleProfile {
        raw_bytes: (raw_mb * 1e6) as u64,
        preprocessed_bytes: (pre_mb * 1e6) as u64,
        per_step_ms: split_shares(steps, total_ms),
        total_ms,
    }
}

/// Speech (Table 2 rows: Speech-3s avg 998/med 508/P90 3008; Speech-10s
/// avg 2351/P90 10008). Every sample pays ~2–9 ms of real audio steps plus
/// the fixed 500 ms LightStep; heavy samples add the HeavyStep.
fn speech_profile(
    steps: &[StepSpec],
    heavy_ms: f64,
    heavy_fraction: f64,
    every_fifth: bool,
    index: usize,
    rng: &mut StdRng,
) -> SampleProfile {
    let raw_mb = rng.random_range(0.06..0.34);
    let pre_mb = rng.random_range(0.4..9.0);
    let variable_ms = rng.random_range(2.0..9.0);
    let heavy = if every_fifth {
        index.is_multiple_of(5)
    } else {
        // Hash-mix the index so heavy samples are spread uniformly at any
        // fraction (Figure 12 sweeps 0..=100%).
        let h = (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        (h % 10_000) as f64 / 10_000.0 < heavy_fraction
    };
    let mut per_step_ms = split_shares(steps, variable_ms);
    // HeavyStep is the last step (index len-1) by construction. Table 2's
    // Speech-3s max is ~3017 ms, i.e., a heavy sample's *total* is the
    // advertised 3 s / 10 s: HeavyStep itself contributes that minus the
    // 500 ms LightStep already paid.
    if heavy {
        if let Some(last) = per_step_ms.last_mut() {
            *last += (heavy_ms - 500.0).max(0.0);
        }
    }
    let total_ms = per_step_ms.iter().sum();
    SampleProfile {
        raw_bytes: (raw_mb * 1e6) as u64,
        preprocessed_bytes: (pre_mb * 1e6) as u64,
        per_step_ms,
        total_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minato_metrics::Summary;

    fn totals(spec: &WorkloadSpec, n: usize) -> Vec<f64> {
        (0..n).map(|i| spec.sample_profile(i).total_ms).collect()
    }

    #[test]
    fn profiles_are_deterministic() {
        let spec = WorkloadSpec::image_segmentation();
        assert_eq!(spec.sample_profile(17), spec.sample_profile(17));
    }

    #[test]
    fn per_step_sums_to_total() {
        for spec in WorkloadSpec::all_paper_workloads() {
            for i in 0..50 {
                let p = spec.sample_profile(i);
                let sum: f64 = p.per_step_ms.iter().sum();
                assert!(
                    (sum - p.total_ms).abs() < 1e-6,
                    "{}: step sum {} != total {}",
                    spec.name,
                    sum,
                    p.total_ms
                );
                assert_eq!(p.per_step_ms.len(), spec.steps.len());
            }
        }
    }

    #[test]
    fn image_segmentation_matches_table2() {
        let spec = WorkloadSpec::image_segmentation();
        let s = Summary::of(&totals(&spec, 20_000));
        // Paper: avg 500, med 470, P75 630, P90 750, min 10, max 2230,
        // std 197. Allow ~12% tolerance on a synthetic refit.
        assert!((s.avg - 500.0).abs() < 60.0, "avg {}", s.avg);
        assert!((s.median - 470.0).abs() < 60.0, "med {}", s.median);
        assert!((s.p75 - 630.0).abs() < 80.0, "p75 {}", s.p75);
        assert!((s.p90 - 750.0).abs() < 90.0, "p90 {}", s.p90);
        assert!(s.min >= 10.0 && s.min < 60.0, "min {}", s.min);
        assert!(s.max > 1500.0 && s.max <= 2230.0, "max {}", s.max);
        assert!((s.std - 197.0).abs() < 80.0, "std {}", s.std);
    }

    #[test]
    fn image_segmentation_size_correlates_with_time() {
        let spec = WorkloadSpec::image_segmentation();
        let profiles: Vec<SampleProfile> = (0..5000).map(|i| spec.sample_profile(i)).collect();
        let xs: Vec<f64> = profiles.iter().map(|p| p.raw_bytes as f64).collect();
        let ys: Vec<f64> = profiles.iter().map(|p| p.total_ms).collect();
        assert!(pearson(&xs, &ys) > 0.7, "correlation {}", pearson(&xs, &ys));
    }

    #[test]
    fn object_detection_matches_table2_and_uncorrelated() {
        let spec = WorkloadSpec::object_detection();
        let profiles: Vec<SampleProfile> = (0..20_000).map(|i| spec.sample_profile(i)).collect();
        let ys: Vec<f64> = profiles.iter().map(|p| p.total_ms).collect();
        let s = Summary::of(&ys);
        // Paper: avg 31, med 28, P90 35, min 11, max 176, std 19.
        assert!((s.avg - 31.0).abs() < 4.0, "avg {}", s.avg);
        assert!((s.median - 28.0).abs() < 3.0, "med {}", s.median);
        assert!((s.p90 - 35.0).abs() < 5.0, "p90 {}", s.p90);
        assert!(s.min >= 11.0 && s.min < 16.0, "min {}", s.min);
        assert!(s.max > 120.0 && s.max <= 176.0, "max {}", s.max);
        let xs: Vec<f64> = profiles.iter().map(|p| p.raw_bytes as f64).collect();
        assert!(
            pearson(&xs, &ys).abs() < 0.1,
            "size must not predict time, r = {}",
            pearson(&xs, &ys)
        );
    }

    #[test]
    fn speech3_matches_table2() {
        let spec = WorkloadSpec::speech(3.0);
        let s = Summary::of(&totals(&spec, 10_000));
        // Paper: avg 998, med 508, P90 3008, min 502, max 3017, std 992.
        assert!((s.avg - 998.0).abs() < 30.0, "avg {}", s.avg);
        assert!((s.median - 508.0).abs() < 10.0, "med {}", s.median);
        assert!((s.p90 - 3008.0).abs() < 20.0, "p90 {}", s.p90);
        assert!(s.min >= 500.0 && s.min <= 510.0, "min {}", s.min);
        assert!(s.max > 3000.0 && s.max < 3020.0, "max {}", s.max);
        assert!((s.std - 992.0).abs() < 60.0, "std {}", s.std);
    }

    #[test]
    fn speech10_matches_table2() {
        let spec = WorkloadSpec::speech(10.0);
        let s = Summary::of(&totals(&spec, 10_000));
        // Paper: avg 2351, med 508, P90 10008, std 3757.
        assert!((s.avg - 2351.0).abs() < 80.0, "avg {}", s.avg);
        assert!((s.median - 508.0).abs() < 10.0, "med {}", s.median);
        assert!((s.p90 - 10008.0).abs() < 30.0, "p90 {}", s.p90);
        assert!((s.std - 3757.0).abs() < 150.0, "std {}", s.std);
    }

    #[test]
    fn speech_every_fifth_is_deterministic() {
        let spec = WorkloadSpec::speech(3.0);
        assert!(spec.sample_profile(0).total_ms > 3000.0);
        assert!(spec.sample_profile(5).total_ms > 3000.0);
        assert!(spec.sample_profile(1).total_ms < 600.0);
    }

    #[test]
    fn slow_fraction_sweeps() {
        for (frac, lo, hi) in [(0.0, 0.0, 0.001), (0.5, 0.45, 0.55), (1.0, 0.999, 1.0)] {
            let spec = WorkloadSpec::speech_with_slow_fraction(frac);
            let heavy = (0..4000)
                .filter(|&i| spec.sample_profile(i).total_ms > 3000.0)
                .count() as f64
                / 4000.0;
            assert!(
                (lo..=hi).contains(&heavy),
                "fraction {frac}: observed {heavy}"
            );
        }
    }

    #[test]
    fn training_length_arithmetic() {
        let seg = WorkloadSpec::image_segmentation();
        assert_eq!(seg.total_samples(), 210 * 50);
        assert_eq!(seg.total_batches(), (210 * 50usize).div_ceil(3));
        let det = WorkloadSpec::object_detection();
        assert_eq!(det.total_batches(), 1000);
        assert_eq!(det.total_samples(), 48_000);
    }

    #[test]
    fn v100_steps_slower() {
        let spec = WorkloadSpec::object_detection();
        assert!(spec.gpu_step_ms(GpuArch::V100) > spec.gpu_step_ms(GpuArch::A100));
    }

    fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        cov / (vx.sqrt() * vy.sqrt())
    }
}
