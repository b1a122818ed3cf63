//! Synthetic datasets whose preprocessing *cost* matches the paper.
//!
//! The calibrated [`WorkloadSpec`] profiles say
//! how long each sample's transforms take on the paper's testbed; this
//! module turns those profiles into **real work**: a
//! [`synthetic_dataset`] implementing `minato_core::Dataset` and a pipeline
//! of [`work_pipeline`] transforms that burn genuine CPU for the profiled
//! duration (scaled by `time_scale` so tests and benches run at
//! millisecond scale while preserving every ratio).
//!
//! Transforms cooperate with the load balancer's deadline: the compute
//! loop polls [`TransformCtx::expired`] and returns
//! [`InPlace::Interrupted`], exercising the paper's partial-transform
//! re-execution path.

use crate::spec::WorkloadSpec;
use minato_core::dataset::{Dataset, FnDataset};
use minato_core::error::Result;
use minato_core::transform::{InPlace, Pipeline, Transform, TransformCtx};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A sample carrying its preprocessing cost plan plus a payload buffer the
/// transforms actually chew on.
#[derive(Debug, Clone)]
pub struct SyntheticSample {
    /// Dataset index this sample was generated from.
    pub index: usize,
    /// Raw size in bytes (from the workload profile).
    pub raw_bytes: u64,
    /// Preprocessed size in bytes (from the workload profile).
    pub preprocessed_bytes: u64,
    /// Remaining per-transform costs, already scaled to execution time.
    pub step_costs: Vec<Duration>,
    /// Number of transforms applied so far.
    pub steps_done: usize,
    /// Small payload mutated by the compute kernel so the work is not
    /// optimized away.
    pub payload: Vec<f32>,
}

/// Converts a [`WorkloadSpec`] into a loader-ready dataset of
/// [`SyntheticSample`]s with costs scaled by `time_scale`.
///
/// `time_scale = 1.0` reproduces paper-scale costs (500 ms averages);
/// tests typically use `1/100` or less.
pub fn synthetic_dataset(
    spec: &WorkloadSpec,
    time_scale: f64,
) -> impl Dataset<Sample = SyntheticSample> {
    let spec_for_load = spec.clone();
    let spec_for_hint = spec.clone();
    let n = spec.n_samples;
    FnDataset::new(n, move |index| {
        let p = spec_for_load.sample_profile(index);
        Ok(SyntheticSample {
            index,
            raw_bytes: p.raw_bytes,
            preprocessed_bytes: p.preprocessed_bytes,
            step_costs: p
                .per_step_ms
                .iter()
                .map(|ms| Duration::from_secs_f64((ms * time_scale / 1e3).max(0.0)))
                .collect(),
            steps_done: 0,
            payload: vec![1.0; 64],
        })
    })
    .with_size_hint(move |index| spec_for_hint.sample_profile(index).raw_bytes)
}

/// How synthetic transforms spend their profiled cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkMode {
    /// Spin on real arithmetic for the duration (genuine CPU pressure;
    /// workers contend for cores exactly like real preprocessing).
    Burn,
    /// Sleep in deadline-aware slices (models I/O-like waiting; workers
    /// overlap even on a single-core machine, which keeps timing
    /// semantics deterministic in CI).
    Sleep,
}

/// Sleeps for `target` in slices, polling `ctx` for the deadline.
///
/// Returns `true` if the wait completed, `false` if interrupted.
fn doze(target: Duration, ctx: &TransformCtx) -> bool {
    let target = target.div_f64(ctx.speedup.max(f64::MIN_POSITIVE));
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        if elapsed >= target {
            return true;
        }
        if ctx.expired() {
            return false;
        }
        let left = target - elapsed;
        std::thread::sleep(left.min(Duration::from_micros(300)));
    }
}

/// Burns CPU on `payload` for `target`, polling `ctx` for the deadline.
///
/// Returns `true` if the work completed, `false` if interrupted.
fn burn(payload: &mut [f32], target: Duration, ctx: &TransformCtx) -> bool {
    let target = target.div_f64(ctx.speedup.max(f64::MIN_POSITIVE));
    if target.is_zero() {
        return true;
    }
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        // A real multiply-add pass so the optimizer cannot elide the loop.
        for v in payload.iter_mut() {
            *v = v.mul_add(1.000_001, 1e-7);
        }
        i += 1;
        if i.is_multiple_of(8) {
            if start.elapsed() >= target {
                return true;
            }
            if ctx.expired() {
                return false;
            }
        }
    }
}

struct WorkTransform {
    name: String,
    step: usize,
    mode: WorkMode,
}

impl Transform<SyntheticSample> for WorkTransform {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply_mut(&self, s: &mut SyntheticSample, ctx: &TransformCtx) -> Result<InPlace> {
        let cost = s
            .step_costs
            .get(self.step)
            .copied()
            .unwrap_or(Duration::ZERO);
        let finished = match self.mode {
            WorkMode::Burn => burn(&mut s.payload, cost, ctx),
            WorkMode::Sleep => doze(cost, ctx),
        };
        if finished {
            s.steps_done += 1;
            Ok(InPlace::Done)
        } else {
            // Interrupted: the sample is unmodified in `steps_done` terms,
            // so the background worker re-executes this step.
            Ok(InPlace::Interrupted)
        }
    }
}

/// Builds the CPU-burning pipeline matching `spec`'s Table 1 steps.
pub fn work_pipeline(spec: &WorkloadSpec) -> Pipeline<SyntheticSample> {
    work_pipeline_with_mode(spec, WorkMode::Burn)
}

/// Builds the work pipeline with an explicit [`WorkMode`].
pub fn work_pipeline_with_mode(spec: &WorkloadSpec, mode: WorkMode) -> Pipeline<SyntheticSample> {
    let steps = spec
        .steps
        .iter()
        .enumerate()
        .map(|(i, st)| {
            Arc::new(WorkTransform {
                name: st.name.to_string(),
                step: i,
                mode,
            }) as Arc<dyn Transform<SyntheticSample>>
        })
        .collect();
    Pipeline::new(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minato_core::transform::PipelineRun;

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec::object_detection()
    }

    #[test]
    fn dataset_produces_profiled_samples() {
        let spec = tiny_spec();
        let ds = synthetic_dataset(&spec, 0.01);
        let s = ds.load(3).unwrap();
        assert_eq!(s.index, 3);
        assert_eq!(s.step_costs.len(), spec.steps.len());
        assert_eq!(
            ds.size_hint_bytes(3),
            Some(spec.sample_profile(3).raw_bytes)
        );
    }

    #[test]
    fn pipeline_burns_roughly_profiled_time() {
        let spec = tiny_spec();
        // Scale to ~3 ms total for a fast test.
        let scale = 0.1;
        let ds = synthetic_dataset(&spec, scale);
        let p = work_pipeline(&spec);
        let s = ds.load(1).unwrap();
        let expect_ms = spec.sample_profile(1).total_ms * scale;
        let t0 = Instant::now();
        match p.run(s, None).unwrap() {
            PipelineRun::Completed { value, .. } => {
                assert_eq!(value.steps_done, spec.steps.len());
            }
            PipelineRun::TimedOut { .. } => panic!("no deadline set"),
        }
        let took = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            took >= expect_ms * 0.7,
            "work too fast: {took:.2} ms vs expected {expect_ms:.2} ms"
        );
    }

    #[test]
    fn deadline_interrupts_work() {
        let spec = WorkloadSpec::speech(3.0);
        // Sample 0 is heavy (index % 5 == 0): at 1% scale the HeavyStep
        // alone is ~30 ms. A 3 ms timeout must interrupt.
        let ds = synthetic_dataset(&spec, 0.01);
        let p = work_pipeline(&spec);
        let s = ds.load(0).unwrap();
        match p.run(s, Some(Duration::from_millis(3))).unwrap() {
            PipelineRun::TimedOut {
                partial, resume_at, ..
            } => {
                assert!(resume_at < spec.steps.len());
                // Background completion from the recorded index.
                match p.run_from(resume_at, partial, None).unwrap() {
                    PipelineRun::Completed { value, .. } => {
                        assert_eq!(value.steps_done, spec.steps.len());
                    }
                    _ => panic!("resume must complete"),
                }
            }
            PipelineRun::Completed { .. } => panic!("heavy sample must time out"),
        }
    }

    #[test]
    fn zero_scale_is_instant() {
        let spec = tiny_spec();
        let ds = synthetic_dataset(&spec, 0.0);
        let p = work_pipeline(&spec);
        let s = ds.load(0).unwrap();
        let t0 = Instant::now();
        let _ = p.run(s, None).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(20));
    }
}
