//! Synthetic workloads for the MinatoLoader reproduction.
//!
//! The paper evaluates on three MLPerf workloads (KiTS19 / COCO /
//! LibriSpeech). Those datasets and their PyTorch preprocessing stacks are
//! not available here, so this crate provides two complementary
//! substitutes (see DESIGN.md §1):
//!
//! * **Calibrated cost models** ([`spec`]): per-sample preprocessing-time
//!   and size distributions refit to the paper's Table 2 statistics,
//!   deterministic in `(workload, index)`. Consumed by the simulator and
//!   by [`synth`], which turns them into real CPU-burning pipelines for
//!   the threaded loader.
//! * **Real kernels** ([`volume`], [`audio`]): genuine
//!   crop/resize/filterbank/noise implementations over synthetic 3D
//!   volumes and waveforms, exercising the loader with actual
//!   data-dependent compute. (Object detection is reproduced through
//!   its cost model, [`WorkloadSpec::object_detection`].)

pub mod audio;
pub mod dist;
#[cfg(test)]
mod oracle;
pub mod spec;
pub mod synth;
pub mod volume;

pub use spec::{GpuArch, SampleProfile, StepSpec, TrainLength, WorkloadSpec};
pub use synth::{
    synthetic_dataset, work_pipeline, work_pipeline_with_mode, SyntheticSample, WorkMode,
};
