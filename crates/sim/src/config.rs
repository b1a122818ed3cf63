//! Simulation configurations mirroring the paper's testbeds (§3).

use crate::time::SimDuration;
use minato_data::{GpuArch, WorkloadSpec};

/// MinatoLoader-specific simulation parameters (§4).
#[derive(Debug, Clone, Copy)]
pub struct MinatoSimCfg {
    /// Enable the adaptive worker scheduler (Formulas 1–2).
    pub adaptive: bool,
    /// Allow the scheduler to resize the *foreground* pool. Disabling
    /// this pins foreground workers (apples-to-apples sweeps) while the
    /// slow-task pool still tracks its backlog.
    pub adaptive_fg: bool,
    /// Timeout percentile (paper default 0.75).
    pub timeout_percentile: f64,
}

impl Default for MinatoSimCfg {
    fn default() -> Self {
        MinatoSimCfg {
            adaptive: true,
            adaptive_fg: true,
            timeout_percentile: 0.75,
        }
    }
}

/// Full configuration of one simulated training run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The workload (pipeline, cost model, training length).
    pub workload: WorkloadSpec,
    /// GPU architecture (step-time calibration).
    pub arch: GpuArch,
    /// Number of GPUs training in data parallel.
    pub n_gpus: usize,
    /// CPU cores available for preprocessing.
    pub cpu_cores: usize,
    /// Preprocessing workers per GPU for MinatoLoader (paper: 12 per
    /// GPU worker).
    pub workers_per_gpu: usize,
    /// Total workers for the in-order baselines (paper tuning for
    /// PyTorch/Pecan: 12; DALI ignores this and uses every core).
    pub inorder_workers_total: usize,
    /// PyTorch `prefetch_factor` / DALI `prefetch_queue_depth` / Minato
    /// batch-queue depth.
    pub prefetch: usize,
    /// Storage read bandwidth in bytes/second.
    pub storage_bandwidth_bps: f64,
    /// Page-cache capacity in bytes (the cgroup limit in §5.5).
    pub memory_bytes: u64,
    /// Host RAM in bytes (OOM accounting for Figure 4a).
    pub ram_bytes: u64,
    /// GPU memory in bytes (OOM accounting for Figure 4b).
    pub gpu_memory_bytes: u64,
    /// Replicate the dataset this many times (Figure 10 uses 8× KiTS19).
    pub dataset_replication: usize,
    /// Reporting bucket width.
    pub bucket: SimDuration,
    /// Cap on training batches (0 = run the workload's full length); used
    /// to keep sweep harnesses fast.
    pub max_batches: usize,
    /// RNG seed for the sample request order.
    pub seed: u64,
    /// Minato-specific knobs.
    pub minato: MinatoSimCfg,
}

impl SimConfig {
    /// Paper Config. A: 2×64-core EPYC, 512 GB RAM, 4×A100-40GB, shared
    /// Lustre at 200 Gb/s.
    pub fn config_a(workload: WorkloadSpec) -> SimConfig {
        SimConfig {
            workload,
            arch: GpuArch::A100,
            n_gpus: 4,
            cpu_cores: 128,
            workers_per_gpu: 12,
            inorder_workers_total: 12,
            prefetch: 2,
            storage_bandwidth_bps: 25e9,
            memory_bytes: 512_000_000_000,
            ram_bytes: 512_000_000_000,
            gpu_memory_bytes: 40_000_000_000,
            dataset_replication: 1,
            bucket: SimDuration::from_secs_f64(1.0),
            max_batches: 0,
            seed: 7,
            minato: MinatoSimCfg::default(),
        }
    }

    /// Paper Config. B: 2×40-core Xeon, 512 GB RAM, 8×V100-32GB, local
    /// 7 TB NVMe (~6.5 GB/s sequential reads, enterprise class).
    pub fn config_b(workload: WorkloadSpec) -> SimConfig {
        SimConfig {
            arch: GpuArch::V100,
            n_gpus: 8,
            cpu_cores: 80,
            storage_bandwidth_bps: 6.5e9,
            gpu_memory_bytes: 32_000_000_000,
            ..SimConfig::config_a(workload)
        }
    }

    /// Total samples one run consumes (respecting `max_batches`).
    pub fn total_samples(&self) -> usize {
        let full = self.workload.total_samples();
        if self.max_batches == 0 {
            full
        } else {
            full.min(self.max_batches * self.workload.batch_size)
        }
    }

    /// Total batches one run consumes.
    pub fn total_batches(&self) -> usize {
        let full = self.workload.total_batches();
        if self.max_batches == 0 {
            full
        } else {
            full.min(self.max_batches)
        }
    }

    /// Effective dataset size in samples (with replication).
    pub fn dataset_len(&self) -> usize {
        self.workload.n_samples * self.dataset_replication.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_sensibly() {
        let a = SimConfig::config_a(WorkloadSpec::object_detection());
        let b = SimConfig::config_b(WorkloadSpec::object_detection());
        assert!(matches!(a.arch, GpuArch::A100));
        assert!(matches!(b.arch, GpuArch::V100));
        assert!(b.storage_bandwidth_bps < a.storage_bandwidth_bps);
        assert_eq!(a.n_gpus, 4);
        assert_eq!(b.n_gpus, 8);
    }

    #[test]
    fn max_batches_caps_totals() {
        let mut c = SimConfig::config_a(WorkloadSpec::object_detection());
        assert_eq!(c.total_batches(), 1000);
        c.max_batches = 10;
        assert_eq!(c.total_batches(), 10);
        assert_eq!(c.total_samples(), 480);
    }

    #[test]
    fn replication_scales_dataset() {
        let mut c = SimConfig::config_b(WorkloadSpec::image_segmentation());
        c.dataset_replication = 8;
        assert_eq!(c.dataset_len(), 210 * 8);
    }
}
