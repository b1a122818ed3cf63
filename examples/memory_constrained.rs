//! Memory-constrained training (§5.5 / Figure 10) on the simulator:
//! a 230 GB dataset trained under an 80 GB page-cache limit forces every
//! loader to hit storage continuously; MinatoLoader's decoupled queues
//! keep the GPUs fed anyway. Each row is one `simulate(Policy, &cfg)`
//! call over the same configuration; DALI takes the workload's GPU
//! speedup and `cfg.prefetch` as its queue depth.
//!
//! Run with: `cargo run --release --example memory_constrained`

use minato::data::WorkloadSpec;
use minato::sim::{simulate, Policy, SimConfig};

fn main() {
    let mut cfg = SimConfig::config_b(WorkloadSpec::image_segmentation());
    cfg.dataset_replication = 8; // 29 GB KiTS19 → ~232 GB.
    cfg.memory_bytes = 80_000_000_000; // cgroup limit.
    cfg.max_batches = 1400; // ~2 epochs of the replicated dataset.

    let [pytorch, dali, minato] =
        [Policy::Torch, Policy::Dali, Policy::Minato].map(|p| simulate(p, &cfg));

    println!("3D-UNet, 232 GB dataset, 80 GB page cache, 8×V100:\n");
    for r in [&pytorch, &dali, &minato] {
        println!(
            "{:8}  time {:6.0}s  GPU {:5.1}%  disk {:6.1} GB  cache {:6.1} GB",
            r.policy,
            r.train_time_s,
            r.gpu_util_pct,
            r.bytes_from_disk as f64 / 1e9,
            r.bytes_from_cache as f64 / 1e9,
        );
        println!("          disk read {}", r.disk_series.sparkline(56));
    }
    println!(
        "\npaper shape: PyTorch ≈650s @57% GPU, DALI ≈500s @81%, Minato ≈330s @82%; \
         Minato sustains high, stable disk reads."
    );
    assert!(minato.train_time_s < pytorch.train_time_s);
}
