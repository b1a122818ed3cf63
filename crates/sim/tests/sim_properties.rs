//! Property-based tests over the simulator's invariants.

use minato_data::WorkloadSpec;
use minato_sim::{simulate, Policy, SimConfig};
use proptest::prelude::*;

fn workload_for(idx: u8) -> WorkloadSpec {
    match idx % 4 {
        0 => WorkloadSpec::image_segmentation(),
        1 => WorkloadSpec::object_detection(),
        2 => WorkloadSpec::speech(3.0),
        _ => WorkloadSpec::speech(10.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every policy trains exactly the planned number of batches and
    /// samples, for arbitrary small configurations.
    #[test]
    fn conservation_of_samples(
        wl_idx in 0u8..4,
        n_gpus in 1usize..5,
        batches in 2usize..20,
        seed in 0u64..1000,
    ) {
        let mut cfg = SimConfig::config_a(workload_for(wl_idx));
        cfg.n_gpus = n_gpus;
        cfg.max_batches = batches;
        cfg.seed = seed;
        let expected_samples = cfg.total_samples();
        for policy in Policy::ALL {
            let report = simulate(policy, &cfg);
            prop_assert_eq!(report.batches, batches, "{}", policy);
            prop_assert_eq!(report.samples, expected_samples, "{}", policy);
            prop_assert_eq!(report.batch_slow_counts.len(), batches);
            prop_assert!(report.train_time_s > 0.0);
        }
    }

    /// Every policy trains the same tickets, and a sample's slowness is
    /// judged by one ground-truth threshold, so the slow samples summed
    /// over all batches are the same whichever loader assembled them.
    #[test]
    fn slow_samples_are_conserved(
        wl_idx in 0u8..4,
        n_gpus in 1usize..5,
        batches in 2usize..300,
        seed in 0u64..1000,
    ) {
        let mut cfg = SimConfig::config_a(workload_for(wl_idx));
        cfg.workload.batch_size = 4;
        cfg.n_gpus = n_gpus;
        cfg.max_batches = batches;
        cfg.seed = seed;
        let slow = |policy| simulate(policy, &cfg).batch_slow_counts.iter().sum::<usize>();
        let expected = slow(Policy::Torch);
        for policy in Policy::ALL {
            prop_assert_eq!(slow(policy), expected, "{}", policy);
        }
    }

    /// Utilization percentages are always within [0, 100], and batch end
    /// times never exceed the reported training time.
    #[test]
    fn report_sanity(
        wl_idx in 0u8..4,
        batches in 2usize..16,
    ) {
        let mut cfg = SimConfig::config_b(workload_for(wl_idx));
        cfg.max_batches = batches;
        let r = simulate(Policy::Minato, &cfg);
        prop_assert!((0.0..=100.0).contains(&r.gpu_util_pct));
        prop_assert!((0.0..=100.0).contains(&r.cpu_util_pct));
        prop_assert!(r.batch_end_times.iter().all(|&t| t <= r.train_time_s + 1e-6));
        prop_assert!(r.gpu_series.values().iter().all(|&v| (0.0..=100.0).contains(&v)));
    }

    /// Weak monotonicity: more GPUs never make training *slower* (they may
    /// saturate at the CPU/storage bound).
    #[test]
    fn gpus_weakly_help(
        wl_idx in 0u8..4,
        batches in 4usize..16,
    ) {
        let mk = |n: usize| {
            let mut cfg = SimConfig::config_a(workload_for(wl_idx));
            cfg.n_gpus = n;
            cfg.max_batches = batches;
            cfg
        };
        let one = simulate(Policy::Torch, &mk(1)).train_time_s;
        let four = simulate(Policy::Torch, &mk(4)).train_time_s;
        // 10% slack: a partial final wave of batches can cost one step.
        prop_assert!(four <= one * 1.10, "1 gpu {one}, 4 gpus {four}");
    }

    /// Determinism: identical configs produce identical reports, across
    /// all policies.
    #[test]
    fn runs_are_deterministic(
        wl_idx in 0u8..4,
        seed in 0u64..1000,
    ) {
        let mut cfg = SimConfig::config_a(workload_for(wl_idx));
        cfg.max_batches = 8;
        cfg.seed = seed;
        let a = simulate(Policy::Minato, &cfg);
        let b = simulate(Policy::Minato, &cfg);
        prop_assert_eq!(a.train_time_s, b.train_time_s);
        prop_assert_eq!(a.batch_slow_counts, b.batch_slow_counts);
        prop_assert_eq!(a.slow_flagged, b.slow_flagged);
        let c = simulate(Policy::Torch, &cfg);
        let d = simulate(Policy::Torch, &cfg);
        prop_assert_eq!(c.train_time_s, d.train_time_s);
    }

    /// The page cache never serves more bytes from disk than a cacheless
    /// run would, and cache+disk bytes cover all reads.
    #[test]
    fn cache_only_reduces_disk_traffic(batches in 4usize..16) {
        let mut with_cache = SimConfig::config_b(WorkloadSpec::image_segmentation());
        with_cache.max_batches = batches;
        let mut no_cache = with_cache.clone();
        no_cache.memory_bytes = 0;
        let a = simulate(Policy::Minato, &with_cache);
        let b = simulate(Policy::Minato, &no_cache);
        prop_assert!(a.bytes_from_disk <= b.bytes_from_disk);
        prop_assert_eq!(b.bytes_from_cache, 0);
        prop_assert_eq!(
            a.bytes_from_disk + a.bytes_from_cache,
            b.bytes_from_disk,
            "total bytes read must match"
        );
    }
}
