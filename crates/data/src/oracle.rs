//! Reference kernels the volume path is checked against: the loops
//! `Volume3D::generate` and `RandomCrop` ran before they were bounded and
//! fused, and `GaussianNoise` one voxel at a time. Compiled into the unit
//! tests and, by path, into `examples/kernel_budget.rs` (hence no
//! `crate::` paths) — never into the library.

use rand::{rngs::StdRng, RngCore, RngExt, SeedableRng};

/// The voxels and labels of `Volume3D::generate`, with the ellipsoid test
/// on every voxel.
pub fn generate_full_scan(dims: [usize; 3], seed: u64) -> (Vec<f32>, Vec<u8>) {
    let [d, h, w] = dims;
    let n = d * h * w;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut voxels = vec![0.0f32; n];
    let mut labels = vec![0u8; n];
    for v in voxels.iter_mut() {
        *v = rng.random_range(-1.0..1.0);
    }
    let c = [d as f64 / 2.0, h as f64 / 2.0, w as f64 / 2.0];
    let r = [d as f64 / 4.0, h as f64 / 4.0, w as f64 / 4.0];
    for z in 0..d {
        for y in 0..h {
            for x in 0..w {
                let dz = (z as f64 - c[0]) / r[0].max(1.0);
                let dy = (y as f64 - c[1]) / r[1].max(1.0);
                let dx = (x as f64 - c[2]) / r[2].max(1.0);
                if dz * dz + dy * dy + dx * dx <= 1.0 {
                    let i = (z * h + y) * w + x;
                    voxels[i] += 3.0;
                    labels[i] = 1;
                }
            }
        }
    }
    (voxels, labels)
}

/// Mean and `1 / max(std, 1e-6)` of `voxels`, two sequential f64 passes.
pub fn two_pass_stats(voxels: &[f32]) -> (f32, f32) {
    let n = voxels.len().max(1) as f64;
    let mean = voxels.iter().map(|&x| x as f64).sum::<f64>() / n;
    let var = voxels
        .iter()
        .map(|&x| (x as f64 - mean) * (x as f64 - mean))
        .sum::<f64>()
        / n;
    (mean as f32, (1.0 / var.sqrt().max(1e-6)) as f32)
}

/// `GaussianNoise`'s noise kernel one voxel at a time, given
/// `Ziggurat::finish` as `finish`: voxel `j` finishes draw `j` of
/// `StdRng(seed)`, taking any further draws from the kernel's second
/// stream.
pub fn noise_voxel_by_voxel(
    voxels: &mut [f32],
    sigma: f32,
    seed: u64,
    finish: impl Fn(u64, &mut StdRng) -> f64,
) {
    let mut draws = StdRng::seed_from_u64(seed);
    let mut rest = StdRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03);
    for x in voxels.iter_mut() {
        *x += sigma * finish(draws.next_u64(), &mut rest) as f32;
    }
}

/// Whether two finite floats (of one sign, unless equal) are at most one
/// ulp apart.
pub fn within_one_ulp(a: f32, b: f32) -> bool {
    a == b || (a.to_bits() as i64 - b.to_bits() as i64).abs() <= 1
}
