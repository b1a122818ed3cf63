//! Per-stage cost of the volume data path, one thread, over the side
//! ladder the benchmark's `imgseg_kernels` workload uses (400 cubes,
//! sides 40..96, cropped to 32³) — and a check, on every volume, that the
//! bounded, fused and blocked kernels still agree with the loops they
//! replaced.
//! Prints µs per sample and ns per voxel; asserts equalities only, never
//! a time.
//!
//! `cargo run --release -p minato-data --example kernel_budget`

#[path = "../src/oracle.rs"]
mod oracle;

use minato_core::transform::{Outcome, Transform, TransformCtx};
use minato_data::dist::Ziggurat;
use minato_data::volume::{
    intensity_stats, kernel_level, Cast, GaussianNoise, RandomBrightness, RandomCrop, RandomFlip,
    Volume3D,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLES: usize = 400;
const TARGET: [usize; 3] = [32, 32, 32];

/// Runs one by-value stage and adds what it took to `spent`.
fn timed(stage: &dyn Transform<Volume3D>, v: Volume3D, spent: &mut Duration) -> Volume3D {
    let ctx = TransformCtx::unbounded();
    let t0 = Instant::now();
    let out = stage.apply(black_box(v), &ctx);
    *spent += t0.elapsed();
    match out {
        Ok(Outcome::Done(v)) => black_box(v),
        _ => panic!("{} did not complete", stage.name()),
    }
}

/// Dims and seed of the `rung`-th volume: the benchmark's ladder of sides.
fn ladder(rung: usize) -> ([usize; 3], u64) {
    ([40 + rung * 56 / SAMPLES; 3], 0x5EED ^ rung as u64)
}

fn main() {
    let crop = RandomCrop { target: TARGET };
    let noise = GaussianNoise { sigma: 0.05 };
    let [mut generate, mut cropping, mut noising, mut rest] = [Duration::ZERO; 4];
    let (mut voxels_in, mut voxels_out) = (0usize, 0usize);
    for (dims, seed) in (0..SAMPLES).map(ladder) {
        let t0 = Instant::now();
        let v = black_box(Volume3D::generate(black_box(dims), seed));
        generate += t0.elapsed();
        voxels_in += v.len();
        let v = timed(&crop, v, &mut cropping);
        voxels_out += v.len();
        let v = timed(&RandomFlip, v, &mut rest);
        let v = timed(&RandomBrightness, v, &mut rest);
        let v = timed(&noise, v, &mut noising);
        timed(&Cast, v, &mut rest);
    }
    // Checked in a pass of its own: the oracle's buffers between two
    // timed stages would change what the allocator hands the next one.
    let same_bits = |a: &[f32], b: &[f32]| {
        a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
    };
    let zig = Ziggurat::get();
    for (dims, seed) in (0..SAMPLES).map(ladder) {
        let v = Volume3D::generate(dims, seed);
        let (voxels, labels) = oracle::generate_full_scan(dims, seed);
        assert_eq!(v.labels, labels, "labels, {dims:?}");
        assert!(same_bits(&v.voxels, &voxels), "voxels, {dims:?}");
        let (got, want) = (
            intensity_stats(&v.voxels),
            oracle::two_pass_stats(&v.voxels),
        );
        assert!(
            oracle::within_one_ulp(got.0, want.0) && oracle::within_one_ulp(got.1, want.1),
            "crop statistics, {dims:?}: {got:?} against {want:?}"
        );
        // `GaussianNoise` seeds its draws with the volume's seed ^ 0x9015E.
        let mut want = voxels;
        oracle::noise_voxel_by_voxel(&mut want, noise.sigma, seed ^ 0x9015E, |b, rest| {
            zig.finish(b, rest)
        });
        let Ok(Outcome::Done(got)) = noise.apply(v, &TransformCtx::unbounded()) else {
            panic!("GaussianNoise did not complete")
        };
        assert!(same_bits(&got.voxels, &want), "noise, {dims:?}");
    }
    println!("volume kernels, {SAMPLES} cubes of side 40..96 cropped to 32^3, one thread");
    // A kernel figure means nothing without the width it ran at.
    println!(
        "generate, crop statistics and noise dispatched to: {}",
        kernel_level()
    );
    println!("{:<28}{:>12}{:>12}", "stage", "us/sample", "ns/voxel");
    let row = |name: &str, spent: Duration, voxels: usize| {
        let (us, ns) = (
            spent.as_secs_f64() * 1e6 / SAMPLES as f64,
            spent.as_secs_f64() * 1e9 / voxels as f64,
        );
        println!("{name:<28}{us:>12.1}{ns:>12.2}");
    };
    row("generate (input voxels)", generate, voxels_in);
    row("RandomCrop (input voxels)", cropping, voxels_in);
    row("GaussianNoise (32^3)", noising, voxels_out);
    row("flip+brightness+cast (32^3)", rest, voxels_out);
    println!("generate, crop statistics and noise match their oracles on all {SAMPLES} volumes");
}
