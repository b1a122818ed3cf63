//! 3D volumetric samples and the image-segmentation pipeline (Table 1).
//!
//! Models KiTS19-style CT volumes: variable-sized `f32` voxel grids with a
//! paired label mask. The five transforms — RandomCrop → RandomFlip →
//! RandomBrightness → GaussianNoise → Cast — are real kernels doing O(n)
//! work over the voxels, so preprocessing cost genuinely scales with
//! volume size, reproducing the size/time correlation of §3.2.
//!
//! [`Volume3D::generate`], [`intensity_stats`] and [`GaussianNoise`]'s
//! kernel are *multi-versioned*: written once and, on x86-64, compiled for
//! the baseline, for AVX2 and for AVX-512; each call runs the widest
//! version the CPU reports ([`kernel_level`]). All three are data-parallel
//! over 64-bit lanes (SplitMix64 draw `i` depends only on `seed + i·γ`;
//! the statistics keep eight independent f64 sums; the ziggurat's common
//! path is branch-free), and baseline SSE2 has no 64-bit vector multiply,
//! no gather and two f64 lanes. The other kernels touch only the crop's
//! output in 32-bit loops SSE2 already vectorises. All versions return the
//! same bits — by construction (one Rust body, no intrinsics, `a*b + c` is
//! never fused, the sums' lane order is fixed in the source) and by test
//! (each version against the portable one or a scalar reference, in
//! release builds, where the vectoriser runs).

use crate::dist::Ziggurat;
use minato_core::error::{LoaderError, Result};
use minato_core::pool::{PoolSet, Reclaim};
use minato_core::transform::{CostClass, InPlace, Outcome, Pipeline, Transform, TransformCtx};
use rand::{rngs::StdRng, RngCore, RngExt, SeedableRng};
use std::sync::Arc;

/// A vector instruction level the multi-versioned kernels are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Avx512,
    Avx2,
    Portable,
}

impl Level {
    /// Widest first.
    const ALL: [Level; 3] = [Level::Avx512, Level::Avx2, Level::Portable];

    /// Whether the CPU reports every feature this level's kernels are
    /// compiled with (std caches the answer: one relaxed load).
    fn detected(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        return match self {
            Level::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl")
            }
            Level::Avx2 => is_x86_feature_detected!("avx2"),
            Level::Portable => true,
        };
        #[cfg(not(target_arch = "x86_64"))]
        return self == Level::Portable;
    }

    /// The widest level `detected` accepts, the portable one if none.
    fn widest(detected: impl Fn(Level) -> bool) -> Level {
        let found = Level::ALL.into_iter().find(|&level| detected(level));
        found.unwrap_or(Level::Portable)
    }
}

/// The vector level [`Volume3D::generate`], [`intensity_stats`] and
/// [`GaussianNoise`] run at on this CPU: `"avx512"`, `"avx2"` or
/// `"portable"`.
pub fn kernel_level() -> &'static str {
    match Level::widest(Level::detected) {
        Level::Avx512 => "avx512",
        Level::Avx2 => "avx2",
        Level::Portable => "portable",
    }
}

/// Defines `fn $at(level, args..)`: the `#[inline(always)]` kernel `$body`
/// run at `level` — on x86-64 inside a function compiled with that level's
/// features, which is all LLVM needs to vectorise the same source at that
/// width — or as it is where the CPU does not report `level`.
macro_rules! multiversion {
    (fn $at:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:path) => {
        fn $at(level: Level, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
            fn avx512($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }
            match level {
                // SAFETY: `detected` in this arm's guard: the CPU reports avx512f, avx512dq, avx512vl.
                #[cfg(target_arch = "x86_64")]
                Level::Avx512 if level.detected() => unsafe { avx512($($arg),*) },
                // SAFETY: `detected` in this arm's guard: the CPU reports avx2.
                #[cfg(target_arch = "x86_64")]
                Level::Avx2 if level.detected() => unsafe { avx2($($arg),*) },
                _ => $body($($arg),*),
            }
        }
    };
}

multiversion!(fn generate_at(dims: [usize; 3], seed: u64) -> Volume3D = Volume3D::generate_kernel);
multiversion!(fn intensity_stats_at(voxels: &[f32]) -> (f32, f32) = intensity_stats_kernel);
multiversion!(fn add_noise_at(voxels: &mut [f32], sigma: f32, seed: u64) = add_noise_kernel);

/// A 3D scalar volume with a segmentation mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Volume3D {
    /// Depth, height, width.
    pub dims: [usize; 3],
    /// Voxels in `d`-major order, length `d*h*w`.
    pub voxels: Vec<f32>,
    /// Per-voxel labels, same layout.
    pub labels: Vec<u8>,
    /// Seed carried so random transforms are per-sample deterministic.
    pub seed: u64,
}

impl Volume3D {
    /// Generates a synthetic volume with a bright ellipsoidal "tumor"
    /// region (so segmentation labels are non-trivial).
    pub fn generate(dims: [usize; 3], seed: u64) -> Volume3D {
        generate_at(Level::widest(Level::detected), dims, seed)
    }

    #[inline(always)]
    fn generate_kernel(dims: [usize; 3], seed: u64) -> Volume3D {
        let [d, h, w] = dims;
        let n = d * h * w;
        let mut rng = StdRng::seed_from_u64(seed);
        // Background noise.
        let mut voxels: Vec<f32> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut labels = vec![0u8; n];
        // Ellipsoid of interest: centre `c`, semi-axes `r`. A voxel more
        // than `r` from the centre along any axis has a quotient above 1
        // there, so only the bounding box `[c - r, c + r]` is scanned —
        // with the full scan's f64 expression, term for term (`dx²` once
        // per column, `dz² + dy²` once per row): the same bits.
        let c = [d as f64 / 2.0, h as f64 / 2.0, w as f64 / 2.0];
        let r = [d, h, w].map(|s| (s as f64 / 4.0).max(1.0));
        let span = |a: usize| {
            let lo = (c[a] - r[a]).floor().max(0.0) as usize;
            lo..((c[a] + r[a]).ceil() as usize + 1).min(dims[a])
        };
        let xs = span(2);
        let dx2: Vec<f64> = xs
            .clone()
            .map(|x| {
                let dx = (x as f64 - c[2]) / r[2];
                dx * dx
            })
            .collect();
        for z in span(0) {
            let dz = (z as f64 - c[0]) / r[0];
            for y in span(1) {
                let dy = (y as f64 - c[1]) / r[1];
                let zy = dz * dz + dy * dy;
                let row = (z * h + y) * w;
                let row_v = &mut voxels[row + xs.start..row + xs.end];
                let row_l = &mut labels[row + xs.start..row + xs.end];
                for ((v, l), dx2) in row_v.iter_mut().zip(row_l).zip(&dx2) {
                    if zy + dx2 <= 1.0 {
                        *v += 3.0;
                        *l = 1;
                    }
                }
            }
        }
        Volume3D {
            dims,
            voxels,
            labels,
            seed,
        }
    }

    /// Number of voxels.
    pub fn len(&self) -> usize {
        self.voxels.len()
    }

    /// Whether the volume has no voxels.
    pub fn is_empty(&self) -> bool {
        self.voxels.is_empty()
    }

    /// Bytes occupied by voxels + labels.
    pub fn nbytes(&self) -> u64 {
        (self.voxels.len() * 4 + self.labels.len()) as u64
    }

    fn index(&self, z: usize, y: usize, x: usize) -> usize {
        (z * self.dims[1] + y) * self.dims[2] + x
    }
}

impl Reclaim for Volume3D {
    fn reclaim(self, pools: &PoolSet) {
        pools.f32s().recycle(self.voxels);
        pools.u8s().recycle(self.labels);
    }
}

/// Mean and `1 / max(std, 1e-6)` of `voxels`, in one pass: eight f64
/// lanes of sums and squared sums, shifted by the first voxel so the
/// variance does not cancel when the mean is far from zero, merged in lane
/// order — the same bits whatever thread runs it.
pub fn intensity_stats(voxels: &[f32]) -> (f32, f32) {
    intensity_stats_at(Level::widest(Level::detected), voxels)
}

#[inline(always)]
fn intensity_stats_kernel(voxels: &[f32]) -> (f32, f32) {
    const LANES: usize = 8;
    let shift = voxels.first().map_or(0.0, |&x| x as f64);
    let (mut s1, mut s2) = ([0.0f64; LANES], [0.0f64; LANES]);
    let mut add = |xs: &[f32]| {
        for (l, &x) in xs.iter().enumerate() {
            let t = x as f64 - shift;
            s1[l] += t;
            s2[l] += t * t;
        }
    };
    let chunks = voxels.chunks_exact(LANES);
    let tail = chunks.remainder();
    chunks.for_each(&mut add);
    add(tail);
    let n = voxels.len().max(1) as f64;
    let (s1, s2) = (s1.iter().sum::<f64>(), s2.iter().sum::<f64>());
    let var = ((s2 - s1 * s1 / n) / n).max(0.0);
    ((shift + s1 / n) as f32, (1.0 / var.sqrt().max(1e-6)) as f32)
}

/// Crops a random `target`-sized region (Deflationary; the dominant cost
/// in the paper's pipeline at 338 ms average, §3.1).
pub struct RandomCrop {
    /// Target dims `[d, h, w]`; volumes smaller than this are zero-padded.
    pub target: [usize; 3],
}

impl RandomCrop {
    /// Crops `v` into `voxels`/`labels` (zero-filled, `td*th*tw` long):
    /// the shared kernel behind the by-value and in-place paths.
    fn crop_into(&self, v: &Volume3D, voxels: &mut [f32], labels: &mut [u8]) -> Result<()> {
        let [td, th, tw] = self.target;
        if td == 0 || th == 0 || tw == 0 {
            return Err(LoaderError::Transform {
                name: "RandomCrop".into(),
                msg: "target dims must be positive".into(),
            });
        }
        let mut rng = StdRng::seed_from_u64(v.seed ^ 0xC0FF_EE00);
        let [d, h, w] = v.dims;
        // Full-volume intensity statistics (KiTS19 preprocessing
        // standardizes intensities before cropping) — this O(input) pass
        // is why preprocessing cost scales with raw volume size (§3.2).
        let (mean, inv_std) = intensity_stats(&v.voxels);
        let oz = if d > td {
            rng.random_range(0..=d - td)
        } else {
            0
        };
        let oy = if h > th {
            rng.random_range(0..=h - th)
        } else {
            0
        };
        let ox = if w > tw {
            rng.random_range(0..=w - tw)
        } else {
            0
        };
        let cw = tw.min(w);
        for z in 0..td.min(d) {
            for y in 0..th.min(h) {
                let src = v.index(z + oz, y + oy, ox);
                let dst = (z * th + y) * tw;
                for (o, &i) in voxels[dst..dst + cw]
                    .iter_mut()
                    .zip(&v.voxels[src..src + cw])
                {
                    *o = (i - mean) * inv_std;
                }
                labels[dst..dst + cw].copy_from_slice(&v.labels[src..src + cw]);
            }
        }
        Ok(())
    }
}

impl Transform<Volume3D> for RandomCrop {
    fn name(&self) -> &str {
        "RandomCrop"
    }

    fn apply(&self, v: Volume3D, _ctx: &TransformCtx) -> Result<Outcome<Volume3D>> {
        let [td, th, tw] = self.target;
        let n_out = td * th * tw;
        let mut voxels = vec![0.0f32; n_out];
        let mut labels = vec![0u8; n_out];
        self.crop_into(&v, &mut voxels, &mut labels)?;
        Ok(Outcome::Done(Volume3D {
            dims: self.target,
            voxels,
            labels,
            seed: v.seed,
        }))
    }

    fn apply_mut(&self, v: &mut Volume3D, ctx: &TransformCtx) -> Result<InPlace> {
        let [td, th, tw] = self.target;
        let n_out = td * th * tw;
        // Deflationary stage: the differently shaped output comes from
        // the pool and the (bigger) input buffers go back to it.
        let mut voxels = ctx.acquire_f32(n_out);
        let mut labels = ctx.acquire_u8(n_out);
        if let Err(e) = self.crop_into(v, &mut voxels, &mut labels) {
            ctx.recycle_f32(voxels);
            ctx.recycle_u8(labels);
            return Err(e);
        }
        v.dims = self.target;
        ctx.recycle_f32(std::mem::replace(&mut v.voxels, voxels));
        ctx.recycle_u8(std::mem::replace(&mut v.labels, labels));
        Ok(InPlace::Done)
    }

    fn cost_class(&self) -> CostClass {
        CostClass::Deflationary
    }
}

/// Randomly flips along each axis with probability 1/2 (Neutral).
pub struct RandomFlip;

impl RandomFlip {
    fn flip_in_place(v: &mut Volume3D) {
        let mut rng = StdRng::seed_from_u64(v.seed ^ 0xF11B);
        let [d, h, w] = v.dims;
        if rng.random_bool(0.5) {
            // Flip along x: reverse each row.
            for z in 0..d {
                for y in 0..h {
                    let base = (z * h + y) * w;
                    v.voxels[base..base + w].reverse();
                    v.labels[base..base + w].reverse();
                }
            }
        }
        let slab = h * w;
        if rng.random_bool(0.5) {
            // Flip along z: swap slabs.
            reverse_blocks(&mut v.voxels, slab);
            reverse_blocks(&mut v.labels, slab);
        }
        // Drawn last, so the x and z decisions keep their stream.
        if rng.random_bool(0.5) {
            // Flip along y: swap rows inside each slab.
            for z in 0..d {
                reverse_blocks(&mut v.voxels[z * slab..(z + 1) * slab], w);
                reverse_blocks(&mut v.labels[z * slab..(z + 1) * slab], w);
            }
        }
    }
}

/// Reverses the order of the `block`-long pieces of `buf`.
fn reverse_blocks<T>(buf: &mut [T], block: usize) {
    let n = buf.len().checked_div(block).unwrap_or(0);
    for i in 0..n / 2 {
        let (head, tail) = buf.split_at_mut((n - 1 - i) * block);
        head[i * block..(i + 1) * block].swap_with_slice(&mut tail[..block]);
    }
}

impl Transform<Volume3D> for RandomFlip {
    fn name(&self) -> &str {
        "RandomFlip"
    }

    fn apply(&self, mut v: Volume3D, _ctx: &TransformCtx) -> Result<Outcome<Volume3D>> {
        Self::flip_in_place(&mut v);
        Ok(Outcome::Done(v))
    }

    fn apply_mut(&self, v: &mut Volume3D, _ctx: &TransformCtx) -> Result<InPlace> {
        Self::flip_in_place(v);
        Ok(InPlace::Done)
    }

    fn cost_class(&self) -> CostClass {
        CostClass::Neutral
    }
}

/// Scales intensity by a random factor in `[0.7, 1.3]` (Neutral).
pub struct RandomBrightness;

impl RandomBrightness {
    fn scale_in_place(v: &mut Volume3D) {
        let mut rng = StdRng::seed_from_u64(v.seed ^ 0xB216);
        let factor = rng.random_range(0.7..1.3) as f32;
        for x in v.voxels.iter_mut() {
            *x *= factor;
        }
    }
}

impl Transform<Volume3D> for RandomBrightness {
    fn name(&self) -> &str {
        "RandomBrightness"
    }

    fn apply(&self, mut v: Volume3D, _ctx: &TransformCtx) -> Result<Outcome<Volume3D>> {
        Self::scale_in_place(&mut v);
        Ok(Outcome::Done(v))
    }

    fn apply_mut(&self, v: &mut Volume3D, _ctx: &TransformCtx) -> Result<InPlace> {
        Self::scale_in_place(v);
        Ok(InPlace::Done)
    }

    fn cost_class(&self) -> CostClass {
        CostClass::Neutral
    }
}

/// Adds zero-mean Gaussian noise with the given standard deviation
/// (Neutral).
pub struct GaussianNoise {
    /// Noise standard deviation.
    pub sigma: f32,
}

impl GaussianNoise {
    fn add_noise_in_place(&self, v: &mut Volume3D) {
        let level = Level::widest(Level::detected);
        add_noise_at(level, &mut v.voxels, self.sigma, v.seed ^ 0x9015E);
    }
}

/// Adds `sigma` times a standard normal to each voxel, 64 voxels at a
/// time: one branch-free pass starts voxel `j`'s ziggurat from draw `j` of
/// `StdRng(seed)` (draw `j` depends only on `j`, so the pass vectorises),
/// the ≈ 2.8 % it rejects are finished in voxel order from a second
/// stream, `StdRng(seed ^ 0xD1B5_4A32_D192_ED03)`, and one more pass adds
/// the noise.
#[inline(always)]
fn add_noise_kernel(voxels: &mut [f32], sigma: f32, seed: u64) {
    const BLOCK: usize = 64;
    let zig = Ziggurat::get();
    let mut draws = StdRng::seed_from_u64(seed);
    let mut rest = StdRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03);
    let (mut bits, mut noise) = ([0u64; BLOCK], [0.0f64; BLOCK]);
    for block in voxels.chunks_mut(BLOCK) {
        let (bits, noise) = (&mut bits[..block.len()], &mut noise[..block.len()]);
        let mut rejected = 0u64;
        for (j, (b, z)) in bits.iter_mut().zip(noise.iter_mut()).enumerate() {
            *b = draws.next_u64();
            let accepted;
            (*z, accepted) = zig.first(*b);
            rejected |= u64::from(!accepted) << j;
        }
        while rejected != 0 {
            let j = rejected.trailing_zeros() as usize;
            noise[j] = zig.finish(bits[j], &mut rest);
            rejected &= rejected - 1;
        }
        for (x, &z) in block.iter_mut().zip(noise.iter()) {
            *x += sigma * z as f32;
        }
    }
}

impl Transform<Volume3D> for GaussianNoise {
    fn name(&self) -> &str {
        "GaussianNoise"
    }

    fn apply(&self, mut v: Volume3D, _ctx: &TransformCtx) -> Result<Outcome<Volume3D>> {
        self.add_noise_in_place(&mut v);
        Ok(Outcome::Done(v))
    }

    fn apply_mut(&self, v: &mut Volume3D, _ctx: &TransformCtx) -> Result<InPlace> {
        self.add_noise_in_place(v);
        Ok(InPlace::Done)
    }

    fn cost_class(&self) -> CostClass {
        CostClass::Neutral
    }
}

/// Quantizes voxels to half-precision-representable values (the paper's
/// `Cast` step; Neutral): each keeps 10 mantissa bits, rounded to nearest,
/// ties to even, as a float16 cast rounds. f16's exponent range is not
/// applied — the voxels are standardised, so |x| ≪ 65504.
pub struct Cast;

impl Cast {
    fn cast_in_place(v: &mut Volume3D) {
        for x in v.voxels.iter_mut() {
            // Half the dropped 13 bits' range, less one, plus the kept
            // mantissa's last bit: a tie carries only into an odd one.
            let b = x.to_bits();
            let rounded = b.wrapping_add(0x0FFF + ((b >> 13) & 1)) & 0xFFFF_E000;
            *x = f32::from_bits(rounded);
        }
    }
}

impl Transform<Volume3D> for Cast {
    fn name(&self) -> &str {
        "Cast"
    }

    fn apply(&self, mut v: Volume3D, _ctx: &TransformCtx) -> Result<Outcome<Volume3D>> {
        Self::cast_in_place(&mut v);
        Ok(Outcome::Done(v))
    }

    fn apply_mut(&self, v: &mut Volume3D, _ctx: &TransformCtx) -> Result<InPlace> {
        Self::cast_in_place(v);
        Ok(InPlace::Done)
    }

    fn cost_class(&self) -> CostClass {
        CostClass::Neutral
    }
}

/// The full Table 1 image-segmentation pipeline cropping to `target` dims.
pub fn segmentation_pipeline(target: [usize; 3]) -> Pipeline<Volume3D> {
    Pipeline::new(vec![
        Arc::new(RandomCrop { target }),
        Arc::new(RandomFlip),
        Arc::new(RandomBrightness),
        Arc::new(GaussianNoise { sigma: 0.05 }),
        Arc::new(Cast),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{generate_full_scan, noise_voxel_by_voxel, two_pass_stats, within_one_ulp};
    use minato_core::transform::PipelineRun;
    use proptest::prelude::*;

    fn vol(dims: [usize; 3]) -> Volume3D {
        Volume3D::generate(dims, 7)
    }

    /// Bit for bit: `f32`'s `==` would let `-0.0 == 0.0` by.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn generate_has_tumor_labels() {
        let v = vol([16, 16, 16]);
        let pos = v.labels.iter().filter(|&&l| l == 1).count();
        assert!(pos > 0, "must contain labelled voxels");
        assert!(pos < v.len(), "must not be all-label");
        assert_eq!(v.nbytes(), (16 * 16 * 16 * 5) as u64);
    }

    /// Every level this CPU can run, the portable one included.
    fn levels() -> impl Iterator<Item = Level> {
        Level::ALL.into_iter().filter(|level| level.detected())
    }

    /// The dispatched entry point against the full scan, and each version
    /// compiled for this CPU against the portable one, bit for bit.
    fn assert_same_bits(dims: [usize; 3], seed: u64) {
        let got = Volume3D::generate(dims, seed);
        let (voxels, labels) = generate_full_scan(dims, seed);
        assert_eq!((got.dims, got.seed), (dims, seed));
        assert_eq!(got.labels, labels, "{dims:?} seed {seed}");
        assert_eq!(bits(&got.voxels), bits(&voxels), "{dims:?} seed {seed}");
        let portable = generate_at(Level::Portable, dims, seed);
        for level in levels() {
            let got = generate_at(level, dims, seed);
            assert_eq!((got.dims, got.seed), (dims, seed));
            assert_eq!(
                got.labels, portable.labels,
                "{level:?} {dims:?} seed {seed}"
            );
            let (got, want) = (bits(&got.voxels), bits(&portable.voxels));
            assert_eq!(got, want, "{level:?} {dims:?} seed {seed}");
        }
    }

    #[test]
    fn dispatch_picks_the_widest_level_the_cpu_reports() {
        assert_eq!(Level::widest(|_| false), Level::Portable);
        assert_eq!(Level::widest(|level| level == Level::Avx2), Level::Avx2);
        assert_eq!(Level::widest(|level| level != Level::Avx2), Level::Avx512);
        assert_eq!(Level::widest(|_| true), Level::Avx512);
        // On this CPU: a reported level, and the first such from the top.
        let picked = Level::widest(Level::detected);
        assert!(picked.detected());
        assert_eq!(Some(picked), levels().next());
        assert_eq!(kernel_level(), format!("{picked:?}").to_lowercase());
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(picked, Level::Portable);
    }

    /// Mean 1e4, σ 1e-2: raw sums of squares would lose the variance
    /// (1e8 against 1e-4) where the shifted ones keep it.
    fn far_from_zero() -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(5);
        let normal = Ziggurat::get();
        let draw = |_| (1e4 + 1e-2 * normal.sample(&mut rng)) as f32;
        (0..100_000).map(draw).collect()
    }

    #[test]
    fn every_level_returns_the_portable_statistics() {
        let mut inputs: Vec<Vec<f32>> = [[16, 16, 16], [5, 7, 9], [41, 63, 95], [40, 40, 40]]
            .into_iter()
            .map(|dims| vol(dims).voxels)
            .collect();
        inputs.push(vec![2.5; 1003]);
        // Empty, then every length around the eight-lane chunk and its tail.
        inputs.extend((0..=17).map(|n| vol([1, 1, n]).voxels));
        inputs.push(far_from_zero());
        for voxels in &inputs {
            let bits = |(mean, inv_std): (f32, f32)| (mean.to_bits(), inv_std.to_bits());
            let want = bits(intensity_stats_at(Level::Portable, voxels));
            for level in levels() {
                let got = bits(intensity_stats_at(level, voxels));
                assert_eq!(got, want, "{level:?}, {} voxels", voxels.len());
            }
        }
    }

    #[test]
    fn generate_matches_the_full_scan() {
        // Unit axes (the `r.max(1.0)` clamp), a flat slab, odd centres,
        // the benchmark's smallest cube, unequal sides, an empty axis.
        for dims in [
            [1, 1, 1],
            [3, 40, 2],
            [5, 7, 9],
            [40, 40, 40],
            [41, 63, 95],
            [0, 4, 4],
        ] {
            assert_same_bits(dims, 7);
        }
    }

    proptest! {
        #[test]
        fn generate_matches_the_full_scan_on_random_dims(
            d in 1usize..25,
            h in 1usize..25,
            w in 1usize..25,
            seed in 0u64..u64::MAX,
        ) {
            assert_same_bits([d, h, w], seed);
        }
    }

    #[test]
    fn crop_statistics_match_the_two_pass_oracle() {
        for dims in [[16, 16, 16], [5, 7, 9], [41, 63, 95], [1, 1, 1]] {
            let v = vol(dims);
            let (got, want) = (intensity_stats(&v.voxels), two_pass_stats(&v.voxels));
            assert!(within_one_ulp(got.0, want.0), "mean {got:?} {want:?}");
            assert!(within_one_ulp(got.1, want.1), "1/std {got:?} {want:?}");
        }
        // Constant input: variance exactly 0, so the 1e-6 clamp decides.
        let flat = vec![2.5f32; 1003];
        assert_eq!(intensity_stats(&flat), two_pass_stats(&flat));
        assert_eq!(intensity_stats(&flat), (2.5, 1e6));
        assert_eq!(intensity_stats(&[]), two_pass_stats(&[]));
        let far = far_from_zero();
        let (got, want) = (intensity_stats(&far), two_pass_stats(&far));
        assert!(within_one_ulp(got.0, want.0), "mean {got:?} {want:?}");
        let rel = ((got.1 - want.1) / want.1).abs();
        assert!(rel <= 1e-6, "1/std {got:?} {want:?}");
    }

    #[test]
    fn crop_standardizes_the_window_it_copies() {
        // Slice-wise row copies against the per-voxel definition.
        let v = vol([20, 18, 16]);
        let (mean, inv_std) = intensity_stats(&v.voxels);
        let t = RandomCrop { target: [8, 8, 8] };
        let c = match t.apply(v.clone(), &TransformCtx::unbounded()).unwrap() {
            Outcome::Done(c) => c,
            _ => panic!(),
        };
        // Recover the offset from the one window whose labels and
        // standardized voxels all match.
        let matches_at = |oz: usize, oy: usize, ox: usize| {
            (0..8).all(|z| {
                (0..8).all(|y| {
                    (0..8).all(|x| {
                        let src = v.index(z + oz, y + oy, x + ox);
                        let dst = (z * 8 + y) * 8 + x;
                        c.labels[dst] == v.labels[src]
                            && c.voxels[dst] == (v.voxels[src] - mean) * inv_std
                    })
                })
            })
        };
        let hits = (0..=12)
            .flat_map(|oz| (0..=10).flat_map(move |oy| (0..=8).map(move |ox| (oz, oy, ox))))
            .filter(|&(oz, oy, ox)| matches_at(oz, oy, ox))
            .count();
        assert_eq!(hits, 1, "exactly one source window reproduces the crop");
    }

    #[test]
    fn crop_to_target_dims() {
        let v = vol([20, 18, 16]);
        let t = RandomCrop { target: [8, 8, 8] };
        match t.apply(v, &TransformCtx::unbounded()).unwrap() {
            Outcome::Done(c) => {
                assert_eq!(c.dims, [8, 8, 8]);
                assert_eq!(c.voxels.len(), 512);
                assert_eq!(c.labels.len(), 512);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn crop_pads_small_volumes() {
        let v = vol([4, 4, 4]);
        let t = RandomCrop { target: [8, 8, 8] };
        match t.apply(v, &TransformCtx::unbounded()).unwrap() {
            Outcome::Done(c) => {
                assert_eq!(c.dims, [8, 8, 8]);
                // Padded region is zeroed.
                assert_eq!(c.voxels[511], 0.0);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn crop_rejects_zero_target() {
        let t = RandomCrop { target: [0, 8, 8] };
        assert!(t.apply(vol([8, 8, 8]), &TransformCtx::unbounded()).is_err());
    }

    #[test]
    fn flip_maps_indices_along_the_drawn_axes() {
        let dims @ [d, h, w] = [4, 6, 8];
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let n = d * h * w;
            let input = Volume3D {
                dims,
                voxels: (0..n).map(|i| i as f32).collect(),
                labels: (0..n).map(|i| i as u8).collect(),
                seed,
            };
            let mut out = input.clone();
            RandomFlip::flip_in_place(&mut out);
            // x and z keep the draws they had before y existed; y is third.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF11B);
            let [fx, fz, fy] = [(); 3].map(|()| rng.random_bool(0.5));
            seen.insert((fz, fy, fx));
            let pick = |flip: bool, i: usize, len: usize| if flip { len - 1 - i } else { i };
            for (z, y, x) in
                (0..d).flat_map(|z| (0..h).flat_map(move |y| (0..w).map(move |x| (z, y, x))))
            {
                let (dst, src) = (
                    out.index(z, y, x),
                    input.index(pick(fz, z, d), pick(fy, y, h), pick(fx, x, w)),
                );
                assert_eq!(out.voxels[dst], input.voxels[src], "seed {seed}");
                assert_eq!(out.labels[dst], input.labels[src], "seed {seed}");
            }
        }
        assert_eq!(seen.len(), 8, "all eight flip combinations occur");
    }

    #[test]
    fn flip_preserves_content_multiset() {
        let v = vol([6, 6, 6]);
        let mut before = v.voxels.clone();
        match RandomFlip.apply(v, &TransformCtx::unbounded()).unwrap() {
            Outcome::Done(f) => {
                let mut after = f.voxels;
                before.sort_by(f32::total_cmp);
                after.sort_by(f32::total_cmp);
                assert_eq!(before, after);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn brightness_scales_values() {
        let mut v = vol([4, 4, 4]);
        v.voxels.fill(2.0);
        match RandomBrightness
            .apply(v, &TransformCtx::unbounded())
            .unwrap()
        {
            Outcome::Done(b) => {
                let x = b.voxels[0];
                assert!((1.4..=2.6).contains(&x), "scaled into [0.7,1.3]×2: {x}");
                assert!(b.voxels.iter().all(|&y| y == x), "uniform scaling");
            }
            _ => panic!(),
        }
    }

    /// The noise kernel at every level this CPU runs against the
    /// one-voxel-at-a-time reference, bit for bit.
    fn assert_noise_matches_the_reference(voxels: &[f32], seed: u64) {
        let zig = Ziggurat::get();
        let mut want = voxels.to_vec();
        noise_voxel_by_voxel(&mut want, 0.05, seed, |b, rest| zig.finish(b, rest));
        let (want, n) = (bits(&want), voxels.len());
        for level in levels() {
            let mut got = voxels.to_vec();
            add_noise_at(level, &mut got, 0.05, seed);
            assert_eq!(bits(&got), want, "{level:?}, {n} voxels, seed {seed}");
        }
    }

    #[test]
    fn noise_matches_the_scalar_reference_at_every_level() {
        // Empty, below one block, one 64-voxel block, its tail, two blocks.
        for n in 0..=130 {
            assert_noise_matches_the_reference(&vol([1, 1, n]).voxels, n as u64);
        }
        let v = vol([32, 32, 32]);
        let seed = v.seed ^ 0x9015E;
        assert_noise_matches_the_reference(&v.voxels, seed);
        // Dispatched, by value and in place: the reference's bytes.
        let (noise, ctx) = (GaussianNoise { sigma: 0.05 }, TransformCtx::unbounded());
        let mut in_place = v.clone();
        noise.apply_mut(&mut in_place, &ctx).unwrap();
        let Outcome::Done(by_value) = noise.apply(v.clone(), &ctx).unwrap() else {
            panic!("noise always completes")
        };
        let mut want = v.voxels;
        let zig = Ziggurat::get();
        noise_voxel_by_voxel(&mut want, 0.05, seed, |b, rest| zig.finish(b, rest));
        assert_eq!(bits(&by_value.voxels), bits(&want));
        assert_eq!(bits(&in_place.voxels), bits(&want));
    }

    proptest! {
        #[test]
        fn noise_matches_the_scalar_reference_on_random_lengths(
            n in 0usize..5000,
            seed in 0u64..u64::MAX,
        ) {
            assert_noise_matches_the_reference(&vol([1, 1, n]).voxels, seed);
        }
    }

    #[test]
    fn noise_is_sigma_times_a_standard_normal() {
        // Zero volumes, so each voxel is its noise; σ a power of two, so
        // x / σ is exact. Tolerances: `dist`'s `ziggurat_is_standard_normal`.
        let sigma = 0.25;
        let (mut s1, mut s2, mut s4, mut beyond_2) = (0.0f64, 0.0f64, 0.0f64, 0u32);
        for seed in 0..8 {
            let n = 125_000;
            let (voxels, labels) = (vec![0.0; n], vec![0; n]);
            let mut v = Volume3D {
                dims: [50, 50, 50],
                voxels,
                labels,
                seed,
            };
            GaussianNoise { sigma }.add_noise_in_place(&mut v);
            for &x in &v.voxels {
                let z = f64::from(x / sigma);
                s1 += z;
                s2 += z * z;
                s4 += z * z * z * z;
                beyond_2 += u32::from(z.abs() > 2.0);
            }
        }
        let n = 1e6;
        let (mean, var) = (s1 / n, s2 / n - (s1 / n) * (s1 / n));
        assert!(mean.abs() < 4e-3, "mean {mean}");
        assert!((var - 1.0).abs() < 6e-3, "variance {var}");
        let kurtosis = s4 / n / (var * var);
        assert!((kurtosis - 3.0).abs() < 0.03, "kurtosis {kurtosis}");
        let tail_mass = f64::from(beyond_2) / n;
        assert!(
            (tail_mass - 0.0455).abs() < 1e-3,
            "P(|z| > 2) = {tail_mass}"
        );
    }

    #[test]
    fn cast_reduces_precision() {
        let mut v = vol([2, 2, 2]);
        v.voxels[0] = 1.000_123;
        match Cast.apply(v, &TransformCtx::unbounded()).unwrap() {
            Outcome::Done(c) => assert_eq!(c.voxels[0], 1.0),
            _ => panic!(),
        }
    }

    #[test]
    fn cast_rounds_to_nearest_even() {
        // (input, output) bits: 13 dropped bits just below, at and above
        // half of their range, under an even and an odd kept mantissa,
        // and a tie that carries into the exponent (→ 2.0).
        let cases = [
            (0x3F80_0FFF, 0x3F80_0000),
            (0x3F80_1000, 0x3F80_0000),
            (0x3F80_1001, 0x3F80_2000),
            (0x3F80_2FFF, 0x3F80_2000),
            (0x3F80_3000, 0x3F80_4000),
            (0x3F80_3001, 0x3F80_4000),
            (0x3FFF_F000, 0x4000_0000),
        ];
        let sign = 0x8000_0000u32;
        let input: Vec<u32> = cases.iter().flat_map(|&(i, _)| [i, i | sign]).collect();
        let want: Vec<u32> = cases.iter().flat_map(|&(_, o)| [o, o | sign]).collect();
        let mut v = vol([1, 1, input.len()]);
        v.voxels = input.iter().map(|&b| f32::from_bits(b)).collect();
        Cast::cast_in_place(&mut v);
        assert_eq!(bits(&v.voxels), want);
    }

    #[test]
    fn full_pipeline_runs() {
        let p = segmentation_pipeline([8, 8, 8]);
        let v = vol([16, 16, 16]);
        match p.run(v, None).unwrap() {
            PipelineRun::Completed { value, .. } => {
                assert_eq!(value.dims, [8, 8, 8]);
            }
            _ => panic!("no deadline"),
        }
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn in_place_pipeline_is_byte_identical_and_recycles() {
        use minato_core::pool::PoolSet;
        let p = segmentation_pipeline([8, 8, 8]);
        let by_value = match p.run(vol([16, 16, 16]), None).unwrap() {
            PipelineRun::Completed { value, .. } => value,
            _ => panic!("no deadline"),
        };
        let pools = std::sync::Arc::new(PoolSet::new(64 << 20));
        let run_pooled = || {
            let ctx = TransformCtx::unbounded().with_pool(std::sync::Arc::clone(&pools));
            match p.run_ctx(0, vol([16, 16, 16]), ctx).unwrap() {
                PipelineRun::Completed { value, .. } => value,
                _ => panic!("no deadline"),
            }
        };
        let pooled = run_pooled();
        assert_eq!(pooled, by_value, "in-place path must be byte-identical");
        let first = pools.stats().combined();
        assert!(first.recycled >= 2, "crop recycles voxels+labels");
        // Close the consumer side of the loop (what the batch recycle
        // hook does after delivery): the next run's crop output must
        // then come from pooled memory instead of the allocator.
        use minato_core::pool::Reclaim;
        pooled.reclaim(&pools);
        let again = run_pooled();
        assert_eq!(again, by_value);
        let second = pools.stats().combined();
        assert!(
            second.hits > first.hits,
            "steady state must serve crop outputs from the pool"
        );
    }

    #[test]
    fn reclaim_returns_both_payloads() {
        use minato_core::pool::{PoolSet, Reclaim};
        let pools = PoolSet::new(1 << 20);
        vol([8, 8, 8]).reclaim(&pools);
        let s = pools.stats();
        assert_eq!(s.f32s.recycled, 1);
        assert_eq!(s.u8s.recycled, 1);
    }

    #[test]
    fn bigger_volumes_cost_more() {
        // The size/time correlation of §3.2, verified on real kernels.
        let p = segmentation_pipeline([8, 8, 8]);
        let small = vol([12, 12, 12]);
        let big = vol([48, 48, 48]);
        // Min-of-5 to be robust against scheduler noise on busy CI
        // machines.
        let time = |v: &Volume3D| {
            (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    let _ = p.run(v.clone(), None).unwrap();
                    t0.elapsed()
                })
                .min()
                .expect("five trials")
        };
        let _ = time(&small); // Warm up.
        let ts = time(&small);
        let tb = time(&big);
        assert!(
            tb > ts,
            "64× more voxels must take longer ({ts:?} vs {tb:?})"
        );
    }
}
