//! Seeded sampling distributions.
//!
//! The approved offline crate set does not include `rand_distr`, so the
//! handful of distributions the workload models need (Table 2 calibration:
//! normal bodies, lognormal tails, uniform mixtures) are implemented here.
//!
//! There are two standard-normal samplers, with different streams:
//!
//! * [`standard_normal`] — Box–Muller, two draws per variate. Everything
//!   that feeds a figure uses it ([`Dist`], `spec.rs` and through them the
//!   simulator), so its stream is pinned: the same seed must keep giving
//!   the same variates.
//! * [`Ziggurat`] — Marsaglia & Tsang's 128-layer ziggurat (J. Stat. Softw.
//!   5(8), 2000), one draw and no transcendental per variate on the common
//!   path. For bulk per-voxel noise in the real kernels
//!   (`volume::GaussianNoise`), where only the distribution and per-seed
//!   determinism matter; public only so the `kernel_budget` example can
//!   check that kernel. Not for anything a simulator figure depends on.
//!   Its common path is branch-free and reads only the draw it is given,
//!   so the noise kernel takes voxel `j`'s first draw by its counter `j`
//!   — a whole block at a time — and finishes the ≈ 2.8 % it rejects one
//!   by one from a second stream.

use rand::Rng;
use std::sync::OnceLock;

/// A samplable scalar distribution.
///
/// # Examples
///
/// ```
/// use minato_data::dist::Dist;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let d = Dist::uniform(10.0, 20.0);
/// let x = d.sample(&mut rng);
/// assert!((10.0..20.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub enum Dist {
    /// Always `value`.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Gaussian with mean `mu` and standard deviation `sigma`.
    Normal {
        /// Mean.
        mu: f64,
        /// Standard deviation (must be ≥ 0).
        sigma: f64,
    },
    /// `exp(N(mu, sigma))`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Weighted mixture of component distributions.
    Mixture(Vec<(f64, Dist)>),
    /// Inner distribution clamped to `[lo, hi]`.
    Clamped {
        /// Distribution being clamped.
        inner: Box<Dist>,
        /// Lower clamp.
        lo: f64,
        /// Upper clamp.
        hi: f64,
    },
}

impl Dist {
    /// Uniform over `[lo, hi)`.
    pub fn uniform(lo: f64, hi: f64) -> Dist {
        assert!(hi > lo, "uniform needs hi > lo");
        Dist::Uniform { lo, hi }
    }

    /// Gaussian `N(mu, sigma)`.
    pub fn normal(mu: f64, sigma: f64) -> Dist {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Dist::Normal { mu, sigma }
    }

    /// Lognormal `exp(N(mu, sigma))`.
    pub fn lognormal(mu: f64, sigma: f64) -> Dist {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Dist::LogNormal { mu, sigma }
    }

    /// Weighted mixture; weights need not sum to 1 (they are normalized).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or total weight is not positive.
    pub fn mixture(parts: Vec<(f64, Dist)>) -> Dist {
        assert!(!parts.is_empty(), "mixture needs at least one component");
        let total: f64 = parts.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0, "mixture weights must sum to a positive value");
        Dist::Mixture(parts)
    }

    /// Clamps this distribution to `[lo, hi]`.
    pub fn clamped(self, lo: f64, hi: f64) -> Dist {
        assert!(hi >= lo, "clamp needs hi >= lo");
        Dist::Clamped {
            inner: Box::new(self),
            lo,
            hi,
        }
    }

    /// Draws one sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => rng.random_range(*lo..*hi),
            Dist::Normal { mu, sigma } => mu + sigma * standard_normal(rng),
            Dist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            Dist::Mixture(parts) => {
                let total: f64 = parts.iter().map(|(w, _)| *w).sum();
                let mut pick = rng.random_range(0.0..total);
                for (w, d) in parts {
                    if pick < *w {
                        return d.sample(rng);
                    }
                    pick -= w;
                }
                // Floating-point slack: fall through to the last component.
                // An empty mixture draws 0.0 rather than panicking.
                match parts.last() {
                    Some((_, d)) => d.sample(rng),
                    None => 0.0,
                }
            }
            Dist::Clamped { inner, lo, hi } => inner.sample(rng).clamp(*lo, *hi),
        }
    }
}

/// One standard-normal variate via Box–Muller.
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    // Avoid ln(0): draw u1 from (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Layer tables of the ziggurat normal sampler (see the module header).
pub struct Ziggurat {
    /// Right edge of each layer, decreasing: `x[0]` is the base strip's
    /// area-equivalent width `V / f(R)`, `x[1] = R`, `x[LAYERS] = 0`.
    x: [f64; Self::LAYERS + 1],
    /// `x[i + 1] / x[i]`: the share of layer `i` lying under the curve.
    ratio: [f64; Self::LAYERS],
    /// `exp(-x[i]² / 2)`: the curve's height at each right edge.
    f: [f64; Self::LAYERS + 1],
}

impl Ziggurat {
    const LAYERS: usize = 128;
    /// Start of the tail, and the common area of every layer.
    const R: f64 = 3.442_619_855_899;
    const V: f64 = 9.912_563_035_262_17e-3;

    /// The tables, built on first use (3 KB, shared by every thread).
    pub fn get() -> &'static Ziggurat {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut x = [0.0; Self::LAYERS + 1];
            let mut f = (-0.5 * Self::R * Self::R).exp();
            x[0] = Self::V / f;
            x[1] = Self::R;
            for i in 2..Self::LAYERS {
                x[i] = (-2.0 * (Self::V / x[i - 1] + f).ln()).sqrt();
                f = (-0.5 * x[i] * x[i]).exp();
            }
            let ratio = std::array::from_fn(|i| x[i + 1] / x[i]);
            let f = x.map(|x| (-0.5 * x * x).exp());
            Ziggurat { x, ratio, f }
        })
    }

    /// The variate the 64-bit draw `bits` gives on the common path, and
    /// whether that path accepts it (≈ 97.2 % of draws). Branch-free, so
    /// a loop over it vectorises.
    #[inline(always)]
    pub(crate) fn first(&self, bits: u64) -> (f64, bool) {
        // Low 7 bits pick the layer, the top 52 a signed position in
        // [-1, 1), set as the mantissa of [1, 2) (no u64 → f64 convert).
        let i = (bits & 0x7F) as usize;
        let u = f64::from_bits(bits >> 12 | 1.0f64.to_bits()) * 2.0 - 3.0;
        (u * self.x[i], u.abs() < self.ratio[i])
    }

    /// The standard-normal variate the draw `bits` starts: [`Ziggurat`]'s
    /// common path if it accepts, else the wedge or tail test and as many
    /// further tries as they take, drawn from `rng`.
    pub fn finish<R: Rng>(&self, mut bits: u64, rng: &mut R) -> f64 {
        loop {
            let (z, accepted) = self.first(bits);
            if accepted {
                return z;
            }
            let i = (bits & 0x7F) as usize;
            if i == 0 {
                // Beyond R: Marsaglia's exponential-rejection tail.
                loop {
                    let a = (1.0 - rng.random::<f64>()).ln() / Self::R;
                    let b = (1.0 - rng.random::<f64>()).ln();
                    if -2.0 * b >= a * a {
                        return if z < 0.0 { a - Self::R } else { Self::R - a };
                    }
                }
            }
            // Wedge: a height uniform over the layer's, under the curve?
            let f = self.f[i + 1] + rng.random::<f64>() * (self.f[i] - self.f[i + 1]);
            if f < (-0.5 * z * z).exp() {
                return z;
            }
            bits = rng.next_u64();
        }
    }

    /// One standard-normal variate, every draw from `rng`.
    #[cfg(test)]
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        self.finish(rng.next_u64(), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minato_metrics::Summary;
    use rand::{rngs::StdRng, RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn draws(d: &Dist, rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| d.sample(rng)).collect()
    }

    #[test]
    fn constant_is_constant() {
        let mut r = rng();
        assert_eq!(Dist::Constant(5.5).sample(&mut r), 5.5);
    }

    #[test]
    fn uniform_within_bounds_and_mean() {
        let mut r = rng();
        let xs = draws(&Dist::uniform(2.0, 4.0), &mut r, 20_000);
        assert!(xs.iter().all(|&x| (2.0..4.0).contains(&x)));
        let s = Summary::of(&xs);
        assert!((s.avg - 3.0).abs() < 0.03);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs = draws(&Dist::normal(10.0, 2.0), &mut r, 50_000);
        let s = Summary::of(&xs);
        assert!((s.avg - 10.0).abs() < 0.05, "avg {}", s.avg);
        assert!((s.std - 2.0).abs() < 0.05, "std {}", s.std);
    }

    #[test]
    fn lognormal_is_positive_and_skewed() {
        let mut r = rng();
        let xs = draws(&Dist::lognormal(0.0, 0.5), &mut r, 20_000);
        assert!(xs.iter().all(|&x| x > 0.0));
        let s = Summary::of(&xs);
        // E[lognormal(0, 0.5)] = exp(0.125) ≈ 1.133; median = 1.
        assert!((s.avg - 1.133).abs() < 0.03, "avg {}", s.avg);
        assert!((s.median - 1.0).abs() < 0.03, "median {}", s.median);
        assert!(s.avg > s.median, "right-skew expected");
    }

    #[test]
    fn mixture_respects_weights() {
        let mut r = rng();
        let d = Dist::mixture(vec![(0.8, Dist::Constant(0.0)), (0.2, Dist::Constant(1.0))]);
        let xs = draws(&d, &mut r, 50_000);
        let ones = xs.iter().filter(|&&x| x == 1.0).count() as f64 / xs.len() as f64;
        assert!((ones - 0.2).abs() < 0.01, "got {ones}");
    }

    #[test]
    fn clamp_bounds_samples() {
        let mut r = rng();
        let d = Dist::normal(0.0, 100.0).clamped(-1.0, 1.0);
        let xs = draws(&d, &mut r, 1000);
        assert!(xs.iter().all(|&x| (-1.0..=1.0).contains(&x)));
    }

    #[test]
    fn deterministic_per_seed() {
        let d = Dist::normal(0.0, 1.0);
        let a = draws(&d, &mut StdRng::seed_from_u64(1), 10);
        let b = draws(&d, &mut StdRng::seed_from_u64(1), 10);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "hi > lo")]
    fn uniform_rejects_inverted_bounds() {
        let _ = Dist::uniform(2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn mixture_rejects_empty() {
        let _ = Dist::mixture(vec![]);
    }

    #[test]
    fn standard_normal_is_standard() {
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut r)).collect();
        let s = Summary::of(&xs);
        assert!(s.avg.abs() < 0.02);
        assert!((s.std - 1.0).abs() < 0.02);
    }

    #[test]
    fn standard_normal_stream_is_pinned() {
        // `spec.rs`, and so every simulator figure, draws from this
        // stream: a faster sampler must not replace it.
        // (To 1e-12, not to the bit: `ln` and `cos` come from the
        // platform's libm.)
        let mut r = rng();
        let want = [
            0.882_248_906_222_268_8,
            -0.450_849_875_718_860_1,
            0.188_352_634_115_931_5,
            0.219_586_379_190_761,
        ];
        for w in want {
            let z = standard_normal(&mut r);
            assert!((z - w).abs() < 1e-12, "{z} != {w}");
        }
    }

    #[test]
    fn ziggurat_is_standard_normal() {
        let (zig, mut r) = (Ziggurat::get(), rng());
        let n = 1_000_000;
        let (mut s1, mut s2, mut s4) = (0.0f64, 0.0f64, 0.0f64);
        let (mut beyond_2, mut in_tail) = (0u32, 0u32);
        for _ in 0..n {
            let z = zig.sample(&mut r);
            s1 += z;
            s2 += z * z;
            s4 += z * z * z * z;
            beyond_2 += u32::from(z.abs() > 2.0);
            in_tail += u32::from(z.abs() > Ziggurat::R);
        }
        let n = n as f64;
        let (mean, var) = (s1 / n, s2 / n - (s1 / n) * (s1 / n));
        assert!(mean.abs() < 4e-3, "mean {mean}");
        assert!((var - 1.0).abs() < 6e-3, "variance {var}");
        // The fourth moment about zero stands in for the central one:
        // the mean is within 4e-3 of it.
        let kurtosis = s4 / n / (var * var);
        assert!((kurtosis - 3.0).abs() < 0.03, "kurtosis {kurtosis}");
        let tail_mass = f64::from(beyond_2) / n;
        assert!(
            (tail_mass - 0.0455).abs() < 1e-3,
            "P(|z| > 2) = {tail_mass}"
        );
        // P(|z| > R) ≈ 5.8e-4: the tail branch runs a few hundred times.
        assert!((300..900).contains(&in_tail), "{in_tail} tail draws");
    }

    #[test]
    fn ziggurat_common_path_rejects_about_one_draw_in_36() {
        // The share of voxels the noise kernel finishes one by one.
        let (zig, mut r) = (Ziggurat::get(), rng());
        let n = 1_000_000;
        let rejected = (0..n).filter(|_| !zig.first(r.next_u64()).1).count();
        let share = rejected as f64 / n as f64;
        assert!((0.025..=0.031).contains(&share), "{share} finished scalar");
    }

    #[test]
    fn ziggurat_is_deterministic_per_seed_and_small() {
        let zig = Ziggurat::get();
        let draw = |seed| {
            let mut r = StdRng::seed_from_u64(seed);
            (0..1000).map(|_| zig.sample(&mut r)).collect::<Vec<f64>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        assert!(std::mem::size_of::<Ziggurat>() <= 4096);
    }
}
