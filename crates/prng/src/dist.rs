//! Probability distributions for the paper's model catalog.
//!
//! Every distribution here is a *pure function of (parameters, generator
//! state)*: sampling consumes draws from an [`Rng`] and nothing else, so a
//! re-seeded generator reproduces the draw exactly (paper §3.1).
//!
//! Two families carry an additional structural contract that Jigsaw's
//! fingerprint matching exploits:
//!
//! * [`Normal`] draws are **affine in the parameters** under a shared seed:
//!   `sample(μ, σ, rng) = μ + σ · z(rng)` where the standard draw `z`
//!   depends only on the generator stream. Any two normal parameterizations
//!   are therefore exact affine images of each other.
//! * [`Exponential`] draws are **scale images**: `sample(mean, rng) =
//!   mean · e(rng)`.
//!
//! [`Gamma`], [`Poisson`] and [`Categorical`] make no such promise (their
//! rejection/counting loops may consume a parameter-dependent number of
//! draws); they are still seed-deterministic.
//!
//! ## The staged standard-normal kernel
//!
//! A black box evaluated once per world runs seed expansion, the two
//! uniforms, `ln`, `sqrt` and `cos` as one dependent chain, so each world
//! waits on the previous one's libm calls. [`Normal::standard_seeded`]
//! draws a whole window of worlds in stages instead — all generators, then
//! all radii, then all angles, then the products — over fixed stack
//! chunks, so independent worlds overlap in the pipeline. It performs the
//! same IEEE operations on the same inputs as [`Normal::standard`] does
//! per seed, so each element is **bit-identical** to the per-world draw.
//!
//! The kernel runs only where no table holds the draws. A world's standard
//! normal depends on its seed alone, so a [`SeedTable`](crate::SeedTable)
//! draws `σ_0 … σ_{L−1}`'s once per simulation, and a window inside it
//! ([`Worlds::standard_normals`](crate::Worlds::standard_normals)) copies
//! them: the kernel then serves only worlds past the table and derived
//! (call-site) seeds.

use crate::{Rng, Seed, Xoshiro256pp};

/// Worlds per stage of [`Normal::standard_seeded`]: one chunk's angles
/// live in a stack array of this length, so the kernel never allocates.
const SEEDED_CHUNK: usize = 64;

/// A real-valued distribution sampled from an explicit generator.
pub trait Distribution {
    /// Draw one value using `rng` as the sole source of randomness.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draw `n` values into a vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Normal (Gaussian) distribution `N(mean, sd²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// From mean and standard deviation (`sd ≥ 0`).
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd >= 0.0 && sd.is_finite(), "sd must be finite and non-negative");
        Normal { mean, sd }
    }

    /// From mean and variance (`var ≥ 0`).
    pub fn from_variance(mean: f64, var: f64) -> Self {
        assert!(var >= 0.0 && var.is_finite(), "variance must be finite and non-negative");
        Normal { mean, sd: var.sqrt() }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// One standard-normal draw `z ~ N(0, 1)`.
    ///
    /// This is the shared randomness behind every [`Normal`]: it consumes a
    /// fixed two uniforms (Box–Muller), so the draw is identical across
    /// parameterizations under a shared seed — the property that makes all
    /// normal outputs mutual affine images (paper §3.2).
    pub fn standard<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let u1 = rng.next_open_f64();
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// One standard-normal draw per seed: `out[i]` is
    /// [`Normal::standard`] on `Xoshiro256pp::seeded(seeds[i])`, bit for
    /// bit.
    ///
    /// Runs in stack chunks of 64 seeds, each in four stages: per seed,
    /// seed the generator and draw `u1` (its rejection redraw stays per
    /// element) then `u2`; then every radius `(-2 ln u1)^½`; then every
    /// angle `cos(2π u2)`; then the products. No heap allocation.
    ///
    /// # Panics
    ///
    /// When `seeds` and `out` differ in length.
    pub fn standard_seeded(seeds: &[Seed], out: &mut [f64]) {
        assert_eq!(seeds.len(), out.len(), "one output per seed");
        let mut angle = [0.0f64; SEEDED_CHUNK];
        for (seeds, out) in seeds.chunks(SEEDED_CHUNK).zip(out.chunks_mut(SEEDED_CHUNK)) {
            let angle = &mut angle[..seeds.len()];
            for ((&seed, u1), u2) in seeds.iter().zip(out.iter_mut()).zip(angle.iter_mut()) {
                let mut rng = Xoshiro256pp::seeded(seed);
                *u1 = rng.next_open_f64();
                *u2 = rng.next_f64();
            }
            for r in out.iter_mut() {
                *r = (-2.0 * r.ln()).sqrt();
            }
            for a in angle.iter_mut() {
                *a = (std::f64::consts::TAU * *a).cos();
            }
            for (r, &a) in out.iter_mut().zip(angle.iter()) {
                *r *= a;
            }
        }
    }
}

impl Distribution for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sd * Self::standard(rng)
    }
}

/// Exponential distribution with rate `λ` (mean `1/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// From the rate `λ > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be finite and positive");
        Exponential { mean: 1.0 / rate }
    }

    /// From the mean `1/λ ≥ 0`. A zero mean yields the point mass at 0,
    /// which the Capacity model uses to switch delays off.
    pub fn from_mean(mean: f64) -> Self {
        assert!(mean >= 0.0 && mean.is_finite(), "mean must be finite and non-negative");
        Exponential { mean }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// One standard-exponential draw `e ~ Exp(1)`.
    pub fn standard<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        -rng.next_open_f64().ln()
    }
}

impl Distribution for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // mean · e(rng): draws under a shared seed scale exactly with the
        // mean (pure-scale mapping family).
        self.mean * Self::standard(rng)
    }
}

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// On `[lo, hi)`, `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "uniform bounds must satisfy lo < hi");
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + rng.next_f64() * (self.hi - self.lo)
    }
}

/// Gamma distribution with shape `k` and scale `θ` (mean `k·θ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// From shape `k > 0` and scale `θ > 0`.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite(), "shape must be finite and positive");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be finite and positive");
        Gamma { shape, scale }
    }

    /// Marsaglia–Tsang squeeze for shape ≥ 1.
    fn sample_shape_ge_one<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let z = Normal::standard(rng);
            let v = 1.0 + c * z;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = rng.next_open_f64();
            if u < 1.0 - 0.0331 * z.powi(4) || u.ln() < 0.5 * z * z + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }
}

impl Distribution for Gamma {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let raw = if self.shape >= 1.0 {
            Self::sample_shape_ge_one(self.shape, rng)
        } else {
            // Boost trick: Gamma(k) = Gamma(k+1) · U^{1/k}.
            let g = Self::sample_shape_ge_one(self.shape + 1.0, rng);
            g * rng.next_open_f64().powf(1.0 / self.shape)
        };
        // The support is strictly positive; rejection can underflow to 0.0
        // in extreme tails, so clamp to the smallest positive normal.
        (raw * self.scale).max(f64::MIN_POSITIVE)
    }
}

/// Poisson distribution with mean `λ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// From the mean `λ ≥ 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda >= 0.0 && lambda.is_finite(), "lambda must be finite and non-negative");
        Poisson { lambda }
    }

    /// Draw a count.
    pub fn sample_count<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            // Knuth: multiply uniforms until the product drops below e^-λ.
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.next_f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        }
        // Normal approximation for large λ, adequate for synthetic workloads.
        let x = self.lambda + self.lambda.sqrt() * Normal::standard(rng);
        x.round().max(0.0) as u64
    }
}

impl Distribution for Poisson {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_count(rng) as f64
    }
}

/// Categorical distribution over indices `0..weights.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// From non-negative weights (at least one strictly positive); weights
    /// need not be normalized.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "categorical needs at least one weight");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weights must be finite and non-negative");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "categorical needs positive total weight");
        Categorical { cumulative }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether there are no categories (never true — `new` rejects that).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draw a category index.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.next_f64() * total;
        match self.cumulative.iter().position(|&c| x < c) {
            Some(i) => i,
            // x can equal the total only through rounding; fold into the
            // last category.
            None => self.cumulative.len() - 1,
        }
    }
}

impl Distribution for Categorical {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_index(rng) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Moments;
    use crate::{Seed, SeedSet, Xoshiro256pp};

    fn moments(mut draw: impl FnMut(&mut Xoshiro256pp) -> f64, n: usize) -> Moments {
        let seeds = SeedSet::new(1234);
        let mut m = Moments::new();
        for k in 0..n {
            let mut rng = Xoshiro256pp::seeded(seeds.seed(k));
            m.push(draw(&mut rng));
        }
        m
    }

    #[test]
    fn normal_moments_match() {
        let d = Normal::new(3.0, 2.0);
        let m = moments(|rng| d.sample(rng), 50_000);
        assert!((m.mean() - 3.0).abs() < 0.05, "mean {}", m.mean());
        assert!((m.variance() - 4.0).abs() < 0.1, "var {}", m.variance());
    }

    #[test]
    fn normal_is_affine_image_of_standard() {
        let d = Normal::new(-2.0, 0.5);
        for master in 0..32 {
            let mut a = Xoshiro256pp::seeded(Seed(master));
            let mut b = Xoshiro256pp::seeded(Seed(master));
            let z = Normal::standard(&mut a);
            assert_eq!(d.sample(&mut b), -2.0 + 0.5 * z);
        }
    }

    #[test]
    fn standard_seeded_matches_standard_bit_for_bit() {
        // 10^5 seeds: many full chunks plus a partial one, through the
        // session seed set and through derived (call-site) seeds.
        let seeds = SeedSet::new(2011);
        let all: Vec<Seed> = (0..100_037)
            .map(|k| if k % 3 == 0 { seeds.seed(k).derive(k as u64) } else { seeds.seed(k) })
            .collect();
        let mut out = vec![0.0; all.len()];
        Normal::standard_seeded(&all, &mut out);
        for (k, (&seed, &got)) in all.iter().zip(&out).enumerate() {
            let want = Normal::standard(&mut Xoshiro256pp::seeded(seed));
            assert_eq!(got.to_bits(), want.to_bits(), "seed {k}");
        }
        // Windows of every small length agree with the same prefix.
        for len in [0usize, 1, 63, 64, 65, 130] {
            let mut short = vec![0.0; len];
            Normal::standard_seeded(&all[..len], &mut short);
            assert_eq!(short, out[..len]);
        }
    }

    #[test]
    #[should_panic(expected = "one output per seed")]
    fn standard_seeded_rejects_mismatched_lengths() {
        Normal::standard_seeded(&[Seed(1), Seed(2)], &mut [0.0]);
    }

    #[test]
    fn from_variance_agrees_with_new() {
        let mut a = Xoshiro256pp::seeded(Seed(8));
        let mut b = Xoshiro256pp::seeded(Seed(8));
        let x = Normal::from_variance(1.0, 9.0).sample(&mut a);
        let y = Normal::new(1.0, 3.0).sample(&mut b);
        assert_eq!(x, y);
    }

    #[test]
    fn exponential_moments_match() {
        let d = Exponential::from_mean(2.5);
        let m = moments(|rng| d.sample(rng), 50_000);
        assert!((m.mean() - 2.5).abs() < 0.05, "mean {}", m.mean());
        // Var = mean² for exponentials.
        assert!((m.variance() - 6.25).abs() < 0.35, "var {}", m.variance());
    }

    #[test]
    fn exponential_zero_mean_is_point_mass() {
        let d = Exponential::from_mean(0.0);
        let mut rng = Xoshiro256pp::seeded(Seed(3));
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 0.0);
        }
    }

    #[test]
    fn exponential_rate_and_mean_constructors_agree() {
        let mut a = Xoshiro256pp::seeded(Seed(4));
        let mut b = Xoshiro256pp::seeded(Seed(4));
        assert_eq!(
            Exponential::new(0.25).sample(&mut a),
            Exponential::from_mean(4.0).sample(&mut b)
        );
    }

    #[test]
    fn gamma_moments_match() {
        for (shape, scale) in [(0.5, 2.0), (2.0, 1.5), (9.0, 0.25)] {
            let d = Gamma::new(shape, scale);
            let m = moments(|rng| d.sample(rng), 50_000);
            let want_mean = shape * scale;
            let want_var = shape * scale * scale;
            assert!(
                (m.mean() - want_mean).abs() / want_mean < 0.05,
                "shape {shape}: mean {} want {want_mean}",
                m.mean()
            );
            assert!(
                (m.variance() - want_var).abs() / want_var < 0.1,
                "shape {shape}: var {} want {want_var}",
                m.variance()
            );
        }
    }

    #[test]
    fn poisson_counts_match_mean() {
        for lambda in [0.5, 4.0, 60.0] {
            let d = Poisson::new(lambda);
            let m = moments(|rng| d.sample(rng), 30_000);
            assert!(
                (m.mean() - lambda).abs() / lambda.max(1.0) < 0.05,
                "λ={lambda}: mean {}",
                m.mean()
            );
        }
        let mut rng = Xoshiro256pp::seeded(Seed(2));
        assert_eq!(Poisson::new(0.0).sample_count(&mut rng), 0);
    }

    #[test]
    fn categorical_frequencies_match_weights() {
        let d = Categorical::new(&[0.8, 0.18, 0.02]);
        assert_eq!(d.len(), 3);
        let mut counts = [0u32; 3];
        let seeds = SeedSet::new(7);
        let n = 50_000;
        for k in 0..n {
            let mut rng = Xoshiro256pp::seeded(seeds.seed(k));
            counts[d.sample_index(&mut rng)] += 1;
        }
        let freq: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((freq[0] - 0.80).abs() < 0.01, "{freq:?}");
        assert!((freq[1] - 0.18).abs() < 0.01, "{freq:?}");
        assert!((freq[2] - 0.02).abs() < 0.005, "{freq:?}");
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_rejects_empty_interval() {
        let _ = Uniform::new(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn categorical_rejects_zero_weights() {
        let _ = Categorical::new(&[0.0, 0.0]);
    }
}
