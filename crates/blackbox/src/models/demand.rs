//! `Demand(current_week, feature_release)` — paper Algorithm 1.
//!
//! A linearly growing Gaussian demand forecast whose growth rate changes at
//! the feature-release week. Two implementations are provided:
//!
//! * [`Demand`] — draws the week's demand as a **single** normal variate
//!   with the combined mean/variance of Algorithm 1's two addends. This is
//!   distributionally identical (a sum of independent normals is normal with
//!   summed means/variances) and makes every parameter point an exact affine
//!   image of every other, which is why the paper observes that "the
//!   extremely simplistic Demand model requires only one basis distribution
//!   for its entire ~5000 point parameter space" (§6.2).
//! * [`DemandTwoDraw`] — Algorithm 1 verbatim, with two separate draws in
//!   the post-release branch. The two addends' standard deviations scale
//!   differently with the parameters, so post-release points are *not*
//!   affine images of each other; fingerprinting correctly refuses to merge
//!   them. Used in tests and the reuse-ablation experiment.

use jigsaw_prng::dist::{Distribution, Normal};
use jigsaw_prng::{Seed, Worlds, Xoshiro256pp};

use crate::function::BlackBox;
use crate::work::Workload;

/// Demand model with a single combined draw (see module docs).
///
/// Parameters: `[current_week, feature_release]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Demand {
    /// Mean demand growth per week (paper: `1 * current_week`).
    pub growth: f64,
    /// Demand variance accrued per week (paper: `0.1 * current_week`).
    pub var_rate: f64,
    /// Post-release extra mean growth per week (paper: `0.2 * (w - f)`).
    pub boost: f64,
    /// Post-release extra variance per week (paper: `0.2 * (w - f)`).
    pub boost_var_rate: f64,
    /// Synthetic per-invocation cost.
    pub work: Workload,
}

impl Demand {
    /// The constants of the paper's Algorithm 1.
    pub fn paper() -> Self {
        Demand { growth: 1.0, var_rate: 0.1, boost: 0.2, boost_var_rate: 0.2, work: Workload::NONE }
    }

    /// Enterprise-scale constants used by the `Overload` scenario (demand in
    /// CPU cores; crosses a ~500-core cluster around week 25).
    pub fn enterprise() -> Self {
        Demand {
            growth: 20.0,
            var_rate: 16.0,
            boost: 5.0,
            boost_var_rate: 4.0,
            work: Workload::NONE,
        }
    }

    /// Set the synthetic workload.
    pub fn with_work(mut self, work: Workload) -> Self {
        self.work = work;
        self
    }

    /// Mean and variance of the demand at `week` given `feature` release.
    pub fn moments_at(&self, week: f64, feature: f64) -> (f64, f64) {
        let mut mu = self.growth * week;
        let mut var = self.var_rate * week;
        if week > feature {
            mu += self.boost * (week - feature);
            var += self.boost_var_rate * (week - feature);
        }
        (mu, var)
    }
}

impl Default for Demand {
    fn default() -> Self {
        Demand::paper()
    }
}

impl BlackBox for Demand {
    fn name(&self) -> &str {
        "Demand"
    }

    fn arity(&self) -> usize {
        2
    }

    fn eval(&self, params: &[f64], seed: Seed) -> f64 {
        assert_eq!(params.len(), 2, "Demand expects [current_week, feature_release]");
        self.work.burn();
        let (mu, var) = self.moments_at(params[0], params[1]);
        let mut rng = Xoshiro256pp::seeded(seed);
        mu + var.max(0.0).sqrt() * Normal::standard(&mut rng)
    }

    /// The same values as the `eval` loop, bit for bit, with the window's
    /// standard normals read from its seed table or drawn in one staged
    /// pass (one arity check per call, the synthetic work still once per
    /// world).
    fn eval_seeds(&self, params: &[f64], worlds: Worlds<'_>, out: &mut [f64]) {
        assert_eq!(params.len(), 2, "Demand expects [current_week, feature_release]");
        worlds.seeds().iter().for_each(|_| self.work.burn());
        worlds.standard_normals(out);
        let (mu, var) = self.moments_at(params[0], params[1]);
        let sd = var.max(0.0).sqrt();
        out.iter_mut().for_each(|z| *z = mu + sd * *z);
    }
}

/// Algorithm 1 verbatim: separate draws per addend (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DemandTwoDraw {
    /// The shared model constants.
    pub inner: Demand,
}

impl BlackBox for DemandTwoDraw {
    fn name(&self) -> &str {
        "DemandTwoDraw"
    }

    fn arity(&self) -> usize {
        2
    }

    fn eval(&self, params: &[f64], seed: Seed) -> f64 {
        assert_eq!(params.len(), 2);
        self.inner.work.burn();
        let (week, feature) = (params[0], params[1]);
        let m = &self.inner;
        let mut rng = Xoshiro256pp::seeded(seed);
        let mut demand =
            Normal::from_variance(m.growth * week, (m.var_rate * week).max(0.0)).sample(&mut rng);
        if week > feature {
            let d = week - feature;
            demand += Normal::from_variance(m.boost * d, (m.boost_var_rate * d).max(0.0))
                .sample(&mut rng);
        }
        demand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_prng::stats::Moments;
    use jigsaw_prng::SeedSet;

    fn sample_dist(bb: &dyn BlackBox, params: &[f64], n: usize) -> Moments {
        let seeds = SeedSet::new(99);
        let mut m = Moments::new();
        for k in 0..n {
            m.push(bb.eval(params, seeds.seed(k)));
        }
        m
    }

    #[test]
    fn pre_release_moments() {
        let d = Demand::paper();
        let m = sample_dist(&d, &[10.0, 36.0], 50_000);
        assert!((m.mean() - 10.0).abs() < 0.05, "mean {}", m.mean());
        assert!((m.variance() - 1.0).abs() < 0.05, "var {}", m.variance());
    }

    #[test]
    fn post_release_moments() {
        let d = Demand::paper();
        // week 20, released at 10: mu = 20 + 0.2*10 = 22, var = 2 + 0.2*10 = 4.
        let m = sample_dist(&d, &[20.0, 10.0], 50_000);
        assert!((m.mean() - 22.0).abs() < 0.1, "mean {}", m.mean());
        assert!((m.variance() - 4.0).abs() < 0.15, "var {}", m.variance());
    }

    #[test]
    fn week_zero_is_point_mass() {
        let d = Demand::paper();
        let seeds = SeedSet::new(1);
        for k in 0..20 {
            assert_eq!(d.eval(&[0.0, 36.0], seeds.seed(k)), 0.0);
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let d = Demand::paper();
        let a = d.eval(&[7.0, 3.0], Seed(42));
        let b = d.eval(&[7.0, 3.0], Seed(42));
        assert_eq!(a, b);
    }

    #[test]
    fn combined_draw_is_affine_across_all_points() {
        // The property Jigsaw exploits: under a shared seed, any two points
        // are exact affine images.
        let d = Demand::paper();
        let seeds = SeedSet::new(5);
        let (mu1, v1) = d.moments_at(10.0, 36.0);
        let (mu2, v2) = d.moments_at(40.0, 12.0);
        let alpha = (v2 / v1).sqrt();
        let beta = mu2 - alpha * mu1;
        for k in 0..32 {
            let x1 = d.eval(&[10.0, 36.0], seeds.seed(k));
            let x2 = d.eval(&[40.0, 12.0], seeds.seed(k));
            assert!(
                (x2 - (alpha * x1 + beta)).abs() < 1e-9,
                "k={k}: {x2} vs {}",
                alpha * x1 + beta
            );
        }
    }

    #[test]
    fn two_draw_variant_is_not_affine_post_release() {
        // Verbatim Algorithm 1: post-release points with different σ-ratios
        // cannot be affine images of each other.
        let d = DemandTwoDraw::default();
        let seeds = SeedSet::new(5);
        let p1 = [20.0, 10.0];
        let p2 = [40.0, 12.0];
        let xs1: Vec<f64> = (0..10).map(|k| d.eval(&p1, seeds.seed(k))).collect();
        let xs2: Vec<f64> = (0..10).map(|k| d.eval(&p2, seeds.seed(k))).collect();
        // Fit affine from first two entries, check it fails on the rest.
        let alpha = (xs2[1] - xs2[0]) / (xs1[1] - xs1[0]);
        let beta = xs2[0] - alpha * xs1[0];
        let worst = xs1
            .iter()
            .zip(&xs2)
            .map(|(a, b)| (b - (alpha * a + beta)).abs())
            .fold(0.0f64, f64::max);
        assert!(worst > 1e-6, "unexpectedly affine (worst residual {worst})");
    }

    #[test]
    fn two_draw_variant_matches_single_draw_distribution() {
        let single = Demand::paper();
        let double = DemandTwoDraw::default();
        let ms = sample_dist(&single, &[30.0, 12.0], 100_000);
        let md = sample_dist(&double, &[30.0, 12.0], 100_000);
        assert!((ms.mean() - md.mean()).abs() < 0.1, "{} vs {}", ms.mean(), md.mean());
        assert!(
            (ms.variance() - md.variance()).abs() / ms.variance() < 0.05,
            "{} vs {}",
            ms.variance(),
            md.variance()
        );
    }
}
