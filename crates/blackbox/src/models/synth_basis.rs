//! `SynthBasis(parameter_point)` — paper Figure 6.
//!
//! "A synthetic black box based on Demand, but with a deterministic number
//! of basis distributions." Used by the indexing experiments (Figures 10
//! and 11), which need precise control over how many distinct basis
//! distributions a parameter sweep generates.
//!
//! ## Construction
//!
//! Point `p` belongs to class `c = p mod n_bases`. The shared standard draw
//! `z` is shaped per class as `s = z + c·z²`: for distinct classes these
//! shapes are not affine images of one another (the quadratic coefficient
//! differs), so each class necessarily becomes its own basis distribution.
//! Within a class, points differ only by an affine transform (a generation-
//! dependent gain and offset), so fingerprint matching collapses the entire
//! class onto one basis — giving exactly `n_bases` bases per sweep.

use jigsaw_prng::dist::Normal;
use jigsaw_prng::{Seed, Worlds, Xoshiro256pp};

use crate::function::BlackBox;
use crate::work::Workload;

/// Synthetic model with a deterministic basis count. Parameter: `[point]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthBasis {
    n_bases: usize,
    /// Synthetic per-invocation cost.
    pub work: Workload,
}

impl SynthBasis {
    /// Create a model that generates exactly `n_bases` basis distributions
    /// over any parameter sweep `0..k·n_bases`.
    pub fn new(n_bases: usize) -> Self {
        assert!(n_bases > 0, "n_bases must be positive");
        SynthBasis { n_bases, work: Workload::NONE }
    }

    /// The configured number of bases.
    pub fn n_bases(&self) -> usize {
        self.n_bases
    }

    /// Set the synthetic workload.
    pub fn with_work(mut self, work: Workload) -> Self {
        self.work = work;
        self
    }

    /// The class (basis id) of a parameter point.
    pub fn class_of(&self, point: f64) -> usize {
        (point.max(0.0) as usize) % self.n_bases
    }
}

impl BlackBox for SynthBasis {
    fn name(&self) -> &str {
        "SynthBasis"
    }

    fn arity(&self) -> usize {
        1
    }

    fn eval(&self, params: &[f64], seed: Seed) -> f64 {
        assert_eq!(params.len(), 1, "SynthBasis expects [point]");
        self.work.burn();
        let z = Normal::standard(&mut Xoshiro256pp::seeded(seed));
        self.skin(params[0]).apply(z)
    }

    /// The same values as the `eval` loop, bit for bit, with the window's
    /// standard normals read from its seed table or drawn in one staged
    /// pass (one arity check per call, the synthetic work still once per
    /// world).
    fn eval_seeds(&self, params: &[f64], worlds: Worlds<'_>, out: &mut [f64]) {
        assert_eq!(params.len(), 1, "SynthBasis expects [point]");
        worlds.seeds().iter().for_each(|_| self.work.burn());
        worlds.standard_normals(out);
        let skin = self.skin(params[0]);
        out.iter_mut().for_each(|x| *x = skin.apply(*x));
    }
}

/// A point's class shape and generation skin, applied to its standard draw.
struct Skin {
    class: f64,
    gain: f64,
    offset: f64,
}

impl SynthBasis {
    fn skin(&self, point: f64) -> Skin {
        let generation = (point.max(0.0) as usize) / self.n_bases;
        Skin {
            class: self.class_of(point) as f64,
            gain: 1.0 + 0.1 * generation as f64,
            offset: 0.5 * generation as f64,
        }
    }
}

impl Skin {
    #[inline]
    fn apply(&self, z: f64) -> f64 {
        // Class-specific non-affine shape; generation-specific affine skin.
        let shape = z + self.class * z * z;
        self.gain * shape + self.offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_prng::SeedSet;

    fn fingerprint(bb: &SynthBasis, point: f64, m: usize) -> Vec<f64> {
        let seeds = SeedSet::new(17);
        (0..m).map(|k| bb.eval(&[point], seeds.seed(k))).collect()
    }

    fn affine_residual(a: &[f64], b: &[f64]) -> f64 {
        let alpha = (b[1] - b[0]) / (a[1] - a[0]);
        let beta = b[0] - alpha * a[0];
        a.iter().zip(b).map(|(x, y)| (y - (alpha * x + beta)).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn same_class_points_are_affine() {
        let bb = SynthBasis::new(5);
        // Points 2, 7, 12 are all class 2, generations 0, 1, 2.
        let f0 = fingerprint(&bb, 2.0, 10);
        let f1 = fingerprint(&bb, 7.0, 10);
        let f2 = fingerprint(&bb, 12.0, 10);
        assert!(affine_residual(&f0, &f1) < 1e-9);
        assert!(affine_residual(&f0, &f2) < 1e-9);
    }

    #[test]
    fn different_classes_are_not_affine() {
        let bb = SynthBasis::new(5);
        let f1 = fingerprint(&bb, 1.0, 10);
        let f2 = fingerprint(&bb, 2.0, 10);
        assert!(affine_residual(&f1, &f2) > 1e-6);
    }

    #[test]
    fn class_zero_is_pure_affine_normal() {
        let bb = SynthBasis::new(4);
        // class 0: shape = z exactly; two generations map affinely.
        let f0 = fingerprint(&bb, 0.0, 10);
        let f4 = fingerprint(&bb, 4.0, 10);
        assert!(affine_residual(&f0, &f4) < 1e-9);
    }

    #[test]
    fn class_assignment_cycles() {
        let bb = SynthBasis::new(3);
        assert_eq!(bb.class_of(0.0), 0);
        assert_eq!(bb.class_of(1.0), 1);
        assert_eq!(bb.class_of(2.0), 2);
        assert_eq!(bb.class_of(3.0), 0);
        assert_eq!(bb.class_of(7.0), 1);
    }

    #[test]
    fn deterministic() {
        let bb = SynthBasis::new(8);
        assert_eq!(bb.eval(&[5.0], Seed(1)), bb.eval(&[5.0], Seed(1)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bases_rejected() {
        let _ = SynthBasis::new(0);
    }
}
