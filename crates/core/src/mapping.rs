//! Mapping functions between fingerprints (paper §3, Algorithm 2).
//!
//! A mapping function `M` witnesses the similarity `F(P_i) ∼_M F(P_j)`:
//! applied entry-wise it carries one fingerprint onto another, and applied
//! in closed form (`M_est`) it carries the already-computed output metrics
//! of one parameter point onto another — eliminating the Monte Carlo
//! simulation for the second point.
//!
//! The default family is affine, `M(x) = αx + β`, which satisfies all four
//! of the paper's desiderata: parameterizable from two fingerprint entries,
//! validated by the rest, O(1) to compute, and trivially applicable to
//! expectations, standard deviations, and histograms. "Jigsaw allows users
//! to provide their own classes of mapping functions" — that extension
//! point is the [`MappingFamily`] trait; [`PureScaleFamily`] demonstrates a
//! stricter family, and [`AffineMap::compose`] / [`AffineMap::invert`]
//! provide the algebra that symbolic post-processing (paper §6.2's proposed
//! extension) builds on.

use jigsaw_pdb::OutputMetrics;

use crate::fingerprint::{affine_fits, approx_eq, Fingerprint};

/// An affine mapping `M(x) = alpha · x + beta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineMap {
    /// Scale.
    pub alpha: f64,
    /// Offset.
    pub beta: f64,
}

impl AffineMap {
    /// The identity mapping.
    pub const IDENTITY: AffineMap = AffineMap { alpha: 1.0, beta: 0.0 };

    /// Construct from scale and offset.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha.is_finite() && beta.is_finite(), "mapping coefficients must be finite");
        AffineMap { alpha, beta }
    }

    /// Apply to a scalar.
    #[inline]
    pub fn apply(&self, x: f64) -> f64 {
        self.alpha * x + self.beta
    }

    /// Apply entry-wise to a fingerprint.
    pub fn apply_fingerprint(&self, fp: &Fingerprint) -> Fingerprint {
        Fingerprint::new(fp.entries().iter().map(|&x| self.apply(x)).collect())
    }

    /// `M_est`: carry output metrics across the mapping in closed form.
    ///
    /// O(1): the result shares `m`'s sample buffer and maps samples only
    /// when they are read (see [`OutputMetrics::affine_image`]).
    pub fn apply_metrics(&self, m: &OutputMetrics) -> OutputMetrics {
        m.affine_image(self.alpha, self.beta)
    }

    /// The inverse mapping, when `alpha != 0`.
    ///
    /// Used by the interactive mode to fold samples generated at a point of
    /// interest back into its basis distribution (paper §5: "samples are
    /// generated directly for the point of interest, and mapped back to the
    /// basis distribution by the inverse of the mapping function").
    pub fn invert(&self) -> Option<AffineMap> {
        if self.alpha == 0.0 {
            None
        } else {
            Some(AffineMap { alpha: 1.0 / self.alpha, beta: -self.beta / self.alpha })
        }
    }

    /// Composition `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &AffineMap) -> AffineMap {
        AffineMap { alpha: self.alpha * other.alpha, beta: self.alpha * other.beta + self.beta }
    }

    /// Post-compose with an affine adjustment: `a·M(x) + b`. This is the
    /// building block for symbolic arithmetic over mapped random variables
    /// (paper §6.2: `X + Y = (M_X + M_Y)(f(x))` when both map from the same
    /// basis).
    pub fn then_affine(&self, a: f64, b: f64) -> AffineMap {
        AffineMap { alpha: a * self.alpha, beta: a * self.beta + b }
    }

    /// Pointwise sum of two mappings over the same basis variable.
    pub fn add(&self, other: &AffineMap) -> AffineMap {
        AffineMap { alpha: self.alpha + other.alpha, beta: self.beta + other.beta }
    }

    /// True when this is (approximately) the identity.
    pub fn is_identity(&self, tol: f64) -> bool {
        approx_eq(self.alpha, 1.0, tol) && approx_eq(self.beta, 0.0, tol)
    }
}

/// A family of admissible mapping functions with a discovery procedure.
pub trait MappingFamily: Send + Sync {
    /// Family name for reports.
    fn name(&self) -> &str;

    /// Find `M` in the family with `M(from[k]) ≈ to[k]` for all `k`, or
    /// `None`. Implementations must validate against *every* entry — the
    /// first two entries parameterize, the rest witness (Algorithm 2).
    fn find(&self, from: &Fingerprint, to: &Fingerprint, tol: f64) -> Option<AffineMap>;
}

/// The paper's `FindLinearMapping` (Algorithm 2), tolerance-hardened.
#[derive(Debug, Clone, Copy, Default)]
pub struct AffineFamily;

impl MappingFamily for AffineFamily {
    fn name(&self) -> &str {
        "affine"
    }

    fn find(&self, from: &Fingerprint, to: &Fingerprint, tol: f64) -> Option<AffineMap> {
        if from.len() != to.len() {
            return None;
        }
        let m = match from.first_distinct_pair(tol) {
            None => {
                // Constant source: mappable iff the target is constant too;
                // a pure shift is the canonical witness.
                if to.is_constant(tol) {
                    return Some(AffineMap::new(1.0, to.entries()[0] - from.entries()[0]));
                }
                return None;
            }
            Some((i0, i1)) => {
                let (a0, a1) = (from.entries()[i0], from.entries()[i1]);
                let (b0, b1) = (to.entries()[i0], to.entries()[i1]);
                let alpha = (b1 - b0) / (a1 - a0);
                if !alpha.is_finite() {
                    return None;
                }
                let beta = b0 - alpha * a0;
                if !beta.is_finite() {
                    return None;
                }
                AffineMap::new(alpha, beta)
            }
        };
        // Validate every remaining entry with the slice kernel (same
        // predicate as `approx_eq`, applied over both columns at once).
        if affine_fits(from.entries(), to.entries(), m.alpha, m.beta, tol) {
            Some(m)
        } else {
            None
        }
    }
}

/// A stricter user-style family: pure scalings `M(x) = αx` (no offset).
///
/// Demonstrates the extension point: e.g. for non-negative quantities like
/// capacities, an analyst may know a priori that only rescalings are
/// physically meaningful and exclude accidental shift matches.
#[derive(Debug, Clone, Copy, Default)]
pub struct PureScaleFamily;

impl MappingFamily for PureScaleFamily {
    fn name(&self) -> &str {
        "pure-scale"
    }

    fn find(&self, from: &Fingerprint, to: &Fingerprint, tol: f64) -> Option<AffineMap> {
        let m = AffineFamily.find(from, to, tol)?;
        if approx_eq(m.beta, 0.0, tol) {
            Some(AffineMap::new(m.alpha, 0.0))
        } else {
            None
        }
    }
}

/// Identity-only family: fingerprints must match verbatim. This is the
/// effective reuse regime for information-destroying outputs like the
/// boolean `Overload` model (§6.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityFamily;

impl MappingFamily for IdentityFamily {
    fn name(&self) -> &str {
        "identity"
    }

    fn find(&self, from: &Fingerprint, to: &Fingerprint, tol: f64) -> Option<AffineMap> {
        if from.approx_eq(to, tol) {
            Some(AffineMap::IDENTITY)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::new(v.to_vec())
    }

    #[test]
    fn recovers_paper_example() {
        // θ1 = (0, 1.2, 2.3, 1.3, 1.5), θ2 = θ1 + 0.1 (paper §3.1).
        let a = fp(&[0.0, 1.2, 2.3, 1.3, 1.5]);
        let b = fp(&[0.1, 1.3, 2.4, 1.4, 1.6]);
        let m = AffineFamily.find(&a, &b, 1e-9).expect("mapping must exist");
        assert!((m.alpha - 1.0).abs() < 1e-12);
        assert!((m.beta - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rejects_nonaffine() {
        let a = fp(&[0.0, 1.0, 2.0, 3.0]);
        let b = fp(&[0.0, 1.0, 4.0, 9.0]); // squares
        assert!(AffineFamily.find(&a, &b, 1e-9).is_none());
    }

    #[test]
    fn leading_ties_are_skipped_when_parameterizing() {
        // First two entries equal: Algorithm 2 must look further for the
        // parameterizing pair instead of dividing by zero.
        let a = fp(&[5.0, 5.0, 7.0, 9.0]);
        let b = fp(&[11.0, 11.0, 15.0, 19.0]);
        let m = AffineFamily.find(&a, &b, 1e-9).expect("mapping exists");
        assert!((m.alpha - 2.0).abs() < 1e-12);
        assert!((m.beta - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_to_constant_is_shift() {
        let a = fp(&[3.0, 3.0, 3.0]);
        let b = fp(&[8.0, 8.0, 8.0]);
        let m = AffineFamily.find(&a, &b, 1e-9).unwrap();
        assert_eq!(m.apply(3.0), 8.0);
    }

    #[test]
    fn constant_to_varying_impossible() {
        let a = fp(&[3.0, 3.0, 3.0]);
        let b = fp(&[1.0, 2.0, 3.0]);
        assert!(AffineFamily.find(&a, &b, 1e-9).is_none());
    }

    #[test]
    fn varying_to_constant_is_degenerate_alpha_zero() {
        let a = fp(&[1.0, 2.0, 3.0]);
        let b = fp(&[5.0, 5.0, 5.0]);
        let m = AffineFamily.find(&a, &b, 1e-9).unwrap();
        assert_eq!(m.alpha, 0.0);
        assert_eq!(m.beta, 5.0);
        assert!(m.invert().is_none(), "alpha = 0 is not invertible");
    }

    #[test]
    fn negative_alpha_supported() {
        let a = fp(&[1.0, 2.0, 3.0]);
        let b = fp(&[-2.0, -4.0, -6.0]);
        let m = AffineFamily.find(&a, &b, 1e-9).unwrap();
        assert_eq!(m.alpha, -2.0);
        assert_eq!(m.beta, 0.0);
    }

    #[test]
    fn tolerance_admits_float_noise_and_rejects_real_differences() {
        let a = fp(&[1.0, 2.0, 3.0]);
        let noisy = fp(&[2.0 + 1e-13, 4.0 - 1e-13, 6.0 + 1e-13]);
        assert!(AffineFamily.find(&a, &noisy, 1e-9).is_some());
        let off = fp(&[2.0, 4.0, 6.01]);
        assert!(AffineFamily.find(&a, &off, 1e-9).is_none());
    }

    #[test]
    fn compose_invert_roundtrip() {
        let m = AffineMap::new(2.5, -3.0);
        let inv = m.invert().unwrap();
        let id = m.compose(&inv);
        assert!(id.is_identity(1e-12));
        let id2 = inv.compose(&m);
        assert!(id2.is_identity(1e-12));
    }

    #[test]
    fn compose_order_matters() {
        let m1 = AffineMap::new(2.0, 1.0);
        let m2 = AffineMap::new(-1.0, 3.0);
        // (m1 ∘ m2)(x) = 2(-x + 3) + 1 = -2x + 7.
        let c = m1.compose(&m2);
        assert_eq!(c.apply(1.0), 5.0);
        assert_eq!((c.alpha, c.beta), (-2.0, 7.0));
    }

    #[test]
    fn symbolic_sum_of_mapped_variables() {
        // Paper §6.2: X = 2f+2, Y = 3f+3 ⇒ X + Y = 5f + 5.
        let mx = AffineMap::new(2.0, 2.0);
        let my = AffineMap::new(3.0, 3.0);
        let sum = mx.add(&my);
        assert_eq!((sum.alpha, sum.beta), (5.0, 5.0));
    }

    #[test]
    fn then_affine_matches_manual_composition() {
        let m = AffineMap::new(2.0, 1.0);
        let t = m.then_affine(3.0, -4.0); // 3(2x+1) - 4 = 6x - 1
        assert_eq!((t.alpha, t.beta), (6.0, -1.0));
    }

    #[test]
    fn pure_scale_family_rejects_shifts() {
        let a = fp(&[1.0, 2.0, 3.0]);
        let scaled = fp(&[2.0, 4.0, 6.0]);
        let shifted = fp(&[2.0, 3.0, 4.0]);
        assert!(PureScaleFamily.find(&a, &scaled, 1e-9).is_some());
        assert!(PureScaleFamily.find(&a, &shifted, 1e-9).is_none());
        assert!(AffineFamily.find(&a, &shifted, 1e-9).is_some(), "affine accepts it");
    }

    #[test]
    fn identity_family() {
        let a = fp(&[1.0, 0.0, 1.0]);
        let b = fp(&[1.0, 0.0, 1.0]);
        let c = fp(&[0.0, 1.0, 0.0]);
        assert!(IdentityFamily.find(&a, &b, 1e-9).is_some());
        assert!(IdentityFamily.find(&a, &c, 1e-9).is_none());
        // Affine would map the complement pattern — identity must not.
        assert!(AffineFamily.find(&a, &c, 1e-9).is_some());
    }

    #[test]
    fn mapping_metrics_equals_metrics_of_mapped_samples() {
        let samples = vec![1.0, 4.0, 2.0, 8.0, 5.0];
        let m0 = OutputMetrics::from_samples(samples.clone());
        let map = AffineMap::new(-1.5, 4.0);
        let via_map = map.apply_metrics(&m0);
        let direct = OutputMetrics::from_samples(samples.iter().map(|&x| map.apply(x)).collect());
        assert!((via_map.expectation() - direct.expectation()).abs() < 1e-12);
        assert!((via_map.std_dev() - direct.std_dev()).abs() < 1e-12);
        assert_eq!(via_map.min(), direct.min());
        assert_eq!(via_map.max(), direct.max());
    }

    #[test]
    fn length_mismatch_is_no_match() {
        let a = fp(&[1.0, 2.0]);
        let b = fp(&[1.0, 2.0, 3.0]);
        assert!(AffineFamily.find(&a, &b, 1e-9).is_none());
    }
}
