//! Fingerprints of stochastic functions.
//!
//! "The fingerprint of a parameterized stochastic function `F(P_i)`, with
//! respect to a vector of `m` seed values `{σ_k}`, is the vector of size `m`
//! where the k'th entry is the output of `F(P_i)` with `σ_k` as the random
//! seed." (paper §3.1)
//!
//! Because the seed set is global and fixed, a fingerprint is a
//! *deterministic* signature of the function's output distribution: two
//! parameter points whose distributions are related by a mapping function
//! produce fingerprints related by the same mapping, entry by entry.

use std::fmt;

use jigsaw_pdb::{PdbError, Result};

/// A fingerprint: the function's outputs under the global seed vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint(Vec<f64>);

impl Fingerprint {
    /// Wrap raw outputs (entry `k` must correspond to seed `σ_k`).
    pub fn new(entries: Vec<f64>) -> Self {
        assert!(!entries.is_empty(), "fingerprints must be non-empty");
        assert!(entries.iter().all(|x| x.is_finite()), "fingerprint entries must be finite");
        Fingerprint(entries)
    }

    /// The entries.
    pub fn entries(&self) -> &[f64] {
        &self.0
    }

    /// Fingerprint length `m`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Never true (constructor rejects empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the first entry distinct from entry `i0` under relative
    /// tolerance `tol`, scanning forward.
    pub fn first_distinct_pair(&self, tol: f64) -> Option<(usize, usize)> {
        let a = self.0[0];
        for (j, &b) in self.0.iter().enumerate().skip(1) {
            if !approx_eq(a, b, tol) {
                return Some((0, j));
            }
        }
        None
    }

    /// True when every entry equals every other within tolerance.
    pub fn is_constant(&self, tol: f64) -> bool {
        self.first_distinct_pair(tol).is_none()
    }

    /// Elementwise approximate equality.
    pub fn approx_eq(&self, other: &Fingerprint, tol: f64) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(&a, &b)| approx_eq(a, b, tol))
    }
}

/// Relative-tolerance scalar comparison: `|a − b| ≤ tol · max(1, |a|, |b|)`.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Validate `α·from[k] + β ≈ to[k]` for every `k` — the mapping-discovery
/// inner loop (Algorithm 2's witness scan), run over the two contiguous
/// fingerprint columns at once. The per-entry predicate is exactly
/// [`approx_eq`], so match decisions are bit-identical to the scalar loop;
/// the slice form exists so the candidate-probe hot path reads straight
/// through both columns without touching `Fingerprint` accessors per entry.
#[inline]
pub fn affine_fits(from: &[f64], to: &[f64], alpha: f64, beta: f64, tol: f64) -> bool {
    from.len() == to.len()
        && from.iter().zip(to).all(|(&x, &y)| approx_eq(alpha * x + beta, y, tol))
}

/// Check raw model output for column `col` of point `point_idx` (entry `k`
/// = world `k`) before it becomes a [`Fingerprint`]. A non-finite world —
/// the SQL dialect's float `/` yields ±∞ and NaN — is a typed
/// [`PdbError::NanMetric`] naming the point, column, world and value, so
/// callers reject it before taking any store lock instead of panicking in
/// [`Fingerprint::new`].
pub(crate) fn check_finite(entries: &[f64], point_idx: usize, col: usize) -> Result<()> {
    match entries.iter().position(|x| !x.is_finite()) {
        None => Ok(()),
        Some(k) => Err(PdbError::NanMetric(format!(
            "point {point_idx}, column {col}: fingerprint world {k} returned {}",
            entries[k]
        ))),
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_pair_detection() {
        let fp = Fingerprint::new(vec![2.0, 2.0, 2.0, 5.0, 7.0]);
        assert_eq!(fp.first_distinct_pair(1e-9), Some((0, 3)));
        let c = Fingerprint::new(vec![3.0; 4]);
        assert_eq!(c.first_distinct_pair(1e-9), None);
        assert!(c.is_constant(1e-9));
    }

    #[test]
    fn approx_eq_relative_scaling() {
        // Near zero, tolerance is absolute.
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        // At magnitude 1e9, the same relative tolerance admits ~1 absolute.
        assert!(approx_eq(1e9, 1e9 + 0.5, 1e-9));
        assert!(!approx_eq(1e9, 1e9 + 10.0, 1e-9));
        assert!(!approx_eq(1.0, 1.001, 1e-9));
    }

    #[test]
    fn fingerprint_approx_eq() {
        let a = Fingerprint::new(vec![1.0, 2.0, 3.0]);
        let b = Fingerprint::new(vec![1.0 + 1e-12, 2.0, 3.0 - 1e-12]);
        assert!(a.approx_eq(&b, 1e-9));
        let c = Fingerprint::new(vec![1.0, 2.0]);
        assert!(!a.approx_eq(&c, 1e-9), "length mismatch");
        let d = Fingerprint::new(vec![1.0, 2.0, 4.0]);
        assert!(!a.approx_eq(&d, 1e-9));
    }

    #[test]
    fn display_is_compact() {
        let fp = Fingerprint::new(vec![1.0, 2.5]);
        assert_eq!(fp.to_string(), "[1.000000, 2.500000]");
    }

    #[test]
    fn affine_fits_matches_per_entry_approx_eq() {
        let from = [1.0, 2.0, 3.0, 4.0];
        let to: Vec<f64> = from.iter().map(|&x| 2.0 * x - 1.0).collect();
        assert!(affine_fits(&from, &to, 2.0, -1.0, 1e-9));
        assert!(!affine_fits(&from, &to, 2.0, -1.001, 1e-9));
        let mut off = to.clone();
        off[3] += 0.01;
        assert!(!affine_fits(&from, &off, 2.0, -1.0, 1e-9));
        assert!(!affine_fits(&from, &to[..3], 2.0, -1.0, 1e-9), "length mismatch");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rejected() {
        let _ = Fingerprint::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Fingerprint::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn check_finite_names_the_first_bad_world() {
        assert!(check_finite(&[1.0, -2.0, 0.0], 4, 1).is_ok());
        for (bad, shown) in [(f64::INFINITY, "inf"), (f64::NEG_INFINITY, "-inf"), (f64::NAN, "NaN")]
        {
            match check_finite(&[1.0, 2.0, bad, bad], 4, 1) {
                Err(PdbError::NanMetric(msg)) => {
                    assert_eq!(
                        msg,
                        format!("point 4, column 1: fingerprint world 2 returned {shown}")
                    )
                }
                other => panic!("expected NanMetric, got {other:?}"),
            }
        }
    }
}
