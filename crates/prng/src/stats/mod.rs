//! Statistics toolkit: streaming moments, histograms, goodness-of-fit tests.
//!
//! These primitives serve two masters: the PDB's estimators (paper Figure 3,
//! the `Estimator` component that aggregates per-world query results into
//! expectations / standard deviations / histograms) and this workspace's
//! test suite, which validates the distribution implementations.

mod chi2;
mod histogram;
mod ks;
mod moments;

pub use chi2::{chi2_critical_value, chi2_fits, chi2_statistic};
pub use histogram::Histogram;
pub use ks::{ks_critical_value, ks_statistic};
pub use moments::Moments;

/// Sample mean of a slice. Returns `NaN` on empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n−1 denominator). `NaN` for n < 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation. `NaN` for n < 2.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation of order statistics.
///
/// `NaN` on empty input or when any input is `NaN` (NaN has no rank).
/// Sorts a copy; fine for estimator-sized inputs (thousands of samples).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile q must be in [0,1], got {q}");
    if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected above"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_known_data() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_gives_nan() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
        assert!(quantile(&[], 0.5).is_nan());
        assert!(quantile(&[1.0, f64::NAN, 3.0], 0.5).is_nan());
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 3.0);
        assert_eq!(quantile(&xs, 0.5), 2.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "q must be in [0,1]")]
    fn quantile_rejects_bad_q() {
        let _ = quantile(&[1.0], 1.5);
    }
}
