//! Order statistics for the benchmark's reports.
//!
//! Every timing metric is a **median of per-round values**; tails are a
//! nearest-rank percentile whose level is admitted only when at least
//! [`MIN_BEYOND`] samples of the timed section lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentile levels a tail may be reported at, highest first.
pub const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts). Panics on an empty
/// slice: every caller has already checked it measured something.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the `ceil(q·n)`-th smallest sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "percentile level {q} out of range");
    let v = sorted(values);
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of level `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest level of [`LADDER`] with at least [`MIN_BEYOND`] of `n`
/// samples beyond it, or `None` when even the median has too few.
pub fn highest_supported_level(n: usize) -> Option<f64> {
    LADDER.iter().copied().find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the driver computes its spreads with that function.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let len = v.len();
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the contract bounds. Zero for a metric that repeats exactly.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 0.75), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]), (15.0, 120.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median_and_zero_for_constants() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_spread(&v), 1.0);
        assert_eq!(iqr_spread(&[109.0; 10]), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        // 4000 samples: p99 leaves 40 beyond, p99.9 only 4.
        assert_eq!(highest_supported_level(4000), Some(0.99));
        assert_eq!(samples_beyond(4000, 0.999), 4);
        // 10 000 samples admit p99.9 with exactly ten beyond.
        assert_eq!(highest_supported_level(10_000), Some(0.999));
        // 44 sweep rounds: p75 leaves 11 beyond, p90 only 4.
        assert_eq!(highest_supported_level(44), Some(0.75));
        assert_eq!(highest_supported_level(20), Some(0.50));
        assert_eq!(highest_supported_level(19), None);
        assert_eq!(highest_supported_level(0), None);
    }
}
