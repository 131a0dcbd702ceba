//! Output metrics: the *Estimator* component of the paper's Figure 3.
//!
//! "These latter samples are then aggregated by the Estimator to compute one
//! or more characteristics of interest (i.e., mean, standard deviation,
//! etc…) for the output distribution."
//!
//! [`OutputMetrics`] keeps both the closed-form moments and the raw sample
//! vector. Keeping samples costs `n·8` bytes per basis (a few KB) and buys:
//! arbitrary-threshold probabilities, quantiles, exact histogram rebuilds,
//! and — crucially for tests — the ability to verify that the closed-form
//! affine mapping of metrics equals metrics of the mapped samples.
//!
//! The `n·8` bytes are per *basis*, not per point: the metrics of a reused
//! point ([`OutputMetrics::affine_image`]) share the basis's sample buffer
//! and apply `a·x + b` on read, so a sweep whose points mostly reuse holds
//! one sample vector per basis however many points map onto it.

use std::sync::{Arc, OnceLock};

use jigsaw_prng::stats::{quantile, Histogram, Moments};

/// Where an [`OutputMetrics`]' samples live.
#[derive(Debug, Clone)]
enum Samples {
    /// The samples themselves (shared with clones until one is extended).
    Owned(Arc<Vec<f64>>),
    /// `a·x + b` for every `x` of `base`, computed on first read of the
    /// whole vector and cached.
    Mapped { base: Arc<Vec<f64>>, a: f64, b: f64, cache: OnceLock<Vec<f64>> },
}

impl Samples {
    /// The buffer the samples are read from.
    fn buffer(&self) -> &Arc<Vec<f64>> {
        match self {
            Samples::Owned(v) | Samples::Mapped { base: v, .. } => v,
        }
    }

    /// An owned, unshared vector to append to: a mapped value materialises,
    /// and a buffer still shared with another value is copied once.
    fn make_mut(&mut self) -> &mut Vec<f64> {
        if let Samples::Mapped { base, a, b, cache } = self {
            let v = cache.take().unwrap_or_else(|| map_all(base, *a, *b));
            *self = Samples::Owned(Arc::new(v));
        }
        match self {
            Samples::Owned(v) => Arc::make_mut(v),
            Samples::Mapped { .. } => unreachable!("materialised above"),
        }
    }
}

/// `a·x + b` for every `x` — the one expression every mapped sample a
/// caller can observe comes from.
fn map_all(xs: &[f64], a: f64, b: f64) -> Vec<f64> {
    xs.iter().map(|x| a * x + b).collect()
}

/// The share of `xs` above `t`, or NaN when `xs` is empty or holds a NaN.
fn share_over(xs: impl ExactSizeIterator<Item = f64>, t: f64) -> f64 {
    let n = xs.len();
    let mut over = 0usize;
    for x in xs {
        if x.is_nan() {
            return f64::NAN;
        }
        over += (x > t) as usize;
    }
    if n == 0 {
        f64::NAN
    } else {
        over as f64 / n as f64
    }
}

/// Summary of a query-output distribution at one parameter point.
#[derive(Debug, Clone)]
pub struct OutputMetrics {
    moments: Moments,
    samples: Samples,
}

impl PartialEq for OutputMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.moments == other.moments && self.samples() == other.samples()
    }
}

impl OutputMetrics {
    /// Sample vectors per lane-interleaved pass of [`Self::from_sample_batch`].
    /// Over 2000 × 1000 samples on a 2-core x86-64 host, one lane took
    /// 12.4 ms, 4 lanes 3.8 ms and 8 lanes 3.7–5.2 ms; 4 also leaves the
    /// smaller remainder.
    pub const LANES: usize = 4;

    /// Build from i.i.d. samples of the output distribution.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        let moments = Moments::from_slice(&samples);
        OutputMetrics { moments, samples: Samples::Owned(Arc::new(samples)) }
    }

    /// [`Self::from_samples`] for every vector, bit for bit, in order. Each
    /// run of [`Self::LANES`] equal-length vectors shares one
    /// [`Moments::from_slices`] pass; the rest go one at a time.
    pub fn from_sample_batch(samples: Vec<Vec<f64>>) -> Vec<OutputMetrics> {
        let mut moments = Vec::with_capacity(samples.len());
        let mut groups = samples.chunks_exact(Self::LANES);
        for g in &mut groups {
            if g.iter().all(|v| v.len() == g[0].len()) {
                let lanes: [&[f64]; Self::LANES] = std::array::from_fn(|l| g[l].as_slice());
                moments.extend(Moments::from_slices(lanes));
            } else {
                moments.extend(g.iter().map(|v| Moments::from_slice(v)));
            }
        }
        moments.extend(groups.remainder().iter().map(|v| Moments::from_slice(v)));
        samples
            .into_iter()
            .zip(moments)
            .map(|(v, moments)| OutputMetrics { moments, samples: Samples::Owned(Arc::new(v)) })
            .collect()
    }

    /// Number of Monte Carlo samples summarized.
    pub fn n(&self) -> usize {
        self.samples.buffer().len()
    }

    /// The sample vector. For mapped metrics the first call computes it
    /// from the basis's samples; later calls return the cached vector.
    pub fn samples(&self) -> &[f64] {
        match &self.samples {
            Samples::Owned(v) => v,
            Samples::Mapped { base, a, b, cache } => cache.get_or_init(|| map_all(base, *a, *b)),
        }
    }

    /// True when both read their samples from the same buffer — a mapped
    /// result and its basis, or a basis and the fresh point that built it.
    pub fn shares_samples_with(&self, other: &OutputMetrics) -> bool {
        Arc::ptr_eq(self.samples.buffer(), other.samples.buffer())
    }

    /// Streaming moments.
    pub fn moments(&self) -> &Moments {
        &self.moments
    }

    /// `EXPECT` — the sample mean.
    pub fn expectation(&self) -> f64 {
        self.moments.mean()
    }

    /// `EXPECT_STDDEV` — the sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.moments.sd()
    }

    /// Minimum observed value.
    pub fn min(&self) -> f64 {
        self.moments.min()
    }

    /// Maximum observed value.
    pub fn max(&self) -> f64 {
        self.moments.max()
    }

    /// Empirical `P(X > t)`; NaN when there are no samples or any sample
    /// is NaN. Mapped metrics count straight off the basis's samples.
    pub fn prob_over(&self, t: f64) -> f64 {
        match &self.samples {
            Samples::Owned(v) => share_over(v.iter().copied(), t),
            Samples::Mapped { base, a, b, .. } => share_over(base.iter().map(|x| a * x + b), t),
        }
    }

    /// Empirical `q`-quantile; NaN when there are no samples or any sample
    /// is NaN.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(self.samples(), q)
    }

    /// Equi-width histogram of the samples.
    pub fn histogram(&self, bins: usize) -> Histogram {
        Histogram::from_data(self.samples(), bins)
    }

    /// A CLT-style two-sided bound on the *true mean*: `mean ± z·sd/√n`.
    ///
    /// Returns `None` when no bound can be stated — zero samples (callers
    /// map this to a typed error; NaN must never cross the wire), or a NaN
    /// mean/sd. With exactly one sample the spread is unknowable, so the
    /// bound is the honest `(-∞, +∞)`. The interval is *not* clamped to the
    /// observed min/max: the sample range bounds the samples, not the mean.
    pub fn expectation_interval(&self, z: f64) -> Option<(f64, f64)> {
        let n = self.n();
        if n == 0 {
            return None;
        }
        let mean = self.moments.mean();
        if mean.is_nan() {
            return None;
        }
        if n == 1 {
            return Some((f64::NEG_INFINITY, f64::INFINITY));
        }
        let sd = self.moments.sd();
        if sd.is_nan() {
            return None;
        }
        let half = z * sd / (n as f64).sqrt();
        Some((mean - half, mean + half))
    }

    /// Add more samples (progressive refinement in the interactive mode).
    ///
    /// A buffer still shared with mapped results is copied first, so they
    /// keep the values they were mapped from.
    pub fn extend(&mut self, more: &[f64]) {
        let samples = self.samples.make_mut();
        for &x in more {
            self.moments.push(x);
            samples.push(x);
        }
    }

    /// The metrics of `a·X + b` — the paper's `M_est`, applied in closed
    /// form to moments and lazily to the samples. No model invocations are
    /// needed, which is the entire point of basis reuse.
    ///
    /// O(1): the result shares this value's sample buffer. Mapping a value
    /// that is itself mapped computes the composed samples eagerly.
    pub fn affine_image(&self, a: f64, b: f64) -> OutputMetrics {
        let samples = match &self.samples {
            Samples::Owned(v) => {
                Samples::Mapped { base: Arc::clone(v), a, b, cache: OnceLock::new() }
            }
            Samples::Mapped { .. } => Samples::Owned(Arc::new(map_all(self.samples(), a, b))),
        };
        OutputMetrics { moments: self.moments.affine_image(a, b), samples }
    }
}

/// Which scalar metric of a column an optimization goal refers to
/// (`EXPECT overload`, `EXPECT_STDDEV demand`, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// Sample mean.
    Expect,
    /// Sample standard deviation.
    StdDev,
    /// `P(X > t)`.
    ProbOver(f64),
    /// Empirical quantile.
    Quantile(f64),
}

impl Metric {
    /// Extract the metric value.
    pub fn of(&self, m: &OutputMetrics) -> f64 {
        match self {
            Metric::Expect => m.expectation(),
            Metric::StdDev => m.std_dev(),
            Metric::ProbOver(t) => m.prob_over(*t),
            Metric::Quantile(q) => m.quantile(*q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> OutputMetrics {
        OutputMetrics::from_samples(vec![1.0, 2.0, 3.0, 4.0, 5.0])
    }

    #[test]
    fn basic_metrics() {
        let m = metrics();
        assert_eq!(m.n(), 5);
        assert_eq!(m.expectation(), 3.0);
        assert!((m.std_dev() - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 5.0);
        assert_eq!(m.prob_over(3.0), 0.4);
        assert_eq!(m.quantile(0.5), 3.0);
    }

    #[test]
    fn affine_image_matches_recomputation() {
        let m = metrics();
        let t = m.affine_image(2.0, -1.0);
        let direct = OutputMetrics::from_samples(vec![1.0, 3.0, 5.0, 7.0, 9.0]);
        assert!((t.expectation() - direct.expectation()).abs() < 1e-12);
        assert!((t.std_dev() - direct.std_dev()).abs() < 1e-12);
        assert_eq!(t.samples(), direct.samples());
        assert_eq!(t.min(), direct.min());
    }

    #[test]
    fn affine_image_negative_scale() {
        let m = metrics();
        let t = m.affine_image(-1.0, 0.0);
        assert_eq!(t.min(), -5.0);
        assert_eq!(t.max(), -1.0);
        assert!((t.std_dev() - m.std_dev()).abs() < 1e-12);
    }

    #[test]
    fn affine_image_shares_the_buffer_until_extended() {
        let mut basis = metrics();
        let mapped = basis.affine_image(2.0, 1.0);
        assert!(mapped.shares_samples_with(&basis));
        assert_eq!(mapped.prob_over(5.0), 0.6);
        // Refining the basis copies its buffer; the mapped value keeps the
        // samples it was mapped from.
        basis.extend(&[6.0]);
        assert!(!mapped.shares_samples_with(&basis));
        assert_eq!(mapped.samples(), &[3.0, 5.0, 7.0, 9.0, 11.0]);
        assert_eq!(basis.n(), 6);
        // Extending a mapped value materialises it first.
        let mut grown = mapped.clone();
        grown.extend(&[13.0]);
        assert_eq!(grown.samples(), &[3.0, 5.0, 7.0, 9.0, 11.0, 13.0]);
        assert_eq!(grown.expectation(), 8.0);
        assert_eq!(mapped.n(), 5);
    }

    #[test]
    fn extend_updates_all_views() {
        let mut m = metrics();
        m.extend(&[10.0]);
        assert_eq!(m.n(), 6);
        assert_eq!(m.max(), 10.0);
        assert!((m.expectation() - 25.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn metric_enum_dispatch() {
        let m = metrics();
        assert_eq!(Metric::Expect.of(&m), 3.0);
        assert_eq!(Metric::ProbOver(4.0).of(&m), 0.2);
        assert_eq!(Metric::Quantile(0.0).of(&m), 1.0);
        assert!((Metric::StdDev.of(&m) - m.std_dev()).abs() < 1e-12);
    }

    #[test]
    fn histogram_totals() {
        let m = metrics();
        let h = m.histogram(4);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn empty_prob_is_nan() {
        let m = OutputMetrics::from_samples(vec![]);
        assert!(m.prob_over(0.0).is_nan());
    }

    #[test]
    fn nan_samples_make_prob_and_quantile_nan() {
        let m = OutputMetrics::from_samples(vec![1.0, f64::NAN, 3.0, 4.0]);
        assert!(m.prob_over(2.0).is_nan());
        assert!(m.quantile(0.5).is_nan());
        // On the mapped path the mapped value is tested: 0·∞ is NaN.
        let inf = OutputMetrics::from_samples(vec![1.0, f64::INFINITY]);
        assert_eq!(inf.prob_over(0.0), 1.0);
        assert!(inf.affine_image(0.0, 1.0).prob_over(0.0).is_nan());
        assert!(inf.affine_image(0.0, 1.0).quantile(0.0).is_nan());
    }

    #[test]
    fn expectation_interval_empty_is_none() {
        let m = OutputMetrics::from_samples(vec![]);
        assert_eq!(m.expectation_interval(3.0), None);
    }

    #[test]
    fn expectation_interval_single_sample_is_unbounded() {
        let m = OutputMetrics::from_samples(vec![7.0]);
        let (lo, hi) = m.expectation_interval(3.0).unwrap();
        assert_eq!(lo, f64::NEG_INFINITY);
        assert_eq!(hi, f64::INFINITY);
    }

    #[test]
    fn expectation_interval_brackets_mean_and_shrinks() {
        let m = metrics();
        let (lo, hi) = m.expectation_interval(3.0).unwrap();
        assert!(lo < m.expectation() && m.expectation() < hi);
        let half = 3.0 * m.std_dev() / (m.n() as f64).sqrt();
        assert!((hi - lo - 2.0 * half).abs() < 1e-12);
        // More samples of the same distribution tighten the bound.
        let mut big = metrics();
        big.extend(&[1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let (blo, bhi) = big.expectation_interval(3.0).unwrap();
        assert!(bhi - blo < hi - lo);
    }

    #[test]
    fn expectation_interval_constant_samples_is_degenerate() {
        let m = OutputMetrics::from_samples(vec![4.0, 4.0, 4.0]);
        let (lo, hi) = m.expectation_interval(3.0).unwrap();
        assert_eq!(lo, 4.0);
        assert_eq!(hi, 4.0);
    }

    #[test]
    fn expectation_interval_nan_samples_is_none() {
        let m = OutputMetrics::from_samples(vec![1.0, f64::NAN]);
        assert_eq!(m.expectation_interval(3.0), None);
    }
}
