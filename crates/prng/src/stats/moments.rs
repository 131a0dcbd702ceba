//! Streaming (Welford) moment accumulation.

/// Numerically stable streaming accumulator for count / mean / variance /
/// min / max.
///
/// Uses Welford's online algorithm; two accumulators can be merged with
/// [`Moments::merge`] (Chan et al. parallel variant), which the PDB uses to
/// combine per-thread partial aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Moments { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Accumulate every element of a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut m = Moments::new();
        for &x in xs {
            m.push(x);
        }
        m
    }

    /// Accumulate `L` equal-length slices at once, one accumulator per lane.
    ///
    /// Lane `l` performs exactly [`Moments::push`]'s IEEE operations over
    /// `xs[l]` in the same order, so its result is bit-identical to
    /// `from_slice(xs[l])`. The lanes share the count and are otherwise
    /// independent chains: interleaving them lets the hardware overlap the
    /// per-sample division that serializes a single accumulator.
    #[allow(clippy::needless_range_loop)] // the lanes advance in lockstep
    pub fn from_slices<const L: usize>(xs: [&[f64]; L]) -> [Moments; L] {
        let len = xs.first().map_or(0, |x| x.len());
        assert!(xs.iter().all(|x| x.len() == len), "lanes must have equal lengths");
        let mut mean = [0.0; L];
        let mut m2 = [0.0; L];
        let mut min = [f64::INFINITY; L];
        let mut max = [f64::NEG_INFINITY; L];
        for i in 0..len {
            let n = (i + 1) as u64 as f64;
            for l in 0..L {
                let x = xs[l][i];
                let delta = x - mean[l];
                mean[l] += delta / n;
                m2[l] += delta * (x - mean[l]);
                min[l] = min[l].min(x);
                max[l] = max[l].max(x);
            }
        }
        std::array::from_fn(|l| Moments {
            n: len as u64,
            mean: mean[l],
            m2: m2[l],
            min: min[l],
            max: max[l],
        })
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population variance (`NaN` when empty).
    pub fn variance_population(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Apply the affine transform `x ↦ a·x + b` to the *distribution* these
    /// moments summarize, in closed form.
    ///
    /// This is the `M_est` of the paper (§3): when fingerprints prove
    /// `F(P_j) = a·F(P_i) + b`, the metrics of `F(P_j)` are derived from the
    /// metrics of `F(P_i)` without any further sampling.
    pub fn affine_image(&self, a: f64, b: f64) -> Moments {
        let (lo, hi) = if a >= 0.0 {
            (a * self.min + b, a * self.max + b)
        } else {
            (a * self.max + b, a * self.min + b)
        };
        Moments {
            n: self.n,
            mean: a * self.mean + b,
            m2: a * a * self.m2,
            min: if self.n == 0 { f64::INFINITY } else { lo },
            max: if self.n == 0 { f64::NEG_INFINITY } else { hi },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_batch_formulas() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let m = Moments::from_slice(&xs);
        assert_eq!(m.count(), 5);
        assert!((m.mean() - 4.0).abs() < 1e-12);
        assert!((m.variance() - 12.5).abs() < 1e-12);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 10.0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let xs = [1.0, 5.0, 2.0];
        let ys = [9.0, -4.0, 0.5, 3.0];
        let mut a = Moments::from_slice(&xs);
        let b = Moments::from_slice(&ys);
        a.merge(&b);
        let all: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        let want = Moments::from_slice(&all);
        assert_eq!(a.count(), want.count());
        assert!((a.mean() - want.mean()).abs() < 1e-12);
        assert!((a.variance() - want.variance()).abs() < 1e-12);
        assert_eq!(a.min(), want.min());
        assert_eq!(a.max(), want.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Moments::from_slice(&[1.0, 2.0]);
        let before = a;
        a.merge(&Moments::new());
        assert_eq!(a, before);
        let mut e = Moments::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn affine_image_positive_scale() {
        let m = Moments::from_slice(&[1.0, 2.0, 3.0]);
        let t = m.affine_image(2.0, 5.0);
        let direct = Moments::from_slice(&[7.0, 9.0, 11.0]);
        assert!((t.mean() - direct.mean()).abs() < 1e-12);
        assert!((t.variance() - direct.variance()).abs() < 1e-12);
        assert_eq!(t.min(), direct.min());
        assert_eq!(t.max(), direct.max());
    }

    #[test]
    fn affine_image_negative_scale_swaps_extremes() {
        let m = Moments::from_slice(&[1.0, 3.0]);
        let t = m.affine_image(-1.0, 0.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.max(), -1.0);
        assert!((t.sd() - m.sd()).abs() < 1e-12, "sd must be |a|·sd");
    }

    #[test]
    fn single_observation_variance_is_nan() {
        let m = Moments::from_slice(&[42.0]);
        assert!(m.variance().is_nan());
        assert_eq!(m.mean(), 42.0);
    }

    #[test]
    fn numerical_stability_large_offset() {
        // Classic catastrophic-cancellation scenario for naive sum-of-squares.
        let base = 1e9;
        let xs: Vec<f64> = (0..1000).map(|i| base + (i % 10) as f64).collect();
        let m = Moments::from_slice(&xs);
        let naive_var = 8.258258258258258; // var of {0..9} pattern, n-1 denom
        assert!(
            (m.variance() - naive_var).abs() < 1e-6,
            "variance {} lost precision",
            m.variance()
        );
    }
}
