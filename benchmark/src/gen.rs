//! Seeded input generation.
//!
//! `--seed` drives two things: the program's master seed (so Monte Carlo
//! worlds differ per seed) and this generator, which decides *which*
//! requests are sent in *which* order. The generator is the benchmark's own
//! SplitMix64 rather than `jigsaw_prng`, so a change to the program's PRNG
//! layer cannot silently change the load it is measured under.

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state, full period.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A generator for one named stream of one seed. Streams of the same
    /// seed are independent (`stream` is mixed, not added).
    pub fn new(seed: u64, stream: u64) -> Gen {
        let mut g = Gen(seed ^ 0x6A09_E667_F3BC_C909);
        let a = g.next_u64();
        Gen(a ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; the bias at these bounds is
    /// below 2⁻⁵⁰ and irrelevant to load shape).
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Arrival times in `0..horizon` of a Poisson process with the given
    /// mean gap (exponential gaps): independent users do not arrive on a
    /// metronome.
    pub fn poisson_arrivals(&mut self, mean_gap: f64, horizon: f64) -> Vec<f64> {
        let mut at = 0.0;
        let mut out = Vec::new();
        loop {
            at += -mean_gap * self.unit().ln();
            if at >= horizon {
                return out;
            }
            out.push(at);
        }
    }

    /// `n` independent uniform draws from `0..space`.
    pub fn uniform_points(&mut self, n: usize, space: usize) -> Vec<usize> {
        (0..n).map(|_| self.below(space)).collect()
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// FNV-1a over a sequence of words: the identity of a request stream or a
/// result table, cheap enough to fold every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn of(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = Fnv::default();
        for w in words {
            h.push(w);
        }
        h.0
    }
}

/// Hash of a request stream (point indices in send order).
pub fn stream_hash(points: &[usize]) -> u64 {
    Fnv::of(points.iter().map(|&p| p as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a = Gen::new(7, 1).uniform_points(4000, 800);
        let b = Gen::new(7, 1).uniform_points(4000, 800);
        let c = Gen::new(8, 1).uniform_points(4000, 800);
        let d = Gen::new(7, 2).uniform_points(4000, 800);
        assert_eq!(stream_hash(&a), stream_hash(&b));
        assert_ne!(stream_hash(&a), stream_hash(&c));
        assert_ne!(stream_hash(&a), stream_hash(&d), "streams of one seed must differ");
        assert!(a.iter().all(|&p| p < 800));
    }

    #[test]
    fn permutation_is_a_permutation_and_seeded() {
        let p = Gen::new(3, 0).permutation(1000);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        assert_eq!(p, Gen::new(3, 0).permutation(1000));
        assert_ne!(p, Gen::new(4, 0).permutation(1000));
        assert_ne!(p, (0..1000).collect::<Vec<_>>(), "identity permutation is not a shuffle");
    }

    #[test]
    fn poisson_arrivals_are_seeded_ordered_and_have_the_asked_rate() {
        let a = Gen::new(5, 9).poisson_arrivals(2.0, 100_000.0);
        assert_eq!(a, Gen::new(5, 9).poisson_arrivals(2.0, 100_000.0));
        assert_ne!(a, Gen::new(6, 9).poisson_arrivals(2.0, 100_000.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]) && *a.last().unwrap() < 100_000.0);
        // 50 000 expected arrivals; the count's standard deviation is 224.
        assert!((49_000..51_000).contains(&a.len()), "{} arrivals", a.len());
        // Exponential gaps: about 1 − e⁻¹ = 63 % are shorter than the mean.
        let short = a.windows(2).filter(|w| w[1] - w[0] < 2.0).count() as f64 / a.len() as f64;
        assert!((0.61..0.65).contains(&short), "{short}");
    }

    #[test]
    fn uniform_draws_cover_the_space() {
        let pts = Gen::new(11, 0).uniform_points(8000, 800);
        let mut seen = vec![false; 800];
        for p in pts {
            seen[p] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 790);
    }
}
