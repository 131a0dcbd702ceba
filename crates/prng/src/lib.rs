//! # jigsaw-prng — seed-addressable randomness for Jigsaw
//!
//! Jigsaw's fingerprinting technique (Kennedy & Nath, SIGMOD 2011, §3.1)
//! requires that *every* source of randomness inside a stochastic black-box
//! function `F(P, σ)` be driven by a pseudo-random generator seeded with an
//! explicitly supplied seed `σ`. Re-invoking the function with the same seed
//! must reproduce the same draw exactly, and distinct seeds must yield
//! statistically independent streams. This crate provides that substrate:
//!
//! * [`SplitMix64`] — a tiny, fast generator used for seeding and hashing.
//! * [`Xoshiro256pp`] — the workhorse generator backing black-box evaluation.
//! * [`SeedSet`] — the *global seed set* `{σ_k}` the paper fixes at
//!   initialization time and holds constant throughout a session.
//! * [`counter::stream_seed`] — stateless derivation of per-`(instance,
//!   step)` seeds for Markov-chain simulation, so that step *t* of instance
//!   *i* consumes the same randomness no matter how the engine reached it
//!   (simulated stepwise or jumped over, §4).
//! * [`dist`] — the probability distributions used by the paper's model
//!   catalog (normal, exponential, Poisson, gamma, categorical, …), and
//!   [`dist::Normal::standard_seeded`], which draws one standard normal
//!   per seed over a whole window in stages — bit-identical to seeding a
//!   generator per seed and calling [`dist::Normal::standard`], without
//!   one world's `ln` and `cos` waiting on the previous world's.
//! * [`SeedTable`] / [`Worlds`] — the first `L` seeds of a seed set with
//!   each seed's standard normal drawn once, and the window of worlds a
//!   batched black-box call receives: seeds, plus their normals when the
//!   window lies inside a table (see [`worlds`]).
//! * [`stats`] — streaming moments, histograms and goodness-of-fit tests
//!   used by estimators and by this crate's own test suite.
//!
//! The crate is `no_std`-adjacent in spirit (no I/O, no global state) but
//! uses `std` freely.
//!
//! ## Example
//!
//! ```
//! use jigsaw_prng::{SeedSet, Rng, Xoshiro256pp, dist::{Distribution, Normal}};
//!
//! let seeds = SeedSet::new(42);
//! // Fingerprint entry k of a model is computed under seeds.seed(k):
//! let mut rng = Xoshiro256pp::seeded(seeds.seed(0));
//! let n = Normal::new(0.0, 1.0);
//! let x = n.sample(&mut rng);
//! // Re-seeding reproduces the draw exactly.
//! let mut rng2 = Xoshiro256pp::seeded(seeds.seed(0));
//! assert_eq!(x, n.sample(&mut rng2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod dist;
pub mod seed;
pub mod splitmix;
pub mod stats;
pub mod worlds;
pub mod xoshiro;

pub use counter::stream_seed;
pub use seed::{Seed, SeedSet};
pub use splitmix::SplitMix64;
pub use worlds::{SeedTable, Worlds};
pub use xoshiro::Xoshiro256pp;

/// A deterministic pseudo-random generator.
///
/// All Jigsaw randomness flows through this trait. Implementations must be
/// *pure state machines*: the sequence of outputs is a function of the seed
/// alone. That property is what turns correlation between black-box outputs
/// into a deterministic, testable relationship (paper §3.1: "It is crucial
/// for both invocations of F to use the same source of randomness").
pub trait Rng {
    /// Produce the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Produce a `f64` uniform on `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; 2^-53 scaling yields [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Produce a `f64` uniform on the *open* interval `(0, 1)`.
    ///
    /// Useful for inverse-CDF methods that must not evaluate at 0.
    #[inline]
    fn next_open_f64(&mut self) -> f64 {
        loop {
            let x = self.next_f64();
            if x > 0.0 {
                return x;
            }
        }
    }

    /// Produce a uniformly distributed integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    #[inline]
    fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_bounded requires bound > 0");
        // Lemire 2019: Fast Random Integer Generation in an Interval.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Flip a coin that comes up `true` with probability `p`.
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedRng(Vec<u64>, usize);
    impl Rng for FixedRng {
        fn next_u64(&mut self) -> u64 {
            let v = self.0[self.1 % self.0.len()];
            self.1 += 1;
            v
        }
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = FixedRng(vec![0, u64::MAX, 1 << 63, 12345], 0);
        for _ in 0..8 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn next_f64_zero_bits_gives_zero() {
        let mut rng = FixedRng(vec![0], 0);
        assert_eq!(rng.next_f64(), 0.0);
    }

    #[test]
    fn next_f64_max_bits_is_below_one() {
        let mut rng = FixedRng(vec![u64::MAX], 0);
        let x = rng.next_f64();
        assert!(x < 1.0);
        assert!(x > 0.9999999999999998);
    }

    #[test]
    fn next_bounded_respects_bound() {
        let mut rng = Xoshiro256pp::seeded(Seed(7));
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..100 {
                assert!(rng.next_bounded(bound) < bound);
            }
        }
    }

    #[test]
    fn next_bounded_is_roughly_uniform() {
        let mut rng = Xoshiro256pp::seeded(Seed(11));
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.next_bounded(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c} too skewed");
        }
    }

    #[test]
    #[should_panic(expected = "bound > 0")]
    fn next_bounded_zero_panics() {
        let mut rng = Xoshiro256pp::seeded(Seed(1));
        let _ = rng.next_bounded(0);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Xoshiro256pp::seeded(Seed(3));
        for _ in 0..100 {
            assert!(!rng.bernoulli(0.0));
            assert!(rng.bernoulli(1.0));
        }
    }
}
