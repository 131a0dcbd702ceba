//! The lane-interleaved moments kernel and the batch metrics path built on
//! it are bit-identical to the one-at-a-time accumulator, lane by lane:
//! `Moments::from_slices::<L>` against `Moments::from_slice`, and
//! `OutputMetrics::from_sample_batch` against `OutputMetrics::from_samples`.

use jigsaw_pdb::OutputMetrics;
use jigsaw_prng::stats::Moments;
use proptest::collection::vec;
use proptest::prelude::*;

/// Longest lane generated, and the raw pool every case slices lanes from.
const MAX_LEN: usize = 1100;
const POOL: usize = 8 * MAX_LEN;

/// Turn a raw `(selector, x)` draw into a sample. Out of every 65 536
/// selectors, `density` pick a special value (±0, ±∞, NaN, ± subnormal);
/// the rest are ordinary values in [-100, 100).
fn sample((sel, x): (u16, f64), density: u16) -> f64 {
    const SPECIAL: [f64; 7] =
        [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 5e-324, -1e-310];
    if sel < density {
        SPECIAL[sel as usize % SPECIAL.len()]
    } else {
        x
    }
}

/// Special-value densities: none, rare (most long lanes stay finite), and
/// dense.
const DENSITIES: [u16; 4] = [0, 3, 64, 8192];

/// `L` lanes of `len` samples from `pool`; lane `l` is offset by 1e9 when
/// bit `l` of `offsets` is set.
fn lanes<const L: usize>(pool: &[f64], len: usize, offsets: u8) -> [Vec<f64>; L] {
    std::array::from_fn(|l| {
        let shift = if offsets >> l & 1 == 1 { 1e9 } else { 0.0 };
        pool[l * len..(l + 1) * len].iter().map(|x| x + shift).collect()
    })
}

fn assert_moments_bits(got: &Moments, want: &Moments, what: &str) {
    assert_eq!(got.count(), want.count(), "{what}: count");
    assert_eq!(got.mean().to_bits(), want.mean().to_bits(), "{what}: mean");
    assert_eq!(got.variance().to_bits(), want.variance().to_bits(), "{what}: variance");
    assert_eq!(got.min().to_bits(), want.min().to_bits(), "{what}: min");
    assert_eq!(got.max().to_bits(), want.max().to_bits(), "{what}: max");
}

fn check_lanes<const L: usize>(pool: &[f64], len: usize, offsets: u8) {
    let xs = lanes::<L>(pool, len, offsets);
    let got = Moments::from_slices::<L>(std::array::from_fn(|l| xs[l].as_slice()));
    for (l, (g, x)) in got.iter().zip(&xs).enumerate() {
        assert_moments_bits(g, &Moments::from_slice(x), &format!("L={L} len={len} lane {l}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every lane of every width equals the serial accumulator, to the bit.
    #[test]
    fn from_slices_matches_from_slice_lane_by_lane(
        raw in vec((any::<u16>(), -100.0f64..100.0), POOL..POOL + 1),
        density in 0usize..DENSITIES.len(),
        len in prop_oneof![Just(0usize), Just(1usize), 2usize..MAX_LEN + 1],
        offsets in any::<u8>(),
    ) {
        let pool: Vec<f64> = raw.into_iter().map(|r| sample(r, DENSITIES[density])).collect();
        check_lanes::<1>(&pool, len, offsets);
        check_lanes::<2>(&pool, len, offsets);
        check_lanes::<4>(&pool, len, offsets);
        check_lanes::<8>(&pool, len, offsets);
    }

    /// The batch path equals `from_samples` per vector, whatever the vector
    /// count (so also with a remainder that fills no full lane group) and
    /// whether or not a group's lengths agree.
    #[test]
    fn sample_batch_matches_from_samples(
        raw in vec((any::<u16>(), -100.0f64..100.0), POOL..POOL + 1),
        density in 0usize..DENSITIES.len(),
        count in 0usize..11,
        len in prop_oneof![Just(0usize), Just(1usize), 2usize..(POOL / 10)],
        ragged in any::<bool>(),
    ) {
        let pool: Vec<f64> = raw.into_iter().map(|r| sample(r, DENSITIES[density])).collect();
        let vecs: Vec<Vec<f64>> = (0..count)
            .map(|i| {
                let n = if ragged { len.saturating_sub(i % 3) } else { len };
                pool[i * len..i * len + n].to_vec()
            })
            .collect();
        let got = OutputMetrics::from_sample_batch(vecs.clone());
        prop_assert_eq!(got.len(), count);
        for (i, (g, v)) in got.iter().zip(vecs).enumerate() {
            let want = OutputMetrics::from_samples(v);
            let what = format!("vector {i} of {count} (len {len}, ragged {ragged})");
            assert_moments_bits(g.moments(), want.moments(), &what);
            let bits = |m: &OutputMetrics| m.samples().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(g), bits(&want), "{}: samples", what);
            prop_assert_eq!(g.std_dev().to_bits(), want.std_dev().to_bits(), "{}: sd", what);
        }
    }
}
