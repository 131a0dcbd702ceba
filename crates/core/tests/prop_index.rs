//! Property tests for the candidate indexes: completeness over the affine
//! mapping family (the paper's requirement that "the set of fingerprints
//! returned by the index must contain all similar fingerprints"), and for
//! the metrics a matched point gets through its mapping.

use std::sync::Arc;

use jigsaw_core::basis::BasisStore;
use jigsaw_core::{AffineFamily, AffineMap, Fingerprint, IndexStrategy};
use jigsaw_pdb::OutputMetrics;
use jigsaw_prng::stats::{Histogram, Moments};
use proptest::prelude::*;

fn fp_strategy() -> impl Strategy<Value = Vec<f64>> {
    // At least two distinct entries so the fingerprint is non-degenerate;
    // magnitudes kept moderate so quantization effects stay representative.
    proptest::collection::vec(-1000.0f64..1000.0, 4..12)
        .prop_filter("needs distinct entries", |v| v.iter().any(|&x| (x - v[0]).abs() > 1e-6))
}

/// Basis samples for the lazy-mapping property: empty, single, heavy
/// duplicates, infinities mixed in, and plain spread-out draws.
fn samples_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        proptest::collection::vec(-1000.0f64..1000.0, 0..1),
        proptest::collection::vec(-1000.0f64..1000.0, 1..2),
        proptest::collection::vec((0i64..4).prop_map(|k| k as f64 * 0.5), 2..24),
        proptest::collection::vec(
            prop_oneof![-1000.0f64..1000.0, Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
            1..24,
        ),
        proptest::collection::vec(-1000.0f64..1000.0, 2..48),
    ]
}

fn scale_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![-20.0f64..-0.01, Just(0.0), 0.01f64..20.0]
}

/// Reference `P(X > t)` over an eagerly mapped vector.
fn eager_prob_over(xs: &[f64], t: f64) -> f64 {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
        return f64::NAN;
    }
    xs.iter().filter(|&&x| x > t).count() as f64 / xs.len() as f64
}

/// Reference `mean ± z·sd/√n` over reference moments.
fn eager_interval(m: &Moments, z: f64) -> Option<(f64, f64)> {
    let n = m.count() as f64;
    if m.count() == 0 || m.mean().is_nan() {
        return None;
    }
    if m.count() == 1 {
        return Some((f64::NEG_INFINITY, f64::INFINITY));
    }
    if m.sd().is_nan() {
        return None;
    }
    let half = z * m.sd() / n.sqrt();
    Some((m.mean() - half, m.mean() + half))
}

/// Whether `Histogram::from_data` accepts `xs` (it asserts a non-empty,
/// NaN-free input with a non-empty value range).
fn histogram_defined(xs: &[f64]) -> bool {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
        return false;
    }
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if lo == hi {
        lo < lo + 1.0
    } else {
        lo < hi + (hi - lo) * 1e-9
    }
}

fn bits(x: Option<(f64, f64)>) -> Option<(u64, u64)> {
    x.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
}

/// Every observable of `lazy` equals, bit for bit, what the eagerly mapped
/// samples `eager` and the closed-form moments `moments` give.
fn assert_matches_eager(lazy: &OutputMetrics, eager: &[f64], moments: &Moments, qs: &[f64]) {
    let got: Vec<u64> = lazy.samples().iter().map(|x| x.to_bits()).collect();
    let want: Vec<u64> = eager.iter().map(|x| x.to_bits()).collect();
    assert_eq!(got, want, "samples");
    assert_eq!(lazy.n(), eager.len());
    assert_eq!(lazy.expectation().to_bits(), moments.mean().to_bits(), "expectation");
    assert_eq!(lazy.std_dev().to_bits(), moments.sd().to_bits(), "std_dev");
    assert_eq!(lazy.min().to_bits(), moments.min().to_bits(), "min");
    assert_eq!(lazy.max().to_bits(), moments.max().to_bits(), "max");
    assert_eq!(bits(lazy.expectation_interval(3.0)), bits(eager_interval(moments, 3.0)));
    // Thresholds at every mapped sample, between neighbours, and outside.
    let mut sorted: Vec<f64> = eager.iter().copied().filter(|x| !x.is_nan()).collect();
    sorted.sort_by(f64::total_cmp);
    let mids = sorted.windows(2).map(|w| w[0] + (w[1] - w[0]) / 2.0);
    let ts: Vec<f64> =
        sorted.iter().copied().chain(mids).chain([f64::NEG_INFINITY, 0.0, f64::INFINITY]).collect();
    for t in ts {
        let (l, e) = (lazy.prob_over(t), eager_prob_over(eager, t));
        assert_eq!(l.to_bits(), e.to_bits(), "prob_over({t})");
    }
    for &q in qs {
        let want = jigsaw_prng::stats::quantile(eager, q);
        assert_eq!(lazy.quantile(q).to_bits(), want.to_bits(), "quantile({q})");
    }
    if histogram_defined(eager) {
        let (h, want) = (lazy.histogram(8), Histogram::from_data(eager, 8));
        let counts = |h: &Histogram| {
            ((0..h.bins()).map(|i| h.count(i)).collect::<Vec<_>>(), h.underflow(), h.overflow())
        };
        assert_eq!(counts(&h), counts(&want), "histogram(8)");
        assert_eq!(h.total(), want.total());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any affine image of a stored fingerprint must be found again by
    /// every index strategy (no false negatives within the family).
    #[test]
    fn affine_images_are_always_found(
        base in fp_strategy(),
        alpha in prop_oneof![-50.0f64..-0.01, 0.01f64..50.0],
        beta in -100.0f64..100.0,
        strat_pick in 0usize..3,
    ) {
        let strat = [IndexStrategy::Array, IndexStrategy::Normalization, IndexStrategy::SortedSid][strat_pick];
        let mut store = BasisStore::with_strategy(strat, 1e-9, Arc::new(AffineFamily));
        let fp = Fingerprint::new(base.clone());
        let id = store.insert(fp.clone(), OutputMetrics::from_samples(base.clone()));
        let image = AffineMap::new(alpha, beta).apply_fingerprint(&fp);
        let hit = store.find_match(&image);
        prop_assert!(hit.is_some(), "{strat:?} missed an affine image (α={alpha}, β={beta})");
        let (found, map) = hit.unwrap();
        prop_assert_eq!(found, id);
        // The recovered mapping must reproduce the image from the basis.
        for (&x, &y) in base.iter().zip(image.entries()) {
            prop_assert!((map.apply(x) - y).abs() <= 1e-6 * y.abs().max(1.0));
        }
    }

    /// The recovered mapping transports metrics exactly: matching through
    /// the store and mapping the basis's metrics equals computing metrics
    /// on the mapped samples directly.
    #[test]
    fn resolved_metrics_match_direct_computation(
        base in fp_strategy(),
        alpha in prop_oneof![-20.0f64..-0.1, 0.1f64..20.0],
        beta in -50.0f64..50.0,
    ) {
        let mut store =
            BasisStore::with_strategy(IndexStrategy::Normalization, 1e-9, Arc::new(AffineFamily));
        let samples: Vec<f64> = base.iter().map(|x| x * 1.5).collect();
        store.insert(Fingerprint::new(base.clone()), OutputMetrics::from_samples(samples.clone()));
        let image = AffineMap::new(alpha, beta).apply_fingerprint(&Fingerprint::new(base));
        let (id, map) = store.find_match(&image).expect("hit");
        let metrics = map.apply_metrics(&store.get(id).metrics);
        let direct = OutputMetrics::from_samples(
            samples.iter().map(|x| alpha * x + beta).collect(),
        );
        prop_assert!((metrics.expectation() - direct.expectation()).abs()
            <= 1e-6 * direct.expectation().abs().max(1.0));
        prop_assert!((metrics.std_dev() - direct.std_dev()).abs()
            <= 1e-6 * direct.std_dev().abs().max(1.0));
    }

    /// Identity round trip: a fingerprint always matches itself with the
    /// identity mapping, under every strategy.
    #[test]
    fn self_match_is_identity(base in fp_strategy(), strat_pick in 0usize..3) {
        let strat = [IndexStrategy::Array, IndexStrategy::Normalization, IndexStrategy::SortedSid][strat_pick];
        let mut store = BasisStore::with_strategy(strat, 1e-9, Arc::new(AffineFamily));
        let fp = Fingerprint::new(base.clone());
        store.insert(fp.clone(), OutputMetrics::from_samples(base));
        let (_, map) = store.find_match(&fp).expect("self match");
        prop_assert!(map.is_identity(1e-9));
    }

    /// A mapped result shares its basis's samples and maps them on read;
    /// every observable equals the eagerly mapped form bit for bit,
    /// including a mapped value mapped again.
    #[test]
    fn lazily_mapped_metrics_equal_eager_bit_for_bit(
        samples in samples_strategy(),
        a in scale_strategy(),
        b in -50.0f64..50.0,
        a2 in scale_strategy(),
        b2 in -50.0f64..50.0,
        q in 0.0f64..1.0,
    ) {
        let qs = [0.0, 0.25, 0.5, 0.9, 1.0, q];
        let basis = OutputMetrics::from_samples(samples.clone());
        let mapped = AffineMap::new(a, b).apply_metrics(&basis);
        prop_assert!(mapped.shares_samples_with(&basis));
        let eager: Vec<f64> = samples.iter().map(|x| a * x + b).collect();
        let moments = Moments::from_slice(&samples).affine_image(a, b);
        assert_matches_eager(&mapped, &eager, &moments, &qs);

        let twice = mapped.affine_image(a2, b2);
        let eager2: Vec<f64> = eager.iter().map(|x| a2 * x + b2).collect();
        assert_matches_eager(&twice, &eager2, &moments.affine_image(a2, b2), &qs);
        // Mapping a mapped value whose samples were never read agrees too.
        let fresh = basis.affine_image(a, b).affine_image(a2, b2);
        prop_assert_eq!(
            fresh.samples().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            eager2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
}
