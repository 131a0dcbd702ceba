//! `BlackBox::eval_seeds` against the per-seed `eval` loop it stands for:
//! every model that overrides it, the default loop, and the counting
//! wrapper, at window lengths around the kernel's 64-seed chunk.

use std::sync::Arc;

use jigsaw_blackbox::models::{Demand, SynthBasis};
use jigsaw_blackbox::{BlackBox, Counted, FnBlackBox, Workload};
use jigsaw_prng::dist::Normal;
use jigsaw_prng::{Seed, SeedSet, Xoshiro256pp};

const LENGTHS: [usize; 6] = [0, 1, 63, 64, 65, 1000];

/// `eval_seeds` and the `eval` loop agree on every bit, for a window of
/// the session's seeds and one of derived (call-site) seeds.
fn assert_batched_is_the_loop(bb: &dyn BlackBox, params: &[f64], what: &str) {
    let set = SeedSet::new(31);
    for n in LENGTHS {
        for derived in [false, true] {
            let seeds: Vec<Seed> = (0..n)
                .map(|k| if derived { set.seed(k + 5).derive(3) } else { set.seed(k + 5) })
                .collect();
            let mut got = vec![f64::NAN; n];
            bb.eval_seeds(params, &seeds, &mut got);
            for (k, (&seed, x)) in seeds.iter().zip(&got).enumerate() {
                let want = bb.eval(params, seed);
                assert_eq!(x.to_bits(), want.to_bits(), "{what} n={n} derived={derived} k={k}");
            }
        }
    }
}

#[test]
fn synth_basis_batches_bit_for_bit() {
    let plain = SynthBasis::new(5);
    let worked = SynthBasis::new(5).with_work(Workload(16));
    // Class 0 is the pure affine normal; classes > 0 add the quadratic
    // shape; later generations add the affine skin.
    for point in [0.0, 5.0, 3.0, 13.0, -2.0] {
        assert_batched_is_the_loop(&plain, &[point], &format!("SynthBasis point {point}"));
        assert_batched_is_the_loop(&worked, &[point], &format!("SynthBasis+work point {point}"));
    }
}

#[test]
fn demand_batches_bit_for_bit() {
    let paper = Demand::paper();
    let worked = Demand::enterprise().with_work(Workload(16));
    // Week before, at and after the feature release; week 0 has no
    // variance, so every world is the mean.
    for params in [[10.0, 36.0], [12.0, 12.0], [40.0, 12.0], [0.0, 5.0]] {
        assert_batched_is_the_loop(&paper, &params, &format!("Demand {params:?}"));
        assert_batched_is_the_loop(&worked, &params, &format!("Demand+work {params:?}"));
    }
}

#[test]
fn closures_take_the_default_loop_bit_for_bit() {
    let ramp = FnBlackBox::new("Ramp", 1, |p: &[f64], seed| {
        let z = Normal::standard(&mut Xoshiro256pp::seeded(seed));
        z + (p[0] + 1.0) * z * z * z
    });
    assert_batched_is_the_loop(&ramp, &[2.0], "FnBlackBox");
}

#[test]
fn counted_forwards_and_counts_one_invocation_per_seed() {
    let counted = Counted::new(SynthBasis::new(3));
    let counter = counted.counter();
    let set = SeedSet::new(8);
    let mut total = 0u64;
    for n in LENGTHS {
        let seeds: Vec<Seed> = (0..n).map(|k| set.seed(k)).collect();
        let mut got = vec![0.0; n];
        let before = counter.get();
        counted.eval_seeds(&[4.0], &seeds, &mut got);
        assert_eq!(counter.get() - before, n as u64, "one count per seed at n={n}");
        total += n as u64;
        let want: Vec<u64> =
            seeds.iter().map(|&s| counted.inner().eval(&[4.0], s).to_bits()).collect();
        assert_eq!(got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want, "n={n}");
    }
    assert_eq!(counter.get(), total);
    // Through `Arc<dyn BlackBox>` the override and the count still apply.
    let shared: Arc<dyn BlackBox> = Arc::new(counted);
    let mut out = [0.0; 10];
    shared.eval_seeds(&[4.0], &[Seed(1); 10], &mut out);
    assert_eq!(counter.get(), total + 10);
    assert_batched_is_the_loop(&*shared, &[4.0], "Counted<SynthBasis> as dyn");
}

#[test]
#[should_panic(expected = "SynthBasis expects [point]")]
fn the_batched_form_keeps_the_arity_check() {
    SynthBasis::new(2).eval_seeds(&[1.0, 2.0], &[Seed(0)], &mut [0.0]);
}
