//! `BlackBox::eval_seeds` against the per-seed `eval` loop it stands for:
//! every model that overrides it, the default loop, and the counting
//! wrapper, at window lengths around the kernel's 64-seed chunk, over a
//! window of a seed table (normals read from the table) and over the same
//! seeds with no table (normals drawn by the kernel).

use std::sync::Arc;

use jigsaw_blackbox::models::{Demand, SynthBasis};
use jigsaw_blackbox::{BlackBox, Counted, FnBlackBox, Workload};
use jigsaw_prng::dist::Normal;
use jigsaw_prng::{Seed, SeedSet, SeedTable, Worlds, Xoshiro256pp};

const LENGTHS: [usize; 6] = [0, 1, 63, 64, 65, 1000];

/// Enough worlds for every length from a non-zero start.
const TABLE_LEN: usize = 1024;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `eval_seeds` over a table window, over a seed-only window of the same
/// seeds, and the `eval` loop agree on every bit; so do a seed-only window
/// of derived (call-site) seeds and its loop.
fn assert_batched_is_the_loop(bb: &dyn BlackBox, params: &[f64], what: &str) {
    let set = SeedSet::new(31);
    let table = SeedTable::new(set, TABLE_LEN);
    for n in LENGTHS {
        let tabled = table.window(5, n);
        let derived: Vec<Seed> = (0..n).map(|k| set.seed(k + 5).derive(3)).collect();
        for (worlds, how) in [
            (tabled, "table"),
            (Worlds::from_seeds(tabled.seeds()), "seeds"),
            (Worlds::from_seeds(&derived), "derived"),
        ] {
            let mut got = vec![f64::NAN; n];
            bb.eval_seeds(params, worlds, &mut got);
            let want: Vec<f64> = worlds.seeds().iter().map(|&s| bb.eval(params, s)).collect();
            assert_eq!(bits(&got), bits(&want), "{what} n={n} {how}");
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
    let table = SeedTable::new(SeedSet::new(8), TABLE_LEN);
    let mut total = 0u64;
    for n in LENGTHS {
        let tabled = table.window(0, n);
        let want: Vec<u64> =
            tabled.seeds().iter().map(|&s| counted.inner().eval(&[4.0], s).to_bits()).collect();
        for worlds in [tabled, Worlds::from_seeds(tabled.seeds())] {
            let mut got = vec![0.0; n];
            let before = counter.get();
            counted.eval_seeds(&[4.0], worlds, &mut got);
            assert_eq!(counter.get() - before, n as u64, "one count per seed at n={n}");
            total += n as u64;
            assert_eq!(bits(&got), want, "n={n}");
        }
    }
    assert_eq!(counter.get(), total);
    // Through `Arc<dyn BlackBox>` the override and the count still apply.
    let shared: Arc<dyn BlackBox> = Arc::new(counted);
    let mut out = [0.0; 10];
    shared.eval_seeds(&[4.0], Worlds::from_seeds(&[Seed(1); 10]), &mut out);
    assert_eq!(counter.get(), total + 10);
    assert_batched_is_the_loop(&*shared, &[4.0], "Counted<SynthBasis> as dyn");
}

#[test]
#[should_panic(expected = "SynthBasis expects [point]")]
fn the_batched_form_keeps_the_arity_check() {
    SynthBasis::new(2).eval_seeds(&[1.0, 2.0], Worlds::from_seeds(&[Seed(0)]), &mut [0.0]);
}

#[test]
#[should_panic(expected = "one output per seed")]
fn a_table_window_keeps_the_length_check() {
    let table = SeedTable::new(SeedSet::new(1), 8);
    Demand::paper().eval_seeds(&[3.0, 1.0], table.window(0, 8), &mut [0.0; 7]);
}
