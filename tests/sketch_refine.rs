//! Determinism and degeneracy of the sketch-then-refine sweep.
//!
//! The pruning rule is a pure function of (config, coarse results), and
//! both passes run the batch-synchronous wave executor — so per (config,
//! seed) the surviving frontier, the final tables, and the deterministic
//! counters must be bit-identical across thread counts, wave sizes, and
//! pool backends; and a frontier wide enough to keep every point must
//! reproduce the exhaustive sweep bit for bit.

use std::sync::Arc;

use jigsaw::blackbox::models::{Demand, SynthBasis};
use jigsaw::blackbox::{BlackBox, ParamDecl, ParamSpace};
use jigsaw::core::{JigsawConfig, ScopedPool, SweepRunner};
use jigsaw::pdb::BlackBoxSim;
use jigsaw::prng::SeedSet;
use proptest::prelude::*;

mod common;
use common::assert_bit_identical;

/// Reuse-hostile model: a distinct cubic shape at every point, so the
/// sketch pass builds one coarse basis per point and pruning decisions
/// exercise real frontiers instead of a single shared basis.
struct NoReuse;
impl BlackBox for NoReuse {
    fn name(&self) -> &str {
        "NoReuse"
    }
    fn arity(&self) -> usize {
        1
    }
    fn eval(&self, p: &[f64], seed: jigsaw::prng::Seed) -> f64 {
        use jigsaw::prng::{dist::Normal, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seeded(seed);
        let z = Normal::standard(&mut rng);
        p[0] * 0.02 + z + (1.0 + p[0]) * z * z * z * 0.05
    }
}

fn frontier(result: &jigsaw::core::SweepResult) -> Vec<usize> {
    result.points.iter().filter(|p| !p.coarse).map(|p| p.point_idx).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (config, seed) → identical surviving frontier and identical final
    /// tables across threads 1/4, wave sizes, and the persistent pool every
    /// runner builds vs the scoped reference pool.
    #[test]
    fn sketch_sweep_identical_across_threads_waves_and_pools(
        master in 0u64..500,
        points in 20i64..60,
        budget_pick in 0usize..3,
        top_k in 1usize..6,
    ) {
        let budget = [10usize, 20, 40][budget_pick];
        let space = ParamSpace::new(vec![ParamDecl::range("p", 0, points - 1, 1)]);
        let sim = BlackBoxSim::new(Arc::new(NoReuse), space, SeedSet::new(master));
        let cfg = JigsawConfig::paper().with_n_samples(80).with_sketch(budget, top_k);
        let base = SweepRunner::new(cfg.clone().with_threads(1)).run(&sim).unwrap();
        prop_assert!(base.stats.refined_points >= 1);
        prop_assert_eq!(
            base.stats.refined_points + base.stats.pruned_points,
            base.stats.points
        );
        for threads in [2usize, 4] {
            let r = SweepRunner::new(cfg.clone().with_threads(threads)).run(&sim).unwrap();
            assert_bit_identical(&base, &r, &format!("sketch threads={threads}"));
            prop_assert_eq!(frontier(&base), frontier(&r));
        }
        for wave in [1usize, 7, 64] {
            let r = SweepRunner::new(cfg.clone().with_threads(4).with_wave_size(wave))
                .run(&sim)
                .unwrap();
            assert_bit_identical(&base, &r, &format!("sketch wave={wave}"));
        }
        let scoped = SweepRunner::new(cfg.clone().with_threads(4))
            .pool(Arc::new(ScopedPool))
            .run(&sim)
            .unwrap();
        assert_bit_identical(&base, &scoped, "sketch scoped pool");
        prop_assert_eq!(frontier(&base), frontier(&scoped));
    }

    /// Mixed reuse-friendly model: sketch determinism holds when coarse
    /// bases collapse onto a handful of shared shapes too.
    #[test]
    fn sketch_sweep_on_reusable_model_is_pool_invariant(
        master in 0u64..500,
        n_bases in 1usize..6,
    ) {
        let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 39, 1)]);
        let sim = BlackBoxSim::new(Arc::new(SynthBasis::new(n_bases)), space, SeedSet::new(master));
        let cfg = JigsawConfig::paper().with_n_samples(60).with_sketch(20, 2);
        let base = SweepRunner::new(cfg.clone().with_threads(1)).run(&sim).unwrap();
        let par = SweepRunner::new(cfg.clone().with_threads(4))
            .pool(Arc::new(ScopedPool))
            .run(&sim)
            .unwrap();
        assert_bit_identical(&base, &par, &format!("SynthBasis({n_bases}) sketch"));
    }
}

/// `refine_top_k >= |space|` keeps every point: the refine pass replays the
/// exhaustive sweep bit for bit — points, basis sets, store ledger, and
/// (because `sketch_budget == fingerprint_len` makes the cached heads cover
/// all coarse work) even the total world count.
#[test]
fn wide_frontier_degenerates_to_exhaustive_bit_for_bit() {
    let space = ParamSpace::new(vec![
        ParamDecl::range("week", 0, 19, 1),
        ParamDecl::set("feature", vec![5, 12]),
    ]);
    let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(2024));
    let cfg = JigsawConfig::paper().with_n_samples(100);
    let exhaustive = SweepRunner::new(cfg.clone()).run(&sim).unwrap();
    let degenerate = SweepRunner::new(cfg.with_sketch(10, usize::MAX)).run(&sim).unwrap();
    assert_eq!(exhaustive.points.len(), degenerate.points.len());
    for (e, d) in exhaustive.points.iter().zip(&degenerate.points) {
        assert_eq!(e, d, "point {} diverged from exhaustive", e.point_idx);
    }
    let (e, d) = (&exhaustive.stats, &degenerate.stats);
    assert_eq!(e.full_simulations, d.full_simulations);
    assert_eq!(e.reused, d.reused);
    assert_eq!(e.warm_hits, d.warm_hits);
    assert_eq!(e.bases_per_column, d.bases_per_column);
    assert_eq!(e.pairings_tested, d.pairings_tested);
    assert_eq!(e.worlds_evaluated, d.worlds_evaluated);
    assert_eq!(d.refined_points, d.points);
    assert_eq!(d.pruned_points, 0);
}
