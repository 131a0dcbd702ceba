//! Determinism under parallelism: the batch-synchronous executor must give
//! bit-identical sweeps — points, metrics, `reused_from`, basis sets, and
//! deterministic telemetry counters — for every thread budget and with
//! tracing on or off, and the unified world-evaluation entry point must
//! equal the serial path for awkward window splits.

use std::sync::Arc;

use jigsaw::blackbox::models::{Demand, SynthBasis};
use jigsaw::blackbox::{ParamDecl, ParamSpace};
use jigsaw::core::{JigsawConfig, SweepRunner};
use jigsaw::pdb::{eval_worlds, BlackBoxSim, Simulation};
use jigsaw::prng::SeedSet;
use proptest::prelude::*;

mod common;
use common::assert_bit_identical;

const THREAD_LADDER: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn demand_sweep_identical_across_thread_ladder(
        master in 0u64..500,
        weeks in 8i64..24,
        wave_pick in 0usize..4,
    ) {
        let wave = [0usize, 1, 5, 64][wave_pick];
        let space = ParamSpace::new(vec![
            ParamDecl::range("week", 0, weeks, 1),
            ParamDecl::set("feature", vec![5, 12]),
        ]);
        let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(master));
        let cfg = JigsawConfig::paper().with_n_samples(80).with_wave_size(wave);
        let base = SweepRunner::new(cfg.clone().with_threads(1)).run(&sim).unwrap();
        for threads in THREAD_LADDER {
            let r = SweepRunner::new(cfg.clone().with_threads(threads)).run(&sim).unwrap();
            assert_bit_identical(&base, &r, &format!("Demand threads={threads} wave={wave}"));
        }
    }

    #[test]
    fn synth_basis_sweep_identical_across_thread_ladder(
        master in 0u64..500,
        n_bases in 1usize..8,
    ) {
        let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 39, 1)]);
        let sim = BlackBoxSim::new(
            Arc::new(SynthBasis::new(n_bases)),
            space,
            SeedSet::new(master),
        );
        let cfg = JigsawConfig::paper().with_n_samples(60);
        let base = SweepRunner::new(cfg.clone().with_threads(1)).run(&sim).unwrap();
        prop_assert_eq!(base.stats.bases_per_column[0], n_bases);
        for threads in THREAD_LADDER {
            let r = SweepRunner::new(cfg.clone().with_threads(threads)).run(&sim).unwrap();
            assert_bit_identical(&base, &r, &format!("SynthBasis threads={threads}"));
        }
    }

    #[test]
    fn world_windows_equal_serial_for_awkward_splits(
        master in 0u64..500,
        start in 0usize..50,
        count in 0usize..40,
        threads in 1usize..16,
    ) {
        let space = ParamSpace::new(vec![ParamDecl::range("week", 0, 9, 1)]);
        let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(master));
        let point = [3.0, 5.0];
        let serial = sim.eval_worlds(&point, start, count).unwrap();
        let par = eval_worlds(&sim, &point, start, count, threads).unwrap();
        prop_assert_eq!(serial, par);
    }
}

#[test]
fn window_edge_cases_match_serial() {
    let space = ParamSpace::new(vec![ParamDecl::range("week", 0, 9, 1)]);
    let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(7));
    let point = [2.0, 5.0];
    // count == 0: empty columns, no worker spawned.
    let empty = eval_worlds(&sim, &point, 4, 0, 8).unwrap();
    assert!(empty[0].is_empty());
    // count < threads: budget clamps to one world per thread.
    let serial = sim.eval_worlds(&point, 0, 3).unwrap();
    assert_eq!(eval_worlds(&sim, &point, 0, 3, 64).unwrap(), serial);
}

#[test]
fn naive_runner_identical_across_threads() {
    let space = ParamSpace::new(vec![
        ParamDecl::range("week", 0, 14, 1),
        ParamDecl::set("feature", vec![5]),
    ]);
    let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(3));
    let cfg = JigsawConfig::paper().with_n_samples(50);
    let base = SweepRunner::naive(cfg.clone().with_threads(1)).run(&sim).unwrap();
    for threads in THREAD_LADDER {
        let r = SweepRunner::naive(cfg.clone().with_threads(threads)).run(&sim).unwrap();
        assert_bit_identical(&base, &r, &format!("naive threads={threads}"));
    }
}

#[test]
fn tracing_does_not_change_a_sweep() {
    let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 39, 1)]);
    let sim = BlackBoxSim::new(Arc::new(SynthBasis::new(4)), space, SeedSet::new(11));
    let mut runner = SweepRunner::new(JigsawConfig::paper().with_n_samples(60).with_threads(2));
    let quiet = runner.run(&sim).unwrap();
    jigsaw::obs::set_trace_ring_only(true);
    let traced = runner.run(&sim);
    let spans = jigsaw::obs::recent_spans();
    // Off, with the sink still off: a span another test opened while the
    // ring was on must not reach stderr when it closes.
    jigsaw::obs::set_trace_ring_only(false);
    let traced = traced.unwrap();
    assert_eq!(quiet.points, traced.points);
    assert_eq!(quiet.stats.counters(), traced.stats.counters());
    assert!(
        spans.iter().any(|s| s.name == "wave.fingerprint"),
        "the traced sweep leaves its wave spans in the ring"
    );
}
