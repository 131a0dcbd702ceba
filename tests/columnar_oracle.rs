//! Columnar-vs-oracle bit-identity — the acceptance property of the
//! columnar world-evaluation path.
//!
//! The columnar kernels are a *layout* change, never a different
//! computation: they perform the same floating-point operations in the
//! same order as the per-world oracle loops. These tests pin that claim
//! over every axis that could break it: simulation shape (black box vs
//! both plan engines, det/stoch columns, stochastic filters, every
//! aggregate, and every shape the `repro` experiments build), thread
//! budget, window offset, and explicit evaluation path. Production only
//! ever runs the columnar path, so this file is where the oracle earns its
//! keep. Equality is always on `f64::to_bits` — `Vec<f64>` `==` would
//! falsely reject worlds where a stochastic filter drops every row (the
//! Min/Max/Avg of an empty world is NaN, identically, on both paths).

use std::sync::Arc;

use jigsaw::blackbox::models::{Capacity, Demand, MarkovStep, Overload, SynthBasis};
use jigsaw::blackbox::{BlackBox, FnBlackBox, MarkovModel, ParamDecl, ParamSpace};
use jigsaw::pdb::{
    eval_batch_on, AggFunc, AggSpec, BinOp, BlackBoxSim, Catalog, CmpOp, ColumnType, DbmsEngine,
    DirectEngine, Engine, EvalPath, Expr, Plan, PlanSim, Simulation, TableBuilder, Value,
};
use jigsaw::prng::dist::Normal;
use jigsaw::prng::{SeedSet, Xoshiro256pp};
use proptest::prelude::*;

/// Thread budgets every comparison runs under (1 = sequential reference;
/// 16 exceeds the window size in many cases, exercising the clamp).
const BUDGETS: [usize; 5] = [1, 2, 4, 8, 16];

/// A stochastic black box: affine-in-`p` mean and spread over a shared
/// standard normal draw.
fn bb_sim(master: u64) -> BlackBoxSim {
    let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 19, 1)]);
    let bb = FnBlackBox::new("F", 1, |p: &[f64], seed| {
        let mut rng = Xoshiro256pp::seeded(seed);
        let z = Normal::standard(&mut rng);
        (1.5 + 0.25 * p[0]) + (0.5 + 0.1 * p[0]) * z
    });
    BlackBoxSim::new(Arc::new(bb), space, SeedSet::new(master))
}

/// The `items` table: one row per weight (`id` and `grp` ride along
/// unread).
fn plan_catalog(weights: &[f64]) -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.add_function(Arc::new(FnBlackBox::new("Noise", 1, |p: &[f64], seed| {
        let mut rng = Xoshiro256pp::seeded(seed);
        p[0] + Normal::standard(&mut rng)
    })));
    let mut items = TableBuilder::new()
        .column("id", ColumnType::Int)
        .column("grp", ColumnType::Int)
        .column("w", ColumnType::Float);
    for (i, &w) in weights.iter().enumerate() {
        items =
            items.row(vec![Value::Int(i as i64 + 1), Value::Int(i as i64 / 2), Value::Float(w)]);
    }
    c.add_table("items", items.build());
    Arc::new(c)
}

/// [`plan_sim_over`] on four rows, filtered at 6.
fn plan_sim(engine: Arc<dyn Engine>, master: u64) -> PlanSim {
    plan_sim_over(engine, master, &[1.0, 2.0, 3.0, 4.0], 6.0)
}

/// A plan hitting every columnar kernel: a black-box call with a mixed
/// det/stoch argument, arithmetic and comparison over stochastic columns,
/// a *stochastic* filter (per-world presence masks, keeping `noisy < cut`),
/// and all five aggregate functions over both masked and unmasked operands.
fn plan_sim_over(engine: Arc<dyn Engine>, master: u64, weights: &[f64], cut: f64) -> PlanSim {
    let cat = plan_catalog(weights);
    let space = ParamSpace::new(vec![ParamDecl::range("x", 0, 3, 1)]);
    let plan = Plan::Scan { table: "items".into() }
        .project(vec![
            (
                "noisy",
                Expr::call("Noise", vec![Expr::bin(BinOp::Add, Expr::col("w"), Expr::param("x"))]),
            ),
            ("w", Expr::col("w")),
        ])
        .project(vec![
            ("noisy", Expr::col("noisy")),
            ("scaled", Expr::bin(BinOp::Mul, Expr::col("noisy"), Expr::lit_f(1.5))),
            ("hot", Expr::cmp(CmpOp::Gt, Expr::col("noisy"), Expr::col("w"))),
        ])
        .filter(Expr::cmp(CmpOp::Lt, Expr::col("noisy"), Expr::lit_f(cut)))
        .aggregate(
            vec![],
            vec![
                AggSpec {
                    name: "total".into(),
                    func: AggFunc::Sum,
                    arg: Some(Expr::col("scaled")),
                },
                AggSpec { name: "lo".into(), func: AggFunc::Min, arg: Some(Expr::col("noisy")) },
                AggSpec { name: "hi".into(), func: AggFunc::Max, arg: Some(Expr::col("noisy")) },
                AggSpec { name: "mean".into(), func: AggFunc::Avg, arg: Some(Expr::col("noisy")) },
                AggSpec { name: "hots".into(), func: AggFunc::Sum, arg: Some(Expr::col("hot")) },
                AggSpec { name: "n".into(), func: AggFunc::Count, arg: None },
            ],
        )
        .bind(&cat, &["x".to_string()])
        .unwrap();
    PlanSim::new(engine, plan, cat, space, SeedSet::new(master))
}

/// Bit patterns of every world in every column — the equality that treats
/// NaN as equal to itself (same bits) and nothing else.
fn bits(columns: &[Vec<f64>]) -> Vec<Vec<u64>> {
    columns.iter().map(|col| col.iter().map(|x| x.to_bits()).collect()).collect()
}

/// Both explicit paths at every budget must reproduce the sequential
/// per-world oracle bit-for-bit — and windows must compose: `[start, mid)`
/// stitched with `[mid, start+count)` equals `[start, start+count)`.
fn assert_paths_agree(sim: &dyn Simulation, point: &[f64], start: usize, count: usize) {
    let oracle = bits(&sim.eval_worlds(point, start, count).expect("oracle evaluates"));
    for &threads in &BUDGETS {
        for path in [EvalPath::Columnar, EvalPath::Oracle] {
            let batch = eval_batch_on(sim, point, start, count, threads, path)
                .unwrap_or_else(|e| panic!("threads={threads} {path:?}: {e}"));
            assert_eq!(batch.n_worlds(), count, "threads={threads} {path:?}");
            assert_eq!(
                bits(batch.columns()),
                oracle,
                "threads={threads} {path:?} start={start} count={count}"
            );
        }
    }
    let mid = count / 2;
    let mut stitched = eval_batch_on(sim, point, start, mid, 1, EvalPath::Columnar).unwrap();
    stitched.extend(
        eval_batch_on(sim, point, start + mid, count - mid, 1, EvalPath::Columnar).unwrap(),
    );
    assert_eq!(bits(stitched.columns()), oracle, "window composition start={start} count={count}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn black_box_columnar_matches_oracle(
        master in 0u64..500,
        point in 0.0f64..19.0,
        start in 0usize..40,
        count in 0usize..70,
    ) {
        let sim = bb_sim(master);
        assert_paths_agree(&sim, &[point.floor()], start, count);
    }

    #[test]
    fn plan_columnar_matches_oracle_on_both_engines(
        master in 0u64..200,
        x in 0i64..4,
        start in 0usize..20,
        count in 0usize..33,
    ) {
        let direct = plan_sim(Arc::new(DirectEngine::new()), master);
        let dbms = plan_sim(Arc::new(DbmsEngine::new()), master);
        let point = [x as f64];
        assert_paths_agree(&direct, &point, start, count);
        assert_paths_agree(&dbms, &point, start, count);
        // And the engines agree with each other, as ever.
        let a = bits(&direct.eval_worlds(&point, start, count).unwrap());
        let b = bits(&dbms.eval_worlds(&point, start, count).unwrap());
        prop_assert_eq!(a, b, "engines diverged");
    }
}

/// A paper model as the one-column black-box simulation the sweep
/// experiments build.
fn model_sim(bb: impl BlackBox + 'static, decls: Vec<ParamDecl>) -> Box<dyn Simulation> {
    Box::new(BlackBoxSim::new(Arc::new(bb), ParamSpace::new(decls), SeedSet::new(11)))
}

/// E1's data-bound `UserSelect` query: a per-user black box over the
/// `users` table, summed per world.
fn user_select_sim(engine: Arc<dyn Engine>) -> Box<dyn Simulation> {
    let cat = Arc::new(jigsaw_bench::experiments::user_catalog(40));
    let plan = Plan::Scan { table: "users".into() }
        .project(vec![(
            "req",
            Expr::call(
                "UserReq",
                vec![
                    Expr::col("id"),
                    Expr::col("base"),
                    Expr::col("growth"),
                    Expr::col("shape"),
                    Expr::param("week"),
                ],
            ),
        )])
        .aggregate(
            vec![],
            vec![AggSpec { name: "total".into(), func: AggFunc::Sum, arg: Some(Expr::col("req")) }],
        )
        .bind(&cat, &["week".to_string()])
        .unwrap();
    let space = ParamSpace::new(vec![ParamDecl::range("week", 0, 51, 1)]);
    Box::new(PlanSim::new(engine, plan, cat, space, SeedSet::new(11)))
}

/// The fixed corner cases proptest ranges can miss — empty windows, a
/// one-world window, a budget far above the window size — on every
/// simulation shape: the proptest inputs, each paper model as the black box
/// the sweep experiments build (`MarkovStep`'s per-step output included),
/// and E1's data-bound `UserSelect` plan and a plan-heavy every-kernel plan
/// over a 24-row table, on both engines.
#[test]
fn corner_windows_agree_everywhere() {
    let week = || ParamDecl::range("week", 0, 51, 1);
    let purchase = |name| ParamDecl::range(name, 0, 48, 4);
    let markov = MarkovStep::enterprise();
    let items: Vec<f64> = (0..24).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
    let sims: Vec<Box<dyn Simulation>> = vec![
        Box::new(bb_sim(21)),
        Box::new(plan_sim(Arc::new(DirectEngine::new()), 21)),
        Box::new(plan_sim(Arc::new(DbmsEngine::new()), 21)),
        model_sim(Demand::enterprise(), vec![week(), purchase("feature")]),
        model_sim(Capacity::enterprise(), vec![week(), purchase("p1"), purchase("p2")]),
        model_sim(Overload::enterprise(), vec![week(), purchase("p1"), purchase("p2")]),
        model_sim(SynthBasis::new(8), vec![purchase("p")]),
        model_sim(
            FnBlackBox::new("MarkovStep", 2, move |p: &[f64], seed| {
                markov.output(p[0] as usize, p[1], seed)
            }),
            vec![week(), purchase("chain")],
        ),
        user_select_sim(Arc::new(DirectEngine::new())),
        user_select_sim(Arc::new(DbmsEngine::new())),
        Box::new(plan_sim_over(Arc::new(DirectEngine::new()), 21, &items, 8.0)),
        Box::new(plan_sim_over(Arc::new(DbmsEngine::new()), 21, &items, 8.0)),
    ];
    for sim in &sims {
        let point = sim.space().point_at(sim.space().len() / 2);
        for (start, count) in [(0, 0), (7, 0), (0, 1), (3, 1), (0, 64), (9, 33)] {
            assert_paths_agree(sim.as_ref(), &point, start, count);
        }
    }
}
