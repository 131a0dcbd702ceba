//! Bit-identity of the production evaluation against its references: the
//! tuple-bundle `DbmsEngine` against the per-world `DirectEngine`, and the
//! whole-window schedule (`EvalPath::Columnar`) against world-at-a-time
//! evaluation (`EvalPath::Oracle`, one 1-world window per world).
//!
//! The bundle kernels are a *layout* change, never a different computation:
//! they perform the same floating-point operations in the same order as the
//! per-world interpreter. These tests pin that claim over every axis that
//! could break it: simulation shape (black box vs both plan engines,
//! det/stoch columns, stochastic filters, every aggregate, and every shape
//! the `repro` experiments build), thread budget, window offset, and
//! schedule. Production only ever runs `DbmsEngine` on whole windows, so
//! this file is where the references earn their keep. Equality is always on
//! `f64::to_bits` — `Vec<f64>` `==` would falsely reject worlds where a
//! stochastic filter drops every row (the Min/Max/Avg of an empty world is
//! NaN, identically, on both engines).

use std::sync::Arc;

use jigsaw::blackbox::models::{Capacity, Demand, MarkovStep, Overload, SynthBasis};
use jigsaw::blackbox::{BlackBox, FnBlackBox, MarkovModel, ParamDecl, ParamSpace};
use jigsaw::pdb::{
    eval_batch_on, eval_window_on, AggFunc, AggSpec, BinOp, BlackBoxSim, Catalog, CmpOp,
    ColumnType, DbmsEngine, DirectEngine, Engine, EvalPath, Expr, Plan, PlanSim, Simulation,
    TableBuilder, Value,
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

/// Every simulation in `sims`, on both schedules at every budget, must
/// reproduce `reference` evaluated world at a time, bit for bit — and
/// windows must compose: `[start, mid)` stitched with `[mid, start+count)`
/// equals `[start, start+count)`.
fn assert_agree(
    reference: &dyn Simulation,
    sims: &[&dyn Simulation],
    point: &[f64],
    (start, count): (usize, usize),
) {
    let want = eval_window_on(reference, point, start, count, EvalPath::Oracle);
    let want = bits(want.expect("the reference evaluates").columns());
    for sim in sims {
        for threads in BUDGETS {
            for path in [EvalPath::Columnar, EvalPath::Oracle] {
                let at = format!("threads={threads} {path:?} start={start} count={count}");
                let batch = eval_batch_on(*sim, point, start, count, threads, path);
                let batch = batch.unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(bits(batch.columns()), want, "{at}");
            }
        }
        let mid = count / 2;
        let mut stitched = sim.eval_batch(point, start, mid).unwrap();
        stitched.extend(sim.eval_batch(point, start + mid, count - mid).unwrap());
        let at = format!("window composition start={start} count={count}");
        assert_eq!(bits(stitched.columns()), want, "{at}");
    }
}

/// A plan on both engines: `DbmsEngine` against `DirectEngine`.
fn assert_engines_agree(
    plan: impl Fn(Arc<dyn Engine>) -> Box<dyn Simulation>,
    point: &[f64],
    window: (usize, usize),
) {
    let (direct, dbms) = (plan(Arc::new(DirectEngine::new())), plan(Arc::new(DbmsEngine::new())));
    assert_agree(direct.as_ref(), &[direct.as_ref(), dbms.as_ref()], point, window);
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
        assert_agree(&sim, &[&sim], &[point.floor()], (start, count));
    }

    #[test]
    fn plan_columnar_matches_oracle_on_both_engines(
        master in 0u64..200,
        x in 0i64..4,
        start in 0usize..20,
        count in 0usize..33,
    ) {
        let plan = |engine| Box::new(plan_sim(engine, master)) as Box<dyn Simulation>;
        assert_engines_agree(plan, &[x as f64], (start, count));
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
/// and, on both engines, E1's data-bound `UserSelect` plan, a plan-heavy
/// every-kernel plan over a 24-row table, and one whose filter empties
/// every world (every aggregate but the count is NaN).
#[test]
fn corner_windows_agree_everywhere() {
    let week = || ParamDecl::range("week", 0, 51, 1);
    let purchase = |name| ParamDecl::range(name, 0, 48, 4);
    let markov = MarkovStep::enterprise();
    let black_boxes: Vec<Box<dyn Simulation>> = vec![
        Box::new(bb_sim(21)),
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
    ];
    let items: Vec<f64> = (0..24).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
    type PlanShape<'a> = Box<dyn Fn(Arc<dyn Engine>) -> Box<dyn Simulation> + 'a>;
    let plans: Vec<PlanShape> = vec![
        Box::new(|engine| Box::new(plan_sim(engine, 21))),
        Box::new(user_select_sim),
        Box::new(|engine| Box::new(plan_sim_over(engine, 21, &items, 8.0))),
        Box::new(|engine| Box::new(plan_sim_over(engine, 21, &[1.0, 2.0], f64::NEG_INFINITY))),
    ];
    let windows = [(0, 0), (7, 0), (0, 1), (3, 1), (0, 64), (9, 33)];
    let middle = |sim: &dyn Simulation| sim.space().point_at(sim.space().len() / 2);
    for (sim, window) in black_boxes.iter().flat_map(|sim| windows.map(|w| (sim, w))) {
        assert_agree(sim.as_ref(), &[sim.as_ref()], &middle(sim.as_ref()), window);
    }
    for (plan, window) in plans.iter().flat_map(|plan| windows.map(|w| (plan, w))) {
        assert_engines_agree(plan, &middle(plan(Arc::new(DirectEngine::new())).as_ref()), window);
    }
    // The emptied plan really has empty worlds: NaN extremes and means,
    // zero counts.
    let emptied = plan_sim_over(Arc::new(DbmsEngine::new()), 21, &[1.0, 2.0], f64::NEG_INFINITY);
    let batch = emptied.eval_batch(&[1.0], 0, 4).unwrap();
    for c in 1..=3 {
        assert!(batch.column(c).iter().all(|x| x.is_nan()), "column {c}");
    }
    assert_eq!(batch.column(5), &[0.0; 4]);
}

/// `SELECT <exprs> ` over one row, with `@w` in `0..=9` and the catalog's
/// black boxes bound, as a simulation on `engine`.
fn one_row_sim(
    engine: Arc<dyn Engine>,
    cat: Arc<Catalog>,
    exprs: Vec<(&str, Expr)>,
) -> Box<dyn Simulation> {
    let plan = Plan::OneRow.project(exprs).bind(&cat, &["w".to_string()]).unwrap();
    let space = ParamSpace::new(vec![ParamDecl::range("w", 0, 9, 1)]);
    Box::new(PlanSim::new(engine, plan, cat, space, SeedSet::new(5)))
}

/// Per-world SQL NULL booleans: `F` is NaN in about a third of the worlds,
/// so `F(@w) > 1` is NULL there, and every connective must keep SQL's
/// three-valued logic on the bundle engine as the per-world engine does —
/// `NOT NULL` is NULL, `NULL AND TRUE` is NULL, `NULL OR FALSE` is NULL,
/// `FALSE AND NULL` is false.
#[test]
fn null_booleans_agree_on_both_engines() {
    let mut cat = Catalog::new();
    cat.add_function(Arc::new(FnBlackBox::new("F", 1, |p: &[f64], seed| {
        if seed.0 % 3 == 0 {
            f64::NAN
        } else {
            p[0] * 0.25 + Normal::standard(&mut Xoshiro256pp::seeded(seed))
        }
    })));
    let cat = Arc::new(cat);
    let maybe = || Expr::cmp(CmpOp::Gt, Expr::call("F", vec![Expr::param("w")]), Expr::lit_f(1.0));
    let lit = |b| Expr::Lit(Value::Bool(b));
    let exprs = || {
        vec![
            ("not", Expr::Not(Box::new(maybe()))),
            ("and_true", Expr::And(Box::new(maybe()), Box::new(lit(true)))),
            ("or_false", Expr::Or(Box::new(maybe()), Box::new(lit(false)))),
            ("false_and", Expr::And(Box::new(lit(false)), Box::new(maybe()))),
            ("true_or", Expr::Or(Box::new(lit(true)), Box::new(maybe()))),
            ("and_null", Expr::And(Box::new(maybe()), Box::new(Expr::Lit(Value::Null)))),
            ("both", Expr::Or(Box::new(Expr::Not(Box::new(maybe()))), Box::new(maybe()))),
        ]
    };
    let plan = |engine| one_row_sim(engine, Arc::clone(&cat), exprs());
    for window in [(0, 1), (0, 64), (9, 33)] {
        assert_engines_agree(plan, &[4.0], window);
    }
    // The cases are live: NULL in some worlds, a truth value in others.
    let batch = plan(Arc::new(DbmsEngine::new())).eval_batch(&[4.0], 0, 64).unwrap();
    for (c, (name, _)) in exprs().iter().enumerate().take(3) {
        let col = batch.column(c);
        assert!(col.iter().any(|x| x.is_nan()), "{name}: no NULL world");
        assert!(col.iter().any(|x| !x.is_nan()), "{name}: no known world");
    }
    assert!(batch.column(3).iter().all(|&x| x == 0.0), "FALSE AND NULL is false");
    assert!(batch.column(4).iter().all(|&x| x == 1.0), "TRUE OR NULL is true");
}

/// The paper models that batch their normal draws (`Demand`,
/// `SynthBasis`) called from a plan with deterministic arguments: the
/// bundle engine's one `eval_seeds` call per chunk against the per-world
/// engine's `eval`, bit for bit, on windows around the 64-seed chunk.
#[test]
fn batched_model_calls_agree_on_both_engines() {
    let mut cat = Catalog::new();
    cat.add_function(Arc::new(Demand::paper()));
    cat.add_function(Arc::new(SynthBasis::new(3)));
    let cat = Arc::new(cat);
    let exprs = || {
        vec![
            ("demand", Expr::call("Demand", vec![Expr::param("w"), Expr::lit_f(5.0)])),
            ("synth", Expr::call("SynthBasis", vec![Expr::param("w")])),
        ]
    };
    let plan = |engine| one_row_sim(engine, Arc::clone(&cat), exprs());
    for point in [2.0, 8.0] {
        for window in [(0, 1), (0, 63), (1, 64), (3, 65), (990, 70)] {
            assert_engines_agree(plan, &[point], window);
        }
    }
}
