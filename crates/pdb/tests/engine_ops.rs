//! Operator-level engine tests: every plan node exercised on both engines,
//! including the semantics only tuple bundles can express (per-world
//! presence) and the declared limitations of the naive engine.

use std::sync::Arc;

use jigsaw_blackbox::FnBlackBox;
use jigsaw_pdb::{
    AggFunc, AggSpec, BundleCell, Catalog, CmpOp, ColumnType, DbmsEngine, DirectEngine, Engine,
    ExecContext, Expr, PdbError, Plan, Presence, TableBuilder, Value,
};
use jigsaw_prng::SeedSet;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "sales",
        TableBuilder::new()
            .column("region", ColumnType::Str)
            .column("amount", ColumnType::Float)
            .column("year", ColumnType::Int)
            .row(vec!["east".into(), 10.0.into(), 2020.into()])
            .row(vec!["east".into(), 20.0.into(), 2021.into()])
            .row(vec!["west".into(), 5.0.into(), 2020.into()])
            .row(vec!["west".into(), 40.0.into(), 2021.into()])
            .build(),
    );
    c.add_table(
        "regions",
        TableBuilder::new()
            .column("name", ColumnType::Str)
            .column("mult", ColumnType::Float)
            .row(vec!["east".into(), 2.0.into()])
            .row(vec!["west".into(), 3.0.into()])
            .build(),
    );
    // A stochastic jitter in [0, 1): seed-determined fraction.
    c.add_function(Arc::new(FnBlackBox::new("Jitter", 1, |p: &[f64], s| {
        p[0] + (s.0 % 997) as f64 / 997.0
    })));
    c
}

fn ctx(n: usize) -> ExecContext<'static> {
    ExecContext::new(SeedSet::new(17), &[], n)
}

fn engines() -> Vec<Box<dyn Engine>> {
    vec![Box::new(DirectEngine::new()), Box::new(DbmsEngine::new())]
}

#[test]
fn deterministic_filter_sort_limit() {
    let cat = catalog();
    let plan = Plan::Scan { table: "sales".into() }.filter(Expr::cmp(
        CmpOp::Eq,
        Expr::col("year"),
        Expr::lit_i(2021),
    ));
    let plan = Plan::Sort {
        input: Box::new(plan),
        keys: vec![(Expr::col("amount"), true)], // descending
    };
    let plan = Plan::Limit { input: Box::new(plan), n: 1 };
    let bound = plan.bind(&cat, &[]).unwrap();
    for e in engines() {
        let out = e.execute(&bound, &cat, &ctx(3)).unwrap();
        assert_eq!(out.len(), 1, "{}", e.name());
        assert_eq!(out.rows[0].cells[0], BundleCell::Det(Value::Str("west".into())));
        assert_eq!(out.rows[0].cells[1], BundleCell::Det(Value::Float(40.0)));
    }
}

#[test]
fn hash_join_multiplies_rows_correctly() {
    let cat = catalog();
    let plan = Plan::HashJoin {
        left: Box::new(Plan::Scan { table: "sales".into() }),
        right: Box::new(Plan::Scan { table: "regions".into() }),
        left_key: Expr::col("region"),
        right_key: Expr::col("name"),
    }
    .project(vec![(
        "scaled",
        Expr::bin(jigsaw_pdb::BinOp::Mul, Expr::col("amount"), Expr::col("mult")),
    )])
    .aggregate(
        vec![],
        vec![AggSpec { name: "total".into(), func: AggFunc::Sum, arg: Some(Expr::col("scaled")) }],
    );
    let bound = plan.bind(&cat, &[]).unwrap();
    // east: (10+20)*2 = 60; west: (5+40)*3 = 135; total 195.
    for e in engines() {
        let out = e.execute(&bound, &cat, &ctx(2)).unwrap();
        assert_eq!(out.len(), 1);
        match &out.rows[0].cells[0] {
            BundleCell::Stoch(xs) => assert!(xs.iter().all(|&x| x == 195.0), "{}", e.name()),
            other => panic!("{}: {other:?}", e.name()),
        }
    }
}

#[test]
fn group_by_aggregation_matches_hand_computation() {
    let cat = catalog();
    let plan = Plan::Scan { table: "sales".into() }.aggregate(
        vec![("region".to_string(), Expr::col("region"))],
        vec![
            AggSpec { name: "total".into(), func: AggFunc::Sum, arg: Some(Expr::col("amount")) },
            AggSpec { name: "n".into(), func: AggFunc::Count, arg: None },
            AggSpec { name: "hi".into(), func: AggFunc::Max, arg: Some(Expr::col("amount")) },
            AggSpec { name: "lo".into(), func: AggFunc::Min, arg: Some(Expr::col("amount")) },
            AggSpec { name: "avg".into(), func: AggFunc::Avg, arg: Some(Expr::col("amount")) },
        ],
    );
    let bound = plan.bind(&cat, &[]).unwrap();
    for e in engines() {
        let out = e.execute(&bound, &cat, &ctx(1)).unwrap();
        assert_eq!(out.len(), 2, "{}", e.name());
        let find = |region: &str| {
            out.rows
                .iter()
                .find(|r| r.cells[0].value_at(0) == Value::Str(region.into()))
                .unwrap_or_else(|| panic!("missing group {region}"))
        };
        let east = find("east");
        assert_eq!(east.cells[1].f64_at(0), Some(30.0));
        assert_eq!(east.cells[2].f64_at(0), Some(2.0));
        assert_eq!(east.cells[3].f64_at(0), Some(20.0));
        assert_eq!(east.cells[4].f64_at(0), Some(10.0));
        assert_eq!(east.cells[5].f64_at(0), Some(15.0));
        let west = find("west");
        assert_eq!(west.cells[1].f64_at(0), Some(45.0));
    }
}

#[test]
fn stochastic_filter_creates_presence_masks_on_dbms_engine() {
    let cat = catalog();
    // Keep tuples whose jittered amount stays below 10.5: row "west"/5.0
    // always passes, "east"/10.0 passes only in worlds with jitter < 0.5.
    let plan = Plan::Scan { table: "sales".into() }
        .filter(Expr::cmp(CmpOp::Eq, Expr::col("year"), Expr::lit_i(2020)))
        .filter(Expr::cmp(
            CmpOp::Lt,
            Expr::call("Jitter", vec![Expr::col("amount")]),
            Expr::lit_f(10.5),
        ));
    let bound = plan.bind(&cat, &[]).unwrap();
    let n = 64;
    let out = DbmsEngine::new().execute(&bound, &cat, &ctx(n)).unwrap();
    // Row west (5.0 + jitter < 10.5 always) fully present; row east mixed.
    let east = out
        .rows
        .iter()
        .find(|r| r.cells[1].f64_at(0) == Some(10.0))
        .expect("east row present in some worlds");
    match &east.presence {
        Presence::Mask(m) => {
            let alive = m.iter().filter(|&&b| b).count();
            assert!(alive > 0 && alive < n, "expected a genuine mixture, got {alive}/{n}");
        }
        Presence::All => panic!("east row should not be present in every world"),
    }
    // And the naive engine must refuse this plan shape (world-varying
    // cardinality) rather than guess.
    let err = DirectEngine::new().execute(&bound, &cat, &ctx(n)).unwrap_err();
    assert!(matches!(err, PdbError::Unsupported(_)), "{err}");
}

#[test]
fn stochastic_filter_feeding_aggregate_agrees_across_engines() {
    let cat = catalog();
    // COUNT of surviving tuples per world: aggregation collapses the
    // cardinality difference, so both engines can run it.
    let plan = Plan::Scan { table: "sales".into() }
        .filter(Expr::cmp(
            CmpOp::Lt,
            Expr::call("Jitter", vec![Expr::col("amount")]),
            Expr::lit_f(10.5),
        ))
        .aggregate(
            vec![],
            vec![AggSpec { name: "survivors".into(), func: AggFunc::Count, arg: None }],
        );
    let bound = plan.bind(&cat, &[]).unwrap();
    let a = DirectEngine::new().execute(&bound, &cat, &ctx(32)).unwrap();
    let b = DbmsEngine::new().execute(&bound, &cat, &ctx(32)).unwrap();
    assert_eq!(a.rows[0].cells[0], b.rows[0].cells[0]);
    // Sales 5.0 and 10.0 can survive; 20.0 and 40.0 never do.
    if let BundleCell::Stoch(xs) = &a.rows[0].cells[0] {
        assert!(xs.iter().all(|&x| (1.0..=2.0).contains(&x)), "{xs:?}");
    } else {
        panic!("expected stochastic count");
    }
}

#[test]
fn nested_loop_join_with_predicate() {
    let cat = catalog();
    let plan = Plan::Join {
        left: Box::new(Plan::Scan { table: "sales".into() }),
        right: Box::new(Plan::Scan { table: "sales".into() }),
        pred: Some(Expr::And(
            Box::new(Expr::cmp(CmpOp::Eq, Expr::ColIdx(2), Expr::ColIdx(5))),
            Box::new(Expr::cmp(CmpOp::Lt, Expr::ColIdx(1), Expr::ColIdx(4))),
        )),
    }
    .aggregate(vec![], vec![AggSpec { name: "pairs".into(), func: AggFunc::Count, arg: None }]);
    let bound = plan.bind(&cat, &[]).unwrap();
    // Same-year pairs with strictly increasing amount: (east10,west?) 2020:
    // 5<10 → (west,east); 2021: 20<40 → (east,west). 2 pairs.
    for e in engines() {
        let out = e.execute(&bound, &cat, &ctx(2)).unwrap();
        assert_eq!(out.rows[0].cells[0].f64_at(0), Some(2.0), "{}", e.name());
    }
}

#[test]
fn world_windows_compose_identically() {
    // ExecContext::with_worlds must behave like a slice of the full run —
    // the property the optimizer's fingerprint-then-complete split relies on.
    let cat = catalog();
    let plan = Plan::OneRow
        .project(vec![("x", Expr::call("Jitter", vec![Expr::lit_f(0.0)]))])
        .bind(&cat, &[])
        .unwrap();
    let full = DbmsEngine::new().execute(&plan, &cat, &ctx(20)).unwrap();
    let head = DbmsEngine::new().execute(&plan, &cat, &ctx(20).with_worlds(0, 8)).unwrap();
    let tail = DbmsEngine::new().execute(&plan, &cat, &ctx(20).with_worlds(8, 12)).unwrap();
    let (f, h, t) = match (&full.rows[0].cells[0], &head.rows[0].cells[0], &tail.rows[0].cells[0]) {
        (BundleCell::Stoch(f), BundleCell::Stoch(h), BundleCell::Stoch(t)) => (f, h, t),
        other => panic!("{other:?}"),
    };
    let glued: Vec<f64> = h.iter().chain(t.iter()).copied().collect();
    assert_eq!(*f, glued);
}

#[test]
fn empty_input_aggregates() {
    let cat = catalog();
    let plan = Plan::Scan { table: "sales".into() }
        .filter(Expr::cmp(CmpOp::Eq, Expr::col("year"), Expr::lit_i(1999)))
        .aggregate(
            vec![],
            vec![
                AggSpec { name: "n".into(), func: AggFunc::Count, arg: None },
                AggSpec { name: "s".into(), func: AggFunc::Sum, arg: Some(Expr::col("amount")) },
            ],
        );
    let bound = plan.bind(&cat, &[]).unwrap();
    for e in engines() {
        let out = e.execute(&bound, &cat, &ctx(4)).unwrap();
        assert_eq!(out.len(), 1, "{}: global aggregate always yields one row", e.name());
        assert_eq!(out.rows[0].cells[0].f64_at(0), Some(0.0));
        assert_eq!(out.rows[0].cells[1].f64_at(0), Some(0.0));
    }
}
