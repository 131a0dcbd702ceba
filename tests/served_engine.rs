//! The server runs every scenario on `DbmsEngine`, the tuple-bundle
//! engine; `DirectEngine` stays as the per-world reference. The switch must
//! be invisible: both engines evaluate every served model's windows to the
//! same bits, and a scenario whose row a stochastic filter removes from
//! some worlds is a typed error on the wire, as it was on the direct
//! engine, never a silently wrong estimate.

use std::sync::Arc;

use jigsaw::pdb::{eval_window, DbmsEngine, DirectEngine, Engine, Simulation};
use jigsaw::prng::SeedSet;
use jigsaw::server::{default_catalog, Client, ErrorCode, JigsawServer, Request, Response};

const MASTER_SEED: u64 = 4_242;

/// One scenario per model of the stock catalog.
fn scenario(model: &str) -> String {
    match model {
        "Synth8" => "DECLARE PARAMETER @p AS RANGE 0 TO 15 STEP BY 1; \
             SELECT Synth8(@p) AS out INTO results;"
            .into(),
        demand => format!(
            "DECLARE PARAMETER @week AS RANGE 0 TO 19 STEP BY 1; \
             DECLARE PARAMETER @feature AS SET (5, 12); \
             SELECT {demand}(@week, @feature) AS demand INTO results;"
        ),
    }
}

/// The refine path's windows: the fingerprint head, one refinement batch,
/// and the rest of a full simulation.
const WINDOWS: [(usize, usize); 3] = [(0, 10), (10, 10), (10, 990)];

#[test]
fn eval_window_is_bitwise_equal_on_both_engines() {
    let catalog = Arc::new(default_catalog());
    for model in ["Demand", "DemandEnterprise", "Synth8"] {
        let scenario = jigsaw::sql::compile(&scenario(model), &catalog).expect("compiles");
        let sim = |engine: Arc<dyn Engine>| {
            scenario.simulation(engine, Arc::clone(&catalog), SeedSet::new(MASTER_SEED))
        };
        let (direct, dbms) = (sim(Arc::new(DirectEngine::new())), sim(Arc::new(DbmsEngine::new())));
        for point_idx in [0, 7, scenario.space.len() - 1] {
            let point = scenario.space.point_at(point_idx);
            for (start, count) in WINDOWS {
                let bits = |sim: &dyn Simulation| -> Vec<Vec<u64>> {
                    let batch = eval_window(sim, &point, start, count).expect("evaluates");
                    batch
                        .columns()
                        .iter()
                        .map(|c| c.iter().map(|x| x.to_bits()).collect())
                        .collect()
                };
                assert_eq!(
                    bits(&direct),
                    bits(&dbms),
                    "{model} point {point_idx} window ({start}, {count})"
                );
            }
        }
    }
}

/// `Demand(@week, 5)` has mean ≈ `week`, so at week 7 the filter keeps the
/// row in some of the fingerprint's ten worlds and drops it in others.
#[test]
fn a_partly_present_row_is_refused_over_the_wire() {
    const FILTERED: &str = "DECLARE PARAMETER @week AS RANGE 0 TO 19 STEP BY 1; \
         SELECT Demand(@week, 5) AS d INTO results WHERE Demand(@week, 5) > 7;";
    let handle = JigsawServer::builder()
        .master_seed(MASTER_SEED)
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .serve()
        .expect("start server");
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    let compiled = c.request(&Request::Compile { src: FILTERED.into() }).expect("compile");
    assert!(matches!(compiled, Response::Compiled { points: 20, .. }), "{compiled:?}");
    match c.request(&Request::Estimate { point: 7, col: 0 }).expect("estimate") {
        Response::Error { code: ErrorCode::Exec, message } => {
            assert!(message.contains("in every world"), "{message}")
        }
        other => panic!("expected ERR exec, got {other:?}"),
    }
    // The connection keeps serving.
    assert!(matches!(c.request(&Request::Stats).expect("stats"), Response::Stats { .. }));
    assert_eq!(c.request(&Request::Quit).expect("quit"), Response::Bye);
    handle.shutdown().expect("shutdown");
}
