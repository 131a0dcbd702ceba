//! Per-layer probes: each layer timed **from outside**, by calling its
//! public functions on inputs generated from the run's seed.
//!
//! A probe reports the median over [`ROUNDS`] rounds of the mean time of
//! one call. Most rounds make ≥ 1000 calls; the few whose single call costs
//! a millisecond or more (whole-store snapshots, a 20 000-point selection,
//! 100-world plan batches) make fewer and say so where they are defined.
//! Probes run only in the traced run, after the workload has stopped. Their
//! inputs are ones the workloads have already shown to evaluate, so a probe
//! call that fails is a broken internal condition: it panics with a reason,
//! and [`run_all`] turns the panic into a failed run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use jigsaw_blackbox::models::SynthBasis;
use jigsaw_blackbox::{BlackBox, ParamDecl, ParamSpace};
use jigsaw_core::index::make_index;
use jigsaw_core::interactive::{InteractiveSession, SessionConfig};
use jigsaw_core::optimizer::selector::select;
use jigsaw_core::optimizer::{
    Comparison, Constraint, Direction, Objective, OptimizeGoal, OuterAgg,
};
use jigsaw_core::{
    fingerprint::affine_fits, AffineFamily, BasisStore, Fingerprint, IndexStrategy, JigsawConfig,
    MappingFamily, PersistentPool, ScopedPool, ShardedBasisStore, SharedBasisStore, SweepRunner,
    WorkerPool,
};
use jigsaw_pdb::{
    eval_batch_on, eval_window, BlackBoxSim, DbmsEngine, DirectEngine, EvalPath, Metric,
    OutputMetrics, Simulation,
};
use jigsaw_prng::dist::Normal;
use jigsaw_prng::{SeedSet, Xoshiro256pp};
use jigsaw_server::protocol::{read_frame, write_frame};
use jigsaw_server::{Client, Request, Response, PROTOCOL_VERSION};

use crate::harness::THINK_US;
use crate::host;
use crate::stats::median;
use crate::wire::think;
use crate::workloads::{
    bench_catalog, ramp_model, start_server, user_plan_sim, RAMP_POINTS, REUSE_BASES, USERS,
    WARM_POINTS, WARM_SRC,
};

/// Rounds per probe; the reported value is their median.
const ROUNDS: usize = 3;

type Layers = BTreeMap<&'static str, f64>;

/// Median over rounds of the mean nanoseconds of one `f(i)` call.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_round: Vec<f64> = (0..ROUNDS)
        .map(|r| {
            let t0 = Instant::now();
            for i in 0..calls {
                f(r * calls + i);
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_round)
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("probe {what}: {e}")
}

/// Run every probe and add its metric to `out`.
pub fn run_all(seed: u64, out: &mut Layers) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe_all(seed, out))).unwrap_or_else(
        |panic| {
            let why = panic.downcast_ref::<String>().map(String::as_str);
            let why = why.or_else(|| panic.downcast_ref::<&str>().copied());
            Err(format!("a layer probe panicked: {}", why.unwrap_or("(no message)")))
        },
    )
}

fn probe_all(seed: u64, out: &mut Layers) -> Result<(), String> {
    let seeds = SeedSet::new(seed);
    prng_and_models(seeds, out);
    let fps = pdb(seed, seeds, out);
    out.insert("sqlfront.compile_us", {
        let catalog = bench_catalog();
        ns_per_call(1000, |_| {
            black_box(jigsaw_sql::compile(black_box(WARM_SRC), &catalog).expect("compiles"));
        }) / 1e3
    });
    index_and_basis(&fps, out);
    pool_and_selector(seeds, out)?;
    sessions_and_snapshots(seed, out)?;
    protocol(out)?;
    server(seed, out)?;
    obs(out);
    Ok(())
}

fn prng_and_models(seeds: SeedSet, out: &mut Layers) {
    const CALLS: usize = 100_000;
    let mut acc = 0.0;
    out.insert(
        "prng.normal_draw_ns",
        ns_per_call(CALLS, |i| {
            let mut rng = Xoshiro256pp::seeded(seeds.seed(i));
            acc += Normal::standard(&mut rng);
        }),
    );
    let synth = SynthBasis::new(REUSE_BASES);
    out.insert(
        "blackbox.eval_ns.synth",
        ns_per_call(CALLS, |i| acc += synth.eval(&[(i % 20_000) as f64], seeds.seed(i))),
    );
    let ramp = ramp_model(RAMP_POINTS);
    out.insert(
        "blackbox.eval_ns.ramp",
        ns_per_call(CALLS, |i| acc += ramp.eval(&[(i % RAMP_POINTS) as f64], seeds.seed(i))),
    );
    let users = crate::workloads::user_catalog(USERS, seeds.master());
    let user_req = users.function("UserReq").expect("UserReq registered");
    let rows = users.table("users").expect("users table").rows().to_vec();
    let num = |v: &jigsaw_pdb::Value| match v {
        jigsaw_pdb::Value::Int(i) => *i as f64,
        jigsaw_pdb::Value::Float(f) => *f,
        _ => 0.0,
    };
    out.insert(
        "blackbox.eval_ns.userreq",
        ns_per_call(CALLS, |i| {
            let r = &rows[i % rows.len()];
            acc += user_req
                .eval(&[num(&r[0]), num(&r[1]), num(&r[2]), num(&r[3]), 26.0], seeds.seed(i));
        }),
    );
    black_box(acc);
}

/// Fingerprints of the first 4000 `sweep_reuse` points (two per class) and
/// of 2000 `sweep_hostile` points, for the index and basis probes.
struct Fingerprints {
    /// Points `0..2000`: one per class — what a sweep stages as bases.
    bases: Vec<Fingerprint>,
    /// Points `2000..4000`: the same classes under another affine skin —
    /// lookups that hit.
    hits: Vec<Fingerprint>,
    /// Ramp points — lookups that find nothing.
    misses: Vec<Fingerprint>,
}

fn pdb(seed: u64, seeds: SeedSet, out: &mut Layers) -> Fingerprints {
    let m = JigsawConfig::paper().fingerprint_len;
    let n = JigsawConfig::paper().n_samples;
    let range =
        |points: usize| ParamSpace::new(vec![ParamDecl::range("p", 0, points as i64 - 1, 1)]);
    let synth = BlackBoxSim::new(Arc::new(SynthBasis::new(REUSE_BASES)), range(20_000), seeds);
    let ramp = BlackBoxSim::new(ramp_model(RAMP_POINTS), range(RAMP_POINTS), seeds);
    let window = |sim: &dyn Simulation, p: usize, start: usize, count: usize| {
        eval_window(sim, &[p as f64], start, count).expect("probe window evaluates")
    };
    out.insert(
        "pdb.worlds.small_window_ns_per_world",
        ns_per_call(10_000, |i| {
            black_box(window(&synth, i % 20_000, 0, m));
        }) / m as f64,
    );
    // 100 calls a round, 990 worlds each.
    out.insert(
        "pdb.worlds.large_window_ns_per_world",
        ns_per_call(100, |i| {
            black_box(window(&ramp, i % RAMP_POINTS, m, n - m));
        }) / (n - m) as f64,
    );
    let fp =
        |sim: &dyn Simulation, p: usize| Fingerprint::new(window(sim, p, 0, m).column(0).to_vec());
    let fps = Fingerprints {
        bases: (0..REUSE_BASES).map(|p| fp(&synth, p)).collect(),
        hits: (REUSE_BASES..2 * REUSE_BASES).map(|p| fp(&synth, p)).collect(),
        misses: (0..REUSE_BASES).map(|p| fp(&ramp, p)).collect(),
    };

    // Plan engines: 10 calls a round, 100 worlds × 250 rows each.
    const WORLDS: usize = 100;
    let dbms = user_plan_sim(Arc::new(DbmsEngine::new()), USERS, seed);
    let direct = user_plan_sim(Arc::new(DirectEngine::new()), USERS, seed);
    let batch = |sim: &dyn Simulation, path: Option<EvalPath>| {
        ns_per_call(10, |i| {
            let point = [(i % 52) as f64];
            let batch = match path {
                None => sim.eval_batch(&point, 0, WORLDS),
                Some(path) => eval_batch_on(sim, &point, 0, WORLDS, 1, path),
            };
            black_box(batch.expect("probe batch evaluates"));
        }) / WORLDS as f64
            / 1e3
    };
    out.insert("pdb.exec.dbms_us_per_world", batch(&dbms, None));
    out.insert("pdb.exec.direct_us_per_world", batch(&direct, None));
    let oracle = batch(&dbms, Some(EvalPath::Oracle));
    let columnar = batch(&dbms, Some(EvalPath::Columnar));
    out.insert("pdb.exec.oracle_over_columnar", oracle / columnar);

    // 1000 calls a round; the sample vectors are cloned outside the clock.
    let samples = window(&ramp, 7, 0, n).column(0).to_vec();
    let mut pool: Vec<Vec<f64>> = Vec::new();
    let per_round: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            pool.extend(std::iter::repeat_n(samples.clone(), 1000));
            let t0 = Instant::now();
            for v in pool.drain(..) {
                black_box(OutputMetrics::from_samples(v));
            }
            t0.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();
    out.insert("pdb.estimator.ns_per_sample", median(&per_round) / n as f64);
    fps
}

fn index_and_basis(fps: &Fingerprints, out: &mut Layers) {
    let tol = JigsawConfig::paper().tolerance;
    let n = fps.bases.len();
    for (strategy, insert, lookup, candidates) in [
        (
            IndexStrategy::Array,
            "core.index.insert_ns.array",
            "core.index.lookup_ns.array",
            "core.index.candidates_per_lookup.array",
        ),
        (
            IndexStrategy::Normalization,
            "core.index.insert_ns.normalization",
            "core.index.lookup_ns.normalization",
            "core.index.candidates_per_lookup.normalization",
        ),
        (
            IndexStrategy::SortedSid,
            "core.index.insert_ns.sorted_sid",
            "core.index.lookup_ns.sorted_sid",
            "core.index.candidates_per_lookup.sorted_sid",
        ),
    ] {
        // Each round fills a fresh index with the 2000 basis fingerprints.
        let mut index = make_index(strategy, tol);
        out.insert(
            insert,
            ns_per_call(n, |i| {
                if i % n == 0 {
                    index = make_index(strategy, tol);
                }
                index.insert(i % n, &fps.bases[i % n]);
            }),
        );
        let mut found = 0usize;
        out.insert(
            lookup,
            ns_per_call(n, |i| found += black_box(index.candidates(&fps.hits[i % n])).len()),
        );
        out.insert(candidates, found as f64 / (ROUNDS * n) as f64);
    }

    let family = AffineFamily;
    out.insert(
        "core.mapping.find_ns",
        ns_per_call(100_000, |i| {
            black_box(family.find(&fps.bases[i % n], &fps.hits[i % n], tol));
        }),
    );
    let maps: Vec<_> = (0..n).map(|i| family.find(&fps.bases[i], &fps.hits[i], tol)).collect();
    out.insert(
        "core.fingerprint.affine_fits_ns",
        ns_per_call(100_000, |i| {
            let m = maps[i % n].unwrap_or(jigsaw_core::AffineMap::IDENTITY);
            black_box(affine_fits(
                fps.bases[i % n].entries(),
                fps.hits[i % n].entries(),
                m.alpha,
                m.beta,
                tol,
            ));
        }),
    );

    // A store of 2000 bases, staged and committed as a sweep does. The
    // committed metrics are fingerprint-sized: commit moves them, so their
    // length does not enter the cost.
    let new_store =
        || BasisStore::with_strategy(IndexStrategy::Normalization, tol, Arc::new(AffineFamily));
    let mut store = new_store();
    let mut staged: Vec<(Fingerprint, OutputMetrics)> = Vec::new();
    let per_round: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            store = new_store();
            staged.extend(
                fps.bases
                    .iter()
                    .map(|f| (f.clone(), OutputMetrics::from_samples(f.entries().to_vec()))),
            );
            let t0 = Instant::now();
            for (f, metrics) in staged.drain(..) {
                let id = store.stage(f);
                store.commit_staged(id, metrics);
            }
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    out.insert("core.basis.stage_commit_ns", median(&per_round));
    out.insert(
        "core.basis.find_match_hit_ns",
        ns_per_call(20_000, |i| {
            black_box(store.freeze().find_match(&fps.hits[i % n]));
        }),
    );
    out.insert(
        "core.basis.find_match_miss_ns",
        ns_per_call(20_000, |i| {
            black_box(store.freeze().find_match(&fps.misses[i % n]));
        }),
    );
    let shared = SharedBasisStore::from_store(ShardedBasisStore::from_shards(vec![store]));
    out.insert(
        "core.basis.shared_read_ns",
        ns_per_call(100_000, |_| {
            black_box(shared.with_store(|s| s.n_shards()));
        }),
    );
}

fn pool_and_selector(seeds: SeedSet, out: &mut Layers) -> Result<(), String> {
    let nproc = host::nproc();
    let scatter =
        |pool: &dyn WorkerPool| ns_per_call(1000, |_| pool.scatter(nproc, nproc, &|_| {})) / 1e3;
    out.insert("core.pool.scatter_us.scoped", scatter(&ScopedPool));
    out.insert("core.pool.scatter_us.persistent", scatter(&PersistentPool::new(nproc)));

    // 10 calls a round over the 20 000-point result of a sweep_reuse sweep.
    let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 19_999, 1)]);
    let sim = BlackBoxSim::new(Arc::new(SynthBasis::new(REUSE_BASES)), space.clone(), seeds);
    let sweep = SweepRunner::new(JigsawConfig::paper().with_threads(nproc))
        .run(&sim)
        .map_err(err("selector sweep"))?;
    let column = sim.columns()[0].clone();
    let goal = OptimizeGoal {
        decision_params: vec!["p".into()],
        constraints: vec![Constraint {
            column,
            metric: Metric::Expect,
            outer: OuterAgg::Max,
            cmp: Comparison::Ge,
            threshold: 0.5,
        }],
        objectives: vec![Objective { param: "p".into(), direction: Direction::Min }],
    };
    out.insert(
        "core.selector.select_us",
        ns_per_call(10, |_| {
            black_box(select(&space, &sweep, &goal, sim.columns()).expect("probe goal selects"));
        }) / 1e3,
    );
    Ok(())
}

fn sessions_and_snapshots(seed: u64, out: &mut Layers) -> Result<(), String> {
    let catalog = Arc::new(bench_catalog());
    let cfg = JigsawConfig::paper();
    let local_sim = |src: &str| -> Result<Arc<dyn Simulation>, String> {
        let scenario = jigsaw_sql::compile(src, &catalog).map_err(err("compile"))?;
        Ok(Arc::new(scenario.simulation(
            Arc::new(DirectEngine::new()),
            Arc::clone(&catalog),
            SeedSet::new(seed),
        )))
    };

    // The serve_warm store: 80 bases of 1000 samples. 20 calls a round.
    let warm_sim = local_sim(WARM_SRC)?;
    let mut store = ShardedBasisStore::new(1, &cfg, Arc::new(AffineFamily));
    SweepRunner::new(cfg.clone()).store(&mut store).run(&*warm_sim).map_err(err("warm sweep"))?;
    let bases = store.bases_per_column()[0];
    let bytes = store.to_snapshot_bytes(&cfg, "affine").map_err(err("snapshot"))?;
    out.insert("core.snapshot.bytes_per_basis", bytes.len() as f64 / bases as f64);
    out.insert(
        "core.snapshot.save_us",
        ns_per_call(20, |_| {
            black_box(store.to_snapshot_bytes(&cfg, "affine").expect("saves"));
        }) / 1e3,
    );
    out.insert(
        "core.snapshot.load_us",
        ns_per_call(20, |_| {
            black_box(
                ShardedBasisStore::from_snapshot_bytes(&bytes, &cfg, Arc::new(AffineFamily), 1)
                    .expect("loads"),
            );
        }) / 1e3,
    );

    // A warm local session: what the server calls per ESTIMATE.
    let mut warm =
        InteractiveSession::with_store(warm_sim, SessionConfig::from_jigsaw(&cfg), store);
    for p in 0..WARM_POINTS {
        warm.estimate_now(p, 0).map_err(err("touch"))?;
    }
    out.insert(
        "core.session.estimate_ns",
        ns_per_call(20_000, |i| {
            black_box(warm.estimate_now(i % WARM_POINTS, 0).expect("estimates"));
        }),
    );

    // A cold local session on the serve_subscribe scenario: one refine step
    // (a 10-world batch folded into an already-touched point) per call, and
    // one tick of Algorithm 5's rotation per call.
    let demand = "DECLARE PARAMETER @week AS RANGE 0 TO 159 STEP BY 1; \
         DECLARE PARAMETER @feature AS RANGE 0 TO 49 STEP BY 1; \
         SELECT Demand(@week, @feature) AS demand INTO results;";
    let mut cold = InteractiveSession::new(local_sim(demand)?, SessionConfig::from_jigsaw(&cfg));
    let calls = 1000;
    for p in 0..ROUNDS * calls {
        cold.estimate_now(p, 0).map_err(err("touch"))?;
    }
    out.insert(
        "core.session.refine_once_us",
        ns_per_call(calls, |i| {
            black_box(cold.refine_once(i, 0).expect("refines"));
        }) / 1e3,
    );
    cold.set_focus(4000);
    out.insert(
        "core.session.tick_us",
        ns_per_call(calls, |_| {
            black_box(cold.tick().expect("ticks"));
        }) / 1e3,
    );
    Ok(())
}

fn protocol(out: &mut Layers) -> Result<(), String> {
    const CALLS: usize = 100_000;
    let request = Request::Estimate { point: 417, col: 0 };
    let response = Response::Estimated {
        point: 417,
        col: 0,
        n_samples: 1000,
        source: jigsaw_core::interactive::EstimateSource::MappedBasis,
        expectation_bits: 1.2345f64.to_bits(),
        std_dev_bits: 0.9876f64.to_bits(),
        lo_bits: 1.14f64.to_bits(),
        hi_bits: 1.33f64.to_bits(),
    };
    let (req_text, resp_text) = (request.encode(), response.encode());
    if Request::decode(&req_text).map_err(err("decode"))? != request
        || Response::decode(&resp_text).map_err(err("decode"))? != response
    {
        return Err("probe protocol: encode/decode does not round-trip".into());
    }
    out.insert(
        "server.protocol.request_encode_ns",
        ns_per_call(CALLS, |_| {
            black_box(black_box(&request).encode());
        }),
    );
    out.insert(
        "server.protocol.request_decode_ns",
        ns_per_call(CALLS, |_| {
            black_box(Request::decode(black_box(&req_text)).expect("decodes"));
        }),
    );
    out.insert(
        "server.protocol.response_encode_ns",
        ns_per_call(CALLS, |_| {
            black_box(black_box(&response).encode());
        }),
    );
    out.insert(
        "server.protocol.response_decode_ns",
        ns_per_call(CALLS, |_| {
            black_box(Response::decode(black_box(&resp_text)).expect("decodes"));
        }),
    );
    // One frame written to and read back from an in-memory buffer.
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    out.insert(
        "server.protocol.frame_rw_ns",
        ns_per_call(CALLS, |_| {
            buf.clear();
            write_frame(&mut buf, black_box(&resp_text)).expect("writes");
            black_box(read_frame(&mut buf.as_slice()).expect("reads"));
        }),
    );
    Ok(())
}

/// A default server of its own: the round trip of a request that touches
/// no session (`HELLO`), and the cost of a `METRICS` scrape.
fn server(seed: u64, out: &mut Layers) -> Result<(), String> {
    let handle = start_server(seed)?;
    let probe = |out: &mut Layers| -> Result<(), String> {
        let mut client = Client::connect(handle.local_addr()).map_err(err("connect"))?;
        let mut ask = |req: &Request, want: fn(&Response) -> bool| {
            let resp = client.request(req).expect("probe server answers");
            assert!(want(&resp), "{} answered `{}`", req.verb(), resp.encode());
        };
        let hello = Request::Hello { version: PROTOCOL_VERSION };
        let rtt = ns_per_call(1000, |_| {
            think(THINK_US);
            ask(&hello, |r| matches!(r, Response::Welcome { .. }));
        });
        // ns_per_call's clock includes the think time; take it back out.
        out.insert("server.loop.rtt_hello_us", rtt / 1e3 - THINK_US as f64);
        // 20 calls a round; each renders every instrument of the process.
        out.insert(
            "obs.metrics_scrape_us",
            ns_per_call(20, |_| ask(&Request::Metrics, |r| matches!(r, Response::Metrics { .. })))
                / 1e3,
        );
        Ok(())
    };
    let result = probe(out);
    handle.shutdown().map_err(err("shutdown"))?;
    result
}

fn obs(out: &mut Layers) {
    // A registry of its own, so the probe's million increments do not land
    // in the process-wide one the server-side layer metrics are read from.
    let registry = jigsaw_obs::Registry::new();
    let counter = registry.counter("probe_total", &[]);
    let hist = registry.histogram("probe_us", &[]);
    out.insert("obs.counter_inc_ns", ns_per_call(1_000_000, |_| counter.inc()));
    out.insert("obs.hist_record_ns", ns_per_call(1_000_000, |i| hist.record(i as u64 & 0xFFFF)));
    black_box((counter.get(), hist.snapshot()));
}

/// Metrics computed from others: the round trip no probe explains, and the
/// share of the workload's own op time the probes leave unexplained.
pub fn derive(workload: &str, op_p50_us: f64, layers: &mut Layers) {
    let get = |layers: &Layers, k: &str| layers.get(k).copied().unwrap_or(0.0);
    // One request/response pair through the protocol layer, both ends.
    let exchange_us = (get(layers, "server.protocol.request_encode_ns")
        + get(layers, "server.protocol.request_decode_ns")
        + get(layers, "server.protocol.response_encode_ns")
        + get(layers, "server.protocol.response_decode_ns")
        + 2.0 * get(layers, "server.protocol.frame_rw_ns"))
        / 1e3;
    layers.insert("server.loop.wake_gap_us", get(layers, "server.loop.rtt_hello_us") - exchange_us);
    let explained_us = match workload {
        "serve_warm" | "serve_mixed" => exchange_us + get(layers, "core.session.estimate_ns") / 1e3,
        "serve_subscribe" => {
            // Tier-0 estimate, then one refine step and one frame per
            // streamed interval beyond the opening one.
            let frames = get(layers, "subscribe.frames_per_probe");
            exchange_us * (frames / 2.0).max(1.0)
                + get(layers, "core.session.estimate_ns") / 1e3
                + (frames - 2.0).max(0.0) * get(layers, "core.session.refine_once_us")
        }
        // Sweeps report the share their own phase clock leaves (set by the
        // workload from `SweepResult.stats`).
        _ => return,
    };
    layers.insert("layers.residual_pct", (op_p50_us - explained_us) / op_p50_us * 100.0);
}
