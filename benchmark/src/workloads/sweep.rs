//! The three in-process sweep workloads. Each round is one cold
//! `SweepRunner::run` over the whole space with `threads = nproc`; an *op*
//! is one swept parameter point.

use std::sync::Arc;
use std::time::Instant;

use jigsaw_blackbox::models::{SynthBasis, UserProfile, UserSelection};
use jigsaw_blackbox::{BlackBox, FnBlackBox, ParamDecl, ParamSpace};
use jigsaw_core::{JigsawConfig, SweepResult, SweepRunner};
use jigsaw_pdb::{
    AggFunc, AggSpec, BlackBoxSim, Catalog, ColumnType, DbmsEngine, Engine, Expr, Plan, PlanSim,
    Simulation, TableBuilder, Value,
};
use jigsaw_prng::SeedSet;

use crate::gen::Fnv;
use crate::harness::{aux_median, Findings, Round, Workload};
use crate::host;
use crate::json::Json;
use crate::trace::Tracer;

/// `sweep_reuse`: points and basis classes (90 % of points reuse).
pub const REUSE_POINTS: usize = 20_000;
pub const REUSE_BASES: usize = 2_000;
/// `sweep_hostile`: points, each a full simulation and a new basis.
pub const RAMP_POINTS: usize = 4_000;
/// `sweep_plan`: rows of the seeded `users` table and swept weeks.
/// Calibrated down from the issue's 500 rows (0.8 s a round on this host:
/// ten rounds would not fit in 8 s) to 0.17 s a round, which gives the ≈ 45
/// rounds a p75 over rounds needs. Completion still owns 98 % of a round.
pub const USERS: usize = 100;
pub const WEEKS: usize = 52;
/// Worlds per point (the paper's n) and fingerprint length (its m).
const N: u64 = 1000;
const M: u64 = 10;

/// What a correct sweep must report. The counters are tied together by
/// the executor's bookkeeping — every point pays its m-world fingerprint,
/// every basis the n − m completion — so they are checked as identities
/// around the basis count, and the basis count against its nominal value.
struct Expect {
    points: usize,
    /// Basis distributions the model has by construction.
    bases: usize,
    /// Extra bases tolerated. Zero where every point is its own basis.
    /// Where points reuse, some seeds draw a world on which a point's
    /// fingerprint does not map onto its class's basis within the 1e-9
    /// tolerance; the point is then simulated in full and becomes a basis
    /// itself (`sweep_reuse`: 2001 bases at seed 107; the 80-class serve
    /// scenario: 85 at seed 5). That is a forfeited reuse, not a wrong
    /// answer, and a run on such a seed must not fail for it — so the band
    /// is wide (+25 %) and only catches reuse breaking wholesale; the exact
    /// count is reported and flagged as varying with the seed.
    slack: usize,
}

enum Kind {
    Reuse,
    Hostile,
    Plan,
}

pub struct Sweep {
    kind: Kind,
    seed: u64,
    cfg: Arc<JigsawConfig>,
    expect: Expect,
    sim: Option<Box<dyn Simulation>>,
}

/// The reuse-hostile black box of E12, `z + (p+1)·z³ + p/N`: the cubic
/// coefficient differs per point, so no two points are affine images.
pub fn ramp_model(points: usize) -> Arc<dyn BlackBox> {
    let n = points as f64;
    Arc::new(FnBlackBox::new("Ramp", 1, move |p: &[f64], seed| {
        use jigsaw_prng::{dist::Normal, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seeded(seed);
        let z = Normal::standard(&mut rng);
        z + (p[0] + 1.0) * z * z * z + p[0] / n
    }))
}

/// A seeded `users(id, base, growth, shape)` table and the per-tuple
/// `UserReq` VG-function (E1's data-bound shape).
pub fn user_catalog(n_users: usize, seed: u64) -> Catalog {
    let mut catalog = Catalog::new();
    let mut table = TableBuilder::new()
        .column("id", ColumnType::Int)
        .column("base", ColumnType::Float)
        .column("growth", ColumnType::Float)
        .column("shape", ColumnType::Float);
    for (i, u) in UserSelection::synthetic(n_users, seed).users().iter().enumerate() {
        table = table.row(vec![
            Value::Int(i as i64),
            Value::Float(u.base),
            Value::Float(u.growth),
            Value::Float(u.shape),
        ]);
    }
    catalog.add_table("users", table.build());
    catalog.add_function(Arc::new(FnBlackBox::new("UserReq", 5, |p: &[f64], seed| {
        let profile = UserProfile { base: p[1], growth: p[2], shape: p[3] };
        UserSelection::user_requirement(&profile, p[4], seed.derive(p[0] as u64))
    })));
    catalog
}

/// `SELECT SUM(UserReq(id, base, growth, shape, @week)) FROM users` on the
/// given engine, without E1's synthetic per-query set-up burn.
pub fn user_plan_sim(engine: Arc<dyn Engine>, n_users: usize, seed: u64) -> PlanSim {
    let catalog = Arc::new(user_catalog(n_users, seed));
    let args = ["id", "base", "growth", "shape"].map(Expr::col).into_iter();
    let plan = Plan::Scan { table: "users".into() }
        .project(vec![("req", Expr::call("UserReq", args.chain([Expr::param("week")]).collect()))])
        .aggregate(
            vec![],
            vec![AggSpec { name: "total".into(), func: AggFunc::Sum, arg: Some(Expr::col("req")) }],
        );
    let bound = plan.bind(&catalog, &["week".to_string()]).expect("users plan binds");
    let space = ParamSpace::new(vec![ParamDecl::range("week", 0, WEEKS as i64 - 1, 1)]);
    PlanSim::new(engine, bound, catalog, space, SeedSet::new(seed))
}

fn range_space(points: usize) -> ParamSpace {
    ParamSpace::new(vec![ParamDecl::range("p", 0, points as i64 - 1, 1)])
}

impl Sweep {
    fn new(kind: Kind, seed: u64, expect: Expect) -> Sweep {
        let cfg = Arc::new(JigsawConfig::paper().with_threads(host::nproc()));
        Sweep { kind, seed, cfg, expect, sim: None }
    }

    pub fn reuse(seed: u64) -> Sweep {
        // One point per class becomes a basis; every other point maps onto
        // it: nominally 2 180 000 worlds and 18 000 reused points.
        Sweep::new(
            Kind::Reuse,
            seed,
            Expect { points: REUSE_POINTS, bases: REUSE_BASES, slack: REUSE_BASES / 4 },
        )
    }

    pub fn hostile(seed: u64) -> Sweep {
        Sweep::new(
            Kind::Hostile,
            seed,
            Expect { points: RAMP_POINTS, bases: RAMP_POINTS, slack: 0 },
        )
    }

    pub fn plan(seed: u64) -> Sweep {
        Sweep::new(Kind::Plan, seed, Expect { points: WEEKS, bases: WEEKS, slack: 0 })
    }

    fn build_sim(&self) -> Box<dyn Simulation> {
        let seeds = SeedSet::new(self.seed);
        match self.kind {
            Kind::Reuse => Box::new(BlackBoxSim::new(
                Arc::new(SynthBasis::new(REUSE_BASES)),
                range_space(REUSE_POINTS),
                seeds,
            )),
            Kind::Hostile => {
                Box::new(BlackBoxSim::new(ramp_model(RAMP_POINTS), range_space(RAMP_POINTS), seeds))
            }
            Kind::Plan => Box::new(user_plan_sim(Arc::new(DbmsEngine::new()), USERS, self.seed)),
        }
    }

    /// Counters against the expectation; the message names the first
    /// counter that is off.
    fn check(&self, r: &SweepResult) -> Result<(), String> {
        let s = &r.stats;
        let e = &self.expect;
        let eq = |what: &str, got: u64, want: u64| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{what}: got {got}, expected {want}"))
            }
        };
        let bases = s.bases_per_column.iter().sum::<usize>();
        if !(e.bases..=e.bases + e.slack).contains(&bases) {
            return Err(format!(
                "bases: got {bases}, expected {}..={}",
                e.bases,
                e.bases + e.slack
            ));
        }
        eq("points", s.points as u64, e.points as u64)?;
        eq("worlds", s.worlds_evaluated, e.points as u64 * M + bases as u64 * (N - M))?;
        eq("full simulations", s.full_simulations as u64, bases as u64)?;
        eq("reused", s.reused as u64, (e.points - bases) as u64)?;
        eq("warm hits", s.warm_hits as u64, 0)?;
        eq("result rows", r.points.len() as u64, e.points as u64)
    }
}

/// Identity of a sweep's answer: every point's moments and provenance.
fn result_hash(r: &SweepResult) -> u64 {
    let mut h = Fnv::default();
    for p in &r.points {
        for (m, from) in p.metrics.iter().zip(&p.reused_from) {
            h.push(m.expectation().to_bits());
            h.push(m.std_dev().to_bits());
            h.push(m.n() as u64);
            h.push(from.map_or(u64::MAX, |id| id.0 as u64));
        }
    }
    h.0
}

impl Workload for Sweep {
    fn sizes(&self) -> Json {
        let base = Json::obj()
            .with("points", self.expect.points)
            .with("n_samples", N)
            .with("fingerprint_len", M)
            .with("threads", self.cfg.threads);
        match self.kind {
            Kind::Reuse => base.with("basis_classes", REUSE_BASES),
            Kind::Hostile => base,
            Kind::Plan => base.with("users", USERS),
        }
    }

    fn clients(&self) -> usize {
        // In-process: the caller plus the executor's workers.
        self.cfg.threads
    }

    fn setup(&mut self) -> Result<(), String> {
        let sim = self.build_sim();
        let warm = SweepRunner::new(Arc::clone(&self.cfg))
            .run(&*sim)
            .map_err(|e| format!("warm-up sweep: {e}"))?;
        self.check(&warm).map_err(|e| format!("warm-up sweep: {e}"))?;
        self.sim = Some(sim);
        Ok(())
    }

    fn teardown(&mut self) {
        self.sim = None;
    }

    fn round(&mut self, idx: usize, tr: &mut Tracer) -> Result<Round, String> {
        let sim = self.sim.as_deref().ok_or("round before setup")?;
        let ops = self.expect.points as u64;
        let mut round = Round { ops, ..Round::default() };
        let span = tr.enter("core.optimizer.run", idx as u64);
        let t0 = Instant::now();
        let result = SweepRunner::new(Arc::clone(&self.cfg)).run(sim);
        round.secs = t0.elapsed().as_secs_f64();
        if let Ok(r) = &result {
            // The executor's phases interleave per wave; laid end to end
            // here they still give each phase's share of the run.
            let ph = r.stats.phase;
            let mut at = tr.start_of(span);
            for (name, d) in [
                ("core.executor.fingerprint", ph.fingerprint),
                ("core.executor.resolve", ph.resolve),
                ("core.executor.completion", ph.completion),
                ("core.executor.commit", ph.commit),
            ] {
                tr.synth(name, idx as u64, at, d.as_nanos() as u64);
                at += d.as_nanos() as u64;
            }
        }
        tr.exit(span);
        match result {
            Err(e) => round.fail(ops, format!("round {idx}: sweep failed: {e}")),
            Ok(r) => {
                if let Err(e) = self.check(&r) {
                    round.fail(ops, format!("round {idx}: {e}"));
                }
                round.result_hash = result_hash(&r);
                let s = &r.stats;
                let phases = [
                    ("fingerprint_s", s.phase.fingerprint),
                    ("resolve_s", s.phase.resolve),
                    ("completion_s", s.phase.completion),
                    ("commit_s", s.phase.commit),
                ];
                let accounted: f64 = phases.iter().map(|(_, d)| d.as_secs_f64()).sum();
                for (name, d) in phases {
                    round.aux.insert(name, d.as_secs_f64());
                }
                round.aux.insert("residual_s", s.elapsed.as_secs_f64() - accounted);
                round.aux.insert("elapsed_s", s.elapsed.as_secs_f64());
                round.aux.insert("waves", s.waves as f64);
                round.aux.insert("pairings", s.pairings_tested as f64);
                round.aux.insert("worlds", s.worlds_evaluated as f64);
                round.aux.insert("bases", s.bases_per_column.iter().sum::<usize>() as f64);
                round.aux.insert("reuse_rate", s.reuse_rate());
            }
        }
        Ok(round)
    }

    fn tail_level(&self) -> Option<f64> {
        None
    }

    fn results_repeat(&self) -> bool {
        true
    }

    fn finish(&mut self, rounds: &[Round], out: &mut Findings) {
        let med = |key: &str| aux_median(rounds, key);
        let points = self.expect.points as f64;
        for (layer, key) in [
            ("core.executor.fingerprint_s", "fingerprint_s"),
            ("core.executor.resolve_s", "resolve_s"),
            ("core.executor.completion_s", "completion_s"),
            ("core.executor.commit_s", "commit_s"),
            ("core.executor.residual_s", "residual_s"),
            ("core.executor.waves", "waves"),
            ("core.executor.reuse_rate", "reuse_rate"),
        ] {
            out.layer(layer, med(key));
        }
        out.layer("core.executor.pairings_per_point", med("pairings") / points);
        out.layer("sweep.worlds_per_point", med("worlds") / points);
        out.layer("sweep.bases", med("bases"));
        // What the executor's own phase clock leaves unexplained.
        let elapsed = med("elapsed_s");
        if elapsed > 0.0 {
            out.layer("layers.residual_pct", med("residual_s") / elapsed * 100.0);
        }
        // Exact on every seed where every point is its own basis; nominal
        // (some seeds forfeit a reuse or a few) where points reuse. The
        // pairings tested vary with the seed everywhere: the normalization
        // index now and then proposes an accidental second candidate
        // (sweep_reuse: 18 000 at seed 7, 18 090 at seed 100).
        let exact = self.expect.slack == 0;
        out.count("worlds_per_point", med("worlds") / points, exact);
        out.count("bases", med("bases"), exact);
        out.count("reuse_rate", med("reuse_rate"), exact);
        out.count("waves", med("waves"), true);
        out.count("pairings", med("pairings"), false);
        out.count("result_hash_low32", (rounds[0].result_hash & 0xFFFF_FFFF) as f64, false);
    }
}
