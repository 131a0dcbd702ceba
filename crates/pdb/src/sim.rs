//! The `Simulation` abstraction: "the entire Monte Carlo simulation" as a
//! single stochastic function.
//!
//! The paper's key move (§3): "Taken to one extreme, the entire Monte Carlo
//! simulation shown inside the dashed box in Figure 3 can be treated as the
//! stochastic function F." Jigsaw's optimizer fingerprints *that* function —
//! the composition of parameter binding, black-box invocation, and query
//! evaluation — not individual models.
//!
//! [`Simulation::eval_batch`] evaluates the query at a parameter point for
//! a window of world indices. World `k` always runs under seed `σ_k`, so the
//! first `m` worlds double as the fingerprint and the remaining `n − m`
//! complete the estimate with no wasted work.
//!
//! A window costs one black-box call, not one per world: [`BlackBoxSim`]
//! hands the window to [`BlackBox::eval_seeds`] as one [`Worlds`] window
//! of its [`SeedTable`], the bundle engine's calls pass seed-only windows
//! per stack chunk, and the batched form returns the per-world values bit
//! for bit.

use std::sync::Arc;

use jigsaw_blackbox::{BlackBox, ParamSpace};
use jigsaw_prng::{Seed, SeedSet, SeedTable, Worlds};

use crate::batch::WorldBatch;
use crate::bundle::BundleCell;
use crate::catalog::Catalog;
use crate::error::{PdbError, Result};
use crate::exec::{Engine, ExecContext};
use crate::plan::BoundPlan;

/// A parameterized Monte Carlo simulation with named scalar outputs.
///
/// Implementations provide the *sequential* window evaluation only; callers
/// that spend a thread budget schedule windows on a worker pool (or go
/// through [`crate::worlds::eval_batch_on`], which splits a window across
/// scoped threads and stitches the results back bit-identically — worlds
/// are seed-addressed, so sub-windows compose).
pub trait Simulation: Send + Sync {
    /// Names of the output columns.
    fn columns(&self) -> &[String];

    /// The parameter space the simulation is defined over.
    fn space(&self) -> &ParamSpace;

    /// Evaluate output columns for worlds `start .. start+count` at `point`
    /// into a columnar [`WorldBatch`]. World `k` depends on `σ_k` alone, so
    /// any split of a window into sub-windows, stitched in order, gives the
    /// same bytes.
    fn eval_batch(&self, point: &[f64], start: usize, count: usize) -> Result<WorldBatch>;
}

/// Worlds a [`BlackBoxSim`] tabulates: `σ_0 … σ_{L−1}` and each seed's
/// standard normal, at least the paper's n = 1000 worlds per point. Neither
/// depends on the point (paper §3.1), so one [`SeedTable`] built with the
/// simulation serves every point's fingerprint and completion windows: a
/// model that reads its normals from the window draws none of them again.
/// A window reaching past the table derives its remaining seeds per stack
/// chunk, and those worlds draw their normals per call.
pub const SEED_TABLE_LEN: usize = 1024;

/// Seeds per stack chunk where seeds are derived on the fly: a bundle
/// call's `σ_k.derive(site)`, or a window past [`SEED_TABLE_LEN`].
const SEED_CHUNK: usize = 64;

/// `out[i] = f(params, seed_of(i))`, through [`BlackBox::eval_seeds`] once
/// per stack chunk of seeds, each a seed-only [`Worlds`] window (no heap
/// allocation).
pub(crate) fn eval_derived(
    f: &dyn BlackBox,
    params: &[f64],
    out: &mut [f64],
    seed_of: impl Fn(usize) -> Seed,
) {
    let mut buf = [Seed(0); SEED_CHUNK];
    for (c, out) in out.chunks_mut(SEED_CHUNK).enumerate() {
        let seeds = &mut buf[..out.len()];
        for (i, seed) in seeds.iter_mut().enumerate() {
            *seed = seed_of(c * SEED_CHUNK + i);
        }
        f.eval_seeds(params, Worlds::from_seeds(seeds), out);
    }
}

/// A single black-box function exposed as a one-column simulation — the
/// shape most of the paper's experiments use.
pub struct BlackBoxSim {
    bb: Arc<dyn BlackBox>,
    seeds: SeedSet,
    /// `σ_0 … σ_{L−1}` and their normals ([`SEED_TABLE_LEN`]), built once
    /// here.
    table: SeedTable,
    space: ParamSpace,
    columns: [String; 1],
}

impl BlackBoxSim {
    /// Wrap a black box with its parameter space and the session seed set.
    pub fn new(bb: Arc<dyn BlackBox>, space: ParamSpace, seeds: SeedSet) -> Self {
        let name = bb.name().to_string();
        let table = SeedTable::new(seeds, SEED_TABLE_LEN);
        BlackBoxSim { bb, seeds, table, space, columns: [name] }
    }
}

impl Simulation for BlackBoxSim {
    fn columns(&self) -> &[String] {
        &self.columns
    }

    fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// One [`BlackBox::eval_seeds`] call over the window's part of the seed
    /// table; worlds past the table take seed-only windows per chunk.
    fn eval_batch(&self, point: &[f64], start: usize, count: usize) -> Result<WorldBatch> {
        let mut col = vec![0.0; count];
        let tabled = SEED_TABLE_LEN.saturating_sub(start).min(count);
        let (head, rest) = col.split_at_mut(tabled);
        if tabled > 0 {
            self.bb.eval_seeds(point, self.table.window(start, tabled), head);
        }
        if !rest.is_empty() {
            eval_derived(&*self.bb, point, rest, |i| self.seeds.seed(start + tabled + i));
        }
        Ok(WorldBatch::from_columns(vec![col], count))
    }
}

/// A bound query plan executed by a PDB engine, exposed as a simulation.
///
/// The plan must reduce to a **single logical row** (aggregate queries or
/// scalar `SELECT`s) — exactly the shape the paper's example scenarios have
/// — and that row must exist in every world; anything else is
/// [`PdbError::Unsupported`] on either engine.
pub struct PlanSim {
    engine: Arc<dyn Engine>,
    plan: BoundPlan,
    catalog: Arc<Catalog>,
    seeds: SeedSet,
    space: ParamSpace,
    columns: Vec<String>,
}

impl PlanSim {
    /// Wrap a bound plan. `space` declares the `@parameters` in the same
    /// order the plan was bound with.
    pub fn new(
        engine: Arc<dyn Engine>,
        plan: BoundPlan,
        catalog: Arc<Catalog>,
        space: ParamSpace,
        seeds: SeedSet,
    ) -> Self {
        let columns = plan.schema.names().into_iter().map(String::from).collect();
        PlanSim { engine, plan, catalog, seeds, space, columns }
    }

    /// The engine used for execution.
    pub fn engine_name(&self) -> &str {
        self.engine.name()
    }

    /// Run the plan over one world window and return the single logical
    /// row's cells.
    ///
    /// The row must exist in every world of the window: a row that a
    /// stochastic filter removed from some worlds has no output there, and
    /// serving its cells would count those worlds as if it had.
    fn execute_row(&self, point: &[f64], start: usize, count: usize) -> Result<Vec<BundleCell>> {
        let ctx = ExecContext::new(self.seeds, point, count).with_worlds(start, count);
        let mut rows = self.engine.execute_rows(&self.plan, &self.catalog, &ctx)?;
        if rows.len() != 1 {
            return Err(PdbError::Unsupported(format!(
                "simulation queries must produce exactly one row, got {}",
                rows.len()
            )));
        }
        let row = rows.pop().expect("length checked above");
        let present = row.presence.count(count);
        if present != count {
            return Err(PdbError::Unsupported(format!(
                "simulation queries must produce their row in every world; \
                 a stochastic filter removed it from {} of {count} worlds",
                count - present
            )));
        }
        Ok(row.cells)
    }

    /// Convert the row's cells into per-column world vectors: Det cells
    /// broadcast across the window, Stoch cells are already columns.
    fn cells_to_columns(&self, cells: Vec<BundleCell>, count: usize) -> Result<Vec<Vec<f64>>> {
        let mut out = Vec::with_capacity(self.columns.len());
        for cell in cells {
            out.push(match cell {
                BundleCell::Det(v) => v
                    .broadcast_f64(count)
                    .ok_or_else(|| PdbError::TypeError("non-numeric simulation output".into()))?,
                BundleCell::Stoch(xs) => xs,
            });
        }
        Ok(out)
    }
}

impl Simulation for PlanSim {
    fn columns(&self) -> &[String] {
        &self.columns
    }

    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn eval_batch(&self, point: &[f64], start: usize, count: usize) -> Result<WorldBatch> {
        // A zero-world window has no worlds to disagree about: skip the
        // engines (whose bundle tables require at least one world) and
        // return the schema's worth of empty columns.
        if count == 0 {
            return Ok(WorldBatch::empty(self.columns.len()));
        }
        let cells = self.execute_row(point, start, count)?;
        Ok(WorldBatch::from_columns(self.cells_to_columns(cells, count)?, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{DbmsEngine, DirectEngine, Engine};
    use crate::expr::Expr;
    use crate::plan::Plan;
    use crate::worlds::{eval_window_on, EvalPath};
    use jigsaw_blackbox::{FnBlackBox, ParamDecl};

    fn space() -> ParamSpace {
        ParamSpace::new(vec![ParamDecl::range("w", 0, 9, 1)])
    }

    /// `plan`, bound over the black box `F` and the parameter `w`, as a
    /// simulation on each engine: `[direct, dbms]`.
    fn on_both_engines(
        f: impl Fn(&[f64], jigsaw_prng::Seed) -> f64 + Send + Sync + 'static,
        plan: Plan,
        master: u64,
    ) -> [PlanSim; 2] {
        let mut cat = Catalog::new();
        cat.add_function(Arc::new(FnBlackBox::new("F", 1, f)));
        let plan = plan.bind(&cat, &["w".to_string()]).unwrap();
        let cat = Arc::new(cat);
        let engines: [Arc<dyn Engine>; 2] =
            [Arc::new(DirectEngine::new()), Arc::new(DbmsEngine::new())];
        engines.map(|e| PlanSim::new(e, plan.clone(), cat.clone(), space(), SeedSet::new(master)))
    }

    /// `SELECT @w AS det, F(@w) AS sto`: a Det-shaped and a Stoch-shaped cell.
    fn det_and_stoch() -> Plan {
        Plan::OneRow.project(vec![
            ("det", Expr::param("w")),
            ("sto", Expr::call("F", vec![Expr::param("w")])),
        ])
    }

    #[test]
    fn blackbox_sim_matches_direct_eval() {
        let seeds = SeedSet::new(4);
        let bb: Arc<dyn BlackBox> =
            Arc::new(FnBlackBox::new("F", 1, |p: &[f64], s| p[0] * 10.0 + (s.0 % 7) as f64));
        let sim = BlackBoxSim::new(bb.clone(), space(), seeds);
        let out = sim.eval_batch(&[3.0], 2, 4).unwrap();
        let want: Vec<f64> = (2..6).map(|k| bb.eval(&[3.0], seeds.seed(k))).collect();
        assert_eq!(out.columns(), &[want]);
    }

    #[test]
    fn blackbox_sim_windows_across_the_seed_table_match_the_eval_loop() {
        // Windows inside the table, straddling its end, and wholly past
        // it: each world still runs under σ_k, whichever way its seed
        // was found.
        let seeds = SeedSet::new(12);
        let bb: Arc<dyn BlackBox> = Arc::new(jigsaw_blackbox::models::SynthBasis::new(3));
        let sim = BlackBoxSim::new(bb.clone(), space(), seeds);
        let l = SEED_TABLE_LEN;
        for (start, count) in [(0, 0), (0, 1000), (l - 10, 10), (l - 70, 200), (l, 65), (5 * l, 3)]
        {
            let got = sim.eval_batch(&[4.0], start, count).unwrap();
            let want: Vec<u64> =
                (start..start + count).map(|k| bb.eval(&[4.0], seeds.seed(k)).to_bits()).collect();
            let got: Vec<u64> = got.column(0).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "window {start}+{count}");
        }
    }

    #[test]
    fn a_window_straddling_the_table_end_is_the_eval_loop_for_every_model_shape() {
        // Worlds 1000..1050: 24 read from the table, 26 past its end.
        use jigsaw_blackbox::models::{Demand, SynthBasis};
        use jigsaw_blackbox::Counted;
        let seeds = SeedSet::new(21);
        let counted = Arc::new(Counted::new(Demand::enterprise()));
        let models: [(Arc<dyn BlackBox>, Vec<f64>); 4] = [
            (Arc::new(SynthBasis::new(4)), vec![6.0]),
            (Arc::new(Demand::paper()), vec![30.0, 12.0]),
            (Arc::new(FnBlackBox::new("F", 1, |p: &[f64], s| p[0] + (s.0 % 9) as f64)), vec![2.0]),
            (counted.clone(), vec![20.0, 10.0]),
        ];
        for (bb, point) in models {
            let sim = BlackBoxSim::new(bb.clone(), space(), seeds);
            let got = sim.eval_batch(&point, 1000, 50).unwrap();
            let want: Vec<u64> =
                (1000..1050).map(|k| bb.eval(&point, seeds.seed(k)).to_bits()).collect();
            let got: Vec<u64> = got.column(0).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{}", bb.name());
        }
        // `Counted` still counts one invocation per world, tabled or not.
        let sim = BlackBoxSim::new(counted.clone(), space(), seeds);
        let before = counted.counter().get();
        sim.eval_batch(&[20.0, 10.0], 1000, 50).unwrap();
        assert_eq!(counted.counter().get() - before, 50);
    }

    #[test]
    fn table_worlds_arrive_with_their_normals_and_the_rest_without() {
        // Records each window's length and whether it came from the table.
        struct Windows(std::sync::Mutex<Vec<(usize, bool)>>);
        impl BlackBox for Windows {
            fn name(&self) -> &str {
                "W"
            }
            fn arity(&self) -> usize {
                0
            }
            fn eval(&self, _: &[f64], seed: Seed) -> f64 {
                seed.0 as f64
            }
            fn eval_seeds(&self, _: &[f64], worlds: Worlds<'_>, out: &mut [f64]) {
                self.0.lock().unwrap().push((worlds.len(), worlds.is_tabled()));
                worlds.standard_normals(out);
            }
        }
        let seeds = SeedSet::new(3);
        let bb = Arc::new(Windows(Default::default()));
        let sim = BlackBoxSim::new(bb.clone(), space(), seeds);
        let l = SEED_TABLE_LEN;
        for (start, count) in [(0, 1000), (1000, 50), (l, 70)] {
            let got = sim.eval_batch(&[], start, count).unwrap();
            let mut want = vec![0.0; count];
            let window: Vec<Seed> = (start..start + count).map(|k| seeds.seed(k)).collect();
            Worlds::from_seeds(&window).standard_normals(&mut want);
            assert_eq!(got.column(0), &want[..], "window {start}+{count}");
        }
        let windows = bb.0.lock().unwrap().clone();
        let want = [(1000, true), (24, true), (26, false), (64, false), (6, false)];
        assert_eq!(windows, want);
    }

    #[test]
    fn plan_sim_single_row_contract() {
        let call = Plan::OneRow.project(vec![("out", Expr::call("F", vec![Expr::param("w")]))]);
        for sim in on_both_engines(|p, _| p[0], call, 4) {
            assert_eq!(sim.eval_batch(&[5.0], 0, 3).unwrap().columns(), &[vec![5.0, 5.0, 5.0]]);
            assert_eq!(sim.columns(), &["out".to_string()]);
        }
    }

    #[test]
    fn plan_sim_zero_count_is_empty_on_both_engines() {
        // A zero-world window must not reach the engines (whose bundle
        // tables assert n_worlds > 0) and must yield one empty column per
        // output — for Det-shaped and Stoch-shaped cells alike.
        for sim in on_both_engines(|p, s| p[0] + (s.0 % 13) as f64, det_and_stoch(), 4) {
            let batch = sim.eval_batch(&[5.0], 7, 0).unwrap();
            assert_eq!(batch, WorldBatch::empty(2), "engine={}", sim.engine_name());
        }
    }

    #[test]
    fn batch_matches_oracle_on_both_engines() {
        for sim in on_both_engines(|p, s| p[0] * 0.5 + (s.0 % 31) as f64, det_and_stoch(), 9) {
            let oracle = eval_window_on(&sim, &[4.0], 2, 11, EvalPath::Oracle).unwrap();
            let batch = sim.eval_batch(&[4.0], 2, 11).unwrap();
            assert_eq!(batch, oracle, "engine={}", sim.engine_name());
        }
    }

    #[test]
    fn a_partly_present_row_is_unsupported_on_both_engines() {
        // `SELECT F(@w) AS out WHERE F(@w) > 0.5` with F alternating 0/1
        // over seeds: the stochastic filter keeps the row in some worlds
        // only, and no single output column can stand for the others.
        let call = || Expr::call("F", vec![Expr::param("w")]);
        let plan = Plan::OneRow
            .filter(Expr::cmp(crate::expr::CmpOp::Gt, call(), Expr::lit_f(0.5)))
            .project(vec![("out", call())]);
        for sim in on_both_engines(|_, s| (s.0 % 2) as f64, plan, 3) {
            let oracle = eval_window_on(&sim, &[1.0], 0, 16, EvalPath::Oracle);
            let batch = sim.eval_batch(&[1.0], 0, 16);
            for got in [oracle.map(|_| ()), batch.map(|_| ())] {
                let name = sim.engine_name();
                assert!(matches!(got, Err(PdbError::Unsupported(_))), "engine={name}: {got:?}");
            }
        }
    }

    #[test]
    fn both_engines_agree_through_sim() {
        let [a, b] = on_both_engines(|p, s| p[0] + (s.0 % 100) as f64, det_and_stoch(), 8);
        assert_eq!(
            a.eval_batch(&[2.0], 0, 8).unwrap(),
            b.eval_batch(&[2.0], 0, 8).unwrap(),
            "engines must sample identical possible worlds"
        );
    }
}
