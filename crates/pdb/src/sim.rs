//! The `Simulation` abstraction: "the entire Monte Carlo simulation" as a
//! single stochastic function.
//!
//! The paper's key move (§3): "Taken to one extreme, the entire Monte Carlo
//! simulation shown inside the dashed box in Figure 3 can be treated as the
//! stochastic function F." Jigsaw's optimizer fingerprints *that* function —
//! the composition of parameter binding, black-box invocation, and query
//! evaluation — not individual models.
//!
//! [`Simulation::eval_worlds`] evaluates the query at a parameter point for
//! a window of world indices. World `k` always runs under seed `σ_k`, so the
//! first `m` worlds double as the fingerprint and the remaining `n − m`
//! complete the estimate with no wasted work.

use std::sync::Arc;

use jigsaw_blackbox::{BlackBox, ParamSpace};
use jigsaw_prng::SeedSet;

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
/// through [`crate::worlds::eval_batch_on`] / the per-world
/// [`crate::worlds::eval_worlds`] oracle, which split a window across
/// scoped threads and stitch the results back bit-identically — worlds are
/// seed-addressed, so sub-windows compose).
pub trait Simulation: Send + Sync {
    /// Names of the output columns.
    fn columns(&self) -> &[String];

    /// The parameter space the simulation is defined over.
    fn space(&self) -> &ParamSpace;

    /// Evaluate output columns for worlds `start .. start+count` at `point`.
    ///
    /// Returns `out[col][world_in_window]`. This is the per-world **oracle**
    /// path: implementations walk worlds one at a time, and the columnar
    /// path is property-tested bit-identical against it.
    fn eval_worlds(&self, point: &[f64], start: usize, count: usize) -> Result<Vec<Vec<f64>>>;

    /// Evaluate the same window into a columnar [`WorldBatch`] in bulk.
    ///
    /// The default bridges through [`Simulation::eval_worlds`];
    /// implementations whose engines have struct-of-arrays kernels
    /// ([`PlanSim`]) override it to fill contiguous columns directly. Must
    /// be **bit-identical** to the oracle path for every window.
    fn eval_batch(&self, point: &[f64], start: usize, count: usize) -> Result<WorldBatch> {
        Ok(WorldBatch::from_columns(self.eval_worlds(point, start, count)?, count))
    }
}

/// A single black-box function exposed as a one-column simulation — the
/// shape most of the paper's experiments use.
pub struct BlackBoxSim {
    bb: Arc<dyn BlackBox>,
    seeds: SeedSet,
    space: ParamSpace,
    columns: [String; 1],
}

impl BlackBoxSim {
    /// Wrap a black box with its parameter space and the session seed set.
    pub fn new(bb: Arc<dyn BlackBox>, space: ParamSpace, seeds: SeedSet) -> Self {
        let name = bb.name().to_string();
        BlackBoxSim { bb, seeds, space, columns: [name] }
    }
}

impl Simulation for BlackBoxSim {
    fn columns(&self) -> &[String] {
        &self.columns
    }

    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn eval_worlds(&self, point: &[f64], start: usize, count: usize) -> Result<Vec<Vec<f64>>> {
        let mut col = Vec::with_capacity(count);
        for k in start..start + count {
            col.push(self.bb.eval(point, self.seeds.seed(k)));
        }
        Ok(vec![col])
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
    /// row's cells. `columnar` selects the engine kernels.
    ///
    /// The row must exist in every world of the window: a row that a
    /// stochastic filter removed from some worlds has no output there, and
    /// serving its cells would count those worlds as if it had.
    fn execute_row(
        &self,
        point: &[f64],
        start: usize,
        count: usize,
        columnar: bool,
    ) -> Result<Vec<BundleCell>> {
        let ctx = ExecContext {
            seeds: self.seeds,
            params: point,
            world_start: start,
            n_worlds: count,
            columnar,
        };
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

    fn eval_worlds(&self, point: &[f64], start: usize, count: usize) -> Result<Vec<Vec<f64>>> {
        // A zero-world window has no worlds to disagree about: skip the
        // engines (whose bundle tables require at least one world) and
        // return the schema's worth of empty columns.
        if count == 0 {
            return Ok(vec![Vec::new(); self.columns.len()]);
        }
        let cells = self.execute_row(point, start, count, false)?;
        self.cells_to_columns(cells, count)
    }

    fn eval_batch(&self, point: &[f64], start: usize, count: usize) -> Result<WorldBatch> {
        if count == 0 {
            return Ok(WorldBatch::empty(self.columns.len()));
        }
        let cells = self.execute_row(point, start, count, true)?;
        Ok(WorldBatch::from_columns(self.cells_to_columns(cells, count)?, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{DbmsEngine, DirectEngine, Engine};
    use crate::expr::Expr;
    use crate::plan::Plan;
    use jigsaw_blackbox::{FnBlackBox, ParamDecl};

    fn space() -> ParamSpace {
        ParamSpace::new(vec![ParamDecl::range("w", 0, 9, 1)])
    }

    #[test]
    fn blackbox_sim_matches_direct_eval() {
        let seeds = SeedSet::new(4);
        let bb: Arc<dyn BlackBox> =
            Arc::new(FnBlackBox::new("F", 1, |p: &[f64], s| p[0] * 10.0 + (s.0 % 7) as f64));
        let sim = BlackBoxSim::new(bb.clone(), space(), seeds);
        let out = sim.eval_worlds(&[3.0], 2, 4).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 4);
        for (i, k) in (2..6).enumerate() {
            assert_eq!(out[0][i], bb.eval(&[3.0], seeds.seed(k)));
        }
    }

    #[test]
    fn plan_sim_single_row_contract() {
        let seeds = SeedSet::new(4);
        let mut cat = Catalog::new();
        cat.add_function(Arc::new(FnBlackBox::new("F", 1, |p: &[f64], _| p[0])));
        let plan = Plan::OneRow
            .project(vec![("out", Expr::call("F", vec![Expr::param("w")]))])
            .bind(&cat, &["w".to_string()])
            .unwrap();
        let sim = PlanSim::new(Arc::new(DirectEngine::new()), plan, Arc::new(cat), space(), seeds);
        let out = sim.eval_worlds(&[5.0], 0, 3).unwrap();
        assert_eq!(out, vec![vec![5.0, 5.0, 5.0]]);
        assert_eq!(sim.columns(), &["out".to_string()]);
    }

    #[test]
    fn plan_sim_zero_count_is_empty_on_both_engines() {
        // Mirrors worlds::tests::zero_count_is_empty for the plan-backed
        // path: a zero-world window must not reach the engines (whose
        // bundle tables assert n_worlds > 0) and must yield one empty
        // column per output — for Det-shaped and Stoch-shaped cells alike.
        let seeds = SeedSet::new(4);
        let mut cat = Catalog::new();
        cat.add_function(Arc::new(FnBlackBox::new("F", 1, |p: &[f64], s| {
            p[0] + (s.0 % 13) as f64
        })));
        let cat = Arc::new(cat);
        // `det` broadcasts a parameter (Det cell), `sto` calls a black box
        // (Stoch cell): both shapes must collapse to empty columns.
        let plan = Plan::OneRow
            .project(vec![
                ("det", Expr::param("w")),
                ("sto", Expr::call("F", vec![Expr::param("w")])),
            ])
            .bind(&cat, &["w".to_string()])
            .unwrap();
        let engines: Vec<Arc<dyn Engine>> =
            vec![Arc::new(DirectEngine::new()), Arc::new(DbmsEngine::new())];
        for engine in engines {
            let sim = PlanSim::new(engine, plan.clone(), cat.clone(), space(), seeds);
            let name = sim.engine_name().to_string();
            let out = sim.eval_worlds(&[5.0], 0, 0).unwrap();
            assert_eq!(out, vec![Vec::<f64>::new(), Vec::<f64>::new()], "engine={name}");
            let batch = sim.eval_batch(&[5.0], 7, 0).unwrap();
            assert_eq!(batch.n_worlds(), 0, "engine={name}");
            assert_eq!(batch.n_columns(), 2, "engine={name}");
            assert!(batch.column(0).is_empty() && batch.column(1).is_empty(), "engine={name}");
        }
    }

    #[test]
    fn batch_matches_oracle_on_both_engines() {
        let seeds = SeedSet::new(9);
        let mut cat = Catalog::new();
        cat.add_function(Arc::new(FnBlackBox::new("F", 1, |p: &[f64], s| {
            p[0] * 0.5 + (s.0 % 31) as f64
        })));
        let cat = Arc::new(cat);
        let plan = Plan::OneRow
            .project(vec![
                ("det", Expr::param("w")),
                ("sto", Expr::call("F", vec![Expr::param("w")])),
            ])
            .bind(&cat, &["w".to_string()])
            .unwrap();
        let engines: Vec<Arc<dyn Engine>> =
            vec![Arc::new(DirectEngine::new()), Arc::new(DbmsEngine::new())];
        for engine in engines {
            let sim = PlanSim::new(engine, plan.clone(), cat.clone(), space(), seeds);
            let name = sim.engine_name().to_string();
            let oracle = sim.eval_worlds(&[4.0], 2, 11).unwrap();
            let batch = sim.eval_batch(&[4.0], 2, 11).unwrap();
            assert_eq!(batch.columns(), &oracle[..], "engine={name}");
        }
    }

    #[test]
    fn a_partly_present_row_is_unsupported_on_both_engines() {
        // `SELECT F(@w) AS out WHERE F(@w) > 0.5` with F alternating 0/1
        // over seeds: the stochastic filter keeps the row in some worlds
        // only, and no single output column can stand for the others.
        let seeds = SeedSet::new(3);
        let mut cat = Catalog::new();
        cat.add_function(Arc::new(FnBlackBox::new("F", 1, |_: &[f64], s| (s.0 % 2) as f64)));
        let cat = Arc::new(cat);
        let call = || Expr::call("F", vec![Expr::param("w")]);
        let plan = Plan::OneRow
            .filter(Expr::cmp(crate::expr::CmpOp::Gt, call(), Expr::lit_f(0.5)))
            .project(vec![("out", call())])
            .bind(&cat, &["w".to_string()])
            .unwrap();
        let engines: Vec<Arc<dyn Engine>> =
            vec![Arc::new(DirectEngine::new()), Arc::new(DbmsEngine::new())];
        for engine in engines {
            let sim = PlanSim::new(engine, plan.clone(), cat.clone(), space(), seeds);
            let name = sim.engine_name().to_string();
            let oracle = sim.eval_worlds(&[1.0], 0, 16);
            let batch = sim.eval_batch(&[1.0], 0, 16);
            for got in [oracle.map(|_| ()), batch.map(|_| ())] {
                assert!(matches!(got, Err(PdbError::Unsupported(_))), "engine={name}: {got:?}");
            }
        }
    }

    #[test]
    fn both_engines_agree_through_sim() {
        let seeds = SeedSet::new(8);
        let mut cat = Catalog::new();
        cat.add_function(Arc::new(FnBlackBox::new("F", 1, |p: &[f64], s| {
            p[0] + (s.0 % 100) as f64
        })));
        let cat = Arc::new(cat);
        let plan = Plan::OneRow
            .project(vec![("out", Expr::call("F", vec![Expr::param("w")]))])
            .bind(&cat, &["w".to_string()])
            .unwrap();
        let a =
            PlanSim::new(Arc::new(DirectEngine::new()), plan.clone(), cat.clone(), space(), seeds);
        let b = PlanSim::new(Arc::new(DbmsEngine::new()), plan, cat, space(), seeds);
        assert_eq!(
            a.eval_worlds(&[2.0], 0, 8).unwrap(),
            b.eval_worlds(&[2.0], 0, 8).unwrap(),
            "engines must sample identical possible worlds"
        );
    }
}
