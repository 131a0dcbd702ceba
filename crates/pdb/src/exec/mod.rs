//! Query execution engines.
//!
//! Two engines execute the same bound plans, mirroring the paper's two
//! prototypes (§6, Figure 7):
//!
//! * [`DbmsEngine`] — tuple-bundle (columnar-across-worlds) execution with a
//!   configurable per-invocation setup cost, standing in for the "online"
//!   C# + Microsoft SQL Server prototype: high fixed overhead per query
//!   invocation (IPC + SQL interpretation in the original), but engine-grade
//!   bulk-data processing (hash joins, world-vectorized expression
//!   evaluation that amortizes per-tuple overhead across all Monte Carlo
//!   worlds).
//! * [`DirectEngine`] — naive row-at-a-time, world-major interpretation,
//!   standing in for the "offline" Ruby prototype: it re-walks the plan
//!   once *per world* with boxed values and nested-loop joins (terrible for
//!   data-bound workloads like `UserSelection`).
//!
//! Both engines must produce **identical** possible worlds — seed derivation
//! is part of the plan contract — which the cross-engine integration tests
//! assert.
//!
//! ## Cost per world, and which engine serves
//!
//! Without a synthetic setup cost, `DbmsEngine` is the faster engine even
//! for a scalar, model-bound query. On the session server's
//! `SELECT Demand(@week, @feature)` scenario, on a shared 2-core x86-64
//! host (`eval_window` per call; the ranges span four runs, each the median
//! of 60 alternated blocks):
//!
//! | window | `DirectEngine` | `DbmsEngine` | the black box alone |
//! | --- | --- | --- | --- |
//! | 10 worlds (a refine step) | 210–295 ns/world | 58–81 ns/world | 42–57 ns/world |
//! | 990 worlds (a completion) | 220–270 ns/world | 50–57 ns/world | 44–52 ns/world |
//!
//! `DbmsEngine`'s fixed cost per `execute` is 0.1–0.2 µs over the bare
//! black box, plus ≈ 6 ns per world for the call site's seed derivation.
//! `DirectEngine` pays an interpreter walk, boxed values and a row vector
//! per world, 3.5–5× the bundle engine's cost per world. The session
//! server therefore runs every scenario on `DbmsEngine`; `DirectEngine`
//! remains E1's Figure 7 comparator and the per-world reference the tests
//! hold the other engine to.
//!
//! The price is memory per call: a tuple bundle holds `rows × window`
//! `f64`s for each uncertain column, where `DirectEngine` holds only one
//! world's rows at a time (plus the output columns both engines return).
//! For the server's one-row scenarios that is the output column itself.

mod dbms;
mod direct;

pub use dbms::DbmsEngine;
pub use direct::DirectEngine;

use jigsaw_prng::SeedSet;

use crate::bundle::{BundleRow, BundleTable};
use crate::catalog::Catalog;
use crate::error::Result;
use crate::plan::BoundPlan;

/// Per-invocation execution parameters. The parameter values are borrowed,
/// so building a context per window allocates nothing.
#[derive(Debug, Clone)]
pub struct ExecContext<'a> {
    /// The session seed set (fixed for the lifetime of a Jigsaw session).
    pub seeds: SeedSet,
    /// Values for the bound parameters, positionally.
    pub params: &'a [f64],
    /// Global index of the first world to evaluate.
    pub world_start: usize,
    /// Number of worlds to evaluate.
    pub n_worlds: usize,
    /// Evaluate with the struct-of-arrays slice kernels instead of the
    /// per-world oracle loops. Both produce bit-identical bundles; the flag
    /// exists so the oracle stays exercisable (property tests, probes via
    /// [`ExecContext::with_columnar`]) while production rides the columnar
    /// kernels.
    pub columnar: bool,
}

impl<'a> ExecContext<'a> {
    /// Context for worlds `[0, n)` with the given parameter values, on the
    /// columnar kernels.
    pub fn new(seeds: SeedSet, params: &'a [f64], n_worlds: usize) -> Self {
        ExecContext { seeds, params, world_start: 0, n_worlds, columnar: true }
    }

    /// Override the evaluation kernels for this invocation.
    pub fn with_columnar(mut self, columnar: bool) -> Self {
        self.columnar = columnar;
        self
    }

    /// Shift to a different world window (used to extend fingerprints into
    /// full simulations without recomputing the prefix).
    pub fn with_worlds(mut self, start: usize, count: usize) -> Self {
        self.world_start = start;
        self.n_worlds = count;
        self
    }
}

/// A query execution engine.
pub trait Engine: Send + Sync {
    /// Engine name for reports.
    fn name(&self) -> &str;

    /// Execute a bound plan, producing the result's tuple bundles over the
    /// context's world window. Their cells follow `plan.schema`.
    fn execute_rows(
        &self,
        plan: &BoundPlan,
        catalog: &Catalog,
        ctx: &ExecContext<'_>,
    ) -> Result<Vec<BundleRow>>;

    /// [`Engine::execute_rows`] as one tuple-bundle batch carrying the
    /// plan's schema. Panics on an empty world window.
    fn execute(
        &self,
        plan: &BoundPlan,
        catalog: &Catalog,
        ctx: &ExecContext<'_>,
    ) -> Result<BundleTable> {
        let mut out = BundleTable::new(plan.schema.clone(), ctx.n_worlds);
        out.rows = self.execute_rows(plan, catalog, ctx)?;
        Ok(out)
    }
}
