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
//!   standing in for the "offline" Ruby prototype: negligible fixed
//!   overhead (great for model-bound scalar queries), but it re-walks the
//!   data once *per world* with boxed values and nested-loop joins (terrible
//!   for data-bound workloads like `UserSelection`).
//!
//! Both engines must produce **identical** possible worlds — seed derivation
//! is part of the plan contract — which the cross-engine integration tests
//! assert.

mod dbms;
mod direct;

pub use dbms::DbmsEngine;
pub use direct::DirectEngine;

use jigsaw_prng::SeedSet;

use crate::bundle::BundleTable;
use crate::catalog::Catalog;
use crate::error::Result;
use crate::plan::BoundPlan;

/// Per-invocation execution parameters.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// The session seed set (fixed for the lifetime of a Jigsaw session).
    pub seeds: SeedSet,
    /// Values for the bound parameters, positionally.
    pub params: Vec<f64>,
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

impl ExecContext {
    /// Context for worlds `[0, n)` with the given parameter values, on the
    /// columnar kernels.
    pub fn new(seeds: SeedSet, params: Vec<f64>, n_worlds: usize) -> Self {
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

    /// Execute a bound plan, producing one tuple-bundle batch covering the
    /// context's world window.
    fn execute(
        &self,
        plan: &BoundPlan,
        catalog: &Catalog,
        ctx: &ExecContext,
    ) -> Result<BundleTable>;
}
