//! # jigsaw-pdb — an MCDB-style Monte Carlo probabilistic database
//!
//! Jigsaw "is built around a simple PDB, which performs Monte Carlo
//! simulation over entire databases" (paper §1), loosely modeled after MCDB
//! (Jampani et al., SIGMOD'08). This crate is that substrate:
//!
//! * a relational layer — [`value::Value`], [`schema::Schema`],
//!   [`table::Table`], logical [`plan::Plan`]s and [`expr::Expr`]essions
//!   with black-box (VG-function) calls;
//! * **tuple bundles** ([`bundle`]) — each logical tuple carries one value
//!   per sampled possible world plus a per-world presence mask;
//! * two execution engines ([`exec::DbmsEngine`], [`exec::DirectEngine`])
//!   that replicate the paper's two prototypes and provably sample
//!   identical possible worlds;
//! * the [`estimator::OutputMetrics`] aggregation of per-world results into
//!   expectations / standard deviations / probabilities / histograms;
//! * the [`sim::Simulation`] abstraction — "the entire Monte Carlo
//!   simulation treated as the stochastic function F" — which is the unit
//!   Jigsaw's fingerprinting operates on;
//! * parallel world evaluation ([`worlds`]) producing columnar
//!   [`batch::WorldBatch`]es, with a per-world oracle path kept
//!   bit-identical for verification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bundle;
pub mod catalog;
pub mod error;
pub mod estimator;
pub mod exec;
pub mod expr;
pub mod plan;
pub mod schema;
pub mod sim;
pub mod table;
pub mod value;
pub mod worlds;

pub use batch::WorldBatch;
pub use bundle::{BundleCell, BundleRow, BundleTable, Presence};
pub use catalog::Catalog;
pub use error::{PdbError, Result};
pub use estimator::{Metric, OutputMetrics};
pub use exec::{DbmsEngine, DirectEngine, Engine, ExecContext};
pub use expr::{BinOp, CmpOp, Expr};
pub use plan::{AggFunc, AggSpec, BoundPlan, Plan};
pub use schema::{Column, ColumnType, Schema};
pub use sim::{BlackBoxSim, PlanSim, Simulation};
pub use table::{Table, TableBuilder};
pub use value::Value;
pub use worlds::{
    eval_batch_on, eval_window, eval_window_on, eval_worlds, resolve_thread_budget, EvalPath,
};
