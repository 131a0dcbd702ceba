//! # Jigsaw — efficient optimization over uncertain enterprise data
//!
//! A from-scratch Rust reproduction of *"Jigsaw: Efficient Optimization Over
//! Uncertain Enterprise Data"* (Oliver Kennedy & Suman Nath, SIGMOD 2011):
//! a probabilistic-database-based simulation framework that fingerprints
//! stochastic black-box functions to reuse Monte Carlo work across the
//! parameter space of what-if scenarios.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`prng`] — seed-addressable generators, distributions, statistics;
//! * [`blackbox`] — the VG-function traits, parameter spaces, and the
//!   paper's Figure 6 model catalog;
//! * [`pdb`] — the MCDB-style tuple-bundle probabilistic database with two
//!   execution engines;
//! * [`core`] — fingerprints, mapping functions, basis indexes, the batch
//!   optimizer, Markov jumps, and the interactive what-if session;
//! * [`sql`] — the `DECLARE PARAMETER` / `OPTIMIZE` / `GRAPH` dialect;
//! * [`server`] — the session server: sweeps and what-if sessions over a
//!   framed TCP protocol, every client sharing one warm basis store;
//! * [`obs`] — the observability substrate: lock-free metrics, structured
//!   tracing spans, and the Prometheus exposition behind `METRICS`.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use jigsaw::blackbox::models::Demand;
//! use jigsaw::blackbox::{ParamDecl, ParamSpace};
//! use jigsaw::core::{JigsawConfig, SweepRunner};
//! use jigsaw::pdb::BlackBoxSim;
//! use jigsaw::prng::SeedSet;
//!
//! // A parameterized stochastic model and its parameter space.
//! let space = ParamSpace::new(vec![
//!     ParamDecl::range("week", 0, 25, 1),
//!     ParamDecl::set("feature", vec![12, 36]),
//! ]);
//! let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(42));
//!
//! // Sweep the space with fingerprint-based reuse.
//! let cfg = JigsawConfig::paper().with_n_samples(200);
//! let sweep = SweepRunner::new(cfg).run(&sim).unwrap();
//! assert!(sweep.stats.reuse_rate() > 0.9, "affine models collapse to one basis");
//! ```

#![forbid(unsafe_code)]

pub use jigsaw_blackbox as blackbox;
pub use jigsaw_core as core;
pub use jigsaw_obs as obs;
pub use jigsaw_pdb as pdb;
pub use jigsaw_prng as prng;
pub use jigsaw_server as server;
pub use jigsaw_sql as sql;
