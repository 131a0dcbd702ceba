//! # jigsaw-core — fingerprint-accelerated optimization over uncertain data
//!
//! The primary contribution of *"Jigsaw: Efficient Optimization Over
//! Uncertain Enterprise Data"* (Kennedy & Nath, SIGMOD 2011): treat the
//! entire Monte Carlo simulation at a parameter point as a stochastic
//! black-box function, summarize it by its **fingerprint** — its outputs
//! under a fixed global seed vector — and reuse work across parameter
//! points (and Markov-chain steps) whenever fingerprints are related by a
//! closed-form mapping function.
//!
//! * [`fingerprint`] — fingerprints over the global seed set (§3.1);
//! * [`mapping`] — mapping functions, `FindLinearMapping` (Algorithm 2),
//!   composition algebra for symbolic post-processing (§6.2);
//! * [`index`] — candidate lookup: array scan, normalization, sorted-SID
//!   (§3.2);
//! * [`basis`] — the basis-distribution store and `FindMatch`
//!   (Algorithm 3);
//! * [`optimizer`] — the batch sweep (Figure 3) and the `OPTIMIZE`
//!   selector;
//! * [`markov`] — Markov-jump evaluation and estimator synthesis
//!   (§4, Algorithm 4);
//! * [`interactive`] — the online what-if event loop (§5, Algorithm 5) and
//!   `GRAPH` rendering.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod config;
pub mod fingerprint;
pub mod index;
pub mod interactive;
pub mod mapping;
pub mod markov;
pub mod optimizer;
pub mod telemetry;

pub use basis::{
    config_fingerprint, BasisDistribution, BasisId, BasisStore, FrozenBasisView, ShardedBasisStore,
    SharedBasisStore, SnapshotError, StoreKey, StoreRegistry,
};
pub use config::{IndexStrategy, JigsawConfig};
pub use fingerprint::Fingerprint;
pub use interactive::{InteractiveSession, SessionConfig};
pub use mapping::{AffineFamily, AffineMap, IdentityFamily, MappingFamily, PureScaleFamily};
pub use markov::{BasisRetention, MarkovJumpConfig, MarkovJumpResult, MarkovJumpRunner};
pub use optimizer::{
    OptimizeGoal, PersistentPool, PointResult, ScopedPool, SweepResult, SweepRunner, WorkerPool,
};
pub use telemetry::{MarkovStats, PhaseTimings, SweepCounters, SweepStats, WaveReuse};
