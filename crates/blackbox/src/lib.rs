//! # jigsaw-blackbox — stochastic black-box functions and the model catalog
//!
//! In MCDB-style probabilistic databases, users supply probability
//! distributions as *VG-functions*: stochastic black boxes that the engine
//! may only sample from (paper §2.1). Jigsaw narrows this to real-valued
//! *black-box functions* `F(P, σ) → f64` (paper §2.2, footnote 2), where `P`
//! is a point in a discrete-finite parameter space and `σ` an explicit seed
//! that determinizes the function.
//!
//! This crate provides:
//!
//! * [`BlackBox`] / [`MarkovModel`] — the two function shapes Jigsaw
//!   evaluates (one-shot parameterized, and chained Markov-process steps).
//!   A black box is evaluated per seed ([`BlackBox::eval`]) or per window
//!   of worlds ([`BlackBox::eval_seeds`] over a [`jigsaw_prng::Worlds`],
//!   one call for many worlds, as MCDB calls a VG function once per tuple
//!   bundle); the two agree bit for bit, and the wrappers forward the
//!   window unchanged;
//! * [`ParamDecl`] / [`ParamSpace`] — `DECLARE PARAMETER` domains and the
//!   Cartesian parameter-space enumerator (the *Parameter Enumerator* of
//!   Figure 3);
//! * [`Counted`] / [`InvocationCounter`] — instrumentation that counts
//!   black-box invocations, the paper's stated cost bottleneck;
//! * [`Workload`] — tunable synthetic work per invocation, emulating the
//!   expensive externally-fitted models (R scripts, solvers) that real
//!   VG-functions wrap;
//! * [`models`] — every black box in the paper's Figure 6: `Demand`,
//!   `Capacity`, `Overload`, `UserSelection`, `SynthBasis`, `MarkovStep`,
//!   `MarkovBranch`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod function;
pub mod instrument;
pub mod models;
pub mod param;
pub mod space;
pub mod work;

pub use function::{BlackBox, FnBlackBox, MarkovModel};
pub use instrument::{Counted, CountedMarkov, InvocationCounter};
pub use param::{Domain, ParamDecl};
pub use space::{ParamSpace, PointIter, SpaceError};
pub use work::Workload;
