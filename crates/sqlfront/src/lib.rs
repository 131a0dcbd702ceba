//! # jigsaw-sql — the Jigsaw SQL dialect front-end
//!
//! The paper's user-facing language (Figures 1 and 5):
//!
//! ```sql
//! DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
//! DECLARE PARAMETER @feature_release AS SET (12, 36, 44);
//! SELECT DemandModel(@current_week, @feature_release) AS demand, ...
//! INTO results;
//! OPTIMIZE SELECT @feature_release, ... FROM results
//! WHERE MAX(EXPECT overload) < 0.01
//! GROUP BY feature_release, ...
//! FOR MAX @purchase1, MAX @purchase2
//! ```
//!
//! plus the interactive `GRAPH OVER @param EXPECT col WITH style, …`
//! directive and `CHAIN` parameters for Markov scenarios.
//!
//! Pipeline: [`lexer`] → [`parser`] → [`ast`] → [`analyze`] (lowering to
//! [`jigsaw_pdb::Plan`]s, [`jigsaw_blackbox::ParamSpace`]s and
//! [`jigsaw_core::optimizer::OptimizeGoal`]s) → [`scenario`] execution.
//! [`chainq`] adapts `CHAIN` scenarios to the core Markov-jump runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod chainq;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod scenario;
pub mod token;

pub use analyze::ChainInfo;
pub use ast::Script;
pub use chainq::QueryChainModel;
pub use error::{Pos, Result, SqlError};
pub use parser::{parse_expr, parse_script};
pub use pretty::{print_expr, print_select};
pub use scenario::{compile, BatchOutcome, Scenario};
