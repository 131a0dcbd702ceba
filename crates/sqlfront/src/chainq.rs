//! Markov models defined by `CHAIN` queries (paper Figure 5).
//!
//! ```sql
//! DECLARE PARAMETER @release_week AS CHAIN release_week
//!     FROM @current_week : @current_week - 1 INITIAL VALUE 52;
//! SELECT ReleaseWeekModel(demand) AS release_week, demand
//! FROM (SELECT DemandModel(@current_week, @release_week) AS demand)
//! INTO results
//! ```
//!
//! Each step `t` evaluates the query with `@current_week = t` and the chain
//! parameter holding the previous step's `release_week` output. This module
//! adapts such a compiled scenario into a [`MarkovModel`], so the core
//! Markov-jump runner (Algorithm 4) can accelerate it.
//!
//! Seed discipline: the jump algorithm supplies a per-`(instance, step)`
//! seed; we build a single-world seed set from it, so the query's call-site
//! derivation stays identical no matter how the engine reached that step.

use std::sync::Arc;

use jigsaw_blackbox::MarkovModel;
use jigsaw_core::markov::{MarkovJumpConfig, MarkovJumpResult, MarkovJumpRunner};
use jigsaw_pdb::{BoundPlan, BundleCell, Catalog, Engine, ExecContext};
use jigsaw_prng::Seed;

use crate::analyze::ChainInfo;
use crate::error::{Result, SqlError};
use crate::scenario::Scenario;

/// A `CHAIN` scenario exposed as a Markov model.
pub struct QueryChainModel {
    plan: BoundPlan,
    catalog: Arc<Catalog>,
    engine: Arc<dyn Engine>,
    /// Index of the step parameter in the parameter vector.
    step_idx: usize,
    /// Index of the chain parameter in the parameter vector.
    chain_idx: usize,
    /// Column producing the next chain value.
    source_col: usize,
    /// Column reported as the model output.
    output_col: usize,
    /// Full parameter template (non-step/chain params at initial values).
    template: Vec<f64>,
    initial: f64,
    name: String,
}

impl QueryChainModel {
    /// Adapt a compiled scenario with a `CHAIN` declaration.
    ///
    /// The model output is the first result column other than the chain
    /// source (Figure 5's `demand`).
    pub fn from_scenario(
        scenario: &Scenario,
        catalog: Arc<Catalog>,
        engine: Arc<dyn Engine>,
    ) -> Result<Self> {
        let chain: &ChainInfo = scenario
            .chain
            .as_ref()
            .ok_or_else(|| SqlError::Analyze("scenario has no CHAIN parameter".into()))?;
        let step_idx = scenario.space.index_of(&chain.step_param).ok_or_else(|| {
            SqlError::Analyze(format!("unknown step param @{}", chain.step_param))
        })?;
        let chain_idx = scenario
            .space
            .index_of(&chain.param)
            .ok_or_else(|| SqlError::Analyze(format!("unknown chain param @{}", chain.param)))?;
        let source_col =
            scenario.columns.iter().position(|c| *c == chain.source_column).ok_or_else(|| {
                SqlError::Analyze(format!(
                    "chain source column `{}` not produced",
                    chain.source_column
                ))
            })?;
        let output_col =
            scenario.columns.iter().position(|c| *c != chain.source_column).ok_or_else(|| {
                SqlError::Analyze("chain query must produce a non-chain output column".into())
            })?;
        // Template: every parameter at the first value of its domain; the
        // step and chain slots are overwritten per evaluation.
        let template = if scenario.space.is_empty() {
            return Err(SqlError::Analyze("empty parameter space".into()));
        } else {
            scenario.space.point_at(0)
        };
        Ok(QueryChainModel {
            plan: scenario.plan.clone(),
            catalog,
            engine,
            step_idx,
            chain_idx,
            source_col,
            output_col,
            template,
            initial: chain.initial,
            name: format!("chain:{}", chain.source_column),
        })
    }

    /// Evaluate the query for one `(step, chain, seed)` triple, returning
    /// `(output, next_chain)`.
    fn eval_query(&self, step: usize, chain: f64, seed: Seed) -> (f64, f64) {
        let mut params = self.template.clone();
        params[self.step_idx] = step as f64;
        params[self.chain_idx] = chain;
        let ctx = ExecContext::new(jigsaw_prng::SeedSet::new(seed.0), &params, 1);
        let table = self
            .engine
            .execute(&self.plan, &self.catalog, &ctx)
            .expect("chain query execution failed");
        assert_eq!(table.len(), 1, "chain queries must produce one row");
        let row = &table.rows[0];
        let get = |c: usize| -> f64 {
            match &row.cells[c] {
                BundleCell::Det(v) => v.as_f64().unwrap_or(f64::NAN),
                BundleCell::Stoch(xs) => xs[0],
            }
        };
        (get(self.output_col), get(self.source_col))
    }

    /// Run the chain with the Markov-jump accelerator.
    pub fn run_jump(&self, cfg: MarkovJumpConfig, master: Seed, steps: usize) -> MarkovJumpResult {
        MarkovJumpRunner::new(cfg).run(self, master, steps)
    }
}

impl MarkovModel for QueryChainModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn initial_chain(&self) -> f64 {
        self.initial
    }

    fn output(&self, step: usize, chain: f64, seed: Seed) -> f64 {
        self.eval_query(step, chain, seed).0
    }

    fn next_chain(&self, step: usize, chain: f64, _output: f64, seed: Seed) -> f64 {
        // The runner hands a transition seed derived from the step seed;
        // evaluating the query under it keeps transitions reproducible
        // regardless of how the engine reached this step.
        self.eval_query(step, chain, seed).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::compile;
    use jigsaw_blackbox::FnBlackBox;
    use jigsaw_core::markov::run_naive;
    use jigsaw_pdb::DirectEngine;

    /// Figure 5 in miniature: demand grows with the week and is boosted
    /// after release; release triggers once demand crosses 25.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_function(Arc::new(FnBlackBox::new("DemandModel", 2, |p: &[f64], s| {
            let (week, release) = (p[0], p[1]);
            let boost = if week > release { 5.0 } else { 0.0 };
            week + boost + (s.0 % 8) as f64 * 0.01
        })));
        c.add_function(Arc::new(FnBlackBox::new("ReleaseWeekModel", 2, |p: &[f64], _| {
            let (demand, prev) = (p[0], p[1]);
            if prev > 900.0 && demand >= 25.0 {
                // Not yet released and demand crossed: release now-ish.
                demand.floor()
            } else {
                prev
            }
        })));
        c
    }

    const SRC: &str = "
        DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
        DECLARE PARAMETER @release_week AS CHAIN release_week
            FROM @current_week : @current_week - 1 INITIAL VALUE 999;
        SELECT ReleaseWeekModel(demand, @release_week) AS release_week, demand
        FROM (SELECT DemandModel(@current_week, @release_week) AS demand)
        INTO results";

    fn model() -> (QueryChainModel, Arc<Catalog>) {
        let cat = Arc::new(catalog());
        let scenario = compile(SRC, &cat).unwrap();
        let m =
            QueryChainModel::from_scenario(&scenario, cat.clone(), Arc::new(DirectEngine::new()))
                .unwrap();
        (m, cat)
    }

    #[test]
    fn chain_wiring_resolves() {
        let (m, _) = model();
        assert_eq!(m.initial_chain(), 999.0);
        assert_eq!(m.name(), "chain:release_week");
    }

    #[test]
    fn outputs_follow_release_dynamics() {
        let (m, _) = model();
        // Before release: output ~ week.
        let out = m.output(3, 999.0, Seed(1));
        assert!(out < 4.0, "{out}");
        // After release at week 20: boosted by 5.
        let boosted = m.output(30, 20.0, Seed(1));
        assert!(boosted >= 35.0, "{boosted}");
    }

    #[test]
    fn jump_matches_naive_stepping() {
        let (m, _) = model();
        let cfg = MarkovJumpConfig::paper().with_n(40).with_m(6);
        let jump = m.run_jump(cfg, Seed(11), 40);
        let (naive, naive_stats) = run_naive(&m, Seed(11), 40, 40);
        let exact =
            jump.outputs.iter().zip(&naive).filter(|(a, b)| (**a - **b).abs() < 1e-9).count();
        assert!(exact >= 38, "{exact}/40 exact");
        assert!(jump.stats.model_invocations < naive_stats.model_invocations);
    }

    #[test]
    fn scenario_without_chain_rejected() {
        let cat = Arc::new(catalog());
        let scenario = compile(
            "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;
             SELECT DemandModel(@w, @w) AS demand INTO results",
            &cat,
        )
        .unwrap();
        assert!(QueryChainModel::from_scenario(
            &scenario,
            cat.clone(),
            Arc::new(DirectEngine::new())
        )
        .is_err());
    }
}
