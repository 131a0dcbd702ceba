//! The batch optimizer: Figure 3's pipeline with fingerprint memoization.
//!
//! `Parameter Enumerator → [fingerprint → FindMatch → (reuse | complete
//! simulation)] → Estimator → Selector`.
//!
//! [`SweepRunner`] evaluates a [`Simulation`] over its whole parameter
//! space. At every point it first computes the fingerprint (the first `m`
//! Monte Carlo rounds), probes the per-column basis-store shards, and either
//! reuses a mapped basis or completes the remaining `n − m` rounds. The
//! runner itself is a thin configuration facade: execution lives in the
//! batch-synchronous parallel [`executor`], whose output is bit-identical
//! for every thread count and wave size. The [`selector`] module then
//! applies the `OPTIMIZE` goal to the sweep results.

pub mod executor;
// The crate's one `unsafe` cluster: the persistent pool's lifetime-erased
// task pointer (see its SAFETY comments).
#[allow(unsafe_code)]
pub mod pool;
pub mod selector;

use std::sync::Arc;

use jigsaw_pdb::{OutputMetrics, Result, Simulation};

use crate::basis::BasisId;
use crate::config::JigsawConfig;
use crate::mapping::{AffineFamily, MappingFamily};
use crate::telemetry::SweepStats;

pub use executor::{ScopedPool, WorkerPool};
pub use pool::PersistentPool;
pub use selector::{
    sketch_frontier, Comparison, Constraint, Direction, Objective, OptimizeGoal, OuterAgg,
    Selection,
};

/// Result for one parameter point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Point index within the parameter space.
    pub point_idx: usize,
    /// The materialized parameter values.
    pub point: Vec<f64>,
    /// Per-output-column metrics, aligned with `Simulation::columns()`.
    pub metrics: Vec<OutputMetrics>,
    /// Bases reused per column (`None` = full simulation for that column).
    pub reused_from: Vec<Option<BasisId>>,
    /// `true` when the metrics are coarse sketch estimates — the point was
    /// pruned by a sketch-then-refine sweep and never re-ran at full
    /// budget. Always `false` for exhaustive sweeps and refined points.
    pub coarse: bool,
}

/// Outcome of a full parameter-space sweep.
pub struct SweepResult {
    /// Per-point results, in enumeration order.
    pub points: Vec<PointResult>,
    /// Execution statistics.
    pub stats: SweepStats,
}

impl SweepResult {
    /// Look up the metrics of column `col` at point `idx`.
    pub fn metrics_at(&self, idx: usize, col: usize) -> &OutputMetrics {
        &self.points[idx].metrics[col]
    }
}

/// Fluent sweep builder and executor facade — the single entry point for
/// both the self-contained sweep (snapshot load/save handled for you) and
/// the store-attached sweep the session server drives.
///
/// ```ignore
/// // Self-contained: cfg.basis_load / basis_save drive persistence.
/// let result = SweepRunner::new(cfg).run(&sim)?;
///
/// // Attached to a borrowed store, on a pool shared with other runners:
/// let mut runner = SweepRunner::new(cfg)
///     .pool(Arc::new(PersistentPool::new(4)))
///     .store(&mut stores);
/// let cold = runner.run(&sim)?;
/// let warm = runner.run(&sim)?; // same store: all warm hits
/// ```
///
/// Every sweep runs on a [`PersistentPool`]: without [`SweepRunner::pool`]
/// the runner builds its own, sized to `cfg.effective_threads()`, on the
/// first [`SweepRunner::run`] and keeps it for every later run, so waves
/// never pay a thread spawn.
///
/// The configuration is held behind an [`Arc`], so cloning a runner — or
/// constructing many runners over one configuration (benchmark loops, the
/// session server's per-`SWEEP` runners) — never deep-copies the config.
/// The lifetime parameter is `'static` until [`SweepRunner::store`]
/// attaches a borrowed store.
pub struct SweepRunner<'s> {
    cfg: Arc<JigsawConfig>,
    family: Arc<dyn MappingFamily>,
    /// `None` until the first run builds the default pool (or `.pool()`
    /// injects one).
    pool: Option<Arc<dyn executor::WorkerPool>>,
    store: Option<&'s mut crate::basis::ShardedBasisStore>,
    /// Disable fingerprint reuse entirely (the "Full Evaluation" baseline of
    /// Figure 8).
    pub disable_reuse: bool,
}

impl SweepRunner<'static> {
    /// Runner with the paper's affine mapping family. Accepts an owned
    /// [`JigsawConfig`] or an `Arc` to one (shared, not cloned).
    pub fn new(cfg: impl Into<Arc<JigsawConfig>>) -> Self {
        let cfg = cfg.into();
        cfg.validate();
        SweepRunner {
            cfg,
            family: Arc::new(AffineFamily),
            pool: None,
            store: None,
            disable_reuse: false,
        }
    }

    /// Runner with a custom mapping family.
    pub fn with_family(cfg: impl Into<Arc<JigsawConfig>>, family: Arc<dyn MappingFamily>) -> Self {
        let mut r = Self::new(cfg);
        r.family = family;
        r
    }

    /// The naive baseline: every point fully simulated.
    pub fn naive(cfg: impl Into<Arc<JigsawConfig>>) -> Self {
        let mut r = Self::new(cfg);
        r.disable_reuse = true;
        r
    }
}

impl<'s> SweepRunner<'s> {
    /// Run on a caller-owned worker pool instead of building one — how the
    /// session server shares its one [`PersistentPool`] across every
    /// `SWEEP`. Any faithful [`executor::WorkerPool`] yields bit-identical
    /// sweeps, so tests also inject reference pools here.
    pub fn pool(mut self, pool: Arc<dyn executor::WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attach an existing store (warm or cold) for [`SweepRunner::run`] to
    /// sweep against, leaving snapshot persistence to the caller — the
    /// entry point the session server drives with a store borrowed out of
    /// a [`crate::basis::SharedBasisStore`]. Bases already present count
    /// resolves as `warm_hits`.
    pub fn store<'t>(self, stores: &'t mut crate::basis::ShardedBasisStore) -> SweepRunner<'t> {
        SweepRunner {
            cfg: self.cfg,
            family: self.family,
            pool: self.pool,
            store: Some(stores),
            disable_reuse: self.disable_reuse,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &JigsawConfig {
        &self.cfg
    }

    /// Run the sweep over the simulation's entire parameter space.
    ///
    /// With a store attached via [`SweepRunner::store`], the sweep runs
    /// against that store and the caller owns persistence; without one, the
    /// runner builds its own store honoring `cfg.basis_load` /
    /// `cfg.basis_save`. Either way execution is the batch-synchronous
    /// [`executor`]: with `threads = 1` this replays the sequential point
    /// loop exactly, and any other thread budget produces bit-identical
    /// output faster. `&mut self` only threads the store borrow — repeat
    /// runs on one runner warm-start against the bases earlier runs built.
    pub fn run(&mut self, sim: &dyn Simulation) -> Result<SweepResult> {
        let cfg = &self.cfg;
        let pool = &**self
            .pool
            .get_or_insert_with(|| Arc::new(PersistentPool::new(cfg.effective_threads())));
        if let Some(stores) = self.store.as_deref_mut() {
            return Self::dispatch(cfg, self.disable_reuse, sim, stores, pool, &self.family);
        }
        let n_cols = sim.columns().len();
        let mut stores = match &self.cfg.basis_load {
            Some(path) => crate::basis::ShardedBasisStore::load_snapshot(
                path,
                &self.cfg,
                self.family.clone(),
                n_cols,
            )?,
            None => crate::basis::ShardedBasisStore::new(n_cols, &self.cfg, self.family.clone()),
        };
        let result =
            Self::dispatch(&self.cfg, self.disable_reuse, sim, &mut stores, pool, &self.family)?;
        if let Some(path) = &self.cfg.basis_save {
            stores.save_snapshot(&self.cfg, self.family.name(), path)?;
        }
        Ok(result)
    }

    /// Exhaustive wave sweep, or the two-phase sketch-then-refine sweep
    /// when `cfg.sketch_budget` asks for one.
    fn dispatch(
        cfg: &JigsawConfig,
        disable_reuse: bool,
        sim: &dyn Simulation,
        stores: &mut crate::basis::ShardedBasisStore,
        pool: &dyn executor::WorkerPool,
        family: &Arc<dyn MappingFamily>,
    ) -> Result<SweepResult> {
        if cfg.sketch_enabled() {
            executor::execute_sketch_refine(cfg, disable_reuse, sim, stores, pool, family.clone())
        } else {
            executor::execute(cfg, disable_reuse, sim, stores, pool)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexStrategy;
    use jigsaw_blackbox::models::{Demand, SynthBasis};
    use jigsaw_blackbox::{BlackBox, ParamDecl, ParamSpace};
    use jigsaw_pdb::BlackBoxSim;
    use jigsaw_prng::SeedSet;

    fn cfg() -> JigsawConfig {
        JigsawConfig::paper().with_n_samples(200)
    }

    fn demand_sim() -> BlackBoxSim {
        let space = ParamSpace::new(vec![
            ParamDecl::range("week", 0, 19, 1),
            ParamDecl::set("feature", vec![5, 12]),
        ]);
        BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(2024))
    }

    #[test]
    fn demand_needs_very_few_bases() {
        // Paper §6.2: "the extremely simplistic Demand model requires only
        // one basis distribution for its entire parameter space". Week 0 is
        // a point mass (its own constant basis), so at most 2 here.
        let r = SweepRunner::new(cfg()).run(&demand_sim()).unwrap();
        assert!(r.stats.bases_per_column[0] <= 2, "bases: {:?}", r.stats.bases_per_column);
        assert!(r.stats.reuse_rate() > 0.9, "reuse rate {}", r.stats.reuse_rate());
    }

    #[test]
    fn jigsaw_equals_naive_exactly() {
        // The paper's correctness claim (§6.2): "outputs of Jigsaw are
        // equivalent to full simulation for each possible parameter value."
        let sim = demand_sim();
        let fast = SweepRunner::new(cfg()).run(&sim).unwrap();
        let slow = SweepRunner::naive(cfg()).run(&sim).unwrap();
        assert_eq!(fast.points.len(), slow.points.len());
        for (f, s) in fast.points.iter().zip(&slow.points) {
            let (fm, sm) = (&f.metrics[0], &s.metrics[0]);
            assert!(
                (fm.expectation() - sm.expectation()).abs()
                    <= 1e-9 * sm.expectation().abs().max(1.0),
                "point {}: {} vs {}",
                f.point_idx,
                fm.expectation(),
                sm.expectation()
            );
            assert!(
                (fm.std_dev() - sm.std_dev()).abs() <= 1e-9 * sm.std_dev().abs().max(1.0),
                "point {}: sd {} vs {}",
                f.point_idx,
                fm.std_dev(),
                sm.std_dev()
            );
        }
    }

    #[test]
    fn naive_runner_never_reuses() {
        let r = SweepRunner::naive(cfg()).run(&demand_sim()).unwrap();
        assert_eq!(r.stats.reused, 0);
        assert_eq!(r.stats.full_simulations, r.stats.points);
        assert_eq!(r.stats.bases_per_column, vec![0]);
    }

    #[test]
    fn synth_basis_generates_exact_basis_count() {
        for n_bases in [1usize, 3, 7] {
            let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 48, 1)]);
            let sim = BlackBoxSim::new(Arc::new(SynthBasis::new(n_bases)), space, SeedSet::new(7));
            let r = SweepRunner::new(cfg()).run(&sim).unwrap();
            assert_eq!(
                r.stats.bases_per_column[0], n_bases,
                "SynthBasis({n_bases}) must create exactly {n_bases} bases"
            );
        }
    }

    #[test]
    fn worlds_evaluated_accounts_fingerprints_and_completions() {
        let r = SweepRunner::new(cfg()).run(&demand_sim()).unwrap();
        let m = 10u64;
        let n = 200u64;
        let expect = r.stats.points as u64 * m + r.stats.full_simulations as u64 * (n - m);
        assert_eq!(r.stats.worlds_evaluated, expect);
        // And the reused points save essentially all completion work.
        assert!(r.stats.worlds_evaluated < r.stats.points as u64 * n / 2);
    }

    #[test]
    fn all_index_strategies_agree_on_results() {
        let sim = demand_sim();
        let base = SweepRunner::new(cfg().with_index(IndexStrategy::Array)).run(&sim).unwrap();
        for strat in [IndexStrategy::Normalization, IndexStrategy::SortedSid] {
            let other = SweepRunner::new(cfg().with_index(strat)).run(&sim).unwrap();
            for (a, b) in base.points.iter().zip(&other.points) {
                assert!(
                    (a.metrics[0].expectation() - b.metrics[0].expectation()).abs() < 1e-9,
                    "{strat:?} disagrees at point {}",
                    a.point_idx
                );
            }
        }
    }

    #[test]
    fn reused_points_record_their_basis() {
        let r = SweepRunner::new(cfg()).run(&demand_sim()).unwrap();
        let reused: Vec<_> = r.points.iter().filter(|p| p.reused_from[0].is_some()).collect();
        assert!(!reused.is_empty());
        // Every reused basis id must be valid.
        for p in reused {
            let id = p.reused_from[0].unwrap();
            assert!(id.0 < r.stats.bases_per_column[0]);
        }
    }

    /// A deliberately non-reusable black box: distinct non-affine shape at
    /// every point (cubic coefficient varies).
    struct NoReuse;
    impl BlackBox for NoReuse {
        fn name(&self) -> &str {
            "NoReuse"
        }
        fn arity(&self) -> usize {
            1
        }
        fn eval(&self, p: &[f64], seed: jigsaw_prng::Seed) -> f64 {
            use jigsaw_prng::{dist::Normal, Xoshiro256pp};
            let mut rng = Xoshiro256pp::seeded(seed);
            let z = Normal::standard(&mut rng);
            z + (1.0 + p[0]) * z * z * z
        }
    }

    #[test]
    fn adversarial_model_defeats_reuse_gracefully() {
        let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 14, 1)]);
        let sim = BlackBoxSim::new(Arc::new(NoReuse), space, SeedSet::new(3));
        let r = SweepRunner::new(cfg()).run(&sim).unwrap();
        assert_eq!(r.stats.reused, 0);
        assert_eq!(r.stats.bases_per_column[0], 15, "every point its own basis");
    }
}
