//! The interactive event loop (paper Algorithm 5).

use std::collections::HashMap;
use std::sync::Arc;

use jigsaw_pdb::{OutputMetrics, PdbError, Result, Simulation, WorldBatch};

use crate::basis::{BasisId, BasisStore, ShardedBasisStore, SharedBasisStore};
use crate::config::JigsawConfig;
use crate::fingerprint::Fingerprint;
use crate::mapping::{AffineFamily, AffineMap};

/// Which processing task a tick performed (paper §5's three categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// More samples for the focused point.
    Refinement,
    /// Re-generate fingerprint-extending samples to validate the mapping.
    Validation,
    /// Pre-warm a neighboring point.
    Exploration,
}

/// Tunables for an interactive session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Samples generated per tick (paper: `PickAtRandom(10, …)`).
    pub batch: usize,
    /// Initial fingerprint size for first contact with a point.
    pub fingerprint_len: usize,
    /// Matching tolerance.
    pub tolerance: f64,
    /// Cap on samples per point (refinement stops there).
    pub n_target: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { batch: 10, fingerprint_len: 10, tolerance: 1e-9, n_target: 1000 }
    }
}

impl SessionConfig {
    /// Derive a session configuration compatible with a sweep
    /// configuration: same fingerprint length and tolerance (so the
    /// session's fingerprints match bases a sweep built), `n_target` capped
    /// at the sweep's sample count (so refining a point never outgrows —
    /// and therefore never mutates — a sweep-built basis). The session
    /// server attaches every client this way. A session evaluates its
    /// windows (the fingerprint head, one batch, or an anytime loop's
    /// look-ahead window) on the calling thread; the sweep's thread budget
    /// is not consulted.
    pub fn from_jigsaw(cfg: &JigsawConfig) -> Self {
        SessionConfig {
            batch: 10,
            fingerprint_len: cfg.fingerprint_len,
            tolerance: cfg.tolerance,
            n_target: cfg.n_samples,
        }
    }
}

/// Where an estimate's numbers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateSource {
    /// Mapped from a matched basis distribution (cheap, immediate).
    MappedBasis,
    /// Directly simulated samples only.
    Direct,
}

/// The `z` multiplier behind every anytime bound: `mean ± z·sd/√n` with
/// `z = 3` (a ~99.7% normal interval). One fixed constant keeps the bound
/// a pure function of the sample state, which the determinism contract
/// (converged `SUBSCRIBE` ≡ blocking `ESTIMATE`, bit for bit) relies on.
pub const BOUND_Z: f64 = 3.0;

/// A progressively-refined estimate for one point and column.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Point index in the parameter space.
    pub point_idx: usize,
    /// Expectation of the output column.
    pub expectation: f64,
    /// Standard deviation of the output column.
    pub std_dev: f64,
    /// Lower edge of the anytime bound on the true expectation (tier 0+).
    /// `-∞` when one sample cannot bound the spread; NaN only when the
    /// expectation itself is NaN (never served over the wire — see
    /// [`InteractiveSession::estimate_now`]).
    pub lo: f64,
    /// Upper edge of the anytime bound (see `lo`).
    pub hi: f64,
    /// Samples backing the estimate.
    pub n_samples: usize,
    /// Provenance.
    pub source: EstimateSource,
}

impl Estimate {
    /// Width of the anytime bound (`hi - lo`; `+∞`/NaN propagate).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// A bounded estimate: the result of refining until the anytime interval
/// is at most `eps` wide or the sample budget runs out.
#[derive(Debug, Clone)]
pub struct BoundedEstimate {
    /// The final estimate (its `lo`/`hi` carry the achieved bound).
    pub estimate: Estimate,
    /// Whether `width ≤ eps` was reached (false = the budget ran out, or
    /// the caller stopped the loop, first).
    pub converged: bool,
    /// Refinement steps taken after the initial tier-0 answer.
    pub steps: usize,
}

/// Per-(point, column) progress.
struct PointColState {
    /// Samples generated directly at this point (sample ids `0..n_direct`).
    n_direct: usize,
    /// Direct samples (for metric extraction and basis refinement).
    metrics: OutputMetrics,
    /// Matched basis and mapping, if any.
    basis: Option<(BasisId, AffineMap)>,
    /// Running intersection of every raw CLT bound observed for this
    /// (point, column). Raw `mean ± z·sd/√n` intervals are *not*
    /// monotone — one outlier can widen them — but each contains the true
    /// mean w.h.p., so their intersection does too and can only shrink.
    /// This is what makes the streamed `INTERVAL` sequence non-widening.
    bound: Option<(f64, f64)>,
}

impl PointColState {
    /// The estimate-source rule: serve the mapped basis (`Some`) when it has
    /// more samples than the direct metrics, else the direct metrics
    /// (`None`). `shard` is the column's store shard, read under the lock
    /// acquisition that vouches for the cached basis link.
    fn mapped(&self, shard: &BasisStore) -> Option<OutputMetrics> {
        let (id, map) = self.basis?;
        let basis = shard.try_get(id)?;
        (basis.metrics.n() > self.metrics.n()).then(|| map.apply_metrics(&basis.metrics))
    }

    /// Tighten the running bound with the raw interval of whichever source
    /// [`Self::mapped`] picks, i.e. the one `estimate()` serves, and return
    /// that pick.
    fn tighten(&mut self, shard: &BasisStore) -> Option<OutputMetrics> {
        let mapped = self.mapped(shard);
        let raw = match &mapped {
            Some(mapped) => mapped.expectation_interval(BOUND_Z),
            None => self.metrics.expectation_interval(BOUND_Z),
        };
        if raw.is_some() {
            self.bound = Some(effective_bound(self.bound, raw));
        }
        mapped
    }

    /// The estimate served from `mapped` (see [`Self::mapped`]) or, when
    /// that is `None`, from the direct samples.
    fn estimate(&self, point_idx: usize, mapped: Option<OutputMetrics>) -> Estimate {
        let (metrics, source) = match &mapped {
            Some(mapped) => (mapped, EstimateSource::MappedBasis),
            None => (&self.metrics, EstimateSource::Direct),
        };
        let (lo, hi) = effective_bound(self.bound, metrics.expectation_interval(BOUND_Z));
        Estimate {
            point_idx,
            expectation: metrics.expectation(),
            std_dev: metrics.std_dev(),
            lo,
            hi,
            n_samples: metrics.n(),
            source,
        }
    }
}

/// The stored running intersection narrowed by a fresh raw bound. A
/// drifting mean can empty the intersection; then the last consistent
/// interval stands rather than inverting or re-widening. `estimate()`
/// reports it without persisting it (`&self`); [`PointColState::tighten`]
/// stores it. `(NaN, NaN)` only when no bound exists at all, which implies
/// a NaN expectation.
fn effective_bound(stored: Option<(f64, f64)>, raw: Option<(f64, f64)>) -> (f64, f64) {
    match (stored, raw) {
        (Some((slo, shi)), Some((rlo, rhi))) => {
            let lo = slo.max(rlo);
            let hi = shi.min(rhi);
            if lo <= hi {
                (lo, hi)
            } else {
                (slo, shi)
            }
        }
        (Some(s), None) => s,
        (None, Some(r)) => r,
        (None, None) => (f64::NAN, f64::NAN),
    }
}

/// State for one point across all output columns.
struct PointState {
    /// The point's parameter values, kept for its refinement batches.
    point: Vec<f64>,
    cols: Vec<PointColState>,
    /// Worlds a look-ahead window evaluated past the look its loop stopped
    /// at: sample ids from `n_direct` on, folded first at the point's next
    /// refinement, so no world is evaluated twice. A sample depends only on
    /// (point, sample id), so a store replacement leaves these valid.
    ahead: Option<WorldBatch>,
}

/// An interactive what-if session over one simulation.
///
/// The session owns its per-point progress but only *borrows into* a
/// [`SharedBasisStore`]: created standalone ([`Self::new`] /
/// [`Self::with_store`]) the store has a single attachment, while
/// [`Self::attach`] joins an existing shared store so several sessions (and
/// sweeps) amortize one warm basis set. Touches fully served by bases the
/// session did not itself create are counted in [`Self::warm_hits`].
///
/// The simulation is shared via [`Arc`], so a session is `'static` and can
/// be owned by long-lived infrastructure (the server's event-driven
/// connections) alongside the simulation it runs.
pub struct InteractiveSession {
    sim: Arc<dyn Simulation>,
    cfg: SessionConfig,
    store: SharedBasisStore,
    /// Basis ids (per column) this session inserted itself. Matches against
    /// any *other* basis are warm hits: work someone else — another
    /// session, a sweep, a loaded snapshot — already paid for.
    own: Vec<std::collections::HashSet<usize>>,
    /// Store generation last observed; a mismatch means the store was
    /// replaced wholesale and every cached basis link is stale.
    seen_generation: u64,
    points: HashMap<usize, PointState>,
    focus: usize,
    tick: u64,
    /// Worlds folded into points so far (the online cost metric):
    /// fingerprint heads plus refinement batches. Worlds a look-ahead
    /// window evaluated past the look its loop stopped at count once they
    /// are folded, so the figure is the same for any window schedule.
    pub worlds_evaluated: u64,
    /// Points whose first touch was fully served by bases this session did
    /// not itself create (cross-session / cross-sweep warm reuse).
    pub warm_hits: u64,
}

/// Handles to the session-layer global instruments (see `jigsaw_obs`);
/// registered once, lock-free to update, purely observational.
struct SessionObs {
    touches: jigsaw_obs::Counter,
    warm_hits: jigsaw_obs::Counter,
    tier0: jigsaw_obs::Counter,
    refined: jigsaw_obs::Counter,
}

fn session_obs() -> &'static SessionObs {
    static OBS: std::sync::OnceLock<SessionObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let g = jigsaw_obs::global();
        SessionObs {
            touches: g.counter("jigsaw_session_touches_total", &[]),
            warm_hits: g.counter("jigsaw_session_warm_hits_total", &[]),
            tier0: g.counter("jigsaw_session_estimates_total", &[("tier", "tier0")]),
            refined: g.counter("jigsaw_session_estimates_total", &[("tier", "refined")]),
        }
    })
}

impl InteractiveSession {
    /// Start a session focused on point 0, with empty (cold) basis stores.
    pub fn new(sim: Arc<dyn Simulation>, cfg: SessionConfig) -> Self {
        let jcfg = JigsawConfig::paper()
            .with_fingerprint_len(cfg.fingerprint_len)
            .with_n_samples(cfg.n_target.max(cfg.fingerprint_len))
            .with_tolerance(cfg.tolerance);
        let store = SharedBasisStore::new(sim.columns().len(), &jcfg, Arc::new(AffineFamily));
        Self::attach(sim, cfg, store)
    }

    /// Start a session from a pre-populated basis store — e.g. one loaded
    /// from a snapshot of an earlier sweep or session over the same
    /// scenario (see [`crate::basis::snapshot`]), so the first touches of
    /// familiar points resolve immediately instead of ramping up cold.
    ///
    /// The store must have one shard per output column of `sim`.
    pub fn with_store(
        sim: Arc<dyn Simulation>,
        cfg: SessionConfig,
        store: ShardedBasisStore,
    ) -> Self {
        Self::attach(sim, cfg, SharedBasisStore::from_store(store))
    }

    /// Attach to a *shared* basis store: the session reads and grows the
    /// same store every other attachment uses, so its first touches of
    /// points other clients already explored resolve warm. Matches against
    /// bases the session did not itself create count toward
    /// [`Self::warm_hits`].
    ///
    /// The store must have one shard per output column of `sim`.
    pub fn attach(sim: Arc<dyn Simulation>, cfg: SessionConfig, store: SharedBasisStore) -> Self {
        assert!(cfg.batch > 0 && cfg.fingerprint_len >= 2);
        assert_eq!(
            store.n_shards(),
            sim.columns().len(),
            "warm store must have one shard per output column"
        );
        let seen_generation = store.generation();
        let n_cols = sim.columns().len();
        InteractiveSession {
            sim,
            cfg,
            store,
            own: vec![std::collections::HashSet::new(); n_cols],
            seen_generation,
            points: HashMap::new(),
            focus: 0,
            tick: 0,
            worlds_evaluated: 0,
            warm_hits: 0,
        }
    }

    /// End the session and reclaim its basis store (for snapshotting — the
    /// dual of [`Self::with_store`]).
    ///
    /// Panics if other attachments to the store are still alive; a session
    /// on a shared store snapshots through
    /// [`SharedBasisStore::to_snapshot_bytes`] instead.
    pub fn into_store(self) -> ShardedBasisStore {
        self.store
            .try_into_store()
            .unwrap_or_else(|_| panic!("cannot reclaim a basis store other sessions still share"))
    }

    /// The shared store this session is attached to.
    pub fn shared_store(&self) -> SharedBasisStore {
        self.store.clone()
    }

    /// Move the user's focus to a new point (e.g. a slider change).
    pub fn set_focus(&mut self, point_idx: usize) {
        assert!(point_idx < self.sim.space().len(), "focus out of range");
        self.focus = point_idx;
    }

    /// The current focus.
    pub fn focus(&self) -> usize {
        self.focus
    }

    /// Notice a wholesale store replacement (the server's snapshot `LOAD`):
    /// every cached basis link and ownership record is stale, so drop them
    /// all — the new contents count as someone else's work.
    ///
    /// `generation` must have been observed **under the same lock
    /// acquisition** that the caller is about to dereference ids in
    /// ([`SharedBasisStore::with_store_mut_versioned`]); a racing `replace`
    /// between a standalone generation read and the dereference would
    /// otherwise let a stale id alias an unrelated basis at the same index.
    fn drop_stale_links(
        seen: &mut u64,
        generation: u64,
        own: &mut [std::collections::HashSet<usize>],
        points: &mut HashMap<usize, PointState>,
    ) {
        if generation == *seen {
            return;
        }
        *seen = generation;
        for set in own.iter_mut() {
            set.clear();
        }
        for state in points.values_mut() {
            for col in &mut state.cols {
                col.basis = None;
                // The running bound partly reflects the replaced store's
                // basis metrics; drop it so post-LOAD estimates are a pure
                // function of the new store (same bits as a fresh session).
                col.bound = None;
            }
        }
    }

    /// The paper's `TaskHeuristic`: rotate refinement / validation /
    /// exploration, weighted toward refinement of the focused point.
    fn task_heuristic(&self) -> TaskKind {
        match self.tick % 4 {
            0 | 1 => TaskKind::Refinement,
            2 => TaskKind::Validation,
            _ => TaskKind::Exploration,
        }
    }

    /// The paper's `ExploreHeuristic`: nearest unexplored neighbor of the
    /// focus (alternating sides, growing radius).
    fn explore_heuristic(&self) -> usize {
        let len = self.sim.space().len();
        for radius in 1..len {
            for candidate in [
                self.focus.checked_add(radius).filter(|&c| c < len),
                self.focus.checked_sub(radius),
            ]
            .into_iter()
            .flatten()
            {
                let unexplored = self
                    .points
                    .get(&candidate)
                    .map(|p| p.cols.iter().all(|c| c.n_direct == 0))
                    .unwrap_or(true);
                if unexplored {
                    return candidate;
                }
            }
        }
        self.focus
    }

    /// First contact with a point: generate its fingerprint and try to match
    /// a basis; on miss, seed a new basis with the fingerprint samples.
    ///
    /// (Already-touched points return immediately: their cached links are
    /// guarded at every dereference site by a generation check under the
    /// store lock, so no eager sync is needed here.)
    fn touch(&mut self, point_idx: usize) -> Result<()> {
        if self.points.contains_key(&point_idx) {
            return Ok(());
        }
        let m = self.cfg.fingerprint_len;
        let point = self.sim.space().point_at(point_idx);
        // Monte Carlo work happens outside the store lock; only the
        // resolve/insert bookkeeping below holds it.
        let head = jigsaw_pdb::eval_window(&*self.sim, &point, 0, m)?.into_columns();
        self.worlds_evaluated += m as u64;
        for (c, samples) in head.iter().enumerate() {
            crate::fingerprint::check_finite(samples, point_idx, c)?;
        }
        let own = &mut self.own;
        let points = &mut self.points;
        let seen = &mut self.seen_generation;
        let (cols, warm) = self.store.with_store_mut_versioned(|generation, stores| {
            Self::drop_stale_links(seen, generation, own, points);
            let mut cols = Vec::with_capacity(head.len());
            let mut warm = !head.is_empty();
            for samples in head {
                let c = cols.len();
                let metrics = OutputMetrics::from_samples(samples);
                let fp = Fingerprint::new(metrics.samples().to_vec());
                let store = stores.shard_mut(c);
                // On a miss the point seeds a new basis and keeps an identity
                // mapping to it, so its own refinements grow the shared basis
                // (paper §5: refinement "improves the accuracy of the basis
                // distribution's precomputed metrics").
                let basis = match store.find_match(&fp) {
                    Some(hit) => {
                        warm &= !own[c].contains(&hit.0 .0);
                        Some(hit)
                    }
                    None => {
                        warm = false;
                        let id = store.insert(fp, metrics.clone());
                        own[c].insert(id.0);
                        Some((id, AffineMap::IDENTITY))
                    }
                };
                // Tier-0 bound: whatever the richer of (mapped basis,
                // fingerprint head) already supports, without any further
                // simulation.
                let mut col = PointColState { n_direct: m, metrics, basis, bound: None };
                col.tighten(store);
                cols.push(col);
            }
            (cols, warm)
        });
        if warm {
            self.warm_hits += 1;
            session_obs().warm_hits.inc();
        }
        session_obs().touches.inc();
        self.points.insert(point_idx, PointState { point, cols, ahead: None });
        Ok(())
    }

    /// Fold up to `batches` batches of fresh samples into a point, one
    /// *look* per batch: each look folds its samples into the direct
    /// metrics, the basis (through the inverse mapping, paper §5) and the
    /// progressive fingerprint validation, then hands column `report`'s
    /// estimate to `look`; folding stops after the first look for which
    /// `look` returns `false`. Returns the worlds folded — 0 when the point
    /// is already at `n_target`.
    ///
    /// The worlds come from one look-ahead window: the point's unfolded
    /// worlds, topped up by one `eval_window` call outside the store lock.
    /// Every look of the window folds under **one** lock acquisition, with
    /// the same operations in the same order as a batch-at-a-time fold, so
    /// each look's estimate is bit-identical to the one a single-batch call
    /// at the same sample count returns. Worlds past the stopping look stay
    /// on the point. An evaluation error leaves the point unchanged.
    fn fold(
        &mut self,
        point_idx: usize,
        report: usize,
        batches: usize,
        mut look: impl FnMut(Estimate) -> bool,
    ) -> Result<usize> {
        let tolerance = self.cfg.tolerance;
        let batch = self.cfg.batch;
        let state = self.points.get_mut(&point_idx).expect("touched");
        let start = state.cols.iter().map(|c| c.n_direct).min().unwrap_or(0);
        if start >= self.cfg.n_target {
            return Ok(0);
        }
        // Clamp the window to the refinement ceiling: sample ids must never
        // pass `n_target`, or the fold-back below would extend — i.e.
        // mutate — a basis that a sweep built with exactly `n_target`
        // samples (the invariant [`SessionConfig::from_jigsaw`] documents).
        let want = batches.saturating_mul(batch).min(self.cfg.n_target - start);
        let have = state.ahead.as_ref().map_or(0, WorldBatch::n_worlds);
        if have < want {
            let fresh =
                jigsaw_pdb::eval_window(&*self.sim, &state.point, start + have, want - have)?;
            match &mut state.ahead {
                Some(ahead) => ahead.extend(fresh),
                None => state.ahead = Some(fresh),
            }
        }
        let mut window = state.ahead.take().expect("filled above");
        let own = &mut self.own;
        let points = &mut self.points;
        let seen = &mut self.seen_generation;
        let folded = self.store.with_store_mut_versioned(|generation, stores| {
            // The stale-link check and every id dereference below share one
            // lock acquisition: a concurrent store replacement can never
            // slip between them and let a stale id alias (and refine!) an
            // unrelated basis at the same index.
            Self::drop_stale_links(seen, generation, own, points);
            let state = points.get_mut(&point_idx).expect("touched");
            let mut at = 0;
            while at < want {
                let n = batch.min(want - at);
                let from = start + at;
                let mut served = None;
                for (c, samples) in window.columns().iter().enumerate() {
                    let samples = &samples[at..at + n];
                    let col = &mut state.cols[c];
                    col.metrics.extend(samples);
                    col.n_direct = from + n;
                    if let Some((id, map)) = col.basis {
                        // Validate the mapping on the fresh samples: the
                        // basis predicts M(basis_sample_k) for the same ids.
                        let store = stores.shard_mut(c);
                        let basis = store.get(id);
                        let basis_samples = basis.metrics.samples();
                        let consistent = samples.iter().enumerate().all(|(i, &x)| {
                            basis_samples
                                .get(from + i)
                                .map(|&b| crate::fingerprint::approx_eq(map.apply(b), x, tolerance))
                                // Sample id beyond basis coverage: fold it
                                // back through the inverse mapping instead.
                                .unwrap_or(true)
                        });
                        if consistent {
                            if let Some(inv) = map.invert() {
                                let back: Vec<f64> = samples
                                    .iter()
                                    .enumerate()
                                    .filter(|(i, _)| from + i >= basis_samples.len())
                                    .map(|(_, &x)| inv.apply(x))
                                    .collect();
                                if !back.is_empty() {
                                    store.refine(id, &back);
                                }
                            }
                        } else {
                            // Mapping refuted by new evidence: detach and
                            // fall back to direct estimation (Algorithm 5's
                            // FindMatch-on-mismatch).
                            col.basis = None;
                        }
                    }
                    let mapped = col.tighten(stores.shard(c));
                    if c == report {
                        served = Some(col.estimate(point_idx, mapped));
                    }
                }
                at += n;
                if served.is_some_and(|est| !look(est)) {
                    break;
                }
            }
            at
        });
        self.worlds_evaluated += folded as u64;
        if folded < window.n_worlds() {
            window.remove_front(folded);
            self.points.get_mut(&point_idx).expect("touched").ahead = Some(window);
        }
        Ok(folded)
    }

    /// Execute one event-loop iteration. Returns the task performed.
    pub fn tick(&mut self) -> Result<TaskKind> {
        let task = self.task_heuristic();
        self.tick += 1;
        let target = match task {
            TaskKind::Refinement | TaskKind::Validation => self.focus,
            TaskKind::Exploration => self.explore_heuristic(),
        };
        self.touch(target)?;
        self.fold(target, 0, 1, |_| true)?;
        Ok(task)
    }

    /// The current estimate for a column of a point, if the point has been
    /// touched. Prefers the richer of (mapped basis, direct samples).
    pub fn estimate(&self, point_idx: usize, col: usize) -> Option<Estimate> {
        let state = self.points.get(&point_idx)?;
        let c = &state.cols[col];
        // `&self` cannot drop stale links, but it can refuse to follow them:
        // if the store was replaced since this session last synced
        // (generation observed under the same lock as the dereference), the
        // cached id may alias an unrelated basis at the same index — fall
        // back to the direct samples instead.
        let mapped = c.basis.and_then(|_| {
            self.store.with_store_versioned(|generation, stores| {
                if generation == self.seen_generation {
                    c.mapped(stores.shard(col))
                } else {
                    None
                }
            })
        });
        Some(c.estimate(point_idx, mapped))
    }

    /// Typed bounds check for client-supplied indices: long-lived hosts
    /// answer `ERR` and keep serving (the `WorkerPanic` contract), so a
    /// malformed `ESTIMATE 999999999 0` must not reach an `assert!`.
    fn check_range(&self, point_idx: usize, col: usize) -> Result<()> {
        let n_points = self.sim.space().len();
        if point_idx >= n_points {
            return Err(PdbError::OutOfRange(format!("point {point_idx} of {n_points}")));
        }
        let n_cols = self.sim.columns().len();
        if col >= n_cols {
            return Err(PdbError::OutOfRange(format!("column {col} of {n_cols}")));
        }
        Ok(())
    }

    /// Refuse to put NaN on the wire: an estimate backed by zero samples
    /// (or whose mean/bound is NaN) is a typed error, consistent with the
    /// `NanMetric` policy at the `OPTIMIZE` selector, not a silent
    /// `7ff8…` bit pattern the client must know to sniff for.
    fn wire_safe(est: Estimate) -> Result<Estimate> {
        if !Self::is_wire_safe(&est) {
            return Err(PdbError::NanMetric(format!(
                "estimate for point {} has no usable samples (n = {})",
                est.point_idx, est.n_samples
            )));
        }
        Ok(est)
    }

    /// The test [`Self::wire_safe`] applies.
    fn is_wire_safe(est: &Estimate) -> bool {
        est.n_samples > 0 && !est.expectation.is_nan() && !est.lo.is_nan() && !est.hi.is_nan()
    }

    /// Touch `point_idx` (fingerprint + match, if this is first contact)
    /// and return the resulting estimate for `col` — the one-shot what-if
    /// probe the session server's `ESTIMATE` command performs.
    pub fn estimate_now(&mut self, point_idx: usize, col: usize) -> Result<Estimate> {
        let _span = jigsaw_obs::span!("session.estimate", point = point_idx, col = col);
        self.check_range(point_idx, col)?;
        self.touch(point_idx)?;
        let est = Self::wire_safe(self.estimate(point_idx, col).expect("point touched above"))?;
        self.count_tier(point_idx, col);
        Ok(est)
    }

    /// One anytime refinement step for `(point_idx, col)`. First contact
    /// pays only the fingerprint head (the tier-0 analytic answer); each
    /// further call folds exactly one direct batch into the point and
    /// tightens the running bound. This bypasses the tick rotation so the
    /// server can drive one subscription deterministically; sample ids
    /// address the same worlds any other schedule would evaluate, so the
    /// results are bit-identical to a blocking session reaching the same
    /// sample count — and to the looks of [`Self::estimate_bounded`]'s
    /// look-ahead windows, which fold through the same routine.
    pub fn refine_once(&mut self, point_idx: usize, col: usize) -> Result<Estimate> {
        let _span = jigsaw_obs::span!("session.refine", point = point_idx, col = col);
        self.check_range(point_idx, col)?;
        let mut folded = None;
        if self.points.contains_key(&point_idx) {
            self.fold(point_idx, col, 1, |est| {
                folded = Some(est);
                true
            })?;
        } else {
            self.touch(point_idx)?;
        }
        let est = match folded {
            Some(est) => est,
            None => self.estimate(point_idx, col).expect("point touched above"),
        };
        let est = Self::wire_safe(est)?;
        self.count_tier(point_idx, col);
        Ok(est)
    }

    /// The anytime loop (Algorithm 5's refinement of one point): an
    /// [`Self::estimate_now`], then one-batch *looks* until the bound of
    /// `(point_idx, col)` is at most `eps` wide or the per-point sample
    /// budget (`n_target`) is exhausted; the result says which.
    ///
    /// The looks come from look-ahead windows of 2, 4, 8, … batches,
    /// capped at the budget: one `eval_window` call and one store-lock acquisition per
    /// window, not per batch. A window folds its looks in order and stops
    /// at the first one within `eps` (or not wire-safe); its unfolded
    /// worlds stay on the point for the next refinement. Each look is
    /// bit-identical to the [`Self::refine_once`] step at the same sample
    /// count, and [`Self::worlds_evaluated`] counts folded worlds only, so
    /// estimates, step counts and world counts match a batch-at-a-time
    /// loop. A window whose evaluation fails is re-run one batch at a time,
    /// so an error surfaces at the same look, after the same bounds.
    ///
    /// `on_bound` sees the tier-0 estimate and then every refined one that
    /// is neither within `eps` nor the exhausted last step's, after the
    /// window that folded it released the store lock. Returning `false`
    /// stops the loop at that look: the result carries its estimate and
    /// step count, and looks its window already folded after it stay
    /// folded (and counted) but unreported. The server's `SUBSCRIBE`
    /// streams these bounds, so a stream and a blocking call take the same
    /// steps.
    pub fn estimate_bounded(
        &mut self,
        point_idx: usize,
        col: usize,
        eps: f64,
        mut on_bound: impl FnMut(&Estimate) -> bool,
    ) -> Result<BoundedEstimate> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(PdbError::OutOfRange(format!(
                "eps must be positive and finite, got {eps}"
            )));
        }
        let mut est = self.estimate_now(point_idx, col)?;
        let mut steps = 0usize;
        let mut going = on_bound(&est);
        let mut window = 2usize;
        // Looks of a failed window still to re-run one batch at a time.
        let mut stepwise = 0usize;
        let mut looks = Vec::new();
        while going && est.width() > eps {
            let batches = if stepwise > 0 { 1 } else { window };
            let folded = {
                let _span = jigsaw_obs::span!(
                    "session.refine",
                    point = point_idx,
                    col = col,
                    batches = batches
                );
                self.fold(point_idx, col, batches, |look| {
                    let more = look.width() > eps && Self::is_wire_safe(&look);
                    looks.push(look);
                    more
                })
            };
            match folded {
                // n_target reached with the bound still wider than eps:
                // answer what a batch-at-a-time loop's last, empty step read.
                Ok(0) => {
                    est = self.refine_once(point_idx, col)?;
                    break;
                }
                Ok(_) => {}
                Err(_) if batches > 1 => {
                    stepwise = batches;
                    continue;
                }
                Err(e) => return Err(e),
            }
            if stepwise > 0 {
                stepwise -= 1;
            } else {
                window = window.saturating_mul(2);
            }
            for look in looks.drain(..) {
                est = Self::wire_safe(look)?;
                // A look follows a fold, so `count_tier` would say refined.
                session_obs().refined.inc();
                steps += 1;
                going = est.width() <= eps || on_bound(&est);
                if !going {
                    break;
                }
            }
        }
        Ok(BoundedEstimate { converged: est.width() <= eps, estimate: est, steps })
    }

    /// Count a served estimate as tier-0 (answered from the fingerprint
    /// head / mapped basis alone — no refinement batches folded into the
    /// column yet) or refined, for the `jigsaw_session_estimates_total`
    /// instrument. Purely observational.
    fn count_tier(&self, point_idx: usize, col: usize) {
        let obs = session_obs();
        match self.points.get(&point_idx) {
            Some(state) if state.cols[col].n_direct <= self.cfg.fingerprint_len => obs.tier0.inc(),
            _ => obs.refined.inc(),
        }
    }

    /// Number of basis distributions per column.
    pub fn basis_counts(&self) -> Vec<usize> {
        self.store.bases_per_column()
    }

    /// Number of touched points.
    pub fn touched_points(&self) -> usize {
        self.points.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_blackbox::models::Demand;
    use jigsaw_blackbox::{ParamDecl, ParamSpace};
    use jigsaw_pdb::BlackBoxSim;
    use jigsaw_prng::SeedSet;
    use std::sync::Arc;

    fn sim() -> Arc<BlackBoxSim> {
        let space = ParamSpace::new(vec![
            ParamDecl::range("week", 1, 30, 1),
            ParamDecl::set("feature", vec![50]),
        ]);
        Arc::new(BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(77)))
    }

    #[test]
    fn ticks_rotate_tasks() {
        let s = sim();
        let mut session = InteractiveSession::new(s.clone(), SessionConfig::default());
        let tasks: Vec<TaskKind> = (0..8).map(|_| session.tick().unwrap()).collect();
        assert_eq!(
            tasks,
            vec![
                TaskKind::Refinement,
                TaskKind::Refinement,
                TaskKind::Validation,
                TaskKind::Exploration,
                TaskKind::Refinement,
                TaskKind::Refinement,
                TaskKind::Validation,
                TaskKind::Exploration,
            ]
        );
    }

    #[test]
    fn estimates_improve_with_ticks() {
        let s = sim();
        let mut session = InteractiveSession::new(s.clone(), SessionConfig::default());
        session.set_focus(9); // week 10
        session.tick().unwrap();
        let early = session.estimate(9, 0).expect("touched");
        for _ in 0..40 {
            session.tick().unwrap();
        }
        let late = session.estimate(9, 0).unwrap();
        assert!(late.n_samples > early.n_samples);
        // Week 10 demand has mean 10.
        assert!((late.expectation - 10.0).abs() < 1.0, "estimate {}", late.expectation);
    }

    #[test]
    fn second_point_starts_from_mapped_basis() {
        let s = sim();
        let mut session = InteractiveSession::new(s.clone(), SessionConfig::default());
        session.set_focus(9);
        for _ in 0..30 {
            session.tick().unwrap();
        }
        // Move focus to a fresh affine-related point: its very first
        // estimate should already carry the basis's sample mass.
        session.set_focus(19); // week 20
        session.tick().unwrap();
        let est = session.estimate(19, 0).expect("touched");
        assert_eq!(est.source, EstimateSource::MappedBasis);
        assert!(est.n_samples > SessionConfig::default().fingerprint_len);
        assert!((est.expectation - 20.0).abs() < 2.0, "estimate {}", est.expectation);
    }

    #[test]
    fn exploration_prewarms_neighbors() {
        let s = sim();
        let mut session = InteractiveSession::new(s.clone(), SessionConfig::default());
        session.set_focus(10);
        for _ in 0..12 {
            session.tick().unwrap();
        }
        assert!(session.touched_points() >= 3, "focus plus explored neighbors");
        // Neighbors of the focus must be among the touched points.
        assert!(session.estimate(11, 0).is_some() || session.estimate(9, 0).is_some());
    }

    #[test]
    fn basis_store_stays_small_for_affine_model() {
        let s = sim();
        let mut session = InteractiveSession::new(s.clone(), SessionConfig::default());
        for f in [5usize, 10, 15, 20, 25] {
            session.set_focus(f);
            for _ in 0..8 {
                session.tick().unwrap();
            }
        }
        let bases = session.basis_counts();
        assert!(bases[0] <= 2, "affine Demand should share bases, got {bases:?}");
    }

    #[test]
    fn warm_store_skips_the_cold_ramp() {
        let s = sim();
        // Warm up a session, export its store, and start a new one from it.
        let mut warmup = InteractiveSession::new(s.clone(), SessionConfig::default());
        warmup.set_focus(9);
        for _ in 0..30 {
            warmup.tick().unwrap();
        }
        let store = warmup.into_store();
        assert!(store.bases_per_column()[0] >= 1);
        let mut warm = InteractiveSession::with_store(s.clone(), SessionConfig::default(), store);
        warm.set_focus(9);
        warm.tick().unwrap();
        let est = warm.estimate(9, 0).unwrap();
        // The very first estimate already rides the warmed basis…
        assert_eq!(est.source, EstimateSource::MappedBasis);
        // …and is counted as a warm hit: the session didn't pay for it.
        assert_eq!(warm.warm_hits, 1);
        // …and carries more sample mass than a cold session's first tick.
        let mut cold = InteractiveSession::new(s.clone(), SessionConfig::default());
        cold.set_focus(9);
        cold.tick().unwrap();
        let cold_est = cold.estimate(9, 0).unwrap();
        assert_eq!(cold.warm_hits, 0, "cold session pays for its own bases");
        assert!(
            est.n_samples > cold_est.n_samples,
            "warm {} vs cold {}",
            est.n_samples,
            cold_est.n_samples
        );
    }

    #[test]
    fn attached_sessions_share_one_store() {
        let s = sim();
        let jcfg = JigsawConfig::paper().with_n_samples(1000);
        let shared =
            SharedBasisStore::new(s.columns().len(), &jcfg, std::sync::Arc::new(AffineFamily));
        // Session A pays the cold ramp.
        let mut a = InteractiveSession::attach(s.clone(), SessionConfig::default(), shared.clone());
        a.set_focus(9);
        for _ in 0..30 {
            a.tick().unwrap();
        }
        assert_eq!(a.warm_hits, 0, "first session has nobody to ride on");
        let bases_after_a = shared.bases_per_column();
        assert!(bases_after_a[0] >= 1);
        // Session B attaches to the same store: its first touch of a
        // related point rides A's basis and is counted as a warm hit.
        let mut b = InteractiveSession::attach(s.clone(), SessionConfig::default(), shared.clone());
        b.set_focus(19);
        b.tick().unwrap();
        assert_eq!(b.warm_hits, 1, "B's first touch rides A's basis");
        let est = b.estimate(19, 0).unwrap();
        assert_eq!(est.source, EstimateSource::MappedBasis);
        assert!(est.n_samples > SessionConfig::default().fingerprint_len);
        // Both sessions observe the same store.
        assert_eq!(a.basis_counts(), b.basis_counts());
        // And the store cannot be reclaimed while both are attached.
        assert!(shared.handles() >= 3);
    }

    #[test]
    fn refinement_never_passes_n_target() {
        // (n_target - fingerprint_len) deliberately not a multiple of
        // `batch`: the last batch must clamp, or the fold-back would push
        // samples past the ceiling and grow the basis beyond what a sweep
        // with the same config would have built.
        let s = sim();
        let cfg = SessionConfig { n_target: 25, ..SessionConfig::default() };
        let mut session = InteractiveSession::new(s.clone(), cfg);
        session.set_focus(9);
        for _ in 0..12 {
            session.tick().unwrap();
        }
        let est = session.estimate(9, 0).unwrap();
        assert_eq!(est.n_samples, 25, "refinement stops exactly at n_target");
        let store = session.into_store();
        for basis in store.shard(0).bases() {
            assert!(
                basis.metrics.n() <= 25,
                "basis grew past n_target: {} samples",
                basis.metrics.n()
            );
        }
    }

    #[test]
    fn estimate_now_touches_and_estimates() {
        let s = sim();
        let mut session = InteractiveSession::new(s.clone(), SessionConfig::default());
        assert!(session.estimate(9, 0).is_none(), "untouched point has no estimate");
        let est = session.estimate_now(9, 0).unwrap();
        assert_eq!(est.point_idx, 9);
        assert_eq!(est.n_samples, SessionConfig::default().fingerprint_len);
        assert_eq!(session.touched_points(), 1);
        // A second probe reuses the touch (no extra worlds).
        let worlds = session.worlds_evaluated;
        session.estimate_now(9, 0).unwrap();
        assert_eq!(session.worlds_evaluated, worlds);
    }

    #[test]
    fn estimate_now_out_of_range_is_typed_error() {
        let s = sim();
        let mut session = InteractiveSession::new(s.clone(), SessionConfig::default());
        match session.estimate_now(999_999_999, 0) {
            Err(jigsaw_pdb::PdbError::OutOfRange(msg)) => assert!(msg.contains("point")),
            other => panic!("expected OutOfRange, got {other:?}"),
        }
        match session.estimate_now(0, 99) {
            Err(jigsaw_pdb::PdbError::OutOfRange(msg)) => assert!(msg.contains("column")),
            other => panic!("expected OutOfRange, got {other:?}"),
        }
        // The session survives the bad probes and keeps serving.
        assert!(session.estimate_now(9, 0).is_ok());
    }

    #[test]
    fn anytime_bound_brackets_and_never_widens() {
        let s = sim();
        let mut session = InteractiveSession::new(s.clone(), SessionConfig::default());
        session.set_focus(9);
        let first = session.estimate_now(9, 0).unwrap();
        assert!(first.lo <= first.expectation && first.expectation <= first.hi);
        let mut prev = (first.lo, first.hi);
        for _ in 0..40 {
            session.tick().unwrap();
            let est = session.estimate(9, 0).unwrap();
            assert!(est.lo <= est.expectation && est.expectation <= est.hi);
            assert!(est.lo >= prev.0, "lower edge widened: {} < {}", est.lo, prev.0);
            assert!(est.hi <= prev.1, "upper edge widened: {} > {}", est.hi, prev.1);
            prev = (est.lo, est.hi);
        }
        // The converged expectation sits inside every interval streamed on
        // the way (the running intersection is exactly the final interval).
        let converged = session.estimate(9, 0).unwrap();
        assert!(prev.0 <= converged.expectation && converged.expectation <= prev.1);
        // Week 10 demand has mean 10; the 3σ bound should bracket it.
        assert!(converged.lo <= 10.0 && 10.0 <= converged.hi, "{converged:?}");
    }

    #[test]
    fn estimate_bounded_converges_and_matches_blocking_estimate() {
        let s = sim();
        let mut session = InteractiveSession::new(s.clone(), SessionConfig::default());
        let bounded = session.estimate_bounded(9, 0, 0.5, |_| true).unwrap();
        assert!(bounded.converged);
        assert!(bounded.estimate.width() <= 0.5);
        assert!(bounded.steps > 0, "a cold point needs refinement to reach eps");
        // The determinism contract: a blocking probe on the same state
        // returns the exact same bits.
        let blocking = session.estimate_now(9, 0).unwrap();
        assert_eq!(blocking.expectation.to_bits(), bounded.estimate.expectation.to_bits());
        assert_eq!(blocking.std_dev.to_bits(), bounded.estimate.std_dev.to_bits());
        assert_eq!(blocking.lo.to_bits(), bounded.estimate.lo.to_bits());
        assert_eq!(blocking.hi.to_bits(), bounded.estimate.hi.to_bits());
        assert_eq!(blocking.n_samples, bounded.estimate.n_samples);
    }

    #[test]
    fn estimate_bounded_reports_budget_exhaustion() {
        let s = sim();
        let cfg = SessionConfig { n_target: 20, ..SessionConfig::default() };
        let mut session = InteractiveSession::new(s.clone(), cfg);
        // An absurdly tight bound cannot be met with 20 samples.
        let bounded = session.estimate_bounded(9, 0, 1e-12, |_| true).unwrap();
        assert!(!bounded.converged);
        assert!(bounded.estimate.width() > 1e-12);
        assert_eq!(bounded.estimate.n_samples, 20, "refined to the cap before giving up");
    }

    #[test]
    fn estimate_bounded_rejects_bad_eps() {
        let s = sim();
        let mut session = InteractiveSession::new(s.clone(), SessionConfig::default());
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            match session.estimate_bounded(9, 0, eps, |_| true) {
                Err(jigsaw_pdb::PdbError::OutOfRange(msg)) => assert!(msg.contains("eps")),
                other => panic!("eps {eps}: expected OutOfRange, got {other:?}"),
            }
        }
    }

    /// Every bit an estimate carries.
    type Bits = (usize, u64, u64, u64, u64, EstimateSource);

    fn bits(e: &Estimate) -> Bits {
        let f = |x: f64| x.to_bits();
        (e.n_samples, f(e.expectation), f(e.std_dev), f(e.lo), f(e.hi), e.source)
    }

    /// What one anytime stream shows: the bounds its callback saw, then
    /// (final estimate, steps, converged) or the error's text.
    type Stream = (Vec<Bits>, std::result::Result<(Bits, usize, bool), String>);

    fn looped(session: &mut InteractiveSession, point: usize, eps: f64) -> Stream {
        let mut seen = Vec::new();
        let result = session.estimate_bounded(point, 0, eps, |e| {
            seen.push(bits(e));
            true
        });
        (seen, result.map(|b| (bits(&b.estimate), b.steps, b.converged)).map_err(|e| e.to_string()))
    }

    /// The anytime loop by hand, one `refine_once` batch at a time.
    fn stepped(session: &mut InteractiveSession, point: usize, eps: f64) -> Stream {
        let mut seen = Vec::new();
        let mut run = || {
            let mut est = session.estimate_now(point, 0)?;
            seen.push(bits(&est));
            let mut steps = 0;
            while est.width() > eps {
                let before = session.worlds_evaluated;
                est = session.refine_once(point, 0)?;
                if session.worlds_evaluated == before {
                    break;
                }
                steps += 1;
                if est.width() > eps {
                    seen.push(bits(&est));
                }
            }
            Ok::<_, PdbError>((bits(&est), steps, est.width() <= eps))
        };
        let result = run().map_err(|e| e.to_string());
        (seen, result)
    }

    /// `sim()`'s space and `Demand`, plus `quirk(week, world)` on every
    /// output, counting model calls.
    fn quirky_sim(
        quirk: impl Fn(f64, usize) -> f64 + Send + Sync + 'static,
    ) -> (Arc<BlackBoxSim>, jigsaw_blackbox::InvocationCounter) {
        let seeds = SeedSet::new(77);
        let world: HashMap<u64, usize> = (0..2000).map(|k| (seeds.seed(k).0, k)).collect();
        let demand = Demand::paper();
        let model = jigsaw_blackbox::Counted::new(jigsaw_blackbox::FnBlackBox::new(
            "Demand",
            2,
            move |p: &[f64], s: jigsaw_prng::Seed| {
                use jigsaw_blackbox::BlackBox;
                demand.eval(p, s) + quirk(p[0], world.get(&s.0).copied().unwrap_or(usize::MAX))
            },
        ));
        let counter = model.counter();
        let space = ParamSpace::new(vec![
            ParamDecl::range("week", 1, 30, 1),
            ParamDecl::set("feature", vec![50]),
        ]);
        (Arc::new(BlackBoxSim::new(Arc::new(model), space, seeds)), counter)
    }

    /// Run `streams` (point, eps) on two sessions built alike and prepared
    /// by `setup`, one through `estimate_bounded`, one by hand; `between`
    /// runs on each before every stream after the first. Every bound, the
    /// results and `worlds_evaluated` must agree bit for bit. Returns the
    /// windowed session.
    fn windows_match_steps(
        case: &str,
        make: &dyn Fn() -> InteractiveSession,
        setup: &dyn Fn(&mut InteractiveSession),
        streams: &[(usize, f64)],
        between: &dyn Fn(&mut InteractiveSession),
    ) -> (InteractiveSession, Vec<Stream>) {
        let (mut windowed, mut by_hand) = (make(), make());
        setup(&mut windowed);
        setup(&mut by_hand);
        let mut outcomes = Vec::new();
        for (i, &(point, eps)) in streams.iter().enumerate() {
            if i > 0 {
                between(&mut windowed);
                between(&mut by_hand);
            }
            let got = looped(&mut windowed, point, eps);
            assert_eq!(got, stepped(&mut by_hand, point, eps), "{case}: stream {i}");
            assert_eq!(windowed.worlds_evaluated, by_hand.worlds_evaluated, "{case}: stream {i}");
            outcomes.push(got);
        }
        (windowed, outcomes)
    }

    #[test]
    fn refine_once_stream_matches_estimate_bounded() {
        let cfg = SessionConfig::default();
        let fresh = || InteractiveSession::new(sim(), cfg);
        let nothing = |_: &mut InteractiveSession| {};
        // Refine week 10 (point 9) 20 batches deep: its basis then covers
        // sample ids 0..210, against which week 20 (point 19) validates.
        let warm_week_10 = |s: &mut InteractiveSession| {
            for _ in 0..21 {
                s.refine_once(9, 0).unwrap();
            }
        };

        // A cold point converging at eps 0.5.
        let (_, cold) = windows_match_steps("cold", &fresh, &nothing, &[(9, 0.5)], &nothing);
        assert!(cold[0].0.len() > 3, "the stream spans several windows");

        // A point mapped onto a full (n_target-sample) basis: every look
        // validates against the basis, none folds back.
        let full = |s: &mut InteractiveSession| {
            while s.refine_once(9, 0).unwrap().n_samples < cfg.n_target {}
        };
        let (_, mapped) = windows_match_steps("full basis", &fresh, &full, &[(19, 1e-9)], &nothing);
        assert_eq!(mapped[0].0[0].5, EstimateSource::MappedBasis);

        // A mapping refuted mid-window: week 20 leaves week 10's affine
        // family at world 45, the 4th look of the stream.
        let (s, _) = quirky_sim(|week, world| if week == 20.0 && world == 45 { 1.0 } else { 0.0 });
        let quirky = || InteractiveSession::new(s.clone(), cfg);
        let (_, refuted) =
            windows_match_steps("detach", &quirky, &warm_week_10, &[(19, 1e-9)], &nothing);
        let sources: Vec<EstimateSource> = refuted[0].0.iter().map(|b| b.5).collect();
        assert_eq!(sources[..4], [EstimateSource::MappedBasis; 4]);
        assert_eq!(sources[4], EstimateSource::Direct, "detached at world 45");

        // Convergence mid-window, then a tighter SUBSCRIBE that consumes
        // the evaluated-but-unfolded worlds; n_target = 255 is not a
        // multiple of the batch. Each world is evaluated exactly once.
        let tail = SessionConfig { n_target: 255, ..cfg };
        let (s, calls) = quirky_sim(|_, _| 0.0);
        let counted = || InteractiveSession::new(s.clone(), tail);
        let (windowed, _) =
            windows_match_steps("leftover", &counted, &nothing, &[(9, 0.8), (9, 1e-9)], &nothing);
        assert_eq!(windowed.estimate(9, 0).unwrap().n_samples, 255);
        assert_eq!(calls.get(), 2 * 255, "each session evaluated each world once");
        let (s, calls) = quirky_sim(|_, _| 0.0);
        let mut probe = InteractiveSession::new(s.clone(), tail);
        let first = looped(&mut probe, 9, 0.8);
        assert!(
            calls.get() > probe.worlds_evaluated,
            "eps 0.8 must converge mid-window ({:?}, {} worlds folded)",
            first.1,
            probe.worlds_evaluated
        );

        // A LOAD (wholesale store replacement) between two streams: the
        // unfolded worlds stay valid, the basis links do not.
        let replace = |s: &mut InteractiveSession| {
            let jcfg = JigsawConfig::paper();
            s.shared_store().replace(ShardedBasisStore::new(1, &jcfg, Arc::new(AffineFamily)));
        };
        windows_match_steps("load", &counted, &nothing, &[(9, 0.8), (9, 0.45)], &replace);

        // A model failing at world 45, inside the second window: the
        // error surfaces after the same bounds, with the same worlds folded.
        let (s, _) = quirky_sim(|week, world| {
            assert!(!(week == 10.0 && world == 45), "deliberate model failure");
            0.0
        });
        let failing = || InteractiveSession::new(s.clone(), cfg);
        let (_, failed) = windows_match_steps("panic", &failing, &nothing, &[(9, 1e-9)], &nothing);
        assert!(failed[0].1.as_ref().is_err_and(|e| e.contains("deliberate")), "{:?}", failed[0].1);
        // …and a NaN at world 45 fails the look that folds it.
        let (s, _) =
            quirky_sim(|week, world| if week == 10.0 && world == 45 { f64::NAN } else { 0.0 });
        let nan = || InteractiveSession::new(s.clone(), cfg);
        let (_, failed) = windows_match_steps("nan", &nan, &nothing, &[(9, 1e-9)], &nothing);
        assert!(failed[0].1.as_ref().is_err_and(|e| e.contains("no usable")), "{:?}", failed[0].1);
    }

    #[test]
    fn estimate_bounded_stops_when_on_bound_says_so() {
        let cfg = SessionConfig::default();
        let mut session = InteractiveSession::new(sim(), cfg);
        // Tier 0 and the first refined bound go on; the second says stop.
        let mut answers = [true, true, false].into_iter();
        let bounded = session.estimate_bounded(9, 0, 1e-12, |_| answers.next().unwrap()).unwrap();
        assert_eq!(answers.next(), None, "tier 0, then two refined bounds");
        assert!(!bounded.converged);
        assert_eq!(bounded.steps, 2);
        assert_eq!(session.worlds_evaluated, (cfg.fingerprint_len + 2 * cfg.batch) as u64);
    }

    #[test]
    fn a_stop_mid_window_keeps_the_window_folded() {
        let cfg = SessionConfig::default();
        let mut session = InteractiveSession::new(sim(), cfg);
        // Tier 0 goes on; the first refined bound, the first look of a
        // two-batch window, says stop.
        let mut answers = [true, false].into_iter();
        let bounded = session.estimate_bounded(9, 0, 1e-12, |_| answers.next().unwrap()).unwrap();
        assert_eq!(bounded.steps, 1);
        assert_eq!(bounded.estimate.n_samples, cfg.fingerprint_len + cfg.batch);
        // The window's second look was folded under the same lock
        // acquisition: it counts, and the point's state includes it.
        assert_eq!(session.worlds_evaluated, (cfg.fingerprint_len + 2 * cfg.batch) as u64);
        assert_eq!(session.estimate(9, 0).unwrap().n_samples, cfg.fingerprint_len + 2 * cfg.batch);
    }

    #[test]
    fn store_replacement_detaches_stale_links() {
        let s = sim();
        let jcfg = JigsawConfig::paper().with_n_samples(1000);
        let shared =
            SharedBasisStore::new(s.columns().len(), &jcfg, std::sync::Arc::new(AffineFamily));
        // Warm the store with one session, then attach a second whose
        // estimates genuinely ride the shared basis (mapped source).
        let mut warmup =
            InteractiveSession::attach(s.clone(), SessionConfig::default(), shared.clone());
        warmup.set_focus(9);
        for _ in 0..30 {
            warmup.tick().unwrap();
        }
        drop(warmup);
        let mut session =
            InteractiveSession::attach(s.clone(), SessionConfig::default(), shared.clone());
        session.set_focus(9);
        session.tick().unwrap();
        assert_eq!(session.estimate(9, 0).unwrap().source, EstimateSource::MappedBasis);
        // Replace the store wholesale (the server's LOAD): stale basis
        // links must never be followed — estimate() refuses them via the
        // generation check even before any mutating op re-syncs…
        shared.replace(crate::basis::ShardedBasisStore::new(
            s.columns().len(),
            &jcfg,
            std::sync::Arc::new(AffineFamily),
        ));
        let est = session.estimate(9, 0).unwrap();
        assert_eq!(est.source, EstimateSource::Direct, "stale link must not be followed");
        // …and the next mutating op drops every link for good.
        session.tick().unwrap();
        let est = session.estimate(9, 0).unwrap();
        // Direct samples survive; the mapped basis is gone until re-matched.
        assert!(est.n_samples > 0);
    }

    #[test]
    fn warm_store_roundtrips_through_snapshot_bytes() {
        let s = sim();
        let mut warmup = InteractiveSession::new(s.clone(), SessionConfig::default());
        warmup.set_focus(9);
        for _ in 0..20 {
            warmup.tick().unwrap();
        }
        let counts = warmup.basis_counts();
        let jcfg = JigsawConfig::paper();
        let bytes = warmup.into_store().to_snapshot_bytes(&jcfg, "affine").unwrap();
        let store = ShardedBasisStore::from_snapshot_bytes(
            &bytes,
            &jcfg,
            std::sync::Arc::new(AffineFamily),
            1,
        )
        .unwrap();
        assert_eq!(store.bases_per_column(), counts);
        let mut warm = InteractiveSession::with_store(s.clone(), SessionConfig::default(), store);
        warm.set_focus(9);
        warm.tick().unwrap();
        assert_eq!(warm.estimate(9, 0).unwrap().source, EstimateSource::MappedBasis);
    }

    #[test]
    fn session_config_derives_from_jigsaw_config() {
        let jcfg =
            JigsawConfig::paper().with_fingerprint_len(12).with_n_samples(300).with_tolerance(1e-7);
        let scfg = SessionConfig::from_jigsaw(&jcfg);
        assert_eq!(scfg.fingerprint_len, 12);
        assert_eq!(scfg.n_target, 300);
        assert_eq!(scfg.tolerance, 1e-7);
        assert_eq!(scfg.batch, SessionConfig::default().batch);
    }

    #[test]
    #[should_panic(expected = "one shard per output column")]
    fn with_store_checks_shard_count() {
        let s = sim();
        let jcfg = JigsawConfig::paper();
        let store = ShardedBasisStore::new(3, &jcfg, std::sync::Arc::new(AffineFamily));
        let _ = InteractiveSession::with_store(s.clone(), SessionConfig::default(), store);
    }

    #[test]
    #[should_panic(expected = "focus out of range")]
    fn focus_bounds_checked() {
        let s = sim();
        let mut session = InteractiveSession::new(s.clone(), SessionConfig::default());
        session.set_focus(10_000);
    }

    #[test]
    #[should_panic(expected = "other sessions still share")]
    fn into_store_refuses_while_shared() {
        let s = sim();
        let jcfg = JigsawConfig::paper();
        let shared =
            SharedBasisStore::new(s.columns().len(), &jcfg, std::sync::Arc::new(AffineFamily));
        let session =
            InteractiveSession::attach(s.clone(), SessionConfig::default(), shared.clone());
        let _ = session.into_store();
    }
}
