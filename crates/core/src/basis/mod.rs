//! Basis distributions and the basis store.
//!
//! "During execution, Jigsaw incrementally maintains a set of basis
//! distributions. Each basis distribution is a tuple (θ_i, o_i), implying
//! that Jigsaw has already computed the output metrics o_i for some F(P_i)
//! with fingerprint θ_i." (paper §3.1)
//!
//! [`BasisStore::find_match`] is the paper's Algorithm 3 (`FindMatch`): the
//! index proposes candidates, the mapping family validates them, and the
//! first validated mapping wins.
//!
//! ## Wave execution split
//!
//! The batch-synchronous executor (`optimizer::executor`) splits the store's
//! lifecycle per wave into a **frozen resolve path** and a **batched commit
//! path**:
//!
//! * [`FrozenBasisView`] is an immutable snapshot handle: it answers
//!   `find_match` without mutating anything (candidate counting is returned,
//!   not accumulated), so it can be consulted from parallel workers.
//! * [`BasisStore::stage`] registers a new basis *fingerprint* the moment a
//!   miss is discovered — later points in the same wave can match against it
//!   — while its metrics stay pending until the completion simulations
//!   finish and [`BasisStore::commit_staged`] lands them, in enumeration
//!   order, at the wave barrier.
//!
//! Because candidates are proposed in deterministic (insertion) order and
//! staging happens in enumeration order, a wave replay is bit-identical to
//! the fully sequential point loop for any thread count.
//!
//! ## Cross-sweep persistence
//!
//! The [`snapshot`] module serializes committed shards to a versioned,
//! checksummed binary format so later sweeps and interactive sessions can
//! warm-start from a prior session's basis sets instead of rebuilding them
//! from scratch.
//!
//! ## In-process sharing
//!
//! The [`shared`] module wraps one store in a lock for concurrent use by
//! many sweeps and sessions ([`SharedBasisStore`]) and maps scenario
//! identities to their one warm store ([`StoreRegistry`]) — the substrate
//! of the session server's multi-client reuse.

pub mod shared;
pub mod snapshot;

pub use shared::{SharedBasisStore, StoreKey, StoreRegistry};
pub use snapshot::{config_fingerprint, content_hash64, SnapshotError, FORMAT_VERSION};

use std::sync::Arc;

use jigsaw_pdb::OutputMetrics;

use crate::config::{IndexStrategy, JigsawConfig};
use crate::fingerprint::Fingerprint;
use crate::index::{make_index, FingerprintIndex};
use crate::mapping::{AffineMap, MappingFamily};

/// Identifier of a basis distribution within a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BasisId(pub usize);

/// One memoized simulation: fingerprint plus computed output metrics.
#[derive(Debug, Clone)]
pub struct BasisDistribution {
    /// Store-local id.
    pub id: BasisId,
    /// The fingerprint `θ_i`.
    pub fingerprint: Fingerprint,
    /// The output metrics `o_i` (empty while the basis is only staged).
    pub metrics: OutputMetrics,
}

/// The incrementally-maintained set of basis distributions for one output
/// column of one simulation.
pub struct BasisStore {
    bases: Vec<BasisDistribution>,
    strategy: IndexStrategy,
    index: Box<dyn FingerprintIndex>,
    family: Arc<dyn MappingFamily>,
    tolerance: f64,
    /// Bases staged (fingerprint registered, metrics pending commit).
    staged: usize,
    /// Bytes of basis sample buffers: moved at commit and refine.
    sample_bytes: usize,
    /// Mapping validations attempted (candidate pairings tested) — the
    /// quantity indexing exists to minimize (Figures 10/11).
    pub pairings_tested: u64,
}

impl BasisStore {
    /// Create a store with the configured index strategy and mapping family.
    pub fn new(cfg: &JigsawConfig, family: Arc<dyn MappingFamily>) -> Self {
        Self::with_strategy(cfg.index, cfg.tolerance, family)
    }

    /// Convenience constructor with explicit strategy.
    pub fn with_strategy(
        strategy: IndexStrategy,
        tolerance: f64,
        family: Arc<dyn MappingFamily>,
    ) -> Self {
        BasisStore {
            bases: Vec::new(),
            strategy,
            index: make_index(strategy, tolerance),
            family,
            tolerance,
            staged: 0,
            sample_bytes: 0,
            pairings_tested: 0,
        }
    }

    /// Number of basis distributions (committed and staged).
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// True when no basis has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Number of staged bases whose metrics are still pending.
    pub fn staged(&self) -> usize {
        self.staged
    }

    /// Bytes held in basis sample buffers (`8 ×` samples over every
    /// basis) — the store's share of `jigsaw_registry_bytes`.
    pub fn sample_bytes(&self) -> usize {
        self.sample_bytes
    }

    /// The bases (for reporting).
    pub fn bases(&self) -> &[BasisDistribution] {
        &self.bases
    }

    /// Fetch a basis by id.
    pub fn get(&self, id: BasisId) -> &BasisDistribution {
        &self.bases[id.0]
    }

    /// Fetch a basis by id, or `None` when the id is out of range — for
    /// holders of long-lived ids (interactive sessions on a shared store)
    /// whose store may have been replaced underneath them.
    pub fn try_get(&self, id: BasisId) -> Option<&BasisDistribution> {
        self.bases.get(id.0)
    }

    /// An immutable resolve view over the current contents.
    pub fn freeze(&self) -> FrozenBasisView<'_> {
        FrozenBasisView { store: self }
    }

    /// Algorithm 3: find a basis and mapping such that
    /// `M(basis.fingerprint) ≈ fp`. Accumulates `pairings_tested`.
    pub fn find_match(&mut self, fp: &Fingerprint) -> Option<(BasisId, AffineMap)> {
        let (hit, pairings) = self.freeze().find_match(fp);
        self.pairings_tested += pairings;
        hit
    }

    /// Record a new basis distribution (after a full simulation).
    pub fn insert(&mut self, fingerprint: Fingerprint, metrics: OutputMetrics) -> BasisId {
        let id = self.stage(fingerprint);
        self.commit_staged(id, metrics);
        id
    }

    /// Register a basis fingerprint immediately, with metrics pending.
    ///
    /// The fingerprint becomes matchable at once (so later points of the
    /// same wave reuse it exactly as the sequential loop would), but its
    /// metrics must not be read until [`Self::commit_staged`] lands them.
    pub fn stage(&mut self, fingerprint: Fingerprint) -> BasisId {
        let id = BasisId(self.bases.len());
        self.index.insert(id.0, &fingerprint);
        self.bases.push(BasisDistribution {
            id,
            fingerprint,
            metrics: OutputMetrics::from_samples(Vec::new()),
        });
        self.staged += 1;
        id
    }

    /// Land the metrics of a staged basis (the batched commit path; called
    /// in enumeration order at the wave barrier).
    pub fn commit_staged(&mut self, id: BasisId, metrics: OutputMetrics) {
        debug_assert!(self.staged > 0, "no staged basis to commit");
        debug_assert_eq!(self.bases[id.0].metrics.n(), 0, "basis {id:?} committed twice");
        self.sample_bytes += sample_bytes(metrics.n());
        self.bases[id.0].metrics = metrics;
        self.staged -= 1;
    }

    /// Drop every staged basis and rebuild the index over the committed
    /// ones, as if the staged fingerprints had never been registered — the
    /// rollback of a sweep that failed mid-wave. Staged bases are always a
    /// suffix (staging and commits both run in enumeration order).
    pub fn discard_staged(&mut self) {
        if self.staged == 0 {
            return;
        }
        // Staged bases hold no samples yet, so `sample_bytes` stays.
        self.bases.truncate(self.bases.len() - self.staged);
        self.staged = 0;
        self.index = make_index(self.strategy, self.tolerance);
        for basis in &self.bases {
            self.index.insert(basis.id.0, &basis.fingerprint);
        }
    }

    /// Fold additional samples into a basis (interactive refinement).
    pub fn refine(&mut self, id: BasisId, samples: &[f64]) {
        self.bases[id.0].metrics.extend(samples);
        self.sample_bytes += sample_bytes(samples.len());
    }
}

/// Bytes of `n` samples.
fn sample_bytes(n: usize) -> usize {
    n * std::mem::size_of::<f64>()
}

/// A read-only resolve view over a [`BasisStore`] — the frozen half of the
/// wave split. All lookups are side-effect free; the number of candidate
/// pairings tested is *returned* so the caller can fold it into telemetry
/// deterministically.
pub struct FrozenBasisView<'a> {
    store: &'a BasisStore,
}

impl FrozenBasisView<'_> {
    /// Number of bases visible to this view.
    pub fn len(&self) -> usize {
        self.store.bases.len()
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.store.bases.is_empty()
    }

    /// Fetch a basis by id.
    pub fn get(&self, id: BasisId) -> &BasisDistribution {
        self.store.get(id)
    }

    /// Algorithm 3 without side effects: the first candidate (in the
    /// index's deterministic proposal order) validated by the mapping
    /// family wins. Returns the hit and the number of pairings tested.
    pub fn find_match(&self, fp: &Fingerprint) -> (Option<(BasisId, AffineMap)>, u64) {
        let candidates = self.store.index.candidates(fp);
        let mut pairings = 0u64;
        for cid in candidates {
            pairings += 1;
            let basis = &self.store.bases[cid];
            if let Some(m) = self.store.family.find(&basis.fingerprint, fp, self.store.tolerance) {
                return (Some((basis.id, m)), pairings);
            }
        }
        (None, pairings)
    }
}

/// Per-column basis shards for one simulation — output column `c` is shard
/// `c`. Columns never share bases (their output distributions are unrelated
/// random variables), so the sweep executor freezes, probes, and commits
/// each shard independently.
pub struct ShardedBasisStore {
    shards: Vec<BasisStore>,
}

impl ShardedBasisStore {
    /// One shard per output column, all with the same configuration.
    pub fn new(n_cols: usize, cfg: &JigsawConfig, family: Arc<dyn MappingFamily>) -> Self {
        ShardedBasisStore {
            shards: (0..n_cols).map(|_| BasisStore::new(cfg, family.clone())).collect(),
        }
    }

    /// Assemble from pre-built per-column stores (snapshot loading and
    /// interactive-session handoff).
    pub fn from_shards(shards: Vec<BasisStore>) -> Self {
        ShardedBasisStore { shards }
    }

    /// Decompose into the per-column stores (handoff to an
    /// [`crate::interactive::InteractiveSession`]).
    pub fn into_shards(self) -> Vec<BasisStore> {
        self.shards
    }

    /// Number of shards (output columns).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shared access to a column's store.
    pub fn shard(&self, col: usize) -> &BasisStore {
        &self.shards[col]
    }

    /// Exclusive access to a column's store.
    pub fn shard_mut(&mut self, col: usize) -> &mut BasisStore {
        &mut self.shards[col]
    }

    /// Basis count per column (the `bases_per_column` telemetry vector).
    pub fn bases_per_column(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Total mapping validations attempted across all shards.
    pub fn pairings_total(&self) -> u64 {
        self.shards.iter().map(|s| s.pairings_tested).sum()
    }

    /// Bytes of basis sample buffers over every shard.
    pub fn sample_bytes(&self) -> usize {
        self.shards.iter().map(BasisStore::sample_bytes).sum()
    }

    /// Total staged-but-uncommitted bases (must be zero at a wave barrier's
    /// end; asserted by the executor in debug builds).
    pub fn staged_total(&self) -> usize {
        self.shards.iter().map(|s| s.staged()).sum()
    }

    /// [`BasisStore::discard_staged`] on every shard.
    pub fn discard_staged(&mut self) {
        self.shards.iter_mut().for_each(BasisStore::discard_staged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::AffineFamily;

    fn store(strategy: IndexStrategy) -> BasisStore {
        BasisStore::with_strategy(strategy, 1e-9, Arc::new(AffineFamily))
    }

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::new(v.to_vec())
    }

    fn metrics(v: &[f64]) -> OutputMetrics {
        OutputMetrics::from_samples(v.to_vec())
    }

    #[test]
    fn miss_then_hit() {
        let mut s = store(IndexStrategy::Normalization);
        let base_fp = fp(&[1.0, 2.0, 3.0, 1.5]);
        assert!(s.find_match(&base_fp).is_none());
        let id = s.insert(base_fp.clone(), metrics(&[1.0, 2.0, 3.0, 1.5]));
        // An affine image must match with the recovered map.
        let image = fp(&[3.0, 5.0, 7.0, 4.0]); // 2x + 1
        let (got, m) = s.find_match(&image).expect("hit");
        assert_eq!(got, id);
        assert!((m.alpha - 2.0).abs() < 1e-9);
        assert!((m.beta - 1.0).abs() < 1e-9);
    }

    #[test]
    fn resolve_maps_metrics() {
        let mut s = store(IndexStrategy::Array);
        s.insert(fp(&[0.0, 1.0, 2.0]), metrics(&[0.0, 1.0, 2.0, 0.5, 1.5]));
        let (id, map) = s.find_match(&fp(&[10.0, 12.0, 14.0])).expect("reuse");
        let m = map.apply_metrics(&s.get(id).metrics);
        // 2x + 10 applied to mean 1.0 → 12.0.
        assert!((m.expectation() - 12.0).abs() < 1e-9);
        assert!(m.shares_samples_with(&s.get(id).metrics));
    }

    #[test]
    fn unrelated_shapes_accumulate_bases() {
        let mut s = store(IndexStrategy::Normalization);
        s.insert(fp(&[0.0, 1.0, 2.0, 3.0]), metrics(&[0.0]));
        assert!(s.find_match(&fp(&[0.0, 1.0, 4.0, 9.0])).is_none());
        s.insert(fp(&[0.0, 1.0, 4.0, 9.0]), metrics(&[0.0]));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn all_strategies_agree_on_affine_hits() {
        let base = fp(&[0.3, 1.7, 0.9, 2.4, -0.5]);
        let image = fp([0.3f64, 1.7, 0.9, 2.4, -0.5].map(|x| -1.5 * x + 2.0).as_ref());
        for strat in [IndexStrategy::Array, IndexStrategy::Normalization, IndexStrategy::SortedSid]
        {
            let mut s = store(strat);
            let id = s.insert(base.clone(), metrics(&[1.0, 2.0]));
            let (got, _) =
                s.find_match(&image).unwrap_or_else(|| panic!("{strat:?} missed an affine image"));
            assert_eq!(got, id);
        }
    }

    #[test]
    fn pairings_tested_reflects_index_quality() {
        // With 20 non-mappable bases, the array index tests every pairing;
        // normalization tests none (different buckets).
        let shapes: Vec<Fingerprint> = (0..20)
            .map(|c| {
                fp(&(0..6)
                    .map(|k| {
                        let z = k as f64 - 2.5;
                        z + c as f64 * z * z
                    })
                    .collect::<Vec<_>>())
            })
            .collect();
        let probe = fp(&(0..6)
            .map(|k| {
                let z = k as f64 - 2.5;
                z + 99.0 * z * z * z // unrelated shape
            })
            .collect::<Vec<_>>());

        let mut arr = store(IndexStrategy::Array);
        let mut norm = store(IndexStrategy::Normalization);
        for (i, s) in shapes.iter().enumerate() {
            arr.insert(s.clone(), metrics(&[i as f64]));
            norm.insert(s.clone(), metrics(&[i as f64]));
        }
        assert!(arr.find_match(&probe).is_none());
        assert!(norm.find_match(&probe).is_none());
        assert_eq!(arr.pairings_tested, 20);
        assert_eq!(norm.pairings_tested, 0);
    }

    #[test]
    fn refine_grows_basis_metrics() {
        let mut s = store(IndexStrategy::Array);
        let id = s.insert(fp(&[1.0, 2.0]), metrics(&[1.0, 2.0]));
        s.refine(id, &[3.0, 4.0]);
        assert_eq!(s.get(id).metrics.n(), 4);
    }

    #[test]
    fn frozen_view_matches_without_mutation() {
        let mut s = store(IndexStrategy::Normalization);
        let id = s.insert(fp(&[0.0, 1.0, 2.0]), metrics(&[0.0, 1.0, 2.0]));
        let before = s.pairings_tested;
        {
            let view = s.freeze();
            let (hit, pairings) = view.find_match(&fp(&[1.0, 3.0, 5.0]));
            assert_eq!(hit.map(|(i, _)| i), Some(id));
            assert_eq!(pairings, 1);
            let (id, map) = hit.expect("hit");
            let m = map.apply_metrics(&view.get(id).metrics);
            assert!((m.expectation() - 3.0).abs() < 1e-9); // 2x+1 over mean 1
        }
        assert_eq!(s.pairings_tested, before, "frozen view must not mutate counters");
    }

    #[test]
    fn staged_basis_is_matchable_before_commit() {
        let mut s = store(IndexStrategy::Normalization);
        let id = s.stage(fp(&[0.0, 1.0, 2.0]));
        assert_eq!(s.staged(), 1);
        // The fingerprint participates in matching immediately…
        let (got, map) = s.find_match(&fp(&[0.0, 2.0, 4.0])).expect("staged fp must match");
        assert_eq!(got, id);
        assert!((map.alpha - 2.0).abs() < 1e-12);
        // …and the metrics land later, in commit order.
        s.commit_staged(id, metrics(&[0.0, 1.0, 2.0, 1.0]));
        assert_eq!(s.staged(), 0);
        assert_eq!(s.get(id).metrics.n(), 4);
    }

    #[test]
    fn stage_commit_equals_insert() {
        let mut a = store(IndexStrategy::SortedSid);
        let mut b = store(IndexStrategy::SortedSid);
        let id_a = a.insert(fp(&[1.0, 2.0, 4.0]), metrics(&[7.0, 8.0]));
        let id_b = b.stage(fp(&[1.0, 2.0, 4.0]));
        b.commit_staged(id_b, metrics(&[7.0, 8.0]));
        assert_eq!(id_a, id_b);
        let probe = fp(&[2.0, 4.0, 8.0]);
        assert_eq!(
            a.find_match(&probe).map(|(i, _)| i),
            b.find_match(&probe).map(|(i, _)| i),
            "staged-then-committed store must behave like direct insert"
        );
    }

    #[test]
    fn sharded_store_tracks_per_column_state() {
        let cfg = JigsawConfig::paper();
        let mut shards = ShardedBasisStore::new(2, &cfg, Arc::new(AffineFamily));
        assert_eq!(shards.n_shards(), 2);
        shards.shard_mut(0).insert(fp(&[0.0, 1.0]), metrics(&[0.0]));
        let staged = shards.shard_mut(1).stage(fp(&[5.0, 6.0, 9.0]));
        assert_eq!(shards.bases_per_column(), vec![1, 1]);
        assert_eq!(shards.staged_total(), 1);
        shards.shard_mut(1).commit_staged(staged, metrics(&[1.0]));
        assert_eq!(shards.staged_total(), 0);
        assert!(shards.pairings_total() <= 2);
    }
}
