//! Session configuration.

use std::path::PathBuf;

/// Which candidate-lookup strategy the basis store uses (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexStrategy {
    /// Compare against every basis fingerprint (the paper's baseline
    /// "Array" strategy in Figures 10/11).
    Array,
    /// Hash on the affine-invariant normal form (first two distinct entries
    /// mapped to 0 and 1).
    #[default]
    Normalization,
    /// Hash on the sorted sample-identifier permutation (covers any
    /// monotone mapping family; both orientations are probed).
    SortedSid,
}

/// Tunables for a Jigsaw session.
///
/// Defaults follow the paper's experimental setup (§6): 1000 sample
/// instances per parameter point and fingerprints of size 10.
#[derive(Debug, Clone, PartialEq)]
pub struct JigsawConfig {
    /// Fingerprint length `m`.
    pub fingerprint_len: usize,
    /// Total Monte Carlo samples `n` per parameter point (`n >= m`).
    pub n_samples: usize,
    /// Relative tolerance for fingerprint-entry matching. Floating-point
    /// evaluation makes algebraically-exact affine relations only
    /// approximately exact; this bounds the accepted residual.
    pub tolerance: f64,
    /// Candidate-lookup strategy.
    pub index: IndexStrategy,
    /// Thread budget for the sweep executor's world evaluations.
    /// `1` (the default) runs fully sequentially; `0` means "all available
    /// cores". Pure performance knob: sweep results, basis sets, and
    /// telemetry counters are bit-identical for every value.
    pub threads: usize,
    /// Points per batch-synchronous wave of the sweep executor. `0` (the
    /// default) sizes waves from the thread budget `t` as
    /// `max(64·t, 128)` points. Pure performance knob, like `threads`.
    pub wave_size: usize,
    /// Warm-start the sweep from this basis snapshot (see
    /// [`crate::basis::snapshot`]). The file must have been written under
    /// the same basis-identity configuration (fingerprint length, sample
    /// count, tolerance, index strategy, mapping family); any mismatch
    /// fails the sweep with a typed error instead of silently diverging.
    pub basis_load: Option<PathBuf>,
    /// Save the committed basis store to this snapshot after the sweep, so
    /// the next session over the same scenario starts warm.
    pub basis_save: Option<PathBuf>,
    /// Coarse Monte Carlo budget `s` for the sketch pass of a
    /// sketch-then-refine sweep (`fingerprint_len <= s <= n_samples`).
    /// `0` (the default) disables sketching: the sweep is exhaustive at
    /// full budget. Sketch knobs never enter basis identity — refined
    /// bases are full-budget bases, snapshot-compatible with exhaustive
    /// sweeps.
    pub sketch_budget: usize,
    /// Frontier width `K` of the refine pass: per output column the `K`
    /// highest and `K` lowest coarse expectations survive, plus `K`
    /// evenly-strided representative points. Only meaningful when
    /// `sketch_budget > 0`; `refine_top_k >= |space|` degenerates to the
    /// exhaustive sweep bit-for-bit.
    pub refine_top_k: usize,
}

impl JigsawConfig {
    /// The paper's defaults: `m = 10`, `n = 1000`, relative tolerance 1e-9,
    /// normalization index.
    pub fn paper() -> Self {
        JigsawConfig {
            fingerprint_len: 10,
            n_samples: 1000,
            tolerance: 1e-9,
            index: IndexStrategy::Normalization,
            threads: 1,
            wave_size: 0,
            basis_load: None,
            basis_save: None,
            sketch_budget: 0,
            refine_top_k: 0,
        }
    }

    /// Override the fingerprint length.
    pub fn with_fingerprint_len(mut self, m: usize) -> Self {
        self.fingerprint_len = m;
        self
    }

    /// Override the sample count.
    pub fn with_n_samples(mut self, n: usize) -> Self {
        self.n_samples = n;
        self
    }

    /// Override the index strategy.
    pub fn with_index(mut self, index: IndexStrategy) -> Self {
        self.index = index;
        self
    }

    /// Override the matching tolerance.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Override the thread budget (`0` = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Override the wave size (`0` = derive from the thread budget).
    pub fn with_wave_size(mut self, wave_size: usize) -> Self {
        self.wave_size = wave_size;
        self
    }

    /// Warm-start from a basis snapshot file.
    pub fn with_basis_load(mut self, path: impl Into<PathBuf>) -> Self {
        self.basis_load = Some(path.into());
        self
    }

    /// Save the committed basis store to a snapshot file after the sweep.
    pub fn with_basis_save(mut self, path: impl Into<PathBuf>) -> Self {
        self.basis_save = Some(path.into());
        self
    }

    /// Enable sketch-then-refine: coarse-sweep every point at `budget`
    /// worlds, then re-run only the surviving frontier (width `top_k`) at
    /// full budget.
    pub fn with_sketch(mut self, budget: usize, top_k: usize) -> Self {
        self.sketch_budget = budget;
        self.refine_top_k = top_k;
        self
    }

    /// Override the coarse world budget of the sketch pass (`0` = sketching
    /// off).
    pub fn with_sketch_budget(mut self, budget: usize) -> Self {
        self.sketch_budget = budget;
        self
    }

    /// Override the refine pass's frontier width `K`.
    pub fn with_refine_top_k(mut self, top_k: usize) -> Self {
        self.refine_top_k = top_k;
        self
    }

    /// Whether this configuration runs sweeps in sketch-then-refine mode.
    pub fn sketch_enabled(&self) -> bool {
        self.sketch_budget > 0
    }

    /// The concrete thread count: `threads`, with `0` resolved to the
    /// number of available cores (shared sentinel semantics — see
    /// [`jigsaw_pdb::resolve_thread_budget`]).
    pub fn effective_threads(&self) -> usize {
        jigsaw_pdb::resolve_thread_budget(self.threads)
    }

    /// The concrete wave size: `wave_size`, with `0` resolved to a multiple
    /// of the thread budget large enough to keep every worker fed through
    /// the barriers and to amortize each wave's scatters.
    pub fn effective_wave_size(&self) -> usize {
        match self.wave_size {
            0 => (64 * self.effective_threads()).max(128),
            w => w,
        }
    }

    /// Panic unless the configuration is internally consistent.
    pub fn validate(&self) {
        assert!(self.fingerprint_len >= 2, "fingerprints need >= 2 entries to fit a mapping");
        assert!(
            self.n_samples >= self.fingerprint_len,
            "n_samples ({}) must be >= fingerprint_len ({})",
            self.n_samples,
            self.fingerprint_len
        );
        assert!(self.tolerance >= 0.0 && self.tolerance.is_finite());
        if self.sketch_enabled() {
            assert!(
                self.sketch_budget >= self.fingerprint_len,
                "sketch_budget ({}) must be >= fingerprint_len ({})",
                self.sketch_budget,
                self.fingerprint_len
            );
            assert!(
                self.sketch_budget <= self.n_samples,
                "sketch_budget ({}) must be <= n_samples ({})",
                self.sketch_budget,
                self.n_samples
            );
            assert!(self.refine_top_k >= 1, "refine_top_k must be >= 1 when sketching is enabled");
        }
    }
}

impl Default for JigsawConfig {
    fn default() -> Self {
        JigsawConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = JigsawConfig::paper();
        assert_eq!(c.fingerprint_len, 10);
        assert_eq!(c.n_samples, 1000);
        c.validate();
    }

    #[test]
    fn builder_chain() {
        let c = JigsawConfig::paper()
            .with_fingerprint_len(4)
            .with_n_samples(100)
            .with_index(IndexStrategy::SortedSid)
            .with_tolerance(1e-6)
            .with_threads(4)
            .with_wave_size(64);
        assert_eq!(c.fingerprint_len, 4);
        assert_eq!(c.index, IndexStrategy::SortedSid);
        assert_eq!(c.effective_threads(), 4);
        assert_eq!(c.effective_wave_size(), 64);
        c.validate();
    }

    #[test]
    fn zero_knobs_resolve_automatically() {
        let c = JigsawConfig::paper();
        assert_eq!(c.threads, 1, "paper default is sequential");
        assert!(c.effective_threads() >= 1);
        assert_eq!(c.effective_wave_size(), 128);
        assert_eq!(c.clone().with_threads(2).effective_wave_size(), 128);
        assert_eq!(c.clone().with_threads(4).effective_wave_size(), 256);
        let auto = c.with_threads(0);
        assert!(auto.effective_threads() >= 1);
        assert_eq!(auto.effective_wave_size(), (64 * auto.effective_threads()).max(128));
    }

    #[test]
    fn snapshot_knobs_default_off_and_chain() {
        let c = JigsawConfig::paper();
        assert!(c.basis_load.is_none() && c.basis_save.is_none());
        let c = c.with_basis_load("/tmp/a.snap").with_basis_save("/tmp/b.snap");
        assert_eq!(c.basis_load.as_deref(), Some(std::path::Path::new("/tmp/a.snap")));
        assert_eq!(c.basis_save.as_deref(), Some(std::path::Path::new("/tmp/b.snap")));
        c.validate();
    }

    #[test]
    fn sketch_knobs_default_off_and_chain() {
        let c = JigsawConfig::paper();
        assert!(!c.sketch_enabled());
        c.validate();
        let c = c.with_sketch(20, 8);
        assert!(c.sketch_enabled());
        assert_eq!(c.sketch_budget, 20);
        assert_eq!(c.refine_top_k, 8);
        c.validate();
        let c = JigsawConfig::paper().with_sketch_budget(10).with_refine_top_k(4);
        assert!(c.sketch_enabled());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "sketch_budget (5) must be >= fingerprint_len")]
    fn sketch_budget_below_fingerprint_rejected() {
        JigsawConfig::paper().with_sketch(5, 4).validate();
    }

    #[test]
    #[should_panic(expected = "must be <= n_samples")]
    fn sketch_budget_above_n_rejected() {
        JigsawConfig::paper().with_n_samples(100).with_sketch(200, 4).validate();
    }

    #[test]
    #[should_panic(expected = "refine_top_k must be >= 1")]
    fn sketch_without_frontier_width_rejected() {
        JigsawConfig::paper().with_sketch_budget(20).validate();
    }

    #[test]
    #[should_panic(expected = "must be >= fingerprint_len")]
    fn n_less_than_m_rejected() {
        JigsawConfig::paper().with_n_samples(5).validate();
    }

    #[test]
    #[should_panic(expected = ">= 2 entries")]
    fn tiny_fingerprint_rejected() {
        JigsawConfig::paper().with_fingerprint_len(1).validate();
    }
}
