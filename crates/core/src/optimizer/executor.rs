//! The batch-synchronous parallel sweep executor.
//!
//! The parameter space is processed in deterministic **waves**. Each wave
//! runs four phases:
//!
//! 1. **Fingerprint** (parallel) — worlds `0..m` are evaluated for every
//!    point of the wave. World `k` always runs under the global seed `σ_k`,
//!    so each evaluation is a pure function of `(point, k)` and the phase is
//!    embarrassingly parallel.
//! 2. **Resolve** (sequential, at the barrier) — walking the wave in
//!    enumeration order, each column's fingerprint is matched against its
//!    [`BasisStore`] shard. Misses *stage* a new basis immediately
//!    (fingerprint registered, metrics pending), so later points of the
//!    same wave match against it exactly as the sequential point loop
//!    would. This phase touches no simulation worlds; it is cheap O(m)
//!    float work per candidate. A non-finite head fails the sweep with a
//!    typed error before anything is staged for it.
//! 3. **Completion** (parallel) — points with at least one missed column
//!    evaluate worlds `m..n`; large jobs split into world windows so a
//!    handful of misses still saturates the thread budget, and windows
//!    stitch back in order, which composes bit-identically (worlds are
//!    seed-addressed). A second scatter then assembles every fresh
//!    column's `0..n` sample vector and computes its metrics,
//!    [`OutputMetrics::LANES`] columns per lane-interleaved moments pass.
//! 4. **Commit** (sequential, at the barrier) — in enumeration order,
//!    fresh columns land their metrics in their staged bases (a refcount
//!    bump) and reused columns map their matched basis's (by-now-committed)
//!    metrics in O(1). No per-sample work is left at this barrier.
//!
//! Both parallel phases hand the pool a handful of coarse tasks per thread
//! per scatter, so per-task overhead stays off the critical path.
//!
//! Because phases 2 and 4 replay the exact decision sequence of the
//! sequential loop — same store contents at every probe, same candidate
//! order (see [`crate::index::FingerprintIndex::candidates`]'s ordering
//! contract), same commit order — the sweep result, the basis set, and the
//! telemetry counters are **bit-identical for any thread count and any wave
//! size**. Threads and waves are pure performance knobs.
//!
//! ## Warm starts
//!
//! With [`JigsawConfig::basis_load`] set, the sweep begins from a
//! snapshot's committed bases instead of an empty store
//! ([`crate::basis::snapshot`]); resolves against loaded bases are counted
//! as `warm_hits`, distinct from intra-sweep `reused`. With
//! [`JigsawConfig::basis_save`] set, the committed store is re-saved after
//! the final wave barrier. A warm-started sweep over the same scenario
//! produces bit-identical results and final basis sets to its cold
//! counterpart — only the cost counters (worlds evaluated, full
//! simulations) shrink.
//!
//! ## Sketch-then-refine
//!
//! With [`JigsawConfig::sketch_budget`] set, `execute_sketch_refine`
//! wraps the wave loop in two passes: a coarse sweep of the whole space at
//! the sketch budget, then a full-budget re-run of only the surviving
//! frontier (see [`sketch_frontier`] for the pruning rule). Both passes
//! are the same wave machinery, so the two-phase sweep inherits the
//! bit-identity guarantee wholesale.
//!
//! [`BasisStore`]: crate::basis::BasisStore

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use jigsaw_obs::span;
use jigsaw_pdb::{OutputMetrics, PdbError, Result, Simulation, WorldBatch};

use crate::basis::{BasisId, ShardedBasisStore};
use crate::config::JigsawConfig;
use crate::fingerprint::{check_finite, Fingerprint};
use crate::mapping::{AffineMap, MappingFamily};
use crate::optimizer::selector::sketch_frontier;
use crate::optimizer::{PointResult, SweepResult};
use crate::telemetry::{SweepStats, WaveReuse};

/// Executes batches of independent tasks under a thread budget — the seam
/// between the executor's *scheduling* (which is fixed and deterministic)
/// and its *thread provisioning* (which is pluggable).
///
/// The executor hands a pool `n_tasks` independent jobs per parallel phase;
/// the pool must invoke `run(t)` exactly once for every `t in 0..n_tasks`,
/// from at most `threads` concurrent workers. Which worker runs which task
/// — and in what order — is entirely the pool's business: callers stitch
/// results back by task index, so any faithful pool produces bit-identical
/// output. Production sweeps run on [`super::PersistentPool`], whose workers
/// outlive waves and sweeps; [`ScopedPool`] is the simple reference the
/// tests compare it against.
pub trait WorkerPool: Send + Sync {
    /// Run `run(t)` for every `t in 0..n_tasks`, using at most `threads`
    /// concurrent workers. Must not return before every task has run.
    fn scatter(&self, threads: usize, n_tasks: usize, run: &(dyn Fn(usize) + Sync));
}

/// The reference pool: scoped worker threads spawned per scatter, pulling
/// task indices off a shared cursor. Nothing in production runs on it —
/// every sweep uses [`super::PersistentPool`] — but its `thread::scope`
/// semantics are the obvious ones, which makes it the yardstick the
/// persistent pool's bit-identity tests measure against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScopedPool;

impl WorkerPool for ScopedPool {
    fn scatter(&self, threads: usize, n_tasks: usize, run: &(dyn Fn(usize) + Sync)) {
        if threads <= 1 || n_tasks <= 1 {
            for t in 0..n_tasks {
                run(t);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        let workers = threads.min(n_tasks);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let cursor = &cursor;
                scope.spawn(move || loop {
                    let t = cursor.fetch_add(1, Ordering::Relaxed);
                    if t >= n_tasks {
                        break;
                    }
                    run(t);
                });
            }
        });
    }
}

/// Handles to the executor's global instruments, registered once; every
/// update afterwards is lock-free (see `jigsaw_obs`). Purely
/// observational: nothing here feeds back into scheduling or results.
struct ExecObs {
    waves: jigsaw_obs::Counter,
    points: jigsaw_obs::Counter,
    worlds: jigsaw_obs::Counter,
    fingerprint_us: jigsaw_obs::Histogram,
    resolve_us: jigsaw_obs::Histogram,
    completion_us: jigsaw_obs::Histogram,
    commit_us: jigsaw_obs::Histogram,
}

fn exec_obs() -> &'static ExecObs {
    static OBS: OnceLock<ExecObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let g = jigsaw_obs::global();
        let phase = |p| g.histogram("jigsaw_exec_phase_us", &[("phase", p)]);
        ExecObs {
            waves: g.counter("jigsaw_exec_waves_total", &[]),
            points: g.counter("jigsaw_exec_points_total", &[]),
            worlds: g.counter("jigsaw_exec_worlds_total", &[]),
            fingerprint_us: phase("fingerprint"),
            resolve_us: phase("resolve"),
            completion_us: phase("completion"),
            commit_us: phase("commit"),
        }
    })
}

/// How one column of one wave slot obtains its metrics at commit time.
enum ColPlan {
    /// Mapped reuse from a matched basis (possibly staged earlier in the
    /// same wave; committed by the time this slot commits).
    Reuse(BasisId, AffineMap),
    /// Fresh metrics from this point's own `0..n` samples.
    Fresh(FreshSource),
}

/// Where a fresh column's `0..m` sample prefix lives.
enum FreshSource {
    /// In the staged basis's fingerprint (normal reuse-enabled operation).
    Staged(BasisId),
    /// Carried inline (reuse disabled: nothing is staged).
    Inline(Vec<f64>),
}

/// One point of the current wave, between resolve and commit.
struct Slot {
    point_idx: usize,
    point: Vec<f64>,
    cols: Vec<ColPlan>,
    needs_tail: bool,
}

/// A world-evaluation job: `count` worlds from `start` at `point`.
struct EvalJob<'a> {
    point: &'a [f64],
    start: usize,
    count: usize,
}

/// One job's evaluated worlds as a columnar [`WorldBatch`]. Worker panics
/// surface here as [`jigsaw_pdb::PdbError::WorkerPanic`] — they are caught
/// at the evaluation boundary, never unwound through the pool.
type JobOutput = Result<WorldBatch>;

/// Fingerprint heads (worlds `0..m`) cached per `point_idx`, carried from
/// a sketch pass to its refine pass. Worlds are seed-addressed, so a
/// cached head is byte-identical to what re-evaluation would produce — the
/// refine pass skips those evaluations without perturbing any result bit.
pub(crate) type HeadCache = Vec<Option<WorldBatch>>;

/// Point-selection and head-cache plumbing for one executor pass.
#[derive(Default)]
struct PassPlan<'a> {
    /// Point indices to sweep, ascending; `None` = the whole space.
    subset: Option<&'a [usize]>,
    /// Fingerprint heads from an earlier pass, indexed by `point_idx`;
    /// cached points skip phase-1 evaluation.
    head_cache: Option<&'a HeadCache>,
    /// Collect this pass's fingerprint heads for a later pass.
    export_heads: Option<&'a mut HeadCache>,
}

/// The batch-synchronous wave executor: sweep `sim`'s whole parameter space
/// against an existing store under `pool`'s thread provisioning.
///
/// Bases already present when the sweep starts count resolves as
/// `warm_hits` (exactly as snapshot-loaded bases do in
/// [`crate::optimizer::SweepRunner::run`], which owns the snapshot
/// load/save path around this function);
/// bases created by this sweep count as intra-sweep `reused`. The store is
/// fully committed on return (the wave-barrier invariant), so the caller
/// may snapshot it immediately. (No mapping family is taken: basis identity
/// is pinned by the family the store was created with.)
pub(crate) fn execute(
    cfg: &JigsawConfig,
    disable_reuse: bool,
    sim: &dyn Simulation,
    stores: &mut ShardedBasisStore,
    pool: &dyn WorkerPool,
) -> Result<SweepResult> {
    execute_pass(cfg, disable_reuse, sim, stores, pool, PassPlan::default())
}

/// One executor pass over `plan.subset` (default: the whole space) — the
/// wave loop shared by exhaustive sweeps and both halves of a
/// sketch-then-refine sweep.
///
/// A pass that fails (a model panicked or errored) returns mid-wave, with
/// that wave's misses staged but never committed. They are discarded here:
/// a staged basis has no metrics, so it must neither be mapped onto by a
/// later sweep nor block a snapshot. Bases committed before the failure
/// stay, so a failed sweep still warms the store, as a disconnected one
/// does.
fn execute_pass(
    cfg: &JigsawConfig,
    disable_reuse: bool,
    sim: &dyn Simulation,
    stores: &mut ShardedBasisStore,
    pool: &dyn WorkerPool,
    plan: PassPlan<'_>,
) -> Result<SweepResult> {
    let result = run_waves(cfg, disable_reuse, sim, stores, pool, plan);
    if result.is_err() {
        stores.discard_staged();
    }
    result
}

/// The wave loop of [`execute_pass`].
fn run_waves(
    cfg: &JigsawConfig,
    disable_reuse: bool,
    sim: &dyn Simulation,
    stores: &mut ShardedBasisStore,
    pool: &dyn WorkerPool,
    mut plan: PassPlan<'_>,
) -> Result<SweepResult> {
    cfg.validate();
    let space = sim.space();
    let n_cols = sim.columns().len();
    assert_eq!(stores.n_shards(), n_cols, "store must have one shard per output column");
    let m = cfg.fingerprint_len;
    let n = cfg.n_samples;
    let threads = cfg.effective_threads();
    let wave_size = cfg.effective_wave_size().max(1);
    let start = Instant::now();

    let owned_order: Vec<usize>;
    let order: &[usize] = match plan.subset {
        Some(subset) => subset,
        None => {
            owned_order = (0..space.len()).collect();
            &owned_order
        }
    };
    let obs = exec_obs();
    let preloaded = stores.bases_per_column();
    let total = order.len();
    let mut points: Vec<PointResult> = Vec::with_capacity(total);
    let mut stats = SweepStats { threads, ..Default::default() };

    let mut wave_start = 0usize;
    while wave_start < total {
        let wave_len = wave_size.min(total - wave_start);
        stats.waves += 1;

        // Phase 1 — fingerprints for the whole wave, in parallel. Points
        // with a cached head (refine pass over sketch survivors) skip the
        // evaluation: worlds are seed-addressed, so the cached bytes are
        // exactly what re-running worlds `0..m` would produce.
        let t0 = Instant::now();
        let span_fp = span!("wave.fingerprint", wave = stats.waves, points = wave_len);
        let wave_idx = &order[wave_start..wave_start + wave_len];
        let wave_points: Vec<Vec<f64>> = wave_idx.iter().map(|&i| space.point_at(i)).collect();
        let mut heads: Vec<Option<JobOutput>> = Vec::with_capacity(wave_len);
        heads.resize_with(wave_len, || None);
        let mut fresh: Vec<usize> = Vec::with_capacity(wave_len);
        for (offset, &pi) in wave_idx.iter().enumerate() {
            match plan.head_cache.and_then(|cache| cache[pi].as_ref()) {
                Some(head) => heads[offset] = Some(Ok(head.clone())),
                None => fresh.push(offset),
            }
        }
        let fp_jobs: Vec<EvalJob<'_>> = fresh
            .iter()
            .map(|&offset| EvalJob { point: &wave_points[offset], start: 0, count: m })
            .collect();
        let evaluated = run_jobs(sim, &fp_jobs, threads, pool);
        drop(fp_jobs);
        stats.worlds_evaluated += (fresh.len() * m) as u64;
        for (&offset, head) in fresh.iter().zip(evaluated) {
            heads[offset] = Some(head);
        }
        if let Some(exported) = plan.export_heads.as_deref_mut() {
            for (offset, &pi) in wave_idx.iter().enumerate() {
                if let Some(Ok(head)) = heads[offset].as_ref() {
                    exported[pi] = Some(head.clone());
                }
            }
        }
        drop(span_fp);
        let dt_fp = t0.elapsed();
        obs.fingerprint_us.record_duration(dt_fp);
        stats.phase.fingerprint += dt_fp;

        // Phase 2 — sequential resolve/stage in enumeration order.
        let t1 = Instant::now();
        let span_rs = span!("wave.resolve", wave = stats.waves);
        let mut slots: Vec<Slot> = Vec::with_capacity(wave_len);
        for (offset, (point, head)) in wave_points.into_iter().zip(heads).enumerate() {
            let head = head.expect("phase 1 filled every head")?;
            let mut cols = Vec::with_capacity(n_cols);
            let mut needs_tail = false;
            for (c, samples) in head.into_columns().into_iter().enumerate() {
                if disable_reuse {
                    needs_tail = true;
                    cols.push(ColPlan::Fresh(FreshSource::Inline(samples)));
                    continue;
                }
                check_finite(&samples, wave_idx[offset], c)?;
                // The head samples move straight into the fingerprint —
                // no per-miss double copy.
                let fp = Fingerprint::new(samples);
                let store = stores.shard_mut(c);
                match store.find_match(&fp) {
                    Some((id, map)) => cols.push(ColPlan::Reuse(id, map)),
                    None => {
                        needs_tail = true;
                        cols.push(ColPlan::Fresh(FreshSource::Staged(store.stage(fp))));
                    }
                }
            }
            slots.push(Slot { point_idx: wave_idx[offset], point, cols, needs_tail });
        }
        drop(span_rs);
        let dt_rs = t1.elapsed();
        obs.resolve_us.record_duration(dt_rs);
        stats.phase.resolve += dt_rs;

        // Phase 3 — completion simulations for the misses, in parallel.
        let t2 = Instant::now();
        let span_cp = span!("wave.completion", wave = stats.waves);
        let tail_count = n - m;
        let miss_slots: Vec<usize> =
            slots.iter().enumerate().filter(|(_, s)| s.needs_tail).map(|(i, _)| i).collect();
        let tail_jobs: Vec<EvalJob<'_>> = miss_slots
            .iter()
            .map(|&i| EvalJob { point: &slots[i].point, start: m, count: tail_count })
            .collect();
        let tails = run_jobs(sim, &tail_jobs, threads, pool);
        drop(tail_jobs);
        // A slot whose tail failed is skipped here; commit reports the
        // first such error in enumeration order.
        let mut tails_by_slot: Vec<Option<WorldBatch>> = Vec::with_capacity(wave_len);
        tails_by_slot.resize_with(wave_len, || None);
        let mut tail_errors: Vec<Option<PdbError>> = Vec::with_capacity(wave_len);
        tail_errors.resize_with(wave_len, || None);
        for (&slot_i, tail) in miss_slots.iter().zip(tails) {
            match tail {
                Ok(batch) => tails_by_slot[slot_i] = Some(batch),
                Err(e) => tail_errors[slot_i] = Some(e),
            }
        }
        let mut fresh_cols =
            fresh_metrics(&slots, tails_by_slot, stores, n, threads, pool).into_iter();
        drop(span_cp);
        let dt_cp = t2.elapsed();
        obs.completion_us.record_duration(dt_cp);
        stats.phase.completion += dt_cp;

        // Phase 4 — commit in enumeration order at the wave barrier.
        let t3 = Instant::now();
        let span_cm = span!("wave.commit", wave = stats.waves);
        let mut wave_reuse = WaveReuse { points: wave_len, ..Default::default() };
        for (slot_i, slot) in slots.into_iter().enumerate() {
            let Slot { point_idx, point, cols, needs_tail } = slot;
            if needs_tail {
                if let Some(e) = tail_errors[slot_i].take() {
                    return Err(e);
                }
                stats.full_simulations += 1;
                wave_reuse.full_simulations += 1;
                stats.worlds_evaluated += tail_count as u64;
            } else {
                // Fully reused point: a *warm* hit when every column matched
                // a snapshot-loaded basis, intra-sweep reuse otherwise.
                let warm = cols.iter().enumerate().all(|(c, plan)| match plan {
                    ColPlan::Reuse(id, _) => id.0 < preloaded[c],
                    ColPlan::Fresh(_) => false,
                });
                if warm {
                    stats.warm_hits += 1;
                    wave_reuse.warm_hits += 1;
                } else {
                    stats.reused += 1;
                    wave_reuse.reused += 1;
                }
            }
            let mut metrics = Vec::with_capacity(n_cols);
            let mut reused_from = Vec::with_capacity(n_cols);
            for (c, plan) in cols.into_iter().enumerate() {
                match plan {
                    ColPlan::Reuse(id, map) => {
                        // The basis is committed by now even if it was
                        // staged this very wave (commits run in order).
                        metrics.push(map.apply_metrics(&stores.shard(c).get(id).metrics));
                        reused_from.push(Some(id));
                    }
                    ColPlan::Fresh(source) => {
                        let om = fresh_cols.next().expect("phase 3 built every fresh column");
                        if let FreshSource::Staged(id) = source {
                            stores.shard_mut(c).commit_staged(id, om.clone());
                        }
                        metrics.push(om);
                        reused_from.push(None);
                    }
                }
            }
            points.push(PointResult { point_idx, point, metrics, reused_from, coarse: false });
        }
        debug_assert_eq!(stores.staged_total(), 0, "wave barrier left staged bases behind");
        stats.wave_reuse.push(wave_reuse);
        drop(span_cm);
        let dt_cm = t3.elapsed();
        obs.commit_us.record_duration(dt_cm);
        stats.phase.commit += dt_cm;
        obs.waves.inc();
        wave_start += wave_len;
    }

    stats.points = total;
    stats.bases_per_column = stores.bases_per_column();
    stats.pairings_tested = stores.pairings_total();
    stats.elapsed = start.elapsed();
    obs.points.add(total as u64);
    obs.worlds.add(stats.worlds_evaluated);
    Ok(SweepResult { points, stats })
}

/// The two-phase sketch-then-refine sweep (`cfg.sketch_budget > 0`).
///
/// **Sketch**: the whole space is swept at the coarse budget
/// `s = cfg.sketch_budget` against its own ephemeral store — coarse
/// metrics are single-fidelity and must never enter the caller's
/// full-budget store. The full wave/reuse machinery runs, just cheaper.
///
/// **Prune**: [`sketch_frontier`] picks the survivors — a pure function of
/// (config, coarse results) with `total_cmp` tie breaks, so survival is
/// bit-identical per (config, seed) across thread counts, wave sizes, and
/// pool backends.
///
/// **Refine**: only the survivors re-run at full budget on `stores`,
/// reusing the sketch's fingerprint heads (worlds `0..m` are
/// seed-addressed, so skipping their re-evaluation changes no bit). With
/// `refine_top_k >= |space|` everything survives and this degenerates to
/// [`execute`] bit-for-bit — including `worlds_evaluated` when
/// `sketch_budget == fingerprint_len`.
///
/// The stitched result covers the whole space in enumeration order:
/// survivors carry full-budget metrics, pruned points keep their coarse
/// sketch metrics (flagged [`PointResult::coarse`], basis attribution
/// cleared — their bases lived in the discarded sketch store). The stats'
/// store ledger (`full_simulations`, `reused`, `warm_hits`,
/// `bases_per_column`, `pairings_tested`, waves) describes the refine
/// pass; the sketch pass's aggregate cost is in `sketch_points` /
/// `sketch_worlds`, and `worlds_evaluated` totals both passes.
pub(crate) fn execute_sketch_refine(
    cfg: &JigsawConfig,
    disable_reuse: bool,
    sim: &dyn Simulation,
    stores: &mut ShardedBasisStore,
    pool: &dyn WorkerPool,
    family: Arc<dyn MappingFamily>,
) -> Result<SweepResult> {
    cfg.validate();
    debug_assert!(cfg.sketch_enabled());
    let start = Instant::now();
    let space_len = sim.space().len();
    let n_cols = sim.columns().len();

    let mut sketch_cfg = cfg.clone();
    sketch_cfg.n_samples = cfg.sketch_budget;
    sketch_cfg.sketch_budget = 0;
    sketch_cfg.refine_top_k = 0;
    sketch_cfg.basis_load = None;
    sketch_cfg.basis_save = None;

    let mut sketch_store = ShardedBasisStore::new(n_cols, &sketch_cfg, family);
    let mut heads: HeadCache = Vec::with_capacity(space_len);
    heads.resize_with(space_len, || None);
    let sketch = execute_pass(
        &sketch_cfg,
        disable_reuse,
        sim,
        &mut sketch_store,
        pool,
        PassPlan { export_heads: Some(&mut heads), ..Default::default() },
    )?;
    drop(sketch_store);

    let survivors = sketch_frontier(cfg.refine_top_k, &sketch.points);

    let refine = execute_pass(
        cfg,
        disable_reuse,
        sim,
        stores,
        pool,
        PassPlan { subset: Some(&survivors), head_cache: Some(&heads), ..Default::default() },
    )?;

    // Stitch in enumeration order. Both passes emit points ascending by
    // `point_idx` and the survivors are a subset of the sketch table, so a
    // single merge pass pairs them up.
    let mut refined = refine.points.into_iter().peekable();
    let mut stats = refine.stats;
    let mut points: Vec<PointResult> = Vec::with_capacity(space_len);
    for coarse_point in sketch.points {
        if refined.peek().map(|r| r.point_idx) == Some(coarse_point.point_idx) {
            points.push(refined.next().expect("peeked"));
        } else {
            stats.pruned_points += 1;
            points.push(PointResult {
                coarse: true,
                reused_from: vec![None; n_cols],
                ..coarse_point
            });
        }
    }
    debug_assert!(refined.next().is_none(), "refine pass emitted a non-survivor");

    stats.points = space_len;
    stats.sketch_points = sketch.stats.points;
    stats.sketch_worlds = sketch.stats.worlds_evaluated;
    stats.refined_points = survivors.len();
    stats.worlds_evaluated += sketch.stats.worlds_evaluated;
    stats.phase.fingerprint += sketch.stats.phase.fingerprint;
    stats.phase.resolve += sketch.stats.phase.resolve;
    stats.phase.completion += sketch.stats.phase.completion;
    stats.phase.commit += sketch.stats.phase.commit;
    stats.elapsed = start.elapsed();
    Ok(SweepResult { points, stats })
}

/// Phase 3's second half: the metrics of every fresh column of every slot
/// whose tail evaluated (`tails[slot]` is `Some`), in enumeration order
/// (slot, then column).
///
/// Each pool task fills up to [`OutputMetrics::LANES`] columns' `0..n`
/// sample vectors, head then tail, and computes their metrics in one
/// [`OutputMetrics::from_sample_batch`] pass — bit-identical to
/// `from_samples` per column however the pool runs the tasks. The `n`-sample
/// buffers outlive the wave as basis samples, so they are allocated here,
/// on the calling thread rather than in a pool worker's malloc arena, and
/// moved into their task. Columns go in scatters of about four tasks per
/// thread, and the tails a scatter used up are freed before the next one
/// allocates, so a wave never holds all its tails and all its new sample
/// buffers at once.
fn fresh_metrics(
    slots: &[Slot],
    mut tails: Vec<Option<WorldBatch>>,
    stores: &ShardedBasisStore,
    n: usize,
    threads: usize,
    pool: &dyn WorkerPool,
) -> Vec<OutputMetrics> {
    let mut cols: Vec<(usize, usize, &[f64])> = Vec::new();
    for (s, slot) in slots.iter().enumerate().filter(|&(s, _)| tails[s].is_some()) {
        for (c, plan) in slot.cols.iter().enumerate() {
            let head = match plan {
                ColPlan::Reuse(..) => continue,
                ColPlan::Fresh(FreshSource::Staged(id)) => {
                    stores.shard(c).get(*id).fingerprint.entries()
                }
                ColPlan::Fresh(FreshSource::Inline(head)) => head.as_slice(),
            };
            cols.push((s, c, head));
        }
    }
    let mut out = Vec::with_capacity(cols.len());
    let mut freed = 0;
    for batch in cols.chunks(4 * threads * OutputMetrics::LANES) {
        let groups: Vec<&[(usize, usize, &[f64])]> = batch.chunks(OutputMetrics::LANES).collect();
        let buffers: Vec<Mutex<Vec<Vec<f64>>>> = groups
            .iter()
            .map(|g| Mutex::new(g.iter().map(|_| Vec::with_capacity(n)).collect()))
            .collect();
        let mut done: Vec<OnceLock<Vec<OutputMetrics>>> = Vec::with_capacity(groups.len());
        done.resize_with(groups.len(), OnceLock::new);
        pool.scatter(threads, groups.len(), &|t| {
            let mut samples =
                std::mem::take(&mut *buffers[t].lock().expect("held only to take the buffers"));
            for (buf, &(s, c, head)) in samples.iter_mut().zip(groups[t]) {
                buf.extend_from_slice(head);
                buf.extend_from_slice(tails[s].as_ref().expect("only evaluated tails").column(c));
            }
            done[t].set(OutputMetrics::from_sample_batch(samples)).expect("pool ran a task twice");
        });
        out.extend(done.into_iter().flat_map(|d| d.into_inner().expect("pool ran every task")));
        // Every slot before the batch's last one is finished (a slot's
        // columns are contiguous).
        let last = batch[batch.len() - 1].0;
        tails[freed..last].iter_mut().for_each(|tail| *tail = None);
        freed = last;
    }
    out
}

/// Evaluate a batch of world-window jobs with up to `threads` workers,
/// returning each job's columnar [`WorldBatch`] in job order.
///
/// The pool gets a handful of tasks per thread, shrinking in world count
/// as the batch is planned: a task is either a contiguous run of whole
/// jobs, whose batches come back as evaluated, or one window of a job too
/// large for one task. Windows stitch back in window order, so the output
/// is independent of which worker ran what. Jobs and windows alike are
/// evaluated through [`jigsaw_pdb::eval_window`], which runs the columnar
/// kernels and converts simulation panics into typed errors inside the
/// task, so nothing unwinds through the pool.
fn run_jobs(
    sim: &dyn Simulation,
    jobs: &[EvalJob<'_>],
    threads: usize,
    pool: &dyn WorkerPool,
) -> Vec<JobOutput> {
    let eval = |j: &EvalJob<'_>| jigsaw_pdb::eval_window(sim, j.point, j.start, j.count);
    let total: usize = jobs.iter().map(|j| j.count).sum();
    // Tiny batches are not worth a dispatch round; the cutoff is a pure
    // performance heuristic (results are identical either way).
    if threads <= 1 || total <= 32 {
        return jobs.iter().map(eval).collect();
    }

    enum Task {
        Jobs(Range<usize>),
        Window { job: usize, lo: usize, hi: usize },
    }
    // Guided self-scheduling: a task takes about half a thread's share of
    // the worlds not yet planned, and never less than a sixteenth of a
    // thread's share of the whole batch. The first tasks are few and large;
    // the last are small enough that the threads finish together.
    let min = total.div_ceil(16 * threads);
    let want = |remaining: usize| (remaining / (2 * threads)).max(min);
    let mut remaining = total;
    let mut tasks: Vec<Task> = Vec::new();
    let mut ji = 0;
    while ji < jobs.len() {
        let j = &jobs[ji];
        if j.count < 2 * want(remaining) {
            let (first, mut worlds) = (ji, 0);
            while ji < jobs.len()
                && worlds < want(remaining)
                && (ji == first || jobs[ji].count < 2 * want(remaining))
            {
                worlds += jobs[ji].count;
                ji += 1;
            }
            tasks.push(Task::Jobs(first..ji));
            remaining -= worlds;
            continue;
        }
        // Too large for one task: windows of the same shrinking size, the
        // last taking what is left.
        let (mut lo, end) = (j.start, j.start + j.count);
        while lo < end {
            let w = want(remaining);
            let hi = if end - lo >= 2 * w { lo + w } else { end };
            tasks.push(Task::Window { job: ji, lo, hi });
            remaining -= hi - lo;
            lo = hi;
        }
        ji += 1;
    }

    // One write-once slot per task; whichever worker the pool assigns a
    // task fills its slot, and stitching below goes purely by task index.
    let mut slots: Vec<OnceLock<Vec<JobOutput>>> = Vec::with_capacity(tasks.len());
    slots.resize_with(tasks.len(), OnceLock::new);
    pool.scatter(threads, tasks.len(), &|t| {
        let r = match tasks[t] {
            Task::Jobs(ref run) => jobs[run.clone()].iter().map(eval).collect(),
            Task::Window { job, lo, hi } => {
                vec![jigsaw_pdb::eval_window(sim, jobs[job].point, lo, hi - lo)]
            }
        };
        slots[t].set(r).expect("pool ran a task twice");
    });

    // Tasks were emitted in job order and windows in world order, so one
    // linear pass reassembles everything; a job's first erroring window
    // becomes the job's error.
    let n_cols = sim.columns().len();
    let mut out: Vec<JobOutput> = Vec::with_capacity(jobs.len());
    for (task, slot) in tasks.iter().zip(slots) {
        let mut parts = slot.into_inner().expect("pool ran every task");
        let Task::Window { job, lo, .. } = *task else {
            out.append(&mut parts);
            continue;
        };
        let part = parts.pop().expect("a window yields one batch");
        if lo == jobs[job].start {
            out.push(part.map(|first| {
                let mut acc = WorldBatch::with_capacity(n_cols, jobs[job].count);
                acc.extend(first);
                acc
            }));
            continue;
        }
        let acc = out.last_mut().expect("a job's first window comes first");
        match part {
            Err(e) if acc.is_ok() => *acc = Err(e),
            Err(_) => {}
            Ok(more) => {
                if let Ok(acc) = acc {
                    acc.extend(more);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::SweepRunner;
    use jigsaw_blackbox::models::{Demand, SynthBasis};
    use jigsaw_blackbox::{FnBlackBox, ParamDecl, ParamSpace};
    use jigsaw_pdb::{BlackBoxSim, Catalog, DirectEngine, Expr, PdbError, Plan, PlanSim};
    use jigsaw_prng::{Seed, SeedSet};
    use std::sync::Arc;

    fn cfg() -> JigsawConfig {
        JigsawConfig::paper().with_n_samples(120)
    }

    fn demand_sim() -> BlackBoxSim {
        let space = ParamSpace::new(vec![
            ParamDecl::range("week", 0, 24, 1),
            ParamDecl::set("feature", vec![5, 12]),
        ]);
        BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(2024))
    }

    fn assert_identical(a: &SweepResult, b: &SweepResult, what: &str) {
        assert_eq!(a.points.len(), b.points.len(), "{what}: point count");
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x, y, "{what}: point {} diverged", x.point_idx);
        }
        assert_eq!(a.stats.counters(), b.stats.counters(), "{what}: counters");
    }

    #[test]
    fn thread_count_does_not_change_anything() {
        let sim = demand_sim();
        let base = SweepRunner::new(cfg().with_threads(1)).run(&sim).unwrap();
        for threads in [2usize, 3, 8] {
            let par = SweepRunner::new(cfg().with_threads(threads)).run(&sim).unwrap();
            assert_identical(&base, &par, &format!("threads={threads}"));
        }
    }

    #[test]
    fn wave_size_does_not_change_anything() {
        // 400 points: the automatic size (0) at 2 threads is 128, 4 waves.
        let space = ParamSpace::new(vec![
            ParamDecl::range("week", 0, 199, 1),
            ParamDecl::set("feature", vec![5, 12]),
        ]);
        let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(2024));
        let base = SweepRunner::new(cfg().with_wave_size(1)).run(&sim).unwrap();
        for (wave, threads) in [(0usize, 2usize), (2, 4), (7, 4), (16, 4), (10_000, 4)] {
            let c = cfg().with_wave_size(wave).with_threads(threads);
            let r = SweepRunner::new(c).run(&sim).unwrap();
            assert_identical(&base, &r, &format!("wave={wave}"));
            if wave == 0 {
                assert_eq!(r.stats.waves, 4, "auto waves of 128");
            }
        }
        // wave_size 1 degenerates to the sequential point loop; its wave
        // telemetry must show one point per wave.
        assert_eq!(base.stats.waves, base.stats.points);
    }

    #[test]
    fn synth_basis_counts_survive_parallelism() {
        for n_bases in [1usize, 4] {
            let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 48, 1)]);
            let sim = BlackBoxSim::new(Arc::new(SynthBasis::new(n_bases)), space, SeedSet::new(7));
            for threads in [1usize, 4] {
                let r = SweepRunner::new(cfg().with_threads(threads)).run(&sim).unwrap();
                assert_eq!(
                    r.stats.bases_per_column[0], n_bases,
                    "threads={threads}: SynthBasis({n_bases}) basis count"
                );
            }
        }
    }

    /// A `SynthBasis(4)` sweep of 48 points on an attached store.
    fn synth_sweep_on(stores: &mut ShardedBasisStore) -> SweepResult {
        let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 47, 1)]);
        let sim = BlackBoxSim::new(Arc::new(SynthBasis::new(4)), space, SeedSet::new(7));
        SweepRunner::new(cfg().with_threads(2)).store(stores).run(&sim).unwrap()
    }

    fn synth_stores() -> ShardedBasisStore {
        ShardedBasisStore::new(1, &cfg(), Arc::new(crate::mapping::AffineFamily))
    }

    #[test]
    fn results_share_their_basis_samples_instead_of_copying_them() {
        let mut stores = synth_stores();
        let r = synth_sweep_on(&mut stores);
        assert_eq!(r.points.len(), 48);
        let bases = stores.shard(0).bases();
        assert_eq!(bases.len(), 4);
        let mut fresh = 0;
        for p in &r.points {
            let m = &p.metrics[0];
            match p.reused_from[0] {
                Some(id) => assert!(
                    m.shares_samples_with(&stores.shard(0).get(id).metrics),
                    "reused point {} copied basis {id:?}'s samples",
                    p.point_idx
                ),
                None => {
                    fresh += 1;
                    let owners = bases.iter().filter(|b| m.shares_samples_with(&b.metrics));
                    assert_eq!(owners.count(), 1, "fresh point {} owns no basis", p.point_idx);
                }
            }
        }
        assert_eq!(fresh, 4, "one fresh point per basis");
    }

    #[test]
    fn refining_a_basis_leaves_earlier_mapped_results_unchanged() {
        let mut stores = synth_stores();
        let r = synth_sweep_on(&mut stores);
        // Read through clones, so the results themselves first compute
        // their mapped samples after the refine below.
        let before: Vec<Vec<u64>> = r
            .points
            .iter()
            .map(|p| p.metrics[0].clone().samples().iter().map(|x| x.to_bits()).collect())
            .collect();
        for id in 0..stores.shard(0).len() {
            stores.shard_mut(0).refine(BasisId(id), &[1.0, 2.0]);
            assert_eq!(stores.shard(0).get(BasisId(id)).metrics.n(), cfg().n_samples + 2);
        }
        for (p, want) in r.points.iter().zip(&before) {
            let m = &p.metrics[0];
            let got: Vec<u64> = m.samples().iter().map(|x| x.to_bits()).collect();
            assert_eq!(&got, want, "point {} changed under refine", p.point_idx);
            assert_eq!(m.n(), cfg().n_samples);
            assert!(stores.shard(0).bases().iter().all(|b| !m.shares_samples_with(&b.metrics)));
        }
    }

    #[test]
    fn wave_telemetry_accounts_every_point() {
        let sim = demand_sim();
        let r = SweepRunner::new(cfg().with_wave_size(8).with_threads(2)).run(&sim).unwrap();
        assert_eq!(r.stats.waves, r.stats.wave_reuse.len());
        let pts: usize = r.stats.wave_reuse.iter().map(|w| w.points).sum();
        let reused: usize = r.stats.wave_reuse.iter().map(|w| w.reused).sum();
        let warm: usize = r.stats.wave_reuse.iter().map(|w| w.warm_hits).sum();
        let full: usize = r.stats.wave_reuse.iter().map(|w| w.full_simulations).sum();
        assert_eq!(pts, r.stats.points);
        assert_eq!(reused, r.stats.reused);
        assert_eq!(warm, r.stats.warm_hits);
        assert_eq!(full, r.stats.full_simulations);
        assert_eq!(warm, 0, "no snapshot loaded, so no warm hits");
        for w in &r.stats.wave_reuse {
            assert_eq!(w.points, w.reused + w.warm_hits + w.full_simulations);
        }
    }

    #[test]
    fn warm_start_replays_cold_results_and_counts_warm_hits() {
        let sim = demand_sim();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("jigsaw-exec-warm-{}.snap", std::process::id()));
        let cold = SweepRunner::new(cfg().with_basis_save(&path)).run(&sim).unwrap();
        assert_eq!(cold.stats.warm_hits, 0);
        let warm = SweepRunner::new(cfg().with_basis_load(&path)).run(&sim).unwrap();
        // Same scenario: every point resolves against a loaded basis.
        assert_eq!(warm.stats.warm_hits, warm.stats.points);
        assert_eq!(warm.stats.reused, 0);
        assert_eq!(warm.stats.full_simulations, 0);
        // Results and final basis sets are bit-identical to the cold sweep.
        assert_eq!(warm.stats.bases_per_column, cold.stats.bases_per_column);
        for (c, w) in cold.points.iter().zip(&warm.points) {
            assert_eq!(c.point_idx, w.point_idx);
            assert_eq!(c.point, w.point);
            for (mc, mw) in c.metrics.iter().zip(&w.metrics) {
                assert_eq!(mc.samples(), mw.samples());
                assert_eq!(mc.expectation().to_bits(), mw.expectation().to_bits());
                assert_eq!(mc.std_dev().to_bits(), mw.std_dev().to_bits());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_start_resave_is_byte_identical() {
        let sim = demand_sim();
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let cold_path = dir.join(format!("jigsaw-exec-resave-cold-{pid}.snap"));
        let warm_path = dir.join(format!("jigsaw-exec-resave-warm-{pid}.snap"));
        SweepRunner::new(cfg().with_basis_save(&cold_path)).run(&sim).unwrap();
        SweepRunner::new(cfg().with_basis_load(&cold_path).with_basis_save(&warm_path))
            .run(&sim)
            .unwrap();
        let a = std::fs::read(&cold_path).unwrap();
        let b = std::fs::read(&warm_path).unwrap();
        assert_eq!(a, b, "warm re-save must reproduce the cold snapshot byte for byte");
        std::fs::remove_file(&cold_path).ok();
        std::fs::remove_file(&warm_path).ok();
    }

    #[test]
    fn config_mismatch_fails_the_sweep_with_typed_error() {
        let sim = demand_sim();
        let path =
            std::env::temp_dir().join(format!("jigsaw-exec-mismatch-{}.snap", std::process::id()));
        SweepRunner::new(cfg().with_basis_save(&path)).run(&sim).unwrap();
        let err =
            match SweepRunner::new(cfg().with_tolerance(1e-6).with_basis_load(&path)).run(&sim) {
                Err(e) => e,
                Ok(_) => panic!("mismatched snapshot must not load"),
            };
        assert!(
            err.to_string().contains("basis snapshot"),
            "expected a snapshot error, got: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// An intentionally awkward pool: runs every task serially in *reverse*
    /// index order. Any faithful [`WorkerPool`] must yield bit-identical
    /// sweeps, because the executor stitches results by task index.
    struct ReversePool;
    impl WorkerPool for ReversePool {
        fn scatter(&self, _threads: usize, n_tasks: usize, run: &(dyn Fn(usize) + Sync)) {
            for t in (0..n_tasks).rev() {
                run(t);
            }
        }
    }

    #[test]
    fn custom_worker_pool_is_bit_identical() {
        let sim = demand_sim();
        let base = SweepRunner::new(cfg().with_threads(1)).run(&sim).unwrap();
        let rev =
            SweepRunner::new(cfg().with_threads(4)).pool(Arc::new(ReversePool)).run(&sim).unwrap();
        assert_identical(&base, &rev, "reverse-order pool");
    }

    #[test]
    fn run_on_counts_preexisting_bases_as_warm_hits() {
        let sim = demand_sim();
        let c = cfg();
        let mut stores =
            ShardedBasisStore::new(sim.columns().len(), &c, Arc::new(crate::mapping::AffineFamily));
        let mut runner = SweepRunner::new(c.clone()).store(&mut stores);
        // First sweep on the empty store: pays the cold ramp.
        let cold = runner.run(&sim).unwrap();
        assert_eq!(cold.stats.warm_hits, 0);
        assert!(cold.stats.full_simulations > 0);
        // Second sweep on the *same* store: every point rides bases the
        // first sweep built — all warm hits, zero completions, and results
        // bit-identical to the cold leg.
        let warm = runner.run(&sim).unwrap();
        assert_eq!(warm.stats.warm_hits, warm.stats.points);
        assert_eq!(warm.stats.full_simulations, 0);
        assert_eq!(warm.stats.bases_per_column, cold.stats.bases_per_column);
        for (a, b) in cold.points.iter().zip(&warm.points) {
            assert_eq!(a.point, b.point);
            for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(ma.samples(), mb.samples());
            }
        }
    }

    #[test]
    fn naive_mode_parallel_equals_sequential() {
        let sim = demand_sim();
        let base = SweepRunner::naive(cfg().with_threads(1)).run(&sim).unwrap();
        let par = SweepRunner::naive(cfg().with_threads(8)).run(&sim).unwrap();
        assert_identical(&base, &par, "naive");
        assert_eq!(par.stats.bases_per_column, vec![0]);
        assert_eq!(par.stats.full_simulations, par.stats.points);
    }

    /// Two-column plan: column `a` is affine across points (one basis),
    /// column `b` never maps (its shape changes per point) — every point
    /// exercises the mixed resolve-and-miss path.
    fn mixed_plan_sim() -> PlanSim {
        use jigsaw_prng::{dist::Normal, Xoshiro256pp};
        let mut cat = Catalog::new();
        cat.add_function(Arc::new(FnBlackBox::new("Affine", 1, |p: &[f64], s| {
            let mut rng = Xoshiro256pp::seeded(s);
            p[0] + Normal::standard(&mut rng)
        })));
        cat.add_function(Arc::new(FnBlackBox::new("Wild", 1, |p: &[f64], s| {
            let mut rng = Xoshiro256pp::seeded(s);
            let z = Normal::standard(&mut rng);
            z + (1.0 + p[0]) * z * z * z
        })));
        let cat = Arc::new(cat);
        let plan = Plan::OneRow
            .project(vec![
                ("a", Expr::call("Affine", vec![Expr::param("p")])),
                ("b", Expr::call("Wild", vec![Expr::param("p")])),
            ])
            .bind(&cat, &["p".to_string()])
            .unwrap();
        let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 11, 1)]);
        PlanSim::new(Arc::new(DirectEngine::new()), plan, cat, space, SeedSet::new(99))
    }

    #[test]
    fn mixed_column_reuse_is_thread_invariant() {
        let sim = mixed_plan_sim();
        let base = SweepRunner::new(cfg().with_threads(1)).run(&sim).unwrap();
        // Column a collapses to one basis; column b gets one per point.
        assert_eq!(base.stats.bases_per_column[0], 1);
        assert_eq!(base.stats.bases_per_column[1], base.stats.points);
        // Every point after the first reuses a but misses b: a full
        // simulation with a recorded per-column reuse.
        assert_eq!(base.stats.full_simulations, base.stats.points);
        assert!(base.points[1..].iter().all(|p| p.reused_from[0].is_some()));
        assert!(base.points.iter().all(|p| p.reused_from[1].is_none()));
        for threads in [2usize, 8] {
            let par = SweepRunner::new(cfg().with_threads(threads)).run(&sim).unwrap();
            assert_identical(&base, &par, &format!("mixed threads={threads}"));
        }
    }

    #[test]
    fn n_equals_m_edge_case() {
        // Completion windows of zero worlds: every miss's samples are just
        // the fingerprint.
        let sim = demand_sim();
        let c = JigsawConfig::paper().with_fingerprint_len(10).with_n_samples(10);
        let base = SweepRunner::new(c.clone().with_threads(1)).run(&sim).unwrap();
        let par = SweepRunner::new(c.with_threads(4)).run(&sim).unwrap();
        assert_identical(&base, &par, "n==m");
        for p in &base.points {
            assert_eq!(p.metrics[0].n(), 10);
        }
    }

    /// Reuse-hostile black box over one parameter: a distinct cubic shape
    /// at every point, so every point needs its own basis and the
    /// exhaustive sweep pays full budget everywhere.
    fn no_reuse_sim(points: i64) -> BlackBoxSim {
        faulty_sim(points, |_, _| None)
    }

    /// [`no_reuse_sim`]'s model, except where `fault(p, seed)` panics or
    /// returns an output to use instead.
    fn faulty_sim(
        points: i64,
        fault: impl Fn(f64, Seed) -> Option<f64> + Send + Sync + 'static,
    ) -> BlackBoxSim {
        use jigsaw_prng::{dist::Normal, Xoshiro256pp};
        let space = ParamSpace::new(vec![ParamDecl::range("p", 0, points - 1, 1)]);
        let bb = FnBlackBox::new("wild", 1, move |p: &[f64], s| {
            if let Some(out) = fault(p[0], s) {
                return out;
            }
            let mut rng = Xoshiro256pp::seeded(s);
            let z = Normal::standard(&mut rng);
            p[0] * 0.01 + z + (1.0 + p[0]) * z * z * z * 0.05
        });
        BlackBoxSim::new(Arc::new(bb), space, SeedSet::new(41))
    }

    /// Sweep `sim` under `c` on a fresh one-column store, expecting it to
    /// fail; returns the error and the store.
    fn failing_sweep(sim: &BlackBoxSim, c: &JigsawConfig) -> (PdbError, ShardedBasisStore) {
        let mut stores = ShardedBasisStore::new(1, c, Arc::new(crate::mapping::AffineFamily));
        match SweepRunner::new(c.clone()).store(&mut stores).run(sim) {
            Err(e) => (e, stores),
            Ok(_) => panic!("the sweep must fail"),
        }
    }

    #[test]
    fn a_failed_sweep_discards_its_staged_bases_and_keeps_committed_ones() {
        // Waves of 4 over 10 reuse-hostile points: wave 1 commits points
        // 0..4, wave 2 stages point 4 and then fails on point 5's head.
        let sim = faulty_sim(10, |p, _| {
            assert_ne!(p, 5.0, "deliberate test panic");
            None
        });
        let c = cfg().with_wave_size(4);
        let (_, mut stores) = failing_sweep(&sim, &c);
        assert_eq!(stores.staged_total(), 0, "no staged basis outlives the failed sweep");
        assert_eq!(stores.bases_per_column(), vec![4], "the committed wave stays warm");
        for basis in stores.shard(0).bases() {
            assert_eq!(basis.metrics.n(), c.n_samples, "basis {:?} lost its samples", basis.id);
        }
        stores.to_snapshot_bytes(&c, "affine").expect("the store still snapshots");
        // A later sweep of a healthy model resolves against the kept bases
        // only: points 0..4 ride them, nothing maps onto an empty basis.
        let healthy = SweepRunner::new(c).store(&mut stores).run(&no_reuse_sim(10)).unwrap();
        assert_eq!(healthy.stats.warm_hits, 4);
        assert!(healthy.points.iter().all(|p| p.metrics[0].n() == 120));
    }

    #[test]
    fn a_non_finite_fingerprint_world_is_a_typed_error_not_a_panic() {
        // Point 5, in the middle of wave 2, divides by zero in world 3.
        let seeds = SeedSet::new(41);
        let sim =
            faulty_sim(10, move |p, s| (p == 5.0 && s == seeds.seed(3)).then_some(f64::INFINITY));
        for threads in [1usize, 2] {
            let c = cfg().with_wave_size(4).with_threads(threads);
            let (err, stores) = failing_sweep(&sim, &c);
            match err {
                PdbError::NanMetric(msg) => {
                    assert_eq!(msg, "point 5, column 0: fingerprint world 3 returned inf")
                }
                other => panic!("threads={threads}: expected NanMetric, got {other:?}"),
            }
            assert_eq!(stores.staged_total(), 0, "threads={threads}: point 4's stage survived");
            assert_eq!(stores.bases_per_column(), vec![4], "threads={threads}");
            stores.to_snapshot_bytes(&c, "affine").expect("the store still snapshots");
        }
    }

    #[test]
    fn a_completion_window_failure_is_thread_invariant_and_keeps_full_bases() {
        // Point 5 resolves and stages like every other point, then panics
        // in one completion world (m + 7). In waves of 4 it sits in the
        // middle of wave 2; in waves of 1 its tail is the only job of its
        // wave, which 2 threads split into windows.
        let seeds = SeedSet::new(41);
        let tail_world = cfg().fingerprint_len + 7;
        let sim = faulty_sim(10, move |p, s| {
            assert!(p != 5.0 || s != seeds.seed(tail_world), "deliberate completion panic");
            None
        });
        let mut errors = Vec::new();
        for (wave, threads) in [(4usize, 1usize), (4, 2), (1, 2)] {
            let what = format!("wave={wave} threads={threads}");
            let c = cfg().with_wave_size(wave).with_threads(threads);
            let (err, stores) = failing_sweep(&sim, &c);
            errors.push(err.to_string());
            assert_eq!(stores.staged_total(), 0, "{what}: a staged basis survived");
            // Points 0..=4 commit ahead of point 5.
            assert_eq!(stores.bases_per_column(), vec![5], "{what}");
            for basis in stores.shard(0).bases() {
                assert_eq!(basis.metrics.n(), c.n_samples, "{what}: {:?}", basis.id);
            }
        }
        assert!(errors[0].contains("deliberate completion panic"), "{}", errors[0]);
        assert!(errors.iter().all(|e| *e == errors[0]), "the error depends on the schedule");
    }

    #[test]
    fn run_jobs_reassembles_every_plan() {
        // Zero-world, tiny, and large jobs, so plans mix runs of whole jobs
        // with windows; a reverse-order pool runs the tasks back to front.
        let sim = no_reuse_sim(4);
        let point = [2.0];
        let counts = [0usize, 5, 300, 3, 0, 1000, 7, 40];
        let jobs: Vec<EvalJob<'_>> =
            counts.iter().map(|&count| EvalJob { point: &point, start: 10, count }).collect();
        let want = run_jobs(&sim, &jobs, 1, &ScopedPool);
        for threads in [2usize, 3, 8] {
            for pool in [&ScopedPool as &dyn WorkerPool, &ReversePool] {
                assert_eq!(run_jobs(&sim, &jobs, threads, pool), want, "threads={threads}");
            }
            assert_eq!(run_jobs(&sim, &jobs[5..6], threads, &ReversePool), want[5..6]);
        }
    }

    #[test]
    fn sketch_degenerates_to_exhaustive_bit_for_bit() {
        let sim = demand_sim();
        let exhaustive = SweepRunner::new(cfg()).run(&sim).unwrap();
        // refine_top_k >= |space| keeps everything; with sketch_budget == m
        // the cached heads make even the world count match exactly.
        let sketchy = SweepRunner::new(cfg().with_sketch(10, 10_000)).run(&sim).unwrap();
        assert_eq!(exhaustive.points.len(), sketchy.points.len());
        for (a, b) in exhaustive.points.iter().zip(&sketchy.points) {
            assert_eq!(a, b, "point {} diverged from exhaustive", a.point_idx);
        }
        let (e, s) = (&exhaustive.stats, &sketchy.stats);
        assert_eq!(e.full_simulations, s.full_simulations);
        assert_eq!(e.reused, s.reused);
        assert_eq!(e.bases_per_column, s.bases_per_column);
        assert_eq!(e.pairings_tested, s.pairings_tested);
        assert_eq!(e.worlds_evaluated, s.worlds_evaluated);
        assert_eq!(s.refined_points, s.points);
        assert_eq!(s.pruned_points, 0);
        assert_eq!(s.sketch_points, s.points);
    }

    #[test]
    fn sketch_prunes_and_keeps_coarse_metrics() {
        let sim = no_reuse_sim(40);
        let c = cfg().with_sketch(20, 3);
        let sketchy = SweepRunner::new(c.clone()).run(&sim).unwrap();
        let exhaustive = SweepRunner::new(cfg()).run(&sim).unwrap();
        let st = &sketchy.stats;
        assert_eq!(st.points, 40);
        assert_eq!(st.refined_points + st.pruned_points, st.points);
        assert!(st.pruned_points > 0, "K=3 over 40 reuse-hostile points must prune");
        assert_eq!(st.sketch_points, 40);
        assert_eq!(st.sketch_worlds, 40 * 20);
        assert!(
            st.worlds_evaluated < exhaustive.stats.worlds_evaluated,
            "sketch {} vs exhaustive {}",
            st.worlds_evaluated,
            exhaustive.stats.worlds_evaluated
        );
        for p in &sketchy.points {
            if p.coarse {
                assert_eq!(p.metrics[0].n(), 20, "pruned points carry coarse metrics");
                assert!(p.reused_from.iter().all(Option::is_none));
            } else {
                assert_eq!(p.metrics[0].n(), 120, "refined points carry full metrics");
                // Refined metrics are bit-identical to the exhaustive sweep:
                // same store decisions, same seed-addressed worlds.
                let e = &exhaustive.points[p.point_idx];
                assert_eq!(p.metrics[0].samples(), e.metrics[0].samples());
            }
        }
    }

    #[test]
    fn sketch_refine_warms_the_attached_store() {
        let sim = no_reuse_sim(30);
        let c = cfg().with_sketch(10, 4);
        let mut stores =
            ShardedBasisStore::new(sim.columns().len(), &c, Arc::new(crate::mapping::AffineFamily));
        let mut runner = SweepRunner::new(c).store(&mut stores);
        let cold = runner.run(&sim).unwrap();
        assert_eq!(cold.stats.warm_hits, 0);
        assert!(cold.stats.full_simulations > 0);
        // Second sweep on the same store: every survivor rides the bases the
        // first refine pass committed, and the results replay bit-for-bit.
        let warm = runner.run(&sim).unwrap();
        assert_eq!(warm.stats.full_simulations, 0);
        assert_eq!(warm.stats.warm_hits, warm.stats.refined_points);
        assert_eq!(warm.stats.bases_per_column, cold.stats.bases_per_column);
        for (a, b) in cold.points.iter().zip(&warm.points) {
            assert_eq!(a.coarse, b.coarse);
            for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(ma.samples(), mb.samples());
            }
        }
    }

    #[test]
    fn empty_space_yields_empty_sweep() {
        let space = ParamSpace::new(vec![ParamDecl::range("p", 5, 4, 1)]);
        let sim = BlackBoxSim::new(Arc::new(Demand::paper()), space, SeedSet::new(1));
        let r = SweepRunner::new(cfg().with_threads(4)).run(&sim).unwrap();
        assert!(r.points.is_empty());
        assert_eq!(r.stats.points, 0);
        assert_eq!(r.stats.waves, 0);
        assert_eq!(r.stats.bases_per_column, vec![0]);
        // Sketch mode over an empty space is equally empty.
        let s = SweepRunner::new(cfg().with_sketch(10, 2)).run(&sim).unwrap();
        assert!(s.points.is_empty());
        assert_eq!(s.stats.refined_points, 0);
        assert_eq!(s.stats.pruned_points, 0);
    }
}
