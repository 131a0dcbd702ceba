//! Possible-world evaluation: the per-window unit production schedules,
//! and the thread-splitting reference paths that check it.
//!
//! Monte Carlo worlds are embarrassingly parallel: world `k`'s randomness is
//! fully determined by `σ_k`, so partitioning the world range across threads
//! changes nothing about the result (a property the tests assert). This
//! mirrors MCDB's parallel world evaluation (paper §2.1: "queries are run on
//! each sampled world in parallel").
//!
//! Production evaluates one window at a time through [`eval_window`], on the
//! columnar kernels of [`Simulation::eval_batch`]: sweeps spend their thread
//! budget by scheduling such windows on `jigsaw-core`'s worker pool, and
//! interactive sessions evaluate their small windows on the calling thread.
//! Two thread-splitting entry points remain for comparisons:
//!
//! * [`eval_batch_on`] — a window on an explicit [`EvalPath`], split across
//!   up to `threads` scoped threads; probes and property tests drive both
//!   paths through it.
//! * [`eval_worlds`] — the per-world oracle ([`Simulation::eval_worlds`]),
//!   kept as the reference implementation and for callers that want the
//!   `out[col][world]` shape. The columnar kernels perform the same
//!   floating-point operations in the same order, so both produce
//!   bit-identical bytes; `tests/columnar_oracle.rs` pins that through the
//!   explicit-path handles [`eval_batch_on`] / [`eval_window_on`].
//!
//! Each sub-window executes exactly as the sequential path would over that
//! window (same seeds per world), and windows are stitched back in
//! enumeration order, so the output is **bit-identical for any thread
//! count**. Panics inside a simulation are caught at this boundary — on the
//! caller thread and on workers alike — and surfaced as
//! [`PdbError::WorkerPanic`], so a buggy black box cannot abort a long-lived
//! host process (the session server answers `ERR` and keeps serving).

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::batch::WorldBatch;
use crate::error::{PdbError, Result};
use crate::sim::Simulation;

/// Which world-evaluation implementation the explicit-path handles
/// ([`eval_batch_on`], [`eval_window_on`]) drive. Production always runs
/// `Columnar`; `Oracle` exists so tests and probes can compare the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalPath {
    /// Struct-of-arrays kernels over contiguous columns (production).
    Columnar,
    /// The historical per-world reference path.
    Oracle,
}

/// Resolve a thread-budget knob: `0` means "all available cores", any other
/// value is taken literally. Every budgeted entry point (this module,
/// `jigsaw-core`'s sweep executor and Markov stepping) resolves the
/// sentinel through here, so `0` behaves the same everywhere.
pub fn resolve_thread_budget(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        t => t,
    }
}

/// The human-readable message of a caught panic payload (`&str` and
/// `String` payloads; anything else is named as such).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

fn catch_panics<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(PdbError::WorkerPanic(panic_message(p))))
}

/// Evaluate one window **sequentially** on an explicit path, converting any
/// simulation panic into [`PdbError::WorkerPanic`]. This is the per-task
/// unit the threaded entry points schedule: because the panic is caught
/// inside the task, no unwinding ever crosses a scope boundary.
pub fn eval_window_on(
    sim: &dyn Simulation,
    point: &[f64],
    start: usize,
    count: usize,
    path: EvalPath,
) -> Result<WorldBatch> {
    catch_panics(|| match path {
        EvalPath::Columnar => sim.eval_batch(point, start, count),
        EvalPath::Oracle => {
            Ok(WorldBatch::from_columns(sim.eval_worlds(point, start, count)?, count))
        }
    })
}

/// [`eval_window_on`] on the columnar kernels — the per-task unit
/// `jigsaw-core`'s worker pools schedule (panics caught the same way, so
/// nothing unwinds through a pool).
pub fn eval_window(
    sim: &dyn Simulation,
    point: &[f64],
    start: usize,
    count: usize,
) -> Result<WorldBatch> {
    catch_panics(|| sim.eval_batch(point, start, count))
}

/// Evaluate `sim` at `point` over worlds `[start, start+count)` into a
/// columnar [`WorldBatch`] on an explicit path, using up to `threads` OS
/// threads (`0` = all available cores) — the handle probes and property
/// tests use to compare both implementations inside one process.
/// Bit-identical to the sequential path for every thread budget.
pub fn eval_batch_on(
    sim: &dyn Simulation,
    point: &[f64],
    start: usize,
    count: usize,
    threads: usize,
    path: EvalPath,
) -> Result<WorldBatch> {
    let threads = resolve_thread_budget(threads).min(count.max(1));
    if threads <= 1 || count == 0 {
        return eval_window_on(sim, point, start, count, path);
    }
    let chunk = count.div_ceil(threads);
    let results: Vec<Result<WorldBatch>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let lo = start + t * chunk;
            let hi = (start + count).min(lo + chunk);
            if lo >= hi {
                break;
            }
            handles.push(scope.spawn(move || eval_window_on(sim, point, lo, hi - lo, path)));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // eval_window_on catches panics inside the task; this arm
                // only fires for panics outside it (e.g. allocation
                // failures in the spawn glue) — still a typed error, never
                // an abort.
                Err(p) => Err(PdbError::WorkerPanic(panic_message(p))),
            })
            .collect()
    });
    let mut out = WorldBatch::empty(sim.columns().len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// Evaluate `sim` at `point` over worlds `[start, start+count)` using up to
/// `threads` OS threads (`0` = all available cores) on the **per-world
/// oracle path**. Returns `out[col][world_in_window]`, identical to the
/// sequential [`Simulation::eval_worlds`] for every thread budget.
pub fn eval_worlds(
    sim: &dyn Simulation,
    point: &[f64],
    start: usize,
    count: usize,
    threads: usize,
) -> Result<Vec<Vec<f64>>> {
    eval_batch_on(sim, point, start, count, threads, EvalPath::Oracle).map(WorldBatch::into_columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::exec::DirectEngine;
    use crate::expr::Expr;
    use crate::plan::Plan;
    use crate::sim::{BlackBoxSim, PlanSim};
    use jigsaw_blackbox::{FnBlackBox, ParamDecl, ParamSpace};
    use jigsaw_prng::SeedSet;
    use std::sync::Arc;

    fn sim() -> BlackBoxSim {
        BlackBoxSim::new(
            Arc::new(FnBlackBox::new("F", 1, |p: &[f64], s| p[0] + (s.0 as f64 / u64::MAX as f64))),
            ParamSpace::new(vec![ParamDecl::range("x", 0, 3, 1)]),
            SeedSet::new(21),
        )
    }

    fn plan_sim() -> PlanSim {
        let seeds = SeedSet::new(4);
        let mut cat = Catalog::new();
        cat.add_function(Arc::new(FnBlackBox::new("F", 1, |p: &[f64], s| {
            p[0] * 3.0 + (s.0 % 101) as f64
        })));
        let cat = Arc::new(cat);
        let plan = Plan::OneRow
            .project(vec![("out", Expr::call("F", vec![Expr::param("w")]))])
            .bind(&cat, &["w".to_string()])
            .unwrap();
        let space = ParamSpace::new(vec![ParamDecl::range("w", 0, 9, 1)]);
        PlanSim::new(Arc::new(DirectEngine::new()), plan, cat, space, seeds)
    }

    #[test]
    fn parallel_equals_sequential() {
        let s = sim();
        let seq = s.eval_worlds(&[1.0], 0, 103).unwrap();
        for threads in [2, 3, 8] {
            let par = eval_worlds(&s, &[1.0], 0, 103, threads).unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn plan_sim_parallel_equals_sequential() {
        // The DBMS path splits into per-window engine executions; world
        // seeds are addressed absolutely, so the split is invisible.
        let s = plan_sim();
        let seq = s.eval_worlds(&[2.0], 0, 37).unwrap();
        for threads in [2, 5, 16] {
            let par = eval_worlds(&s, &[2.0], 0, 37, threads).unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn batch_paths_agree_for_every_budget() {
        for s in [&sim() as &dyn Simulation, &plan_sim() as &dyn Simulation] {
            let oracle = eval_worlds(s, &[1.0], 3, 41, 1).unwrap();
            for threads in [1, 2, 7] {
                for path in [EvalPath::Columnar, EvalPath::Oracle] {
                    let batch = eval_batch_on(s, &[1.0], 3, 41, threads, path).unwrap();
                    assert_eq!(batch.n_worlds(), 41);
                    assert_eq!(batch.columns(), &oracle[..], "threads={threads} path={path:?}");
                }
            }
        }
    }

    #[test]
    fn offset_windows_compose() {
        let s = sim();
        let all = eval_worlds(&s, &[2.0], 0, 50, 4).unwrap();
        let head = eval_worlds(&s, &[2.0], 0, 20, 4).unwrap();
        let tail = eval_worlds(&s, &[2.0], 20, 30, 4).unwrap();
        let glued: Vec<f64> = head[0].iter().chain(tail[0].iter()).copied().collect();
        assert_eq!(all[0], glued);
    }

    #[test]
    fn zero_count_is_empty() {
        let s = sim();
        let out = eval_worlds(&s, &[0.0], 0, 0, 4).unwrap();
        assert!(out[0].is_empty());
        let batch = eval_batch_on(&s, &[0.0], 0, 0, 4, EvalPath::Columnar).unwrap();
        assert_eq!(batch.n_worlds(), 0);
        assert!(batch.column(0).is_empty());
    }

    #[test]
    fn count_below_thread_budget() {
        // count < threads: the budget clamps to the window, one world per
        // thread, and the stitched output still equals the serial path.
        let s = sim();
        let seq = s.eval_worlds(&[0.0], 5, 3).unwrap();
        let out = eval_worlds(&s, &[0.0], 5, 3, 16).unwrap();
        assert_eq!(out, seq);
        assert_eq!(out[0].len(), 3);
    }

    #[test]
    fn zero_thread_budget_means_sequential() {
        let s = sim();
        let seq = s.eval_worlds(&[3.0], 0, 17).unwrap();
        assert_eq!(eval_worlds(&s, &[3.0], 0, 17, 0).unwrap(), seq);
    }

    fn panicking_sim() -> BlackBoxSim {
        BlackBoxSim::new(
            Arc::new(FnBlackBox::new("Boom", 1, |_: &[f64], _| -> f64 {
                panic!("deliberate test panic")
            })),
            ParamSpace::new(vec![ParamDecl::range("x", 0, 3, 1)]),
            SeedSet::new(21),
        )
    }

    #[test]
    fn worker_panic_becomes_typed_error() {
        // A panicking simulation must surface as PdbError::WorkerPanic on
        // the sequential path, the scoped-thread path, and the batched
        // entry — never abort the process.
        let s = panicking_sim();
        for threads in [1, 4] {
            let err = eval_worlds(&s, &[0.0], 0, 8, threads).unwrap_err();
            assert!(
                matches!(&err, PdbError::WorkerPanic(m) if m.contains("deliberate test panic")),
                "threads={threads}: {err}"
            );
            let err = eval_batch_on(&s, &[0.0], 0, 8, threads, EvalPath::Columnar).unwrap_err();
            assert!(matches!(err, PdbError::WorkerPanic(_)), "threads={threads}");
        }
    }
}
