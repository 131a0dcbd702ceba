//! An allocation budget for the anytime refine step, counted rather than
//! timed, so it holds on any machine: a counting global allocator around
//! [`System`] tallies the allocation calls each
//! [`InteractiveSession::refine_once`] makes on the benchmark's
//! `serve_subscribe` scenario (a 160 × 50 `Demand` space) on `DbmsEngine`,
//! the engine the server runs.
//!
//! A second budget covers whole anytime streams
//! ([`InteractiveSession::estimate_bounded`], what `SUBSCRIBE` runs), whose
//! look-ahead windows evaluate many batches per model call.
//!
//! A third covers the server's read path: one request frame written,
//! read back and decoded, over an in-memory buffer.
//!
//! The rest pin exact counts on the black-box window path: a
//! `BlackBoxSim` window allocates its column and its batch and nothing per
//! chunk or per world (inside its seed table or past it), a bundle call
//! allocates only its output column, and mapping a basis's metrics
//! allocates no sample bytes at all. Two whole sweeps at `threads = 1`
//! pin the calls a reused point and a fresh point each cost.
//!
//! A refinement step evaluates one 10-world window and folds it into the
//! point's samples. A step served from a mapped basis allocates the
//! window's row, cell, output column and column list, plus an occasional
//! growth of the point's sample buffer; a step that folds its samples back
//! into the point's own basis allocates a few calls more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use jigsaw::blackbox::models::{Demand, SynthBasis};
use jigsaw::blackbox::{FnBlackBox, ParamDecl, ParamSpace};
use jigsaw::core::interactive::{InteractiveSession, SessionConfig};
use jigsaw::core::{AffineMap, JigsawConfig, SweepRunner};
use jigsaw::pdb::{
    BlackBoxSim, BundleRow, Catalog, DbmsEngine, ExecContext, Expr, OutputMetrics, Schema,
    Simulation,
};
use jigsaw::prng::dist::Normal;
use jigsaw::prng::{SeedSet, Xoshiro256pp};
use jigsaw::server::default_catalog;
use jigsaw::server::protocol::{read_frame, write_frame};
use jigsaw::server::Request;

/// [`System`], counting this thread's allocation calls (`alloc`,
/// `alloc_zeroed` and `realloc`; frees are not counted) and the bytes they
/// ask for (a `realloc` counts its new size).
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the thread-local may already be gone while a thread
    // exits, and an allocation then must not panic.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's guarantees for `layout` and `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Allocation calls and bytes `f` makes on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (c, b) = (calls(), bytes());
    let r = f();
    (r, calls() - c, bytes() - b)
}

/// World counts around the 64-seed chunk, and one window long enough to
/// reach past a `BlackBoxSim`'s seed table from a late start.
const WINDOWS: [usize; 4] = [10, 64, 65, 990];

#[test]
fn a_black_box_window_allocates_its_column_and_its_batch() {
    let space = ParamSpace::new(vec![ParamDecl::range("p", 0, 99, 1)]);
    let sim = BlackBoxSim::new(Arc::new(SynthBasis::new(7)), space, SeedSet::new(7));
    sim.eval_batch(&[3.0], 0, 1).expect("evaluates");
    for count in WINDOWS {
        // Inside the seed table, straddling its end, and wholly past it
        // (past it the seeds are derived per stack chunk).
        for start in [0, 500, 2000] {
            let (batch, n_calls, n_bytes) = counted(|| sim.eval_batch(&[3.0], start, count));
            assert_eq!(batch.expect("evaluates").n_worlds(), count);
            assert_eq!(n_calls, 2, "{count} worlds from {start}: the column and the column list");
            let want = 8 * count + std::mem::size_of::<Vec<f64>>();
            assert_eq!(n_bytes, want as u64, "{count} worlds from {start}");
        }
    }
}

#[test]
fn a_bundle_call_window_allocates_only_its_output_column() {
    // `Demand(@w, 5)`: every argument deterministic, so the window goes to
    // the model in stack chunks of seeds. One allocation call, the output
    // column, exactly as the per-world loop this replaced made.
    let mut cat = Catalog::new();
    cat.add_function(Arc::new(Demand::paper()));
    let call = Expr::call("Demand", vec![Expr::param("w"), Expr::lit_f(5.0)]);
    let call = call.bind(&Schema::new(vec![]), &["w".to_string()], &cat, &mut 0).expect("binds");
    let row = BundleRow::det(vec![]);
    for count in WINDOWS {
        let ctx = ExecContext::new(SeedSet::new(7), &[12.0], count).with_worlds(40, count);
        let (cell, n_calls, n_bytes) = counted(|| call.eval_bundle(&row, &ctx));
        assert!(cell.expect("evaluates").is_stoch());
        assert_eq!((n_calls, n_bytes), (1, 8 * count as u64), "{count} worlds");
    }
}

#[test]
fn mapping_a_basis_allocates_no_sample_bytes() {
    // A mapped result shares its basis's sample buffer: `apply_metrics`
    // (and the `affine_image` under it) allocate nothing, at any n.
    let map = AffineMap { alpha: 1.5, beta: -2.0 };
    for n in [10usize, 1000, 10_000] {
        let basis = OutputMetrics::from_samples((0..n).map(|i| i as f64).collect());
        let (mapped, n_calls, n_bytes) = counted(|| map.apply_metrics(&basis));
        assert!(mapped.shares_samples_with(&basis));
        assert_eq!((n_calls, n_bytes), (0, 0), "n={n}");
        let (_, n_calls, n_bytes) = counted(|| basis.affine_image(0.5, 1.0));
        assert_eq!((n_calls, n_bytes), (0, 0), "n={n}");
    }
}

const SERVE_SUBSCRIBE: &str = "DECLARE PARAMETER @week AS RANGE 0 TO 159 STEP BY 1; \
     DECLARE PARAMETER @feature AS RANGE 0 TO 49 STEP BY 1; \
     SELECT Demand(@week, @feature) AS demand INTO results;";

/// Points probed, and refinement steps taken at each after first contact.
const POINTS: usize = 40;
const STEPS: usize = 30;

/// Allocation calls over all `POINTS × STEPS` steps, as measured: a mean
/// of 4.33 a step. Before the served engine's per-call trims the same
/// steps made 15_994 calls, 13.33 a step.
const BUDGET: u64 = 5_194;

#[test]
fn refine_steps_stay_within_their_allocation_budget() {
    let catalog = Arc::new(default_catalog());
    let scenario = jigsaw::sql::compile(SERVE_SUBSCRIBE, &catalog).expect("compiles");
    let sim: Arc<dyn Simulation> = Arc::new(scenario.simulation(
        Arc::new(DbmsEngine::new()),
        Arc::clone(&catalog),
        SeedSet::new(7),
    ));
    let cfg = SessionConfig::from_jigsaw(&JigsawConfig::paper());
    let mut session = InteractiveSession::new(sim, cfg);
    let space = scenario.space.len();
    let mut total = 0;
    for i in 0..POINTS {
        let point = i * 199 % space;
        session.refine_once(point, 0).expect("first contact");
        for _ in 0..STEPS {
            let before = calls();
            session.refine_once(point, 0).expect("refines");
            total += calls() - before;
        }
    }
    let steps = (POINTS * STEPS) as f64;
    assert!(
        total <= BUDGET,
        "{total} allocation calls over {steps} refine steps ({:.2} a step) exceed the budget of {BUDGET}",
        total as f64 / steps
    );
}

/// Streams run to exhaustion: an eps no `Demand` point reaches, so every
/// stream folds all `n_target` worlds of its point.
const STREAMS: usize = 20;
const NEVER: f64 = 1e-9;

/// Allocation calls over all `STREAMS` exhausted `estimate_bounded`
/// streams (tier 0 included), as measured: 46 a stream. Folding one
/// 10-world batch per window and lock acquisition, the same streams made
/// 8_263 calls, 413 a stream.
const STREAM_BUDGET: u64 = 923;

#[test]
fn exhausted_streams_stay_within_their_allocation_budget() {
    let catalog = Arc::new(default_catalog());
    let scenario = jigsaw::sql::compile(SERVE_SUBSCRIBE, &catalog).expect("compiles");
    let sim: Arc<dyn Simulation> = Arc::new(scenario.simulation(
        Arc::new(DbmsEngine::new()),
        Arc::clone(&catalog),
        SeedSet::new(7),
    ));
    let cfg = SessionConfig::from_jigsaw(&JigsawConfig::paper());
    let mut session = InteractiveSession::new(sim, cfg);
    let space = scenario.space.len();
    // One untimed stream first: lazily registered instruments allocate
    // on whichever thread first reaches them.
    session.estimate_bounded(space - 1, 0, NEVER, |_| true).expect("streams");
    let mut total = 0;
    for i in 0..STREAMS {
        // Week ≥ 1: week 0's demand has no variance and converges at once.
        let point = (50 + i * 199) % space;
        let before = calls();
        let bounded = session.estimate_bounded(point, 0, NEVER, |_| true).expect("streams");
        total += calls() - before;
        assert!(!bounded.converged);
        assert_eq!(bounded.estimate.n_samples, cfg.n_target, "stream {i} ran to exhaustion");
    }
    assert!(
        total <= STREAM_BUDGET,
        "{total} allocation calls over {STREAMS} exhausted streams ({:.1} a stream) exceed the budget of {STREAM_BUDGET}",
        total as f64 / STREAMS as f64
    );
}

/// Round trips per request kind in the frame budget below.
const TRIPS: usize = 1000;

/// Allocation calls over `TRIPS` round trips of each of an `ESTIMATE`, the
/// request `serve_warm` sends, and a `COMPILE`, the one request with a
/// body, as measured: 3 a round trip for each — the frame `write_frame`
/// assembles and the payload `read_frame` reads into, then the argument
/// list `Request::decode` splits off an `ESTIMATE`, or the script a
/// `COMPILE` owns (its empty argument list allocates nothing).
const FRAME_BUDGET: u64 = 3 * 2 * TRIPS as u64;

#[test]
fn a_frame_round_trip_stays_within_its_allocation_budget() {
    let requests = [
        Request::Estimate { point: 417, col: 0 },
        Request::Compile { src: SERVE_SUBSCRIBE.into() },
    ];
    let payloads: Vec<String> = requests.iter().map(Request::encode).collect();
    // Room for the largest frame, so the buffer never grows while counted.
    let mut wire: Vec<u8> = Vec::with_capacity(4 + SERVE_SUBSCRIBE.len() + 64);
    let mut total = 0;
    for (req, payload) in requests.iter().zip(&payloads) {
        for _ in 0..TRIPS {
            wire.clear();
            let before = calls();
            write_frame(&mut wire, payload).expect("writes");
            let read = read_frame(&mut wire.as_slice()).expect("reads").expect("a frame");
            let decoded = Request::decode(&read).expect("decodes");
            total += calls() - before;
            assert_eq!(&decoded, req);
        }
    }
    assert!(
        total <= FRAME_BUDGET,
        "{total} allocation calls over {} frame round trips exceed the budget of {FRAME_BUDGET}",
        2 * TRIPS
    );
}

/// Allocation calls of one whole sweep of `sim` at `threads = 1`, runner,
/// pool and stores included. A first, uncounted sweep does the process's
/// one-time set-up (metric series and the like), which would otherwise
/// land in whichever test reached it first.
fn sweep_calls(sim: &BlackBoxSim) -> u64 {
    let cfg = Arc::new(JigsawConfig::paper().with_threads(1));
    SweepRunner::new(cfg.clone()).run(sim).expect("sweeps");
    let (result, n_calls, _) = counted(|| SweepRunner::new(cfg).run(sim).expect("sweeps"));
    assert_eq!(result.stats.full_simulations + result.stats.reused, result.stats.points);
    n_calls
}

fn range(points: usize) -> ParamSpace {
    ParamSpace::new(vec![ParamDecl::range("p", 0, points as i64 - 1, 1)])
}

#[test]
fn a_reused_point_costs_eight_allocation_calls() {
    // `SynthBasis(5)`: five points become bases, every other point maps
    // onto one, so doubling the points adds only reused points.
    let reuse = |points| {
        let sim = BlackBoxSim::new(Arc::new(SynthBasis::new(5)), range(points), SeedSet::new(7));
        sweep_calls(&sim)
    };
    let (small, large) = (reuse(50), reuse(100));
    assert_eq!(small, 468, "50 points, 45 of them reused");
    assert_eq!(large - small, 8 * 50, "8 calls per reused point");
}

#[test]
fn a_fresh_point_costs_fifteen_allocation_calls() {
    // E12's reuse-hostile `z + (p+1)·z³ + p/N`: no two points are affine
    // images, so every point is a full simulation and a new basis.
    let hostile = |points: usize| {
        let n = points as f64;
        let ramp = FnBlackBox::new("Ramp", 1, move |p: &[f64], seed| {
            let z = Normal::standard(&mut Xoshiro256pp::seeded(seed));
            z + (p[0] + 1.0) * z * z * z + p[0] / n
        });
        sweep_calls(&BlackBoxSim::new(Arc::new(ramp), range(points), SeedSet::new(7)))
    };
    let (small, large) = (hostile(40), hostile(80));
    assert_eq!(small, 640, "40 points, none reused");
    assert_eq!(large - small, 15 * 40, "15 calls per fresh point");
}
