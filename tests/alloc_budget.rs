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
//! A refinement step evaluates one 10-world window and folds it into the
//! point's samples. A step served from a mapped basis allocates the
//! window's row, cell, output column and column list, plus an occasional
//! growth of the point's sample buffer; a step that folds its samples back
//! into the point's own basis allocates a few calls more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use jigsaw::core::interactive::{InteractiveSession, SessionConfig};
use jigsaw::core::JigsawConfig;
use jigsaw::pdb::{DbmsEngine, Simulation};
use jigsaw::prng::SeedSet;
use jigsaw::server::default_catalog;
use jigsaw::server::protocol::{read_frame, write_frame};
use jigsaw::server::Request;

/// [`System`], counting this thread's allocation calls (`alloc`,
/// `alloc_zeroed` and `realloc`; frees are not counted).
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the thread-local may already be gone while a thread
    // exits, and an allocation then must not panic.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
