//! Acceptance for anytime estimates over the wire (ISSUE 9): a `SUBSCRIBE`
//! stream's intervals tighten monotonically, always bracket the converged
//! expectation, and the closing `EST` is **bit-identical** across thread
//! budgets 1 and 4 — and equal to the blocking `ESTIMATE` of the same
//! refined state.

use jigsaw::server::{Client, JigsawServer, Request, Response, ServerHandle};

/// The scenario every configuration compiles (40 points, one column).
const SRC: &str = "DECLARE PARAMETER @week AS RANGE 0 TO 19 STEP BY 1; \
     DECLARE PARAMETER @feature AS SET (5, 12); \
     SELECT Demand(@week, @feature) AS demand INTO results;";

const MASTER_SEED: u64 = 7_171;

/// The probe and width every subscription uses: cold (no sweep), so the
/// stream genuinely refines instead of being served at tier 0.
const POINT: usize = 9;
const EPS: f64 = 0.2;

fn serve(threads: usize) -> ServerHandle {
    JigsawServer::builder()
        .config(jigsaw::core::JigsawConfig::paper().with_n_samples(400).with_threads(threads))
        .master_seed(MASTER_SEED)
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .serve()
        .expect("start server")
}

fn compile(client: &mut Client) {
    match client.request(&Request::Compile { src: SRC.into() }).expect("compile") {
        Response::Compiled { points, .. } => assert_eq!(points, 40),
        other => panic!("unexpected compile reply {other:?}"),
    }
}

/// Run one cold `SUBSCRIBE POINT 0 EPS` under the given configuration and
/// return the full frame stream plus the blocking re-estimate that
/// follows it.
fn subscribe_run(threads: usize) -> (Vec<Response>, Response) {
    let handle = serve(threads);
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    compile(&mut c);
    let frames = c.subscribe(POINT, 0, EPS).expect("subscribe stream");
    let blocking = c.request(&Request::Estimate { point: POINT, col: 0 }).expect("re-estimate");
    assert_eq!(c.request(&Request::Quit).expect("quit"), Response::Bye);
    handle.shutdown().expect("shutdown");
    (frames, blocking)
}

/// Decode an interval-bearing frame into `(n, lo, hi)`.
fn interval_of(resp: &Response) -> (usize, f64, f64) {
    match *resp {
        Response::Interval { n_samples, lo_bits, hi_bits, point, col } => {
            assert_eq!((point, col), (POINT, 0));
            (n_samples, f64::from_bits(lo_bits), f64::from_bits(hi_bits))
        }
        Response::Estimated { n_samples, lo_bits, hi_bits, point, col, .. } => {
            assert_eq!((point, col), (POINT, 0));
            (n_samples, f64::from_bits(lo_bits), f64::from_bits(hi_bits))
        }
        ref other => panic!("expected INTERVAL or EST, got {other:?}"),
    }
}

/// One stream, inspected in depth: the interval sequence never widens on
/// either side, every interval brackets the converged expectation, and the
/// closing `EST` both satisfies `eps` and matches the blocking `ESTIMATE`
/// issued after the stream.
#[test]
fn subscribe_intervals_tighten_and_bracket_the_converged_expectation() {
    let (frames, blocking) = subscribe_run(1);
    assert!(frames.len() >= 3, "a cold stream must refine, got {} frames", frames.len());
    let (closing, intervals) = frames.split_last().expect("nonempty");
    let expectation = match *closing {
        Response::Estimated { expectation_bits, .. } => f64::from_bits(expectation_bits),
        ref other => panic!("stream must close with EST, got {other:?}"),
    };
    let (n_final, lo_final, hi_final) = interval_of(closing);
    assert!(hi_final - lo_final <= EPS, "closing width {} > eps", hi_final - lo_final);

    let mut prev: Option<(usize, f64, f64)> = None;
    for frame in intervals {
        assert!(matches!(frame, Response::Interval { .. }), "mid-stream frame {frame:?}");
        let (n, lo, hi) = interval_of(frame);
        assert!(lo <= expectation && expectation <= hi, "[{lo}, {hi}] drops {expectation}");
        if let Some((pn, plo, phi)) = prev {
            assert!(n > pn, "sample mass must grow monotonically ({pn} -> {n})");
            assert!(lo >= plo, "lower bound widened: {plo} -> {lo}");
            assert!(hi <= phi, "upper bound widened: {phi} -> {hi}");
        }
        prev = Some((n, lo, hi));
    }
    let (_, last_lo, last_hi) = prev.expect("at least one INTERVAL before EST");
    assert!(lo_final >= last_lo && hi_final <= last_hi, "closing EST widened the bound");
    assert!(n_final > 0);
    assert_eq!(&blocking, closing, "blocking ESTIMATE must reproduce the closing EST bits");
}

/// The determinism contract across thread budgets 1 and 4: two servers,
/// two cold streams, one byte-identical frame sequence.
#[test]
fn subscribe_streams_bit_identical_across_threads() {
    let (reference, blocking) = subscribe_run(1);
    assert_eq!(blocking, *reference.last().expect("closing EST"));
    let (frames, blocking) = subscribe_run(4);
    assert_eq!(frames, reference, "4 threads diverged from 1");
    assert_eq!(blocking, *frames.last().expect("closing EST"));
}

/// Out-of-range and pre-compile `SUBSCRIBE`s answer `ERR` without opening
/// a stream, and the connection keeps serving — including a real stream
/// right after the rejections.
#[test]
fn rejected_subscribes_leave_the_connection_streaming() {
    let handle = serve(1);
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    // Before COMPILE: state error, exactly one frame.
    let frames = c.subscribe(POINT, 0, EPS).expect("pre-compile subscribe");
    assert!(
        matches!(frames.as_slice(), [Response::Error { code, .. }]
            if *code == jigsaw::server::ErrorCode::State),
        "unexpected {frames:?}"
    );
    compile(&mut c);
    // Out-of-range point and column: state errors, still one frame each.
    for (point, col) in [(999, 0), (POINT, 7)] {
        let frames = c.subscribe(point, col, EPS).expect("oob subscribe");
        assert!(
            matches!(frames.as_slice(), [Response::Error { code, .. }]
                if *code == jigsaw::server::ErrorCode::State),
            "unexpected {frames:?}"
        );
    }
    // The same connection then streams a full refinement to convergence.
    let frames = c.subscribe(POINT, 0, EPS).expect("real subscribe");
    assert!(frames.len() >= 3, "expected a refining stream, got {frames:?}");
    assert!(matches!(frames.last(), Some(Response::Estimated { .. })));
    assert_eq!(c.request(&Request::Quit).expect("quit"), Response::Bye);
    handle.shutdown().expect("shutdown");
}
