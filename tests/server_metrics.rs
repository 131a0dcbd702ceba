//! Acceptance for the protocol-v3 `METRICS` surface (ISSUE 10): after a
//! warm two-sweep session, a `METRICS` scrape returns valid Prometheus
//! text whose counters line up with the traffic that produced it — every
//! per-verb latency histogram's `_count` equals its request counter, the
//! sweep warm-hit counters are non-zero, and session warm hits never
//! exceed touches. A v2 client asking for `METRICS` draws a typed
//! `ERR unsupported` and keeps its connection; re-negotiating to v3 on the
//! same connection unlocks the verb. The per-verb equality also holds in a
//! scrape taken *while* a `SWEEP` is in flight on another connection: a
//! verb enters both series together, when its response is ready.
//!
//! The servers here run in-process, so the scrape sees this process's
//! global registry. Tests serialize on one lock: metrics are process-wide
//! and the per-verb equality invariant is only exact while no other
//! connection is mid-request.

mod support;

use std::sync::Mutex;

use support::{gated_catalog, series, Gate, GATED_SRC};

use jigsaw::server::{
    Client, ErrorCode, JigsawServer, Request, Response, ServerHandle, PROTOCOL_VERSION,
};

const SRC: &str = "DECLARE PARAMETER @week AS RANGE 0 TO 29 STEP BY 1; \
     DECLARE PARAMETER @feature AS SET (5, 12); \
     SELECT Demand(@week, @feature) AS demand INTO results;";

/// One lock for every test in this binary (see module docs).
fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn serve() -> ServerHandle {
    JigsawServer::builder()
        .config(jigsaw::core::JigsawConfig::paper().with_n_samples(60))
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .serve()
        .expect("start server")
}

/// Scrape the server through `client`, asserting the response shape.
fn scrape(client: &mut Client) -> String {
    match client.request(&Request::Metrics).expect("METRICS answers") {
        Response::Metrics { text } => text,
        other => panic!("expected a METRICS payload, got {other:?}"),
    }
}

/// Per-verb invariant: the latency histogram and the request counter move
/// together, so `_count` equals the counter for every verb seen. (The
/// scrape itself snapshots *before* its own METRICS bump lands.) Returns
/// how many verbs the scrape carried.
fn assert_per_verb_counts_agree(text: &str) -> usize {
    let mut verbs_seen = 0;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("jigsaw_requests_total{verb=\"") else { continue };
        let verb = rest.split('"').next().expect("closing quote");
        let requests = series(text, &format!("jigsaw_requests_total{{verb=\"{verb}\"}}"))
            .expect("counter parses");
        let lat_count = series(text, &format!("jigsaw_request_us_count{{verb=\"{verb}\"}}"))
            .unwrap_or_else(|| panic!("no latency histogram for {verb}"));
        assert_eq!(requests, lat_count, "count invariant for {verb}");
        let lat_inf =
            series(text, &format!("jigsaw_request_us_bucket{{verb=\"{verb}\",le=\"+Inf\"}}"))
                .unwrap_or_else(|| panic!("no +Inf bucket for {verb}"));
        assert_eq!(lat_inf, lat_count, "+Inf bucket covers everything for {verb}");
        verbs_seen += 1;
    }
    verbs_seen
}

#[test]
fn warm_session_scrape_reports_consistent_counters() {
    let _g = guard();
    let handle = serve();
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    assert_eq!(c.negotiated_version(), PROTOCOL_VERSION);

    // METRICS needs no COMPILE: it is process-scoped, not session-scoped.
    // Counters are process-global and other tests in this binary may have
    // run first, so exact-count assertions below use deltas from this
    // baseline scrape.
    let cold = scrape(&mut c);
    assert!(cold.contains("# TYPE jigsaw_requests_total counter"), "{cold}");
    let baseline = |s: &str| series(&cold, s).unwrap_or(0);
    let est_before = baseline("jigsaw_requests_total{verb=\"ESTIMATE\"}");
    let sweep_points_before = baseline("jigsaw_sweep_points_total");
    let sweep_warm_before = baseline("jigsaw_sweep_warm_hits_total");

    // A warm session: cold sweep, warm sweep, a few estimates.
    match c.request(&Request::Compile { src: SRC.into() }).expect("compile") {
        Response::Compiled { points, .. } => assert_eq!(points, 60),
        other => panic!("unexpected {other:?}"),
    }
    for expect_warm in [false, true] {
        match c.request(&Request::Sweep).expect("sweep") {
            Response::Swept { warm_hits, .. } => {
                assert_eq!(warm_hits > 0, expect_warm);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let n_estimates = 5;
    for point in 0..n_estimates {
        match c.request(&Request::Estimate { point, col: 0 }).expect("estimate") {
            Response::Estimated { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    let text = scrape(&mut c);

    // Exposition shape: every line is a `# TYPE` comment or
    // `name{labels} <integer>` (all instruments here are integral).
    for line in text.lines() {
        if line.starts_with("# TYPE ") {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        value.parse::<i128>().unwrap_or_else(|_| panic!("non-numeric sample: {line}"));
    }

    let verbs_seen = assert_per_verb_counts_agree(&text);
    assert!(verbs_seen >= 4, "HELLO, METRICS, COMPILE, SWEEP, ESTIMATE all ran");
    assert_eq!(
        series(&text, "jigsaw_requests_total{verb=\"ESTIMATE\"}"),
        Some(est_before + n_estimates as i128),
        "exactly the estimates this test issued"
    );

    // Sweep counters: two sweeps of 60 points, the second one warm.
    let sweep_points = series(&text, "jigsaw_sweep_points_total").expect("points counter");
    assert_eq!(sweep_points - sweep_points_before, 120);
    let sweep_warm = series(&text, "jigsaw_sweep_warm_hits_total").expect("warm counter");
    assert!(sweep_warm > sweep_warm_before, "second sweep rode the first one's bases");
    assert!(sweep_warm <= sweep_points, "warm hits cannot exceed swept points");

    // Session telemetry: warm hits never exceed touches, and the estimates
    // above all rode sweep-built bases.
    let touches = series(&text, "jigsaw_session_touches_total").expect("touch counter");
    let warm = series(&text, "jigsaw_session_warm_hits_total").expect("warm counter");
    assert!(warm > 0, "estimates after a sweep are warm");
    assert!(warm <= touches, "a warm hit is a kind of touch");

    // Executor instruments fired during the sweeps.
    assert!(series(&text, "jigsaw_exec_waves_total").expect("wave counter") > 0);
    assert!(
        series(&text, "jigsaw_exec_phase_us_count{phase=\"fingerprint\"}").expect("phase hist") > 0
    );

    assert_eq!(c.request(&Request::Quit).expect("quit"), Response::Bye);
    handle.shutdown().expect("shutdown");
}

/// A scrape taken while a `SWEEP` is held mid-run on its connection's
/// thread: the sweep is in neither per-verb series yet (both move when its
/// response is ready), both connections count as live, and once the sweep
/// is released it lands in both series at once.
#[test]
fn scrape_during_a_sweep_in_flight_keeps_the_count_invariant() {
    let _g = guard();
    let gate = Gate::new_open();
    let handle = JigsawServer::builder()
        .config(jigsaw::core::JigsawConfig::paper().with_n_samples(60))
        .catalog(gated_catalog(&gate))
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .serve()
        .expect("start server");
    let mut sweeper = Client::connect(handle.local_addr()).expect("connect");
    let mut scraper = Client::connect(handle.local_addr()).expect("connect");
    match sweeper.request(&Request::Compile { src: GATED_SRC.into() }).expect("compile") {
        Response::Compiled { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    let sweeps = |text: &str| series(text, "jigsaw_requests_total{verb=\"SWEEP\"}").unwrap_or(0);
    let sweeps_before = sweeps(&scrape(&mut scraper));

    gate.shut();
    std::thread::scope(|scope| {
        let sweeping = scope.spawn(|| sweeper.request(&Request::Sweep).expect("sweep answers"));
        gate.wait_until_held();
        let during = scrape(&mut scraper);
        assert!(assert_per_verb_counts_agree(&during) >= 3, "HELLO, COMPILE, METRICS at least");
        assert_eq!(sweeps(&during), sweeps_before, "a sweep in flight is not yet counted");
        assert!(series(&during, "jigsaw_conns_live").expect("live gauge") >= 2, "{during}");
        assert!(series(&during, "jigsaw_accepts_total").expect("accept counter") >= 2);
        gate.open();
        assert!(matches!(sweeping.join().expect("sweeper"), Response::Swept { .. }));
    });
    let after = scrape(&mut scraper);
    assert_per_verb_counts_agree(&after);
    assert_eq!(sweeps(&after), sweeps_before + 1);
    handle.shutdown().expect("shutdown");
}

#[test]
fn metrics_is_version_gated_and_renegotiable() {
    let _g = guard();
    let handle = serve();
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    // Drop back to v2 on the same connection (HELLO is stateless).
    match c.request(&Request::Hello { version: 2 }).expect("renegotiate down") {
        Response::Welcome { version } => assert_eq!(version, 2),
        other => panic!("unexpected {other:?}"),
    }
    match c.request(&Request::Metrics).expect("v2 METRICS answers") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Unsupported);
            assert!(message.contains("version 3"), "{message}");
        }
        other => panic!("v2 METRICS must be refused, got {other:?}"),
    }
    // The connection survived the refusal; renegotiating to v3 unlocks it.
    match c.request(&Request::Hello { version: PROTOCOL_VERSION }).expect("renegotiate up") {
        Response::Welcome { version } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("unexpected {other:?}"),
    }
    let text = scrape(&mut c);
    assert!(text.contains("jigsaw_requests_total{verb=\"METRICS\"}"), "{text}");
    assert_eq!(c.request(&Request::Quit).expect("quit"), Response::Bye);
    handle.shutdown().expect("shutdown");
}

/// Tracing fully on (ring-only, so the test log stays readable) must not
/// change a transcript: the observability layer is observational by
/// contract. The CI twin-run diff enforces the same property end to end
/// with `JIGSAW_TRACE=1` on the real binaries.
#[test]
fn transcripts_are_identical_with_tracing_enabled() {
    let _g = guard();
    let script = "COMPILE DECLARE PARAMETER @week AS RANGE 0 TO 9 STEP BY 1; \
         SELECT Demand(@week, 5) AS demand INTO results;\nSWEEP\nESTIMATE 3 0\nSTATS\nQUIT";
    let run = || {
        let handle = serve();
        let transcript =
            jigsaw::server::client::run_script(handle.local_addr(), script).expect("scripted run");
        handle.shutdown().expect("shutdown");
        transcript
    };
    let quiet = run();
    jigsaw::obs::set_trace_ring_only(true);
    let traced = run();
    jigsaw::obs::set_trace(false);
    assert!(!jigsaw::obs::recent_spans().is_empty(), "spans were recorded");
    assert_eq!(quiet, traced, "tracing must never perturb the wire transcript");
}
