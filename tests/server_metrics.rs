//! Acceptance for the `METRICS` surface: after a warm two-sweep session, a
//! `METRICS` scrape returns valid Prometheus text whose counters line up
//! with the traffic that produced it — every per-verb latency histogram's
//! `_count` equals its request counter, the sweep warm-hit counters are
//! non-zero, and session warm hits never exceed touches. A client that
//! never says `HELLO` is served `METRICS` (and `SUBSCRIBE`) all the same; a
//! `HELLO` of another protocol version draws a typed `ERR unsupported` and
//! keeps its connection. The per-verb equality also holds in a scrape taken
//! *while* a `SWEEP` is in flight on another connection: a verb enters both
//! series together, when its response is ready.
//!
//! The servers here run in-process, so the scrape sees this process's
//! global registry. Tests serialize on one lock: metrics are process-wide
//! and the per-verb equality invariant is only exact while no other
//! connection is mid-request.

mod support;

use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;

use support::{gated_catalog, series, Gate, GATED_SRC};

use jigsaw::server::protocol::{read_frame, recv_response, send_request, write_frame};
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

/// `jigsaw_conn_waits_total`, both ways a wait can end.
fn frame_waits(text: &str) -> i128 {
    ["spun", "parked"]
        .iter()
        .map(|how| {
            series(text, &format!("jigsaw_conn_waits_total{{how=\"{how}\"}}"))
                .unwrap_or_else(|| panic!("no {how} wait series"))
        })
        .sum()
}

/// Frames decoded into a request of any verb, or answered malformed.
fn frames_decoded(text: &str) -> i128 {
    let requests: i128 = text
        .lines()
        .filter(|line| line.starts_with("jigsaw_requests_total{"))
        .map(|line| line.rsplit_once(' ').expect("a value").1.parse::<i128>().expect("a count"))
        .sum();
    requests + series(text, "jigsaw_requests_malformed_total").expect("malformed counter")
}

#[test]
fn warm_session_scrape_reports_consistent_counters() {
    let _g = guard();
    let handle = serve();
    // `connect` succeeds only if the server welcomes this protocol version.
    let mut c = Client::connect(handle.local_addr()).expect("connect");

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

    // Every frame this test sent between the two scrapes was waited for
    // once — spun or parked — and decoded into a counted request.
    let (waits, frames) = (frame_waits(&text), frames_decoded(&text));
    assert_eq!(waits - frame_waits(&cold), frames - frames_decoded(&cold), "{text}");

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

/// One request over a bare socket, answered by one frame.
fn ask(stream: &mut TcpStream, req: &Request) -> Response {
    send_request(stream, req).expect("send");
    recv_response(stream).expect("framed reply").expect("reply before EOF")
}

/// A client that never says `HELLO` is served every verb: `SUBSCRIBE`
/// streams and `METRICS` answers its body.
#[test]
fn a_client_without_hello_gets_every_verb() {
    let _g = guard();
    let handle = serve();
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    assert!(matches!(
        ask(&mut stream, &Request::Compile { src: SRC.into() }),
        Response::Compiled { .. }
    ));
    send_request(&mut stream, &Request::Subscribe { point: 9, col: 0, eps_bits: 0.5f64.to_bits() })
        .expect("send");
    let mut intervals = 0;
    loop {
        match recv_response(&mut stream).expect("framed reply").expect("reply before EOF") {
            Response::Interval { .. } => intervals += 1,
            Response::Estimated { point: 9, col: 0, .. } => break,
            other => panic!("unexpected stream frame {other:?}"),
        }
    }
    assert!(intervals >= 1, "the tier-0 bound is streamed first");
    match ask(&mut stream, &Request::Metrics) {
        Response::Metrics { text } => {
            let subscribes = series(&text, "jigsaw_requests_total{verb=\"SUBSCRIBE\"}");
            assert!(subscribes >= Some(1), "{text}");
        }
        other => panic!("expected a METRICS payload, got {other:?}"),
    }
    handle.shutdown().expect("shutdown");
}

/// `HELLO` with any version but this server's is refused, naming both
/// versions, and the connection keeps serving.
#[test]
fn hello_with_another_version_is_refused_and_the_connection_keeps_serving() {
    let _g = guard();
    let handle = serve();
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    assert!(matches!(
        ask(&mut stream, &Request::Compile { src: SRC.into() }),
        Response::Compiled { .. }
    ));
    for version in [1, PROTOCOL_VERSION + 1] {
        match ask(&mut stream, &Request::Hello { version }) {
            Response::Error { code: ErrorCode::Unsupported, message } => {
                assert!(message.contains(&format!("version {version}")), "{message}");
                assert!(message.contains(&format!("version {PROTOCOL_VERSION}")), "{message}");
            }
            other => panic!("HELLO {version} must be refused, got {other:?}"),
        }
        let served = ask(&mut stream, &Request::Estimate { point: 3, col: 0 });
        assert!(matches!(served, Response::Estimated { point: 3, .. }), "{served:?}");
    }
    assert_eq!(
        ask(&mut stream, &Request::Hello { version: PROTOCOL_VERSION }),
        Response::Welcome { version: PROTOCOL_VERSION }
    );
    handle.shutdown().expect("shutdown");
}

/// [`Client::connect`] is the client's half of the check: a server that
/// welcomes another version is an `InvalidData` error, not a client.
#[test]
fn connect_refuses_a_server_of_another_version() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("accept");
        read_frame(&mut peer).expect("HELLO frame");
        write_frame(&mut peer, &Response::Welcome { version: PROTOCOL_VERSION - 1 }.encode())
            .expect("reply");
    });
    match Client::connect(addr) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
        Ok(_) => panic!("connect accepted WELCOME {}", PROTOCOL_VERSION - 1),
    }
    server.join().expect("fake server");
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
