//! Acceptance for the session server (ISSUE 5): two concurrent clients
//! attached to one shared warm store over loopback produce estimates
//! **bit-identical** to a single local [`InteractiveSession`] over the same
//! scenario, and the second client's sweep rides the first client's Monte
//! Carlo work (`warm_hits > 0`) — at thread budgets 1 and 4. The server
//! sweeps on its [`PersistentPool`]; the local reference sweeps on a
//! [`ScopedPool`], so every check also pins the two pools bit-identical.
//!
//! [`PersistentPool`]: jigsaw::core::PersistentPool

use std::sync::Arc;

use jigsaw::core::interactive::{Estimate, InteractiveSession, SessionConfig};
use jigsaw::core::{AffineFamily, JigsawConfig, ScopedPool, ShardedBasisStore, SweepRunner};
use jigsaw::pdb::DirectEngine;
use jigsaw::prng::SeedSet;
use jigsaw::server::{Client, JigsawServer, Request, Response, ServerHandle};

/// The scenario both clients compile (60 points, one output column).
const SRC: &str = "DECLARE PARAMETER @week AS RANGE 0 TO 29 STEP BY 1; \
     DECLARE PARAMETER @feature AS SET (5, 12); \
     SELECT Demand(@week, @feature) AS demand INTO results;";

const MASTER_SEED: u64 = 2024;

fn jigsaw_cfg(threads: usize) -> JigsawConfig {
    JigsawConfig::paper().with_n_samples(120).with_threads(threads)
}

/// A served test server over `jigsaw_cfg(threads)`.
fn serve(threads: usize) -> ServerHandle {
    JigsawServer::builder()
        .config(jigsaw_cfg(threads))
        .master_seed(MASTER_SEED)
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .serve()
        .expect("start server")
}

/// The probe points every party estimates, in order.
fn probes() -> Vec<usize> {
    vec![0, 9, 17, 30, 42, 59]
}

/// The reference: a purely local warm session over the same scenario —
/// same catalog, seeds, config, and operation sequence as each client —
/// whose sweep runs on the [`ScopedPool`] reference.
struct LocalReference {
    estimates: Vec<Estimate>,
    post_tick: Estimate,
    worlds_after_ticks: u64,
}

fn local_reference(threads: usize) -> LocalReference {
    let catalog = Arc::new(jigsaw::server::default_catalog());
    let scenario = jigsaw::sql::compile(SRC, &catalog).expect("scenario compiles locally");
    let sim = Arc::new(scenario.simulation(
        Arc::new(DirectEngine::new()),
        Arc::clone(&catalog),
        SeedSet::new(MASTER_SEED),
    ));
    let cfg = jigsaw_cfg(threads);
    let mut store = ShardedBasisStore::new(scenario.columns.len(), &cfg, Arc::new(AffineFamily));
    let sweep = SweepRunner::new(cfg.clone())
        .pool(Arc::new(ScopedPool))
        .store(&mut store)
        .run(&*sim)
        .expect("local sweep");
    assert_eq!(sweep.stats.points, 60);
    let mut session =
        InteractiveSession::with_store(sim.clone(), SessionConfig::from_jigsaw(&cfg), store);
    let estimates =
        probes().iter().map(|&p| session.estimate_now(p, 0).expect("local estimate")).collect();
    session.set_focus(probes()[0]);
    for _ in 0..4 {
        session.tick().expect("local tick");
    }
    let post_tick = session.estimate_now(probes()[0], 0).expect("local post-tick estimate");
    LocalReference { estimates, post_tick, worlds_after_ticks: session.worlds_evaluated }
}

fn expect_est(resp: Response) -> (usize, usize, u64, u64) {
    match resp {
        Response::Estimated { n_samples, expectation_bits, std_dev_bits, point, col, .. } => {
            assert_eq!(col, 0);
            (n_samples, point, expectation_bits, std_dev_bits)
        }
        other => panic!("expected an estimate, got {other:?}"),
    }
}

fn assert_matches_reference(client: &str, p: usize, resp: Response, local: &Estimate) {
    let (n_samples, point, exp_bits, sd_bits) = expect_est(resp);
    assert_eq!(point, p, "{client}");
    assert_eq!(
        exp_bits,
        local.expectation.to_bits(),
        "{client}: expectation at point {p} diverged from the local session"
    );
    assert_eq!(
        sd_bits,
        local.std_dev.to_bits(),
        "{client}: std-dev at point {p} diverged from the local session"
    );
    assert_eq!(n_samples, local.n_samples, "{client}: sample mass at point {p}");
}

fn compile(client: &mut Client, who: &str) {
    match client.request(&Request::Compile { src: SRC.into() }).expect("compile") {
        Response::Compiled { points, columns } => {
            assert_eq!(points, 60, "{who}");
            assert_eq!(columns, vec!["demand".to_string()], "{who}");
        }
        other => panic!("{who}: unexpected compile reply {other:?}"),
    }
}

fn two_clients_share_one_warm_store(threads: usize) {
    let handle = serve(threads);
    let local = local_reference(threads);

    // Both connections are open at once — the store is concurrently shared,
    // not handed off.
    // `connect` succeeds only if the server welcomes this protocol version.
    let mut c1 = Client::connect(handle.local_addr()).expect("client 1 connects");
    let mut c2 = Client::connect(handle.local_addr()).expect("client 2 connects");
    compile(&mut c1, "c1");
    compile(&mut c2, "c2");

    // Client 1 pays the cold ramp.
    match c1.request(&Request::Sweep).expect("c1 sweep") {
        Response::Swept { points, warm_hits, full_sims, .. } => {
            assert_eq!(points, 60);
            assert_eq!(warm_hits, 0, "nobody swept before c1");
            assert!(full_sims > 0, "cold sweep must simulate");
        }
        other => panic!("c1: unexpected sweep reply {other:?}"),
    }
    // Client 2's sweep rides c1's bases: warm_hits > 0 (in fact, all of
    // them) and zero completion simulations — the acceptance criterion.
    match c2.request(&Request::Sweep).expect("c2 sweep") {
        Response::Swept { points, warm_hits, full_sims, bases, .. } => {
            assert!(warm_hits > 0, "c2 must report warm hits from c1's work");
            assert_eq!(warm_hits, points, "every point rides c1's bases");
            assert_eq!(full_sims, 0);
            assert!(!bases.is_empty());
        }
        other => panic!("c2: unexpected sweep reply {other:?}"),
    }

    // Interleaved estimates from both clients, each bit-identical to the
    // single local session at every probe.
    for (i, &p) in probes().iter().enumerate() {
        let r1 = c1.request(&Request::Estimate { point: p, col: 0 }).expect("c1 estimate");
        let r2 = c2.request(&Request::Estimate { point: p, col: 0 }).expect("c2 estimate");
        assert_matches_reference("c1", p, r1, &local.estimates[i]);
        assert_matches_reference("c2", p, r2, &local.estimates[i]);
    }

    // Ticking one client's session must not perturb the other: c1 focuses
    // and ticks, then both re-estimate the focus probe.
    let focus = probes()[0];
    assert_eq!(
        c1.request(&Request::Focus { point: focus }).expect("c1 focus"),
        Response::Focused { point: focus }
    );
    match c1.request(&Request::Tick { count: 4 }).expect("c1 tick") {
        Response::Ticked { ticks, worlds } => {
            assert_eq!(ticks, 4);
            assert_eq!(worlds, local.worlds_after_ticks, "tick cost matches the local session");
        }
        other => panic!("c1: unexpected tick reply {other:?}"),
    }
    let r1 = c1.request(&Request::Estimate { point: focus, col: 0 }).expect("c1 re-estimate");
    assert_matches_reference("c1 post-tick", focus, r1, &local.post_tick);
    let r2 = c2.request(&Request::Estimate { point: focus, col: 0 }).expect("c2 re-estimate");
    assert_matches_reference("c2 after c1 ticks", focus, r2, &local.estimates[0]);

    // Per-session warm-hit telemetry: every first touch of both sessions
    // was served by bases neither *session* created (the sweeps built
    // them), so each session reports all of its touches as warm. The
    // cold/warm asymmetry between the clients lives in the sweep counters
    // asserted above (c1 sweep: 0 warm hits, c2 sweep: all warm hits).
    match c1.request(&Request::Stats).expect("c1 stats") {
        Response::Stats { warm_hits, touched, .. } => {
            assert!(touched > probes().len(), "probes plus the tick exploration");
            assert_eq!(warm_hits, touched as u64, "every c1 touch rode sweep-built bases");
        }
        other => panic!("c1: unexpected stats reply {other:?}"),
    }
    match c2.request(&Request::Stats).expect("c2 stats") {
        Response::Stats { warm_hits, touched, .. } => {
            assert_eq!(touched, probes().len());
            assert_eq!(
                warm_hits,
                probes().len() as u64,
                "every c2 first touch rode bases another client paid for"
            );
        }
        other => panic!("c2: unexpected stats reply {other:?}"),
    }

    assert_eq!(c1.request(&Request::Quit).expect("c1 quit"), Response::Bye);
    assert_eq!(c2.request(&Request::Quit).expect("c2 quit"), Response::Bye);
    assert_eq!(handle.store_count(), 1, "one scenario, one shared store");
    handle.shutdown().expect("shutdown");
}

#[test]
fn two_clients_share_one_warm_store_sequential_persistent() {
    two_clients_share_one_warm_store(1);
}

#[test]
fn two_clients_share_one_warm_store_threaded_persistent() {
    two_clients_share_one_warm_store(4);
}

/// Out-of-range and out-of-state commands draw `ERR` responses and leave
/// the connection usable.
#[test]
fn protocol_errors_keep_the_connection_alive() {
    let handle = serve(1);
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    // Session commands before COMPILE → state error.
    match c.request(&Request::Sweep).expect("pre-compile sweep") {
        Response::Error { code, .. } => assert_eq!(code, jigsaw::server::ErrorCode::State),
        other => panic!("unexpected {other:?}"),
    }
    // Broken scenario → compile error.
    match c.request(&Request::Compile { src: "SELECT".into() }).expect("bad compile") {
        Response::Error { code, .. } => assert_eq!(code, jigsaw::server::ErrorCode::Compile),
        other => panic!("unexpected {other:?}"),
    }
    compile(&mut c, "recovering client");
    // Out-of-range point → state error; the session survives.
    match c.request(&Request::Estimate { point: 9_999, col: 0 }).expect("oob estimate") {
        Response::Error { code, .. } => assert_eq!(code, jigsaw::server::ErrorCode::State),
        other => panic!("unexpected {other:?}"),
    }
    // SAVE without a snapshot dir → unsupported.
    match c.request(&Request::Save { name: "x".into() }).expect("save") {
        Response::Error { code, .. } => assert_eq!(code, jigsaw::server::ErrorCode::Unsupported),
        other => panic!("unexpected {other:?}"),
    }
    // And real work still succeeds afterwards.
    match c.request(&Request::Estimate { point: 3, col: 0 }).expect("estimate") {
        Response::Estimated { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(c.request(&Request::Quit).expect("quit"), Response::Bye);
    handle.shutdown().expect("shutdown");
}

/// A reply too large for one frame is replaced by a short framed
/// `ERR exec`, never a truncated prefix: a maximal frame holding one
/// unknown verb draws an `ERR malformed` echo longer than `MAX_FRAME`, and
/// the connection answers its next request as usual.
#[test]
fn oversized_responses_stay_framed() {
    use jigsaw::server::protocol::{recv_response, send_request, write_frame, MAX_FRAME};
    let handle = serve(1);
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    write_frame(&mut stream, &"X".repeat(MAX_FRAME)).expect("one maximal frame");
    let substitute = Response::Error {
        code: jigsaw::server::ErrorCode::Exec,
        message: "response exceeds the frame size limit".into(),
    };
    assert_eq!(recv_response(&mut stream).expect("framed").expect("answered"), substitute);
    send_request(&mut stream, &Request::Hello { version: 3 }).expect("send");
    assert_eq!(
        recv_response(&mut stream).expect("framed").expect("answered"),
        Response::Welcome { version: 3 }
    );
    handle.shutdown().expect("shutdown");
}

/// A panic inside a black-box model must come back as `ERR exec` — the
/// typed [`WorkerPanic`] path — and leave the connection answering
/// subsequent requests, instead of aborting the server the way the old
/// `join().expect("worker panicked")` did.
///
/// [`WorkerPanic`]: jigsaw::pdb::PdbError::WorkerPanic
#[test]
fn worker_panic_answers_err_and_server_stays_up() {
    use jigsaw::blackbox::FnBlackBox;
    let mut catalog = jigsaw::server::default_catalog();
    catalog.add_function(Arc::new(FnBlackBox::new("Boom", 1, |_p: &[f64], _s| -> f64 {
        panic!("deliberate test panic")
    })));
    let handle = JigsawServer::builder()
        .config(jigsaw_cfg(4))
        .master_seed(MASTER_SEED)
        .catalog(catalog)
        .bind("127.0.0.1:0")
        .expect("bind")
        .serve()
        .expect("start");
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    let src = "DECLARE PARAMETER @p AS RANGE 0 TO 9 STEP BY 1; \
         SELECT Boom(@p) AS out INTO results;";
    match c.request(&Request::Compile { src: src.into() }).expect("compile") {
        Response::Compiled { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    // ESTIMATE evaluates worlds inline on the connection's thread.
    match c.request(&Request::Estimate { point: 0, col: 0 }).expect("estimate still answers") {
        Response::Error { code, message } => {
            assert_eq!(code, jigsaw::server::ErrorCode::Exec);
            assert!(message.contains("panicked"), "message: {message}");
        }
        other => panic!("panic must answer ERR, got {other:?}"),
    }
    // SWEEP panics inside the worker pool's task closures.
    match c.request(&Request::Sweep).expect("sweep still answers") {
        Response::Error { code, message } => {
            assert_eq!(code, jigsaw::server::ErrorCode::Exec);
            assert!(message.contains("panicked"), "message: {message}");
        }
        other => panic!("panic must answer ERR, got {other:?}"),
    }
    // The connection (and the pool) survived: a healthy scenario on the
    // same connection still does real work.
    compile(&mut c, "post-panic client");
    match c.request(&Request::Estimate { point: 3, col: 0 }).expect("estimate") {
        Response::Estimated { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(c.request(&Request::Quit).expect("quit"), Response::Bye);
    handle.shutdown().expect("shutdown");
}

/// `SAVE` writes a loadable snapshot; shutdown re-snapshots it; a fresh
/// server `LOAD`s it and serves warm estimates immediately.
#[test]
fn save_load_bridges_server_restarts() {
    let dir = std::env::temp_dir().join(format!("jigsaw-server-snap-{}", std::process::id()));
    let serve_with_dir = || {
        JigsawServer::builder()
            .config(jigsaw_cfg(1))
            .master_seed(MASTER_SEED)
            .snapshot_dir(dir.clone())
            .bind("127.0.0.1:0")
            .expect("bind")
            .serve()
            .expect("start")
    };
    // First server lifetime: sweep, save, shut down.
    let handle = serve_with_dir();
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    compile(&mut c, "saver");
    assert!(matches!(c.request(&Request::Sweep).expect("sweep"), Response::Swept { .. }));
    let saved_bytes = match c.request(&Request::Save { name: "acceptance".into() }).expect("save") {
        Response::Saved { bytes, .. } => bytes,
        other => panic!("unexpected {other:?}"),
    };
    drop(c);
    handle.shutdown().expect("shutdown re-snapshots");
    // Snapshot filenames are scenario-scoped (`<name>-<scope-hash>.snap`).
    let snap_path = std::fs::read_dir(&dir)
        .expect("snapshot dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("acceptance-"))
        .expect("scoped snapshot exists");
    let on_disk = std::fs::metadata(&snap_path).expect("snapshot exists").len();
    assert_eq!(on_disk as usize, saved_bytes, "shutdown re-snapshot matches SAVE");

    // Second server lifetime: cold registry, LOAD, warm estimates at once.
    let handle = serve_with_dir();
    let mut c = Client::connect(handle.local_addr()).expect("reconnect");
    compile(&mut c, "loader");
    match c.request(&Request::Load { name: "acceptance".into() }).expect("load") {
        Response::Loaded { bases, .. } => assert!(bases[0] >= 1),
        other => panic!("unexpected {other:?}"),
    }
    // The very next sweep is all warm hits: the snapshot carried the work
    // across the restart.
    match c.request(&Request::Sweep).expect("warm sweep") {
        Response::Swept { points, warm_hits, full_sims, .. } => {
            assert_eq!(warm_hits, points);
            assert_eq!(full_sims, 0);
        }
        other => panic!("unexpected {other:?}"),
    }
    // A *different* scenario cannot load this scenario's snapshot: names
    // are scoped per scenario, so the lookup (and, if a file were copied
    // into place, the scoped snapshot header) refuses.
    let other_src = "DECLARE PARAMETER @p AS RANGE 0 TO 9 STEP BY 1; \
         SELECT Synth8(@p) AS out INTO results;";
    match c.request(&Request::Compile { src: other_src.into() }).expect("compile other") {
        Response::Compiled { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    match c.request(&Request::Load { name: "acceptance".into() }).expect("cross load") {
        Response::Error { code, .. } => assert_eq!(code, jigsaw::server::ErrorCode::Snapshot),
        other => panic!("cross-scenario LOAD must refuse, got {other:?}"),
    }
    drop(c);
    handle.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// A scenario whose fingerprint worlds are non-finite — a divide by zero in
/// the SQL dialect yields ±∞ or NaN — draws a typed `ERR` from `SWEEP` and
/// `ESTIMATE`, and leaves the scenario's store usable: the check runs
/// before any store lock is taken, so no panic poisons it for later verbs.
#[test]
fn a_non_finite_scenario_answers_err_and_keeps_its_store_usable() {
    let dir = std::env::temp_dir().join(format!("jigsaw-server-nonfinite-{}", std::process::id()));
    let handle = JigsawServer::builder()
        .config(jigsaw_cfg(2))
        .master_seed(MASTER_SEED)
        .snapshot_dir(dir.clone())
        .bind("127.0.0.1:0")
        .expect("bind")
        .serve()
        .expect("start");
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    // A request that panics drops its session, so each check re-compiles;
    // the registry hands back the same shared store every time.
    let compile = |c: &mut Client| {
        let src = "DECLARE PARAMETER @week AS RANGE 0 TO 29 STEP BY 1; \
             DECLARE PARAMETER @feature AS SET (5, 12); \
             SELECT Demand(@week, @feature) / (@week - @week) AS ratio INTO results;";
        match c.request(&Request::Compile { src: src.into() }).expect("compile") {
            Response::Compiled { points, .. } => assert_eq!(points, 60),
            other => panic!("unexpected {other:?}"),
        }
    };
    let checks = [(Request::Sweep, "SWEEP"), (Request::Estimate { point: 0, col: 0 }, "ESTIMATE")];
    for (verb, name) in checks {
        compile(&mut c);
        match c.request(&verb).expect("the verb answers") {
            Response::Error { code, message } => {
                assert_eq!(code, jigsaw::server::ErrorCode::Exec, "{name}: {message}");
                assert!(
                    message.contains("point 0, column 0: fingerprint world 0 returned"),
                    "{name}: {message}"
                );
            }
            other => panic!("{name} must answer a typed ERR, got {other:?}"),
        }
        // SAVE reads the store under its lock, which a panic inside the
        // verb above would have poisoned.
        compile(&mut c);
        match c.request(&Request::Save { name: "after-nan".into() }).expect("save answers") {
            Response::Saved { .. } => {}
            other => panic!("after {name}, the store must still snapshot, got {other:?}"),
        }
    }
    assert_eq!(c.request(&Request::Quit).expect("quit"), Response::Bye);
    handle.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();
}
