//! Acceptance for long verbs on a server with one blocking thread per
//! connection (ISSUES 12 and 22): a `SWEEP` runs on its client's thread, so
//! other clients are served while it is in flight; a client of the *same*
//! scenario waits for it on its own thread; frames pipelined behind a long
//! verb still answer in order; a client that never reads stalls nobody but
//! itself; a client that disconnects mid-sweep leaves a warm store; and
//! shutdown waits for the sweep in flight before it re-snapshots.
//!
//! Nothing here depends on timing. The scenario under test evaluates a
//! black box that blocks at a test-held [`Gate`], so "while the sweep is in
//! flight" is a state each test enters and leaves explicitly. The tests
//! share the gated catalog's process-wide metrics, so they serialize on one
//! lock.

mod support;

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use jigsaw::core::interactive::{Estimate, InteractiveSession, SessionConfig};
use jigsaw::core::{AffineFamily, JigsawConfig, ShardedBasisStore, SweepRunner};
use jigsaw::pdb::DirectEngine;
use jigsaw::prng::SeedSet;
use jigsaw::server::protocol::{recv_response, send_request, MAX_FRAME};
use jigsaw::server::{Client, ErrorCode, JigsawServer, Request, Response, ServerHandle};

use support::{gated_catalog, Gate, FREE_SRC, GATED_SRC, POINTS};

const MASTER_SEED: u64 = 2024;
const THREADS: usize = 2;

fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg() -> JigsawConfig {
    JigsawConfig::paper().with_n_samples(120).with_threads(THREADS)
}

/// One server under test and the gate its `Gated` model blocks at.
struct Rig {
    handle: ServerHandle,
    gate: Arc<Gate>,
}

impl Rig {
    fn start(snapshot_dir: Option<PathBuf>) -> Rig {
        let gate = Gate::new_open();
        let mut builder = JigsawServer::builder()
            .config(cfg())
            .master_seed(MASTER_SEED)
            .catalog(gated_catalog(&gate));
        if let Some(dir) = snapshot_dir {
            builder = builder.snapshot_dir(dir);
        }
        let handle = builder.bind("127.0.0.1:0").expect("bind loopback").serve().expect("serve");
        Rig { handle, gate }
    }

    fn client(&self) -> Client {
        Client::connect(self.handle.local_addr()).expect("connect")
    }

    /// For tests that write raw frames: a handshaken bare socket.
    fn stream(&self) -> TcpStream {
        let mut stream = TcpStream::connect(self.handle.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        send(&mut stream, &Request::Hello { version: 3 });
        assert!(matches!(recv(&mut stream), Response::Welcome { .. }));
        stream
    }
}

fn compile(client: &mut Client, src: &str) {
    match client.request(&Request::Compile { src: src.into() }).expect("compile") {
        Response::Compiled { points, .. } => assert_eq!(points, POINTS),
        other => panic!("unexpected compile reply {other:?}"),
    }
}

fn send(stream: &mut TcpStream, req: &Request) {
    send_request(stream, req).expect("send");
}

fn recv(stream: &mut TcpStream) -> Response {
    recv_response(stream).expect("read reply").expect("reply before EOF")
}

/// `COMPILE` the gated scenario over a bare socket.
fn compile_gated(stream: &mut TcpStream) {
    send(stream, &Request::Compile { src: GATED_SRC.into() });
    assert!(matches!(recv(stream), Response::Compiled { .. }));
}

/// What a purely local session answers on the gated scenario after one
/// sweep — the bits every served estimate must equal — and the swept
/// store's basis counts.
struct LocalReference {
    estimates: Vec<Estimate>,
    bases: Vec<usize>,
}

fn local_reference() -> LocalReference {
    let catalog = Arc::new(gated_catalog(&Gate::new_open()));
    let scenario = jigsaw::sql::compile(GATED_SRC, &catalog).expect("compiles locally");
    let sim = Arc::new(scenario.simulation(
        Arc::new(DirectEngine::new()),
        Arc::clone(&catalog),
        SeedSet::new(MASTER_SEED),
    ));
    let cfg = cfg();
    let mut store = ShardedBasisStore::new(scenario.columns.len(), &cfg, Arc::new(AffineFamily));
    let swept = SweepRunner::new(cfg.clone()).store(&mut store).run(&*sim).expect("local sweep");
    let mut session = InteractiveSession::with_store(sim, SessionConfig::from_jigsaw(&cfg), store);
    let estimates =
        (0..POINTS).map(|p| session.estimate_now(p, 0).expect("local estimate")).collect();
    LocalReference { estimates, bases: swept.stats.bases_per_column }
}

fn assert_est(resp: &Response, point: usize, local: &LocalReference) {
    let want = &local.estimates[point];
    match resp {
        Response::Estimated {
            point: p,
            col: 0,
            n_samples,
            source,
            expectation_bits,
            std_dev_bits,
            lo_bits,
            hi_bits,
        } => {
            assert_eq!(*p, point);
            assert_eq!(*n_samples, want.n_samples, "sample mass at {point}");
            assert_eq!(*source, want.source, "provenance at {point}");
            assert_eq!(*expectation_bits, want.expectation.to_bits(), "expectation at {point}");
            assert_eq!(*std_dev_bits, want.std_dev.to_bits(), "std-dev at {point}");
            assert_eq!(*lo_bits, want.lo.to_bits(), "lower bound at {point}");
            assert_eq!(*hi_bits, want.hi.to_bits(), "upper bound at {point}");
        }
        other => panic!("expected EST {point} 0, got {other:?}"),
    }
}

fn assert_cold_sweep(resp: &Response, local: &LocalReference) {
    match resp {
        Response::Swept { points, warm_hits, bases, .. } => {
            assert_eq!(*points, POINTS);
            assert_eq!(*warm_hits, 0, "nobody swept this store before");
            assert_eq!(bases, &local.bases);
        }
        other => panic!("expected SWEPT, got {other:?}"),
    }
}

/// Cases (1) and (2): with A's `SWEEP` of X held at the gate, C — on
/// another scenario — gets its `EST`; B — on X — waits for the sweep on its
/// own thread without stalling anybody, and answers bit-identically once X
/// is free.
#[test]
fn foreign_reader_is_served_and_same_scenario_client_waits() {
    let _g = guard();
    let rig = Rig::start(None);
    let local = local_reference();
    let mut a = rig.client();
    let mut b = rig.client();
    let mut c = rig.client();
    compile(&mut a, GATED_SRC);
    compile(&mut b, GATED_SRC);
    compile(&mut c, FREE_SRC);
    assert!(matches!(c.request(&Request::Sweep).expect("warm Y"), Response::Swept { .. }));
    let warm = c.request(&Request::Estimate { point: 7, col: 0 }).expect("warm estimate");
    assert!(matches!(warm, Response::Estimated { .. }));

    rig.gate.shut();
    let a_done = AtomicBool::new(false);
    let b_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sweeping = scope.spawn(|| {
            let swept = a.request(&Request::Sweep).expect("A's sweep answers");
            a_done.store(true, Ordering::SeqCst);
            swept
        });
        rig.gate.wait_until_held();

        // (1) A's sweep is provably stuck mid-run, and C is answered, with
        // the same bits as before the sweep began.
        let during = c.request(&Request::Estimate { point: 7, col: 0 }).expect("C during sweep");
        assert_eq!(during, warm);
        assert!(!a_done.load(Ordering::SeqCst), "the gate is shut: A cannot have finished");

        // (2) B asks about X itself: it waits for the sweep, as the store
        // lock says it must, while C goes on being served.
        let asking = scope.spawn(|| {
            let est = b.request(&Request::Estimate { point: 3, col: 0 }).expect("B answers");
            b_done.store(true, Ordering::SeqCst);
            est
        });
        for _ in 0..3 {
            let during = c.request(&Request::Estimate { point: 7, col: 0 }).expect("C beside B");
            assert_eq!(during, warm);
        }
        assert!(!b_done.load(Ordering::SeqCst), "B waits for the sweep, as the lock says");
        assert!(!a_done.load(Ordering::SeqCst));

        rig.gate.open();
        assert_cold_sweep(&sweeping.join().expect("A's thread"), &local);
        assert_est(&asking.join().expect("B's thread"), 3, &local);
    });
    rig.handle.shutdown().expect("shutdown");
}

/// Case (3): `SWEEP` + `ESTIMATE` + `STATS` in one write answer in that
/// order — the thread reads the next frame only after answering the sweep.
#[test]
fn frames_pipelined_behind_a_sweep_answer_in_order() {
    let _g = guard();
    let rig = Rig::start(None);
    let local = local_reference();
    let mut a = rig.stream();
    compile_gated(&mut a);

    rig.gate.shut();
    let mut burst = Vec::new();
    for req in [Request::Sweep, Request::Estimate { point: 5, col: 0 }, Request::Stats] {
        send_request(&mut burst, &req).expect("encode");
    }
    a.write_all(&burst).expect("one write");
    rig.gate.wait_until_held();
    rig.gate.open();

    assert_cold_sweep(&recv(&mut a), &local);
    assert_est(&recv(&mut a), 5, &local);
    match recv(&mut a) {
        Response::Stats { touched, bases, .. } => {
            assert_eq!(touched, 1, "the one estimate above");
            assert_eq!(bases, local.bases);
        }
        other => panic!("expected STATS last, got {other:?}"),
    }
    rig.handle.shutdown().expect("shutdown");
}

/// A client that pipelines its whole script and then closes its sending
/// side (`printf … | nc`) still reads every reply: A's `SWEEP` is in flight
/// at the EOF, and B's frames, half-closed while that sweep holds their
/// scenario's store, wait behind it.
#[test]
fn half_closed_clients_still_get_every_reply() {
    let _g = guard();
    let rig = Rig::start(None);
    let local = local_reference();
    let mut a = rig.stream();
    let mut b = rig.stream();
    compile_gated(&mut a);
    compile_gated(&mut b);
    let write_then_half_close = |stream: &mut TcpStream, reqs: &[Request]| {
        let mut burst = Vec::new();
        for req in reqs {
            send_request(&mut burst, req).expect("encode");
        }
        stream.write_all(&burst).expect("one write");
        stream.shutdown(Shutdown::Write).expect("half-close");
    };

    rig.gate.shut();
    write_then_half_close(
        &mut a,
        &[Request::Sweep, Request::Estimate { point: 5, col: 0 }, Request::Stats, Request::Quit],
    );
    rig.gate.wait_until_held();
    write_then_half_close(&mut b, &[Request::Estimate { point: 3, col: 0 }, Request::Quit]);
    rig.gate.open();

    assert_cold_sweep(&recv(&mut a), &local);
    assert_est(&recv(&mut a), 5, &local);
    assert!(matches!(recv(&mut a), Response::Stats { touched: 1, .. }));
    assert_eq!(recv(&mut a), Response::Bye);
    assert!(recv_response(&mut a).expect("clean close").is_none());
    assert_est(&recv(&mut b), 3, &local);
    assert_eq!(recv(&mut b), Response::Bye);
    assert!(recv_response(&mut b).expect("clean close").is_none());
    rig.handle.shutdown().expect("shutdown");
}

/// Case (4): A disconnects mid-sweep. The sweep runs on, its reply is
/// lost, and the next client's sweep of X is all warm hits.
#[test]
fn disconnect_mid_sweep_leaves_the_store_warm() {
    let _g = guard();
    let rig = Rig::start(None);
    let mut a = rig.stream();
    compile_gated(&mut a);
    rig.gate.shut();
    send(&mut a, &Request::Sweep);
    rig.gate.wait_until_held();
    drop(a);

    let mut d = rig.client();
    compile(&mut d, GATED_SRC); // attaches to X mid-sweep without touching its lock
    rig.gate.open();
    match d.request(&Request::Sweep).expect("D's sweep") {
        Response::Swept { points, warm_hits, full_sims, .. } => {
            assert_eq!(warm_hits, points, "every point rides the abandoned sweep's bases");
            assert_eq!(full_sims, 0);
        }
        other => panic!("expected SWEPT, got {other:?}"),
    }
    rig.handle.shutdown().expect("shutdown");
}

/// Case (6): `shutdown()` with a sweep in flight waits for it, and the
/// re-snapshot that follows carries the sweep's bases.
#[test]
fn shutdown_waits_for_the_sweep_in_flight() {
    let _g = guard();
    let dir = std::env::temp_dir().join(format!("jigsaw-offload-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let rig = Rig::start(Some(dir.clone()));
    let local = local_reference();
    let mut a = rig.client();
    compile(&mut a, GATED_SRC);
    // The store gets its on-disk home while still cold.
    match a.request(&Request::Save { name: "home".into() }).expect("save") {
        Response::Saved { .. } => {}
        other => panic!("expected SAVED, got {other:?}"),
    }
    rig.gate.shut();
    let Rig { handle, gate } = rig;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Shutdown first shuts A's socket down: this request fails
            // exactly when shutdown is under way — and only then is the
            // sweep it is waiting on let go.
            assert!(a.request(&Request::Sweep).is_err(), "the server hung up mid-sweep");
            gate.open();
        });
        gate.wait_until_held();
        handle.shutdown().expect("shutdown returns once the sweep has finished");
    });

    // A fresh server over the same directory loads what shutdown wrote.
    let rig = Rig::start(Some(dir.clone()));
    let mut c = rig.client();
    compile(&mut c, GATED_SRC);
    match c.request(&Request::Load { name: "home".into() }).expect("load") {
        Response::Loaded { bases, .. } => {
            assert_eq!(bases, local.bases, "the re-snapshot holds the sweep's bases")
        }
        other => panic!("expected LOADED, got {other:?}"),
    }
    rig.handle.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// Far more than `MAX_FRAME` bytes pipelined behind a held sweep: the
/// server's thread holds at most one frame, so TCP pushes back on the
/// writer, and when the sweep ends every reply still arrives, in order.
#[test]
fn flood_behind_a_sweep_answers_in_order() {
    let _g = guard();
    const ROUNDS: usize = 8;
    let rig = Rig::start(None);
    let local = local_reference();
    let mut a = rig.stream();
    compile_gated(&mut a);
    rig.gate.shut();

    // SWEEP, then 8 × (a half-MiB COMPILE of the same scenario — padding is
    // whitespace, so it is the same store — and an ESTIMATE): ≈ 4 MiB.
    let padded = format!("{GATED_SRC}{}", " ".repeat(MAX_FRAME / 2));
    let mut flood = Vec::new();
    send_request(&mut flood, &Request::Sweep).expect("encode");
    for k in 0..ROUNDS {
        send_request(&mut flood, &Request::Compile { src: padded.clone() }).expect("encode");
        send_request(&mut flood, &Request::Estimate { point: k, col: 0 }).expect("encode");
    }
    assert!(flood.len() > 3 * MAX_FRAME);
    let mut writer = a.try_clone().expect("clone socket");
    std::thread::scope(|scope| {
        scope.spawn(move || writer.write_all(&flood).expect("flood is accepted in the end"));
        rig.gate.wait_until_held();
        rig.gate.open();
        assert_cold_sweep(&recv(&mut a), &local);
        for k in 0..ROUNDS {
            assert!(matches!(recv(&mut a), Response::Compiled { .. }), "round {k}");
            assert_est(&recv(&mut a), k, &local);
        }
    });
    rig.handle.shutdown().expect("shutdown");
}

/// A client that pipelines far more `METRICS` requests than the socket
/// buffers hold, and never reads, blocks only its own thread: another
/// client's `ESTIMATE` is answered meanwhile, and once the first client
/// reads, it gets every reply, in order.
#[test]
fn a_client_that_never_reads_stalls_only_itself() {
    let _g = guard();
    let rig = Rig::start(None);
    let mut p = rig.stream();
    send(&mut p, &Request::Metrics);
    let scrape = match recv(&mut p) {
        Response::Metrics { text } => text.len(),
        other => panic!("expected METRICS, got {other:?}"),
    };
    // Replies worth ≈ 16 MiB — many times what loopback socket buffers
    // absorb — behind one request whose reply is told apart from them.
    let n = 16 * MAX_FRAME / scrape + 1;
    let mut burst = Vec::new();
    for _ in 0..n {
        send_request(&mut burst, &Request::Metrics).expect("encode");
    }
    send_request(&mut burst, &Request::Hello { version: 3 }).expect("encode");
    let mut writer = p.try_clone().expect("clone socket");
    std::thread::scope(|scope| {
        scope.spawn(move || writer.write_all(&burst).expect("the burst is accepted in the end"));

        let mut q = rig.client();
        compile(&mut q, FREE_SRC);
        let est = q.request(&Request::Estimate { point: 7, col: 0 }).expect("Q is served");
        assert!(matches!(est, Response::Estimated { point: 7, .. }), "{est:?}");

        for i in 0..n {
            assert!(matches!(recv(&mut p), Response::Metrics { .. }), "reply {i}");
        }
        assert_eq!(recv(&mut p), Response::Welcome { version: 3 });
    });
    rig.handle.shutdown().expect("shutdown");
}

/// A long verb before `COMPILE` has no session to run on: it is refused,
/// like any other session verb.
#[test]
fn long_verbs_before_compile_are_refused_inline() {
    let _g = guard();
    let rig = Rig::start(None);
    let mut c = rig.client();
    for req in [Request::Sweep, Request::Tick { count: 1 }, Request::Save { name: "x".into() }] {
        match c.request(&req).expect("answers") {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::State);
                assert!(message.contains("compile a scenario first"), "{message}");
            }
            other => panic!("expected ERR state, got {other:?}"),
        }
    }
    rig.handle.shutdown().expect("shutdown");
}
