//! Per-connection buffers, framing, and command state machine.
//!
//! A [`Conn`] is one nonblocking socket plus everything the readiness loop
//! needs to multiplex it: a read buffer that accumulates bytes until whole
//! frames are available, a write buffer that drains as the socket accepts
//! bytes, and the session state machine. Before `COMPILE` only the
//! handshake, compilation, and `QUIT` are meaningful; after it, the
//! connection owns a compiled scenario, a simulation, and an
//! [`InteractiveSession`] *attached to the shared basis store* for that
//! scenario's registry key. `COMPILE` may be issued again at any time to
//! switch scenarios (the old session detaches, the store stays warm in the
//! registry for the next client).
//!
//! Short verbs (`HELLO`, `COMPILE`, `FOCUS`, `ESTIMATE`, `STATS`,
//! `SUBSCRIBE`, `METRICS`, `QUIT`) execute synchronously on the loop
//! thread. Long verbs (`SWEEP`, `TICK`, `SAVE`, `LOAD`) do not: the
//! connection moves its session into a job for the loop's runner thread
//! (see [`crate::jobs`]) and the loop goes on pumping everyone else. Either
//! way a connection has at most one command in flight — a live `SUBSCRIBE`
//! stream or a pending job pauses frame execution until it completes — so
//! per-client request/response ordering, and with it the golden transcript,
//! is the old thread-per-connection server's by construction.
//!
//! Output is bounded the same way as input: once more than one maximal
//! frame of responses has queued since the socket last drained, the
//! connection executes no further frames and steps no stream until the
//! socket has taken all of it, so a client that pipelines without reading
//! is pushed back by TCP (through the read-buffer cap) instead of growing
//! the write buffer.
//!
//! A sweep holds its store's write lock for its whole run, and the loop
//! thread must never sleep on that lock. So a connection whose session is
//! attached to a store with a sweep in flight
//! ([`SharedBasisStore::sweep_in_flight`]) is *deferred*: it executes no
//! frames and steps no stream until the mark drops. The same-scenario client
//! waits, as the store's locking contract says it must; nobody else does.
//!
//! A read EOF only says the peer will send no more. A client may pipeline
//! its whole script, close its sending side and then read (`printf … | nc`),
//! so the connection keeps executing — the job in flight, the frames
//! buffered behind it or behind a deferral — and closes once all of that is
//! answered. A peer that is really gone shows up as a failed write or read,
//! which drops the connection at once; a job it had in flight runs on, the
//! store stays warm, the result is discarded.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::TryRecvError;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use jigsaw_core::basis::snapshot::write_atomic;
use jigsaw_core::basis::{config_fingerprint, SharedBasisStore, StoreKey};
use jigsaw_core::interactive::{InteractiveSession, SessionConfig};
use jigsaw_core::{AffineFamily, ShardedBasisStore, SweepRunner};
use jigsaw_obs::{Counter, Gauge, Histogram};
use jigsaw_pdb::{DirectEngine, PlanSim};
use jigsaw_prng::SeedSet;
use jigsaw_sql::{compile, Scenario};

use crate::jobs::{Job, JobQueue, Slot};
use crate::protocol::{ErrorCode, ProtocolError, Request, Response, MAX_FRAME, PROTOCOL_VERSION};
use crate::server::{fnv64, snapshot_family, snapshot_filename, ServerState, FAMILY};

/// Upper bound on `TICK` counts per request. Ticks run on the loop's job
/// runner, one job at a time, so an unbounded count would hold every other
/// long verb of that loop (and this client's own later frames) behind it
/// indefinitely.
pub const MAX_TICKS_PER_REQUEST: u32 = 10_000;

/// Every wire verb, in grammar order — the label space of the per-verb
/// request instruments.
const VERBS: [&str; 12] = [
    "HELLO",
    "COMPILE",
    "SWEEP",
    "FOCUS",
    "ESTIMATE",
    "SUBSCRIBE",
    "TICK",
    "STATS",
    "SAVE",
    "LOAD",
    "METRICS",
    "QUIT",
];

/// Cached handles for the connection layer's instruments (registered once,
/// updated lock-free). The per-verb counter and latency histogram are
/// bumped together at a single site ([`ConnObs::request_done`]: when the
/// response is queued, for inline and offloaded verbs alike), so
/// `jigsaw_requests_total{verb=V} == jigsaw_request_us_count{verb=V}`
/// holds by construction, mid-job included — a CI-checked invariant.
struct ConnObs {
    /// `(verb, jigsaw_requests_total{verb=}, jigsaw_request_us{verb=})`.
    verbs: Vec<(&'static str, Counter, Histogram)>,
    /// Framed-but-unparseable requests (answered `ERR malformed`, so they
    /// appear in no per-verb series).
    malformed: Counter,
    /// Live `SUBSCRIBE` streams across all connections and loops.
    subs_live: Gauge,
    /// Pump passes in which a connection with work to do sat out because
    /// its store had a sweep in flight.
    deferred: Counter,
    /// Cumulative points / warm hits / worlds over every server-side sweep.
    sweep_points: Counter,
    sweep_warm_hits: Counter,
    sweep_worlds: Counter,
    /// Snapshot parse+index time on `LOAD` (the save-side twin lives in
    /// the store layer as `jigsaw_store_snapshot_save_us`).
    snapshot_load_us: Histogram,
}

fn conn_obs() -> &'static ConnObs {
    static OBS: OnceLock<ConnObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let g = jigsaw_obs::global();
        ConnObs {
            verbs: VERBS
                .iter()
                .map(|v| {
                    (
                        *v,
                        g.counter("jigsaw_requests_total", &[("verb", v)]),
                        g.histogram("jigsaw_request_us", &[("verb", v)]),
                    )
                })
                .collect(),
            malformed: g.counter("jigsaw_requests_malformed_total", &[]),
            subs_live: g.gauge("jigsaw_subscriptions_live", &[]),
            deferred: g.counter("jigsaw_conn_deferred_total", &[]),
            sweep_points: g.counter("jigsaw_sweep_points_total", &[]),
            sweep_warm_hits: g.counter("jigsaw_sweep_warm_hits_total", &[]),
            sweep_worlds: g.counter("jigsaw_sweep_worlds_total", &[]),
            snapshot_load_us: g.histogram("jigsaw_store_snapshot_load_us", &[]),
        }
    })
}

impl ConnObs {
    /// Account one answered request: decoded at `t0`, response queued now.
    fn request_done(&self, verb: &str, t0: Instant) {
        if let Some((_, reqs, lat)) = self.verbs.iter().find(|(v, _, _)| *v == verb) {
            reqs.inc();
            lat.record_duration(t0.elapsed());
        }
    }
}

/// A compiled scenario and everything hanging off it.
struct Compiled {
    scenario: Scenario,
    sim: Arc<PlanSim>,
    key: StoreKey,
    shared: SharedBasisStore,
}

/// [`AffineFamily`] under a scenario-scoped name: stores loaded from
/// snapshots carry [`snapshot_family`]'s name so the header check refuses
/// another scenario's file, while matching behaves exactly like affine.
struct ScopedAffine(String);

impl jigsaw_core::MappingFamily for ScopedAffine {
    fn name(&self) -> &str {
        &self.0
    }

    fn find(
        &self,
        from: &jigsaw_core::Fingerprint,
        to: &jigsaw_core::Fingerprint,
        tol: f64,
    ) -> Option<jigsaw_core::AffineMap> {
        jigsaw_core::MappingFamily::find(&AffineFamily, from, to, tol)
    }
}

impl Compiled {
    /// Compile `src` against the server catalog and attach (or create) the
    /// shared store for its `(catalog, scenario, config)` identity.
    fn build(state: &ServerState, src: &str) -> Result<Compiled, Response> {
        if src.len() > MAX_FRAME {
            return Err(err(ErrorCode::Compile, "scenario script too large"));
        }
        let scenario =
            compile(src, &state.catalog).map_err(|e| err(ErrorCode::Compile, &e.to_string()))?;
        let sim = scenario.simulation(
            Arc::new(DirectEngine::new()),
            Arc::clone(&state.catalog),
            SeedSet::new(state.master_seed),
        );
        // Bases are only meaningful for the simulation that produced them,
        // so the scope hashes the *parsed* scenario (whitespace-insensitive)
        // alongside the catalog name; the config fingerprint covers every
        // knob that affects basis identity. Clients compiling the same
        // scenario under the same server therefore share one store.
        let key = StoreKey {
            scope: format!(
                "{}:{:016x}",
                state.catalog_name,
                fnv64(&format!("{:?}", scenario.script))
            ),
            config_fp: config_fingerprint(&state.cfg, FAMILY),
        };
        let n_cols = scenario.columns.len();
        let cfg = Arc::clone(&state.cfg);
        let shared = state.registry.get_or_create(key.clone(), || {
            SharedBasisStore::new(n_cols, &cfg, Arc::new(AffineFamily))
        });
        Ok(Compiled { scenario, sim: Arc::new(sim), key, shared })
    }
}

fn err(code: ErrorCode, message: &str) -> Response {
    Response::Error { code, message: message.to_string() }
}

/// The wire form of an estimate, bit-exact (including the anytime bound).
fn estimated(point: usize, col: usize, est: &jigsaw_core::interactive::Estimate) -> Response {
    Response::Estimated {
        point,
        col,
        n_samples: est.n_samples,
        source: est.source,
        expectation_bits: est.expectation.to_bits(),
        std_dev_bits: est.std_dev.to_bits(),
        lo_bits: est.lo.to_bits(),
        hi_bits: est.hi.to_bits(),
    }
}

/// A connection's compiled scenario plus the interactive session attached
/// to its shared store. Both own `Arc`s of the simulation, so the pair is
/// `'static`: it lives inside the event loop's connection list and moves
/// into a job closure for the duration of a long verb.
pub(crate) struct Session {
    compiled: Compiled,
    session: InteractiveSession,
}

/// An in-flight `SUBSCRIBE`: the readiness loop advances it one refine
/// step per pump pass, streaming an `INTERVAL` frame each time the bound
/// moves and closing with the final `EST` on convergence or exhaustion.
#[derive(Clone, Copy)]
struct Subscription {
    point: usize,
    col: usize,
    eps: f64,
    /// The last streamed interval `(n, lo_bits, hi_bits)`: refine steps
    /// that do not move the bound emit no frame, so a slow-converging
    /// stream is not a wall of identical `INTERVAL` lines.
    last: (usize, u64, u64),
}

/// A long verb on the loop's job runner, which owns the session meanwhile.
struct PendingJob {
    verb: &'static str,
    /// When the request was decoded (the start of its latency sample).
    t0: Instant,
    slot: Slot,
}

/// The one thing a connection can have in flight. While it is there,
/// buffered request frames are *not* executed — their responses would
/// overtake it — so per-client ordering stays the blocking server's.
enum InFlight {
    /// A live `SUBSCRIBE` stream, stepped by the pump passes.
    Stream(Subscription),
    /// A long verb executing (or queued) on the runner.
    Job(PendingJob),
}

/// What one [`Conn::pump`] pass accomplished.
pub(crate) struct ConnStatus {
    /// Whether any bytes moved or any frame executed (the loop's idle
    /// detector: no progress anywhere → park briefly).
    pub(crate) progressed: bool,
    /// Whether the connection is still alive (false → drop it).
    pub(crate) open: bool,
    /// Whether the connection had work it sat out because its store has a
    /// sweep in flight. Nothing wakes the loop when a sweep on *another*
    /// loop's runner ends, so the loop keeps its park short meanwhile.
    pub(crate) deferred: bool,
}

/// Outcome of trying to slice the next frame out of the read buffer.
enum FrameStep {
    /// Not enough buffered bytes yet.
    Need,
    /// Framing violated (oversized prefix, non-UTF-8 payload): the stream
    /// can no longer be trusted, close without a response — exactly the old
    /// blocking server's behavior.
    Dead,
    /// One complete frame payload.
    Frame(String),
}

/// One multiplexed client connection.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed (compacted after each parse pass).
    rbuf: Vec<u8>,
    rpos: usize,
    /// Encoded responses; `wbuf[wpos..]` is not yet accepted by the
    /// socket. Cleared once fully flushed; [`Conn::backlogged`] bounds it.
    wbuf: Vec<u8>,
    wpos: usize,
    /// `None` before `COMPILE` — and while a job has the session.
    session: Option<Session>,
    /// Negotiated protocol version (1 until the client says `HELLO`).
    /// Version-gated verbs (`SUBSCRIBE` v2+, `METRICS` v3+) check it
    /// before executing.
    version: u32,
    inflight: Option<InFlight>,
    /// The peer closed its sending side (read EOF). Nothing more will
    /// arrive, but a half-closed client still reads: what it pipelined
    /// before — a job in flight and the frames behind it included — is
    /// answered first, and only then is `closing` set.
    peer_closed: bool,
    /// Flush remaining output, then close (set by `QUIT`, a framing
    /// violation, a read error, or a peer EOF with nothing left to answer).
    closing: bool,
}

impl Conn {
    /// Adopt an accepted stream: switch it nonblocking (the readiness
    /// loop's contract) and disable Nagle (small request/response frames
    /// interact with delayed ACK into tens-of-milliseconds round trips).
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            session: None,
            version: 1,
            inflight: None,
            peer_closed: false,
            closing: false,
        })
    }

    /// Queue a response frame for the next flush. An oversized payload is
    /// replaced by a short typed error frame — truncating the length
    /// prefix (`len as u32`) would silently desync every frame after it.
    fn queue(&mut self, resp: &Response) {
        let mut payload = resp.encode();
        if payload.len() > MAX_FRAME {
            payload = err(ErrorCode::Exec, "response exceeds the frame size limit").encode();
        }
        self.wbuf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(payload.as_bytes());
    }

    /// Push buffered output into the socket until it would block.
    fn flush(&mut self) -> (bool, bool) {
        let mut progressed = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return (progressed, false),
                Ok(n) => {
                    self.wpos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return (progressed, false),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        (progressed, true)
    }

    /// The payload length the next frame's prefix announces, once the
    /// prefix is buffered.
    fn next_len(&self) -> Option<usize> {
        let prefix = self.rbuf.get(self.rpos..self.rpos + 4)?;
        Some(u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize)
    }

    /// Whether more than one maximal frame of output is queued. Until the
    /// socket drains the buffer the connection executes no frames and steps
    /// no stream: one more response fits under the bound, so `wbuf` never
    /// exceeds two maximal frames.
    fn backlogged(&self) -> bool {
        self.wbuf.len() > MAX_FRAME + 4
    }

    /// Whether [`Conn::next_frame`] has something to act on: a complete
    /// frame, or a prefix that already condemns the stream.
    fn frame_ready(&self) -> bool {
        self.next_len().is_some_and(|len| len > MAX_FRAME || self.rbuf.len() - self.rpos >= 4 + len)
    }

    /// Slice the next complete frame out of the read buffer.
    fn next_frame(&mut self) -> FrameStep {
        let Some(len) = self.next_len() else { return FrameStep::Need };
        if len > MAX_FRAME {
            return FrameStep::Dead;
        }
        if self.rbuf.len() - self.rpos < 4 + len {
            return FrameStep::Need;
        }
        let start = self.rpos + 4;
        match std::str::from_utf8(&self.rbuf[start..start + len]) {
            Ok(payload) => {
                let payload = payload.to_string();
                self.rpos = start + len;
                FrameStep::Frame(payload)
            }
            Err(_) => FrameStep::Dead,
        }
    }

    /// One readiness pass: flush, read, collect a finished job, execute
    /// complete frames, step the live stream, flush.
    pub(crate) fn pump(&mut self, state: &Arc<ServerState>, jobs: &JobQueue) -> ConnStatus {
        let (mut progressed, open) = self.flush();
        if !open {
            return ConnStatus { progressed, open: false, deferred: false };
        }
        let mut deferred = false;
        if !self.closing {
            // Fill the read buffer with whatever the socket has — up to one
            // maximal frame. A full buffer always holds a complete (or
            // dead) frame, so execution can proceed; a connection that is
            // paused (stream, job, deferred) stops reading there and lets
            // TCP push back on a client that keeps pipelining.
            let mut chunk = [0u8; 16 * 1024];
            while !self.peer_closed && self.rbuf.len() - self.rpos < MAX_FRAME + 4 {
                match self.stream.read(&mut chunk) {
                    Ok(0) => self.peer_closed = true,
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // The connection is gone in both directions.
                    Err(_) => {
                        self.closing = true;
                        break;
                    }
                }
            }
            progressed |= self.collect_job();
            // Execute every complete frame, one at a time. Anything in
            // flight pauses execution — later requests stay buffered until
            // the stream's closing EST or the job's response goes out — and
            // so does an output backlog, and a sweep of this connection's
            // store, checked before each frame (the previous one may have
            // been the COMPILE that attached to it) and only when there is
            // a frame to sit out.
            while !self.closing
                && self.inflight.is_none()
                && !self.backlogged()
                && self.frame_ready()
            {
                if self.store_being_swept() {
                    deferred = true;
                    break;
                }
                match self.next_frame() {
                    FrameStep::Need => break,
                    FrameStep::Dead => {
                        self.closing = true;
                        progressed = true;
                    }
                    FrameStep::Frame(payload) => {
                        progressed = true;
                        match Request::decode(&payload) {
                            Ok(req) => self.handle(req, state, jobs),
                            Err(ProtocolError::Malformed(m)) => {
                                // Malformed-but-framed: answer and carry on;
                                // the connection stays usable.
                                conn_obs().malformed.inc();
                                self.queue(&err(ErrorCode::Malformed, &m));
                            }
                            Err(_) => self.closing = true,
                        }
                    }
                }
            }
            if self.rpos > 0 {
                self.rbuf.drain(..self.rpos);
                self.rpos = 0;
            }
            if self.peer_closed && self.inflight.is_none() && !self.frame_ready() {
                // The peer closed its sending side and everything it
                // pipelined before that has been answered — nothing is held
                // back by a sweep or an output backlog: flush and go.
                self.closing = true;
            }
        }
        if self.closing {
            // The socket failed under a stream or a job: nobody will read
            // the rest, so end the stream, or drop the job's slot (the job
            // runs on and warms the store; its result is discarded).
            self.set_inflight(None);
        } else if matches!(self.inflight, Some(InFlight::Stream(_))) && !self.backlogged() {
            if self.store_being_swept() {
                deferred = true;
            } else {
                // Advance the live stream one refine step per pass. Each
                // step counts as progress, which resets the loop's
                // 50µs→5ms idle backoff — a converging subscription keeps
                // its loop hot.
                self.step_subscription();
                progressed = true;
            }
        }
        if deferred {
            conn_obs().deferred.inc();
        }
        let (flushed, open) = self.flush();
        progressed |= flushed;
        if !open {
            return ConnStatus { progressed, open: false, deferred };
        }
        if self.closing && self.wbuf.is_empty() {
            let _ = self.stream.shutdown(Shutdown::Both);
            return ConnStatus { progressed: true, open: false, deferred };
        }
        ConnStatus { progressed, open: true, deferred }
    }

    /// Whether this connection's session is attached to a store that has a
    /// sweep in flight — in which case touching the session could put the
    /// loop thread to sleep on the store lock for the sweep's duration.
    fn store_being_swept(&self) -> bool {
        self.session.as_ref().is_some_and(|s| s.compiled.shared.sweep_in_flight())
    }

    /// Install or clear what is in flight, keeping the
    /// `jigsaw_subscriptions_live` gauge in step with every transition
    /// into and out of a stream (the remaining leak path — a connection
    /// dying with a stream open — is covered by [`Conn`]'s `Drop`).
    fn set_inflight(&mut self, next: Option<InFlight>) {
        let is_stream = |f: &Option<InFlight>| matches!(f, Some(InFlight::Stream(_)));
        match (is_stream(&self.inflight), is_stream(&next)) {
            (false, true) => conn_obs().subs_live.add(1),
            (true, false) => conn_obs().subs_live.add(-1),
            _ => {}
        }
        self.inflight = next;
    }

    /// Hand a long verb to the loop's runner and pause until it reports
    /// back. `job` owns the session meanwhile.
    fn offload(&mut self, verb: &'static str, t0: Instant, job: Job, jobs: &JobQueue) {
        let slot = jobs.submit(job);
        self.set_inflight(Some(InFlight::Job(PendingJob { verb, t0, slot })));
    }

    /// If the pending job has finished, take the session back and queue its
    /// response. Returns whether anything happened.
    fn collect_job(&mut self) -> bool {
        let Some(InFlight::Job(job)) = &self.inflight else { return false };
        let (session, response) = match job.slot.try_recv() {
            Err(TryRecvError::Empty) => return false,
            Ok(done) => (done.session, done.response),
            // The runner dropped the job unrun, which it only does once
            // the server is shutting down.
            Err(TryRecvError::Disconnected) => {
                (None, err(ErrorCode::Exec, "request dropped: the server is shutting down"))
            }
        };
        let (verb, t0) = (job.verb, job.t0);
        self.session = session;
        self.set_inflight(None);
        self.queue(&response);
        conn_obs().request_done(verb, t0);
        true
    }

    /// Open a `SUBSCRIBE` stream: validate, answer the tier-0 interval
    /// immediately (no simulation beyond the fingerprint head), and either
    /// close with the final `EST` on the spot or leave the subscription for
    /// the pump passes to refine.
    fn handle_subscribe(&mut self, point: usize, col: usize, eps: f64) {
        if self.version < 2 {
            self.queue(&err(
                ErrorCode::Unsupported,
                &format!("SUBSCRIBE requires protocol version 2 (negotiated {})", self.version),
            ));
            return;
        }
        let Some(sess) = &mut self.session else {
            self.queue(&err(ErrorCode::State, "compile a scenario first (COMPILE <script>)"));
            return;
        };
        let space_len = sess.compiled.scenario.space.len();
        let n_cols = sess.compiled.scenario.columns.len();
        if point >= space_len {
            self.queue(&err(
                ErrorCode::State,
                &format!("point {point} out of range 0..{space_len}"),
            ));
            return;
        }
        if col >= n_cols {
            self.queue(&err(ErrorCode::State, &format!("column {col} out of range 0..{n_cols}")));
            return;
        }
        // Tier 0: touch (fingerprint head + basis match) and report the
        // analytic bound before any refinement happens.
        match sess.session.estimate_now(point, col) {
            Err(e) => self.queue(&err(ErrorCode::Exec, &e.to_string())),
            Ok(est) => {
                self.queue(&Response::Interval {
                    point,
                    col,
                    n_samples: est.n_samples,
                    lo_bits: est.lo.to_bits(),
                    hi_bits: est.hi.to_bits(),
                });
                if est.width() <= eps {
                    // Served within ε with zero completion simulations.
                    self.queue(&estimated(point, col, &est));
                } else {
                    let last = (est.n_samples, est.lo.to_bits(), est.hi.to_bits());
                    let sub = Subscription { point, col, eps, last };
                    self.set_inflight(Some(InFlight::Stream(sub)));
                }
            }
        }
    }

    /// One refine step of the live subscription; closes the stream with
    /// the final `EST` on convergence, budget exhaustion, or error. The
    /// bits of that `EST` equal a blocking `ESTIMATE` of the same refined
    /// state — both read the same running-intersection bound.
    fn step_subscription(&mut self) {
        let Some(InFlight::Stream(mut sub)) = self.inflight else { return };
        let Some(sess) = &mut self.session else {
            self.set_inflight(None);
            return;
        };
        let before = sess.session.worlds_evaluated;
        match sess.session.refine_once(sub.point, sub.col) {
            Err(e) => {
                self.set_inflight(None);
                self.queue(&err(ErrorCode::Exec, &e.to_string()));
            }
            Ok(est) => {
                let exhausted = sess.session.worlds_evaluated == before;
                if est.width() <= sub.eps || exhausted {
                    self.set_inflight(None);
                    self.queue(&estimated(sub.point, sub.col, &est));
                } else {
                    let now = (est.n_samples, est.lo.to_bits(), est.hi.to_bits());
                    if now != sub.last {
                        sub.last = now;
                        self.queue(&Response::Interval {
                            point: sub.point,
                            col: sub.col,
                            n_samples: est.n_samples,
                            lo_bits: est.lo.to_bits(),
                            hi_bits: est.hi.to_bits(),
                        });
                    }
                    self.inflight = Some(InFlight::Stream(sub));
                }
            }
        }
    }

    /// Execute one decoded request: a long verb with a session to run on
    /// goes to the runner (its response, and its place in the per-verb
    /// instruments, follow when the job reports back); everything else
    /// executes here and now.
    fn handle(&mut self, req: Request, state: &Arc<ServerState>, jobs: &JobQueue) {
        let verb = req.verb();
        let t0 = Instant::now();
        let long = matches!(
            req,
            Request::Sweep | Request::Tick { .. } | Request::Save { .. } | Request::Load { .. }
        );
        if long {
            if let Some(sess) = self.session.take() {
                self.offload(verb, t0, long_job(sess, req, verb, Arc::clone(state)), jobs);
                return;
            }
        }
        let span = jigsaw_obs::span!("conn.request", verb = verb);
        self.handle_inline(req, state);
        drop(span);
        conn_obs().request_done(verb, t0);
    }

    /// Execute one short request on the loop thread, queueing its response.
    fn handle_inline(&mut self, req: Request, state: &ServerState) {
        let resp = match req {
            Request::Hello { version } => {
                self.version = version.min(PROTOCOL_VERSION);
                Response::Welcome { version: self.version }
            }
            Request::Subscribe { point, col, eps_bits } => {
                self.handle_subscribe(point, col, f64::from_bits(eps_bits));
                return;
            }
            Request::Quit => {
                self.queue(&Response::Bye);
                self.closing = true;
                return;
            }
            // Session-independent (no COMPILE needed): the snapshot is
            // process-wide, not per-scenario. An oversized rendering is
            // handled like any other response — `queue` substitutes a
            // typed `ERR exec` frame.
            Request::Metrics => {
                if self.version < 3 {
                    err(
                        ErrorCode::Unsupported,
                        &format!(
                            "METRICS requires protocol version 3 (negotiated {})",
                            self.version
                        ),
                    )
                } else {
                    Response::Metrics { text: jigsaw_obs::global().snapshot().render_prometheus() }
                }
            }
            // Attaching takes no store lock, so this is safe on the loop
            // thread even while that store is being swept.
            Request::Compile { src } => match Compiled::build(state, &src) {
                Err(e) => e,
                Ok(compiled) => {
                    let resp = Response::Compiled {
                        points: compiled.scenario.space.len(),
                        columns: compiled.scenario.columns.clone(),
                    };
                    // The session shares the store with every other client
                    // of this scenario; SessionConfig::from_jigsaw keeps its
                    // fingerprints and refinement ceiling aligned with
                    // sweep-built bases.
                    let session = InteractiveSession::attach(
                        Arc::clone(&compiled.sim) as Arc<dyn jigsaw_pdb::Simulation>,
                        SessionConfig::from_jigsaw(&state.cfg),
                        compiled.shared.clone(),
                    );
                    self.session = Some(Session { compiled, session });
                    resp
                }
            },
            other => match &mut self.session {
                None => err(ErrorCode::State, "compile a scenario first (COMPILE <script>)"),
                Some(sess) => handle_session(sess, other),
            },
        };
        self.queue(&resp);
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        // A connection can die mid-stream (socket error, shutdown): keep
        // the live-subscription gauge honest.
        self.set_inflight(None);
    }
}

/// Execute a short session-scoped request (`FOCUS`, `ESTIMATE`, `STATS`).
fn handle_session(sess: &mut Session, req: Request) -> Response {
    let compiled = &sess.compiled;
    let session = &mut sess.session;
    let space_len = compiled.scenario.space.len();
    let n_cols = compiled.scenario.columns.len();
    match req {
        Request::Focus { point } => {
            if point >= space_len {
                err(ErrorCode::State, &format!("point {point} out of range 0..{space_len}"))
            } else {
                session.set_focus(point);
                Response::Focused { point }
            }
        }
        Request::Estimate { point, col } => {
            if point >= space_len {
                err(ErrorCode::State, &format!("point {point} out of range 0..{space_len}"))
            } else if col >= n_cols {
                err(ErrorCode::State, &format!("column {col} out of range 0..{n_cols}"))
            } else {
                match session.estimate_now(point, col) {
                    Ok(est) => estimated(point, col, &est),
                    Err(e) => err(ErrorCode::Exec, &e.to_string()),
                }
            }
        }
        Request::Stats => Response::Stats {
            bases: session.basis_counts(),
            touched: session.touched_points(),
            warm_hits: session.warm_hits,
            worlds: session.worlds_evaluated,
            generation: compiled.shared.generation(),
        },
        _ => unreachable!("handled before session dispatch"),
    }
}

/// Package a long verb (`SWEEP`, `TICK`, `SAVE`, `LOAD`) for the runner.
/// Called on the loop thread: a sweep's in-flight mark goes up *here*,
/// before the job is queued, so every later frame this loop looks at
/// already sees it. The closure lowers it only after the sweep has
/// released the store lock — or when it is dropped unrun.
fn long_job(mut sess: Session, req: Request, verb: &'static str, state: Arc<ServerState>) -> Job {
    let mark = matches!(req, Request::Sweep).then(|| sess.compiled.shared.announce_sweep());
    Box::new(move || {
        let span = jigsaw_obs::span!("conn.request", verb = verb);
        let resp = run_long(&mut sess, req, &state);
        drop(span);
        drop(mark);
        (sess, resp)
    })
}

/// Execute a long verb. Runs on the job runner thread, never on a loop.
fn run_long(sess: &mut Session, req: Request, state: &ServerState) -> Response {
    let compiled = &sess.compiled;
    let session = &mut sess.session;
    let n_cols = compiled.scenario.columns.len();
    match req {
        Request::Sweep => {
            let cfg = Arc::clone(&state.cfg);
            let pool = Arc::clone(&state.pool);
            let sim = Arc::clone(&compiled.sim);
            // World evaluation dominates a sweep and runs outside any
            // per-shard probe; holding the store lock for the sweep
            // serializes concurrent sweeps of one scenario, which is
            // exactly what makes the second one all warm hits.
            match compiled.shared.with_store_mut(move |stores| {
                SweepRunner::new(cfg).pool(pool).store(stores).run(&*sim)
            }) {
                Ok(result) => {
                    let obs = conn_obs();
                    obs.sweep_points.add(result.stats.points as u64);
                    obs.sweep_warm_hits.add(result.stats.warm_hits as u64);
                    obs.sweep_worlds.add(result.stats.worlds_evaluated);
                    Response::Swept {
                        points: result.stats.points,
                        worlds: result.stats.worlds_evaluated,
                        full_sims: result.stats.full_simulations,
                        reused: result.stats.reused,
                        warm_hits: result.stats.warm_hits,
                        bases: result.stats.bases_per_column.clone(),
                    }
                }
                Err(e) => err(ErrorCode::Exec, &e.to_string()),
            }
        }
        Request::Tick { count } => {
            if count > MAX_TICKS_PER_REQUEST {
                err(
                    ErrorCode::State,
                    &format!("tick count {count} exceeds the {MAX_TICKS_PER_REQUEST} cap"),
                )
            } else {
                match (0..count).try_for_each(|_| session.tick().map(|_| ())) {
                    Ok(()) => Response::Ticked { ticks: count, worlds: session.worlds_evaluated },
                    Err(e) => err(ErrorCode::Exec, &e.to_string()),
                }
            }
        }
        // SAVE/LOAD names are scoped per scenario — both in the
        // filename and in the snapshot header's family string — so one
        // scenario's snapshot can neither clobber nor load into
        // another's store.
        Request::Save { name } => match &state.snapshot_dir {
            None => err(ErrorCode::Unsupported, "server has no --snapshot-dir"),
            Some(dir) => {
                match compiled.shared.to_snapshot_bytes(&state.cfg, &snapshot_family(&compiled.key))
                {
                    Err(e) => err(ErrorCode::Snapshot, &e.to_string()),
                    Ok(bytes) => {
                        let path = dir.join(snapshot_filename(&name, &compiled.key));
                        match write_atomic(&path, &bytes) {
                            Err(e) => err(ErrorCode::Snapshot, &e.to_string()),
                            Ok(()) => {
                                state.mark_persisted(compiled.key.clone(), path);
                                Response::Saved { name, bytes: bytes.len() }
                            }
                        }
                    }
                }
            }
        },
        Request::Load { name } => match &state.snapshot_dir {
            None => err(ErrorCode::Unsupported, "server has no --snapshot-dir"),
            Some(dir) => {
                let path = dir.join(snapshot_filename(&name, &compiled.key));
                match std::fs::read(&path) {
                    Err(e) => err(ErrorCode::Snapshot, &e.to_string()),
                    Ok(bytes) => {
                        let t0 = Instant::now();
                        let parsed = ShardedBasisStore::from_snapshot_bytes(
                            &bytes,
                            &state.cfg,
                            Arc::new(ScopedAffine(snapshot_family(&compiled.key))),
                            n_cols,
                        );
                        conn_obs().snapshot_load_us.record_duration(t0.elapsed());
                        match parsed {
                            Err(e) => err(ErrorCode::Snapshot, &e.to_string()),
                            Ok(store) => {
                                let bases = store.bases_per_column();
                                // Bumps the store generation: every attached
                                // session drops its stale basis links at its
                                // next touch/tick.
                                compiled.shared.replace(store);
                                state.mark_persisted(compiled.key.clone(), path);
                                Response::Loaded { name, bases }
                            }
                        }
                    }
                }
            }
        },
        _ => unreachable!("only long verbs are packaged as jobs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::job_channel;
    use crate::protocol::{recv_response, send_request};
    use crate::JigsawServer;
    use std::net::TcpListener;
    use std::sync::mpsc::channel;
    use std::thread::JoinHandle;

    const SRC: &str = "DECLARE PARAMETER @p AS RANGE 0 TO 9 STEP BY 1; \
         SELECT Synth8(@p) AS out INTO results;";

    /// A connection driven by hand: server state, a job runner that wakes
    /// the test thread, the server-side [`Conn`] and the client socket.
    struct Bench {
        state: Arc<ServerState>,
        jobs: JobQueue,
        runner: JoinHandle<()>,
        conn: Conn,
        client: TcpStream,
    }

    fn bench() -> Bench {
        let state = JigsawServer::builder().bind("127.0.0.1:0").expect("bind").state;
        let (jobs, runner) = job_channel(usize::MAX);
        let (wake, st) = (std::thread::current(), Arc::clone(&state));
        let runner = std::thread::spawn(move || runner.run(wake, &st));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind pair");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let conn = Conn::new(listener.accept().expect("accept").0).expect("adopt");
        Bench { state, jobs, runner, conn, client }
    }

    impl Bench {
        /// Send `reqs`, pump until as many replies have come back.
        fn exchange(&mut self, reqs: &[Request]) -> Vec<Response> {
            for req in reqs {
                send_request(&mut self.client, req).expect("send");
            }
            self.replies(reqs.len())
        }

        /// Pump the connection until the client has read `n` replies.
        fn replies(&mut self, n: usize) -> Vec<Response> {
            let mut client = self.client.try_clone().expect("clone");
            let reader = std::thread::spawn(move || {
                (0..n)
                    .map(|_| recv_response(&mut client).expect("read").expect("reply"))
                    .collect::<Vec<_>>()
            });
            while !reader.is_finished() {
                assert!(self.conn.pump(&self.state, &self.jobs).open);
                std::thread::yield_now();
            }
            reader.join().expect("reader")
        }

        fn finish(self) {
            drop(self.jobs);
            self.runner.join().expect("runner exits when its queue is dropped");
        }
    }

    #[test]
    fn a_panicking_job_costs_the_session_not_the_runner() {
        let mut b = bench();
        let compiled = b.exchange(&[Request::Compile { src: SRC.into() }]);
        assert!(matches!(compiled[0], Response::Compiled { .. }));

        // A long verb whose closure panics while it owns the session.
        let sess = b.conn.session.take().expect("compiled");
        let boom = Box::new(move || -> (Session, Response) {
            let _owned = sess;
            panic!("deliberate test panic")
        });
        b.conn.offload("SWEEP", Instant::now(), boom, &b.jobs);
        // The panic is answered, typed; the session is gone, so the next
        // session verb is refused — and it was held back until then.
        send_request(&mut b.client, &Request::Stats).expect("send");
        let replies = b.replies(2);
        match &replies[0] {
            Response::Error { code: ErrorCode::Exec, message } => {
                assert!(message.contains("deliberate test panic"), "{message}")
            }
            other => panic!("expected ERR exec, got {other:?}"),
        }
        match &replies[1] {
            Response::Error { code: ErrorCode::State, message } => {
                assert!(message.contains("compile a scenario first"), "{message}")
            }
            other => panic!("expected ERR state, got {other:?}"),
        }
        assert!(b.conn.session.is_none() && b.conn.inflight.is_none());

        // The same runner serves the next job.
        let again = b.exchange(&[Request::Compile { src: SRC.into() }, Request::Tick { count: 1 }]);
        assert!(matches!(again[0], Response::Compiled { .. }));
        assert!(matches!(again[1], Response::Ticked { ticks: 1, .. }), "{:?}", again[1]);
        b.finish();
    }

    #[test]
    fn only_a_complete_frame_is_deferred_behind_a_sweep() {
        let mut b = bench();
        let compiled = b.exchange(&[Request::Compile { src: SRC.into() }]);
        assert!(matches!(compiled[0], Response::Compiled { .. }));
        let store = b.conn.session.as_ref().expect("compiled").compiled.shared.clone();
        let mark = store.announce_sweep();

        let mut frame = Vec::new();
        send_request(&mut frame, &Request::Stats).expect("encode");
        let (head, tail) = frame.split_at(frame.len() - 1);
        // All but the last byte: nothing to sit out yet.
        b.client.write_all(head).expect("write head");
        while b.conn.rbuf.len() < head.len() {
            assert!(!b.conn.pump(&b.state, &b.jobs).deferred);
        }
        assert!(!b.conn.pump(&b.state, &b.jobs).deferred);
        // The whole frame: held back until the mark drops.
        b.client.write_all(tail).expect("write tail");
        while b.conn.rbuf.len() < frame.len() {
            b.conn.pump(&b.state, &b.jobs);
        }
        assert!(b.conn.pump(&b.state, &b.jobs).deferred);
        drop(mark);
        assert!(matches!(b.replies(1)[0], Response::Stats { .. }));
        b.finish();
    }

    #[test]
    fn a_paused_connection_stops_reading_at_one_maximal_frame() {
        let mut b = bench();
        let compiled = b.exchange(&[Request::Compile { src: SRC.into() }]);
        assert!(matches!(compiled[0], Response::Compiled { .. }));
        // Pause the connection behind a job that runs until released.
        let (release, released) = channel::<()>();
        let sess = b.conn.session.take().expect("compiled");
        let held = Box::new(move || {
            released.recv().ok();
            (sess, Response::Bye)
        });
        b.conn.offload("SWEEP", Instant::now(), held, &b.jobs);

        // The client pipelines 3 MiB behind it, never reading.
        let mut flood = Vec::new();
        while flood.len() < 3 * MAX_FRAME {
            send_request(&mut flood, &Request::Stats).expect("encode");
        }
        let mut writer = b.client.try_clone().expect("clone");
        let flooding = std::thread::spawn(move || writer.write_all(&flood));

        let buffered = |conn: &Conn| conn.rbuf.len() - conn.rpos;
        while buffered(&b.conn) < MAX_FRAME + 4 {
            assert!(b.conn.pump(&b.state, &b.jobs).open);
            std::thread::yield_now();
        }
        // At the cap the connection reads nothing more, pass after pass.
        let at_cap = buffered(&b.conn);
        for _ in 0..200 {
            assert!(b.conn.pump(&b.state, &b.jobs).open);
            std::thread::yield_now();
        }
        assert_eq!(buffered(&b.conn), at_cap, "a paused connection at the cap reads no more");
        assert!(at_cap < MAX_FRAME + 4 + 16 * 1024, "one maximal frame plus one read chunk");

        release.send(()).expect("release the job");
        let Bench { jobs, runner, conn, .. } = b;
        drop(conn); // hang up: the blocked writer fails out
        let _ = flooding.join().expect("writer thread");
        drop(jobs);
        runner.join().expect("runner");
    }

    #[test]
    fn a_client_that_never_reads_cannot_grow_the_write_buffer() {
        let mut b = bench();
        let hello = b.exchange(&[Request::Hello { version: 3 }]);
        assert_eq!(hello[0], Response::Welcome { version: 3 });
        let scrape = match b.exchange(&[Request::Metrics]).remove(0) {
            Response::Metrics { text } => text.len(),
            other => panic!("expected METRICS, got {other:?}"),
        };
        // Enough tiny requests that their replies outweigh the bound many
        // times over — and whatever the loopback socket buffers absorb.
        let bound = 2 * (MAX_FRAME + 4);
        let n = 8 * bound / scrape + 1;
        let mut burst = Vec::new();
        for _ in 0..n {
            send_request(&mut burst, &Request::Metrics).expect("encode");
        }
        send_request(&mut burst, &Request::Hello { version: 3 }).expect("encode");
        b.client.write_all(&burst).expect("pipeline");

        for pass in 0..200 {
            assert!(b.conn.pump(&b.state, &b.jobs).open);
            assert!(b.conn.wbuf.len() <= bound, "pass {pass}: {} bytes queued", b.conn.wbuf.len());
        }
        assert!(b.conn.frame_ready(), "the backlog holds requests back");

        // Once the client reads, every reply arrives, in order.
        let replies = b.replies(n + 1);
        assert!(replies[..n].iter().all(|r| matches!(r, Response::Metrics { .. })));
        assert_eq!(replies[n], Response::Welcome { version: 3 });
        b.finish();
    }
}
