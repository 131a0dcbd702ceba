//! One client connection: its read–execute–write loop and command state
//! machine.
//!
//! Every accepted connection runs [`serve`] on a blocking thread of its own
//! (see [`crate::server`]). The thread reads one frame, executes it, writes
//! the reply — or, for `SUBSCRIBE`, the stream of replies — and only then
//! reads the next frame, so per-client request/response ordering (and with
//! it the golden transcripts) is program order. Before `COMPILE` only the
//! handshake, compilation, `METRICS` and `QUIT` are meaningful; after it,
//! the connection owns a compiled scenario, a simulation, and an
//! [`InteractiveSession`] *attached to the shared basis store* for that
//! scenario's registry key. `COMPILE` may be issued again at any time to
//! switch scenarios (the old session detaches, the store stays warm in the
//! registry for the next client).
//!
//! Long verbs (`SWEEP`, `TICK`, `SAVE`, `LOAD`) run on this thread like any
//! other; a sweep scatters its worlds on the server's one shared pool. The
//! failure model follows from one thread per client executing at most one
//! frame at a time:
//!
//! - a client that never reads blocks only its own thread, in `write`;
//! - a client that pipelines without reading is pushed back by TCP once
//!   its thread's receive buffer (8 KiB) and the socket's are full;
//! - a client of a scenario that is being swept waits on the store lock on
//!   its own thread, and nobody else waits;
//! - a half-closed client (`printf … | nc`) gets every reply, because its
//!   thread sees the EOF only after answering every frame sent before it;
//! - a client that goes away mid-sweep loses the reply, not the work: the
//!   sweep finishes and the store stays warm.
//!
//! Every frame is read through the connection's receive buffer
//! ([`FrameBuf`]) by the one frame parser, so a frame that has fully arrived
//! costs one `read` and a frame already in the buffer — the second of two
//! pipelined requests — costs none.
//!
//! Waiting for the next frame costs a park and a wake when the thread
//! blocks in `read`, a few µs that a client sending request after request
//! pays on every one. So a **hot** connection — one whose last
//! [`HOT_STREAK`] frames each arrived within [`SPIN_BUDGET`] of the reply
//! before it — first fills its buffer with non-blocking reads, yielding
//! between them, for at most that budget, and only then blocks in `read`
//! like a cold one. That wait routine, [`spin`], is the one both ends of a
//! connection run: [`Client`](crate::Client) waits for its replies with it
//! too, on slots and a budget of its own. It bounds what polling can cost
//! others:
//!
//! - buffered bytes come first: a waiter whose buffer already holds bytes
//!   reads them at once, so a pipelined frame never waits on the socket;
//! - at most `available_parallelism − 1` threads (at least 1) poll at once,
//!   server-wide ([`SpinSlots`]); a hot connection that finds every slot
//!   taken blocks at once, so polling never takes the last core from a
//!   sweep or another request;
//! - a client with human think times, or with gaps longer than the budget,
//!   stays cold and never polls;
//! - the socket is blocking again before the frame is parsed, so every
//!   reply, however large, goes out through a blocking `write_all`;
//! - shutdown ends a polling thread as it ends a blocked one: the poll
//!   sees the shut socket's end of stream and hands over to `read`.
//!
//! A framing violation — an oversized length prefix, a non-UTF-8 payload, a
//! frame cut short by EOF — closes the connection without a reply; a
//! well-framed payload that does not parse is answered `ERR malformed` and
//! the connection stays open.

use std::io::ErrorKind;
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use jigsaw_core::basis::snapshot::write_atomic;
use jigsaw_core::basis::{config_fingerprint, SharedBasisStore, StoreKey};
use jigsaw_core::interactive::{Estimate, InteractiveSession, SessionConfig};
use jigsaw_core::{AffineFamily, ShardedBasisStore, SweepRunner};
use jigsaw_obs::{Counter, Gauge, Histogram};
use jigsaw_pdb::worlds::panic_message;
use jigsaw_pdb::{DbmsEngine, PlanSim};
use jigsaw_prng::SeedSet;
use jigsaw_sql::{compile, Scenario};

use crate::protocol::{
    write_frame, ErrorCode, FrameBuf, ProtocolError, Request, Response, MAX_FRAME,
    PROTOCOL_VERSION, VERBS,
};
use crate::server::{snapshot_family, snapshot_filename, snapshot_scope, ServerState, FAMILY};

/// Upper bound on `TICK` counts per request. The count is client input,
/// and every tick takes the scenario's store lock: an unbounded count would
/// let one request hold its connection, and contend with every other client
/// of the scenario, for as long as the client cared to ask.
pub const MAX_TICKS_PER_REQUEST: u32 = 10_000;

/// Upper bound on the points of a compiled scenario's space. A `SWEEP`
/// sizes its index and result vectors from the space before its first
/// world, and a failed allocation aborts the process past any
/// `catch_unwind`, so the cap is checked at `COMPILE`, where it bounds every
/// per-point allocation the server makes. The paper's largest space (E2's,
/// 8 788 points) fits over a hundred times.
pub const MAX_SPACE_POINTS: usize = 1 << 20;

/// How long a hot connection polls for its next frame before it blocks in
/// `read`, and the largest reply-to-next-frame gap that counts towards
/// [`HOT_STREAK`]. Measured on a 2-core host from the server's side (reply
/// written → next frame read), a closed-loop client with 30 µs think time
/// leaves gaps of ≈ 50 µs at the median and 70–90 µs at p99, so 100 µs
/// keeps 99 % of its waits hot; an open-loop client a few milliseconds
/// apart, or a human one, stays cold.
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// How many frames in a row must arrive within [`SPIN_BUDGET`] of their
/// replies before a connection's waits poll. An open-loop client sends some
/// requests close together by chance, and back to back while it catches up
/// after a slow reply; replayed on the gaps recorded from such a client
/// (Poisson, 2 ms apart), a rule of one short gap would have polled on
/// 1.5–4.3 % of its waits, a streak of three on 0.1–0.8 %, while a
/// closed-loop client's share falls only from 99.2 % to 98.5 %.
const HOT_STREAK: u32 = 3;

/// A cap on threads polling their sockets at once:
/// `available_parallelism − 1`, at least 1. Each server has one for its
/// connections, and a process has one for its clients.
pub(crate) struct SpinSlots {
    busy: AtomicUsize,
    cap: usize,
}

impl SpinSlots {
    pub(crate) fn new() -> SpinSlots {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        SpinSlots { busy: AtomicUsize::new(0), cap: cores.saturating_sub(1).max(1) }
    }

    /// A slot, if one is free; it is given back when the returned guard
    /// drops. The count publishes no other data, so it is `Relaxed`.
    fn take(&self) -> Option<SpinSlot<'_>> {
        self.busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < self.cap).then_some(n + 1))
            .ok()
            .map(|_| SpinSlot(self))
    }
}

struct SpinSlot<'a>(&'a SpinSlots);

impl Drop for SpinSlot<'_> {
    fn drop(&mut self) {
        self.0.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A socket switched to non-blocking mode, switched back on drop — on every
/// way out of a poll, so nothing is ever written to a non-blocking socket.
struct NonBlocking<'a>(&'a TcpStream);

impl<'a> NonBlocking<'a> {
    fn set(stream: &'a TcpStream) -> Option<NonBlocking<'a>> {
        stream.set_nonblocking(true).ok().map(|()| NonBlocking(stream))
    }
}

impl Drop for NonBlocking<'_> {
    fn drop(&mut self) {
        let _ = self.0.set_nonblocking(false);
    }
}

/// The one wait routine both ends of a connection run before they read a
/// frame through `frames`: true at once if the buffer already holds bytes;
/// otherwise, while holding one of `slots`, refill it with non-blocking
/// reads of `stream`, yielding the core between them, for at most `budget`.
/// True once a refill brought bytes, the end of the stream or a socket
/// error; false if the budget ran out or no slot (or no non-blocking mode)
/// was to be had — the caller then parks in a blocking read. Either way the
/// socket is blocking again on return.
pub(crate) fn spin(
    frames: &mut FrameBuf,
    stream: &TcpStream,
    slots: &SpinSlots,
    budget: Duration,
) -> bool {
    if !frames.is_empty() {
        return true;
    }
    let Some(_slot) = slots.take() else { return false };
    let Some(_nonblocking) = NonBlocking::set(stream) else { return false };
    let t0 = Instant::now();
    loop {
        match frames.fill(stream) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            _ => return true,
        }
        if t0.elapsed() >= budget {
            return false;
        }
        std::thread::yield_now();
    }
}

/// Cached handles for the connection layer's instruments (registered once,
/// updated lock-free). The per-verb counter and latency histogram are
/// bumped together at a single site ([`ConnObs::request_done`]: when the
/// final response is ready, before it is written), so
/// `jigsaw_requests_total{verb=V} == jigsaw_request_us_count{verb=V}`
/// holds by construction, mid-sweep included — a CI-checked invariant.
struct ConnObs {
    /// `(verb, jigsaw_requests_total{verb=}, jigsaw_request_us{verb=})`.
    verbs: Vec<(&'static str, Counter, Histogram)>,
    /// Framed-but-unparseable requests (answered `ERR malformed`, so they
    /// appear in no per-verb series).
    malformed: Counter,
    /// Frames read, by how their wait ended: `how="spun"` when a poll saw
    /// the frame arrive, `how="parked"` when the thread waited for it in a
    /// blocking `read` (a cold connection, no free slot, or a budget run
    /// out). Every frame read is decoded into a request or counted
    /// malformed, so `spun + parked` equals `Σ jigsaw_requests_total +
    /// jigsaw_requests_malformed_total` plus the requests still in flight.
    waits_spun: Counter,
    waits_parked: Counter,
    /// Live `SUBSCRIBE` streams across all connections.
    subs_live: Gauge,
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
            waits_spun: g.counter("jigsaw_conn_waits_total", &[("how", "spun")]),
            waits_parked: g.counter("jigsaw_conn_waits_total", &[("how", "parked")]),
            subs_live: g.gauge("jigsaw_subscriptions_live", &[]),
            sweep_points: g.counter("jigsaw_sweep_points_total", &[]),
            sweep_warm_hits: g.counter("jigsaw_sweep_warm_hits_total", &[]),
            sweep_worlds: g.counter("jigsaw_sweep_worlds_total", &[]),
            snapshot_load_us: g.histogram("jigsaw_store_snapshot_load_us", &[]),
        }
    })
}

impl ConnObs {
    /// Account one answered request: decoded at `t0`, final response ready
    /// now.
    fn request_done(&self, verb: &str, t0: Instant) {
        if let Some((_, reqs, lat)) = self.verbs.iter().find(|(v, _, _)| *v == verb) {
            reqs.inc();
            lat.record_duration(t0.elapsed());
        }
    }
}

/// One open `SUBSCRIBE` stream in `jigsaw_subscriptions_live`. Lowered on
/// drop, so a stream that ends in an error, a failed write or a panic
/// leaves the gauge honest too.
struct LiveStream;

impl LiveStream {
    fn open() -> LiveStream {
        conn_obs().subs_live.add(1);
        LiveStream
    }
}

impl Drop for LiveStream {
    fn drop(&mut self) {
        conn_obs().subs_live.add(-1);
    }
}

/// A compiled scenario and everything hanging off it.
struct Compiled {
    scenario: Scenario,
    sim: Arc<PlanSim>,
    key: StoreKey,
    /// The [`snapshot_scope`] its `SAVE`/`LOAD` files are named under.
    snapshot_scope: String,
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
        let points = scenario.space.len();
        if points > MAX_SPACE_POINTS {
            return Err(err(
                ErrorCode::Compile,
                &format!("the space has {points} points, over the {MAX_SPACE_POINTS}-point cap"),
            ));
        }
        // The tuple-bundle engine: it samples the same worlds as the
        // row-at-a-time `DirectEngine` at a quarter of the cost per world
        // on a refine step's 10-world window (see `jigsaw_pdb::exec`).
        let sim = scenario.simulation(
            Arc::new(DbmsEngine::new()),
            Arc::clone(&state.catalog),
            SeedSet::new(state.master_seed),
        );
        // Bases are only meaningful for the simulation that produced them,
        // so the scope is the *parsed* scenario's text (whitespace-
        // insensitive) under the catalog name; the config fingerprint covers
        // every knob that affects basis identity. Clients compiling the same
        // scenario under the same server therefore share one store, and no
        // two scenarios ever do.
        let script = format!("{:?}", scenario.script);
        let snapshot_scope = snapshot_scope(&state.catalog_name, &script);
        let key = StoreKey {
            scope: format!("{}:{script}", state.catalog_name),
            config_fp: config_fingerprint(&state.cfg, FAMILY),
        };
        let n_cols = scenario.columns.len();
        let cfg = Arc::clone(&state.cfg);
        let shared = state.registry.get_or_create(key.clone(), || {
            SharedBasisStore::new(n_cols, &cfg, Arc::new(AffineFamily))
        });
        Ok(Compiled { scenario, sim: Arc::new(sim), key, snapshot_scope, shared })
    }

    /// `ERR state` when `point` (or `col`, if given) is out of range.
    fn check_range(&self, point: usize, col: Option<usize>) -> Result<(), Response> {
        let space_len = self.scenario.space.len();
        let n_cols = self.scenario.columns.len();
        if point >= space_len {
            return Err(err(
                ErrorCode::State,
                &format!("point {point} out of range 0..{space_len}"),
            ));
        }
        match col {
            Some(c) if c >= n_cols => {
                Err(err(ErrorCode::State, &format!("column {c} out of range 0..{n_cols}")))
            }
            _ => Ok(()),
        }
    }
}

fn err(code: ErrorCode, message: &str) -> Response {
    Response::Error { code, message: message.to_string() }
}

fn no_session() -> Response {
    err(ErrorCode::State, "compile a scenario first (COMPILE <script>)")
}

/// The wire form of an estimate, bit-exact (including the anytime bound).
fn estimated(point: usize, col: usize, est: &Estimate) -> Response {
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

/// The streamed form of an estimate's anytime bound.
fn interval(point: usize, col: usize, est: &Estimate) -> Response {
    Response::Interval {
        point,
        col,
        n_samples: est.n_samples,
        lo_bits: est.lo.to_bits(),
        hi_bits: est.hi.to_bits(),
    }
}

/// Write one response frame. An oversized payload is replaced by a short
/// typed error frame — truncating the length prefix would silently desync
/// every frame after it.
fn send(mut stream: &TcpStream, resp: &Response) -> Result<(), ProtocolError> {
    let mut payload = resp.encode();
    if payload.len() > MAX_FRAME {
        payload = err(ErrorCode::Exec, "response exceeds the frame size limit").encode();
    }
    write_frame(&mut stream, &payload)
}

/// A connection's compiled scenario plus the interactive session attached
/// to its shared store.
struct Session {
    compiled: Compiled,
    session: InteractiveSession,
}

/// One client connection, owned by its thread.
struct Conn {
    /// Shared with the server's connection table, through which shutdown
    /// unblocks this thread.
    stream: Arc<TcpStream>,
    /// Every frame is read through this buffer.
    frames: FrameBuf,
    /// `None` before `COMPILE`, and after a request panicked.
    session: Option<Session>,
    /// When the last reply was written (`None` before the first).
    replied: Option<Instant>,
    /// How many frames in a row arrived within [`SPIN_BUDGET`] of the
    /// reply before them; a connection starts cold, at 0.
    short_gaps: u32,
}

/// Serve one accepted connection on the calling thread until the peer
/// closes it, sends `QUIT` or violates the framing, or the socket fails
/// (which is how server shutdown ends a connection). None of those owes
/// the peer anything more, so every way out just closes the socket.
pub(crate) fn serve(stream: Arc<TcpStream>, state: &ServerState) {
    // Small request/response frames interact with Nagle and delayed ACK
    // into tens-of-milliseconds round trips.
    let _ = stream.set_nodelay(true);
    let mut conn = Conn::new(stream);
    let _ = conn.run(state);
    let _ = conn.stream.shutdown(Shutdown::Both);
}

impl Conn {
    fn new(stream: Arc<TcpStream>) -> Conn {
        Conn { stream, frames: FrameBuf::new(), session: None, replied: None, short_gaps: 0 }
    }

    /// Read a frame, execute it, write its reply; repeat until a clean EOF
    /// or `QUIT`. Any error — a framing violation or a failed read or
    /// write — ends the connection.
    fn run(&mut self, state: &ServerState) -> Result<(), ProtocolError> {
        while let Some(payload) = self.next_frame(state)? {
            let req = match Request::decode(&payload) {
                Ok(req) => req,
                Err(ProtocolError::Malformed(m)) => {
                    // Malformed-but-framed: answer and carry on.
                    conn_obs().malformed.inc();
                    self.reply(&err(ErrorCode::Malformed, &m))?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let quit = matches!(req, Request::Quit);
            let verb = req.verb();
            let resp = self.accounted(verb, |conn| conn.execute(req, state))?;
            self.reply(&resp)?;
            if quit {
                break;
            }
        }
        Ok(())
    }

    /// Wait for the next frame and read it: a hot connection polls first
    /// (see the module docs), then the one frame parser reads it through
    /// the connection's buffer from the blocking socket. Counts the frame in
    /// `jigsaw_conn_waits_total` and recomputes hotness from its gap to the
    /// last reply.
    fn next_frame(&mut self, state: &ServerState) -> Result<Option<String>, ProtocolError> {
        let spun = self.short_gaps >= HOT_STREAK
            && spin(&mut self.frames, &self.stream, &state.spin, SPIN_BUDGET);
        let frame = self.frames.read_frame(&*self.stream)?;
        if frame.is_some() {
            let obs = conn_obs();
            let waits = if spun { &obs.waits_spun } else { &obs.waits_parked };
            waits.inc();
            self.short_gaps = match self.replied {
                Some(t) if t.elapsed() <= SPIN_BUDGET => self.short_gaps.saturating_add(1),
                _ => 0,
            };
        }
        Ok(frame)
    }

    /// Write a request's final response and note when it went out.
    fn reply(&mut self, resp: &Response) -> Result<(), ProtocolError> {
        send(&self.stream, resp)?;
        self.replied = Some(Instant::now());
        Ok(())
    }

    /// Run `exec` as one request of `verb` — traced, timed and counted —
    /// and return its final response. It is counted even when `exec` fails
    /// (a `SUBSCRIBE` whose client went away mid-stream), so every decoded
    /// frame is counted once. A panic is answered `ERR exec` and costs the
    /// connection its session (the unwind may have left it half updated),
    /// so the next session verb draws `ERR state`; the connection itself
    /// keeps serving.
    fn accounted(
        &mut self,
        verb: &'static str,
        exec: impl FnOnce(&mut Conn) -> Result<Response, ProtocolError>,
    ) -> Result<Response, ProtocolError> {
        let t0 = Instant::now();
        let span = jigsaw_obs::span!("conn.request", verb = verb);
        let resp = match catch_unwind(AssertUnwindSafe(|| exec(self))) {
            Ok(resp) => resp,
            Err(payload) => {
                self.session = None;
                Ok(err(ErrorCode::Exec, &format!("request panicked: {}", panic_message(payload))))
            }
        };
        drop(span);
        conn_obs().request_done(verb, t0);
        resp
    }

    /// Execute one decoded request, returning its final response (only a
    /// `SUBSCRIBE` writes frames of its own before that).
    fn execute(&mut self, req: Request, state: &ServerState) -> Result<Response, ProtocolError> {
        Ok(match req {
            Request::Hello { version } if version == PROTOCOL_VERSION => {
                Response::Welcome { version }
            }
            Request::Hello { version } => err(
                ErrorCode::Unsupported,
                &format!(
                    "protocol version {version}: this server speaks version {PROTOCOL_VERSION}"
                ),
            ),
            Request::Subscribe { point, col, eps_bits } => {
                return self.subscribe(point, col, f64::from_bits(eps_bits));
            }
            Request::Quit => Response::Bye,
            // Session-independent (no COMPILE needed): the snapshot is
            // process-wide, not per-scenario. An oversized rendering is
            // handled like any other response — `send` substitutes a typed
            // `ERR exec` frame.
            Request::Metrics => {
                Response::Metrics { text: jigsaw_obs::global().snapshot().render_prometheus() }
            }
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
                    // sweep-built bases. Attaching takes no store lock, so
                    // it never waits out a sweep.
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
                None => no_session(),
                Some(sess) => handle_session(sess, other, state),
            },
        })
    }

    /// Serve a `SUBSCRIBE`: run the session's anytime loop
    /// ([`InteractiveSession::estimate_bounded`]), writing its tier-0 bound
    /// and then each refined bound that moved as an `INTERVAL`. The closing
    /// `EST` is returned; its bits equal a blocking `ESTIMATE` of the same
    /// refined state — both read the same running-intersection bound.
    fn subscribe(&mut self, point: usize, col: usize, eps: f64) -> Result<Response, ProtocolError> {
        let Some(sess) = &mut self.session else { return Ok(no_session()) };
        if let Err(e) = sess.compiled.check_range(point, Some(col)) {
            return Ok(e);
        }
        let _live = LiveStream::open();
        let stream = &self.stream;
        // Refine steps that do not move the bound write no frame, so a
        // slow-converging stream is not a wall of identical lines.
        let mut last = None;
        let mut failed = None;
        let bounded = sess.session.estimate_bounded(point, col, eps, |est| {
            let bound = Some((est.n_samples, est.lo.to_bits(), est.hi.to_bits()));
            if bound == last {
                return true;
            }
            last = bound;
            // A failed write means the client is gone: stop refining.
            send(stream, &interval(point, col, est)).map_err(|e| failed = Some(e)).is_ok()
        });
        if let Some(e) = failed {
            return Err(e);
        }
        Ok(match bounded {
            Ok(bounded) => estimated(point, col, &bounded.estimate),
            Err(e) => err(ErrorCode::Exec, &e.to_string()),
        })
    }
}

/// Execute a session-scoped request (`FOCUS`, `ESTIMATE`, `STATS`,
/// `SWEEP`, `TICK`, `SAVE`, `LOAD`).
fn handle_session(sess: &mut Session, req: Request, state: &ServerState) -> Response {
    let compiled = &sess.compiled;
    let session = &mut sess.session;
    match req {
        Request::Focus { point } => match compiled.check_range(point, None) {
            Err(e) => e,
            Ok(()) => {
                session.set_focus(point);
                Response::Focused { point }
            }
        },
        Request::Estimate { point, col } => match compiled.check_range(point, Some(col)) {
            Err(e) => e,
            Ok(()) => match session.estimate_now(point, col) {
                Ok(est) => estimated(point, col, &est),
                Err(e) => err(ErrorCode::Exec, &e.to_string()),
            },
        },
        Request::Stats => Response::Stats {
            bases: session.basis_counts(),
            touched: session.touched_points(),
            warm_hits: session.warm_hits,
            worlds: session.worlds_evaluated,
            generation: compiled.shared.generation(),
        },
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
                let scope = &compiled.snapshot_scope;
                match compiled.shared.to_snapshot_bytes(&state.cfg, &snapshot_family(scope)) {
                    Err(e) => err(ErrorCode::Snapshot, &e.to_string()),
                    Ok(bytes) => {
                        let path = dir.join(snapshot_filename(&name, scope));
                        match write_atomic(&path, &bytes) {
                            Err(e) => err(ErrorCode::Snapshot, &e.to_string()),
                            Ok(()) => {
                                state.mark_persisted(compiled.key.clone(), path, scope);
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
                let scope = &compiled.snapshot_scope;
                let path = dir.join(snapshot_filename(&name, scope));
                match std::fs::read(&path) {
                    Err(e) => err(ErrorCode::Snapshot, &e.to_string()),
                    Ok(bytes) => {
                        let t0 = Instant::now();
                        let parsed = ShardedBasisStore::from_snapshot_bytes(
                            &bytes,
                            &state.cfg,
                            Arc::new(ScopedAffine(snapshot_family(scope))),
                            compiled.scenario.columns.len(),
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
                                state.mark_persisted(compiled.key.clone(), path, scope);
                                Response::Loaded { name, bases }
                            }
                        }
                    }
                }
            }
        },
        _ => unreachable!("session-free verbs are handled before session dispatch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, recv_response, send_request};
    use crate::{JigsawServer, ServerHandle};
    use jigsaw_pdb::DirectEngine;
    use std::io::Write;
    use std::net::TcpListener;

    const SRC: &str = "DECLARE PARAMETER @p AS RANGE 0 TO 9 STEP BY 1; \
         SELECT Synth8(@p) AS out INTO results;";

    /// serve_subscribe's model on a smaller space (40 points).
    const DEMAND: &str = "DECLARE PARAMETER @week AS RANGE 0 TO 19 STEP BY 1; \
         DECLARE PARAMETER @feature AS SET (5, 12); \
         SELECT Demand(@week, @feature) AS demand INTO results;";

    /// A server-side connection and the client end of its socket.
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind pair");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let stream = Arc::new(listener.accept().expect("accept").0);
        (Conn::new(stream), client)
    }

    /// Execute one request on `conn`, as its serving thread would.
    fn request(conn: &mut Conn, state: &ServerState, req: Request) -> Response {
        conn.accounted(req.verb(), |c| c.execute(req, state)).expect("no socket I/O")
    }

    /// A connection to `state` with `DEMAND` compiled.
    fn open(state: &ServerState) -> (Conn, TcpStream) {
        let (mut conn, client) = pair();
        let compiled = request(&mut conn, state, Request::Compile { src: DEMAND.into() });
        assert!(matches!(compiled, Response::Compiled { points: 40, .. }), "{compiled:?}");
        (conn, client)
    }

    /// Re-seat the connection's compiled scenario on `DirectEngine`, the
    /// engine the server ran before `DbmsEngine`.
    fn run_on_direct(conn: &mut Conn, state: &ServerState) {
        let sess = conn.session.as_mut().expect("compiled");
        let sim = Arc::new(sess.compiled.scenario.simulation(
            Arc::new(DirectEngine::new()),
            Arc::clone(&state.catalog),
            SeedSet::new(state.master_seed),
        ));
        sess.session = InteractiveSession::attach(
            Arc::clone(&sim) as Arc<dyn jigsaw_pdb::Simulation>,
            SessionConfig::from_jigsaw(&state.cfg),
            sess.compiled.shared.clone(),
        );
        sess.compiled.sim = sim;
    }

    #[test]
    fn a_panicking_request_costs_the_session_not_the_connection() {
        let state = JigsawServer::builder().bind("127.0.0.1:0").expect("bind").state;
        let (mut conn, _client) = pair();
        assert!(matches!(
            request(&mut conn, &state, Request::Compile { src: SRC.into() }),
            Response::Compiled { .. }
        ));

        // A request that panics while the session is in use.
        let boom = conn.accounted("SWEEP", |_| panic!("deliberate test panic")).expect("answered");
        match boom {
            Response::Error { code: ErrorCode::Exec, message } => {
                assert!(message.contains("deliberate test panic"), "{message}")
            }
            other => panic!("expected ERR exec, got {other:?}"),
        }
        // The session is gone: the next session verb is refused…
        match request(&mut conn, &state, Request::Stats) {
            Response::Error { code: ErrorCode::State, message } => {
                assert!(message.contains("compile a scenario first"), "{message}")
            }
            other => panic!("expected ERR state, got {other:?}"),
        }
        // …and the connection compiles and works again.
        assert!(matches!(
            request(&mut conn, &state, Request::Compile { src: SRC.into() }),
            Response::Compiled { .. }
        ));
        let ticked = request(&mut conn, &state, Request::Tick { count: 1 });
        assert!(matches!(ticked, Response::Ticked { ticks: 1, .. }), "{ticked:?}");
    }

    #[test]
    fn an_oversized_space_is_a_compile_error_not_a_panic() {
        let state = JigsawServer::builder().bind("127.0.0.1:0").expect("bind").state;
        let (mut conn, _client) = pair();
        let src = "DECLARE PARAMETER @a AS RANGE 0 TO 4000000000 STEP BY 1; \
             DECLARE PARAMETER @b AS RANGE 0 TO 4000000000 STEP BY 1; \
             DECLARE PARAMETER @c AS RANGE 0 TO 4000000000 STEP BY 1; \
             SELECT Demand(@a, @b) AS demand INTO results;";
        match request(&mut conn, &state, Request::Compile { src: src.into() }) {
            Response::Error { code: ErrorCode::Compile, message } => {
                assert!(!message.contains("panicked"), "{message}");
                assert!(message.contains("more points"), "{message}");
            }
            other => panic!("expected ERR compile, got {other:?}"),
        }
        // The connection keeps serving.
        assert!(matches!(
            request(&mut conn, &state, Request::Compile { src: SRC.into() }),
            Response::Compiled { .. }
        ));
    }

    #[test]
    fn a_connective_over_a_number_is_a_compile_error() {
        // `AND` over a stochastic number has no one meaning across the
        // engines, so COMPILE refuses it with its type.
        let state = JigsawServer::builder().bind("127.0.0.1:0").expect("bind").state;
        let (mut conn, _client) = pair();
        let src = "DECLARE PARAMETER @w AS RANGE 0 TO 4 STEP BY 1; \
             SELECT Demand(@w, 2) AND TRUE AS flag INTO results;";
        match request(&mut conn, &state, Request::Compile { src: src.into() }) {
            Response::Error { code: ErrorCode::Compile, message } => {
                assert!(message.contains("`AND` needs boolean operands"), "{message}");
            }
            other => panic!("expected ERR compile, got {other:?}"),
        }
        assert!(matches!(
            request(&mut conn, &state, Request::Compile { src: SRC.into() }),
            Response::Compiled { .. }
        ));
    }

    /// A store key holds the scenario text itself, so distinct scenarios
    /// never share a store however their hashes fall, while snapshot names
    /// and headers keep the hashed scope they always had.
    #[test]
    fn distinct_scenarios_get_distinct_store_keys_that_hold_their_text() {
        let state = JigsawServer::builder().bind("127.0.0.1:0").expect("bind").state;
        let build = |src: &str| Compiled::build(&state, src).expect("compiles");
        let (a, b) = (build(SRC), build(DEMAND));
        assert_ne!(a.key, b.key);
        for c in [&a, &b] {
            let script = format!("{:?}", c.scenario.script);
            assert_eq!(c.key.scope, format!("default:{script}"));
            let hashed = format!("default:{:016x}", crate::server::fnv64(&script));
            assert_eq!(c.snapshot_scope, hashed);
            let scope_hash = crate::server::fnv64(&hashed);
            assert_eq!(
                snapshot_filename("warm", &c.snapshot_scope),
                format!("warm-{scope_hash:016x}.snap")
            );
            assert_eq!(snapshot_family(&c.snapshot_scope), format!("affine+{scope_hash:016x}"));
        }
        // The parsed text: whitespace does not make another scenario.
        assert_eq!(build(&SRC.replace("; ", ";\n  ")).key, a.key);
    }

    /// Every frame of one cold `SUBSCRIBE` on `DEMAND`, closing `EST`
    /// included, on a fresh server running the given engine.
    fn cold_stream(direct: bool) -> Vec<String> {
        let state = JigsawServer::builder().bind("127.0.0.1:0").expect("bind").state;
        let (mut conn, mut client) = open(&state);
        if direct {
            run_on_direct(&mut conn, &state);
        }
        let eps_bits = 0.5f64.to_bits();
        let closing = request(&mut conn, &state, Request::Subscribe { point: 9, col: 0, eps_bits });
        // Closing the server end lets the client read the streamed frames
        // up to a clean end of stream.
        drop(conn);
        let mut frames = Vec::new();
        while let Some(frame) = read_frame(&mut client).expect("a whole frame") {
            frames.push(frame);
        }
        frames.push(closing.encode());
        frames
    }

    #[test]
    fn a_cold_subscribe_stream_is_byte_identical_on_both_engines() {
        let dbms = cold_stream(false);
        assert!(dbms.len() >= 3, "a cold stream must refine, got {dbms:?}");
        assert!(dbms.last().is_some_and(|f| f.starts_with("EST ")), "{dbms:?}");
        assert_eq!(cold_stream(true), dbms);
    }

    /// A snapshot that a `DirectEngine` server saved loads into a server on
    /// `DbmsEngine`, which answers every warm `ESTIMATE` with the same
    /// bytes; and the new server's own sweep saves the very same file.
    #[test]
    fn a_direct_engine_snapshot_serves_bit_identically() {
        let dir = std::env::temp_dir().join(format!("jigsaw-engine-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("snapshot dir");
        let server =
            || JigsawServer::builder().snapshot_dir(&dir).bind("127.0.0.1:0").expect("bind");
        let estimates = |conn: &mut Conn, state: &ServerState| -> Vec<String> {
            (0..40)
                .map(|point| request(conn, state, Request::Estimate { point, col: 0 }).encode())
                .collect()
        };
        let sweep_and_save = |conn: &mut Conn, state: &ServerState, name: &str| {
            assert!(matches!(request(conn, state, Request::Sweep), Response::Swept { .. }));
            let saved = request(conn, state, Request::Save { name: name.into() });
            assert!(matches!(saved, Response::Saved { .. }), "{saved:?}");
        };

        let old = server().state;
        let (mut conn, _client) = open(&old);
        run_on_direct(&mut conn, &old);
        sweep_and_save(&mut conn, &old, "direct");
        let expected = estimates(&mut conn, &old);
        assert!(
            expected.iter().all(|e| e.starts_with("EST ") && e.contains(" basis ")),
            "{expected:?}"
        );

        let new = server().state;
        let (mut conn, _client) = open(&new);
        let loaded = request(&mut conn, &new, Request::Load { name: "direct".into() });
        assert!(matches!(loaded, Response::Loaded { .. }), "{loaded:?}");
        assert_eq!(estimates(&mut conn, &new), expected);

        let swept = server().state;
        let (mut conn, _client) = open(&swept);
        sweep_and_save(&mut conn, &swept, "dbms");
        let file = |name: &str| {
            let scope = &conn.session.as_ref().expect("compiled").compiled.snapshot_scope;
            std::fs::read(dir.join(snapshot_filename(name, scope))).expect("saved snapshot")
        };
        assert_eq!(file("dbms"), file("direct"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A serving server and its shared state.
    fn served() -> (ServerHandle, Arc<ServerState>) {
        let server = JigsawServer::builder().bind("127.0.0.1:0").expect("bind");
        let state = Arc::clone(&server.state);
        (server.serve().expect("serve"), state)
    }

    fn connect(handle: &ServerHandle) -> TcpStream {
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
    }

    fn ask(stream: &mut TcpStream, req: &Request) -> Response {
        send_request(stream, req).expect("send");
        recv_response(stream).expect("a whole reply").expect("a reply before EOF")
    }

    const WELCOME: Response = Response::Welcome { version: PROTOCOL_VERSION };

    /// Requests sent back to back, each as soon as the last was answered:
    /// the traffic that makes a connection hot, so that its next wait polls
    /// wherever the host answers within the budget.
    fn heat(stream: &mut TcpStream) {
        for _ in 0..=HOT_STREAK {
            assert_eq!(ask(stream, &Request::Hello { version: PROTOCOL_VERSION }), WELCOME);
        }
    }

    fn spinning(state: &ServerState) -> usize {
        state.spin.busy.load(Ordering::Relaxed)
    }

    /// Buffered bytes come first: a frame that arrived with the one before
    /// it is ready for the wait routine at once, even with every slot
    /// taken, so a pipelined request never waits on the socket.
    #[test]
    fn a_buffered_frame_is_ready_without_a_slot() {
        let (mut conn, mut client) = pair();
        let mut two = Vec::new();
        send_request(&mut two, &Request::Hello { version: PROTOCOL_VERSION }).expect("encode");
        send_request(&mut two, &Request::Stats).expect("encode");
        client.write_all(&two).expect("send both");
        let slots = SpinSlots::new();
        let _taken: Vec<_> = (0..slots.cap).map(|_| slots.take().expect("a free slot")).collect();
        let first = conn.frames.read_frame(&*conn.stream).expect("a whole frame");
        assert_eq!(first, Some(Request::Hello { version: PROTOCOL_VERSION }.encode()));
        assert!(spin(&mut conn.frames, &conn.stream, &slots, SPIN_BUDGET));
        let second = conn.frames.read_frame(&*conn.stream).expect("a whole frame");
        assert_eq!(second.as_deref(), Some("STATS"));
    }

    #[test]
    fn a_frame_split_by_a_pause_longer_than_the_budget_is_read_intact() {
        let (handle, state) = served();
        let mut client = connect(&handle);
        let mut frame = Vec::new();
        send_request(&mut frame, &Request::Hello { version: PROTOCOL_VERSION }).expect("encode");
        // Cut inside the length prefix, then inside the payload.
        for cut in [2, 6] {
            heat(&mut client);
            client.write_all(&frame[..cut]).expect("first half");
            std::thread::sleep(10 * SPIN_BUDGET);
            client.write_all(&frame[cut..]).expect("second half");
            let reply = recv_response(&mut client).expect("a whole reply");
            assert_eq!(reply, Some(WELCOME), "cut at byte {cut}");
        }
        handle.shutdown().expect("shutdown");
        assert_eq!(spinning(&state), 0);
    }

    /// A reply far larger than the socket buffers — a malformed request's
    /// error echoes its ≈ 900 KB verb — to a client that waits before it
    /// reads: the write blocks until the client drains it, which it may
    /// only because the socket is blocking again once a poll is over.
    #[test]
    fn a_reply_larger_than_the_socket_buffer_reaches_a_slow_reader_whole() {
        let (handle, state) = served();
        let mut client = connect(&handle);
        let verb = "X".repeat(MAX_FRAME - MAX_FRAME / 8);
        for _ in 0..2 {
            heat(&mut client);
            write_frame(&mut client, &verb).expect("send");
            std::thread::sleep(std::time::Duration::from_millis(50));
            match recv_response(&mut client).expect("a whole reply") {
                Some(Response::Error { code: ErrorCode::Malformed, message }) => {
                    assert!(message.contains(&verb), "the reply carries the whole verb")
                }
                other => panic!("expected ERR malformed, got {other:?}"),
            }
        }
        // The connection still serves.
        assert_eq!(ask(&mut client, &Request::Hello { version: PROTOCOL_VERSION }), WELCOME);
        handle.shutdown().expect("shutdown");
        assert_eq!(spinning(&state), 0);
    }

    /// Shutdown right after a reply to a hot connection, while its thread
    /// is most likely polling for the next frame: the thread ends, is
    /// joined, and gives its slot back.
    #[test]
    fn shutdown_joins_a_connection_that_is_polling() {
        let (handle, state) = served();
        let mut client = connect(&handle);
        heat(&mut client);
        handle.shutdown().expect("shutdown joins every connection thread");
        assert!(matches!(recv_response(&mut client), Ok(None) | Err(_)), "the server hung up");
        assert_eq!(spinning(&state), 0);
    }

    /// More hot clients than spin slots: every request is answered, no more
    /// threads poll at once than the cap allows, and none is left polling.
    #[test]
    fn more_hot_clients_than_slots_are_all_answered() {
        let (handle, state) = served();
        let clients = state.spin.cap + 2;
        std::thread::scope(|scope| {
            let running: Vec<_> = (0..clients)
                .map(|_| {
                    let mut client = connect(&handle);
                    scope.spawn(move || {
                        for _ in 0..50 {
                            heat(&mut client);
                        }
                    })
                })
                .collect();
            while running.iter().any(|c| !c.is_finished()) {
                assert!(spinning(&state) <= state.spin.cap);
                std::thread::yield_now();
            }
            for client in running {
                client.join().expect("every request answered");
            }
        });
        handle.shutdown().expect("shutdown");
        assert_eq!(spinning(&state), 0);
    }
}
