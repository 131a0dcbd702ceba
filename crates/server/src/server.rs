//! Server assembly: the builder, the shared state, and the readiness-driven
//! connection loops.
//!
//! The server runs a small, fixed set of **event-loop threads**
//! ([`ServerBuilder::conn_threads`]), each multiplexing many nonblocking
//! connections instead of dedicating an OS thread per client. Loop 0 also
//! owns the (nonblocking) listener and deals accepted connections round-robin
//! across the loops; every loop then repeatedly *pumps* its connections —
//! flush pending output, read what the socket has, execute any complete
//! frames — and parks only when a full pass made no progress, backing off
//! exponentially from 50µs (invisible next to a single world evaluation)
//! to ~5ms while the quiet spell lasts, and snapping back to the floor on
//! any readiness.
//!
//! A loop thread only ever runs *short* verbs. Beside each loop runs one
//! **job runner** thread (`jigsaw-job-<i>`, see [`crate::jobs`]) that
//! executes that loop's long verbs — sweeps, ticks, snapshot saves and
//! loads — one at a time in arrival order, and unparks the loop when one
//! finishes; so a sweep delays its own client (and, through the store
//! lock, other clients of the same scenario), never the rest of the loop.
//! A sweep's parallelism comes from the shared [`PersistentPool`], not from
//! runners or loops, and the store lock serializes concurrent sweeps of
//! one scenario anyway (that serialization is exactly what makes the
//! second sweep all warm hits).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use jigsaw_core::basis::snapshot::write_atomic;
use jigsaw_core::basis::{StoreKey, StoreRegistry};
use jigsaw_core::{JigsawConfig, PersistentPool};
use jigsaw_obs::event;
use jigsaw_pdb::Catalog;

use crate::conn::Conn;
use crate::default_catalog;
use crate::jobs::{job_channel, JobQueue};

/// The mapping family every server store is built on.
pub(crate) const FAMILY: &str = "affine";

/// FNV-1a 64 over a string (scenario identity inside store keys and
/// snapshot scoping) — the workspace's one content hash.
pub(crate) fn fnv64(s: &str) -> u64 {
    jigsaw_core::basis::content_hash64(s.as_bytes())
}

/// The family name written into (and demanded from) this key's snapshot
/// headers: the base family plus the scenario scope. Bases are only
/// meaningful for the simulation that produced them, so a snapshot saved
/// under one scenario must refuse — with a typed `ConfigMismatch` — to
/// load into another, even if someone copies the file across names.
pub(crate) fn snapshot_family(key: &StoreKey) -> String {
    format!("{FAMILY}+{:016x}", fnv64(&key.scope))
}

/// The on-disk file for a `SAVE`/`LOAD` name under this key. The scope hash
/// in the filename keeps two scenarios' same-named snapshots from
/// clobbering each other (and from being re-snapshotted into one path in
/// arbitrary order at shutdown).
pub(crate) fn snapshot_filename(name: &str, key: &StoreKey) -> String {
    format!("{name}-{:016x}.snap", fnv64(&key.scope))
}

/// State shared by every connection: the catalog, the configuration, the
/// worker pool, and the warm-store registry.
pub struct ServerState {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) cfg: Arc<JigsawConfig>,
    /// Master seed for scenario simulations. All clients share it — that
    /// is what makes their Monte Carlo worlds, and therefore their
    /// fingerprints and bases, interchangeable.
    pub(crate) master_seed: u64,
    /// Directory for `SAVE`/`LOAD` snapshots; `None` disables both
    /// commands (and the shutdown re-snapshot).
    pub(crate) snapshot_dir: Option<PathBuf>,
    /// Catalog name, folded into every store key.
    pub(crate) catalog_name: String,
    /// The worker pool every sweep scatters on — sized to the configured
    /// thread budget, spawned once at bind, shared by all connections.
    pub(crate) pool: Arc<PersistentPool>,
    pub(crate) registry: StoreRegistry,
    /// Stores that have been `SAVE`d (or `LOAD`ed), and where — these are
    /// re-snapshotted on shutdown so a restart resumes warm.
    pub(crate) persisted: Mutex<HashMap<StoreKey, PathBuf>>,
    shutdown: AtomicBool,
}

impl ServerState {
    /// Record that `key`'s store lives at `path` on disk, so shutdown can
    /// re-snapshot it.
    pub(crate) fn mark_persisted(&self, key: StoreKey, path: PathBuf) {
        self.persisted.lock().expect("persisted map poisoned").insert(key, path);
    }

    /// Re-snapshot every store with a recorded on-disk home. Called on
    /// `SAVE` (for the one store) and at shutdown (for all of them), so the
    /// disk copy never lags the warm in-memory store by more than the work
    /// done since the last call.
    pub(crate) fn resnapshot_persisted(&self) -> std::io::Result<()> {
        let persisted = self.persisted.lock().expect("persisted map poisoned");
        for (key, path) in persisted.iter() {
            let Some(store) = self.registry.get(key) else { continue };
            let bytes = store
                .to_snapshot_bytes(&self.cfg, &snapshot_family(key))
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            write_atomic(path, &bytes)?;
        }
        Ok(())
    }

    /// Whether [`ServerHandle::shutdown`] has begun.
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Fluent configuration for a [`JigsawServer`] (start from
/// [`JigsawServer::builder`]). Every knob has a production default; tests
/// and binaries override only what they need:
///
/// ```ignore
/// let handle = JigsawServer::builder()
///     .config(JigsawConfig::paper().with_threads(4))
///     .snapshot_dir("/var/lib/jigsaw")
///     .bind("127.0.0.1:0")?
///     .serve()?;
/// println!("listening on {}", handle.local_addr());
/// handle.shutdown()?;
/// ```
pub struct ServerBuilder {
    cfg: JigsawConfig,
    master_seed: u64,
    snapshot_dir: Option<PathBuf>,
    catalog_name: String,
    catalog: Option<Catalog>,
    conn_threads: usize,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            cfg: JigsawConfig::paper(),
            master_seed: 2024,
            snapshot_dir: None,
            catalog_name: "default".into(),
            catalog: None,
            conn_threads: 1,
        }
    }
}

impl ServerBuilder {
    /// The sweep/session configuration every client runs under. Part of
    /// basis identity: the store registry keys on its
    /// [`config_fingerprint`](jigsaw_core::basis::config_fingerprint), so
    /// all clients of one server share warm stores by construction.
    pub fn config(mut self, cfg: JigsawConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Master seed for scenario simulations (default 2024). Shared by all
    /// clients, which is what makes their worlds — and bases —
    /// interchangeable.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Enable `SAVE`/`LOAD` (and the shutdown re-snapshot) under this
    /// directory.
    pub fn snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Catalog name, folded into every store key (default `"default"`).
    pub fn catalog_name(mut self, name: impl Into<String>) -> Self {
        self.catalog_name = name.into();
        self
    }

    /// The model catalog scenarios compile against (default:
    /// [`default_catalog`]).
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Number of connection event-loop threads (default 1). Each loop
    /// multiplexes many nonblocking connections and comes with one job
    /// runner thread for its long verbs, so this is also how many sweeps,
    /// ticks and snapshot saves/loads can execute at once; short verbs are
    /// never held up by a long one, whatever the count.
    pub fn conn_threads(mut self, threads: usize) -> Self {
        self.conn_threads = threads.max(1);
        self
    }

    /// Bind to `addr` (use port 0 for an ephemeral loopback port),
    /// producing a bound-but-not-yet-serving [`JigsawServer`].
    pub fn bind(self, addr: impl ToSocketAddrs) -> std::io::Result<JigsawServer> {
        self.cfg.validate();
        if let Some(dir) = &self.snapshot_dir {
            std::fs::create_dir_all(dir)?;
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let state = ServerState {
            pool: Arc::new(PersistentPool::new(self.cfg.effective_threads())),
            catalog: Arc::new(self.catalog.unwrap_or_else(default_catalog)),
            cfg: Arc::new(self.cfg),
            master_seed: self.master_seed,
            snapshot_dir: self.snapshot_dir,
            catalog_name: self.catalog_name,
            registry: StoreRegistry::new(),
            persisted: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        };
        Ok(JigsawServer { listener, state: Arc::new(state), conn_threads: self.conn_threads })
    }
}

/// A bound-but-not-yet-serving session server (see [`Self::builder`]).
pub struct JigsawServer {
    listener: TcpListener,
    pub(crate) state: Arc<ServerState>,
    conn_threads: usize,
}

impl JigsawServer {
    /// Start configuring a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// The bound address (needed when binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawn the event loops, and a job runner beside each, and start
    /// serving. The returned handle stops the server on
    /// [`ServerHandle::shutdown`] or waits forever on [`ServerHandle::join`].
    pub fn serve(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let state = self.state;
        let mut loops = Vec::with_capacity(self.conn_threads);
        let mut runners = Vec::with_capacity(self.conn_threads);
        let mut spawn_loop = |i: usize, listener, peers, rx| -> std::io::Result<()> {
            let (jobs, runner) = job_channel(i);
            let st = Arc::clone(&state);
            let event_loop = std::thread::Builder::new()
                .name(format!("jigsaw-conn-{i}"))
                .spawn(move || event_loop(i, listener, peers, rx, jobs, &st))?;
            let wake = event_loop.thread().clone();
            let st = Arc::clone(&state);
            loops.push(event_loop);
            runners.push(
                std::thread::Builder::new()
                    .name(format!("jigsaw-job-{i}"))
                    .spawn(move || runner.run(wake, &st))?,
            );
            Ok(())
        };
        let mut peers: Vec<Sender<Conn>> = Vec::new();
        for i in 1..self.conn_threads {
            let (tx, rx) = std::sync::mpsc::channel();
            peers.push(tx);
            spawn_loop(i, None, Vec::new(), Some(rx))?;
        }
        spawn_loop(0, Some(self.listener), peers, None)?;
        Ok(ServerHandle { addr, state, loops, runners })
    }
}

/// One readiness loop: accept (loop 0 only), adopt handed-over connections,
/// pump everything, park briefly when idle.
fn event_loop(
    loop_ix: usize,
    listener: Option<TcpListener>,
    peers: Vec<Sender<Conn>>,
    rx: Option<Receiver<Conn>>,
    jobs: JobQueue,
    state: &Arc<ServerState>,
) {
    // Loop-layer instruments: accept rate (loop 0 only in practice), the
    // process-wide live-connection gauge, pump-pass latency over non-empty
    // connection lists, and this loop's current idle backoff.
    let g = jigsaw_obs::global();
    let accepts = g.counter("jigsaw_accepts_total", &[]);
    let live = g.gauge("jigsaw_conns_live", &[]);
    let pump_us = g.histogram("jigsaw_pump_pass_us", &[]);
    let backoff = g.gauge("jigsaw_idle_backoff_us", &[("loop", &loop_ix.to_string())]);
    event!("server.loop_start", loop_ix = loop_ix);
    let mut conns: Vec<Conn> = Vec::new();
    // Round-robin seat for the next accepted connection: 0 is this loop,
    // 1..=peers.len() the other loops.
    let mut next_seat = 0usize;
    // Idle backoff: the first idle pass parks 50µs (invisible next to a
    // world evaluation); consecutive idle passes double the park up to
    // ~5ms, so a quiet server costs ~200 wakeups/s per loop instead of
    // 20000. Any readiness resets to the floor, keeping first-byte
    // latency on a busy connection unchanged. The park is a
    // `park_timeout`, so this loop's job runner cuts it short the moment a
    // job finishes; sockets still wait it out.
    const IDLE_FLOOR: Duration = Duration::from_micros(50);
    const IDLE_CEIL: Duration = Duration::from_micros(5_000);
    let mut idle_park = IDLE_FLOOR;
    while !state.is_shutting_down() {
        let mut progress = false;
        // Whether some connection sat out work because its store is being
        // swept (see `ConnStatus::deferred`).
        let mut deferred = false;
        if let Some(listener) = &listener {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progress = true;
                        accepts.inc();
                        live.add(1);
                        event!("server.accept", seat = next_seat);
                        let Ok(conn) = Conn::new(stream) else {
                            live.add(-1);
                            continue;
                        };
                        if next_seat == 0 {
                            conns.push(conn);
                        } else if let Err(back) = peers[next_seat - 1].send(conn) {
                            // Peer already gone (shutdown race): keep it here.
                            conns.push(back.0);
                        }
                        next_seat = (next_seat + 1) % (peers.len() + 1);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        if let Some(rx) = &rx {
            while let Ok(conn) = rx.try_recv() {
                conns.push(conn);
                progress = true;
            }
        }
        if !conns.is_empty() {
            // Time only non-empty passes: an idle loop's empty sweeps
            // would otherwise bury the latency signal in zeros.
            let t0 = std::time::Instant::now();
            conns.retain_mut(|conn| {
                let status = conn.pump(state, &jobs);
                progress |= status.progressed;
                deferred |= status.deferred;
                if !status.open {
                    live.add(-1);
                }
                status.open
            });
            pump_us.record_duration(t0.elapsed());
        }
        if !progress {
            // Nothing moved on any connection: park, backing off while the
            // quiet spell lasts — except while a connection is deferred:
            // the sweep it waits for may end on another loop's runner,
            // which wakes nobody here, so stay at the floor.
            std::thread::park_timeout(idle_park);
            idle_park = if deferred { IDLE_FLOOR } else { (idle_park * 2).min(IDLE_CEIL) };
        } else {
            idle_park = IDLE_FLOOR;
        }
        backoff.set(if progress { 0 } else { idle_park.as_micros() as i64 });
    }
    // Shutdown drops whatever connections this loop still held.
    live.add(-(conns.len() as i64));
    event!("server.loop_stop", loop_ix = loop_ix, conns = conns.len());
}

/// A handle to a running server (see [`JigsawServer::serve`]).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    loops: Vec<JoinHandle<()>>,
    runners: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of shared stores currently registered.
    pub fn store_count(&self) -> usize {
        self.state.registry.len()
    }

    /// Stop the server gracefully: flag the event loops down (each notices
    /// within one poll pass, closing its connections) and join them; join
    /// the job runners, each of which finishes the job it is executing and
    /// drops the ones still queued; only then re-snapshot every store with
    /// an on-disk home (`SAVE`d or `LOAD`ed) — nothing can be writing a
    /// store by then — so a restart resumes warm.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        event!("server.shutdown");
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.join_threads();
        self.state.resnapshot_persisted()
    }

    /// Block until the server stops (it only stops on
    /// [`ServerHandle::shutdown`], so this is the serve-forever mode of the
    /// `jigsaw-server` binary).
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Loops first: a runner stops when its loop has dropped the job queue.
    fn join_threads(&mut self) {
        for handle in self.loops.drain(..).chain(self.runners.drain(..)) {
            let _ = handle.join();
        }
    }
}
