//! Server assembly: the builder, the shared state, the acceptor, and one
//! blocking thread per connection.
//!
//! An **acceptor thread** (`jigsaw-accept`) blocks in `accept()`; each
//! accepted connection gets a thread of its own (`jigsaw-conn-<n>`) that
//! blocks in `read` until its client sends a frame, executes it, writes the
//! reply, and reads again (see [`crate::conn`]; a connection whose client
//! keeps answering within the spin budget polls briefly before it blocks,
//! on at most [`SpinSlots`]' share of the cores). The kernel does the rest:
//! a thread wakes when bytes arrive, a client that stops reading blocks
//! only its own thread, and a quiet server costs no CPU. The traffic this
//! server sees — a handful of interactive clients, a few hundred in the
//! soak and connection-ladder gates — is far inside what threads handle.
//!
//! A sweep runs on its client's thread and scatters its worlds on the
//! shared [`PersistentPool`], so its parallelism comes from the pool, not
//! from connections; the store lock serializes concurrent sweeps of one
//! scenario anyway (that serialization is exactly what makes the second
//! sweep all warm hits), and a client of the scenario being swept waits on
//! that lock on its own thread while every other client is served.
//!
//! The acceptor tracks each live connection's socket and thread, which is
//! what lets [`ServerHandle::shutdown`] unblock and join them all.

use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use jigsaw_core::basis::snapshot::write_atomic;
use jigsaw_core::basis::{StoreKey, StoreRegistry};
use jigsaw_core::{JigsawConfig, PersistentPool};
use jigsaw_obs::event;
use jigsaw_pdb::Catalog;

use crate::conn::SpinSlots;
use crate::default_catalog;

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

/// The live connections, as the acceptor registered them.
#[derive(Default)]
struct Conns {
    /// Set once by [`ServerHandle::shutdown`]; nothing registers after it.
    closed: bool,
    next_id: u64,
    /// Each connection's socket, shared with its thread (shutdown unblocks
    /// the thread through it), and the thread (`None` for the instant
    /// between registration and spawn). A connection thread removes its
    /// own entry when it ends.
    live: HashMap<u64, (Arc<TcpStream>, Option<JoinHandle<()>>)>,
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
    /// Caps the connection threads polling their sockets at once.
    pub(crate) spin: SpinSlots,
    conns: Mutex<Conns>,
}

impl ServerState {
    /// Record that `key`'s store lives at `path` on disk, so shutdown can
    /// re-snapshot it.
    pub(crate) fn mark_persisted(&self, key: StoreKey, path: PathBuf) {
        self.persisted.lock().expect("persisted map poisoned").insert(key, path);
    }

    /// Re-snapshot every store with a recorded on-disk home. Called at
    /// shutdown, once no connection can be writing a store, so a restart
    /// resumes warm.
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

    fn conns(&self) -> std::sync::MutexGuard<'_, Conns> {
        self.conns.lock().expect("connection table poisoned")
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
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            cfg: JigsawConfig::paper(),
            master_seed: 2024,
            snapshot_dir: None,
            catalog_name: "default".into(),
            catalog: None,
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

    /// Bind to `addr` (use port 0 for an ephemeral loopback port),
    /// producing a bound-but-not-yet-serving [`JigsawServer`].
    pub fn bind(self, addr: impl ToSocketAddrs) -> std::io::Result<JigsawServer> {
        self.cfg.validate();
        if let Some(dir) = &self.snapshot_dir {
            std::fs::create_dir_all(dir)?;
        }
        let listener = TcpListener::bind(addr)?;
        let state = ServerState {
            pool: Arc::new(PersistentPool::new(self.cfg.effective_threads())),
            catalog: Arc::new(self.catalog.unwrap_or_else(default_catalog)),
            cfg: Arc::new(self.cfg),
            master_seed: self.master_seed,
            snapshot_dir: self.snapshot_dir,
            catalog_name: self.catalog_name,
            registry: StoreRegistry::new(),
            persisted: Mutex::new(HashMap::new()),
            spin: SpinSlots::new(),
            conns: Mutex::new(Conns::default()),
        };
        Ok(JigsawServer { listener, state: Arc::new(state) })
    }
}

/// A bound-but-not-yet-serving session server (see [`Self::builder`]).
pub struct JigsawServer {
    listener: TcpListener,
    pub(crate) state: Arc<ServerState>,
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

    /// Spawn the acceptor and start serving. The returned handle stops the
    /// server on [`ServerHandle::shutdown`] or waits forever on
    /// [`ServerHandle::join`].
    pub fn serve(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let state = Arc::clone(&self.state);
        let acceptor = std::thread::Builder::new()
            .name("jigsaw-accept".into())
            .spawn(move || accept_loop(self.listener, self.state))?;
        Ok(ServerHandle { addr, state, acceptor })
    }
}

/// The acceptor: register every accepted connection and give it a thread,
/// until [`ServerHandle::shutdown`] closes the table.
fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    let g = jigsaw_obs::global();
    let accepts = g.counter("jigsaw_accepts_total", &[]);
    let live = g.gauge("jigsaw_conns_live", &[]);
    loop {
        let accepted = listener.accept();
        let mut conns = state.conns();
        if conns.closed {
            // Shutdown's wake-up connection, or a client racing it.
            return;
        }
        let Ok((stream, _)) = accepted else {
            // Transient (a peer gone before accept) or resource exhaustion
            // (out of descriptors): retry shortly rather than spin.
            drop(conns);
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        let stream = Arc::new(stream);
        let id = conns.next_id;
        conns.next_id += 1;
        conns.live.insert(id, (Arc::clone(&stream), None));
        drop(conns);
        accepts.inc();
        live.add(1);
        event!("server.accept", conn = id);
        let (st, gone) = (Arc::clone(&state), live.clone());
        let spawned =
            std::thread::Builder::new().name(format!("jigsaw-conn-{id}")).spawn(move || {
                crate::conn::serve(stream, &st);
                st.conns().live.remove(&id);
                gone.add(-1);
            });
        match spawned {
            // A thread that already ended removed its entry, and its
            // handle has nothing left to join.
            Ok(thread) => {
                if let Some(entry) = state.conns().live.get_mut(&id) {
                    entry.1 = Some(thread);
                }
            }
            // No thread, no connection: the failed spawn dropped its
            // share of the stream and the table drops the other, which
            // closes it.
            Err(_) => {
                state.conns().live.remove(&id);
                live.add(-1);
            }
        }
    }
}

/// Where to connect to reach a listener bound to `addr`: itself, or
/// loopback when bound to an unspecified address.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// A handle to a running server (see [`JigsawServer::serve`]).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: JoinHandle<()>,
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

    /// Stop the server gracefully: shut down every connection's socket
    /// (each thread's blocked read or next write fails, ending it), wake
    /// the acceptor with a connection of its own and join it, join every
    /// connection thread — a sweep in flight finishes first — and only then
    /// re-snapshot every store with an on-disk home (`SAVE`d or `LOAD`ed),
    /// when nothing can be writing a store any more, so a restart resumes
    /// warm.
    pub fn shutdown(self) -> std::io::Result<()> {
        event!("server.shutdown");
        {
            let mut conns = self.state.conns();
            conns.closed = true;
            for (socket, _) in conns.live.values() {
                let _ = socket.shutdown(Shutdown::Both);
            }
        }
        let _ = TcpStream::connect(wake_addr(self.addr));
        let _ = self.acceptor.join();
        // The acceptor is gone, so every registered thread has its handle.
        let threads: Vec<_> = self.state.conns().live.drain().filter_map(|(_, c)| c.1).collect();
        for thread in threads {
            let _ = thread.join();
        }
        self.state.resnapshot_persisted()
    }

    /// Block until the server stops (it only stops on
    /// [`ServerHandle::shutdown`], so this is the serve-forever mode of the
    /// `jigsaw-server` binary).
    pub fn join(self) {
        let _ = self.acceptor.join();
    }
}
