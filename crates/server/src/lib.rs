//! # jigsaw-server — multi-client what-if sessions over one warm basis store
//!
//! The single-process optimizer turned into a service: a dependency-free
//! TCP server (std only) that exposes scenario compilation, batch sweeps,
//! and interactive what-if sessions over a length-prefixed line protocol
//! ([`protocol`]). Every connection is served by a blocking thread of its
//! own, which reads a frame, executes it and writes the reply, so one
//! client's sweep (or a client that stops reading) never stalls another's.
//! Both ends of a connection read every frame through a receive buffer,
//! so a frame that has fully arrived costs one `read`, and wait for it
//! through one routine: a *hot* waiter polls its socket for a short budget
//! before it blocks in `read`, which spares a closed-loop exchange a park
//! and a wake per request on each end. A server connection is hot when its
//! client sent its last three requests each within 100 µs of a reply; a
//! [`Client`] is hot while its polls keep succeeding. Caps keep one core
//! free of polling threads, server-wide and client-wide, and
//! `jigsaw_conn_waits_total{how}` and `jigsaw_client_waits_total{how}`
//! count which way each frame's wait ended. A scenario of more than
//! [`MAX_SPACE_POINTS`] points is refused at `COMPILE`.
//! Every client connection compiles its scenario against the server's
//! model catalog and attaches to the **one shared warm
//! [`SharedBasisStore`](jigsaw_core::SharedBasisStore)** for that
//! `(catalog, scenario, config-fingerprint)` identity — so the Nth user's
//! queries resolve against Monte Carlo work the first user paid for, and
//! every sweep/session reports how much it rode warm (`warm_hits`).
//!
//! Scenarios run on the tuple-bundle
//! [`DbmsEngine`](jigsaw_pdb::DbmsEngine), which evaluates a window of
//! worlds column by column; the row-at-a-time
//! [`DirectEngine`](jigsaw_pdb::DirectEngine) samples the same worlds at
//! 3.5–5× the cost per world (measured in [`jigsaw_pdb::exec`]).
//!
//! Determinism carries over from the core: all clients share one master
//! seed, worlds are seed-addressed, and store mutations happen under the
//! store lock with world evaluation outside it — so estimates served over
//! the wire are **bit-identical** to a local
//! [`InteractiveSession`](jigsaw_core::InteractiveSession) over the same
//! scenario and warm store, on either engine (`tests/server_session.rs`
//! enforces this at thread budgets 1 and 4, under both worker pools, with
//! its local reference on `DirectEngine`). `SAVE`/`LOAD` bridge
//! the in-memory registry to PR 4's versioned snapshots: saved stores are
//! re-snapshotted at shutdown, so a restarted server resumes warm.
//!
//! ```no_run
//! use jigsaw_server::JigsawServer;
//!
//! let handle = JigsawServer::builder().bind("127.0.0.1:0").unwrap().serve().unwrap();
//! let transcript = jigsaw_server::client::run_script(
//!     handle.local_addr(),
//!     "COMPILE DECLARE PARAMETER @week AS RANGE 0 TO 9 STEP BY 1; \
//!      SELECT Demand(@week, @week) AS demand INTO results;\nSWEEP\nESTIMATE 3 0\nQUIT",
//! )
//! .unwrap();
//! println!("{transcript}");
//! handle.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod client;
mod conn;
pub mod protocol;
mod server;

pub use catalog::default_catalog;
pub use client::Client;
pub use conn::{MAX_SPACE_POINTS, MAX_TICKS_PER_REQUEST};
pub use protocol::{ErrorCode, ProtocolError, Request, Response, PROTOCOL_VERSION};
pub use server::{JigsawServer, ServerBuilder, ServerHandle};
