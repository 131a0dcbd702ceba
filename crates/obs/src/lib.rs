//! Observability substrate for the Jigsaw workspace: metrics + tracing.
//!
//! Like the `devtools/` proptest shim, this crate is
//! hand-rolled and dependency-free so the workspace keeps building fully
//! offline. It provides three things:
//!
//! 1. **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]) — a
//!    registry of atomic instruments whose update paths are lock-free
//!    (registration takes a mutex once; every `inc`/`record` afterwards is a
//!    handful of relaxed atomic ops), cheap enough for the optimizer's wave
//!    hot path. Latency histograms use fixed log2 buckets, so p50/p95/p99
//!    and the exact max are derivable from the buckets without storing
//!    samples.
//! 2. **Tracing** ([`span!`], [`event!`], [`trace`]) — lightweight
//!    structured spans recorded into a bounded ring buffer, with an
//!    env-gated (`JIGSAW_TRACE=1`) NDJSON sink to stderr replacing ad-hoc
//!    `eprintln!` diagnostics.
//! 3. **Exposition** ([`MetricsSnapshot`]) — a point-in-time copy of every
//!    instrument, rendered in Prometheus text format for the server's
//!    `METRICS` verb and `--metrics-dump`.
//!
//! # Determinism contract
//!
//! Everything here is observational: no instrument or span feeds back into
//! any computation, so sweep results, estimates, and wire transcripts are
//! byte-identical whether observability is enabled, disabled, or tracing to
//! stderr. CI enforces this with twin-run diffs under `JIGSAW_TRACE=1`.
//!
//! # Cost model
//!
//! A disabled instrument (after [`set_enabled`]`(false)`) costs one relaxed
//! atomic load and a branch; an enabled counter one `fetch_add`; an enabled
//! histogram three. A span whose sinks are off costs one relaxed load — the
//! field values are never formatted. Experiment E14 in `crates/bench` gates
//! the end-to-end overhead of the enabled instruments at under 2% against
//! this disabled baseline.
//!
//! ```
//! use jigsaw_obs::{global, span};
//!
//! let reqs = global().counter("demo_requests_total", &[("verb", "EST")]);
//! let lat = global().histogram("demo_latency_us", &[]);
//! {
//!     let _span = span!("demo.request", verb = "EST");
//!     reqs.inc();
//!     lat.record(17);
//! }
//! let text = global().snapshot().render_prometheus();
//! assert!(text.contains("demo_requests_total{verb=\"EST\"} 1"));
//! ```

#![warn(missing_docs)]

pub mod hist;
pub mod metrics;
pub mod trace;

pub use hist::{HistogramSnapshot, BUCKETS};
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use trace::{
    recent_spans, set_trace, set_trace_ring_only, trace_enabled, SpanGuard, TraceEvent,
    RING_CAPACITY,
};

use std::sync::OnceLock;

/// Enable or disable all recording through the [`global`] registry's
/// instruments. Disabled instruments keep their handles and current
/// values; updates become a single relaxed load + branch. This is the
/// "compiled to no-ops" baseline E14 measures overhead against, without
/// needing two binaries. Registries made with [`Registry::new`] have
/// their own independent switch ([`Registry::set_enabled`]).
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether recording through the [`global`] registry is enabled.
pub fn enabled() -> bool {
    global().enabled()
}

/// The process-global registry: every layer (executor, pool, basis store,
/// session, server) registers its instruments here so one
/// [`Registry::snapshot`] sees the whole system.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
