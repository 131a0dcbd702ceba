//! Lightweight structured tracing: spans and instant events.
//!
//! A span is opened with the [`span!`] macro and records itself when the
//! guard drops: name, formatted fields, wall-clock offset from process
//! start, and duration. Records go to a bounded in-process ring buffer
//! (for tests and post-mortem inspection) and, when the NDJSON sink is on,
//! to stderr as one JSON object per line. The sink is enabled by the
//! `JIGSAW_TRACE` environment variable (any non-empty value other than
//! `0`) or programmatically via [`set_trace`] (the server's `--trace`
//! flag).
//!
//! When tracing is off — the default — a span costs one relaxed atomic
//! load at open and one at drop; the fields are never formatted.

use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Capacity of the in-process ring buffer of recent trace events.
pub const RING_CAPACITY: usize = 4096;

/// Tracing switch. 0 = unresolved (consult `JIGSAW_TRACE` on first use),
/// 1 = off, 2 = on.
static TRACE: AtomicU32 = AtomicU32::new(0);

/// Whether the NDJSON sink (not just the ring buffer) is wanted; set
/// together with TRACE, split out so tests can capture the ring without
/// spamming stderr.
static SINK: AtomicBool = AtomicBool::new(true);

/// Whether tracing is enabled (ring buffer recording; NDJSON to stderr
/// unless the sink was turned off by [`set_trace_ring_only`]).
#[inline]
pub fn trace_enabled() -> bool {
    match TRACE.load(Ordering::Relaxed) {
        0 => resolve_from_env(),
        1 => false,
        _ => true,
    }
}

#[cold]
fn resolve_from_env() -> bool {
    let on = match std::env::var("JIGSAW_TRACE") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    };
    TRACE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Turn tracing on or off at runtime, overriding `JIGSAW_TRACE`.
pub fn set_trace(on: bool) {
    SINK.store(true, Ordering::Relaxed);
    TRACE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Turn tracing on but keep it out of stderr: events land in the ring
/// buffer only. Used by tests asserting on recorded spans.
pub fn set_trace_ring_only(on: bool) {
    SINK.store(false, Ordering::Relaxed);
    TRACE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Process start reference for event timestamps (first use wins; only
/// offsets between events are meaningful).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One recorded span or event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (`layer.verb` by convention, e.g. `wave.fingerprint`).
    pub name: &'static str,
    /// Pre-rendered JSON field fragment (`,"wave":3,"points":40` or empty).
    pub fields: String,
    /// Microseconds from process trace epoch to span open.
    pub start_us: u64,
    /// Span duration in microseconds (0 for instant events).
    pub dur_us: u64,
}

fn ring() -> &'static Mutex<VecDeque<TraceEvent>> {
    static RING: OnceLock<Mutex<VecDeque<TraceEvent>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(RING_CAPACITY)))
}

/// Copy of the ring buffer, oldest first. Empty unless tracing is (or
/// was) enabled.
pub fn recent_spans() -> Vec<TraceEvent> {
    ring().lock().unwrap().iter().cloned().collect()
}

fn record(event: TraceEvent) {
    if SINK.load(Ordering::Relaxed) {
        // One write_all per line keeps concurrent writers line-atomic
        // (stderr is unbuffered and POSIX appends are atomic for small
        // writes); ignore a broken stderr rather than panicking.
        let line = format!(
            "{{\"span\":\"{}\",\"start_us\":{},\"dur_us\":{}{}}}\n",
            event.name, event.start_us, event.dur_us, event.fields
        );
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
    let mut ring = ring().lock().unwrap();
    if ring.len() == RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(event);
}

/// A field value in a [`span!`]/[`event!`] invocation, rendered as JSON.
#[derive(Debug, Clone)]
pub enum Field {
    /// Unsigned integers (`u64`, `usize`, ...).
    U64(u64),
    /// Signed integers.
    I64(i64),
    /// Floats (rendered via `Display`; NaN/inf become JSON strings).
    F64(f64),
    /// Strings (escaped minimally: backslash, quote, newline).
    Str(String),
}

impl std::fmt::Display for Field {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Field::U64(v) => write!(f, "{v}"),
            Field::I64(v) => write!(f, "{v}"),
            Field::F64(v) if v.is_finite() => write!(f, "{v}"),
            Field::F64(v) => write!(f, "\"{v}\""),
            Field::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '\\' => f.write_str("\\\\")?,
                        '"' => f.write_str("\\\"")?,
                        '\n' => f.write_str("\\n")?,
                        c => std::fmt::Write::write_char(f, c)?,
                    }
                }
                f.write_str("\"")
            }
        }
    }
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $cast:ty),*) => {$(
        impl From<$t> for Field {
            fn from(v: $t) -> Field {
                Field::$variant(v as $cast)
            }
        }
    )*};
}
impl_field_from!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64, i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64, f32 => F64 as f64, f64 => F64 as f64
);

impl From<&str> for Field {
    fn from(v: &str) -> Field {
        Field::Str(v.to_string())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Field {
        Field::Str(v)
    }
}

impl From<bool> for Field {
    fn from(v: bool) -> Field {
        Field::U64(v as u64)
    }
}

/// RAII guard for an open span; records a [`TraceEvent`] on drop when
/// tracing is enabled. Construct with [`span!`], not directly.
pub struct SpanGuard {
    state: Option<TraceEvent>,
}

impl SpanGuard {
    /// Open a span. `build` appends the pre-rendered field fragment and is
    /// only invoked when tracing is enabled.
    #[doc(hidden)]
    pub fn new(name: &'static str, build: impl FnOnce(&mut String)) -> SpanGuard {
        if !trace_enabled() {
            return SpanGuard { state: None };
        }
        let start_us = since_epoch_us();
        let mut fields = String::new();
        build(&mut fields);
        SpanGuard { state: Some(TraceEvent { name, fields, start_us, dur_us: 0 }) }
    }

    /// Record an instant event (a span of zero duration).
    #[doc(hidden)]
    pub fn instant(name: &'static str, build: impl FnOnce(&mut String)) {
        if !trace_enabled() {
            return;
        }
        let mut fields = String::new();
        build(&mut fields);
        record(TraceEvent { name, fields, start_us: since_epoch_us(), dur_us: 0 });
    }
}

/// Whole µs since the trace epoch. A span's duration is the difference of
/// two such readings, not its own truncated length, so an event recorded
/// inside a span never starts after the span's recorded end.
fn since_epoch_us() -> u64 {
    let d = Instant::now().saturating_duration_since(epoch());
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut event) = self.state.take() {
            event.dur_us = since_epoch_us().saturating_sub(event.start_us);
            record(event);
        }
    }
}

/// Open a structured span: `span!("wave.fingerprint", wave = i, points = n)`.
/// Binds an RAII guard that records the span (with its duration) when it
/// drops. Field values may be integers, floats, bools, or strings. Costs
/// one atomic load when tracing is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::trace::SpanGuard::new($name, |_out| {
            $(
                {
                    use ::std::fmt::Write as _;
                    let _ = ::core::write!(
                        _out,
                        concat!(",\"", stringify!($k), "\":{}"),
                        $crate::trace::Field::from($v)
                    );
                }
            )*
        })
    };
}

/// Record an instant structured event (no duration):
/// `event!("conn.accept", loop_ix = 0)`. The structured replacement for
/// one-off `eprintln!` diagnostics.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::trace::SpanGuard::instant($name, |_out| {
            $(
                {
                    use ::std::fmt::Write as _;
                    let _ = ::core::write!(
                        _out,
                        concat!(",\"", stringify!($k), "\":{}"),
                        $crate::trace::Field::from($v)
                    );
                }
            )*
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All trace tests share one lock: they flip the process-wide switch.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_record_fields_and_duration() {
        let _g = guard();
        set_trace_ring_only(true);
        {
            let _span = span!("test.outer", wave = 3usize, label = "a\"b", ratio = 0.5);
            event!("test.instant", n = -2i64);
        }
        set_trace(false);
        let events = recent_spans();
        let inst = events.iter().rfind(|e| e.name == "test.instant").unwrap();
        assert_eq!(inst.fields, ",\"n\":-2");
        assert_eq!(inst.dur_us, 0);
        let outer = events.iter().rfind(|e| e.name == "test.outer").unwrap();
        assert_eq!(outer.fields, ",\"wave\":3,\"label\":\"a\\\"b\",\"ratio\":0.5");
        // The instant fired inside the span, so the span closed after it.
        assert!(outer.start_us + outer.dur_us >= inst.start_us);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = guard();
        set_trace(false);
        let before = recent_spans().len();
        {
            let _span = span!("test.disabled", x = 1u32);
            event!("test.disabled.instant");
        }
        assert_eq!(recent_spans().len(), before);
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let _g = guard();
        set_trace_ring_only(true);
        for _ in 0..RING_CAPACITY + 10 {
            event!("test.flood");
        }
        set_trace(false);
        assert_eq!(recent_spans().len(), RING_CAPACITY);
    }

    #[test]
    fn field_rendering_covers_every_variant() {
        assert_eq!(Field::from(7u8).to_string(), "7");
        assert_eq!(Field::from(-7isize).to_string(), "-7");
        assert_eq!(Field::from(true).to_string(), "1");
        assert_eq!(Field::from(1.5f32).to_string(), "1.5");
        assert_eq!(Field::from(f64::NAN).to_string(), "\"NaN\"");
        assert_eq!(Field::from("a\\b\nc").to_string(), "\"a\\\\b\\nc\"");
        assert_eq!(Field::from(String::from("s")).to_string(), "\"s\"");
    }
}
