//! The metrics registry: named atomic counters, gauges, and histograms.
//!
//! Registration (the `counter`/`gauge`/`histogram` constructors) takes a
//! mutex and is meant to happen once per call site — handles are `Clone`
//! and cheap to cache in a struct or a `OnceLock`. Updates through a handle
//! never lock. Instrument identity is `(name, sorted labels)`; asking twice
//! for the same identity returns a handle to the same underlying cell, so
//! independent layers can contribute to one instrument.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::hist::{HistCore, HistogramSnapshot};

/// Instrument identity: metric name plus label pairs, kept sorted so the
/// registry and the rendered exposition are deterministic.
type Key = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut l: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    l.sort();
    (name.to_string(), l)
}

/// A monotonically increasing counter. Each update is one relaxed
/// `fetch_add`.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depths, live connections, backoff
/// levels).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Add `n` (use a negative `n` to decrement).
    #[inline]
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram handle (see [`crate::hist`]). By convention
/// latency instruments record **microseconds** and carry a `_us` suffix.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistCore>,
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.cell.record(value);
    }

    /// Record a duration in microseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Point-in-time copy of the buckets and registers.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell.snapshot()
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<Key, Arc<AtomicU64>>,
    gauges: BTreeMap<Key, Arc<AtomicI64>>,
    histograms: BTreeMap<Key, Arc<HistCore>>,
}

/// A set of named instruments. Most code uses the process-wide
/// [`crate::global`] registry; tests can make private ones.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        Counter { cell: Arc::clone(inner.counters.entry(key(name, labels)).or_default()) }
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        Gauge { cell: Arc::clone(inner.gauges.entry(key(name, labels)).or_default()) }
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        Histogram {
            cell: Arc::clone(
                inner
                    .histograms
                    .entry(key(name, labels))
                    .or_insert_with(|| Arc::new(HistCore::new())),
            ),
        }
    }

    /// Copy every instrument's current value. Per-instrument reads are
    /// atomic; the snapshot as a whole is not a consistent cut (standard
    /// for scrape-based metrics).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner.histograms.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
        }
    }
}

/// A point-in-time copy of a whole [`Registry`], renderable as Prometheus
/// text and inspectable programmatically (tests, CI invariants).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(identity, value)` per counter, sorted by identity.
    pub counters: Vec<(Key, u64)>,
    /// `(identity, value)` per gauge, sorted by identity.
    pub gauges: Vec<(Key, i64)>,
    /// `(identity, snapshot)` per histogram, sorted by identity.
    pub histograms: Vec<(Key, HistogramSnapshot)>,
}

/// Render `{label="v",...}` (empty string when there are no labels),
/// escaping `\`, `"`, and newlines in values per the exposition format.
fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

impl MetricsSnapshot {
    /// Render in Prometheus text exposition format: one `# TYPE` comment
    /// per metric name, then one sample line per instrument; histograms
    /// expand to cumulative `_bucket{le=...}` series plus `_sum`, `_count`,
    /// and a non-standard exact `_max` gauge. Output is deterministic
    /// (sorted) for a given snapshot.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type_line = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}\n");
            if line != last_type_line {
                out.push_str(&line);
                last_type_line = line;
            }
        };
        for ((name, labels), value) in &self.counters {
            type_line(&mut out, name, "counter");
            out.push_str(name);
            render_labels(&mut out, labels, None);
            let _ = writeln!(out, " {value}");
        }
        for ((name, labels), value) in &self.gauges {
            type_line(&mut out, name, "gauge");
            out.push_str(name);
            render_labels(&mut out, labels, None);
            let _ = writeln!(out, " {value}");
        }
        for ((name, labels), h) in &self.histograms {
            type_line(&mut out, name, "histogram");
            for (le, cum) in h.cumulative_buckets() {
                let _ = write!(out, "{name}_bucket");
                render_labels(&mut out, labels, Some(("le", &le.to_string())));
                let _ = writeln!(out, " {cum}");
            }
            let _ = write!(out, "{name}_bucket");
            render_labels(&mut out, labels, Some(("le", "+Inf")));
            let _ = writeln!(out, " {}", h.count);
            for (suffix, value) in [("_sum", h.sum), ("_count", h.count), ("_max", h.max)] {
                let _ = write!(out, "{name}{suffix}");
                render_labels(&mut out, labels, None);
                let _ = writeln!(out, " {value}");
            }
        }
        out
    }

    /// Look up a counter by name and labels (for tests and invariants).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let k = key(name, labels);
        self.counters.iter().find(|(ik, _)| *ik == k).map(|(_, v)| *v)
    }

    /// Look up a gauge by name and labels.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let k = key(name, labels);
        self.gauges.iter().find(|(ik, _)| *ik == k).map(|(_, v)| *v)
    }

    /// Look up a histogram by name and labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let k = key(name, labels);
        self.histograms.iter().find(|(ik, _)| *ik == k).map(|(_, v)| v)
    }

    /// Sum every histogram series sharing `name` across label sets, as if
    /// all their observations hit one histogram (per-verb totals, CI
    /// invariants).
    pub fn histogram_total(&self, name: &str) -> HistogramSnapshot {
        self.histograms
            .iter()
            .filter(|((n, _), _)| n == name)
            .fold(HistogramSnapshot::empty(), |acc, (_, h)| acc.merge(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_identity_shares_a_cell_and_label_order_is_canonical() {
        let r = Registry::new();
        let a = r.counter("hits_total", &[("a", "1"), ("b", "2")]);
        let b = r.counter("hits_total", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter("hits_total", &[("a", "1"), ("b", "2")]), Some(3));
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("depth", &[]);
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        assert_eq!(r.snapshot().gauge("depth", &[]), Some(3));
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("reqs_total", &[("verb", "EST")]).add(4);
        r.counter("reqs_total", &[("verb", "SWEEP")]).inc();
        r.gauge("live", &[]).set(2);
        let h = r.histogram("lat_us", &[]);
        for v in [1u64, 3, 3, 900] {
            h.record(v);
        }
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE reqs_total counter\n"));
        // One TYPE line covers both label sets of the same name.
        assert_eq!(text.matches("# TYPE reqs_total").count(), 1);
        assert!(text.contains("reqs_total{verb=\"EST\"} 4\n"));
        assert!(text.contains("reqs_total{verb=\"SWEEP\"} 1\n"));
        assert!(text.contains("# TYPE live gauge\nlive 2\n"));
        assert!(text.contains("lat_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("lat_us_bucket{le=\"1023\"} 4\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("lat_us_sum 907\n"));
        assert!(text.contains("lat_us_count 4\n"));
        assert!(text.contains("lat_us_max 900\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("c_total", &[("q", "a\"b\\c\nd")]).inc();
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("c_total{q=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn histogram_total_merges_across_label_sets() {
        let r = Registry::new();
        r.histogram("lat_us", &[("verb", "A")]).record(1);
        r.histogram("lat_us", &[("verb", "B")]).record(2);
        r.histogram("other_us", &[]).record(50);
        let total = r.snapshot().histogram_total("lat_us");
        assert_eq!(total.count, 2);
        assert_eq!(total.sum, 3);
    }
}
