//! In-memory span recording for the traced run.
//!
//! Spans are recorded here, in the benchmark, around each call into a layer
//! of the program (spans inside the crates are a later issue). A span is
//! `name, start, end, parent`, plus the id of the request or round it
//! belongs to. Everything stays in memory until the run ends; self time is
//! a span's duration minus the part its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    /// Request or round this span belongs to.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Laid out from reported durations (the executor's `stats.phase`)
    /// rather than observed start/end instants.
    pub synthetic: bool,
}

/// Handle to an open span (index into the tracer's buffer).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// A single-threaded span buffer. `on == false` makes every call a no-op
/// so the same workload code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Per-name aggregate of a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { on: false, epoch, spans: Vec::new(), stack: Vec::new() }
    }

    /// An empty tracer on the same clock and in the same state, for a
    /// second thread; merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer { on: self.on, epoch: self.epoch, spans: Vec::new(), stack: Vec::new() }
    }

    /// Switch recording (the traced run records every other round, so
    /// traced and untraced rounds interleave on the same warm system).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            req,
            start_ns,
            end_ns: start_ns,
            synthetic: false,
        });
        self.stack.push(id);
        Some(SpanId(id))
    }

    /// Close a span opened by [`Tracer::enter`] (must be the innermost).
    pub fn exit(&mut self, id: Option<SpanId>) {
        let Some(SpanId(id)) = id else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record a closed child of the innermost open span from a reported
    /// duration, starting at `start_ns` (see [`Span::synthetic`]).
    pub fn synth(&mut self, name: &'static str, req: u64, start_ns: u64, dur_ns: u64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            req,
            start_ns,
            end_ns: start_ns + dur_ns,
            synthetic: true,
        });
    }

    /// Start time of an open span (for laying out synthetic children).
    pub fn start_of(&self, id: Option<SpanId>) -> u64 {
        id.map_or(0, |SpanId(i)| self.spans[i as usize].start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans (parents re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let agg = out.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += total;
            agg.self_ns += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The trace document: the self-time table plus the first `max_spans`
    /// raw spans (a full serve run records ~10⁵ of them).
    pub fn to_json(&self, max_spans: usize) -> Json {
        let table: Vec<Json> = self
            .self_times()
            .into_iter()
            .map(|(name, t)| {
                Json::obj()
                    .with("name", name)
                    .with("count", t.count)
                    .with("total_ns", t.total_ns)
                    .with("self_ns", t.self_ns)
            })
            .collect();
        let spans: Vec<Json> = self
            .spans
            .iter()
            .take(max_spans)
            .enumerate()
            .map(|(i, s)| {
                let mut j = Json::obj()
                    .with("id", i)
                    .with("name", s.name)
                    .with("req", s.req)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns);
                j.set("parent", s.parent.map_or(Json::Null, |p| Json::from(p as usize)));
                if s.synthetic {
                    j.set("synthetic", true);
                }
                j
            })
            .collect();
        Json::obj()
            .with("spans_total", self.spans.len())
            .with("spans_written", spans.len())
            .with("self_time", Json::Arr(table))
            .with("spans", Json::Arr(spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(Instant::now());
        t.set_on(true);
        let root = t.enter("round", 1);
        let child = t.enter("layer.call", 1);
        t.exit(child);
        t.synth("layer.phase", 1, t.start_of(root), 5);
        t.exit(root);
        // Pin the clock-dependent fields so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 40;
        t.spans[2].start_ns = 0;
        t.spans[2].end_ns = 5;
        let times = t.self_times();
        assert_eq!(times["round"], SelfTime { count: 1, total_ns: 100, self_ns: 65 });
        assert_eq!(times["layer.call"], SelfTime { count: 1, total_ns: 30, self_ns: 30 });
        assert_eq!(times["layer.phase"].total_ns, 5);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.spans[2].synthetic);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let s = t.enter("x", 0);
        t.synth("y", 0, 0, 1);
        t.exit(s);
        assert!(t.spans().is_empty());
        assert_eq!(t.to_json(10).get("spans_total").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.set_on(true);
        let s = a.enter("a", 0);
        a.exit(s);
        let mut b = Tracer::new(epoch);
        b.set_on(true);
        let outer = b.enter("b", 1);
        let inner = b.enter("b.child", 1);
        b.exit(inner);
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
