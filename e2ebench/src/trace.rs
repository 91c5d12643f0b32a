//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and the id
//! of the operation it belongs to (one deep pass, one calibration pass, one
//! daemon request). Spans stay in memory while the run measures and are
//! written out as JSON lines when it ends. A layer's self time is its
//! span's duration minus the part covered by its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    /// Which path the operation ran (`deep`, `cal`, `sweepd`).
    kind: &'static str,
    op: u64,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    kind: &'static str,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            kind: "",
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Starts a new operation of path `kind` with a root span `name`; every
    /// span until [`Tracer::end_op`] shares its id.
    pub fn begin_op(&mut self, kind: &'static str, name: &'static str) {
        assert!(self.open.is_empty(), "operations do not nest");
        self.op += 1;
        self.kind = kind;
        self.open(name);
    }

    pub fn end_op(&mut self) {
        self.close();
        assert!(self.open.is_empty(), "an inner span was left open");
    }

    fn open(&mut self, name: &'static str) {
        let start = self.now();
        self.spans.push(Span {
            name,
            kind: self.kind,
            op: self.op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn close(&mut self) {
        let end = self.now();
        let id = self.open.pop().expect("close matches an open span");
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span `name` (a child of the innermost open span).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Per-layer self times: for every non-root span name of every path,
    /// the self time summed within each operation, one value per operation
    /// that called it. Keyed `"<kind>.<name>_s"`.
    pub fn layer_self_times(&self) -> BTreeMap<String, Vec<f64>> {
        let own = self.self_times();
        let mut per_op: BTreeMap<(String, u64), f64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            if s.parent.is_some() {
                *per_op
                    .entry((format!("{}.{}_s", s.kind, s.name), s.op))
                    .or_default() += t;
            }
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for ((name, _), t) in per_op {
            out.entry(name).or_default().push(t);
        }
        out
    }

    /// The duration of the most recent closed span named `name`.
    pub fn last(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.end - s.start)
    }

    /// Sum of the durations of the current operation's spans named `name`.
    pub fn op_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == self.op && s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// One JSON object per span, in start order.
    pub fn to_json_lines(&self) -> String {
        let own = self.self_times();
        let mut out = String::new();
        for (i, (s, self_s)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"path\":\"{}\",\"name\":\"{}\",\"parent\":{parent},\
                 \"start_s\":{},\"end_s\":{},\"self_s\":{self_s}}}",
                s.op, s.kind, s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin_op("deep", "pass");
        t.time("outer", || ());
        t.end_op();
        t.begin_op("deep", "pass");
        t.time("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("outer", || ());
        t.end_op();
        let layers = t.layer_self_times();
        assert_eq!(layers["deep.outer_s"].len(), 2, "one value per operation");
        let own = t.self_times();
        let root_total = t.spans[1].end - t.spans[1].start;
        assert!(own[1] <= root_total);
        assert!(own.iter().all(|&s| s >= -1e-9));
    }
}
