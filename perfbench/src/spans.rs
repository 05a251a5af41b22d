//! The benchmark's own spans around each call into a layer.
//!
//! A span has a name, a start, an end and a parent; the spans of one
//! operation (a matrix cell, a serve batch, a fuzz case) carry that
//! operation's id. Spans stay in memory and are written once, when the
//! run ends. All spans are opened and closed on the benchmark's main
//! thread, so children nest strictly inside their parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            // Reserved up front so recording rarely allocates between
            // the allocation-counter reads taken around layer calls.
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part its direct children cover.
    pub fn self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns().saturating_sub(kids) as f64 * 1e-9;
        }
        out
    }

    /// The spans as one JSON document (`perfbench-spans`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"perfbench-spans\",\"version\":1,\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_parents_link_up() {
        let mut t = Tracer::new();
        t.span("op", 7, |t| {
            spin(2);
            t.span("layer", 7, |_| spin(5));
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 7);
        let own = t.self_s();
        let op_total = t.spans[0].dur_ns() as f64 * 1e-9;
        assert!(own["layer"] >= 0.005);
        assert!(own["op"] >= 0.002 && own["op"] < op_total - 0.004);
        let doc = t.to_json();
        assert!(doc.contains("\"name\":\"layer\",\"op\":7"));
        assert!(doc.contains("\"parent\":0}"));
    }
}
