//! Host-time spans recorded by the benchmark around its calls into each
//! layer crate.
//!
//! Untraced passes run with the tracer off: `begin`/`end` are one
//! predictable branch and never read the clock, so the end-to-end
//! numbers carry no instrumentation. The traced pass keeps every span in
//! a pre-sized `Vec` and writes Chrome trace-event JSON when the run
//! ends. A layer's busy time is the *self* time of its spans: duration
//! minus the part covered by child spans.

use std::collections::BTreeMap;
use std::time::Instant;

/// Span names that are not layers: the pass itself, one per cell, and
/// the benchmark's own output checks. Their self time is the residual.
pub const PASS: &str = "bench.pass";
pub const CELL: &str = "bench.cell";
pub const CHECK: &str = "bench.check";

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans, so the traced
    /// pass does not pay for `Vec` growth in the middle of a layer call.
    pub fn on(capacity: usize) -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Open(id)
    }

    /// Closes the span `begin` returned. Spans close innermost first.
    #[inline]
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self_seconds(&self.spans)
    }

    /// Chrome trace-event JSON (loads in Perfetto and chrome://tracing):
    /// one complete event per span, with its id, parent id and the
    /// pass-wide trace id in `args`.
    pub fn chrome_json(&self, workload: &str, trace_id: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"pipebench {workload}\"}}}}"
        ));
        for (id, s) in self.spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, i64::from);
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"trace_id\":{trace_id}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time per span name: each span's duration minus its direct
/// children's durations (children nest properly on the one thread that
/// records them, so they never overlap one another).
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(&child_ns) {
        *by_name.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(*covered);
    }
    by_name
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / 1e9))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // pass [0, 100) holds siblings a [10, 40) and b [50, 90);
        // b holds c [60, 70), which holds d [62, 65).
        let spans = [
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 60, 70, Some(2)),
            span("d", 62, 65, Some(3)),
        ];
        let t = self_seconds(&spans);
        let ns = |name: &str| (t[name] * 1e9).round() as u64;
        assert_eq!(ns("pass"), 100 - 30 - 40, "siblings both subtracted");
        assert_eq!(ns("a"), 30);
        assert_eq!(ns("b"), 40 - 10, "only the direct child, not d");
        assert_eq!(ns("c"), 10 - 3);
        assert_eq!(ns("d"), 3);
        let total: u64 = ["pass", "a", "b", "c", "d"].into_iter().map(ns).sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn self_time_sums_spans_of_one_name() {
        let spans = [
            span("pass", 0, 50, None),
            span("x", 0, 10, Some(0)),
            span("x", 20, 35, Some(0)),
        ];
        let t = self_seconds(&spans);
        assert_eq!((t["x"] * 1e9).round() as u64, 25);
        assert_eq!((t["pass"] * 1e9).round() as u64, 25);
    }

    #[test]
    fn tracer_links_parents_and_off_records_nothing() {
        let mut tr = Tracer::on(8);
        let pass = tr.begin(PASS);
        tr.time("a", || ());
        let b = tr.begin("b");
        tr.time("c", || ());
        tr.end(b);
        tr.end(pass);
        let parents: Vec<_> = tr.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let json = tr.chrome_json("unit", 7);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"parent\":2,\"trace_id\":7"));

        let mut off = Tracer::off();
        let open = off.begin(PASS);
        assert_eq!(off.time("a", || 5), 5);
        off.end(open);
        assert!(off.spans().is_empty());
    }
}
