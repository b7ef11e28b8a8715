//! Causal transaction tracing — span trees over simulated time.
//!
//! A coherence transaction is not one latency number but a tree of causally
//! ordered phases: the request hop, the wait for a busy directory, the
//! invalidation fan-out, retries after dropped packets, the grant hop. A
//! [`SpanLog`] records that tree: each transaction opens a *root* span
//! identified by a [`TraceId`] (carried on every message the transaction
//! sends), and every phase attaches a child span stamped with exact
//! simulated start/end nanoseconds.
//!
//! Three properties make the layer safe to thread through the simulator
//! hot path:
//!
//! * **Off by default, zero residue.** A disabled log turns every call
//!   into an early-return no-op and allocates nothing, so runs with
//!   tracing off are byte-identical to runs built before the layer
//!   existed.
//! * **Purely observational.** Spans are derived from timestamps the
//!   engines already computed; recording one never changes timing,
//!   message order, or protocol state.
//! * **Deterministic.** Span ids are allocation order, times are simulated
//!   nanoseconds, and all strings are static, so two runs of the same
//!   workload produce identical logs and identical exports.
//!
//! [`chrome_trace_json`] renders one or more logs as Chrome trace-event
//! JSON (the `about:tracing` / Perfetto format) for interactive
//! inspection.

use crate::json::push_str_literal;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Identifies one transaction's span tree. Carried on every message the
/// transaction sends so far-end agents can attach child spans.
///
/// `TraceId::NONE` (the default) means "not traced"; protocol code treats
/// it as an opaque passenger and never branches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(u32);

impl TraceId {
    /// The null id: no trace attached.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this id names a real trace.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }

    /// The raw id (0 = none). Stable within one log.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Identifies one span within a [`SpanLog`]. `0` is reserved for "none".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// The null span id.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this id names a real span.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }

    fn index(self) -> usize {
        self.0 as usize - 1
    }
}

/// The latency-attribution category a span belongs to. Every simulated
/// nanosecond of a transaction lands in exactly one category, so summing
/// child spans by kind partitions the end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A whole transaction (root spans only).
    Txn,
    /// Waiting for a busy directory or in its pending queue.
    Queue,
    /// A message in flight on the interconnect.
    Network,
    /// Directory or cache handler occupancy (protocol work).
    Directory,
    /// Lost time: timeouts, NAK bounces, retransmissions.
    Retry,
    /// A speculative action taken on a prediction.
    Speculation,
}

impl SpanKind {
    /// Short lowercase label (Chrome trace `cat`, CSV column stem).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::Queue => "queue",
            SpanKind::Network => "network",
            SpanKind::Directory => "directory",
            SpanKind::Retry => "retry",
            SpanKind::Speculation => "speculation",
        }
    }
}

/// One recorded span: a named interval of simulated time within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The trace (transaction) this span belongs to.
    pub trace: TraceId,
    /// The enclosing span, or [`SpanId::NONE`] for a root.
    pub parent: SpanId,
    /// Attribution category.
    pub kind: SpanKind,
    /// Static phase name, e.g. `"net.request"`, `"dir.service"`.
    pub name: &'static str,
    /// Simulated start time (ns).
    pub start_ns: u64,
    /// Simulated end time (ns); meaningless while `open`.
    pub end_ns: u64,
    /// Whether the span is still open (no end recorded yet).
    pub open: bool,
    /// The node the span is attributed to.
    pub node: u16,
    /// The block the transaction concerns (root spans; 0 elsewhere).
    pub block: u64,
    /// Optional static annotation (`"speculative_grant"`, `"orphaned"`).
    pub note: Option<&'static str>,
}

impl Span {
    /// Span duration in ns (0 while open or if clocks ran backwards).
    pub fn duration_ns(&self) -> u64 {
        if self.open {
            0
        } else {
            self.end_ns.saturating_sub(self.start_ns)
        }
    }
}

/// An append-only log of spans for one simulation run.
///
/// Disabled by default: every recording method early-returns until
/// [`SpanLog::enable`] is called, and a disabled log never allocates.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    enabled: bool,
    spans: Vec<Span>,
    /// trace raw id -> root span, for attaching children by trace alone.
    roots: HashMap<u32, SpanId>,
    next_trace: u32,
    /// `(trace, trace-record index)` links, in record order — maps spans
    /// onto the `MsgRecord` stream without widening the codec'd record.
    links: Vec<(TraceId, u64)>,
    orphans: u64,
    /// Every span below this index is closed: the last sweep closed the
    /// open ones, children are born closed and [`SpanLog::end_trace`]
    /// only closes, so the next sweep starts here.
    swept: usize,
}

impl SpanLog {
    /// Creates a disabled log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a root span for a new transaction and returns its trace id
    /// ([`TraceId::NONE`] when disabled).
    #[inline]
    pub fn begin_trace(
        &mut self,
        name: &'static str,
        start_ns: u64,
        node: u16,
        block: u64,
    ) -> TraceId {
        if !self.enabled {
            return TraceId::NONE;
        }
        self.next_trace += 1;
        let trace = TraceId(self.next_trace);
        let id = self.push(Span {
            id: SpanId::NONE,
            trace,
            parent: SpanId::NONE,
            kind: SpanKind::Txn,
            name,
            start_ns,
            end_ns: start_ns,
            open: true,
            node,
            block,
            note: None,
        });
        self.roots.insert(trace.0, id);
        trace
    }

    /// Closes a trace's root span.
    #[inline]
    pub fn end_trace(&mut self, trace: TraceId, end_ns: u64) {
        if !self.enabled || !trace.is_some() {
            return;
        }
        if let Some(&root) = self.roots.get(&trace.0) {
            let s = &mut self.spans[root.index()];
            s.end_ns = end_ns;
            s.open = false;
        }
    }

    /// Records a complete child span, attached to the trace's root.
    /// No-op when disabled or when `trace` is [`TraceId::NONE`], so call
    /// sites need no guards.
    #[inline]
    pub fn child(
        &mut self,
        trace: TraceId,
        name: &'static str,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
        node: u16,
    ) {
        if !self.enabled || !trace.is_some() {
            return;
        }
        let parent = self.roots.get(&trace.0).copied().unwrap_or(SpanId::NONE);
        self.push(Span {
            id: SpanId::NONE,
            trace,
            parent,
            kind,
            name,
            start_ns,
            end_ns,
            open: false,
            node,
            block: 0,
            note: None,
        });
    }

    /// Annotates a trace's root span (last writer wins).
    pub fn annotate(&mut self, trace: TraceId, note: &'static str) {
        if !self.enabled || !trace.is_some() {
            return;
        }
        if let Some(&root) = self.roots.get(&trace.0) {
            self.spans[root.index()].note = Some(note);
        }
    }

    /// Associates the trace with index `record_idx` of the run's
    /// `MsgRecord` stream (how prediction verdicts find their spans).
    #[inline]
    pub fn link_record(&mut self, trace: TraceId, record_idx: u64) {
        if !self.enabled || !trace.is_some() {
            return;
        }
        self.links.push((trace, record_idx));
    }

    /// The recorded `(trace, record index)` links, in record order.
    pub fn links(&self) -> &[(TraceId, u64)] {
        &self.links
    }

    /// Closes every still-open span at `at_ns`, marking it `"orphaned"`.
    /// A quiescent machine should have none; a non-zero return is a
    /// protocol bug. Returns how many were flagged this call.
    ///
    /// Visits only the spans recorded since the previous sweep, so the
    /// sweeps of a run cost one pass over its spans in all.
    pub fn flag_orphans(&mut self, at_ns: u64) -> u64 {
        let mut flagged = 0;
        for s in &mut self.spans[self.swept..] {
            if s.open {
                s.open = false;
                s.end_ns = at_ns.max(s.start_ns);
                s.note = Some("orphaned");
                flagged += 1;
            }
        }
        self.swept = self.spans.len();
        self.orphans += flagged;
        flagged
    }

    /// Total spans ever flagged as orphaned.
    pub fn orphans(&self) -> u64 {
        self.orphans
    }

    /// All spans, in allocation (causal) order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The root span of `trace`, if any.
    pub fn root_of(&self, trace: TraceId) -> Option<&Span> {
        self.roots.get(&trace.0).map(|id| &self.spans[id.index()])
    }

    /// Exports summary gauges into a snapshot under `prefix`.
    pub fn export_obs(&self, prefix: &str, snap: &mut crate::Snapshot) {
        snap.counter(&format!("{prefix}.spans"), self.spans.len() as u64);
        snap.counter(&format!("{prefix}.traces"), u64::from(self.next_trace));
        snap.counter(&format!("{prefix}.orphans"), self.orphans);
    }

    fn push(&mut self, mut span: Span) -> SpanId {
        let id = SpanId(self.spans.len() as u32 + 1);
        span.id = id;
        self.spans.push(span);
        id
    }
}

/// Writes `ns` nanoseconds as a microsecond decimal (`123.456`) — the
/// trace-event time unit — without going through floats.
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Renders one or more span logs as Chrome trace-event JSON, loadable in
/// Perfetto or `chrome://tracing`.
///
/// Each `(name, log)` pair becomes one "process" (`pid` = position in the
/// slice, named by a metadata event); within a process, each trace's span
/// tree lands on its own thread track (`tid` = trace id) so concurrent
/// transactions stack vertically and children nest inside their root by
/// time. Output is deterministic: spans appear in allocation order.
pub fn chrome_trace_json(parts: &[(&str, &SpanLog)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
    };
    for (pid, (name, _)) in parts.iter().enumerate() {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":"
        );
        push_str_literal(&mut out, name);
        out.push_str("}}");
    }
    for (pid, (_, log)) in parts.iter().enumerate() {
        for s in log.spans() {
            sep(&mut out, &mut first);
            out.push_str("{\"name\":");
            push_str_literal(&mut out, s.name);
            let _ = write!(out, ",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":", s.kind.label());
            push_us(&mut out, s.start_ns);
            out.push_str(",\"dur\":");
            push_us(&mut out, s.duration_ns());
            let _ = write!(
                out,
                ",\"pid\":{pid},\"tid\":{},\"args\":{{\"trace\":{},\"node\":{}",
                s.trace.raw(),
                s.trace.raw(),
                s.node
            );
            if s.block != 0 {
                let _ = write!(out, ",\"block\":\"{:#x}\"", s.block);
            }
            if let Some(note) = s.note {
                out.push_str(",\"note\":");
                push_str_literal(&mut out, note);
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_is_inert_and_allocation_free() {
        let mut log = SpanLog::new();
        let t = log.begin_trace("txn", 0, 1, 0x40);
        assert_eq!(t, TraceId::NONE);
        log.child(t, "net", SpanKind::Network, 0, 10, 1);
        log.annotate(t, "x");
        log.link_record(t, 0);
        log.end_trace(t, 10);
        assert!(log.spans().is_empty());
        assert!(log.links().is_empty());
        assert_eq!(log.flag_orphans(99), 0);
        assert_eq!(log.spans.capacity(), 0, "disabled log never allocates");
    }

    #[test]
    fn children_attach_to_their_trace_root() {
        let mut log = SpanLog::new();
        log.enable();
        let a = log.begin_trace("get_rw_request", 0, 1, 0x40);
        let b = log.begin_trace("get_ro_request", 5, 2, 0x80);
        log.child(a, "net.request", SpanKind::Network, 0, 100, 1);
        log.child(b, "net.request", SpanKind::Network, 5, 105, 2);
        log.end_trace(a, 400);
        log.end_trace(b, 300);
        assert_ne!(a, b);
        let spans = log.spans();
        assert_eq!(spans.len(), 4);
        let root_a = log.root_of(a).unwrap();
        assert_eq!(root_a.duration_ns(), 400);
        assert!(!root_a.open);
        let child_a = spans.iter().find(|s| s.trace == a && s.parent.is_some());
        assert_eq!(child_a.unwrap().parent, root_a.id);
        assert!(spans.iter().all(|s| !s.open));
    }

    #[test]
    fn orphans_are_flagged_not_lost() {
        let mut log = SpanLog::new();
        log.enable();
        let t = log.begin_trace("get_ro_request", 10, 0, 0x1);
        let _done = log.begin_trace("get_rw_request", 10, 1, 0x2);
        log.end_trace(_done, 50);
        assert!(log.root_of(t).unwrap().open);
        assert_eq!(log.flag_orphans(90), 1);
        assert_eq!(log.orphans(), 1);
        let root = log.root_of(t).unwrap();
        assert!(!root.open);
        assert_eq!(root.note, Some("orphaned"));
        assert_eq!(root.end_ns, 90);
        // Idempotent: nothing left to flag.
        assert_eq!(log.flag_orphans(95), 0);
        assert_eq!(log.orphans(), 1);
    }

    #[test]
    fn a_sweep_visits_only_the_spans_recorded_since_the_last() {
        let mut log = SpanLog::new();
        log.enable();
        let first = log.begin_trace("get_ro_request", 0, 0, 0x1);
        log.child(first, "net.request", SpanKind::Network, 0, 10, 0);
        assert_eq!(log.flag_orphans(20), 1);
        assert_eq!(log.swept, 2);
        // Reopen the swept root behind the watermark: the next sweep must
        // not reach it, only the two spans appended since.
        log.spans[0].open = true;
        let second = log.begin_trace("get_rw_request", 30, 1, 0x2);
        log.child(second, "net.request", SpanKind::Network, 30, 40, 1);
        assert_eq!(log.flag_orphans(50), 1);
        assert_eq!(log.swept, 4);
        assert!(log.spans[0].open, "a span below the watermark was visited");
        assert_eq!(log.root_of(second).unwrap().note, Some("orphaned"));
        assert_eq!(log.orphans(), 2);
        assert_eq!(log.flag_orphans(60), 0);
    }

    #[test]
    fn record_links_and_annotations_round_trip() {
        let mut log = SpanLog::new();
        log.enable();
        let t = log.begin_trace("upgrade_request", 0, 3, 0x9);
        log.link_record(t, 7);
        log.link_record(t, 8);
        log.annotate(t, "speculative_grant");
        log.end_trace(t, 20);
        assert_eq!(log.links(), &[(t, 7), (t, 8)]);
        assert_eq!(log.root_of(t).unwrap().note, Some("speculative_grant"));
    }

    #[test]
    fn chrome_json_has_metadata_and_complete_events() {
        let mut log = SpanLog::new();
        log.enable();
        let t = log.begin_trace("get_rw_request", 1500, 1, 0x40);
        log.child(t, "dir.service", SpanKind::Directory, 1600, 1850, 0);
        log.end_trace(t, 2000);
        let json = chrome_trace_json(&[("serial", &log)]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"directory\""));
        // 1500 ns = 1.500 us; duration 500 ns = 0.500 us.
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":0.500"), "{json}");
        assert!(json.contains("\"block\":\"0x40\""));
        // Deterministic: same input, same bytes.
        assert_eq!(json, chrome_trace_json(&[("serial", &log)]));
    }

    #[test]
    fn export_obs_reports_span_and_orphan_counts() {
        let mut log = SpanLog::new();
        log.enable();
        let t = log.begin_trace("txn", 0, 0, 1);
        log.child(t, "net", SpanKind::Network, 0, 5, 0);
        log.flag_orphans(10);
        let mut snap = crate::Snapshot::new();
        log.export_obs("simx.span", &mut snap);
        let json = snap.to_json();
        assert!(json.contains("\"simx.span.spans\":2"));
        assert!(json.contains("\"simx.span.traces\":1"));
        assert!(json.contains("\"simx.span.orphans\":1"));
    }
}
