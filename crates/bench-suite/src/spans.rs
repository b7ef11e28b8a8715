//! The `tracespans` target: per-transaction latency attribution from the
//! causal span trees the event engine (`ConcurrentMachine`) records (see
//! `obs::span`) in the clean half of the baseline set ([`crate::baseline`]).
//!
//! The paper's §4.4 model argues prediction pays off by shortening the
//! *critical path* of coherence transactions; aggregate accuracy cannot
//! show that. This module reduces the five benchmarks' span logs three
//! ways:
//!
//! 1. an **attribution table** — per benchmark and transaction type: p50/p95/p99 end-to-end latency ([`obs::Histogram`] upper
//!    bounds) and the mean nanoseconds per transaction spent in each
//!    category (queue / network / directory / retry / speculation);
//! 2. a **critical-path report** — the slowest k transactions, each
//!    edge of their span tree attributed, annotated with the run's
//!    per-message depth-1 Cosmos verdicts ([`BareRun::verdicts`]) so
//!    "this GETX was slow *and* mispredicted" is one line of output;
//! 3. a **Chrome trace-event export** ([`chrome_trace`]) loadable
//!    in Perfetto / `chrome://tracing`, one process per benchmark.
//!
//! Everything is simulated time, so all three outputs are deterministic.

use crate::baseline::BareRun;
use cosmos::Verdict;
use obs::span::{chrome_trace_json, Span, SpanKind, SpanLog, TraceId};
use obs::Histogram;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Latency attribution for one `(benchmark, transaction type)` group:
/// end-to-end percentiles plus the summed nanoseconds per attribution
/// category across all of the group's transactions.
pub struct AttributionRow {
    /// Benchmark name.
    pub app: String,
    /// Root span name: the requesting message type, `local_read`/`_write`,
    /// or `self_invalidate`.
    pub txn: &'static str,
    /// End-to-end transaction latency.
    pub total: Histogram,
    /// Summed child-span nanoseconds, indexed by category.
    pub by_kind: [u64; 6],
}

impl AttributionRow {
    /// Mean nanoseconds per transaction spent in `kind`.
    pub fn mean_ns(&self, kind: SpanKind) -> u64 {
        self.by_kind[kind_index(kind)]
            .checked_div(self.total.count())
            .unwrap_or(0)
    }
}

fn kind_index(kind: SpanKind) -> usize {
    match kind {
        SpanKind::Txn => 0,
        SpanKind::Queue => 1,
        SpanKind::Network => 2,
        SpanKind::Directory => 3,
        SpanKind::Retry => 4,
        SpanKind::Speculation => 5,
    }
}

/// Reduces the runs' span logs to attribution rows, ordered by
/// benchmark as in `runs` and alphabetically by transaction type within
/// a run.
pub fn attribution(runs: &[BareRun]) -> Vec<AttributionRow> {
    let mut out = Vec::new();
    for run in runs {
        // Trace id -> row key, filled from roots (allocation order).
        let mut row_of: HashMap<u32, &'static str> = HashMap::new();
        let mut rows: BTreeMap<&'static str, AttributionRow> = BTreeMap::new();
        for s in run.spans.spans() {
            if s.kind == SpanKind::Txn {
                row_of.insert(s.trace.raw(), s.name);
                rows.entry(s.name)
                    .or_insert_with(|| AttributionRow {
                        app: run.app.clone(),
                        txn: s.name,
                        total: Histogram::new(),
                        by_kind: [0; 6],
                    })
                    .total
                    .record(s.duration_ns());
            } else if let Some(txn) = row_of.get(&s.trace.raw()) {
                rows.get_mut(txn).expect("row exists for its root").by_kind[kind_index(s.kind)] +=
                    s.duration_ns();
            }
        }
        out.extend(rows.into_values());
    }
    out
}

/// Renders the attribution table.
pub fn render_attribution(rows: &[AttributionRow]) -> String {
    let mut out = String::from(
        "Trace spans: end-to-end transaction latency and attribution (ns).\n\
         p50/p95/p99 are power-of-two-bucket upper bounds; the component\n\
         columns are mean ns per transaction by category.\n",
    );
    let _ = writeln!(
        out,
        "{:<14} {:<18} {:>8} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "benchmark", "txn", "count", "p50", "p95", "p99", "queue", "net", "dir", "retry", "spec"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<18} {:>8} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6}",
            r.app,
            r.txn,
            r.total.count(),
            r.total.p50(),
            r.total.p95(),
            r.total.p99(),
            r.mean_ns(SpanKind::Queue),
            r.mean_ns(SpanKind::Network),
            r.mean_ns(SpanKind::Directory),
            r.mean_ns(SpanKind::Retry),
            r.mean_ns(SpanKind::Speculation),
        );
    }
    out
}

/// The attribution table as CSV (the committed golden artefact).
pub fn csv_attribution(rows: &[AttributionRow]) -> String {
    let mut out = String::from(
        "benchmark,txn,count,p50_ns,p95_ns,p99_ns,\
         queue_ns,network_ns,directory_ns,retry_ns,speculation_ns\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{}",
            r.app,
            r.txn,
            r.total.count(),
            r.total.p50(),
            r.total.p95(),
            r.total.p99(),
            r.mean_ns(SpanKind::Queue),
            r.mean_ns(SpanKind::Network),
            r.mean_ns(SpanKind::Directory),
            r.mean_ns(SpanKind::Retry),
            r.mean_ns(SpanKind::Speculation),
        );
    }
    out
}

/// Per-phase latency: percentiles of each child-span name within a run.
pub fn render_phases(runs: &[BareRun]) -> String {
    let mut out = String::from("Per-phase span latency (ns) per benchmark:\n");
    let _ = writeln!(
        out,
        "{:<14} {:<14} {:<12} {:>9} {:>7} {:>7} {:>7}",
        "benchmark", "phase", "category", "count", "p50", "p95", "p99"
    );
    for run in runs {
        let mut phases: BTreeMap<(&'static str, &'static str), Histogram> = BTreeMap::new();
        for s in run.spans.spans() {
            if s.kind != SpanKind::Txn {
                phases
                    .entry((s.name, s.kind.label()))
                    .or_default()
                    .record(s.duration_ns());
            }
        }
        for ((name, kind), h) in phases {
            let _ = writeln!(
                out,
                "{:<14} {:<14} {:<12} {:>9} {:>7} {:>7} {:>7}",
                run.app,
                name,
                kind,
                h.count(),
                h.p50(),
                h.p95(),
                h.p99()
            );
        }
    }
    out
}

/// Prediction verdict counts for one transaction's linked messages.
#[derive(Default, Clone, Copy)]
struct VerdictTally {
    predicted: u32,
    mispredicted: u32,
    cold: u32,
}

/// The verdicts of the messages transaction `trace` sent or received
/// (via `SpanLog::links`), from the run's depth-1 fleet.
fn verdict_tally(run: &BareRun, trace: TraceId) -> VerdictTally {
    let mut t = VerdictTally::default();
    for &(_, idx) in run.spans.links().iter().filter(|(tr, _)| *tr == trace) {
        match run.verdicts.get(idx as usize) {
            Some(Verdict::Hit) => t.predicted += 1,
            Some(Verdict::Miss) => t.mispredicted += 1,
            Some(Verdict::NoPrediction) => t.cold += 1,
            None => {}
        }
    }
    t
}

/// Renders the critical-path report: the `k` slowest transactions across
/// all benchmarks, each span-tree edge attributed and the root annotated
/// with its messages' prediction verdicts.
pub fn render_critical_paths(runs: &[BareRun], k: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Critical paths: the {k} slowest transactions, edges attributed;\n\
         `pred h/m/c` counts the transaction's messages a depth-1 Cosmos\n\
         predicted (hit / mispredicted / no prediction)."
    );
    // Collect (duration, run index, span index) of every root.
    let mut slow: Vec<(u64, usize, usize)> = Vec::new();
    for (ri, run) in runs.iter().enumerate() {
        for (si, s) in run.spans.spans().iter().enumerate() {
            if s.kind == SpanKind::Txn {
                slow.push((s.duration_ns(), ri, si));
            }
        }
    }
    // Slowest first; ties broken by run order then allocation order, so
    // the report is deterministic.
    slow.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    slow.truncate(k);
    for (total, ri, si) in slow {
        let run = &runs[ri];
        let root = &run.spans.spans()[si];
        let tally = verdict_tally(run, root.trace);
        let _ = writeln!(
            out,
            "{} {} block={:#x} node=P{} total={total}ns pred {}/{}/{}{}",
            run.app,
            root.name,
            root.block,
            root.node,
            tally.predicted,
            tally.mispredicted,
            tally.cold,
            root.note.map(|n| format!(" [{n}]")).unwrap_or_default(),
        );
        // In start order, ties in allocation order (a stable sort).
        let mut edges: Vec<&Span> = run
            .spans
            .spans()
            .iter()
            .filter(|s| s.trace == root.trace && s.kind != SpanKind::Txn)
            .collect();
        edges.sort_by_key(|s| s.start_ns);
        const MAX_EDGES: usize = 8;
        let shown = edges.len().min(MAX_EDGES);
        for s in &edges[..shown] {
            let _ = writeln!(
                out,
                "  +{:<8} {:<14} {:<12} {}ns",
                s.start_ns.saturating_sub(root.start_ns),
                s.name,
                s.kind.label(),
                s.duration_ns()
            );
        }
        if edges.len() > shown {
            let _ = writeln!(out, "  ... {} more edges", edges.len() - shown);
        }
    }
    out
}

/// Renders every run as one Chrome trace-event JSON document, one
/// "process" per benchmark.
pub fn chrome_trace(runs: &[BareRun]) -> String {
    let parts: Vec<(&str, &SpanLog)> = runs.iter().map(|r| (r.app.as_str(), &r.spans)).collect();
    chrome_trace_json(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::bare_runs;
    use crate::Scale;

    fn small_runs() -> Vec<BareRun> {
        bare_runs(Scale::Small, None, true).unwrap()
    }

    #[test]
    fn traced_runs_cover_all_benchmarks() {
        let runs = small_runs();
        let apps: Vec<&str> = runs.iter().map(|r| r.app.as_str()).collect();
        assert_eq!(apps, ["appbt", "barnes", "dsmc", "moldyn", "unstructured"]);
        for r in &runs {
            assert!(!r.spans.spans().is_empty(), "{}", r.app);
            assert_eq!(r.spans.orphans(), 0, "{}", r.app);
            assert_eq!(r.verdicts.len() as u64, r.summary.messages, "{}", r.app);
        }
    }

    #[test]
    fn attribution_components_fit_inside_the_totals() {
        let runs = small_runs();
        let rows = attribution(&runs);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.total.count() > 0);
            // Remote transactions must spend time on the network.
            if r.txn.ends_with("_request") {
                assert!(r.mean_ns(SpanKind::Network) > 0, "{} {}", r.app, r.txn);
            }
        }
        // Clean runs never retry.
        assert!(rows.iter().all(|r| r.mean_ns(SpanKind::Retry) == 0));
        let table = render_attribution(&rows);
        assert!(table.contains("get_rw_request"));
        let csv = csv_attribution(&rows);
        assert!(csv.starts_with("benchmark,txn,"));
        assert_eq!(csv.lines().count(), rows.len() + 1);
    }

    #[test]
    fn critical_paths_and_phases_render_deterministically() {
        let runs = small_runs();
        let a = render_critical_paths(&runs, 3);
        let b = render_critical_paths(&small_runs(), 3);
        assert_eq!(a, b, "report must be deterministic");
        assert!(a.contains("pred "));
        assert!(render_phases(&runs).contains("net.request"));
    }

    #[test]
    fn chrome_export_is_valid_enough_for_perfetto() {
        let runs = small_runs();
        let json = chrome_trace(&runs);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"appbt\""));
        assert!(json.contains("\"unstructured\""));
        assert!(json.contains("\"ph\":\"X\""));
    }
}
