//! The `tracespans` target: per-transaction latency attribution from the
//! causal span trees the event engine (`ConcurrentMachine`) records (see
//! `obs::span`).
//!
//! The paper's §4.4 model argues prediction pays off by shortening the
//! *critical path* of coherence transactions; aggregate accuracy cannot
//! show that. This module runs the five benchmarks through the event
//! engine with tracing enabled and reduces the span logs three ways:
//!
//! 1. an **attribution table** — per benchmark and transaction type: p50/p95/p99 end-to-end latency ([`obs::Histogram`] upper
//!    bounds) and the mean nanoseconds per transaction spent in each
//!    category (queue / network / directory / retry / speculation);
//! 2. a **critical-path report** — the slowest k transactions, each
//!    edge of their span tree attributed, annotated with the per-message
//!    Cosmos verdicts (`cosmos::record_verdicts`) so "this GETX was slow
//!    *and* mispredicted" is finally one line of output;
//! 3. a **Chrome trace-event export** ([`write_chrome_trace`]) loadable
//!    in Perfetto / `chrome://tracing`, one process per benchmark.
//!
//! Everything is simulated time, so all three outputs are deterministic.

use crate::traces::Scale;
use cosmos::eval::record_verdicts;
use cosmos::Verdict;
use obs::span::{chrome_trace_json, Span, SpanKind, SpanLog};
use obs::Histogram;
use simx::SystemConfig;
use stache::ProtocolConfig;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use trace::TraceBundle;

/// The five paper benchmarks, in report order.
pub const BENCHES: [&str; 5] = ["appbt", "barnes", "dsmc", "moldyn", "unstructured"];

/// One benchmark run with tracing on: its message trace and span log.
pub struct TracedRun {
    /// Benchmark name.
    pub app: &'static str,
    /// The coherence-message trace (for prediction verdicts).
    pub bundle: TraceBundle,
    /// The recorded span trees.
    pub spans: SpanLog,
}

/// Runs every benchmark through the event engine with tracing enabled.
/// Cells fan out over the bounded sweep pool; output is in [`BENCHES`]
/// order.
pub fn traced_runs(scale: Scale) -> Vec<TracedRun> {
    crate::par::sweep(BENCHES.len(), move |i| {
        let name = BENCHES[i];
        let mut w = scale.workload(name).expect("known benchmark");
        let (bundle, spans) = workloads::run_traced_concurrent(
            &mut *w,
            ProtocolConfig::paper(),
            SystemConfig::paper(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        TracedRun {
            app: name,
            bundle,
            spans,
        }
    })
}

/// Latency attribution for one `(benchmark, transaction type)` group:
/// end-to-end percentiles plus the summed nanoseconds per attribution
/// category across all of the group's transactions.
pub struct AttributionRow {
    /// Benchmark name.
    pub app: &'static str,
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
/// benchmark as in [`traced_runs`] and alphabetically by
/// transaction type within a run.
pub fn attribution(runs: &[TracedRun]) -> Vec<AttributionRow> {
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
                        app: run.app,
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
pub fn render_phases(runs: &[TracedRun]) -> String {
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

/// Per-trace verdict tallies for one run: replays a depth-1 Cosmos fleet
/// over the run's message trace and folds each record's verdict into the
/// transaction that sent or received it (via `SpanLog::links`).
fn verdicts_by_trace(run: &TracedRun) -> HashMap<u32, VerdictTally> {
    let verdicts = record_verdicts(&run.bundle, 1, 0);
    let mut by_trace: HashMap<u32, VerdictTally> = HashMap::new();
    for &(trace, idx) in run.spans.links() {
        let Some(v) = verdicts.get(idx as usize) else {
            continue;
        };
        let t = by_trace.entry(trace.raw()).or_default();
        match v {
            Verdict::Hit => t.predicted += 1,
            Verdict::Miss => t.mispredicted += 1,
            Verdict::NoPrediction => t.cold += 1,
        }
    }
    by_trace
}

/// Renders the critical-path report: the `k` slowest transactions across
/// all benchmarks, each span-tree edge attributed and the root annotated
/// with its messages' prediction verdicts.
pub fn render_critical_paths(runs: &[TracedRun], k: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Critical paths: the {k} slowest transactions, edges attributed;\n\
         `pred h/m/c` counts the transaction's messages a depth-1 Cosmos\n\
         predicted (hit / mispredicted / no prediction)."
    );
    // Collect (duration, run index, root span) over every run.
    let mut slow: Vec<(u64, usize, &Span)> = Vec::new();
    for (ri, run) in runs.iter().enumerate() {
        for s in run.spans.spans() {
            if s.kind == SpanKind::Txn {
                slow.push((s.duration_ns(), ri, s));
            }
        }
    }
    // Slowest first; ties broken by run order then allocation order, so
    // the report is deterministic.
    slow.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.id.cmp(&b.2.id)));
    slow.truncate(k);
    for (total, ri, root) in slow {
        let run = &runs[ri];
        let tally = verdicts_by_trace(run)
            .get(&root.trace.raw())
            .copied()
            .unwrap_or_default();
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
        let mut edges: Vec<&Span> = run
            .spans
            .spans()
            .iter()
            .filter(|s| s.trace == root.trace && s.kind != SpanKind::Txn)
            .collect();
        edges.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(a.id.cmp(&b.id)));
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
pub fn chrome_trace(runs: &[TracedRun]) -> String {
    let parts: Vec<(&str, &SpanLog)> = runs.iter().map(|r| (r.app, &r.spans)).collect();
    chrome_trace_json(&parts)
}

/// Writes the Chrome trace JSON to `path`.
///
/// # Errors
///
/// Propagates the I/O error (bad directory, unwritable file, ...).
pub fn write_chrome_trace(runs: &[TracedRun], path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace(runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_runs() -> Vec<TracedRun> {
        traced_runs(Scale::Small)
    }

    #[test]
    fn traced_runs_cover_all_benchmarks() {
        let runs = small_runs();
        let apps: Vec<&str> = runs.iter().map(|r| r.app).collect();
        assert_eq!(apps, BENCHES);
        for r in &runs {
            assert!(!r.spans.spans().is_empty(), "{}", r.app);
            assert_eq!(r.spans.open_traces(), 0, "{}", r.app);
            assert_eq!(r.spans.orphans(), 0, "{}", r.app);
            assert!(!r.bundle.is_empty());
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
