//! Span-lifecycle coverage for the causal tracing layer: tracing must be
//! purely observational (identical traces, timing, and metrics whether on
//! or off), trace ids must survive the recovery machinery (retries, NAKs,
//! dedup), and a quiescent machine must never leave spans open.

use obs::span::SpanKind;
use simx::concurrent::ConcurrentMachine;
use simx::simcheck::contention_plan;
use simx::{FaultPlan, SystemConfig};
use stache::ProtocolConfig;

fn four_nodes() -> ProtocolConfig {
    ProtocolConfig { nodes: 4 }
}

/// Runs the contention plan on a concurrent machine, optionally traced
/// and optionally under a fault plan.
fn run_concurrent(traced: bool, faults: Option<&str>) -> ConcurrentMachine {
    let mut m = ConcurrentMachine::new(four_nodes(), SystemConfig::paper());
    if traced {
        m.enable_tracing();
    }
    if let Some(spec) = faults {
        m.set_fault_plan(FaultPlan::parse(spec).expect("fault spec").with_seed(7));
    }
    let plan = contention_plan(4, 2);
    for it in 0..8 {
        m.run_plan(&plan, it).expect("run terminates");
    }
    m.verify_coherence().expect("coherent");
    m
}

#[test]
fn tracing_is_purely_observational_on_the_concurrent_engine() {
    let plain = run_concurrent(false, None);
    let traced = run_concurrent(true, None);
    assert_eq!(
        plain.trace().records(),
        traced.trace().records(),
        "tracing must not change the message stream"
    );
    assert_eq!(plain.execution_time_ns(), traced.execution_time_ns());
    assert!(plain.spans().spans().is_empty(), "off by default");
    assert!(!traced.spans().spans().is_empty());
    // The untraced snapshot carries no span metrics at all, so existing
    // golden snapshots cannot drift.
    let snap = plain.obs_snapshot();
    assert!(snap.names().iter().all(|n| !n.contains("span")));
    assert!(traced
        .obs_snapshot()
        .names()
        .iter()
        .any(|n| n.starts_with("simx.span.")));
}

#[test]
fn quiescent_machines_leave_no_open_spans() {
    let mut con = run_concurrent(true, None);
    assert_eq!(con.spans().orphans(), 0, "barrier flagged nothing");

    // Component spans partition time: no child may extend past its root.
    let spans = con.take_spans();
    for root in spans.spans().iter().filter(|s| s.kind == SpanKind::Txn) {
        for child in spans
            .spans()
            .iter()
            .filter(|s| s.trace == root.trace && s.id != root.id)
        {
            assert!(
                child.end_ns <= root.end_ns && child.start_ns >= root.start_ns,
                "child {}[{},{}] escapes root {}[{},{}]",
                child.name,
                child.start_ns,
                child.end_ns,
                root.name,
                root.start_ns,
                root.end_ns
            );
        }
    }
}

#[test]
fn trace_ids_survive_retry_nak_and_dedup_recovery() {
    let m = run_concurrent(true, Some("drop=0.05,dup=0.05"));
    let r = m.recovery_tally();
    assert!(
        r.retries > 0 && r.dups_absorbed > 0,
        "fault plan must exercise recovery (retries={}, dups={})",
        r.retries,
        r.dups_absorbed
    );
    let spans = m.spans();
    // Recovery legs landed in the Retry category, attached to real traces.
    let retries: Vec<_> = spans
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Retry)
        .collect();
    assert!(!retries.is_empty(), "retry spans recorded under faults");
    for s in &retries {
        assert!(s.trace.is_some());
        assert!(
            spans.root_of(s.trace).is_some(),
            "retry span {} belongs to a live trace",
            s.name
        );
    }
    // Dedup/retry never strands a transaction: every root closed.
    assert_eq!(spans.orphans(), 0);
    // Every record link points into the actual message trace.
    let len = m.trace().records().len() as u64;
    assert!(spans
        .links()
        .iter()
        .all(|&(t, idx)| t.is_some() && idx < len));
}

#[test]
fn traced_faulted_runs_match_untraced_faulted_runs() {
    let plain = run_concurrent(false, Some("drop=0.03,dup=0.02"));
    let traced = run_concurrent(true, Some("drop=0.03,dup=0.02"));
    assert_eq!(
        plain.trace().records(),
        traced.trace().records(),
        "same seed, same faults: tracing must not perturb recovery"
    );
    assert_eq!(plain.execution_time_ns(), traced.execution_time_ns());
}
