//! Span-lifecycle coverage for the causal tracing layer: tracing must be
//! purely observational (identical traces, timing, and metrics whether on
//! or off), trace ids must survive the recovery machinery (retries, NAKs,
//! dedup), and a quiescent machine must never leave spans open.

use obs::span::SpanKind;
use simx::concurrent::{ConcurrentMachine, ProtocolMutation};
use simx::simcheck::{contention_plan, ScheduleArtifact};
use simx::speculate::{EagerPolicy, SpecActions};
use simx::{FaultPlan, SystemConfig};
use stache::ProtocolConfig;
use std::collections::BTreeMap;

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
            .filter(|s| s.trace == root.trace && s.kind != SpanKind::Txn)
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

/// Runs the contention plan traced under an eager policy arming every §4
/// action, optionally under a fault plan, and summarises it.
fn speculating_span_summary(faults: Option<&str>) -> (Vec<String>, String, u64) {
    let mut m = ConcurrentMachine::new(four_nodes(), SystemConfig::paper());
    m.enable_tracing();
    m.set_policy(Box::new(EagerPolicy::new(SpecActions::all(), 4)));
    if let Some(spec) = faults {
        m.set_fault_plan(FaultPlan::parse(spec).expect("fault spec").with_seed(7));
    }
    let plan = contention_plan(4, 2);
    for it in 0..8 {
        m.run_plan(&plan, it).expect("run terminates");
    }
    m.verify_coherence().expect("coherent");
    span_summary(&m)
}

/// A finished run's spans as one `name kind count summed_ns` line per
/// (name, kind), sorted; its rollback tally; its voluntary writebacks.
fn span_summary(m: &ConcurrentMachine) -> (Vec<String>, String, u64) {
    let mut sums: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
    for s in m.spans().spans() {
        let e = sums.entry((s.name, s.kind.label())).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
    }
    let lines = sums
        .iter()
        .map(|((name, kind), (n, ns))| format!("{name} {kind} {n} {ns}"))
        .collect();
    let r = m.rollback_tally();
    let tally = format!(
        "pushes {} confirmed {} rolled_back {} early_acks {}",
        r.pushes, r.confirmed, r.rolled_back, r.early_acks
    );
    (lines, tally, m.stats().voluntary_replacements)
}

/// Every (span name, kind) of a speculating run, clean and faulted,
/// with its count and summed duration, the rollback tally and the
/// voluntary writebacks: the §4 arms (`net.push`, `net.push_ack`,
/// `self_invalidate`, `early_inval_ack`) appear in no committed golden,
/// so this pins what they record.
#[test]
fn speculative_arms_record_pinned_spans_clean_and_faulted() {
    let (lines, tally, replacements) = speculating_span_summary(None);
    assert_eq!(
        lines,
        [
            "cache.queue queue 8 800",
            "cache.service directory 97 9700",
            "dir.pending queue 16 5107",
            "dir.queue queue 1 100",
            "dir.service directory 74 7400",
            "early_inval_ack txn 7 1120",
            "get_ro_request txn 41 35334",
            "get_rw_request txn 8 7840",
            "local_read txn 9 2500",
            "local_write txn 16 8968",
            "mem.access directory 25 3000",
            "net.ack network 63 10080",
            "net.inval network 48 7680",
            "net.push speculation 8 1280",
            "net.push_ack speculation 8 1280",
            "net.reply network 49 7840",
            "net.request network 49 7840",
            "push.fill speculation 8 800",
            "self_invalidate txn 16 2560",
            "spec_push txn 8 4160",
        ]
    );
    assert_eq!(tally, "pushes 8 confirmed 8 rolled_back 0 early_acks 7");
    assert_eq!(replacements, 16);

    let (lines, tally, replacements) = speculating_span_summary(Some("drop=0.05,dup=0.05"));
    assert_eq!(
        lines,
        [
            "cache.queue queue 7 700",
            "cache.service directory 109 10900",
            "dir.pending queue 2 522",
            "dir.queue queue 3 300",
            "dir.service directory 80 8000",
            "early_inval_ack txn 5 800",
            "get_ro_request txn 43 99464",
            "get_rw_request txn 9 19800",
            "local_read txn 10 4802",
            "local_write txn 16 9527",
            "mem.access directory 26 3120",
            "nak retry 55 14300",
            "nak.turnaround retry 55 5500",
            "net.ack network 73 11680",
            "net.inval network 56 8960",
            "net.lost retry 17 2720",
            "net.push speculation 9 1440",
            "net.push_ack speculation 9 1440",
            "net.reply network 53 8480",
            "net.request network 114 18240",
            "push.fill speculation 9 900",
            "retry retry 13 60000",
            "retry.ack retry 7 36000",
            "self_invalidate txn 16 2560",
            "spec_push txn 9 4680",
        ]
    );
    assert_eq!(tally, "pushes 9 confirmed 9 rolled_back 0 early_acks 5");
    assert_eq!(replacements, 16);
}

/// The committed speculation schedule replayed traced with its rollback
/// restored: the forced steps up to the rejected push, then the rest of
/// each phase in timestamp order. `speculating_span_summary`'s runs never
/// reject a push, so this is the run that records `push.reject` and the
/// rollback branch of the push verdict.
#[test]
fn a_rejected_push_records_pinned_spans_and_rolls_back() {
    let text = include_str!("schedules/speculate_without_rollback.sched");
    let artifact = ScheduleArtifact::parse(text).expect("committed artifact parses");
    let proto = ProtocolConfig {
        nodes: artifact.nodes,
    };
    let mut m = ConcurrentMachine::new(proto, SystemConfig::paper());
    m.enable_tracing();
    m.set_mutation(ProtocolMutation::None);
    let actions = artifact.speculation.expect("speculation line present");
    m.set_policy(Box::new(EagerPolicy::new(actions, artifact.nodes)));
    let mut forced = artifact.schedule.iter().copied();
    for phase in &artifact.plan.phases {
        m.begin_phase(phase);
        while m.pending_events() > 0 {
            m.step_rank(forced.next().unwrap_or(0)).expect("step");
        }
        m.run_barrier()
            .expect("coherent with the rollback restored");
    }
    assert_eq!(forced.next(), None, "every forced step was taken");
    let (lines, tally, replacements) = span_summary(&m);
    assert_eq!(
        lines,
        [
            "cache.service directory 6 600",
            "dir.pending queue 2 2060",
            "dir.queue queue 1 100",
            "dir.service directory 6 600",
            "get_ro_request txn 2 1660",
            "get_rw_request txn 2 3100",
            "local_read txn 1 220",
            "local_write txn 1 740",
            "mem.access directory 2 240",
            "net.ack network 4 640",
            "net.inval network 2 320",
            "net.push speculation 2 320",
            "net.push_ack speculation 2 320",
            "net.reply network 4 640",
            "net.request network 4 640",
            "push.fill speculation 1 100",
            "push.reject speculation 1 100",
            "self_invalidate txn 2 320",
            "spec_push txn 2 1040",
        ]
    );
    assert_eq!(tally, "pushes 2 confirmed 1 rolled_back 1 early_acks 0");
    assert_eq!(replacements, 2);
}
