//! Property tests for the simulated machine: under arbitrary access
//! streams the protocol never wedges, every read observes the most recent
//! write (the machine checks this internally), the full-map/SWMR
//! invariants hold after every transaction, and the message mix stays
//! request/response balanced.
//!
//! Seeded cases on the in-house generator (`simx::rng::check`).

use simx::rng::{check, SmallRng};
use simx::{Machine, SystemConfig};
use stache::{BlockAddr, NodeId, ProcOp, ProtocolConfig};
use trace::{TraceBundle, TraceStats};

/// A stream of `1..max` accesses: node 0..8, block from a small pool
/// spread across pages so several homes are hit, read or write.
fn accesses(rng: &mut SmallRng, max: usize) -> Vec<(NodeId, BlockAddr, ProcOp)> {
    (0..rng.gen_range(1..max))
        .map(|_| {
            let node = NodeId::new(rng.gen_range(0..8));
            let block = BlockAddr::new(rng.gen_range(0..6) as u64 * 64);
            let op = if rng.gen_bool(0.5) {
                ProcOp::Write
            } else {
                ProcOp::Read
            };
            (node, block, op)
        })
        .collect()
}

fn run(m: &mut Machine, accesses: &[(NodeId, BlockAddr, ProcOp)]) {
    for &(node, block, op) in accesses {
        m.access(node, block, op, 0).expect("coherent machine");
    }
}

fn trace_of(sys: SystemConfig, accesses: &[(NodeId, BlockAddr, ProcOp)]) -> TraceBundle {
    let mut m = Machine::new(ProtocolConfig::paper(), sys);
    run(&mut m, accesses);
    m.into_trace()
}

/// Arbitrary serialized access streams preserve coherence: no protocol
/// errors, no stale reads, invariants hold continuously.
#[test]
fn random_streams_stay_coherent() {
    check(64, |rng| {
        let mut m = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
        m.paranoid = true; // audit invariants after every access
        run(&mut m, &accesses(rng, 200));
        m.verify_coherence().expect("final audit");
    });
}

/// At quiescence every request has exactly one response in the trace.
#[test]
fn requests_pair_with_responses() {
    check(64, |rng| {
        let t = trace_of(SystemConfig::paper(), &accesses(rng, 150));
        let stats = TraceStats::compute(&t);
        assert!(
            stats.pairing_imbalance().is_empty(),
            "unbalanced: {:?}",
            stats.pairing_imbalance()
        );
    });
}

/// The machine is deterministic: the same access stream produces the
/// same trace, timestamps included.
#[test]
fn machine_is_deterministic() {
    check(64, |rng| {
        let accs = accesses(rng, 100);
        assert_eq!(
            trace_of(SystemConfig::paper(), &accs),
            trace_of(SystemConfig::paper(), &accs)
        );
    });
}

/// Network latency shifts timestamps but never changes the message
/// sequence (the property underlying the paper's §5 insensitivity
/// claim).
#[test]
fn latency_changes_times_not_sequences() {
    check(64, |rng| {
        let accs = accesses(rng, 100);
        let latency = [10u64, 40, 200, 1000][rng.gen_range(0..4)];
        let base = trace_of(SystemConfig::paper().with_network_latency(40), &accs);
        let other = trace_of(SystemConfig::paper().with_network_latency(latency), &accs);
        assert_eq!(base.len(), other.len());
        for (a, b) in base.records().iter().zip(other.records()) {
            assert_eq!(
                (a.node, a.sender, a.mtype, a.block),
                (b.node, b.sender, b.mtype, b.block)
            );
        }
    });
}
