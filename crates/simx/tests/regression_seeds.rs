//! Proptest regression seeds, promoted to named deterministic tests.
//!
//! `prop_concurrent.rs` was a proptest suite until it was ported to
//! seeded cases on `simx::rng::check`; the counterexamples proptest had
//! saved for it are replayed here verbatim, each under the `promoted:`
//! hash it had in the regressions file, so the minimal cases keep
//! guarding the engine whatever seeds the suite draws.

use simx::concurrent::ConcurrentMachine;
use simx::{Access, IterationPlan, Machine, Phase, SystemConfig};
use stache::{BlockAddr, MsgType, NodeId, ProcOp, ProtocolConfig, Role};
use std::collections::HashMap;

/// Mirrors `prop_concurrent::build_plan`: one access tuple is
/// `(node, slot, kind)` with kind 0 = read, 1 = write, else rmw, and
/// slot `s` mapping to block address `s * 64` to spread homes.
fn build_plan(phases: &[Vec<(usize, u64, u8)>]) -> IterationPlan {
    let mut plan = IterationPlan::new();
    for raw in phases {
        let mut phase = Phase::new(16);
        for &(node, slot, kind) in raw {
            let block = BlockAddr::new(slot * 64);
            let n = NodeId::new(node);
            phase.push(match kind {
                0 => Access::read(n, block),
                1 => Access::write(n, block),
                _ => Access::rmw(n, block),
            });
        }
        plan.push(phase);
    }
    plan
}

type AgentKey = (NodeId, Role);
type Observed = (NodeId, BlockAddr, MsgType);

fn streams(t: &trace::TraceBundle) -> HashMap<AgentKey, Vec<Observed>> {
    let mut m: HashMap<AgentKey, Vec<Observed>> = HashMap::new();
    for r in t.records() {
        m.entry((r.node, r.role))
            .or_default()
            .push((r.sender, r.block, r.mtype));
    }
    m
}

/// promoted: d8c6ed883a942e0c23e27367abbe4e8c8e18cfb0c19fe987f1823507dd7ad53a
///
/// Shrunk counterexample from `forced_serialization_matches_the_serialized_engine`:
/// `accesses = [(2, 0, false), (1, 0, false), (3, 0, true)]` — two reads
/// from distinct nodes then a write from a third, all to block 0. The
/// write must invalidate both readers; the bug this caught was the
/// concurrent engine's invalidation fan-out producing a different
/// per-agent message stream than the serialized machine.
#[test]
fn seed_two_readers_then_a_writer_match_the_serialized_engine() {
    let accesses = [(2usize, 0u64, false), (1, 0, false), (3, 0, true)];

    let mut serial = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
    for &(node, slot, write) in &accesses {
        let op = if write { ProcOp::Write } else { ProcOp::Read };
        serial
            .access(NodeId::new(node), BlockAddr::new(slot * 64), op, 0)
            .expect("serialized access");
    }

    let mut conc = ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
    let phases: Vec<Vec<(usize, u64, u8)>> = accesses
        .iter()
        .map(|&(node, slot, write)| vec![(node, slot, u8::from(write))])
        .collect();
    conc.run_plan(&build_plan(&phases), 0)
        .expect("concurrent run");

    assert_eq!(streams(serial.trace()), streams(conc.trace()));
}

/// promoted: 44208c8e89c6a7d3b380e7d504efb45f45dcacc0c6af8c461947956128757cd0
///
/// Shrunk counterexample from `arbitrary_plans_stay_coherent`:
/// `phases = [[(0, 2, 0)], [(0, 2, 1), (3, 2, 0), (2, 2, 2)]]` with
/// `half_migratory = false` and a 1-pointer limited directory. Phase two
/// mixes a write, a read, and an rmw to the same block whose directory
/// entry has already overflowed — the broadcast-invalidation path under
/// the DASH-like (non-migratory) read handling.
#[test]
fn seed_overflowed_directory_broadcast_stays_coherent() {
    let proto = ProtocolConfig {
        half_migratory: false,
        limited_pointers: Some(1),
        ..ProtocolConfig::paper()
    };
    let phases = vec![
        vec![(0usize, 2u64, 0u8)],
        vec![(0, 2, 1), (3, 2, 0), (2, 2, 2)],
    ];
    let mut m = ConcurrentMachine::new(proto, SystemConfig::paper());
    m.run_plan(&build_plan(&phases), 0).expect("coherent run");
    m.verify_coherence().expect("final audit");
}

/// The deterministic-engine property, pinned on the same seed plans as
/// above: identical runs produce identical traces.
#[test]
fn seed_plans_replay_to_identical_traces() {
    let phases = vec![
        vec![(2usize, 0u64, 0u8)],
        vec![(1, 0, 0)],
        vec![(3, 0, 1)],
        vec![(0, 2, 1), (3, 2, 0), (2, 2, 2)],
    ];
    let run = || {
        let mut m = ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
        m.run_plan(&build_plan(&phases), 0).expect("run");
        m.into_trace()
    };
    assert_eq!(run(), run());
}
