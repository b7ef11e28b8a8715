//! Property tests for the concurrent engine: arbitrary plans run to
//! quiescence coherently, and for serialization-forced plans the engine
//! agrees with the transaction-serialized machine message for message.
//!
//! Seeded cases on the in-house generator (`simx::rng::check`); the two
//! counterexamples proptest once saved for this file are replayed by name
//! in `regression_seeds.rs`.

use simx::concurrent::ConcurrentMachine;
use simx::rng::{check, SmallRng};
use simx::{Access, IterationPlan, Machine, Phase, SystemConfig};
use stache::{BlockAddr, MsgType, NodeId, ProcOp, ProtocolConfig, Role};
use std::collections::HashMap;

/// `1..max_phases` phases of up to 11 accesses — read, write or
/// read-modify-write — over a small node/block pool spread across homes.
fn plan(rng: &mut SmallRng, max_phases: usize) -> IterationPlan {
    let mut plan = IterationPlan::new();
    for _ in 0..rng.gen_range(1..max_phases) {
        let mut phase = Phase::new(16);
        for _ in 0..rng.gen_range(1..12) {
            let n = NodeId::new(rng.gen_range(0..8));
            let block = BlockAddr::new(rng.gen_range(0..5) as u64 * 64);
            phase.push(match rng.gen_range(0..3) {
                0 => Access::read(n, block),
                1 => Access::write(n, block),
                _ => Access::rmw(n, block),
            });
        }
        plan.push(phase);
    }
    plan
}

/// Any plan drains to quiescence with coherent state (the engine audits
/// SWMR + full map at every barrier internally).
#[test]
fn arbitrary_plans_stay_coherent() {
    check(48, |rng| {
        let proto = ProtocolConfig {
            half_migratory: rng.gen_bool(0.5),
            limited_pointers: rng.gen_bool(0.5).then(|| rng.gen_range(1..3)),
            ..ProtocolConfig::paper()
        };
        let mut m = ConcurrentMachine::new(proto, SystemConfig::paper());
        m.run_plan(&plan(rng, 4), 0)
            .expect("coherent concurrent run");
        m.verify_coherence().expect("final audit");
    });
}

/// The engine is deterministic.
#[test]
fn concurrent_engine_is_deterministic() {
    check(48, |rng| {
        let plan = plan(rng, 3);
        let run = || {
            let mut m = ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
            m.run_plan(&plan, 0).unwrap();
            m.into_trace()
        };
        assert_eq!(run(), run());
    });
}

/// With one access per phase (forced serialization), the concurrent
/// engine reproduces the serialized machine's per-agent message-type
/// sequences exactly.
#[test]
fn forced_serialization_matches_the_serialized_engine() {
    check(48, |rng| {
        let mut serial = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
        let mut plan = IterationPlan::new();
        for _ in 0..rng.gen_range(1..25) {
            let node = NodeId::new(rng.gen_range(1..8));
            let block = BlockAddr::new(rng.gen_range(0..3) as u64 * 64);
            let (op, access) = if rng.gen_bool(0.5) {
                (ProcOp::Write, Access::write(node, block))
            } else {
                (ProcOp::Read, Access::read(node, block))
            };
            serial.access(node, block, op, 0).unwrap();
            let mut phase = Phase::new(16);
            phase.push(access);
            plan.push(phase);
        }
        let mut conc = ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
        conc.run_plan(&plan, 0).unwrap();

        // The engines may interleave *independent* records differently
        // (the concurrent engine sends invalidations in parallel), but
        // every agent must observe the same stream.
        type Observed = (NodeId, BlockAddr, MsgType);
        let streams = |t: &trace::TraceBundle| {
            let mut m: HashMap<(NodeId, Role), Vec<Observed>> = HashMap::new();
            for r in t.records() {
                m.entry((r.node, r.role))
                    .or_default()
                    .push((r.sender, r.block, r.mtype));
            }
            m
        };
        assert_eq!(streams(serial.trace()), streams(conc.trace()));
    });
}

/// A policy that speculates aggressively at random — far harsher than the
/// learned Cosmos policy — to stress the race handling.
#[derive(Debug)]
struct ChaosPolicy {
    state: u64,
}

impl ChaosPolicy {
    fn coin(&mut self) -> bool {
        // xorshift: deterministic, seedless chaos.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state & 1 == 0
    }
}

impl simx::SpeculationPolicy for ChaosPolicy {
    fn grant_exclusive(&mut self, _home: NodeId, _requester: NodeId, _block: BlockAddr) -> bool {
        self.coin()
    }

    fn self_invalidate(&mut self, _node: NodeId, _block: BlockAddr) -> bool {
        self.coin()
    }
}

/// Random speculation on random plans never breaks coherence: grants and
/// voluntary replacements fire blindly, races included, and every
/// barrier audit passes.
#[test]
fn chaotic_speculation_stays_coherent() {
    check(48, |rng| {
        let plan = plan(rng, 4);
        let mut m = ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
        // Xorshift's one fixed point is zero.
        m.set_policy(Box::new(ChaosPolicy {
            state: rng.gen() | 1,
        }));
        m.run_plan(&plan, 0).expect("coherent under chaos");
        m.verify_coherence().expect("final audit");
    });
}
