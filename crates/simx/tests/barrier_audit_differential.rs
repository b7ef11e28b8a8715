//! The incremental barrier audit against the exhaustive one.
//!
//! A barrier audits only the blocks written since the previous barrier
//! (DESIGN.md §7). This drives plans phase by phase through the public
//! stepping API and, with the machine quiescent, asks the exhaustive
//! [`ConcurrentMachine::verify_coherence`] for its verdict *before* every
//! [`ConcurrentMachine::run_barrier`]: the two must agree at every
//! barrier — `Ok` on correct protocols (clean, faulted, speculating), and
//! on a seeded protocol bug the same violation at the same barrier.

use simx::concurrent::{ConcurrentMachine, ProtocolMutation};
use simx::simcheck::contention_plan;
use simx::{
    Access, EagerPolicy, FaultPlan, IterationPlan, Phase, SimError, SpecActions, SystemConfig,
};
use stache::{BlockAddr, NodeId, ProtocolConfig};
use workloads::small_suite;

#[derive(Clone, Copy)]
struct Setup {
    faults: Option<&'static str>,
    speculate: bool,
    mutation: ProtocolMutation,
}

const CLEAN: Setup = Setup {
    faults: None,
    speculate: false,
    mutation: ProtocolMutation::None,
};

fn machine(proto: ProtocolConfig, setup: Setup) -> ConcurrentMachine {
    let nodes = proto.nodes;
    let mut m = ConcurrentMachine::new(proto, SystemConfig::paper());
    m.set_mutation(setup.mutation);
    if let Some(spec) = setup.faults {
        m.set_fault_plan(FaultPlan::parse(spec).expect("fault spec").with_seed(7));
    }
    if setup.speculate {
        m.set_policy(Box::new(EagerPolicy::new(SpecActions::all(), nodes)));
    }
    m
}

/// Why a driven run stopped early.
#[derive(Debug)]
enum Stop {
    /// A handler failed mid-phase: not the barrier's business.
    Step(SimError),
    /// The barrier with this index (counted over the whole run) failed.
    Barrier(usize, SimError),
}

/// Runs `plan` phase by phase in timestamp order. At every barrier the
/// exhaustive audit, asked first, and the barrier's own must return the
/// same thing.
fn drive(
    m: &mut ConcurrentMachine,
    plan: &IterationPlan,
    barriers: &mut usize,
    what: &str,
) -> Result<(), Stop> {
    for phase in &plan.phases {
        m.begin_phase(phase);
        while m.step_rank(0).map_err(Stop::Step)? {}
        assert!(
            m.waiting_nodes().is_empty() && m.open_transactions() == 0,
            "{what}: the phase before barrier {barriers} did not drain"
        );
        let exhaustive = m.verify_coherence();
        let incremental = m.run_barrier();
        assert_eq!(
            incremental, exhaustive,
            "{what}: barrier {barriers} disagrees with the exhaustive audit"
        );
        incremental.map_err(|e| Stop::Barrier(*barriers, e))?;
        *barriers += 1;
    }
    Ok(())
}

/// The small suite under `setup`: every barrier of every workload agrees
/// with the exhaustive audit and passes.
fn suite_agrees(setup: Setup, what: &str) {
    for mut w in small_suite() {
        let what = format!("{what}/{}", w.name());
        let mut m = machine(ProtocolConfig::paper(), setup);
        let mut barriers = 0;
        for it in 0..w.iterations() {
            if let Err(stop) = drive(&mut m, &w.plan(it), &mut barriers, &what) {
                panic!("{what}: {stop:?}");
            }
        }
        assert!(barriers > 0, "{what}: no barrier ran");
        // The exhaustive audit is still exhaustive.
        let before = m.tally().invariant_checks();
        m.verify_coherence().expect("final audit");
        assert_eq!(
            m.tally().invariant_checks() - before,
            m.touched_blocks().len() as u64,
            "{what}: verify_coherence visits every touched block"
        );
    }
}

#[test]
fn clean_small_suite_agrees_at_every_barrier() {
    suite_agrees(CLEAN, "clean");
}

#[test]
fn faulted_small_suite_agrees_at_every_barrier() {
    suite_agrees(
        Setup {
            faults: Some("drop=0.02,dup=0.02,reorder=4"),
            ..CLEAN
        },
        "drop+dup+reorder",
    );
}

#[test]
fn speculating_small_suite_agrees_at_every_barrier() {
    suite_agrees(
        Setup {
            speculate: true,
            ..CLEAN
        },
        "speculating",
    );
}

fn four_nodes() -> ProtocolConfig {
    ProtocolConfig {
        nodes: 4,
        ..ProtocolConfig::paper()
    }
}

/// A shared copy survives its invalidation: the first barrier after the
/// writer's grant fails, and `drive` has held it — and every passing
/// barrier before it — equal to the exhaustive audit.
#[test]
fn ack_without_invalidate_fails_the_same_barrier_the_same_way() {
    let what = "ack_without_invalidate";
    let setup = Setup {
        mutation: ProtocolMutation::AckWithoutInvalidate,
        ..CLEAN
    };
    let mut m = machine(four_nodes(), setup);
    let plan = contention_plan(4, 2);
    let mut barriers = 0;
    let stop = (0..8)
        .find_map(|_| drive(&mut m, &plan, &mut barriers, what).err())
        .expect("the seeded bug reaches a barrier");
    assert!(
        matches!(stop, Stop::Barrier(_, SimError::Invariant(_))),
        "{stop:?}"
    );
}

/// The missing-rollback build is caught by a *barrier* only when the
/// target's voluntary ack overtakes its verdict on an accepted push (a
/// rejected push trips a protocol error mid-phase instead). Node 2's
/// second write self-invalidates, the idle block is pushed to node 1,
/// and node 1 reads it after a delay: scanning the delay crosses the
/// one-handler-wide window in which that read hits the pushed copy and
/// early-acks it before the verdict leaves.
#[test]
fn speculate_without_rollback_fails_the_same_barrier_the_same_way() {
    let what = "speculate_without_rollback";
    let setup = Setup {
        speculate: true,
        mutation: ProtocolMutation::SpeculateWithoutRollback,
        ..CLEAN
    };
    let (writer, reader, block) = (NodeId::new(2), NodeId::new(1), BlockAddr::new(0));
    let mut caught = 0;
    for delay in (0..1500).step_by(20) {
        let mut plan = IterationPlan::new();
        let mut first = Phase::new(4);
        first.push(Access::write(writer, block));
        plan.push(first);
        let mut second = Phase::new(4);
        second.push(Access::write(writer, block));
        second.push(Access::read(reader, block));
        second.set_delay(reader, delay);
        plan.push(second);
        let mut m = machine(four_nodes(), setup);
        match drive(&mut m, &plan, &mut 0, what) {
            Err(Stop::Barrier(at, e)) => {
                assert_eq!(at, 1, "delay {delay}: the first phase is clean");
                assert!(matches!(e, SimError::Invariant(_)), "delay {delay}: {e}");
                caught += 1;
            }
            Ok(()) | Err(Stop::Step(SimError::Protocol(_))) => {}
            Err(other) => panic!("delay {delay}: {other:?}"),
        }
    }
    assert!(caught > 0, "no delay produced the crossing ack");
}
