//! The incremental barrier audit against the exhaustive one.
//!
//! A barrier audits only the blocks written since the previous barrier
//! (DESIGN.md §7). This drives plans phase by phase through the public
//! stepping API and, with the machine quiescent, asks the exhaustive
//! [`ConcurrentMachine::verify_coherence`] for its verdict *before* every
//! [`ConcurrentMachine::run_barrier`]: the two must agree at every
//! barrier — `Ok` on correct protocols (clean, faulted, speculating), and
//! on a seeded protocol bug the same violation at the same barrier.
//!
//! Both audits judge a block by its *holders* (the sparse
//! [`check_block_sparse`]), so a second differential holds that form to
//! the dense [`check_block`] it replaced: on every block's picture at
//! every barrier of these runs, and on hand-built incoherent pictures,
//! the two return the same `Result` — the same violation naming the same
//! nodes.

use simx::concurrent::{ConcurrentMachine, ProtocolMutation};
use simx::simcheck::contention_plan;
use simx::{
    Access, EagerPolicy, FaultPlan, IterationPlan, Phase, SimError, SpecActions, SystemConfig,
};
use stache::invariants::{check_block, check_block_sparse, InvariantViolation};
use stache::placement::home_of_block;
use stache::{BlockAddr, CacheState, DirState, NodeId, NodeSet, ProtocolConfig};
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
        for block in m.touched_blocks() {
            let dense = same_verdict_on_every_entry(block, &m.cache_states_for(block), what);
            if exhaustive.is_ok() {
                assert_eq!(dense, Ok(()), "{what}: barrier {barriers} passed {block}");
            }
        }
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

/// Feeds one picture — `states`, a cache state per node — to the dense
/// check and, as its non-`Invalid` entries, to the sparse one, under the
/// directory entry the picture implies and under wrong ones (a sharer
/// dropped, a sharer added, every single owner, idle): the two must agree
/// every time. Returns the verdict under the implied entry.
fn same_verdict_on_every_entry(
    block: BlockAddr,
    states: &[CacheState],
    what: &str,
) -> Result<(), InvariantViolation> {
    let holders = states
        .iter()
        .enumerate()
        .filter(|(_, s)| **s != CacheState::Invalid)
        .map(|(i, s)| (NodeId::new(i), *s));
    let holding = |want| {
        let of_state = holders.clone().filter(move |(_, s)| *s == want);
        of_state.map(|(n, _)| n).collect::<NodeSet>()
    };
    let (writers, readers) = (holding(CacheState::Exclusive), holding(CacheState::Shared));
    let implied = match writers.iter().next() {
        Some(writer) => DirState::Exclusive(writer),
        None if readers.is_empty() => DirState::Idle,
        None => DirState::Shared(readers.clone()),
    };
    let (mut fewer, mut more) = (readers.clone(), readers.clone());
    fewer.remove(readers.iter().next().unwrap_or(NodeId::new(0)));
    more.insert(NodeId::new(
        (0..states.len())
            .find(|&i| !readers.contains(NodeId::new(i)))
            .unwrap_or(0),
    ));
    let mut entries = vec![
        implied.clone(),
        DirState::Idle,
        DirState::Shared(fewer),
        DirState::Shared(more),
    ];
    entries.extend((0..states.len()).map(|i| DirState::Exclusive(NodeId::new(i))));
    for dir in &entries {
        assert_eq!(
            check_block_sparse(block, dir, holders.clone()),
            check_block(block, dir, states),
            "{what}: {block} under {dir}: {states:?}"
        );
    }
    check_block(block, &implied, states)
}

/// The pictures no correct run produces, built by hand: each incoherence
/// the check knows, at low and high node numbers, alone and combined (the
/// first violation in the dense check's order must win in the sparse one
/// too).
#[test]
fn sparse_and_dense_checks_name_the_same_violation_on_incoherent_pictures() {
    use CacheState::*;
    let block = BlockAddr::new(7);
    let picture = |held: &[(usize, CacheState)]| {
        let mut states = vec![Invalid; 16];
        held.iter().for_each(|&(i, s)| states[i] = s);
        states
    };
    let kind = |held: &[(usize, CacheState)]| {
        let verdict = same_verdict_on_every_entry(block, &picture(held), "hand-built");
        verdict
            .err()
            .map(|v| (v.kind_name(), v.node().map(NodeId::index)))
    };
    assert_eq!(
        kind(&[(3, Exclusive), (12, Exclusive)]),
        Some(("multiple_writers", Some(3)))
    );
    assert_eq!(
        kind(&[(2, Shared), (9, Exclusive), (15, Shared)]),
        Some(("writer_with_readers", Some(9)))
    );
    assert_eq!(
        kind(&[(1, Shared), (6, IToE)]),
        Some(("transient_at_rest", Some(6)))
    );
    assert_eq!(
        kind(&[(0, Exclusive), (4, SToE), (5, IToS), (8, Exclusive)]),
        Some(("transient_at_rest", Some(4))),
        "a transient outranks the two writers beside it"
    );
    assert_eq!(kind(&[(5, Shared), (11, Shared)]), None);
    // Directory mismatches, under entries `same_verdict_on_every_entry`
    // does not try: a shared set disjoint from the readers, an empty one.
    let states = picture(&[(5, Shared), (11, Shared)]);
    let holders = [(NodeId::new(5), Shared), (NodeId::new(11), Shared)];
    let elsewhere: NodeSet = [NodeId::new(4), NodeId::new(12)].into_iter().collect();
    for dir in [
        DirState::Shared(elsewhere),
        DirState::Shared(NodeSet::new()),
    ] {
        let dense = check_block(block, &dir, &states);
        assert!(matches!(
            dense,
            Err(InvariantViolation::DirectoryMismatch { .. })
        ));
        assert_eq!(check_block_sparse(block, &dir, holders.into_iter()), dense);
    }
}

/// On the sharded engine the directory entry is public, so the picture
/// the machine's own audit assembles — each shard's copies, the home's
/// rights merged in — can be rebuilt here one node at a time and judged
/// by the dense check under the *real* entry.
#[test]
fn the_audited_picture_is_the_one_the_nodes_report() {
    for mut w in small_suite() {
        for shards in [1, 3] {
            let proto = ProtocolConfig::paper();
            let mut m = simx::ShardedMachine::new(proto.clone(), SystemConfig::paper(), shards);
            let mut blocks = std::collections::BTreeSet::new();
            for it in 0..w.iterations() {
                let plan = w.plan(it);
                let accesses = plan.phases.iter().flat_map(|p| p.per_node.iter().flatten());
                blocks.extend(accesses.map(|a| a.block));
                m.run_plan(&plan, it).expect("clean run");
            }
            m.verify_coherence().expect("clean run");
            for &block in &blocks {
                let (home, dir) = (home_of_block(block, &proto), m.dir_state(block));
                let states: Vec<CacheState> = (0..proto.nodes)
                    .map(NodeId::new)
                    .map(|n| match n == home {
                        false => m.cache_state(n, block),
                        true if dir.node_writable(n) => CacheState::Exclusive,
                        true if dir.node_readable(n) => CacheState::Shared,
                        true => CacheState::Invalid,
                    })
                    .collect();
                assert_eq!(states, m.cache_states_for(block), "{} {block}", w.name());
                assert_eq!(
                    check_block(block, &dir, &states),
                    Ok(()),
                    "{} {block}",
                    w.name()
                );
                same_verdict_on_every_entry(block, &states, w.name()).expect("coherent");
            }
        }
    }
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
    ProtocolConfig { nodes: 4 }
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
