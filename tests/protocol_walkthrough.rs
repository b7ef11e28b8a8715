//! Integration: the paper's Figure 1 walkthrough, executed on the real
//! machine through the facade crate, message by message.

use cosmos_repro::simx::{Machine, SystemConfig};
use cosmos_repro::stache::{BlockAddr, MsgType, NodeId, ProcOp, ProtocolConfig, Role};

/// Figure 1: processor one stores to a block that processor two holds
/// exclusive. Five protocol actions, four messages, and the exact message
/// sequence of the figure.
#[test]
fn figure_one_message_exchange() {
    let mut m = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
    let block = BlockAddr::new(0); // homed on node 0 (the directory)
    let p1 = NodeId::new(1);
    let p2 = NodeId::new(2);

    // Initial condition: processor two has an exclusive copy.
    m.access(p2, block, ProcOp::Write, 0).unwrap();
    let setup_msgs = m.trace().len();

    // (1) processor one issues the store.
    let outcome = m.access(p1, block, ProcOp::Write, 0).unwrap();
    assert!(!outcome.hit);
    assert_eq!(outcome.messages, 4, "figure 1 shows four messages");

    let msgs: Vec<_> = m.trace().records()[setup_msgs..].to_vec();
    // (2) get_rw_request reaches the directory,
    assert_eq!(msgs[0].mtype, MsgType::GetRwRequest);
    assert_eq!(msgs[0].sender, p1);
    assert_eq!(msgs[0].role, Role::Directory);
    // (3) the directory asks processor two to return and invalidate,
    assert_eq!(msgs[1].mtype, MsgType::InvalRwRequest);
    assert_eq!(msgs[1].node, p2);
    // (4) processor two returns the block,
    assert_eq!(msgs[2].mtype, MsgType::InvalRwResponse);
    assert_eq!(msgs[2].sender, p2);
    // (5) the directory forwards it; processor one is now exclusive.
    assert_eq!(msgs[3].mtype, MsgType::GetRwResponse);
    assert_eq!(msgs[3].node, p1);

    // Timing: each hop adds network + handler latency; the whole store
    // took at least four one-way hops.
    assert!(outcome.latency_ns >= 4 * SystemConfig::paper().one_way_ns());

    // Post-state: a read by processor two misses (its copy is gone).
    let reread = m.access(p2, block, ProcOp::Read, 0).unwrap();
    assert!(!reread.hit);
    m.verify_coherence().unwrap();
}

/// The transition states of Figure 1(b): the requester moves through
/// "I to E" while the transaction is in flight, and both caches end in
/// the figure's final states.
#[test]
fn figure_one_state_transitions() {
    use cosmos_repro::stache::cache::{on_message, on_processor_op, CacheAction};
    use cosmos_repro::stache::CacheState;

    // Processor one: I --store--> (I to E) --get_rw_response--> E.
    let (transient, action) = on_processor_op(CacheState::Invalid, ProcOp::Write).unwrap();
    assert_eq!(transient, CacheState::IToE);
    assert_eq!(action, CacheAction::Send(MsgType::GetRwRequest));
    let (fin, reply) = on_message(transient, MsgType::GetRwResponse).unwrap();
    assert_eq!(fin, CacheState::Exclusive);
    assert_eq!(reply, None);

    // Processor two: E --inval_rw_request--> I, returning the block.
    let (fin, reply) = on_message(CacheState::Exclusive, MsgType::InvalRwRequest).unwrap();
    assert_eq!(fin, CacheState::Invalid);
    assert_eq!(reply, Some(MsgType::InvalRwResponse));
}
