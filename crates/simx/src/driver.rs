//! Driving access plans through a machine.
//!
//! Workload generators (crate `workloads`) describe each iteration as a
//! sequence of [`Phase`]s: per-processor access lists separated by
//! barriers. Within a phase, the driver interleaves processors by their
//! local clocks — the processor whose clock is earliest executes its next
//! access — so message arrival orders at directories emerge from timing,
//! exactly the effect the paper's Cosmos must adapt to ("the two
//! `get_ro_request` messages can now arrive in any order", §3.1).

use crate::concurrent::ConcurrentMachine;
use crate::event::EventQueue;
use crate::machine::{Machine, SimError};
use crate::shard::ShardedMachine;
use stache::{BlockAddr, NodeId, ProcOp};

/// The kind of access a plan step performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOp {
    /// A load.
    Read,
    /// A store.
    Write,
    /// An atomic load-then-store, modelling an update inside a critical
    /// section — the building block of migratory sharing (paper §6.1,
    /// moldyn/unstructured). The two halves execute back-to-back with no
    /// intervening access from other processors.
    ReadModifyWrite,
}

/// One memory access in a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The issuing processor.
    pub node: NodeId,
    /// The block accessed.
    pub block: BlockAddr,
    /// Load, store, or atomic read-modify-write.
    pub op: AccessOp,
}

impl Access {
    /// Creates a read access.
    pub fn read(node: NodeId, block: BlockAddr) -> Self {
        Access {
            node,
            block,
            op: AccessOp::Read,
        }
    }

    /// Creates a write access.
    pub fn write(node: NodeId, block: BlockAddr) -> Self {
        Access {
            node,
            block,
            op: AccessOp::Write,
        }
    }

    /// Creates an atomic read-modify-write access.
    pub fn rmw(node: NodeId, block: BlockAddr) -> Self {
        Access {
            node,
            block,
            op: AccessOp::ReadModifyWrite,
        }
    }
}

/// A barrier-delimited phase: an ordered access list per processor, plus
/// an optional per-processor start delay.
///
/// Delays model unequal compute time before the communication step — the
/// reason two consumers' requests "can arrive in any order" (§3.1). A
/// workload that wants arrival-order variability gives its processors
/// random delays each iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Phase {
    /// Per-processor access sequences (index = processor).
    pub per_node: Vec<Vec<Access>>,
    /// Per-processor start delay in ns (empty = no delays).
    pub delays: Vec<u64>,
}

impl Phase {
    /// Creates an empty phase for `nodes` processors.
    pub fn new(nodes: usize) -> Self {
        Phase {
            per_node: vec![Vec::new(); nodes],
            delays: Vec::new(),
        }
    }

    /// Sets a processor's start delay.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the phase.
    pub fn set_delay(&mut self, node: NodeId, delay_ns: u64) {
        if self.delays.is_empty() {
            self.delays = vec![0; self.per_node.len()];
        }
        self.delays[node.index()] = delay_ns;
    }

    /// A processor's start delay (0 when unset).
    pub fn delay(&self, node: NodeId) -> u64 {
        self.delays.get(node.index()).copied().unwrap_or(0)
    }

    /// Appends an access to its issuing processor's sequence.
    ///
    /// # Panics
    ///
    /// Panics if the access names a processor outside the phase.
    pub fn push(&mut self, access: Access) {
        self.per_node[access.node.index()].push(access);
    }

    /// Total accesses across all processors.
    pub fn len(&self) -> usize {
        self.per_node.iter().map(Vec::len).sum()
    }

    /// Whether the phase contains no accesses.
    pub fn is_empty(&self) -> bool {
        self.per_node.iter().all(Vec::is_empty)
    }
}

impl Extend<Access> for Phase {
    fn extend<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        for a in iter {
            self.push(a);
        }
    }
}

/// A whole iteration: phases executed in order with a barrier after each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IterationPlan {
    /// The phases, in program order.
    pub phases: Vec<Phase>,
}

impl IterationPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        IterationPlan::default()
    }

    /// Appends a phase.
    pub fn push(&mut self, phase: Phase) {
        self.phases.push(phase);
    }

    /// Total accesses in the plan.
    pub fn len(&self) -> usize {
        self.phases.iter().map(Phase::len).sum()
    }

    /// Whether the plan contains no accesses.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(Phase::is_empty)
    }
}

/// What driving a workload needs of a scheduler, spelled the same on all
/// three: `workloads::drive` is written once over this, and each machine
/// implements it by its inherent methods of the same names
/// ([`run_iteration`] being [`Machine`]'s `run_plan`).
pub trait Engine {
    /// Processors in the machine.
    fn nodes(&self) -> usize;

    /// Names the run in the trace metadata.
    fn set_app(&mut self, app: &str, iterations: u32);

    /// Executes one iteration plan, a barrier after every phase.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`].
    fn run_plan(&mut self, plan: &IterationPlan, iteration: u32) -> Result<(), SimError>;

    /// Audits every touched block, at quiescence.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    fn verify_coherence(&mut self) -> Result<(), SimError>;
}

impl Engine for Machine {
    fn nodes(&self) -> usize {
        self.core.proto.nodes
    }
    fn set_app(&mut self, app: &str, iterations: u32) {
        Machine::set_app(self, app, iterations);
    }
    fn run_plan(&mut self, plan: &IterationPlan, iteration: u32) -> Result<(), SimError> {
        run_iteration(self, plan, iteration)
    }
    fn verify_coherence(&mut self) -> Result<(), SimError> {
        Machine::verify_coherence(self)
    }
}

impl Engine for ConcurrentMachine {
    fn nodes(&self) -> usize {
        self.proto.nodes
    }
    fn set_app(&mut self, app: &str, iterations: u32) {
        ConcurrentMachine::set_app(self, app, iterations);
    }
    fn run_plan(&mut self, plan: &IterationPlan, iteration: u32) -> Result<(), SimError> {
        ConcurrentMachine::run_plan(self, plan, iteration)
    }
    fn verify_coherence(&mut self) -> Result<(), SimError> {
        ConcurrentMachine::verify_coherence(self)
    }
}

impl Engine for ShardedMachine {
    fn nodes(&self) -> usize {
        self.proto.nodes
    }
    fn set_app(&mut self, app: &str, iterations: u32) {
        ShardedMachine::set_app(self, app, iterations);
    }
    fn run_plan(&mut self, plan: &IterationPlan, iteration: u32) -> Result<(), SimError> {
        ShardedMachine::run_plan(self, plan, iteration)
    }
    fn verify_coherence(&mut self) -> Result<(), SimError> {
        ShardedMachine::verify_coherence(self)
    }
}

/// Executes one iteration plan on the machine, stamping trace records with
/// `iteration`. A barrier follows every phase.
///
/// # Errors
///
/// Propagates the first [`SimError`] (protocol misuse, invariant violation,
/// or stale read).
pub fn run_iteration(
    machine: &mut Machine,
    plan: &IterationPlan,
    iteration: u32,
) -> Result<(), SimError> {
    for phase in &plan.phases {
        run_phase(machine, phase, iteration)?;
        machine.barrier();
    }
    Ok(())
}

fn run_phase(machine: &mut Machine, phase: &Phase, iteration: u32) -> Result<(), SimError> {
    // Min-clock scheduling: a queue keyed by each node's clock; after a
    // node executes an access, it is re-queued at its new clock.
    let mut queue: EventQueue<(usize, usize)> = EventQueue::new(); // (node, next index)
    for (node, accesses) in phase.per_node.iter().enumerate() {
        if !accesses.is_empty() {
            let n = NodeId::new(node);
            let delay = phase.delay(n);
            if delay > 0 {
                machine.advance_clock(n, delay);
            }
            queue.push(machine.clock(n), (node, 0));
        }
    }
    while let Some((_, (node, idx))) = queue.pop() {
        let access = phase.per_node[node][idx];
        match access.op {
            AccessOp::Read => {
                machine.access(access.node, access.block, ProcOp::Read, iteration)?;
            }
            AccessOp::Write => {
                machine.access(access.node, access.block, ProcOp::Write, iteration)?;
            }
            AccessOp::ReadModifyWrite => {
                machine.access(access.node, access.block, ProcOp::Read, iteration)?;
                machine.access(access.node, access.block, ProcOp::Write, iteration)?;
            }
        }
        if idx + 1 < phase.per_node[node].len() {
            queue.push(machine.clock(NodeId::new(node)), (node, idx + 1));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use stache::ProtocolConfig;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn phase_builder() {
        let mut p = Phase::new(4);
        assert!(p.is_empty());
        p.push(Access::read(n(1), BlockAddr::new(0)));
        p.extend([Access::write(n(2), BlockAddr::new(1))]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn plan_runs_all_accesses() {
        let mut m = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
        let mut plan = IterationPlan::new();
        let mut phase = Phase::new(16);
        // Producer on node 1 writes, consumers read, all on node 0's page.
        phase.push(Access::write(n(1), BlockAddr::new(0)));
        let mut phase2 = Phase::new(16);
        phase2.push(Access::read(n(2), BlockAddr::new(0)));
        phase2.push(Access::read(n(3), BlockAddr::new(0)));
        plan.push(phase);
        plan.push(phase2);
        assert_eq!(plan.len(), 3);
        run_iteration(&mut m, &plan, 0).unwrap();
        assert_eq!(m.stats().accesses(), 3);
        assert_eq!(m.stats().barriers, 2);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn min_clock_interleaving_orders_by_time() {
        let mut m = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
        // Node 1 is already far in the future; node 2's access must run first.
        let mut w = Phase::new(16);
        for _ in 0..5 {
            w.push(Access::write(n(1), BlockAddr::new(64))); // page homed on node 1? no: block 64 -> page 1 -> home 1; local, cheap.
            w.push(Access::write(n(1), BlockAddr::new(0))); // remote: expensive
        }
        run_phase(&mut m, &w, 0).unwrap();
        assert!(m.clock(n(1)) > m.clock(n(2)));

        let c1_before = m.clock(n(1));
        let mut p = Phase::new(16);
        // Block 192 lives on page 3 (home node 3): remote for both readers.
        p.push(Access::read(n(1), BlockAddr::new(192)));
        p.push(Access::read(n(2), BlockAddr::new(192)));
        run_phase(&mut m, &p, 1).unwrap();
        // Node 2's request must have reached the directory before node 1's:
        // the first get_ro_request in the new records comes from node 2.
        let recs: Vec<_> = m
            .trace()
            .records()
            .iter()
            .filter(|r| r.mtype == stache::MsgType::GetRoRequest && r.iteration == 1)
            .collect();
        assert_eq!(recs[0].sender, n(2));
        assert!(c1_before > 0);
    }

    #[test]
    fn phase_delays_stagger_node_starts() {
        let mut m = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
        let mut p = Phase::new(16);
        // Node 2 is delayed past node 5: despite the lower index, its
        // request must reach the shared home second.
        p.push(Access::read(n(2), BlockAddr::new(192)));
        p.push(Access::read(n(5), BlockAddr::new(192)));
        p.set_delay(n(2), 10_000);
        assert_eq!(p.delay(n(2)), 10_000);
        assert_eq!(p.delay(n(5)), 0);
        run_phase(&mut m, &p, 0).unwrap();
        let requests: Vec<_> = m
            .trace()
            .records()
            .iter()
            .filter(|r| r.mtype == stache::MsgType::GetRoRequest)
            .map(|r| r.sender)
            .collect();
        assert_eq!(requests, vec![n(5), n(2)]);
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let mut m = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
        let plan = IterationPlan::new();
        run_iteration(&mut m, &plan, 0).unwrap();
        assert_eq!(m.stats().accesses(), 0);
        assert!(plan.is_empty());
    }
}
