//! The simulated machine: caches + directories + network + trace capture,
//! one coherence transaction at a time — plus the error type every engine
//! shares ([`SimError`]).
//!
//! This is the plain walk that makes the paper's tables: a perfect fabric
//! and an unmodified protocol. Lossy networks and §4 speculation are
//! event-engine capabilities — see [`ConcurrentMachine`].

use crate::concurrent::ConcurrentMachine;
use crate::config::SystemConfig;
use crate::stats::MachineStats;
use obs::span::TraceId;
use stache::cache::{self, CacheAction};
use stache::directory::{self, DirOutcome};
use stache::fasthash::FastMap;
use stache::invariants::InvariantViolation;
use stache::placement::home_of_block;
use stache::{
    BlockAddr, CacheState, Msg, MsgType, NodeId, ProcOp, ProtocolConfig, ProtocolError,
    ProtocolTally,
};
use std::error::Error;
use std::fmt;
use trace::TraceBundle;

/// A simulation failure: a protocol error, a coherence-invariant violation,
/// or a stale read (a processor observed a value older than the last write).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The protocol state machines rejected an event.
    Protocol(ProtocolError),
    /// A global coherence invariant was violated.
    Invariant(InvariantViolation),
    /// A read observed a stale value.
    StaleRead {
        /// The reading node.
        node: NodeId,
        /// The block read.
        block: BlockAddr,
        /// The (stale) value observed.
        saw: u64,
        /// The most recent write stamp.
        expected: u64,
    },
    /// An access named a node outside the configured machine.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the machine.
        nodes: usize,
    },
    /// The fault-injected network dropped a message more times than the
    /// retry budget allows; the sender declared the fabric broken.
    RetryExhausted {
        /// The sending node.
        from: NodeId,
        /// The intended receiver.
        to: NodeId,
        /// Transmission attempts made (original plus retries).
        attempts: u32,
    },
    /// A barrier found transaction spans still open although every
    /// transaction had completed: a root span a protocol path never
    /// closed. Only a traced run can report it.
    OrphanedSpans {
        /// Spans the barrier closed and flagged `"orphaned"`.
        count: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Protocol(e) => write!(f, "protocol error: {e}"),
            SimError::Invariant(v) => write!(f, "invariant violation: {v}"),
            SimError::StaleRead {
                node,
                block,
                saw,
                expected,
            } => {
                write!(
                    f,
                    "stale read at {node} of {block}: saw {saw}, expected {expected}"
                )
            }
            SimError::NodeOutOfRange { node, nodes } => {
                write!(f, "{node} outside machine of {nodes} nodes")
            }
            SimError::RetryExhausted { from, to, attempts } => {
                write!(
                    f,
                    "message {from} -> {to} lost {attempts} times; retry budget exhausted"
                )
            }
            SimError::OrphanedSpans { count } => {
                write!(f, "{count} span(s) still open at a quiescent barrier")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Protocol(e) => Some(e),
            SimError::Invariant(v) => Some(v),
            _ => None,
        }
    }
}

impl From<ProtocolError> for SimError {
    fn from(e: ProtocolError) -> Self {
        SimError::Protocol(e)
    }
}

impl From<InvariantViolation> for SimError {
    fn from(v: InvariantViolation) -> Self {
        SimError::Invariant(v)
    }
}

/// The result of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit without coherence action.
    pub hit: bool,
    /// End-to-end latency of the access in ns.
    pub latency_ns: u64,
    /// Coherence messages generated.
    pub messages: usize,
}

/// The simulated machine.
///
/// Coherence transactions are serialised per block; processor interleaving
/// is governed by per-node clocks (see [`crate::driver`]). Every message
/// reception is appended to the machine's [`TraceBundle`].
///
/// A `Machine` is a *scheduler* over a [`ConcurrentMachine`] core, like a
/// [`shard`](crate::shard): the core owns the protocol store (cache and
/// directory state, clocks, handler horizons) and its instruments (trace,
/// stats, tallies), and every state write and recorded message
/// goes through the core's own writers. What is kept here is what makes this a different
/// scheduler — each transaction walked to completion in closed form
/// instead of as queued events — and the data-value oracle.
#[derive(Debug)]
pub struct Machine {
    /// The protocol store and its instruments. Its event queue, scripts
    /// and transaction table stay empty: nothing here dispatches events.
    pub(crate) core: ConcurrentMachine,
    /// Value each remote cache holds (write stamps).
    cache_values: Vec<FastMap<BlockAddr, u64>>,
    /// Memory's current value per block.
    mem_values: FastMap<BlockAddr, u64>,
    /// Globally most recent write per block — the oracle for stale-read checks.
    last_written: FastMap<BlockAddr, u64>,
    next_stamp: u64,
    /// When true, the full-map/SWMR invariants are audited after every
    /// transaction (slow; used by tests).
    pub paranoid: bool,
}

impl Machine {
    /// Creates a machine with the given protocol and timing configuration.
    pub fn new(proto: ProtocolConfig, sys: SystemConfig) -> Self {
        let nodes = proto.nodes;
        Machine {
            core: ConcurrentMachine::new(proto, sys),
            cache_values: vec![FastMap::default(); nodes],
            mem_values: FastMap::default(),
            last_written: FastMap::default(),
            next_stamp: 0,
            paranoid: false,
        }
    }

    /// Names the trace (workload name recorded in the bundle metadata).
    pub fn set_app(&mut self, app: &str, iterations: u32) {
        self.core.set_app(app, iterations);
    }

    /// The timing configuration.
    pub fn system_config(&self) -> &SystemConfig {
        &self.core.sys
    }

    /// The trace captured so far.
    pub fn trace(&self) -> &TraceBundle {
        self.core.trace()
    }

    /// Consumes the machine, returning its trace.
    pub fn into_trace(self) -> TraceBundle {
        self.core.into_trace()
    }

    /// Simulation statistics.
    pub fn stats(&self) -> &MachineStats {
        self.core.stats()
    }

    /// Per-transition protocol tallies.
    pub fn tally(&self) -> &ProtocolTally {
        self.core.tally()
    }

    /// Point-in-time export of every machine metric: access and message
    /// counters, latency histograms, per-transition tallies, and
    /// invariant-check counts. (No `simx.queue.depth`: this scheduler
    /// queues nothing.)
    pub fn obs_snapshot(&self) -> obs::Snapshot {
        self.core.store_snapshot()
    }

    /// A node's local clock in ns.
    pub fn clock(&self, node: NodeId) -> u64 {
        self.core.clocks[node.index()]
    }

    /// Advances a node's clock by `ns` (local compute time with no memory
    /// traffic — used by the driver for per-phase start delays).
    pub fn advance_clock(&mut self, node: NodeId, ns: u64) {
        self.core.clocks[node.index()] += ns;
    }

    /// The machine's execution time so far: the latest node clock. This is
    /// the quantity the §4 integration study compares with and without
    /// speculation.
    pub fn execution_time_ns(&self) -> u64 {
        self.core.execution_time_ns()
    }

    /// Synchronises all nodes at a barrier: every clock advances to the
    /// maximum plus the barrier cost. Stache implements barriers with
    /// point-to-point messages excluded from prediction (§5.1), so no
    /// coherence records are produced.
    ///
    /// The event engines audit the blocks written since the last barrier
    /// here; this engine audits per access (`paranoid`) or on demand
    /// ([`verify_coherence`](Self::verify_coherence)), so the core's list
    /// of written blocks is dropped unread.
    pub fn barrier(&mut self) {
        self.core.dirty.clear();
        self.core.sync_clocks();
    }

    /// One protocol leg sent at `send_at`: one hop and a sample in the
    /// network-latency histogram. Returns the arrival time.
    fn leg(&mut self, send_at: u64) -> u64 {
        let hop = self.core.sys.one_way_ns();
        self.core.stats.net_latency_ns.record(hop);
        send_at + hop
    }

    /// Executes one memory access by `node` at `block` and advances the
    /// node's clock. `iteration` stamps the trace records produced.
    ///
    /// # Errors
    ///
    /// Fails on protocol errors (driver bugs), invariant violations (in
    /// `paranoid` mode), stale reads, or out-of-range nodes.
    pub fn access(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        op: ProcOp,
        iteration: u32,
    ) -> Result<AccessOutcome, SimError> {
        if node.index() >= self.core.proto.nodes {
            return Err(SimError::NodeOutOfRange {
                node,
                nodes: self.core.proto.nodes,
            });
        }
        self.core.iteration = iteration;
        let home = home_of_block(block, &self.core.proto);
        let outcome = if node == home {
            self.access_local(node, block, op)?
        } else {
            self.access_remote(node, home, block, op)?
        };
        self.core
            .stats
            .count_access(op, outcome.hit, outcome.latency_ns);
        if op == ProcOp::Read {
            self.check_read(node, home, block)?;
        }
        if self.paranoid {
            self.verify_block(block)?;
        }
        Ok(outcome)
    }

    /// Access by the home node itself: no request/response messages, but
    /// remote holders may need invalidating.
    fn access_local(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        op: ProcOp,
    ) -> Result<AccessOutcome, SimError> {
        // The hit test reads the entry's word; only a miss decodes it.
        let e = self.core.dir.get(block).copied().unwrap_or_default();
        let outcome = if e.grants(node, op, &self.core.wide) {
            None
        } else {
            directory::handle_local(&self.core.wide.state(e), node, op)
        };
        let Some(outcome) = outcome else {
            // Sufficient rights already: a local hit.
            self.core.clocks[node.index()] += self.core.sys.cache_hit_ns;
            if op == ProcOp::Write {
                self.commit_local_write(block);
            }
            return Ok(AccessOutcome {
                hit: true,
                latency_ns: self.core.sys.cache_hit_ns,
                messages: 0,
            });
        };
        let start = self.core.clocks[node.index()];
        // The local access still occupies the node's own software handler.
        let (_, dispatch) = self.core.occupy_dir_handler(node, start, TraceId::NONE);
        let (done, messages) = self.collect_holders(&outcome, node, block, dispatch)?;
        self.core.set_dir(block, outcome.next.clone());
        let end = done + self.core.sys.mem_access_ns;
        self.core.clocks[node.index()] = end;
        if op == ProcOp::Write {
            self.commit_local_write(block);
        }
        Ok(AccessOutcome {
            hit: false,
            latency_ns: end - start,
            messages,
        })
    }

    /// Access by a remote node: request to the directory, holder
    /// invalidations, reply back.
    fn access_remote(
        &mut self,
        node: NodeId,
        home: NodeId,
        block: BlockAddr,
        op: ProcOp,
    ) -> Result<AccessOutcome, SimError> {
        let state = self.core.cache_state(node, block);
        let (transient, action) = cache::on_processor_op(state, op)?;
        let CacheAction::Send(req) = action else {
            // A cache hit on a remote page.
            self.core.clocks[node.index()] += self.core.sys.cache_hit_ns;
            if op == ProcOp::Write {
                self.commit_remote_write(node, block);
            }
            return Ok(AccessOutcome {
                hit: true,
                latency_ns: self.core.sys.cache_hit_ns,
                messages: 0,
            });
        };
        self.core.set_cache_state(node, block, transient);

        let start = self.core.clocks[node.index()];
        // Request travels to the directory.
        let t_req = self.leg(start);
        self.core.record(t_req, &Msg::new(node, home, block, req));
        let mut messages = 1;

        let dir = self.core.dir_state(block);
        let outcome =
            directory::handle_request(&dir, home, node, req).map_err(SimError::Protocol)?;
        // The software handler serialises requests at the home.
        let (_, dispatch) = self.core.occupy_dir_handler(home, t_req, TraceId::NONE);
        let (ready, holder_msgs) = self.collect_holders(&outcome, home, block, dispatch)?;
        messages += holder_msgs;

        // Reply to the requester.
        let reply = outcome.reply.expect("remote requests always get a reply");
        let t_reply = self.leg(ready);
        self.core
            .record(t_reply, &Msg::new(home, node, block, reply));
        messages += 1;

        let (stable, extra) = cache::on_message(transient, reply)?;
        debug_assert!(extra.is_none(), "grant replies need no response");
        self.core.set_cache_state(node, block, stable);
        self.core.set_dir(block, outcome.next.clone());

        // Data movement: fills come from (now current) memory.
        match op {
            ProcOp::Read => {
                let v = self.mem_values.get(&block).copied().unwrap_or(0);
                self.cache_values[node.index()].insert(block, v);
            }
            ProcOp::Write => {
                self.commit_remote_write(node, block);
            }
        }

        let end = t_reply + self.core.sys.handler_ns;
        self.core.clocks[node.index()] = end;
        Ok(AccessOutcome {
            hit: false,
            latency_ns: end - start,
            messages,
        })
    }

    /// Sends the plan's invalidations/downgrades (in parallel) and collects
    /// the responses at the directory. Returns the time when the directory
    /// has all responses, and the number of messages exchanged.
    fn collect_holders(
        &mut self,
        outcome: &DirOutcome,
        outcome_home: NodeId,
        block: BlockAddr,
        dispatch: u64,
    ) -> Result<(u64, usize), SimError> {
        let mut ready = dispatch;
        let mut messages = 0;
        let imsg = outcome.holder_request;
        for target in &outcome.holders {
            let t_inv = self.leg(dispatch);
            self.core
                .record(t_inv, &Msg::new(outcome_home, target, block, imsg));
            let handled = t_inv + self.core.sys.handler_ns;

            let state = self.core.cache_state(target, block);
            let (next, reply) = cache::on_message(state, imsg)?;
            self.core.set_cache_state(target, block, next);
            // Writebacks: an exclusive copy returns its (dirty) data.
            if matches!(imsg, MsgType::InvalRwRequest | MsgType::DowngradeRequest) {
                if let Some(v) = self.cache_values[target.index()].get(&block).copied() {
                    self.mem_values.insert(block, v);
                }
            }
            if next == CacheState::Invalid {
                self.cache_values[target.index()].remove(&block);
            }
            let reply = reply.expect("invalidations and downgrades are acknowledged");
            let t_resp = self.leg(handled);
            self.core
                .record(t_resp, &Msg::new(target, outcome_home, block, reply));
            messages += 2;
            let gathered = t_resp + self.core.sys.handler_ns;
            ready = ready.max(gathered);
        }
        Ok((ready, messages))
    }

    fn commit_local_write(&mut self, block: BlockAddr) {
        self.next_stamp += 1;
        // The home's copy is memory itself.
        self.mem_values.insert(block, self.next_stamp);
        self.last_written.insert(block, self.next_stamp);
    }

    fn commit_remote_write(&mut self, node: NodeId, block: BlockAddr) {
        self.next_stamp += 1;
        self.cache_values[node.index()].insert(block, self.next_stamp);
        self.last_written.insert(block, self.next_stamp);
    }

    /// After a read, verify the value seen is the most recent write.
    fn check_read(&self, node: NodeId, home: NodeId, block: BlockAddr) -> Result<(), SimError> {
        let expected = self.last_written.get(&block).copied().unwrap_or(0);
        let saw = if node == home {
            self.mem_values.get(&block).copied().unwrap_or(0)
        } else {
            self.cache_values[node.index()]
                .get(&block)
                .copied()
                .unwrap_or(0)
        };
        if saw != expected {
            return Err(SimError::StaleRead {
                node,
                block,
                saw,
                expected,
            });
        }
        Ok(())
    }

    /// Audits the full-map/SWMR invariants for one block.
    ///
    /// # Errors
    ///
    /// Returns the violation, if any.
    pub fn verify_block(&self, block: BlockAddr) -> Result<(), SimError> {
        self.core.audit([block])
    }

    /// Audits every block ever touched, ascending.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify_coherence(&self) -> Result<(), SimError> {
        self.core.verify_coherence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(ProtocolConfig::paper(), SystemConfig::paper())
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Block homed on node 0.
    fn b0() -> BlockAddr {
        BlockAddr::new(0)
    }

    #[test]
    fn remote_read_miss_generates_request_response() {
        let mut m = machine();
        let out = m.access(n(1), b0(), ProcOp::Read, 0).unwrap();
        assert!(!out.hit);
        assert_eq!(out.messages, 2);
        let types: Vec<MsgType> = m.trace().records().iter().map(|r| r.mtype).collect();
        assert_eq!(types, vec![MsgType::GetRoRequest, MsgType::GetRoResponse]);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn read_hit_after_fill() {
        let mut m = machine();
        m.access(n(1), b0(), ProcOp::Read, 0).unwrap();
        let out = m.access(n(1), b0(), ProcOp::Read, 0).unwrap();
        assert!(out.hit);
        assert_eq!(m.trace().len(), 2);
    }

    #[test]
    fn figure_one_store_to_remote_exclusive() {
        let mut m = machine();
        // Processor two (node 2) takes the block exclusive.
        m.access(n(2), b0(), ProcOp::Write, 0).unwrap();
        // Processor one (node 1) stores: 4 messages (get_rw_request,
        // inval_rw_request, inval_rw_response, get_rw_response).
        let out = m.access(n(1), b0(), ProcOp::Write, 0).unwrap();
        assert_eq!(out.messages, 4);
        let types: Vec<MsgType> = m
            .trace()
            .records()
            .iter()
            .skip(2)
            .map(|r| r.mtype)
            .collect();
        assert_eq!(
            types,
            vec![
                MsgType::GetRwRequest,
                MsgType::InvalRwRequest,
                MsgType::InvalRwResponse,
                MsgType::GetRwResponse,
            ]
        );
        m.verify_coherence().unwrap();
    }

    #[test]
    fn half_migratory_read_invalidates_owner() {
        let mut m = machine();
        m.access(n(2), b0(), ProcOp::Write, 0).unwrap();
        m.access(n(1), b0(), ProcOp::Read, 0).unwrap();
        // Owner must be gone; reader holds it shared.
        m.verify_coherence().unwrap();
        // A second write by node 2 misses again (its copy was invalidated).
        let out = m.access(n(2), b0(), ProcOp::Write, 0).unwrap();
        assert!(!out.hit);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn upgrade_path_invalidates_other_sharers() {
        let mut m = machine();
        m.access(n(1), b0(), ProcOp::Read, 0).unwrap();
        m.access(n(2), b0(), ProcOp::Read, 0).unwrap();
        let before = m.trace().len();
        let out = m.access(n(1), b0(), ProcOp::Write, 0).unwrap();
        assert!(!out.hit);
        // upgrade_request, inval_ro_request, inval_ro_response, upgrade_response.
        assert_eq!(m.trace().len() - before, 4);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn local_accesses_are_message_free() {
        let mut m = machine();
        let out = m.access(n(0), b0(), ProcOp::Write, 0).unwrap();
        assert_eq!(out.messages, 0);
        let out = m.access(n(0), b0(), ProcOp::Read, 0).unwrap();
        assert!(out.hit);
        assert_eq!(m.trace().len(), 0);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn local_write_invalidates_remote_sharers_with_messages() {
        let mut m = machine();
        m.access(n(1), b0(), ProcOp::Read, 0).unwrap();
        m.access(n(2), b0(), ProcOp::Read, 0).unwrap();
        let before = m.trace().len();
        m.access(n(0), b0(), ProcOp::Write, 0).unwrap();
        // Two inval_ro_request + two inval_ro_response; no request/reply.
        assert_eq!(m.trace().len() - before, 4);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn reads_always_observe_last_write() {
        let mut m = machine();
        // Interleave writes and reads from many nodes; the machine asserts
        // freshness internally, so completing without error is the test.
        for round in 0..10 {
            let writer = n(1 + (round % 3));
            m.access(writer, b0(), ProcOp::Write, 0).unwrap();
            for reader in [n(4), n(5), n(0)] {
                m.access(reader, b0(), ProcOp::Read, 0).unwrap();
            }
        }
        m.verify_coherence().unwrap();
    }

    #[test]
    fn barrier_synchronises_clocks() {
        let mut m = machine();
        m.access(n(1), b0(), ProcOp::Write, 0).unwrap();
        assert!(m.clock(n(1)) > 0);
        assert_eq!(m.clock(n(3)), 0);
        m.barrier();
        assert_eq!(m.clock(n(1)), m.clock(n(3)));
        assert!(m.clock(n(3)) > 0);
    }

    #[test]
    fn out_of_range_node_rejected() {
        let mut m = machine();
        let err = m
            .access(NodeId::new(16), b0(), ProcOp::Read, 0)
            .unwrap_err();
        assert!(matches!(err, SimError::NodeOutOfRange { .. }));
    }

    #[test]
    fn record_order_is_the_serialization_order() {
        // Record order — not raw timestamps — is the authoritative arrival
        // order: per-block transactions are serialized, and each
        // transaction's own records are time-monotone.
        let mut m = machine();
        m.access(n(2), b0(), ProcOp::Write, 0).unwrap();
        m.access(n(1), b0(), ProcOp::Write, 0).unwrap();
        let recs = m.trace().records();
        // First transaction: request then response.
        assert!(recs[0].time_ns <= recs[1].time_ns);
        // Second transaction: request, inval, inval-ack, response.
        let second = &recs[2..];
        assert!(second.windows(2).all(|w| w[0].time_ns <= w[1].time_ns));
        // The serialization order puts the first writer's messages first.
        assert_eq!(recs[0].sender, n(2));
        assert_eq!(recs[2].sender, n(1));
    }

    #[test]
    fn paranoid_mode_audits_every_access() {
        let mut m = machine();
        m.paranoid = true;
        for i in 1..8 {
            m.access(n(i), b0(), ProcOp::Read, 0).unwrap();
        }
        m.access(n(1), b0(), ProcOp::Write, 0).unwrap();
    }

    #[test]
    fn stats_track_messages_and_hits() {
        let mut m = machine();
        m.access(n(1), b0(), ProcOp::Read, 0).unwrap();
        m.access(n(1), b0(), ProcOp::Read, 0).unwrap();
        let s = m.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.messages_total(), 2);
    }

    #[test]
    fn obs_snapshot_spans_stats_and_tally() {
        let mut m = machine();
        m.access(n(1), b0(), ProcOp::Read, 0).unwrap();
        m.verify_coherence().unwrap();
        let snap = m.obs_snapshot();
        assert!(matches!(
            snap.get("simx.access.reads"),
            Some(obs::MetricValue::Counter(1))
        ));
        assert!(snap.get("stache.cache.transition.invalid.i_to_s").is_some());
        assert!(matches!(
            snap.get("stache.invariant.checks"),
            Some(obs::MetricValue::Counter(c)) if *c > 0
        ));
        assert!(matches!(
            snap.get("simx.net.one_way_ns"),
            Some(obs::MetricValue::Histogram(h)) if h.count() == 2
        ));
    }

    #[test]
    fn a_serialized_run_does_not_hoard_the_written_block_list() {
        // The core lists every written block for the event engines'
        // barrier audit. This scheduler must empty that list at each
        // barrier — and must not audit it: invariant checks here happen
        // per access (`paranoid`) or on demand, never at a barrier.
        use crate::driver::{run_iteration, Access, IterationPlan, Phase};
        let mut plan = IterationPlan::new();
        for round in 0..3u64 {
            let mut phase = Phase::new(16);
            for p in 1..6 {
                phase.push(Access::write(n(p), BlockAddr::new(round * 64 + p as u64)));
                phase.push(Access::read(
                    n(p + 1),
                    BlockAddr::new(round * 64 + p as u64),
                ));
            }
            plan.push(phase);
        }
        let mut m = machine();
        run_iteration(&mut m, &plan, 0).unwrap();
        assert!(m.stats().messages_total() > 0);
        assert!(m.core.dirty.is_empty(), "barrier drops the list");
        assert_eq!(m.tally().invariant_checks(), 0, "and audits nothing");
        // Between barriers the list is the core's to fill.
        m.access(n(1), b0(), ProcOp::Write, 1).unwrap();
        assert!(m.core.dirty.contains(&b0()));
        m.barrier();
        assert!(m.core.dirty.is_empty());
    }

    #[test]
    fn a_clean_snapshot_has_exactly_the_serialized_metric_set() {
        // Sharing the core's exporter must not leak the event engines'
        // extras (`simx.queue.depth`) or any fault / rollback / span key
        // into a clean run: `appbt_small_obs.json` pins the same set.
        let mut m = machine();
        m.access(n(1), b0(), ProcOp::Write, 0).unwrap();
        m.access(n(2), b0(), ProcOp::Read, 0).unwrap();
        m.access(n(0), b0(), ProcOp::Write, 0).unwrap();
        m.barrier();
        let snap = m.obs_snapshot();
        let expect = [
            "simx.access.hit_rate",
            "simx.access.hits",
            "simx.access.latency_ns",
            "simx.access.misses",
            "simx.access.reads",
            "simx.access.writes",
            "simx.barriers",
            "simx.msg.sent.get_ro_request",
            "simx.msg.sent.get_ro_response",
            "simx.msg.sent.get_rw_request",
            "simx.msg.sent.get_rw_response",
            "simx.msg.sent.inval_ro_request",
            "simx.msg.sent.inval_ro_response",
            "simx.msg.sent.inval_rw_request",
            "simx.msg.sent.inval_rw_response",
            "simx.msg.total",
            "simx.net.one_way_ns",
            "simx.speculation.exclusive_grants",
            "simx.speculation.voluntary_replacements",
            "simx.trace.records",
            "stache.cache.transition.exclusive.invalid",
            "stache.cache.transition.i_to_e.exclusive",
            "stache.cache.transition.i_to_s.shared",
            "stache.cache.transition.invalid.i_to_e",
            "stache.cache.transition.invalid.i_to_s",
            "stache.cache.transition.shared.invalid",
            "stache.dir.transition.exclusive.shared",
            "stache.dir.transition.idle.exclusive",
            "stache.dir.transition.shared.exclusive",
            "stache.invariant.checks",
            "stache.invariant.failures",
        ];
        assert_eq!(snap.names(), expect);
        assert!(matches!(
            snap.get("stache.invariant.checks"),
            Some(obs::MetricValue::Counter(0))
        ));
    }

    #[test]
    fn an_audited_violation_is_counted_and_typed() {
        let mut m = machine();
        m.access(n(1), b0(), ProcOp::Read, 0).unwrap();
        // Force a second, bogus exclusive copy: node 2 claims ownership
        // while node 1 legitimately shares the block.
        m.core.set_cache_state(n(2), b0(), CacheState::Exclusive);
        let err = m.verify_block(b0()).unwrap_err();
        assert!(matches!(
            err,
            SimError::Invariant(InvariantViolation::WriterWithReaders { writer, .. })
                if writer == n(2)
        ));
        assert_eq!(m.tally().invariant_failures(), 1);
    }
}

#[cfg(test)]
mod occupancy_tests {
    use super::*;

    #[test]
    fn back_to_back_requests_queue_at_the_home_handler() {
        let mut m = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
        let sys = SystemConfig::paper();
        // Two different blocks, same home (node 0), requested by two
        // processors whose clocks are both zero: the requests arrive at
        // the same instant, and the second must wait for the handler.
        m.access(NodeId::new(1), BlockAddr::new(1), ProcOp::Read, 0)
            .unwrap();
        let first_reply = m.trace().records()[1].time_ns;
        // Node 2's clock is still 0: its request also arrives at one-way.
        m.access(NodeId::new(2), BlockAddr::new(2), ProcOp::Read, 0)
            .unwrap();
        let second_reply = m.trace().records()[3].time_ns;
        assert_eq!(
            second_reply,
            first_reply + sys.handler_ns,
            "the second request waits out the first's handler occupancy"
        );
    }

    #[test]
    fn distinct_homes_do_not_contend() {
        let mut m = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
        // Blocks on pages 0 and 1 are homed on nodes 0 and 1.
        m.access(NodeId::new(2), BlockAddr::new(0), ProcOp::Read, 0)
            .unwrap();
        let first_reply = m.trace().records()[1].time_ns;
        m.access(NodeId::new(3), BlockAddr::new(64), ProcOp::Read, 0)
            .unwrap();
        let second_reply = m.trace().records()[3].time_ns;
        assert_eq!(
            first_reply, second_reply,
            "independent handlers run in parallel"
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    #[test]
    fn clean_snapshot_has_no_fault_metrics() {
        // The walk has no fault or recovery layer; sharing the core's
        // exporter must not leak the event engine's keys for one.
        let mut m = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
        m.access(NodeId::new(1), BlockAddr::new(0), ProcOp::Read, 0)
            .unwrap();
        let snap = m.obs_snapshot();
        assert!(snap
            .names()
            .iter()
            .all(|k| !k.starts_with("simx.fault.") && !k.starts_with("stache.recovery.")));
    }
}
