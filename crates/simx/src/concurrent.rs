//! A message-level concurrent execution engine.
//!
//! The default [`Machine`](crate::Machine) serialises whole coherence
//! transactions — faithful per block, but transactions on *different*
//! blocks cannot overlap in time. This engine is the next fidelity step:
//! every message is a discrete event, each node's (software) directory and
//! cache handlers have occupancy, and a directory services one transaction
//! per block at a time while requests for *other* blocks proceed in
//! parallel. Requests arriving for a busy block queue at the home, as
//! Stache's software handlers do.
//!
//! Two genuinely concurrent phenomena appear that the serialized engine
//! cannot produce:
//!
//! * **the upgrade race** — a cache's `upgrade_request` loses to another
//!   writer's invalidation; the cache falls to I-to-E
//!   ([`stache::cache::on_message`] documents the transition) and the
//!   directory converts the stale upgrade into a write miss;
//! * **non-atomic read-modify-writes** — a competitor can slip between a
//!   processor's read and write of the same block (the behaviour dsmc's
//!   pre-stabilisation scramble models explicitly at plan level).
//!
//! Coherence is checked structurally: the full-map and SWMR invariants
//! are audited at every barrier, where the machine is quiescent, and
//! [`simcheck`](crate::simcheck) re-checks them after every forced step.
//! (This engine keeps no data values; the read-sees-latest-write oracle
//! is [`Machine::check_read`](crate::Machine).)
//!
//! [`ConcurrentMachine`] is also the crate's protocol *core* — the one
//! store and its only writers (`set_dir`, `set_cache_state`, `record`) —
//! which the other two schedulers run on (see the crate docs). The store
//! is block-major: one table of directory entries (state and open
//! transaction together) and one of each block's cached copies,
//! nothing per node. A handler looks its block up once, in the table of
//! its side, and hands the entry down — so an event costs the same on 16
//! nodes and on 1024, and allocates nothing (DESIGN.md §6h).
//!
//! Handlers never touch the event queue: everything they schedule goes
//! onto an outbox that the stepping loop moves into the queue once the
//! handler returns. Nothing pops in between, so the order — and every
//! sequence number — is what a direct push would give; the point is that
//! a different scheduler can take the outbox instead
//! ([`shard`](crate::shard) runs these same handlers under conservative
//! time windows).

use crate::config::{SystemConfig, BARRIER_NS, CACHE_HIT_NS, HANDLER_NS, MEM_ACCESS_NS};
use crate::driver::{AccessOp, IterationPlan, Phase};
use crate::event::EventQueue;
use crate::fault::{FaultInjector, FaultPlan, FaultTally};
use crate::machine::SimError;
use crate::speculate::{ForwardKind, SpeculationPolicy};
use crate::stats::MachineStats;
use crate::store::{with_home_rights, BlockTable, Copies, DirEntry, Holder, WideSets, NO_TXN};
use obs::span::{SpanKind, SpanLog, TraceId};
use stache::cache::{self, CacheAction};
use stache::directory::{self};
use stache::fingerprint::Fp;
use stache::invariants::{check_block_sparse, InvariantViolation};
use stache::placement::home_of_block;
use stache::{
    BlockAddr, CacheState, DedupFilter, DirState, Msg, MsgType, NodeId, NodeSet, ProcOp,
    ProtocolConfig, ProtocolTally, RecoveryTally, RollbackTally,
};
use std::borrow::Cow;
use std::collections::VecDeque;
use trace::{MsgRecord, TraceBundle, TraceMeta};

/// A queued event.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A processor attempts its next script operation.
    Issue(NodeId),
    /// A message is delivered to its receiver, carrying its transmission
    /// sequence number (0 and unchecked on a perfect fabric).
    Deliver(Msg, u64),
    /// A NAK bounces a request for a busy block back to its sender
    /// (fault mode only). NAKs are recovery-layer control traffic,
    /// excluded from the trace vocabulary like §5.1 barrier messages.
    Nak {
        /// The NAKed requester.
        node: NodeId,
        /// The contended block.
        block: BlockAddr,
    },
    /// A requester's retransmission timer (fault mode only). Lazily
    /// cancelled: stale epochs are ignored when popped.
    RetryCheck {
        /// The waiting requester.
        node: NodeId,
        /// The miss epoch the timer was armed in.
        epoch: u64,
        /// Transmission attempts made so far.
        attempt: u32,
    },
    /// A directory's invalidation-acknowledgment timer (fault mode
    /// only), also lazily cancelled via the transaction epoch.
    AckCheck {
        /// The transaction's block.
        block: BlockAddr,
        /// The transaction epoch the timer was armed for.
        epoch: u64,
        /// Re-send rounds completed so far.
        attempt: u32,
    },
    /// A speculative push (unsolicited grant) travelling home → target
    /// over the reliable control channel. Like NAKs, pushes are outside
    /// the Table 1 trace vocabulary. The message type encodes the flavour
    /// (`get_ro_response` = shared copy, `get_rw_response` = exclusive).
    SpecPush(Msg, u64),
    /// The target's verdict on a push, travelling back to the home.
    SpecPushResp {
        /// The response message (target → home).
        msg: Msg,
        /// Whether the target accepted the pushed copy.
        accepted: bool,
        /// Transmission sequence number (0 on a perfect fabric).
        seq: u64,
    },
}

impl Event {
    /// A message delivery's message and transmission sequence number;
    /// `None` for the other events.
    fn on_wire(&self) -> Option<(Msg, u64)> {
        match *self {
            Event::Deliver(msg, seq)
            | Event::SpecPush(msg, seq)
            | Event::SpecPushResp { msg, seq, .. } => Some((msg, seq)),
            _ => None,
        }
    }

    /// Human-readable label, used in simcheck schedule artifacts.
    fn label(&self) -> String {
        match self {
            Event::Issue(n) => format!("issue P{}", n.raw()),
            Event::Deliver(m, _) => format!(
                "deliver {} P{}->P{} B{}",
                m.mtype.paper_name(),
                m.sender.raw(),
                m.receiver.raw(),
                m.block.number()
            ),
            Event::Nak { node, block } => format!("nak P{} B{}", node.raw(), block.number()),
            Event::RetryCheck { node, attempt, .. } => {
                format!("retry_check P{} attempt {attempt}", node.raw())
            }
            Event::AckCheck { block, attempt, .. } => {
                format!("ack_check B{} attempt {attempt}", block.number())
            }
            Event::SpecPush(m, _) => format!(
                "spec_push {} P{}->P{} B{}",
                m.mtype.paper_name(),
                m.sender.raw(),
                m.receiver.raw(),
                m.block.number()
            ),
            Event::SpecPushResp { msg, accepted, .. } => format!(
                "spec_push_resp {} P{}->P{} B{}",
                if *accepted { "accept" } else { "reject" },
                msg.sender.raw(),
                msg.receiver.raw(),
                msg.block.number()
            ),
        }
    }

    /// Canonical fingerprint, timing-free: two schedules that leave the
    /// same messages in flight hash equally even if their timestamps
    /// differ. Timer epochs are also excluded — they are monotone
    /// bookkeeping counters, not protocol state.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fp::new();
        match self {
            Event::Issue(n) => {
                fp.tag(0x10);
                fp.absorb(n);
            }
            Event::Deliver(m, seq) => {
                fp.tag(0x11);
                fp.absorb(m);
                fp.word(*seq);
            }
            Event::Nak { node, block } => {
                fp.tag(0x12);
                fp.absorb(node);
                fp.absorb(block);
            }
            Event::RetryCheck { node, attempt, .. } => {
                fp.tag(0x13);
                fp.absorb(node);
                fp.word(u64::from(*attempt));
            }
            Event::AckCheck { block, attempt, .. } => {
                fp.tag(0x14);
                fp.absorb(block);
                fp.word(u64::from(*attempt));
            }
            Event::SpecPush(m, seq) => {
                fp.tag(0x15);
                fp.absorb(m);
                fp.word(*seq);
            }
            Event::SpecPushResp { msg, accepted, seq } => {
                fp.tag(0x16);
                fp.absorb(msg);
                fp.word(u64::from(*accepted));
                fp.word(*seq);
            }
        }
        fp.finish()
    }
}

/// The table lookup an event's handler opens with, as
/// [`ConcurrentMachine::first_touch`] predicts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Touch {
    /// The block's directory entry: the executing node is its home.
    Dir(BlockAddr),
    /// The block's copies in other nodes' caches.
    Copies(BlockAddr),
}

/// A deliberately broken protocol variant, used to validate that the
/// `simcheck` model checker actually catches bugs: a known-bad transition
/// is seeded, the checker must find a violating schedule, and the shrunk
/// schedule must replay to the same violation. Never enabled outside
/// tests and the checker's own self-validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolMutation {
    /// The correct protocol.
    #[default]
    None,
    /// A shared cache acknowledges `inval_ro_request` but keeps its copy —
    /// the directory then grants exclusive rights while a stale reader
    /// survives, violating SWMR a few deliveries later.
    AckWithoutInvalidate,
    /// A build with no speculative rollback healing at all: the
    /// directory commits a push even when the target rejects it, drops
    /// the target's voluntary ack when it crosses the push verdict, and
    /// skips the replacement-hint strip that would repair a stale entry
    /// on the holder's next demand miss. The entry then records a copy
    /// nobody holds — the quiescent full-map audit flags it, or the
    /// phantom holder's next request trips `InconsistentDirectory`.
    SpeculateWithoutRollback,
}

impl ProtocolMutation {
    /// Stable lowercase name, used in schedule artifacts.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolMutation::None => "none",
            ProtocolMutation::AckWithoutInvalidate => "ack_without_invalidate",
            ProtocolMutation::SpeculateWithoutRollback => "speculate_without_rollback",
        }
    }

    /// Parses [`name`](Self::name) back.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "none" => Some(ProtocolMutation::None),
            "ack_without_invalidate" => Some(ProtocolMutation::AckWithoutInvalidate),
            "speculate_without_rollback" => Some(ProtocolMutation::SpeculateWithoutRollback),
            _ => None,
        }
    }
}

/// An in-flight directory transaction for one block: a slot of the
/// machine's transaction slab, which the block's [`DirEntry`] points at.
/// Slots are recycled in place, so a slot's queue keeps its storage.
#[derive(Debug, Clone)]
struct DirTxn {
    /// The block, or `None` for a slot on the free list.
    block: Option<BlockAddr>,
    requester: NodeId,
    /// The grant to send when all acknowledgments are in (`None` for the
    /// home's own accesses, which need no reply message).
    reply: Option<MsgType>,
    next: DirState,
    outstanding: usize,
    /// Whether the requester is the home itself.
    local: bool,
    /// The holders sent `holder_request` (an invalidation or downgrade),
    /// kept so fault-mode ack timers can re-send exactly the
    /// unacknowledged ones.
    holders: NodeSet,
    holder_request: MsgType,
    /// Holders whose acknowledgment has been counted (fault mode):
    /// makes ack processing idempotent under re-sends and races.
    acked: NodeSet,
    /// Monotone transaction id; a popped [`Event::AckCheck`] with a
    /// different epoch belongs to an earlier transaction and is ignored.
    epoch: u64,
    /// Whether this transaction is a speculative push (no requester is
    /// blocked on it; `next` is provisional until the target's verdict).
    speculative: bool,
    /// The requester's span tree, threaded onto every message the
    /// transaction sends (observability only).
    trace: TraceId,
    /// Requests that found the block busy, oldest first. The slot stays
    /// with the block until the queue has drained.
    pending: VecDeque<PendingReq>,
}

/// A request waiting for a busy block at its home directory.
#[derive(Debug, Clone)]
struct PendingReq {
    msg: Msg,
    arrived: u64,
}

/// The network span name for a message in flight, by protocol leg.
fn net_span_name(mtype: MsgType) -> &'static str {
    use MsgType::*;
    match mtype {
        GetRoRequest | GetRwRequest | UpgradeRequest => "net.request",
        GetRoResponse | GetRwResponse | UpgradeResponse => "net.reply",
        InvalRoRequest | InvalRwRequest | DowngradeRequest => "net.inval",
        InvalRoResponse | InvalRwResponse | DowngradeResponse => "net.ack",
    }
}

/// One of §4's two voluntary drops ([`ConcurrentMachine::maybe_drop`]),
/// each over the reliable channel, since nothing times out waiting for
/// an unsolicited message.
struct VoluntaryDrop {
    /// The state the access must have left the copy in.
    held: CacheState,
    /// The policy's question: is this the copy's last use?
    ask: fn(&mut dyn SpeculationPolicy, NodeId, BlockAddr) -> bool,
    /// What the cache sends home unsolicited.
    mtype: MsgType,
    /// The name of the drop's span tree.
    span: &'static str,
    /// The tally the drop bumps.
    tally: fn(&mut ConcurrentMachine) -> &mut u64,
}

impl VoluntaryDrop {
    /// The drop an access of kind `op` may trigger: after a store, §4.1
    /// dynamic self-invalidation writes the exclusive copy back; after a
    /// load, the early invalidation-ack drops the shared copy ahead of a
    /// predicted invalidation (a wrong guess costs a re-fetch, never
    /// coherence).
    fn after(op: ProcOp) -> &'static VoluntaryDrop {
        match op {
            ProcOp::Write => &VoluntaryDrop {
                held: CacheState::Exclusive,
                ask: |p, node, block| p.self_invalidate(node, block),
                mtype: MsgType::InvalRwResponse,
                span: "self_invalidate",
                tally: |m| &mut m.stats.voluntary_replacements,
            },
            ProcOp::Read => &VoluntaryDrop {
                held: CacheState::Shared,
                ask: |p, node, block| p.early_inval_ack(node, block),
                mtype: MsgType::InvalRoResponse,
                span: "early_inval_ack",
                tally: |m| &mut m.rollback.early_acks,
            },
        }
    }
}

/// The concurrent machine. Drive it with [`run_plan`](Self::run_plan).
#[derive(Debug)]
pub struct ConcurrentMachine {
    pub(crate) proto: ProtocolConfig,
    pub(crate) sys: SystemConfig,
    queue: EventQueue<Event>,
    /// What the running handler has scheduled, in push order. The
    /// stepping loop moves it into `queue` after every dispatch; a shard
    /// takes it instead.
    pub(crate) outbox: Vec<(u64, Event)>,
    /// Each block's cached copies outside its home, block-major: one
    /// table whatever the node count, holding only blocks somebody caches.
    copies: BlockTable<Copies>,
    /// Each block's directory entry — state and open transaction
    /// together, looked up once per handler.
    pub(crate) dir: BlockTable<DirEntry>,
    /// The sharer sets too wide for a [`DirEntry`]'s word.
    pub(crate) wide: WideSets,
    /// Every block whose directory entry or a cache state was written
    /// since the last barrier (repeats allowed) — all that can have
    /// *become* incoherent, and what the next barrier audits. Fed by
    /// `write_dir` and `set_cache_state`, the only writers.
    pub(crate) dirty: Vec<BlockAddr>,
    /// The transaction slab [`DirEntry::txn`] indexes, and its free slots.
    txns: Vec<DirTxn>,
    free_txns: Vec<u32>,
    dir_busy: Vec<u64>,
    /// Per-node time at which the cache-side protocol handler frees up
    /// (invalidations and grants are software-handled too).
    cache_busy: Vec<u64>,
    pub(crate) clocks: Vec<u64>,
    /// Remaining operations of the current phase, per node.
    scripts: Vec<VecDeque<(BlockAddr, ProcOp)>>,
    /// The (block, op, issue time) each processor is blocked on, if any.
    waiting: Vec<Option<(BlockAddr, ProcOp, u64)>>,
    pub(crate) trace: TraceBundle,
    pub(crate) stats: MachineStats,
    pub(crate) iteration: u32,
    /// The §4 speculation hook, if any.
    policy: Option<Box<dyn SpeculationPolicy>>,
    /// Per-transition and invariant-check tallies, exported by
    /// [`ConcurrentMachine::obs_snapshot`].
    tally: ProtocolTally,
    /// Network fault injection, if installed. `None` (the default) means
    /// a perfect fabric and the original code paths.
    fault: Option<FaultInjector>,
    /// Per-node duplicate filters (sequence-numbered idempotent delivery).
    pub(crate) dedup: Vec<DedupFilter>,
    /// Next transmission sequence number per *receiver*.
    next_seq_to: Vec<u64>,
    /// Per-node miss epoch, bumped when a miss completes — lazily
    /// cancels that node's outstanding [`Event::RetryCheck`] timers.
    miss_epoch: Vec<u64>,
    /// Per-node grant poison line: a grant carrying a sequence number
    /// below this was transmitted before a recall this node has already
    /// acknowledged while waiting, so consuming it would re-admit a copy
    /// the directory believes reclaimed. Only ever raised in fault mode
    /// (sequence numbers are all zero on a perfect fabric).
    grant_poison: Vec<u64>,
    /// Whether the node's current miss needed a recovery action, for the
    /// recovery-latency histogram.
    miss_recovered: Vec<bool>,
    /// Monotone counter stamping [`DirTxn::epoch`].
    txn_epoch: u64,
    /// Everything the recovery layer did (quiet on a perfect fabric).
    recovery: RecoveryTally,
    /// Speculative push/rollback accounting (quiet without a policy).
    rollback: RollbackTally,
    /// Seeded protocol bug for simcheck self-validation (off by default).
    mutation: ProtocolMutation,
    /// Causal span log (disabled by default — see
    /// [`ConcurrentMachine::enable_tracing`]).
    pub(crate) spans: SpanLog,
    /// The span tree of each node's in-flight miss, if any.
    miss_trace: Vec<TraceId>,
}

impl ConcurrentMachine {
    /// Creates a machine.
    pub fn new(proto: ProtocolConfig, sys: SystemConfig) -> Self {
        let nodes = proto.nodes;
        ConcurrentMachine {
            proto,
            sys,
            queue: EventQueue::new(),
            outbox: Vec::new(),
            copies: BlockTable::new(),
            dir: BlockTable::new(),
            wide: WideSets::default(),
            dirty: Vec::new(),
            txns: Vec::new(),
            free_txns: Vec::new(),
            dir_busy: vec![0; nodes],
            cache_busy: vec![0; nodes],
            clocks: vec![0; nodes],
            scripts: vec![VecDeque::new(); nodes],
            waiting: vec![None; nodes],
            trace: TraceBundle::new(TraceMeta::new("unnamed", nodes, 0)),
            stats: MachineStats::default(),
            iteration: 0,
            policy: None,
            tally: ProtocolTally::new(),
            fault: None,
            dedup: vec![DedupFilter::new(); nodes],
            next_seq_to: vec![0; nodes],
            miss_epoch: vec![0; nodes],
            grant_poison: vec![0; nodes],
            miss_recovered: vec![false; nodes],
            txn_epoch: 0,
            recovery: RecoveryTally::new(),
            rollback: RollbackTally::new(),
            mutation: ProtocolMutation::default(),
            spans: SpanLog::new(),
            miss_trace: vec![TraceId::NONE; nodes],
        }
    }

    /// Seeds a deliberately broken protocol variant (see
    /// [`ProtocolMutation`]). Only simcheck's self-validation tests turn
    /// this on.
    pub fn set_mutation(&mut self, mutation: ProtocolMutation) {
        self.mutation = mutation;
    }

    /// Installs a network fault plan: every send passes through a
    /// deterministic [`FaultInjector`], and the recovery layer engages —
    /// requester retransmission timers with capped exponential backoff,
    /// directory NAKs for requests hitting a busy block (instead of the
    /// unbounded pending queue), idempotent re-grants and re-acks, and
    /// sequence-numbered duplicate absorption. With no plan installed the
    /// engine takes its original code paths.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.set_fault_injector(FaultInjector::new(plan));
    }

    /// Installs a pre-built injector — lets tests pin faults to exact
    /// delivery indices with [`FaultInjector::force`].
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = Some(injector);
    }

    /// Faults injected so far, when a plan is installed.
    pub fn fault_tally(&self) -> Option<&FaultTally> {
        self.fault.as_ref().map(FaultInjector::tally)
    }

    /// Recovery-layer actions taken so far (quiet on a perfect fabric).
    pub fn recovery_tally(&self) -> &RecoveryTally {
        &self.recovery
    }

    /// Speculative push/rollback actions taken so far (quiet without a
    /// speculation policy installed).
    pub fn rollback_tally(&self) -> &RollbackTally {
        &self.rollback
    }

    /// Installs a speculation policy (the §4 integration): exclusive
    /// grants on predicted upgrades, voluntary replacement on predicted
    /// recalls — both fully race-checked in this engine.
    pub fn set_policy(&mut self, policy: Box<dyn SpeculationPolicy>) {
        self.policy = Some(policy);
    }

    /// Names the trace.
    pub fn set_app(&mut self, app: &str, iterations: u32) {
        let nodes = self.proto.nodes;
        let mut bundle = TraceBundle::new(TraceMeta::new(app, nodes, iterations));
        bundle.extend_records(self.trace.records().iter().copied());
        self.trace = bundle;
    }

    /// The captured trace.
    pub fn trace(&self) -> &TraceBundle {
        &self.trace
    }

    /// Consumes the machine, returning its trace.
    pub fn into_trace(self) -> TraceBundle {
        self.trace
    }

    /// Machine statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Per-transition and invariant-check tallies.
    pub fn tally(&self) -> &ProtocolTally {
        &self.tally
    }

    /// Turns causal span tracing on. Off (the default), every span call
    /// is an early-return no-op; on, every coherence transaction records
    /// a span tree stamped with the exact simulated times the event queue
    /// already computes. Purely observational: timing, ordering, and
    /// protocol state are unchanged either way.
    pub fn enable_tracing(&mut self) {
        self.spans.enable();
    }

    /// The span log recorded so far.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Takes the span log, leaving a fresh disabled one.
    pub fn take_spans(&mut self) -> SpanLog {
        std::mem::take(&mut self.spans)
    }

    /// Point-in-time export of every machine metric, including the
    /// event-queue depth distribution this engine uniquely sustains.
    pub fn obs_snapshot(&self) -> obs::Snapshot {
        let mut snap = self.store_snapshot();
        snap.histogram("simx.queue.depth", self.queue.depth_histogram());
        snap
    }

    /// The metrics of the protocol store and its instruments — all of
    /// [`obs_snapshot`](Self::obs_snapshot) that does not depend on how
    /// the machine is scheduled.
    pub(crate) fn store_snapshot(&self) -> obs::Snapshot {
        let mut snap = obs::Snapshot::new();
        self.stats.export_obs(&mut snap);
        self.tally.export_obs(&mut snap);
        snap.counter("simx.trace.records", self.trace.len() as u64);
        // Fault/recovery metrics appear only when an injector is
        // installed, so clean runs keep their exact metric set.
        if let Some(inj) = &self.fault {
            inj.tally().export_obs(&mut snap);
            self.recovery.export_obs(&mut snap);
        }
        // Rollback metrics appear only when speculation actually acted,
        // so non-speculative runs keep their exact metric set.
        if !self.rollback.is_quiet() {
            self.rollback.export_obs(&mut snap);
        }
        // Span metrics appear only when tracing is on, so untraced runs
        // keep their exact metric set.
        if self.spans.is_enabled() {
            self.spans.export_obs("simx.span", &mut snap);
        }
        snap
    }

    /// Execution time so far (latest node clock).
    pub fn execution_time_ns(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// `block`'s home node: [`home_of_block`]'s round-robin rule, inline
    /// and without its checks. For handlers, which run per event; one that
    /// already holds the home hands it down instead.
    #[inline]
    fn home(&self, block: BlockAddr) -> NodeId {
        let page = block.number() / self.proto.blocks_per_page();
        let home = NodeId::new((page % self.proto.nodes as u64) as usize);
        debug_assert_eq!(home, home_of_block(block, &self.proto));
        home
    }

    /// One node's recorded cache state for a block (`Invalid` when the
    /// block was never touched). Note the home node's rights live in the
    /// directory entry, not here — see
    /// [`cache_states_for`](Self::cache_states_for).
    pub fn cache_state(&self, node: NodeId, block: BlockAddr) -> CacheState {
        self.copies
            .get(block)
            .map_or(CacheState::Invalid, |c| c.state(node))
    }

    /// The block's cached copies outside its home, in node order.
    pub(crate) fn holders(&self, block: BlockAddr) -> &[Holder] {
        self.copies.get(block).map_or(&[], Copies::as_slice)
    }

    /// The block's directory state (`Idle` if its home never touched it).
    pub(crate) fn dir_state(&self, block: BlockAddr) -> Cow<'_, DirState> {
        self.wide
            .state(self.dir.get(block).copied().unwrap_or_default())
    }

    /// Runs `f` on `block`'s directory entry (created idle on first
    /// touch) — the one lookup a directory-side handler makes; everything
    /// it calls is handed the entry. The table is lent out for the call,
    /// so `f` must not reach for `self.dir` itself. (The cache side makes
    /// do with a read and a write of `copies`: two lookups, as before.)
    fn with_dir<R>(
        &mut self,
        block: BlockAddr,
        f: impl FnOnce(&mut Self, &mut DirEntry) -> R,
    ) -> R {
        let mut dir = std::mem::take(&mut self.dir);
        let out = f(self, dir.entry_or_default(block));
        debug_assert!(self.dir.is_empty(), "a handler reached around its entry");
        self.dir = dir;
        out
    }

    /// The table lookup `ev`'s handler opens with, on a clean fabric:
    /// `on_issue` looks up the block at the front of the node's script,
    /// `on_deliver` the message's block — each in the directory table
    /// where the executing node acts as the block's home, else in
    /// `copies`. `None` for an issue that finds its script empty. True
    /// for as long as `ev` stays queued: a node has at most one issue
    /// pending, and only that issue pops the node's script.
    pub(crate) fn first_touch(&self, ev: &Event) -> Option<Touch> {
        debug_assert!(self.fault.is_none(), "a faulty fabric may absorb the event");
        let (at_home, block) = match ev {
            Event::Issue(n) => {
                let block = self.scripts[n.index()].front()?.0;
                (*n == self.home(block), block)
            }
            Event::Deliver(m, _) => (m.receiver_role() == stache::Role::Directory, m.block),
            other => unreachable!("a clean-fabric core scheduled {other:?}"),
        };
        Some(if at_home {
            Touch::Dir(block)
        } else {
            Touch::Copies(block)
        })
    }

    /// Makes the lookups of [`first_touch`](Self::first_touch) for a
    /// batch of events before any of them runs, in loops that do nothing
    /// else: the lookups are independent, so their cache misses overlap
    /// here instead of being taken one per handler (DESIGN.md §6h, "The
    /// window is a batch"). The directory side is `with_dir`'s own
    /// `entry(..).or_default()`, moved forward: it creates the entry the
    /// handler is about to create and warms the slot the handler writes.
    /// `copies` holds only blocks somebody caches, so that side is probed
    /// read-only. Every event of the batch must go on to execute.
    pub(crate) fn resolve(&mut self, dir: &[BlockAddr], copies: &[BlockAddr]) {
        for &block in dir {
            self.dir.entry_or_default(block);
        }
        for &block in copies {
            std::hint::black_box(self.copies.get(block));
        }
    }

    /// The one writer of cache state: tallies the transition and marks
    /// the block for the next barrier audit.
    pub(crate) fn set_cache_state(&mut self, node: NodeId, block: BlockAddr, s: CacheState) {
        let held = self.copies.entry_or_default(block);
        self.tally.cache_transition(held.state(node), s);
        held.set(node, s);
        if held.as_slice().is_empty() {
            self.copies.remove(block); // only blocks somebody caches
        }
        self.dirty.push(block);
    }

    /// Sets a block's directory state, through
    /// [`write_dir`](Self::write_dir).
    pub(crate) fn set_dir(&mut self, block: BlockAddr, next: DirState) {
        self.with_dir(block, |m, e| m.write_dir(e, block, next));
    }

    /// The one writer of directory state: tallies the transition, writes
    /// the entry and marks the block for the next barrier audit.
    fn write_dir(&mut self, e: &mut DirEntry, block: BlockAddr, next: DirState) {
        self.tally.dir_transition(&e.kind(), &next);
        self.wide.write(e, next);
        self.dirty.push(block);
    }

    /// The one message recorder: counts the reception, trains the
    /// policy, links the span tree and appends the trace record (stamped
    /// with the current `iteration`).
    pub(crate) fn record(&mut self, time: u64, msg: &Msg) {
        self.stats.count_message(msg.mtype);
        let rec = MsgRecord::from_msg(msg, time, self.iteration);
        if let Some(policy) = self.policy.as_mut() {
            policy.observe(&rec);
        }
        self.spans.link_record(msg.trace, self.trace.len() as u64);
        self.trace.push(rec);
    }

    fn send(&mut self, at: u64, msg: Msg) {
        let Some(inj) = self.fault.as_mut() else {
            // A perfect fabric is the reliable channel.
            let name = net_span_name(msg.mtype);
            return self.send_reliable(at, msg, name, SpanKind::Network, Event::Deliver);
        };
        let hop = self.sys.one_way_ns();
        let d = inj.next_delivery(hop);
        self.stats.net_latency_ns.record(hop);
        let seq = self.next_seq(msg.receiver);
        if d.dropped {
            // The wire ate it; whoever is responsible will time out.
            self.spans.child(
                msg.trace,
                "net.lost",
                SpanKind::Retry,
                at,
                at + hop,
                msg.sender.raw(),
            );
            return;
        }
        self.spans.child(
            msg.trace,
            net_span_name(msg.mtype),
            SpanKind::Network,
            at,
            at + hop + d.extra_ns,
            msg.sender.raw(),
        );
        self.outbox
            .push((at + hop + d.extra_ns, Event::Deliver(msg, seq)));
        if d.duplicated {
            // The copy traverses the wire too, carrying the same
            // sequence number; the receiver's filter absorbs it.
            self.stats.net_latency_ns.record(hop);
            self.outbox
                .push((at + hop + d.extra_ns, Event::Deliver(msg, seq)));
        }
    }

    /// Sends over the reliable control channel, never fault-injected:
    /// schedules `event(msg, seq)` exactly one hop after `at`, under a
    /// `name` span of `kind`. The channel of a perfect fabric, and of
    /// every message nothing times out on: voluntary writebacks and early
    /// acks (nothing waits on them) and a push and its verdict (the push
    /// transaction has no timer, so a loss would wedge the block). Under
    /// faults it still draws a sequence number, so the receiver's
    /// watermark stays dense.
    fn send_reliable(
        &mut self,
        at: u64,
        msg: Msg,
        name: &'static str,
        kind: SpanKind,
        event: impl FnOnce(Msg, u64) -> Event,
    ) {
        let hop = self.sys.one_way_ns();
        self.stats.net_latency_ns.record(hop);
        let seq = self.next_seq(msg.receiver);
        self.spans
            .child(msg.trace, name, kind, at, at + hop, msg.sender.raw());
        self.outbox.push((at + hop, event(msg, seq)));
    }

    /// The next transmission sequence number to `receiver`: 0, and
    /// unchecked, on a perfect fabric.
    fn next_seq(&mut self, receiver: NodeId) -> u64 {
        if self.fault.is_none() {
            return 0;
        }
        let next = &mut self.next_seq_to[receiver.index()];
        *next += 1;
        *next - 1
    }

    /// Arms a requester-side retransmission timer for the node's current
    /// miss (no-op on a perfect fabric).
    fn arm_retry(&mut self, node: NodeId, now: u64, attempt: u32) {
        let Some(inj) = &self.fault else { return };
        let timeout = inj.retry().timeout_for(attempt);
        self.outbox.push((
            now + timeout,
            Event::RetryCheck {
                node,
                epoch: self.miss_epoch[node.index()],
                attempt,
            },
        ));
    }

    /// Arms a directory-side acknowledgment timer for `block`'s
    /// transaction `epoch` (no-op on a perfect fabric).
    fn arm_ack_check(&mut self, block: BlockAddr, epoch: u64, now: u64, attempt: u32) {
        let Some(inj) = &self.fault else { return };
        let timeout = inj.retry().timeout_for(attempt);
        self.outbox.push((
            now + timeout,
            Event::AckCheck {
                block,
                epoch,
                attempt,
            },
        ));
    }

    /// Retransmits the request for the node's in-flight miss, deriving
    /// the message type from the cache's transient state (which tracks
    /// upgrade-race conversions automatically).
    fn resend_request(&mut self, node: NodeId, at: u64) {
        let Some((block, _, _)) = self.waiting[node.index()] else {
            return;
        };
        let home = self.home(block);
        let req = match self.cache_state(node, block) {
            CacheState::IToS => MsgType::GetRoRequest,
            CacheState::IToE => MsgType::GetRwRequest,
            CacheState::SToE => MsgType::UpgradeRequest,
            // The grant raced this retransmission and won: nothing to do.
            _ => return,
        };
        let tr = self.miss_trace[node.index()];
        self.send(at, Msg::new(node, home, block, req).with_trace(tr));
    }

    /// Executes one iteration plan: each phase runs to quiescence, then a
    /// barrier synchronises the clocks and audits coherence.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors and invariant violations.
    pub fn run_plan(&mut self, plan: &IterationPlan, iteration: u32) -> Result<(), SimError> {
        self.iteration = iteration;
        for phase in &plan.phases {
            self.run_phase(phase)?;
            self.run_barrier()?;
        }
        Ok(())
    }

    fn run_phase(&mut self, phase: &Phase) -> Result<(), SimError> {
        self.begin_phase(phase);
        while let Some((t, ev)) = self.queue.pop() {
            self.step(t, ev)?;
        }
        Ok(())
    }

    /// Runs one event's handler, then moves what it scheduled into the
    /// queue — also when the handler fails, so a caller inspecting the
    /// machine after an error sees every event the failed step emitted.
    fn step(&mut self, t: u64, ev: Event) -> Result<(), SimError> {
        let result = self.dispatch(t, ev);
        self.flush_outbox();
        result
    }

    fn flush_outbox(&mut self) {
        for (at, ev) in self.outbox.drain(..) {
            self.queue.push(at, ev);
        }
    }

    /// Loads a phase's scripts and seeds each node's first issue event,
    /// without running anything — the controlled-stepping entry point for
    /// [`simcheck`](crate::simcheck), which then delivers events one at a
    /// time via [`step_rank`](Self::step_rank).
    pub fn begin_phase(&mut self, phase: &Phase) {
        for node in 0..phase.per_node.len() {
            self.load_node(phase, node);
        }
        self.flush_outbox();
    }

    /// Loads one node's script for `phase`, expanding read-modify-writes
    /// (non-atomic here), and schedules its first issue event if it has
    /// anything to do.
    pub(crate) fn load_node(&mut self, phase: &Phase, node: usize) {
        let script = &mut self.scripts[node];
        debug_assert!(script.is_empty(), "previous phase drained");
        for a in &phase.per_node[node] {
            debug_assert_eq!(a.node.index(), node);
            match a.op {
                AccessOp::Read => script.push_back((a.block, ProcOp::Read)),
                AccessOp::Write => script.push_back((a.block, ProcOp::Write)),
                AccessOp::ReadModifyWrite => {
                    script.push_back((a.block, ProcOp::Read));
                    script.push_back((a.block, ProcOp::Write));
                }
            }
        }
        if !script.is_empty() {
            let n = NodeId::new(node);
            let start = self.clocks[node] + phase.delay(n);
            self.clocks[node] = start;
            self.outbox.push((start, Event::Issue(n)));
        }
    }

    pub(crate) fn dispatch(&mut self, t: u64, ev: Event) -> Result<(), SimError> {
        if self.fault.is_some() {
            if let Some((msg, seq)) = ev.on_wire() {
                if !self.dedup[msg.receiver.index()].observe(seq) {
                    // A duplicated transmission: absorbed before it can
                    // re-run a handler or pollute the trace.
                    self.recovery.dups_absorbed += 1;
                    return Ok(());
                }
            }
        }
        match ev {
            Event::Issue(node) => self.on_issue(node, t)?,
            Event::Deliver(msg, seq) => self.on_deliver(&msg, seq, t)?,
            Event::Nak { node, block } => self.on_nak(node, block, t),
            Event::RetryCheck {
                node,
                epoch,
                attempt,
            } => self.on_retry_check(node, epoch, attempt, t)?,
            Event::AckCheck {
                block,
                epoch,
                attempt,
            } => self.on_ack_check(block, epoch, attempt, t)?,
            Event::SpecPush(msg, _) => self.on_spec_push(&msg, t),
            Event::SpecPushResp { msg, accepted, .. } => {
                self.with_dir(msg.block, |m, e| m.on_spec_push_resp(e, &msg, accepted, t))?;
            }
        }
        Ok(())
    }

    /// Number of pending events, which is also the branching factor a
    /// model checker faces at this state.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Labels of the pending events in deterministic delivery order
    /// (rank 0 delivers first under the unforced scheduler).
    pub fn pending_labels(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.queue.len());
        self.queue.for_each_ranked(|_, ev| out.push(ev.label()));
        out
    }

    /// The `(sender, receiver)` channel of each pending event in
    /// delivery-rank order, `None` for events that are not message
    /// deliveries. The fabric is FIFO per ordered node pair — per-sender
    /// clocks are monotone, so ranked order within a channel is send
    /// order — and only the *first* pending delivery on each channel can
    /// legally be forced next. simcheck uses this to confine exploration
    /// to delivery orders the network can actually produce.
    pub fn pending_channels(&self) -> Vec<Option<(NodeId, NodeId)>> {
        let mut out = Vec::with_capacity(self.queue.len());
        self.queue.for_each_ranked(|_, ev| {
            out.push(ev.on_wire().map(|(msg, _)| (msg.sender, msg.receiver)));
        });
        out
    }

    /// Forces the `rank`-th pending event (in deterministic `(time, seq)`
    /// order) to be processed next, out of timestamp order if `rank > 0` —
    /// the timestamps stay attached to the events, so clocks only ever
    /// move forward via `max()`. Returns `false` when no event was
    /// pending.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors and invariant violations, exactly as
    /// the unforced scheduler would.
    pub fn step_rank(&mut self, rank: usize) -> Result<bool, SimError> {
        match self.queue.remove_rank(rank) {
            Some((t, ev)) => {
                self.step(t, ev)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Directory transactions currently in flight.
    pub fn open_transactions(&self) -> usize {
        self.txns.len() - self.free_txns.len()
    }

    /// Blocks with an open directory transaction, ascending.
    pub fn open_transaction_blocks(&self) -> Vec<BlockAddr> {
        let mut blocks: Vec<BlockAddr> = self.txns.iter().filter_map(|t| t.block).collect();
        blocks.sort_unstable();
        blocks
    }

    /// Nodes blocked on an outstanding miss, with the block each waits on.
    pub fn waiting_nodes(&self) -> Vec<(NodeId, BlockAddr)> {
        self.waiting
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.map(|(b, _, _)| (NodeId::new(i), b)))
            .collect()
    }

    /// Every block any cache or directory entry has touched, ascending.
    pub fn touched_blocks(&self) -> Vec<BlockAddr> {
        let mut blocks: Vec<BlockAddr> = self.dir.keys().collect();
        blocks.extend(self.copies.keys());
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }

    /// Every node's effective cache state for `block`, indexed by node.
    /// The home node holds no separate cache entry — its rights are the
    /// directory entry itself, so they are derived from it here, the same
    /// picture [`verify_coherence`](Self::verify_coherence) audits.
    pub fn cache_states_for(&self, block: BlockAddr) -> Vec<CacheState> {
        let (dir, held) = (self.dir_state(block), self.holders(block).iter());
        dense_states(&self.proto, block, &dir, held.copied())
    }

    /// Each node's duplicate-filter low-water mark (all zero on a perfect
    /// fabric) — monotone by construction, which simcheck re-checks per
    /// step as the recovery-sequence invariant.
    pub fn dedup_watermarks(&self) -> Vec<u64> {
        self.dedup.iter().map(DedupFilter::low_watermark).collect()
    }

    /// A canonical fingerprint of the global *protocol* state: caches,
    /// directory entries, open transactions, queued requests, scripts,
    /// blocked processors, and the multiset of in-flight events.
    ///
    /// Deliberately timing-abstracted: node clocks, event timestamps,
    /// handler-occupancy horizons, and
    /// monotone bookkeeping counters (miss/transaction epochs) are all
    /// excluded, so two delivery schedules that produce the same protocol
    /// picture hash equally. That is the equivalence [`crate::simcheck`]
    /// prunes on — it explores delivery *orders*, which timestamps do not
    /// constrain under forced stepping. Dedup-filter and
    /// sequence-counter state is included only under fault injection,
    /// where it influences delivery decisions.
    pub fn state_fingerprint(&self) -> u64 {
        let mut fp = Fp::new();
        fp.tag(0x01);
        let mut copies: Vec<(BlockAddr, &Copies)> = self.copies.iter().collect();
        copies.sort_unstable_by_key(|(b, _)| *b);
        for (b, held) in copies {
            fp.absorb(&b);
            fp.word(held.as_slice().len() as u64);
            for (n, s) in held.as_slice() {
                fp.absorb(n);
                fp.absorb(s);
            }
        }
        fp.tag(0x02);
        let mut dirs: Vec<(BlockAddr, &DirEntry)> = self.dir.iter().collect();
        dirs.sort_unstable_by_key(|(b, _)| *b);
        for (b, e) in &dirs {
            fp.absorb(b);
            fp.absorb(&*self.wide.state(**e));
        }
        fp.tag(0x03);
        let mut txns: Vec<(BlockAddr, &DirTxn)> = self
            .txns
            .iter()
            .filter_map(|t| Some((t.block?, t)))
            .collect();
        txns.sort_unstable_by_key(|(b, _)| *b);
        for (b, txn) in &txns {
            fp.absorb(b);
            fp.absorb(&txn.requester);
            match txn.reply {
                Some(r) => fp.absorb(&r),
                None => fp.tag(0xff),
            }
            fp.absorb(&txn.next);
            fp.word(txn.outstanding as u64);
            fp.word(u64::from(txn.local));
            fp.word(u64::from(txn.speculative));
            for n in &txn.holders {
                fp.absorb(&n);
                fp.absorb(&txn.holder_request);
            }
            for n in &txn.acked {
                fp.absorb(&n);
            }
        }
        fp.tag(0x04);
        for (b, txn) in &txns {
            if txn.pending.is_empty() {
                continue; // a drained queue is the same state as no queue
            }
            fp.absorb(b);
            fp.word(txn.pending.len() as u64);
            for r in &txn.pending {
                fp.absorb(&r.msg);
            }
        }
        fp.tag(0x05);
        for w in &self.waiting {
            match w {
                Some((b, op, _issued)) => {
                    fp.tag(1);
                    fp.absorb(b);
                    fp.absorb(op);
                }
                None => fp.tag(0),
            }
        }
        fp.tag(0x06);
        for s in &self.scripts {
            fp.word(s.len() as u64);
            for (b, op) in s {
                fp.absorb(b);
                fp.absorb(op);
            }
        }
        fp.tag(0x08);
        let mut events: Vec<u64> = Vec::with_capacity(self.queue.len());
        self.queue
            .for_each_ranked(|_, ev| events.push(ev.fingerprint()));
        events.sort_unstable();
        fp.word(events.len() as u64);
        for e in events {
            fp.word(e);
        }
        if self.fault.is_some() {
            fp.tag(0x09);
            for d in &self.dedup {
                fp.word(d.low_watermark());
                fp.word(d.pending() as u64);
            }
            for s in &self.next_seq_to {
                fp.word(*s);
            }
            for p in &self.grant_poison {
                fp.word(*p);
            }
        }
        fp.finish()
    }

    /// A NAK reached the requester: its cache handler turns it straight
    /// around into a fresh copy of the outstanding request.
    fn on_nak(&mut self, node: NodeId, block: BlockAddr, t: u64) {
        self.recovery.naks_received += 1;
        // Only react if the node is still waiting on the NAKed block; a
        // NAK for an already-completed miss is stale.
        if self.waiting[node.index()].is_some_and(|(b, _, _)| b == block) {
            self.miss_recovered[node.index()] = true;
            self.spans.child(
                self.miss_trace[node.index()],
                "nak.turnaround",
                SpanKind::Retry,
                t,
                t + HANDLER_NS,
                node.raw(),
            );
            self.resend_request(node, t + HANDLER_NS);
        }
    }

    /// A requester's retransmission timer fired.
    fn on_retry_check(
        &mut self,
        node: NodeId,
        epoch: u64,
        attempt: u32,
        t: u64,
    ) -> Result<(), SimError> {
        if self.miss_epoch[node.index()] != epoch || self.waiting[node.index()].is_none() {
            return Ok(()); // lazily cancelled: the miss completed
        }
        self.recovery.timeouts += 1;
        self.miss_recovered[node.index()] = true;
        let retry = self
            .fault
            .as_ref()
            .expect("timers are only armed under fault injection")
            .retry()
            .clone();
        if !retry.can_retry(attempt) {
            let (block, _, _) = self.waiting[node.index()].expect("checked above");
            return Err(SimError::RetryExhausted {
                from: node,
                to: self.home(block),
                attempts: attempt + 1,
            });
        }
        self.recovery.retries += 1;
        self.spans.child(
            self.miss_trace[node.index()],
            "retry",
            SpanKind::Retry,
            t.saturating_sub(retry.timeout_for(attempt)),
            t,
            node.raw(),
        );
        self.resend_request(node, t);
        self.arm_retry(node, t, attempt + 1);
        Ok(())
    }

    /// A directory's acknowledgment timer fired: re-send the
    /// invalidations whose acks are still missing.
    fn on_ack_check(
        &mut self,
        block: BlockAddr,
        epoch: u64,
        attempt: u32,
        t: u64,
    ) -> Result<(), SimError> {
        let Some(txn) = self
            .dir
            .get(block)
            .and_then(|e| self.txns.get(e.txn as usize))
        else {
            return Ok(()); // lazily cancelled: the transaction finished
        };
        if txn.epoch != epoch || txn.outstanding == 0 {
            return Ok(());
        }
        self.recovery.timeouts += 1;
        let retry = self
            .fault
            .as_ref()
            .expect("timers are only armed under fault injection")
            .retry()
            .clone();
        let home = self.home(block);
        let (imsg, tr) = (txn.holder_request, txn.trace);
        let unacked: Vec<NodeId> = txn
            .holders
            .iter()
            .filter(|n| !txn.acked.contains(*n))
            .collect();
        if !retry.can_retry(attempt) {
            return Err(SimError::RetryExhausted {
                from: home,
                to: unacked.first().copied().unwrap_or(home),
                attempts: attempt + 1,
            });
        }
        self.spans.child(
            tr,
            "retry.ack",
            SpanKind::Retry,
            t.saturating_sub(retry.timeout_for(attempt)),
            t,
            home.raw(),
        );
        for target in unacked {
            self.recovery.retries += 1;
            self.send(t, Msg::new(home, target, block, imsg).with_trace(tr));
        }
        self.arm_ack_check(block, epoch, t, attempt + 1);
        Ok(())
    }

    /// The inter-phase barrier [`run_plan`](Self::run_plan) inserts (and
    /// controlled stepping calls itself, once the queue has drained):
    /// audits the invariants and synchronises clocks.
    ///
    /// The audit covers the blocks written since the previous barrier,
    /// ascending. A block's verdict depends only on its directory entry
    /// and cache states, so every other block stands as the last barrier
    /// left it: the first violation is the one the exhaustive
    /// [`verify_coherence`](Self::verify_coherence) would report here.
    ///
    /// # Errors
    ///
    /// `StuckMessage` if a processor is still blocked or a transaction
    /// still open; otherwise the audit's first violation; otherwise, on
    /// a traced run, [`SimError::OrphanedSpans`] if a span is still open.
    pub fn run_barrier(&mut self) -> Result<(), SimError> {
        check_drained(
            &self.proto,
            self.waiting_nodes().first().copied(),
            self.open_transaction_blocks().first().copied(),
        )?;
        self.dirty.sort_unstable();
        self.dirty.dedup();
        let audited = self.audit(self.dirty.iter().copied());
        self.dirty.clear();
        audited?;
        // Quiescent: every transaction's root span must have closed. A
        // leftover open span is a protocol path that never closed its
        // root: flag it in the log, and fail the run like the audit.
        if self.spans.is_enabled() {
            let count = self.spans.flag_orphans(self.execution_time_ns());
            if count > 0 {
                return Err(SimError::OrphanedSpans { count });
            }
        }
        self.sync_clocks();
        Ok(())
    }

    /// The timing half of a barrier: every clock advances to the latest
    /// one plus the barrier cost.
    pub(crate) fn sync_clocks(&mut self) {
        let max = self.execution_time_ns();
        for c in &mut self.clocks {
            *c = max + BARRIER_NS;
        }
        self.stats.barriers += 1;
    }

    fn on_issue(&mut self, node: NodeId, t: u64) -> Result<(), SimError> {
        let mut now = self.clocks[node.index()].max(t);
        // Burn through hits; stop at the first miss or end of script.
        while let Some(&(block, op)) = self.scripts[node.index()].front() {
            let home = self.home(block);
            if node == home {
                if !self.with_dir(block, |m, e| m.issue_at_home(e, home, block, op, now))? {
                    return Ok(());
                }
                self.stats.count_access(op, true, CACHE_HIT_NS);
                now += CACHE_HIT_NS;
                continue;
            }
            let state = self.cache_state(node, block);
            let (transient, action) = cache::on_processor_op(state, op)?;
            match action {
                CacheAction::Hit => {
                    self.scripts[node.index()].pop_front();
                    self.stats.count_access(op, true, CACHE_HIT_NS);
                    now += CACHE_HIT_NS;
                    self.maybe_drop(VoluntaryDrop::after(op), node, block, now);
                }
                CacheAction::Send(req) => {
                    self.scripts[node.index()].pop_front();
                    self.set_cache_state(node, block, transient);
                    self.waiting[node.index()] = Some((block, op, now));
                    self.clocks[node.index()] = now;
                    let tr =
                        self.spans
                            .begin_trace(req.paper_name(), now, node.raw(), block.number());
                    self.miss_trace[node.index()] = tr;
                    self.send(now, Msg::new(node, home, block, req).with_trace(tr));
                    self.arm_retry(node, now, 0);
                    return Ok(());
                }
            }
        }
        self.clocks[node.index()] = now;
        Ok(())
    }

    /// The next access of `block`'s home `node`, at `now`: `Ok(true)` for
    /// a hit. The home's rights live in the directory entry; a local
    /// access misses only if the entry needs changing, and that change is
    /// itself a (possibly queued) transaction.
    fn issue_at_home(
        &mut self,
        e: &mut DirEntry,
        node: NodeId,
        block: BlockAddr,
        op: ProcOp,
        now: u64,
    ) -> Result<bool, SimError> {
        self.scripts[node.index()].pop_front();
        let sufficient = e.grants(node, op, &self.wide) && e.txn == NO_TXN;
        if sufficient {
            return Ok(true);
        }
        // Local miss: a directory transaction with no messages to
        // or from the requester. Queue it like a remote request.
        self.waiting[node.index()] = Some((block, op, now));
        self.clocks[node.index()] = now;
        let (req, name) = match op {
            ProcOp::Read => (MsgType::GetRoRequest, "local_read"),
            ProcOp::Write => (MsgType::GetRwRequest, "local_write"),
        };
        let tr = self
            .spans
            .begin_trace(name, now, node.raw(), block.number());
        self.miss_trace[node.index()] = tr;
        let marker = Msg::new(node, node, block, req).with_trace(tr);
        self.enqueue_or_start(e, marker, now).map(|()| false)
    }

    fn on_deliver(&mut self, msg: &Msg, seq: u64, t: u64) -> Result<(), SimError> {
        if msg.receiver_role() == stache::Role::Directory {
            self.with_dir(msg.block, |m, e| m.on_directory_receive(e, msg, t))
        } else {
            self.on_cache_receive(msg, seq, t)
        }
    }

    fn on_directory_receive(
        &mut self,
        e: &mut DirEntry,
        msg: &Msg,
        t: u64,
    ) -> Result<(), SimError> {
        if msg.mtype.is_request() {
            // Local markers (sender == receiver) are not real messages.
            if msg.sender != msg.receiver {
                self.record(t, msg);
                if self.fault.is_some() {
                    // A retransmission that lost the race with its own
                    // grant: the sender already consumed a response (it
                    // is no longer missing on this block with this op),
                    // so servicing the copy again would re-admit a
                    // holder that may since have dropped the line —
                    // e.g. by a voluntary early ack. Absorb it; the
                    // NAK path uses the same still-waiting test.
                    if self.request_is_stale(msg) {
                        self.recovery.dups_absorbed += 1;
                        return Ok(());
                    }
                    if self.fault_request_shortcut(e, msg, t) {
                        return Ok(());
                    }
                }
            }
            self.enqueue_or_start(e, *msg, t)
        } else {
            // An acknowledgment — for the in-flight transaction if one
            // exists, else a *voluntary* writeback (self-invalidation).
            self.record(t, msg);
            match self.txns.get_mut(e.txn as usize) {
                Some(txn) => {
                    // In the replacement race the voluntary writeback
                    // doubles as the owner's acknowledgment; the crossing
                    // invalidation finds an empty cache and is suppressed
                    // there, so the counts stay exact. Under fault
                    // injection the same holder can acknowledge more than
                    // once (a re-sent invalidation crossing the original
                    // ack); the per-transaction set keeps counting exact.
                    // A delayed ack can also belong to an *earlier*,
                    // already-finished transaction on the same block, so
                    // it only counts here if (a) this transaction asked
                    // the sender for exactly this response and (b) the
                    // sender's cache really gave up the conflicting copy.
                    // Genuine acks always pass (b): a holder cannot
                    // re-acquire while the block is busy, because its
                    // request would be NAKed. With a speculation policy
                    // installed the same double-count exists on a perfect
                    // fabric — a sharer's voluntary early ack crossing the
                    // transaction's solicited invalidation produces two
                    // acks from one holder — so the guards engage then too.
                    // A voluntary ack from a push target crossing the
                    // push verdict on the reliable channel: the target
                    // installed the pushed copy and dropped it again
                    // (early ack or self-invalidation) before the home
                    // committed. Cancel the provisional entry — the
                    // in-flight verdict still closes the transaction —
                    // unless the sender still holds a copy, in which
                    // case the ack is a stale fault-mode re-ack and is
                    // absorbed below like any other unexpected one.
                    // Reads `copies` directly because `txn` keeps
                    // `txns` borrowed; only the speculation and fault
                    // guards below ever look.
                    let sender_state = || {
                        self.copies
                            .get(msg.block)
                            .map_or(CacheState::Invalid, |c| c.state(msg.sender))
                    };
                    let from_push_target = txn.speculative && msg.sender == txn.requester;
                    if from_push_target
                        && matches!(
                            msg.mtype,
                            MsgType::InvalRoResponse | MsgType::InvalRwResponse
                        )
                        && !matches!(sender_state(), CacheState::Shared | CacheState::Exclusive)
                    {
                        if self.mutation == ProtocolMutation::SpeculateWithoutRollback {
                            // Seeded bug: drop the crossing ack too —
                            // the mutation models a build with no
                            // rollback healing at all (see its doc).
                            return Ok(());
                        }
                        txn.next = DirState::Idle;
                        self.rollback.rolled_back += 1;
                        return Ok(());
                    }
                    if self.fault.is_some() || self.policy.is_some() {
                        let expected = txn.holders.contains(msg.sender)
                            && matches!(
                                (txn.holder_request, msg.mtype),
                                (MsgType::InvalRoRequest, MsgType::InvalRoResponse)
                                    | (MsgType::InvalRwRequest, MsgType::InvalRwResponse)
                                    | (MsgType::DowngradeRequest, MsgType::DowngradeResponse)
                            );
                        let complied = match msg.mtype {
                            MsgType::InvalRoResponse | MsgType::InvalRwResponse => !matches!(
                                sender_state(),
                                CacheState::Shared | CacheState::Exclusive
                            ),
                            MsgType::DowngradeResponse => sender_state() != CacheState::Exclusive,
                            _ => true,
                        };
                        if !expected || !complied || !txn.acked.insert(msg.sender) {
                            if self.fault.is_some() {
                                self.recovery.dups_absorbed += 1;
                            }
                            return Ok(());
                        }
                    }
                    txn.outstanding -= 1;
                    if txn.outstanding == 0 {
                        let service = t + HANDLER_NS;
                        self.finish_txn(e, msg.receiver, msg.block, service)?;
                    }
                }
                None => {
                    // A voluntary early invalidation-ack (speculation):
                    // the sharer dropped its read-only copy unsolicited.
                    // The sender's live cache state separates it from a
                    // stale solicited ack racing a freshly re-acquired
                    // copy, which must leave the entry alone. A genuine
                    // ack's sender holds no read copy: `Invalid`, or
                    // already off in its next *write* miss on the same
                    // block (`IToE` — the drop and the follow-up miss
                    // issue in the same handler slot, so the ack lands
                    // "late"). `IToS` is excluded: a sharer with a
                    // shared re-fill in flight is `IToS`, and removing
                    // it would desynchronise the map; the demand path
                    // reconciles that case (see `start_txn`).
                    if self.policy.is_some() && msg.mtype == MsgType::InvalRoResponse {
                        if matches!(
                            self.cache_state(msg.sender, msg.block),
                            CacheState::Invalid | CacheState::IToE
                        ) {
                            let struck = without_sharer(&self.wide.state(*e), msg.sender);
                            if let Some(next) = struck {
                                let idle = next == DirState::Idle;
                                self.write_dir(e, msg.block, next);
                                if idle {
                                    self.maybe_spec_push(e, msg.block, t + HANDLER_NS);
                                }
                                return Ok(());
                            }
                        }
                        if self.fault.is_some() {
                            self.recovery.dups_absorbed += 1;
                        }
                        return Ok(());
                    }
                    if self.fault.is_some()
                        && (msg.mtype != MsgType::InvalRwResponse
                            || self.cache_state(msg.sender, msg.block) != CacheState::Invalid)
                    {
                        // A stale re-acknowledgment for a transaction
                        // that already finished — possibly racing the
                        // sender's freshly re-acquired copy, which must
                        // not clear the directory. Absorb it.
                        self.recovery.dups_absorbed += 1;
                        return Ok(());
                    }
                    debug_assert_eq!(msg.mtype, MsgType::InvalRwResponse, "voluntary writeback");
                    if e.grants(msg.sender, ProcOp::Write, &self.wide) {
                        self.write_dir(e, msg.block, DirState::Idle);
                        self.maybe_spec_push(e, msg.block, t + HANDLER_NS);
                    }
                    // Otherwise stale: a later transaction already moved
                    // the entry on; nothing to do.
                }
            }
            Ok(())
        }
    }

    /// A waiting node just acknowledged an invalidation or recall for
    /// the very block it is missing on: any grant transmitted *before*
    /// that recall carries rights the directory has since reclaimed, so
    /// raise the node's poison line to this delivery's sequence number.
    /// Grants below the line are absorbed as stale; the miss recovers
    /// through its retransmission timer. No-op unless the node is
    /// waiting on `block` (the line is per-node, and poisoning across
    /// an unrelated block's miss would discard a perfectly good grant).
    fn poison_older_grants(&mut self, node: NodeId, block: BlockAddr, seq: u64) {
        if self.waiting[node.index()].is_some_and(|(b, _, _)| b == block) {
            let line = &mut self.grant_poison[node.index()];
            *line = (*line).max(seq);
        }
    }

    /// Whether a remote request is a stale retransmission: its sender is
    /// no longer missing on this block with the matching operation, so
    /// the original request was already serviced and its grant consumed.
    fn request_is_stale(&self, msg: &Msg) -> bool {
        !self.waiting[msg.sender.index()].is_some_and(|(b, op, _)| {
            b == msg.block
                && match msg.mtype {
                    MsgType::GetRoRequest => op == ProcOp::Read,
                    MsgType::GetRwRequest | MsgType::UpgradeRequest => op == ProcOp::Write,
                    _ => true,
                }
        })
    }

    /// Fault-mode fast paths for a remote request: NAK it if the block
    /// is busy (instead of queueing without bound), or re-send the grant
    /// if the directory already recorded this requester — a
    /// retransmission whose original grant was lost or is still in
    /// flight. Returns `true` when the request was fully handled.
    fn fault_request_shortcut(&mut self, e: &DirEntry, msg: &Msg, t: u64) -> bool {
        if e.txn != NO_TXN {
            self.recovery.naks_sent += 1;
            let hop = self.sys.one_way_ns();
            self.stats.net_latency_ns.record(hop);
            // The bounce (home handler + NAK hop) is pure retry overhead
            // on the requester's critical path.
            self.spans.child(
                msg.trace,
                "nak",
                SpanKind::Retry,
                t,
                t + HANDLER_NS + hop,
                msg.receiver.raw(),
            );
            self.outbox.push((
                t + HANDLER_NS + hop,
                Event::Nak {
                    node: msg.sender,
                    block: msg.block,
                },
            ));
            return true;
        }
        let dir = self.wide.state(*e);
        let regrant = match msg.mtype {
            // The re-sent grant must carry the *recorded* rights, not the
            // requested ones: a speculative exclusive grant upgrades a
            // read miss to ownership, so when its response is lost the
            // retransmitted `get_ro_request` finds this node recorded as
            // owner and must be re-granted writable — a shared re-grant
            // would leave the directory claiming an owner whose cache
            // holds a read-only copy.
            MsgType::GetRoRequest if dir.node_writable(msg.sender) => Some(MsgType::GetRwResponse),
            MsgType::GetRoRequest if dir.node_readable(msg.sender) => Some(MsgType::GetRoResponse),
            MsgType::GetRwRequest if dir.node_writable(msg.sender) => Some(MsgType::GetRwResponse),
            MsgType::UpgradeRequest if dir.node_writable(msg.sender) => {
                Some(MsgType::UpgradeResponse)
            }
            _ => None,
        };
        match regrant {
            Some(resp) => {
                self.recovery.regrants += 1;
                self.send(
                    t + HANDLER_NS,
                    Msg::new(msg.receiver, msg.sender, msg.block, resp).with_trace(msg.trace),
                );
                true
            }
            None => false,
        }
    }

    /// Starts the transaction if the block is free, else queues it.
    fn enqueue_or_start(&mut self, e: &mut DirEntry, msg: Msg, t: u64) -> Result<(), SimError> {
        match self.txns.get_mut(e.txn as usize) {
            Some(busy) => {
                busy.pending.push_back(PendingReq { msg, arrived: t });
                Ok(())
            }
            None => self.start_txn(e, msg, t),
        }
    }

    fn start_txn(&mut self, e: &mut DirEntry, msg: Msg, t: u64) -> Result<(), SimError> {
        let home = msg.receiver;
        let block = msg.block;
        let local = msg.sender == msg.receiver;
        let (service, dispatch) = self.occupy_dir_handler(home, t, msg.trace);

        // Speculative voluntary drops race their own acknowledgments: a
        // node that early-acked or self-invalidated and immediately
        // missed again on the same block sends its demand request while
        // the entry still lists it (the ack may have been left aside
        // because the sender was already in its next transient state).
        // The request itself proves the sender's copy is gone — a holder
        // never demand-misses on a block it holds — so strip the sender
        // before consulting the transition table.
        if self.policy.is_some()
            && self.mutation != ProtocolMutation::SpeculateWithoutRollback
            && !local
            && matches!(msg.mtype, MsgType::GetRoRequest | MsgType::GetRwRequest)
            && e.grants(msg.sender, ProcOp::Read, &self.wide)
        {
            let owned = e.grants(msg.sender, ProcOp::Write, &self.wide);
            let stripped = without_sharer(&self.wide.state(*e), msg.sender);
            if let Some(next) = stripped.or(owned.then_some(DirState::Idle)) {
                self.write_dir(e, block, next);
            }
        }
        // The upgrade race: the requester lost its copy to a concurrent
        // writer while this request was queued; convert to a write miss.
        let mut effective = msg.mtype;
        let mut reply_override = None;
        if effective == MsgType::UpgradeRequest && !e.grants(msg.sender, ProcOp::Read, &self.wide) {
            effective = MsgType::GetRwRequest;
            reply_override = Some(MsgType::GetRwResponse);
        }
        // §4.1 read-modify-write speculation: answer a remote shared
        // request with an exclusive grant if the policy predicts an
        // imminent upgrade.
        if !local && effective == MsgType::GetRoRequest {
            let grant = self
                .policy
                .as_mut()
                .is_some_and(|p| p.grant_exclusive(home, msg.sender, block));
            if grant {
                effective = MsgType::GetRwRequest;
                reply_override = Some(MsgType::GetRwResponse);
                self.stats.exclusive_grants += 1;
                self.spans.annotate(msg.trace, "speculative_grant");
            }
        }
        let plan = if local {
            let op = match effective {
                MsgType::GetRoRequest => ProcOp::Read,
                MsgType::GetRwRequest | MsgType::UpgradeRequest => ProcOp::Write,
                other => unreachable!("local marker {other}"),
            };
            let plan = directory::handle_local(&self.wide.state(*e), home, op);
            match plan {
                Some(o) => o,
                None => {
                    // Rights appeared while the request was queued.
                    self.dir_busy[home.index()] = service; // handler unused
                    self.complete_local(home, block, dispatch)?;
                    return self.start_next_pending(e, home, dispatch);
                }
            }
        } else {
            let state = self.wide.state(*e);
            directory::handle_request(&state, home, msg.sender, effective)
                .map_err(SimError::Protocol)?
        };
        if local && plan.holders.is_empty() && e.txn == NO_TXN {
            // A quiet local miss — nobody to recall, nobody queued — is
            // over in this handler: no slot to open and read back, only
            // the epoch it would have been stamped with.
            self.txn_epoch += 1;
            self.write_dir(e, block, plan.next);
            return self.complete_local(home, block, dispatch);
        }
        let reply = if local {
            None
        } else {
            Some(reply_override.unwrap_or_else(|| plan.reply.expect("remote grants reply")))
        };
        for target in &plan.holders {
            let imsg = Msg::new(home, target, block, plan.holder_request);
            self.send(dispatch, imsg.with_trace(msg.trace));
        }
        let outstanding = plan.holders.len();
        let epoch = self.open_txn(
            e,
            DirTxn {
                block: Some(block),
                requester: msg.sender,
                reply,
                next: plan.next,
                outstanding,
                local,
                holders: plan.holders,
                holder_request: plan.holder_request,
                acked: NodeSet::new(),
                epoch: 0,
                speculative: false,
                trace: msg.trace,
                pending: VecDeque::new(),
            },
        );
        if outstanding == 0 {
            self.finish_txn(e, home, block, dispatch)?;
        } else {
            // The directory waits for acknowledgments that a faulty
            // fabric may eat: arm its re-send timer.
            self.arm_ack_check(block, epoch, dispatch, 0);
        }
        Ok(())
    }

    /// Opens `txn` on `e`'s block, stamping and returning its epoch. The
    /// slot is the one the block already holds while its queue drains,
    /// else a recycled or new one; either way the slot's queue stays.
    fn open_txn(&mut self, e: &mut DirEntry, mut txn: DirTxn) -> u64 {
        self.txn_epoch += 1;
        txn.epoch = self.txn_epoch;
        if e.txn == NO_TXN {
            e.txn = self.free_txns.pop().unwrap_or(self.txns.len() as u32);
        }
        match self.txns.get_mut(e.txn as usize) {
            Some(slot) => {
                txn.pending = std::mem::take(&mut slot.pending);
                *slot = txn;
            }
            None => self.txns.push(txn),
        }
        self.txn_epoch
    }

    /// A request reaching `home`'s (software) directory handler at `t`
    /// waits for the handler to free up, then occupies it for one handler
    /// time. Returns when service starts and when the handler is done.
    pub(crate) fn occupy_dir_handler(&mut self, home: NodeId, t: u64, tr: TraceId) -> (u64, u64) {
        let service = t.max(self.dir_busy[home.index()]);
        let dispatch = service + HANDLER_NS;
        self.dir_busy[home.index()] = dispatch;
        if service > t {
            self.spans
                .child(tr, "dir.queue", SpanKind::Queue, t, service, home.raw());
        }
        self.spans.child(
            tr,
            "dir.service",
            SpanKind::Directory,
            service,
            dispatch,
            home.raw(),
        );
        (service, dispatch)
    }

    fn finish_txn(
        &mut self,
        e: &mut DirEntry,
        home: NodeId,
        block: BlockAddr,
        t: u64,
    ) -> Result<(), SimError> {
        let txn = &mut self.txns[e.txn as usize];
        let (local, reply, requester, trace) = (txn.local, txn.reply, txn.requester, txn.trace);
        let next = std::mem::take(&mut txn.next);
        self.write_dir(e, block, next);
        if local {
            self.complete_local(home, block, t)?;
        } else if let Some(reply) = reply {
            self.send(t, Msg::new(home, requester, block, reply).with_trace(trace));
        }
        // (A speculative push transaction has no reply: the target was
        // granted — or refused — the copy by the push itself.)
        self.start_next_pending(e, home, t)
    }

    /// The transaction of a block homed at `home` is over at `t`:
    /// services the next queued request, if any, else gives the slot back.
    fn start_next_pending(
        &mut self,
        e: &mut DirEntry,
        home: NodeId,
        t: u64,
    ) -> Result<(), SimError> {
        let Some(slot) = self.txns.get_mut(e.txn as usize) else {
            return Ok(()); // a local request found its rights, nothing open
        };
        let Some(next) = slot.pending.pop_front() else {
            slot.block = None;
            self.free_txns.push(e.txn);
            e.txn = NO_TXN;
            return Ok(());
        };
        let resume = next.arrived.max(t);
        if resume > next.arrived {
            // Time spent queued behind the previous transaction.
            self.spans.child(
                next.msg.trace,
                "dir.pending",
                SpanKind::Queue,
                next.arrived,
                resume,
                home.raw(),
            );
        }
        self.start_txn(e, next.msg, resume)
    }

    /// Completes the home node's own (message-free) access.
    fn complete_local(&mut self, home: NodeId, block: BlockAddr, t: u64) -> Result<(), SimError> {
        let (wblock, op, issued) = self.waiting[home.index()].take().expect("home was waiting");
        debug_assert_eq!(wblock, block);
        self.miss_epoch[home.index()] += 1;
        self.miss_recovered[home.index()] = false;
        let done = t + MEM_ACCESS_NS;
        self.clocks[home.index()] = self.clocks[home.index()].max(done);
        self.stats
            .count_access(op, false, done.saturating_sub(issued));
        let tr = self.miss_trace[home.index()];
        self.spans
            .child(tr, "mem.access", SpanKind::Directory, t, done, home.raw());
        self.spans.end_trace(tr, done);
        self.miss_trace[home.index()] = TraceId::NONE;
        self.outbox.push((done, Event::Issue(home)));
        Ok(())
    }

    fn on_cache_receive(&mut self, msg: &Msg, seq: u64, t: u64) -> Result<(), SimError> {
        self.record(t, msg);
        let node = msg.receiver;
        let block = msg.block;
        let state = self.cache_state(node, block);
        // The cache's software handler serialises incoming messages.
        let service = t.max(self.cache_busy[node.index()]);
        let handled = service + HANDLER_NS;
        self.cache_busy[node.index()] = handled;
        if service > t {
            self.spans.child(
                msg.trace,
                "cache.queue",
                SpanKind::Queue,
                t,
                service,
                node.raw(),
            );
        }
        self.spans.child(
            msg.trace,
            "cache.service",
            SpanKind::Directory,
            service,
            handled,
            node.raw(),
        );

        if self.fault.is_some() {
            match msg.mtype {
                // A grant the cache cannot consume: the original grant
                // raced a retransmission and won, so this re-grant is
                // stale — absorb it without touching the line.
                MsgType::GetRoResponse | MsgType::GetRwResponse | MsgType::UpgradeResponse => {
                    // A grant older than a recall this node already
                    // acknowledged is poisoned: the directory reclaimed
                    // the copy it carries (and may have granted it on),
                    // so consuming it would mint a second owner. The
                    // retransmission timer re-fetches with a fresh,
                    // unpoisoned grant.
                    let consumable = matches!(
                        (state, msg.mtype),
                        (CacheState::IToS, MsgType::GetRoResponse)
                            | (CacheState::IToS, MsgType::GetRwResponse)
                            | (CacheState::IToE, MsgType::GetRwResponse)
                            | (CacheState::SToE, MsgType::UpgradeResponse)
                    ) && self.waiting[node.index()]
                        .is_some_and(|(b, _, _)| b == block)
                        && seq >= self.grant_poison[node.index()];
                    if !consumable {
                        self.recovery.stale_grants_absorbed += 1;
                        return Ok(());
                    }
                }
                // An owner recall reaching a cache still waiting for its
                // upgrade grant: the grant was issued (the directory
                // moved to Exclusive before recalling) but is delayed or
                // lost behind this recall. Yield the copy and fall back
                // to a write miss — the retried request re-fetches
                // exclusivity, and the stale upgrade grant, arriving at
                // I-to-E, is absorbed above.
                MsgType::InvalRwRequest if state == CacheState::SToE => {
                    self.set_cache_state(node, block, CacheState::IToE);
                    self.poison_older_grants(node, block, seq);
                    self.send(
                        handled,
                        Msg::new(node, msg.sender, block, MsgType::InvalRwResponse)
                            .with_trace(msg.trace),
                    );
                    return Ok(());
                }
                // A re-sent owner recall that was already applied (the
                // original ack was lost or is still in flight): the
                // now-empty cache acknowledges again so the directory's
                // count can complete; the per-transaction acked set
                // absorbs any double-count.
                MsgType::InvalRwRequest
                    if matches!(
                        state,
                        CacheState::Invalid | CacheState::IToS | CacheState::IToE
                    ) =>
                {
                    self.poison_older_grants(node, block, seq);
                    self.send(
                        handled,
                        Msg::new(node, msg.sender, block, MsgType::InvalRwResponse)
                            .with_trace(msg.trace),
                    );
                    return Ok(());
                }
                // Likewise a re-sent downgrade finding the copy already
                // downgraded (or gone).
                MsgType::DowngradeRequest if state != CacheState::Exclusive => {
                    self.send(
                        handled,
                        Msg::new(node, msg.sender, block, MsgType::DowngradeResponse)
                            .with_trace(msg.trace),
                    );
                    return Ok(());
                }
                _ => {}
            }
        }

        // The replacement race: an owner-recall crossing a voluntary
        // writeback finds the cache already empty — or already missing
        // again on a *new* request (I-to-S / I-to-E). In every stage the
        // writeback (already on the wire, ordered before this recall's
        // acknowledgment would be) serves as the acknowledgment, so stay
        // silent. Only a voluntary writeback can make the directory's
        // owner record stale, so this arm is unreachable without one.
        if msg.mtype == MsgType::InvalRwRequest
            && matches!(
                state,
                CacheState::Invalid | CacheState::IToS | CacheState::IToE
            )
        {
            return Ok(());
        }

        // A sharer-invalidation reaching a node without a shared copy —
        // either truly invalid or mid-fill (its own request for this block
        // is queued behind the invalidating write and will be serviced
        // with fresh data afterwards): acknowledge without touching the
        // line. Races reach it, never a clean serial run: a re-sent
        // invalidation under faults whose first copy already did its work,
        // one crossing the sharer's voluntary early ack, or one sent to a
        // sharer whose early ack the directory left aside because it was
        // already missing again.
        if msg.mtype == MsgType::InvalRoRequest
            && matches!(
                state,
                CacheState::Invalid | CacheState::IToS | CacheState::IToE
            )
        {
            if self.fault.is_some() {
                self.poison_older_grants(node, block, seq);
            }
            let home = msg.sender;
            self.send(
                handled,
                Msg::new(node, home, block, MsgType::InvalRoResponse).with_trace(msg.trace),
            );
            return Ok(());
        }

        // A stale sharer-invalidation landing on a re-acquired exclusive
        // copy: only possible with a speculation policy — the node's
        // voluntary early ack satisfied the soliciting transaction (the
        // home serialises transactions per block, so that transaction
        // finished before any later grant), the node missed again and
        // was granted ownership, and the superseded invalidation arrives
        // last, delayed behind the cache's handler queue. Drop it: the
        // copy is legitimate and the ack it asks for was already given.
        if msg.mtype == MsgType::InvalRoRequest
            && state == CacheState::Exclusive
            && self.policy.is_some()
        {
            return Ok(());
        }

        // The seeded bug for simcheck self-validation: acknowledge the
        // invalidation but keep the shared copy. The directory counts the
        // ack, believes the sharer is gone, and grants the writer — SWMR
        // breaks a few deliveries later.
        if self.mutation == ProtocolMutation::AckWithoutInvalidate
            && msg.mtype == MsgType::InvalRoRequest
            && state == CacheState::Shared
        {
            self.send(
                handled,
                Msg::new(node, msg.sender, block, MsgType::InvalRoResponse).with_trace(msg.trace),
            );
            return Ok(());
        }

        let (next, reply) = cache::on_message(state, msg.mtype)?;
        self.set_cache_state(node, block, next);
        match reply {
            Some(resp) => {
                // An invalidation or downgrade: acknowledge to the home.
                let home = msg.sender;
                self.send(
                    handled,
                    Msg::new(node, home, block, resp).with_trace(msg.trace),
                );
            }
            None => {
                // A grant: the processor's miss completes.
                let (wblock, op, issued) =
                    self.waiting[node.index()].take().expect("node was waiting");
                debug_assert_eq!(wblock, block);
                // Lazily cancel any outstanding retransmission timers.
                self.miss_epoch[node.index()] += 1;
                if self.miss_recovered[node.index()] {
                    self.miss_recovered[node.index()] = false;
                    self.recovery
                        .recovery_latency_ns
                        .record(handled.saturating_sub(issued));
                }
                let done = handled;
                self.clocks[node.index()] = self.clocks[node.index()].max(done);
                self.stats
                    .count_access(op, false, done.saturating_sub(issued));
                let tr = self.miss_trace[node.index()];
                self.spans.end_trace(tr, done);
                self.miss_trace[node.index()] = TraceId::NONE;
                self.maybe_drop(VoluntaryDrop::after(op), node, block, done);
                self.outbox.push((done, Event::Issue(node)));
            }
        }
        Ok(())
    }

    /// §4's voluntary drop: after an access left `node` holding `rule`'s
    /// state, ask the policy `rule`'s question and, if it fires, give the
    /// copy back unsolicited. The cache empties immediately; the race
    /// with a concurrent recall is resolved by the unsolicited message
    /// doubling as the acknowledgment (see `on_directory_receive`).
    fn maybe_drop(&mut self, rule: &VoluntaryDrop, node: NodeId, block: BlockAddr, now: u64) {
        // Policy first: without one this is every access's fast exit.
        if self.policy.is_none() {
            return;
        }
        let home = self.home(block);
        if node == home || self.cache_state(node, block) != rule.held {
            return;
        }
        let fire = self
            .policy
            .as_mut()
            .is_some_and(|p| (rule.ask)(p.as_mut(), node, block));
        if !fire {
            return;
        }
        self.set_cache_state(node, block, CacheState::Invalid);
        let tr = self
            .spans
            .begin_trace(rule.span, now, node.raw(), block.number());
        self.spans.annotate(tr, "speculative");
        let msg = Msg::new(node, home, block, rule.mtype).with_trace(tr);
        let name = net_span_name(rule.mtype);
        self.send_reliable(now, msg, name, SpanKind::Network, Event::Deliver);
        // The reliable channel always delivers after exactly one hop, so
        // the message's arrival — and the trace's end — is known now.
        self.spans.end_trace(tr, now + self.sys.one_way_ns());
        *(rule.tally)(self) += 1;
    }

    /// Speculative push: when a block goes idle at its home, consult the
    /// policy for the predicted next reader/writer and, if it names one,
    /// open a speculative transaction and push an unsolicited copy. The
    /// transaction occupies the block, so demand traffic serialises
    /// behind the push exactly as behind any other transaction; the
    /// target's verdict ([`Self::on_spec_push_resp`]) either confirms the
    /// provisional directory entry or rolls it back to idle.
    fn maybe_spec_push(&mut self, e: &mut DirEntry, block: BlockAddr, t: u64) {
        if self.policy.is_none() || e.txn != NO_TXN || e.kind() != DirState::Idle {
            return;
        }
        let home = self.home(block);
        let Some((target, kind)) = self
            .policy
            .as_mut()
            .and_then(|p| p.forward_candidate(home, block))
        else {
            return;
        };
        // The home's own rights live in the directory entry; pushing to
        // an unknown node would be a policy bug, not a protocol race.
        if target == home || target.index() >= self.proto.nodes {
            return;
        }
        let (mtype, next) = match kind {
            ForwardKind::Shared => (
                MsgType::GetRoResponse,
                DirState::Shared(NodeSet::singleton(target)),
            ),
            ForwardKind::Exclusive => (MsgType::GetRwResponse, DirState::Exclusive(target)),
        };
        let tr = self
            .spans
            .begin_trace("spec_push", t, home.raw(), block.number());
        self.spans.annotate(tr, "speculative");
        self.open_txn(
            e,
            DirTxn {
                block: Some(block),
                requester: target,
                reply: None,
                next,
                outstanding: 1,
                local: false,
                holders: NodeSet::new(),
                holder_request: MsgType::InvalRoRequest,
                acked: NodeSet::new(),
                epoch: 0,
                speculative: true,
                trace: tr,
                pending: VecDeque::new(),
            },
        );
        self.rollback.pushes += 1;
        let push = Msg::new(home, target, block, mtype).with_trace(tr);
        self.send_reliable(t, push, "net.push", SpanKind::Speculation, Event::SpecPush);
    }

    /// A pushed copy arrived at its target. Accept only into an `Invalid`
    /// line: any transient state means the target's own request is in
    /// flight and the demand path must win the race (the push transaction
    /// holds the block, so that request is queued or NAKed behind it and
    /// will be serviced with authoritative data after the rollback).
    fn on_spec_push(&mut self, msg: &Msg, t: u64) {
        let node = msg.receiver;
        let block = msg.block;
        // The cache's software handler serialises pushes like any
        // other incoming message.
        let service = t.max(self.cache_busy[node.index()]);
        let handled = service + HANDLER_NS;
        self.cache_busy[node.index()] = handled;
        let accepted = self.cache_state(node, block) == CacheState::Invalid;
        if accepted {
            let state = match msg.mtype {
                MsgType::GetRoResponse => CacheState::Shared,
                MsgType::GetRwResponse => CacheState::Exclusive,
                other => unreachable!("push grant {other}"),
            };
            self.set_cache_state(node, block, state);
            self.spans.child(
                msg.trace,
                "push.fill",
                SpanKind::Speculation,
                service,
                handled,
                node.raw(),
            );
        } else {
            self.spans.child(
                msg.trace,
                "push.reject",
                SpanKind::Speculation,
                service,
                handled,
                node.raw(),
            );
        }
        let verdict = Msg::new(node, msg.sender, block, msg.mtype).with_trace(msg.trace);
        self.send_reliable(
            handled,
            verdict,
            "net.push_ack",
            SpanKind::Speculation,
            |msg, seq| Event::SpecPushResp { msg, accepted, seq },
        );
    }

    /// The target's verdict came back: commit the provisional directory
    /// entry, or roll it back to idle as if the push never happened. The
    /// seeded [`ProtocolMutation::SpeculateWithoutRollback`] bug skips
    /// the rollback, leaving the directory believing in a copy the
    /// target never installed.
    fn on_spec_push_resp(
        &mut self,
        e: &mut DirEntry,
        msg: &Msg,
        accepted: bool,
        t: u64,
    ) -> Result<(), SimError> {
        let block = msg.block;
        let Some(txn) = self.txns.get_mut(e.txn as usize) else {
            // The reliable channel cannot lose the response, so the
            // push transaction is always still open when it arrives.
            debug_assert!(false, "push response without its transaction");
            return Ok(());
        };
        debug_assert!(txn.speculative, "push response found a demand transaction");
        txn.outstanding = 0;
        let tr = txn.trace;
        if accepted {
            self.rollback.confirmed += 1;
        } else if self.mutation == ProtocolMutation::SpeculateWithoutRollback {
            // Seeded bug: keep the speculative entry despite the
            // rejection (see the mutation's doc comment).
        } else {
            txn.next = DirState::Idle;
            self.rollback.rolled_back += 1;
        }
        let service = t + HANDLER_NS;
        self.finish_txn(e, msg.receiver, block, service)?;
        self.spans.end_trace(tr, service);
        Ok(())
    }

    /// Audits the full-map/SWMR invariants for every touched block
    /// (callable at quiescence — between phases).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify_coherence(&self) -> Result<(), SimError> {
        self.audit(self.touched_blocks())
    }

    /// Audits `blocks` in the order given, stopping at the first
    /// violation.
    pub(crate) fn audit(
        &self,
        blocks: impl IntoIterator<Item = BlockAddr>,
    ) -> Result<(), SimError> {
        for block in blocks {
            let dir = self.dir_state(block);
            let holders = self.holders(block).iter().copied();
            let home = self.home(block);
            audit_block(home, block, &dir, holders, &self.tally)?;
        }
        Ok(())
    }
}

/// `state` with `node` struck from its sharer set, if it is listed there.
fn without_sharer(state: &DirState, node: NodeId) -> Option<DirState> {
    match state {
        DirState::Shared(s) if s.contains(node) => {
            let mut s = s.clone();
            s.remove(node);
            Some(if s.is_empty() {
                DirState::Idle
            } else {
                DirState::Shared(s)
            })
        }
        _ => None,
    }
}

/// The quiescence half of a barrier: with the event queue drained, a
/// processor still blocked on a miss (`waiting`, lowest node) or a
/// transaction still open (`open`, lowest block) will never complete —
/// the phase was cut short, and no build profile may return `Ok` on it.
pub(crate) fn check_drained(
    proto: &ProtocolConfig,
    waiting: Option<(NodeId, BlockAddr)>,
    open: Option<BlockAddr>,
) -> Result<(), SimError> {
    match waiting.or_else(|| open.map(|b| (home_of_block(b, proto), b))) {
        Some((node, block)) => Err(InvariantViolation::StuckMessage { block, node }.into()),
        None => Ok(()),
    }
}

/// Every node's effective cache state for `block`, indexed by node: its
/// cached copy among `holders` for ordinary nodes, and for the home —
/// which holds no cache entry of its own — the rights its directory entry
/// `dir` implies.
pub(crate) fn dense_states(
    proto: &ProtocolConfig,
    block: BlockAddr,
    dir: &DirState,
    holders: impl Iterator<Item = Holder> + Clone,
) -> Vec<CacheState> {
    let mut states = vec![CacheState::Invalid; proto.nodes];
    for (n, s) in with_home_rights(holders, home_of_block(block, proto), dir) {
        states[n.index()] = s;
    }
    states
}

/// Audits one block's full-map/SWMR invariants over its cached copies
/// `holders` (ascending) and the rights of its home `home`, counting the
/// check — and any violation — in `tally`.
pub(crate) fn audit_block(
    home: NodeId,
    block: BlockAddr,
    dir: &DirState,
    holders: impl Iterator<Item = Holder> + Clone,
    tally: &ProtocolTally,
) -> Result<(), SimError> {
    tally.count_invariant_check();
    let picture = with_home_rights(holders, home, dir);
    if let Err(v) = check_block_sparse(block, dir, picture) {
        tally.count_invariant_failure();
        return Err(SimError::from(v));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Access;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn machine() -> ConcurrentMachine {
        ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper())
    }

    fn plan_of(phases: Vec<Vec<Access>>) -> IterationPlan {
        let mut plan = IterationPlan::new();
        for accesses in phases {
            let mut phase = Phase::new(16);
            for a in accesses {
                phase.push(a);
            }
            plan.push(phase);
        }
        plan
    }

    #[test]
    fn single_miss_round_trip() {
        let mut m = machine();
        let plan = plan_of(vec![vec![Access::read(n(1), BlockAddr::new(0))]]);
        m.run_plan(&plan, 0).unwrap();
        let types: Vec<MsgType> = m.trace().records().iter().map(|r| r.mtype).collect();
        assert_eq!(types, vec![MsgType::GetRoRequest, MsgType::GetRoResponse]);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn independent_blocks_overlap_in_time() {
        let mut m = machine();
        // Two processors miss on blocks with different homes in the same
        // phase: both requests depart at t=0 and are serviced in parallel.
        let plan = plan_of(vec![vec![
            Access::read(n(2), BlockAddr::new(0)),  // home 0
            Access::read(n(3), BlockAddr::new(64)), // home 1
        ]]);
        m.run_plan(&plan, 0).unwrap();
        let replies: Vec<u64> = m
            .trace()
            .records()
            .iter()
            .filter(|r| r.mtype == MsgType::GetRoResponse)
            .map(|r| r.time_ns)
            .collect();
        assert_eq!(replies.len(), 2);
        assert_eq!(
            replies[0], replies[1],
            "true overlap: identical completion times"
        );
    }

    #[test]
    fn same_block_requests_serialize_at_the_home() {
        let mut m = machine();
        let plan = plan_of(vec![vec![
            Access::read(n(2), BlockAddr::new(0)),
            Access::read(n(3), BlockAddr::new(0)),
        ]]);
        m.run_plan(&plan, 0).unwrap();
        let replies: Vec<u64> = m
            .trace()
            .records()
            .iter()
            .filter(|r| r.mtype == MsgType::GetRoResponse)
            .map(|r| r.time_ns)
            .collect();
        assert_eq!(replies.len(), 2);
        assert!(replies[1] > replies[0], "the second waits for the first");
        m.verify_coherence().unwrap();
    }

    #[test]
    fn upgrade_race_converts_to_write_miss() {
        let mut m = machine();
        // Phase 1: both processors take shared copies.
        // Phase 2: both try to write. One upgrade wins; the other's copy
        // is invalidated mid-flight and its upgrade becomes a write miss.
        let plan = plan_of(vec![
            vec![
                Access::read(n(1), BlockAddr::new(0)),
                Access::read(n(2), BlockAddr::new(0)),
            ],
            vec![
                Access::write(n(1), BlockAddr::new(0)),
                Access::write(n(2), BlockAddr::new(0)),
            ],
        ]);
        m.run_plan(&plan, 0).unwrap();
        m.verify_coherence().unwrap();
        // Exactly one of the two writers ends exclusive.
        let owners = (0..16)
            .filter(|&i| m.cache_state(n(i), BlockAddr::new(0)) == CacheState::Exclusive)
            .count();
        assert_eq!(owners, 1);
        // The race produced an inval_ro_response from the losing upgrader
        // and a get_rw_response completing its converted miss.
        let types: Vec<MsgType> = m.trace().records().iter().map(|r| r.mtype).collect();
        assert!(types.contains(&MsgType::UpgradeRequest));
        assert!(types.contains(&MsgType::GetRwResponse));
    }

    /// Three sharers race to upgrade, stepped by hand. The first upgrade
    /// to reach the home invalidates the other two from one handler, at
    /// one time: the two deliveries must reach the queue exactly once
    /// each, in the order the handler sent them.
    #[test]
    fn outbox_flush_keeps_a_handlers_push_order() {
        let mut m = machine();
        let b = BlockAddr::new(0);
        let sharers = [1, 2, 3];
        m.run_plan(
            &plan_of(vec![sharers
                .iter()
                .map(|&i| Access::read(n(i), b))
                .collect()]),
            0,
        )
        .unwrap();
        let mut phase = Phase::new(16);
        for i in sharers {
            phase.push(Access::write(n(i), b));
        }
        m.begin_phase(&phase);
        assert!(m.outbox.is_empty(), "begin_phase flushes");
        assert_eq!(m.pending_labels(), ["issue P1", "issue P2", "issue P3"]);
        loop {
            let next = m.pending_labels()[0].clone();
            let pushed_before = m.queue.depth_histogram().count();
            assert!(m.step_rank(0).unwrap());
            assert!(m.outbox.is_empty(), "every step flushes");
            if next.starts_with("deliver upgrade_request") {
                let labels = m.pending_labels();
                let invals: Vec<&str> = labels
                    .iter()
                    .map(String::as_str)
                    .filter(|l| l.contains("inval_ro_request"))
                    .collect();
                assert_eq!(
                    invals,
                    [
                        "deliver inval_ro_request P0->P2 B0",
                        "deliver inval_ro_request P0->P3 B0"
                    ]
                );
                assert_eq!(m.queue.depth_histogram().count(), pushed_before + 2);
                break;
            }
        }
        while m.step_rank(0).unwrap() {}
        m.run_barrier().unwrap();
        let owners = sharers
            .iter()
            .filter(|&&i| m.cache_state(n(i), b) == CacheState::Exclusive)
            .count();
        assert_eq!(owners, 1);
    }

    /// Blocks cycling through wide, inline, wide (spilled) and idle sets,
    /// staggered so freed slots are taken again: after every write the
    /// live slots are exactly the wide entries' own.
    #[test]
    fn wide_set_slots_follow_the_entries_through_churn() {
        let mut m = machine();
        let set = |ids: &[usize]| DirState::Shared(ids.iter().map(|&i| n(i)).collect());
        let cycle = [
            set(&[1, 2, 3]),
            set(&[4, 5]),
            set(&[1, 2, 3, 4, 5, 6, 7, 8, 9]),
            DirState::Idle,
        ];
        let blocks: Vec<BlockAddr> = (0..12).map(|i| BlockAddr::new(64 * i)).collect();
        for round in 0..3 * cycle.len() {
            for (i, &block) in blocks.iter().enumerate() {
                m.set_dir(block, cycle[(round + i) % cycle.len()].clone());
                let wide = m.dir.keys().filter(|&b| m.dir_state(b).holders().len() > 2);
                let entries = m.dir.iter().map(|(_, e)| e);
                assert_eq!(m.wide.check_slots(entries), wide.count());
            }
        }
        for &block in &blocks {
            m.set_dir(block, DirState::Idle);
        }
        assert_eq!(m.wide.check_slots(m.dir.iter().map(|(_, e)| e)), 0);
    }

    /// A handler that sends and *then* fails still has its sends moved
    /// to the queue: simcheck inspects the machine after an erring step.
    #[test]
    fn step_rank_flushes_the_outbox_when_the_handler_errs() {
        let mut m = machine();
        let b = BlockAddr::new(0);
        m.run_plan(&plan_of(vec![vec![Access::write(n(2), b)]]), 0)
            .unwrap();
        let mut phase = Phase::new(16);
        phase.push(Access::read(n(1), b));
        m.begin_phase(&phase);
        // Step until the home has recalled the owner's copy and waits.
        while m.open_transactions() == 0 {
            assert!(m.step_rank(0).unwrap());
        }
        // Corrupt the waiting room: a second read from node 1, which
        // contradicts the entry the open transaction is about to write.
        let open = m.dir.get(b).expect("touched").txn as usize;
        m.txns[open].pending.push_back(PendingReq {
            msg: Msg::new(n(1), n(0), b, MsgType::GetRoRequest),
            arrived: 0,
        });
        let err = loop {
            match m.step_rank(0) {
                Ok(true) => {}
                Ok(false) => panic!("drained without tripping the corrupt request"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, SimError::Protocol(_)), "{err}");
        // finish_txn sent node 1's grant before it started the bad request.
        assert!(m.outbox.is_empty());
        assert_eq!(m.pending_labels(), ["deliver get_ro_response P0->P1 B0"]);
    }

    /// Invariant checks performed so far.
    fn checks(m: &ConcurrentMachine) -> u64 {
        m.tally().invariant_checks()
    }

    #[test]
    fn a_barrier_audits_exactly_the_blocks_written_since_the_last_one() {
        let (b0, b1, b2) = (BlockAddr::new(0), BlockAddr::new(64), BlockAddr::new(128));
        let plan = plan_of(vec![
            // Two blocks written (b1 by its own home: a directory write only).
            vec![Access::read(n(1), b0), Access::write(n(1), b1)],
            // b0 again, twice, and a third block: two distinct blocks.
            vec![
                Access::read(n(2), b0),
                Access::write(n(3), b0),
                Access::read(n(4), b2),
            ],
            // Hits only: nothing is written.
            vec![Access::read(n(3), b0), Access::read(n(4), b2)],
        ]);
        let mut m = machine();
        let mut per_barrier = Vec::new();
        for phase in &plan.phases {
            m.begin_phase(phase);
            while m.step_rank(0).unwrap() {}
            let before = checks(&m);
            m.run_barrier().unwrap();
            per_barrier.push(checks(&m) - before);
            assert!(m.dirty.is_empty(), "the barrier consumed the list");
        }
        assert_eq!(per_barrier, [2, 2, 0]);
        // Nothing happened since: a second barrier has nothing to prove.
        let before = checks(&m);
        m.run_barrier().unwrap();
        assert_eq!(checks(&m), before);
        // The exhaustive audit still walks all three blocks.
        m.verify_coherence().unwrap();
        assert_eq!(checks(&m), before + 3);
        // And `run_plan`'s barriers are these: same total on a fresh run.
        let mut whole = machine();
        whole.run_plan(&plan, 0).unwrap();
        assert_eq!(checks(&whole), 4);
    }

    /// The audit's work list is fed by the two state writers and nothing
    /// else, so each must feed it on its own: a write with no transaction
    /// around it — what a buggy handler would do — is caught by the next
    /// barrier exactly as the exhaustive audit catches it.
    #[test]
    fn a_lone_cache_or_directory_write_is_audited_at_the_next_barrier() {
        let b = BlockAddr::new(0);
        let corruptions: [fn(&mut ConcurrentMachine, BlockAddr); 2] = [
            |m, b| m.set_cache_state(n(3), b, CacheState::Exclusive),
            |m, b| m.set_dir(b, DirState::Idle),
        ];
        for corrupt in corruptions {
            let mut m = machine();
            m.run_plan(&plan_of(vec![vec![Access::read(n(1), b)]]), 0)
                .unwrap();
            assert!(m.dirty.is_empty());
            corrupt(&mut m, b);
            let exhaustive = m.verify_coherence();
            assert!(matches!(exhaustive, Err(SimError::Invariant(_))));
            assert_eq!(m.run_barrier(), exhaustive);
        }
    }

    /// A phase that goes quiet with a processor still blocked was cut
    /// short; the barrier must say so in every build profile. Here the
    /// grant is dropped and the retransmission timer never fires.
    #[test]
    fn a_barrier_refuses_a_stuck_waiter_instead_of_truncating_the_phase() {
        use crate::fault::{FaultInjector, FaultPlan, ForcedFault};
        let b = BlockAddr::new(0);
        let mut m = machine();
        let mut inj = FaultInjector::new(FaultPlan::default());
        // Delivery 0 is the request, delivery 1 the grant.
        inj.force(1, ForcedFault::Drop);
        m.set_fault_injector(inj);
        let mut phase = Phase::new(16);
        phase.push(Access::read(n(1), b));
        phase.push(Access::read(n(1), BlockAddr::new(64)));
        m.begin_phase(&phase);
        while let Some((t, ev)) = m.queue.pop() {
            if !matches!(ev, Event::RetryCheck { .. }) {
                m.step(t, ev).unwrap();
            }
        }
        assert_eq!(m.open_transactions(), 0, "the home did its part");
        assert_eq!(
            m.scripts[1].len(),
            1,
            "node 1 never reached its second read"
        );
        let stuck = SimError::from(InvariantViolation::StuckMessage {
            block: b,
            node: n(1),
        });
        assert_eq!(m.run_barrier(), Err(stuck));
        // An open transaction with no waiter is reported at its home.
        let proto = ProtocolConfig::paper();
        assert_eq!(
            check_drained(&proto, None, Some(BlockAddr::new(64))),
            Err(SimError::from(InvariantViolation::StuckMessage {
                block: BlockAddr::new(64),
                node: n(1),
            }))
        );
        assert_eq!(check_drained(&proto, None, None), Ok(()));
    }

    /// A root span no protocol path closed is a bug the barrier reports,
    /// once: the span is flagged and closed, and the next barrier passes.
    #[test]
    fn a_barrier_fails_on_a_span_left_open() {
        let mut m = machine();
        m.enable_tracing();
        m.run_plan(
            &plan_of(vec![vec![Access::write(n(1), BlockAddr::new(0))]]),
            0,
        )
        .unwrap();
        assert_eq!(m.spans().orphans(), 0);
        let t = m.spans.begin_trace("get_ro_request", 0, 2, 64);
        assert_eq!(m.run_barrier(), Err(SimError::OrphanedSpans { count: 1 }));
        assert_eq!(m.spans().root_of(t).unwrap().note, Some("orphaned"));
        assert_eq!(m.run_barrier(), Ok(()));
        assert_eq!(m.spans().orphans(), 1);
    }

    #[test]
    fn per_block_sequences_match_the_serialized_engine() {
        // For a single-block workload the two engines must produce the
        // same per-agent message type sequences (timestamps may differ).
        use crate::machine::Machine;
        let accesses = [
            (1usize, ProcOp::Write),
            (2, ProcOp::Read),
            (3, ProcOp::Read),
            (2, ProcOp::Write),
            (1, ProcOp::Read),
        ];
        let mut serial = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
        for &(p, op) in &accesses {
            serial.access(n(p), BlockAddr::new(0), op, 0).unwrap();
        }
        let mut conc = machine();
        // One access per phase forces the same serialization order.
        let phases: Vec<Vec<Access>> = accesses
            .iter()
            .map(|&(p, op)| {
                vec![match op {
                    ProcOp::Read => Access::read(n(p), BlockAddr::new(0)),
                    ProcOp::Write => Access::write(n(p), BlockAddr::new(0)),
                }]
            })
            .collect();
        conc.run_plan(&plan_of(phases), 0).unwrap();
        let serial_types: Vec<(NodeId, MsgType)> = serial
            .trace()
            .records()
            .iter()
            .map(|r| (r.node, r.mtype))
            .collect();
        let conc_types: Vec<(NodeId, MsgType)> = conc
            .trace()
            .records()
            .iter()
            .map(|r| (r.node, r.mtype))
            .collect();
        assert_eq!(serial_types, conc_types);
    }

    #[test]
    fn a_race_free_plan_leaves_the_same_store_in_both_schedulers() {
        // `Machine` walks each transaction in closed form, this engine
        // runs it as events; both write one store through `set_dir` /
        // `set_cache_state`. One access per phase removes every race, so
        // the stores must end up equal entry for entry — directory
        // states, per-node cache states — and so must every agent's
        // incoming message sequence.
        use crate::machine::Machine;
        let accesses = [
            (1usize, 0u64, ProcOp::Write),
            (2, 0, ProcOp::Read),
            (3, 0, ProcOp::Read),
            (0, 0, ProcOp::Read),   // the home itself
            (4, 64, ProcOp::Read),  // homed on node 1
            (1, 64, ProcOp::Write), // local write recalls the sharer
            (2, 0, ProcOp::Write),  // upgrade over three sharers
            (5, 1, ProcOp::Write),
            (5, 1, ProcOp::Read),  // hit
            (0, 1, ProcOp::Write), // local write recalls the owner
            (6, 0, ProcOp::Read),
        ];
        let mut serial = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
        for &(p, b, op) in &accesses {
            serial.access(n(p), BlockAddr::new(b), op, 0).unwrap();
        }
        let mut conc = ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
        let phases = accesses
            .iter()
            .map(|&(p, b, op)| {
                vec![match op {
                    ProcOp::Read => Access::read(n(p), BlockAddr::new(b)),
                    ProcOp::Write => Access::write(n(p), BlockAddr::new(b)),
                }]
            })
            .collect();
        conc.run_plan(&plan_of(phases), 0).unwrap();
        let serial = &serial.core;
        // What each agent receives, in its own arrival order (the two
        // schedulers interleave *different* agents' receptions
        // differently when one write recalls many holders).
        let agent_seqs = |m: &ConcurrentMachine| -> Vec<Vec<(NodeId, MsgType)>> {
            let mut per_node = vec![Vec::new(); 16];
            for r in m.trace().records() {
                per_node[r.node.index()].push((r.sender, r.mtype));
            }
            per_node
        };
        assert_eq!(agent_seqs(serial), agent_seqs(&conc));
        assert_eq!(serial.touched_blocks(), conc.touched_blocks());
        // Entry for entry: the states, not the wide-set slots the two
        // runs happened to hand out.
        let entry = |m: &ConcurrentMachine, block| {
            let e = m.dir.get(block).copied();
            (m.dir_state(block).into_owned(), e.map(|e| e.txn))
        };
        for block in conc.touched_blocks() {
            assert_eq!(entry(serial, block), entry(&conc, block), "{block}");
            assert_eq!(
                serial.cache_states_for(block),
                conc.cache_states_for(block),
                "{block}"
            );
        }
        assert_eq!(serial.copies, conc.copies);
    }

    #[test]
    fn local_accesses_stay_message_free() {
        let mut m = machine();
        let plan = plan_of(vec![vec![
            Access::write(n(0), BlockAddr::new(0)),
            Access::read(n(0), BlockAddr::new(0)),
        ]]);
        m.run_plan(&plan, 0).unwrap();
        assert_eq!(m.trace().len(), 0);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn rmw_is_not_atomic_here() {
        let mut m = machine();
        // Two processors RMW the same block concurrently: the engine may
        // interleave their read and write halves; whatever happens, the
        // protocol stays coherent and both writes commit.
        let plan = plan_of(vec![vec![
            Access::rmw(n(1), BlockAddr::new(0)),
            Access::rmw(n(2), BlockAddr::new(0)),
        ]]);
        m.run_plan(&plan, 0).unwrap();
        m.verify_coherence().unwrap();
        assert_eq!(m.stats().writes, 2);
    }

    #[test]
    fn obs_snapshot_covers_queue_depth_and_net_latency() {
        let mut m = machine();
        let plan = plan_of(vec![vec![Access::read(n(1), BlockAddr::new(0))]]);
        m.run_plan(&plan, 0).unwrap();
        let snap = m.obs_snapshot();
        assert!(matches!(
            snap.get("simx.queue.depth"),
            Some(obs::MetricValue::Histogram(h)) if h.count() > 0
        ));
        assert!(matches!(
            snap.get("simx.net.one_way_ns"),
            Some(obs::MetricValue::Histogram(h)) if h.count() == 2
        ));
        assert!(snap.get("stache.cache.transition.invalid.i_to_s").is_some());
    }

    #[test]
    fn dropped_grant_is_recovered_by_the_retry_timer() {
        use crate::fault::{FaultPlan, ForcedFault};
        let mut m = machine();
        let mut inj = crate::fault::FaultInjector::new(FaultPlan::default());
        // Delivery 0 is the request, delivery 1 the grant.
        inj.force(1, ForcedFault::Drop);
        m.set_fault_injector(inj);
        let plan = plan_of(vec![vec![Access::read(n(1), BlockAddr::new(0))]]);
        m.run_plan(&plan, 0).unwrap();
        let r = m.recovery_tally();
        assert_eq!(r.timeouts, 1, "exactly one timeout fires");
        assert_eq!(r.retries, 1, "exactly one retransmission");
        assert_eq!(r.regrants, 1, "the home re-sends the lost grant");
        assert_eq!(r.recovery_latency_ns.count(), 1);
        assert_eq!(m.cache_state(n(1), BlockAddr::new(0)), CacheState::Shared);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn duplicated_inval_ack_is_absorbed_by_the_sequence_filter() {
        use crate::fault::{FaultInjector, FaultPlan, ForcedFault};
        let mut m = machine();
        let mut inj = FaultInjector::new(FaultPlan::default());
        // Phase 1, write by node 1: request (0), grant (1). Phase 2,
        // write by node 2: request (2), invalidation (3), ack (4),
        // grant (5).
        inj.force(4, ForcedFault::Duplicate);
        m.set_fault_injector(inj);
        let plan = plan_of(vec![
            vec![Access::write(n(1), BlockAddr::new(0))],
            vec![Access::write(n(2), BlockAddr::new(0))],
        ]);
        m.run_plan(&plan, 0).unwrap();
        assert_eq!(m.recovery_tally().dups_absorbed, 1);
        // Six receptions, exactly as a clean run: the duplicate never
        // reaches a handler or the trace.
        assert_eq!(m.trace().len(), 6);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn dropped_inval_ack_is_recovered_by_the_directory_timer() {
        use crate::fault::{FaultInjector, FaultPlan, ForcedFault};
        let mut m = machine();
        let mut inj = FaultInjector::new(FaultPlan::default());
        // Same shape as above; delivery 4 is the inval ack — drop it.
        inj.force(4, ForcedFault::Drop);
        m.set_fault_injector(inj);
        let plan = plan_of(vec![
            vec![Access::write(n(1), BlockAddr::new(0))],
            vec![Access::write(n(2), BlockAddr::new(0))],
        ]);
        m.run_plan(&plan, 0).unwrap();
        let r = m.recovery_tally();
        assert!(r.timeouts >= 1, "the directory's ack timer fired");
        assert!(r.retries >= 1, "the invalidation was re-sent");
        m.verify_coherence().unwrap();
        assert_eq!(
            m.cache_state(n(2), BlockAddr::new(0)),
            CacheState::Exclusive
        );
        assert_eq!(m.cache_state(n(1), BlockAddr::new(0)), CacheState::Invalid);
    }

    #[test]
    fn busy_block_naks_instead_of_queueing() {
        use crate::fault::FaultPlan;
        let mut m = machine();
        m.set_fault_plan(FaultPlan::default());
        // Seed an exclusive owner, then race two requests: whichever
        // arrives second finds an invalidation transaction in flight and
        // is NAKed instead of sitting in the pending queue.
        let plan = plan_of(vec![
            vec![Access::write(n(1), BlockAddr::new(0))],
            vec![
                Access::read(n(2), BlockAddr::new(0)),
                Access::read(n(3), BlockAddr::new(0)),
            ],
        ]);
        m.run_plan(&plan, 0).unwrap();
        let r = m.recovery_tally();
        assert!(r.naks_sent >= 1, "the busy home NAKed the loser");
        assert_eq!(r.naks_sent, r.naks_received, "NAK channel is reliable");
        m.verify_coherence().unwrap();
        assert_eq!(m.cache_state(n(2), BlockAddr::new(0)), CacheState::Shared);
        assert_eq!(m.cache_state(n(3), BlockAddr::new(0)), CacheState::Shared);
    }

    #[test]
    fn perturbed_multiphase_run_passes_barrier_audits() {
        use crate::fault::FaultPlan;
        let plan_spec = FaultPlan::parse("drop=0.03,dup=0.03,reorder=3,spike=0.05")
            .unwrap()
            .with_seed(11);
        let mut m = machine();
        m.set_fault_plan(plan_spec);
        // A contended multi-phase workload: every barrier audits the
        // full-map/SWMR invariants over the perturbed traffic.
        for it in 0..4u32 {
            let mut phases = Vec::new();
            for ph in 0..3usize {
                let mut accesses = Vec::new();
                for p in 1..6usize {
                    let block = BlockAddr::new(((p + ph) % 4) as u64);
                    if (p + ph + it as usize).is_multiple_of(3) {
                        accesses.push(Access::write(n(p), block));
                    } else {
                        accesses.push(Access::read(n(p), block));
                    }
                }
                phases.push(accesses);
            }
            m.run_plan(&plan_of(phases), it).unwrap();
        }
        m.verify_coherence().unwrap();
        let t = m.fault_tally().unwrap();
        assert!(t.drops > 0, "the plan injected drops");
        assert!(!m.recovery_tally().is_quiet());
        let snap = m.obs_snapshot();
        assert!(snap.names().iter().any(|k| k.starts_with("simx.fault.")));
        assert!(snap
            .names()
            .iter()
            .any(|k| k.starts_with("stache.recovery.")));
    }

    #[test]
    fn same_seed_same_faults_same_metrics() {
        use crate::fault::FaultPlan;
        let run = || {
            let mut m = machine();
            m.set_fault_plan(
                FaultPlan::parse("drop=0.05,dup=0.05,reorder=2")
                    .unwrap()
                    .with_seed(42),
            );
            for it in 0..3u32 {
                let plan = plan_of(vec![vec![
                    Access::write(n(1), BlockAddr::new(0)),
                    Access::read(n(2), BlockAddr::new(0)),
                    Access::rmw(n(3), BlockAddr::new(64)),
                ]]);
                m.run_plan(&plan, it).unwrap();
            }
            m.obs_snapshot().to_json()
        };
        assert_eq!(run(), run(), "same seed, byte-identical metrics");
    }

    #[test]
    fn quiet_plan_keeps_uncontended_runs_identical() {
        use crate::fault::FaultPlan;
        let plan = plan_of(vec![vec![
            Access::read(n(2), BlockAddr::new(0)),
            Access::read(n(3), BlockAddr::new(64)),
        ]]);
        let mut clean = machine();
        clean.run_plan(&plan, 0).unwrap();
        let mut faulted = machine();
        faulted.set_fault_plan(FaultPlan::default());
        faulted.run_plan(&plan, 0).unwrap();
        assert_eq!(clean.trace().records(), faulted.trace().records());
        assert!(faulted.recovery_tally().is_quiet());
    }

    #[test]
    fn workload_helper_runs_micros() {
        let mut m = machine();
        m.set_app("pc", 6);
        for it in 0..6 {
            let plan = plan_of(vec![
                vec![Access::write(n(1), BlockAddr::new(0))],
                vec![Access::read(n(2), BlockAddr::new(0))],
            ]);
            m.run_plan(&plan, it).unwrap();
        }
        m.verify_coherence().unwrap();
        assert_eq!(m.trace().meta().app, "pc");
        assert!(m.trace().len() >= 6 * 4);
        assert!(m.execution_time_ns() > 0);
    }
}
