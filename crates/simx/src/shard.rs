//! Sharded parallel execution of the concurrent engine (DESIGN.md §6h).
//!
//! [`ConcurrentMachine`] processes one global
//! event queue on one thread; at 1k+ nodes that single queue is the
//! scaling wall. This engine partitions the machine by node — each
//! *shard* owns a contiguous node range: those nodes' caches, clocks,
//! scripts, handler-occupancy horizons, and the directory entries of
//! every block homed on them — and executes shards in parallel under
//! conservative time-window synchronisation.
//!
//! ## Why windows are safe
//!
//! Every cross-node interaction travels as a message with latency at
//! least `L = min one-way latency` (≥ 160 ns on the paper's crossbar).
//! If `floor` is the earliest pending event anywhere, no event executed
//! in the window `[floor, floor + L)` can cause *another* node to act
//! before `floor + L`: its sends all arrive at or after the window's
//! end. Events an executing node schedules on *itself* (a grant
//! completing a miss schedules the next issue +100 ns; a local memory
//! access +120 ns) can land inside the window — the shard executes them
//! in-window, in rank order, exactly as the sequential engine would.
//!
//! ## Why shard counts cannot change results
//!
//! Shards do pure protocol work and *log* their side effects; a
//! sequential coordinator then merges the logs in the global `(time,
//! tie)` rank order — the exact order the sequential engine would have
//! popped those events — and replays them: assigning queue sequence
//! numbers, appending trace records, feeding the flight recorder, and
//! reconstructing the queue-depth histogram. Events pushed at window
//! boundaries carry their replay-assigned `(time, seq)` rank; events
//! spawned *inside* a window carry a composite tie-break derived from
//! their parent's rank, constructed so that compact ranks sort before
//! composite ones at equal times — which is precisely the order the
//! sequential engine's global push counter would impose. The result:
//! traces, statistics, tallies, and obs snapshots are byte-identical
//! for every shard count, including the `shards = 1` sequential
//! fallback (see `crates/workloads/tests/shard_identity.rs`).
//!
//! ## What this engine deliberately omits
//!
//! A shard holds no protocol code. Each one wraps a
//! [`ConcurrentMachine`] — the *core* — and only schedules it: pop an
//! event, call the core's `dispatch`, and collect that event's side
//! effects from the three buffers the core fills (its outbox of
//! scheduled events, its trace, its flight recorder). So the handlers
//! that run here are the concurrent engine's own, fault, speculation and
//! span arms included. Those three are absent from this engine because
//! the window scheduler never *installs* a fault plan, a policy or a
//! span log on a core. A fault plan and a policy make the receiver's
//! handler peek at another node's live state (the sender's cache at the
//! home, the requester's wait slot), and a span log is one machine-wide
//! structure; a shard owns neither. Giving the sharded engine faults or
//! speculation means carrying that state in the message instead; there
//! is no `set_policy` or `set_fault_plan` here until then. A core with none installed
//! schedules only `Issue` and `Deliver` events and touches only the
//! receiving node's state — the whole of what windows rely on.
//!
//! [`Machine`](crate::Machine), which serialises whole transactions, is
//! the third scheduler over the same core: it shares the store and its
//! writers but walks each transaction in closed form instead of
//! dispatching the handlers (DESIGN.md §6h says why).

use crate::arena::{Arena, ArenaId};
use crate::concurrent::{
    audit_block, check_drained, effective_cache_states, ConcurrentMachine, Event,
};
use crate::config::SystemConfig;
use crate::driver::{IterationPlan, Phase};
use crate::machine::SimError;
use crate::stats::MachineStats;
use obs::{Event as ObsEvent, EventRing, Severity};
use stache::placement::home_of_block;
use stache::{BlockAddr, CacheState, DirState, NodeId, ProtocolConfig, ProtocolTally};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use trace::{MsgRecord, TraceBundle, TraceMeta};

/// The node whose shard must execute `ev`.
fn owner(ev: &Event) -> NodeId {
    match ev {
        Event::Issue(n) => *n,
        Event::Deliver(m, _) => m.receiver,
        other => unreachable!("a clean-fabric core scheduled {other:?}"),
    }
}

/// Tie-break key ordering events at equal times: `(head, rest)`
/// compared lexicographically as the flattened sequence `[head] ++
/// rest`.
///
/// * Events pushed at a window boundary carry their replay-assigned
///   global sequence number: `(seq, [])`.
/// * Events spawned inside a window carry `(u64::MAX, [parent_time,
///   parent_head, parent_rest ..., child_index])` — `u64::MAX` sorts
///   them after every boundary event at the same time (the sequential
///   push counter would have assigned them later seqs), the embedded
///   parent rank orders children of different parents by their parents'
///   processing order, and the child index orders siblings.
type Tie = (u64, Vec<u64>);

fn child_tie(parent_time: u64, parent: &Tie, index: u64) -> Tie {
    let mut rest = Vec::with_capacity(parent.1.len() + 3);
    rest.push(parent_time);
    rest.push(parent.0);
    rest.extend_from_slice(&parent.1);
    rest.push(index);
    (u64::MAX, rest)
}

/// One push a handler made while executing an event, in order.
#[derive(Debug, Clone, Copy)]
struct PushRec {
    time: u64,
    ev: Event,
    /// Executed within the same window (an intra-node follow-up), so the
    /// replay assigns it a sequence number but does not enqueue it.
    consumed: bool,
}

/// One executed event, with offsets into the flat side-effect logs
/// (`push_end` etc. are exclusive ends; starts are the previous entry's
/// ends, consumed sequentially by the replay).
#[derive(Debug)]
struct LogEntry {
    time: u64,
    tie: Tie,
    push_end: u32,
    rec_end: u32,
    ring_end: u32,
}

/// A shard's per-window side-effect log, buffers reused across windows.
#[derive(Debug, Default)]
struct WindowLog {
    entries: Vec<LogEntry>,
    pushes: Vec<PushRec>,
    recs: Vec<MsgRecord>,
    rings: Vec<ObsEvent>,
}

impl WindowLog {
    fn clear(&mut self) {
        self.entries.clear();
        self.pushes.clear();
        self.recs.clear();
        self.rings.clear();
    }
}

/// One node-range partition of the machine: a protocol core plus the
/// window scheduler that drives it.
#[derive(Debug)]
struct Shard {
    /// Executes every event. Full-width (sized for all `proto.nodes`),
    /// but only the state of the owned `nodes`, and of blocks homed on
    /// them, is ever touched. Its own event queue stays empty; its trace
    /// and flight recorder are per-event scratch.
    core: ConcurrentMachine,
    /// The owned node indices.
    nodes: Range<usize>,
    /// Cross-window pending events, compact `(time, seq)` ranks only.
    queue: BinaryHeap<Reverse<(u64, u64, ArenaId)>>,
    /// The current window's working set, ranked by `(time, tie)`.
    wheap: BinaryHeap<Reverse<(u64, Tie, ArenaId)>>,
    /// Backing storage for queued and in-window events: slots recycle
    /// through the free list, so steady-state execution allocates
    /// nothing per message.
    events: Arena<Event>,
    log: WindowLog,
    capture_trace: bool,
}

impl Shard {
    fn new(proto: ProtocolConfig, sys: SystemConfig, nodes: Range<usize>) -> Self {
        let mut core = ConcurrentMachine::new(proto, sys);
        // Keep everything the handlers offer: severity filtering is the
        // coordinator ring's job, exactly once, at replay.
        core.set_ring_min_severity(Severity::Debug);
        Shard {
            core,
            nodes,
            queue: BinaryHeap::new(),
            wheap: BinaryHeap::new(),
            events: Arena::new(),
            log: WindowLog::default(),
            capture_trace: true,
        }
    }

    fn owns(&self, ev: &Event) -> bool {
        self.nodes.contains(&owner(ev).index())
    }

    /// Earliest pending cross-window event time.
    fn peek_time(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Enqueues an event with its replay-assigned compact rank.
    fn enqueue(&mut self, time: u64, seq: u64, ev: Event) {
        debug_assert!(self.owns(&ev), "events are routed to the owning shard");
        let id = self.events.alloc(ev);
        self.queue.push(Reverse((time, seq, id)));
    }

    /// Executes every owned event with `time < horizon` on the core,
    /// moving each event's side effects into the window log.
    fn run_window(&mut self, horizon: u64) -> Result<(), SimError> {
        while let Some(&Reverse((t, _, _))) = self.queue.peek() {
            if t >= horizon {
                break;
            }
            let Reverse((t, seq, id)) = self.queue.pop().expect("peeked");
            self.wheap.push(Reverse((t, (seq, Vec::new()), id)));
        }
        while let Some(Reverse((t, tie, id))) = self.wheap.pop() {
            let ev = self.events.free(id).expect("live window event");
            self.core.dispatch(t, ev)?;
            // Pushes landing inside the window are intra-node follow-ups:
            // they join the window heap with a composite tie derived from
            // this event's rank.
            let mut children = 0;
            for (at, ev) in self.core.outbox.drain(..) {
                let consumed = at < horizon;
                self.log.pushes.push(PushRec {
                    time: at,
                    ev,
                    consumed,
                });
                if consumed {
                    debug_assert!(
                        self.nodes.contains(&owner(&ev).index()),
                        "intra-window pushes stay on the owning shard"
                    );
                    let id = self.events.alloc(ev);
                    self.wheap
                        .push(Reverse((at, child_tie(t, &tie, children), id)));
                    children += 1;
                }
            }
            if self.capture_trace {
                self.log.recs.extend_from_slice(self.core.trace.records());
            }
            self.core.trace.clear_records();
            let ring = self.core.ring.get_mut();
            debug_assert!(
                ring.len() < ring.capacity(),
                "one event's offers fit the scratch ring"
            );
            ring.events_into(&mut self.log.rings);
            ring.clear();
            self.log.entries.push(LogEntry {
                time: t,
                tie,
                push_end: self.log.pushes.len() as u32,
                rec_end: self.log.recs.len() as u32,
                ring_end: self.log.rings.len() as u32,
            });
        }
        Ok(())
    }
}

/// The sharded machine: a coordinator plus `shards` node-range
/// partitions executed in parallel per window. See the module docs for
/// the synchronisation and determinism arguments.
#[derive(Debug)]
pub struct ShardedMachine {
    proto: ProtocolConfig,
    sys: SystemConfig,
    shards: Vec<Shard>,
    /// Nodes per shard (the last shard may own fewer).
    chunk: usize,
    /// The conservative lookahead `L`: minimum one-way latency between
    /// distinct nodes.
    lookahead: u64,
    /// Global event-queue sequence counter, assigned during replay in
    /// exactly the sequential engine's push order.
    seq: u64,
    /// Virtual queue length during replay, for the depth histogram.
    vlen: u64,
    depth: obs::Histogram,
    trace: TraceBundle,
    ring: EventRing,
    coord_stats: MachineStats,
    coord_tally: ProtocolTally,
    capture_trace: bool,
    audit_barriers: bool,
    windows: u64,
}

impl ShardedMachine {
    /// Creates a machine partitioned into (at most) `shards` node groups.
    /// `shards = 1` is the sequential fallback: same code path, no
    /// threads, byte-identical output by construction.
    pub fn new(proto: ProtocolConfig, sys: SystemConfig, shards: usize) -> Self {
        let nodes = proto.nodes;
        let shards = shards.clamp(1, nodes);
        let chunk = nodes.div_ceil(shards);
        let mut parts = Vec::new();
        let mut lo = 0;
        while lo < nodes {
            let hi = nodes.min(lo + chunk);
            parts.push(Shard::new(proto.clone(), sys.clone(), lo..hi));
            lo = hi;
        }
        let mut lookahead = u64::MAX;
        for a in 0..nodes {
            for b in 0..nodes {
                if a != b {
                    lookahead = lookahead.min(sys.one_way_between_ns(
                        NodeId::new(a),
                        NodeId::new(b),
                        nodes,
                    ));
                }
            }
        }
        if lookahead == u64::MAX || lookahead == 0 {
            lookahead = 1;
        }
        ShardedMachine {
            trace: TraceBundle::new(TraceMeta::new("unnamed", nodes, 0)),
            proto,
            sys,
            shards: parts,
            chunk,
            lookahead,
            seq: 0,
            vlen: 0,
            depth: obs::Histogram::new(),
            ring: EventRing::default(),
            coord_stats: MachineStats::default(),
            coord_tally: ProtocolTally::new(),
            capture_trace: true,
            audit_barriers: true,
            windows: 0,
        }
    }

    /// Names the trace.
    pub fn set_app(&mut self, app: &str, iterations: u32) {
        let nodes = self.proto.nodes;
        let mut bundle = TraceBundle::new(TraceMeta::new(app, nodes, iterations));
        bundle.extend_records(self.trace.records().iter().copied());
        self.trace = bundle;
    }

    /// Turns trace capture off (or back on). Off, delivered messages are
    /// still *counted* — `simx.trace.records` stays truthful — but no
    /// [`MsgRecord`] is materialised: the streaming mode for
    /// 1k-node/million-block scale runs whose traces would not fit in
    /// memory.
    pub fn set_capture_trace(&mut self, capture: bool) {
        self.capture_trace = capture;
        for s in &mut self.shards {
            s.capture_trace = capture;
        }
    }

    /// Turns the per-barrier coherence audit off (or back on). The audit
    /// covers the blocks written since the previous barrier — O(blocks
    /// written in the phase × nodes), no longer the O(every touched
    /// block) per barrier this knob was added to escape. It stays only
    /// because the scale drivers (`benchmark/`, `repro scale`) call it
    /// and audits-on at 1.67 M blocks has not been measured; they finish
    /// with one
    /// [`verify_coherence_sampled`](Self::verify_coherence_sampled)
    /// sweep instead. Note the audit
    /// feeds `stache.invariant.checks` (checks performed), so snapshots
    /// are only comparable between runs using the same setting.
    pub fn set_audit_barriers(&mut self, audit: bool) {
        self.audit_barriers = audit;
    }

    /// Enables or disables the flight recorder (enabled by default).
    pub fn set_ring_enabled(&mut self, enabled: bool) {
        self.ring.set_enabled(enabled);
        for s in &mut self.shards {
            s.core.set_ring_enabled(enabled);
        }
    }

    /// Number of shards actually created.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The conservative lookahead `L` in ns (window width).
    pub fn lookahead_ns(&self) -> u64 {
        self.lookahead
    }

    /// Synchronisation windows executed so far. Identical for every
    /// shard count — the window sequence is a global property of the
    /// event timeline, not of the partitioning.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// The captured trace.
    pub fn trace(&self) -> &TraceBundle {
        &self.trace
    }

    /// Consumes the machine, returning its trace.
    pub fn into_trace(self) -> TraceBundle {
        self.trace
    }

    /// Takes the records captured since the last drain, leaving the
    /// machine's bundle empty. The streaming middle ground between full
    /// capture and `set_capture_trace(false)`: drained after every
    /// iteration and handed to a packed-trace writer, peak memory is one
    /// iteration's records instead of the whole run's.
    pub fn drain_trace_records(&mut self) -> Vec<trace::MsgRecord> {
        self.trace.take_records()
    }

    /// Machine statistics, merged across shards.
    pub fn stats(&self) -> MachineStats {
        let mut s = self.coord_stats.clone();
        for sh in &self.shards {
            s.merge(sh.core.stats());
        }
        s
    }

    /// Protocol tallies, merged across shards.
    pub fn tally(&self) -> ProtocolTally {
        let mut t = self.coord_tally.clone();
        for sh in &self.shards {
            t.merge(sh.core.tally());
        }
        t
    }

    /// The flight recorder's retained events, oldest first.
    pub fn flight_events(&self) -> Vec<ObsEvent> {
        self.ring.events()
    }

    /// Visits the flight recorder's retained events, oldest first,
    /// without copying them out.
    pub fn for_each_flight_event(&self, f: impl FnMut(&ObsEvent)) {
        self.ring.for_each(f);
    }

    /// Execution time so far (latest node clock).
    pub fn execution_time_ns(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.core.execution_time_ns())
            .max()
            .unwrap_or(0)
    }

    /// One node's recorded cache state for a block.
    pub fn cache_state(&self, node: NodeId, block: BlockAddr) -> CacheState {
        self.shards[self.shard_of(node)]
            .core
            .cache_state(node, block)
    }

    /// Every node's effective cache state for `block` (home rights are
    /// derived from the directory entry, as in the audits).
    pub fn cache_states_for(&self, block: BlockAddr) -> Vec<CacheState> {
        effective_cache_states(&self.proto, block, &self.dir_state(block), |n| {
            self.cache_state(n, block)
        })
        .collect()
    }

    /// The directory entry for `block` (`Idle` if never touched).
    pub fn dir_state(&self, block: BlockAddr) -> DirState {
        let home = home_of_block(block, &self.proto);
        self.shards[self.shard_of(home)]
            .core
            .dirs
            .get(&block)
            .cloned()
            .unwrap_or_default()
    }

    /// Point-in-time export of every machine metric. Byte-identical for
    /// every shard count (only deterministic, partition-independent
    /// metrics are included).
    pub fn obs_snapshot(&self) -> obs::Snapshot {
        let mut snap = obs::Snapshot::new();
        let stats = self.stats();
        stats.export_obs(&mut snap);
        self.tally().export_obs(&mut snap);
        let records = if self.capture_trace {
            self.trace.len() as u64
        } else {
            stats.messages_total()
        };
        snap.counter("simx.trace.records", records);
        // Events *offered*, recorder on or off, as the concurrent engine
        // counts them: each core counts its handlers' offers, and the
        // coordinator's own are the audit failures.
        let offered: u64 = self
            .shards
            .iter()
            .map(|s| s.core.ring.borrow().total_pushed())
            .sum();
        snap.counter(
            "simx.ring.events_total",
            offered + self.coord_tally.invariant_failures(),
        );
        snap.histogram("simx.queue.depth", &self.depth);
        snap.counter("simx.shard.windows", self.windows);
        snap.gauge("simx.shard.lookahead_ns", self.lookahead as f64);
        snap
    }

    #[inline]
    fn shard_of(&self, node: NodeId) -> usize {
        node.index() / self.chunk
    }

    /// Executes one iteration plan: each phase runs to quiescence, then a
    /// barrier synchronises the clocks and audits coherence.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors and invariant violations.
    pub fn run_plan(&mut self, plan: &IterationPlan, iteration: u32) -> Result<(), SimError> {
        for s in &mut self.shards {
            s.core.iteration = iteration;
        }
        for phase in &plan.phases {
            self.run_phase(phase)?;
            self.barrier()?;
        }
        Ok(())
    }

    fn run_phase(&mut self, phase: &Phase) -> Result<(), SimError> {
        self.begin_phase(phase);
        while let Some(floor) = self.min_pending() {
            let horizon = floor.saturating_add(self.lookahead);
            self.windows += 1;
            self.run_windows(horizon)?;
            self.replay_windows();
        }
        Ok(())
    }

    fn min_pending(&self) -> Option<u64> {
        self.shards.iter().filter_map(Shard::peek_time).min()
    }

    /// Loads a phase's scripts and seeds each node's first issue event —
    /// sequentially, so the seeds carry the same compact ranks the
    /// sequential engine assigns.
    fn begin_phase(&mut self, phase: &Phase) {
        for node in 0..phase.per_node.len() {
            let si = self.shard_of(NodeId::new(node));
            let shard = &mut self.shards[si];
            shard.core.load_node(phase, node);
            if let Some((start, ev)) = shard.core.outbox.pop() {
                let seq = self.seq;
                self.seq += 1;
                self.vlen += 1;
                self.depth.record(self.vlen);
                shard.enqueue(start, seq, ev);
            }
        }
    }

    /// Runs one window on every shard — in parallel when there is more
    /// than one shard, inline otherwise (the sequential fallback).
    fn run_windows(&mut self, horizon: u64) -> Result<(), SimError> {
        if self.shards.len() == 1 {
            return self.shards[0].run_window(horizon);
        }
        let results: Vec<Result<(), SimError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|sh| scope.spawn(move || sh.run_window(horizon)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });
        results.into_iter().collect()
    }

    /// Merges the shards' window logs in global rank order and replays
    /// their side effects: sequence-number assignment (which fixes the
    /// rank of every event entering the next window), trace records,
    /// flight-recorder events, and the queue-depth histogram.
    fn replay_windows(&mut self) {
        let logs: Vec<WindowLog> = self
            .shards
            .iter_mut()
            .map(|s| std::mem::take(&mut s.log))
            .collect();
        let k = logs.len();
        let mut ei = vec![0usize; k]; // next entry per shard
        let mut pi = vec![0usize; k]; // consumed pushes per shard
        let mut ri = vec![0usize; k]; // consumed trace records per shard
        let mut gi = vec![0usize; k]; // consumed ring events per shard
        loop {
            let mut best: Option<usize> = None;
            for s in 0..k {
                if ei[s] >= logs[s].entries.len() {
                    continue;
                }
                let e = &logs[s].entries[ei[s]];
                let better = match best {
                    None => true,
                    Some(b) => {
                        let be = &logs[b].entries[ei[b]];
                        (e.time, &e.tie) < (be.time, &be.tie)
                    }
                };
                if better {
                    best = Some(s);
                }
            }
            let Some(s) = best else { break };
            let e = &logs[s].entries[ei[s]];
            self.vlen -= 1; // the executed event itself popped
            for g in gi[s]..e.ring_end as usize {
                self.ring.push(logs[s].rings[g]);
            }
            gi[s] = e.ring_end as usize;
            if self.capture_trace {
                for r in ri[s]..e.rec_end as usize {
                    self.trace.push(logs[s].recs[r]);
                }
            }
            ri[s] = e.rec_end as usize;
            let push_end = e.push_end as usize;
            for p in pi[s]..push_end {
                let push = logs[s].pushes[p];
                let seq = self.seq;
                self.seq += 1;
                self.vlen += 1;
                self.depth.record(self.vlen);
                if !push.consumed {
                    let si = self.shard_of(owner(&push.ev));
                    self.shards[si].enqueue(push.time, seq, push.ev);
                }
            }
            pi[s] = push_end;
            ei[s] += 1;
        }
        for (s, mut log) in logs.into_iter().enumerate() {
            log.clear();
            self.shards[s].log = log;
        }
    }

    /// Barrier: audits the invariants over the blocks any core wrote
    /// since the previous barrier (the sequential engine's set and
    /// order) and synchronises clocks.
    fn barrier(&mut self) -> Result<(), SimError> {
        let cores = || self.shards.iter().map(|s| &s.core);
        check_drained(
            &self.proto,
            cores().find_map(|c| c.waiting_nodes().first().copied()),
            cores()
                .filter_map(|c| c.open_transaction_blocks().first().copied())
                .min(),
        )?;
        // Emptied even when not audited: a scale run must not hoard them.
        let mut written = Vec::new();
        for s in &mut self.shards {
            if self.audit_barriers {
                written.append(&mut s.core.dirty);
            } else {
                s.core.dirty.clear();
            }
        }
        written.sort_unstable();
        written.dedup();
        self.audit_blocks(written)?;
        let max = self.execution_time_ns();
        for s in &mut self.shards {
            s.core.clocks.fill(max + self.sys.barrier_ns);
        }
        self.coord_stats.barriers += 1;
        Ok(())
    }

    /// Audits the full-map/SWMR invariants for every touched block
    /// (callable at quiescence — between phases).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify_coherence(&mut self) -> Result<(), SimError> {
        let mut blocks: Vec<BlockAddr> = self
            .shards
            .iter()
            .flat_map(|s| s.core.touched_blocks())
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        self.audit_blocks(blocks)
    }

    /// Audits the coherence invariants for at most `max_blocks` touched
    /// blocks, stride-sampled deterministically across the sorted touched
    /// set. The affordable end-of-run check for millions-of-blocks scale
    /// runs, where the exhaustive
    /// [`verify_coherence`](Self::verify_coherence) would cost
    /// O(blocks × nodes).
    ///
    /// # Errors
    ///
    /// Returns the first violation found among the sampled blocks.
    pub fn verify_coherence_sampled(&mut self, max_blocks: usize) -> Result<(), SimError> {
        if max_blocks == 0 {
            return Ok(());
        }
        let mut blocks: Vec<BlockAddr> = Vec::new();
        for s in &self.shards {
            blocks.extend(s.core.dirs.keys().copied());
        }
        blocks.sort_by_key(|b| b.number());
        blocks.dedup();
        let stride = blocks.len().div_ceil(max_blocks).max(1);
        self.audit_blocks(blocks.into_iter().step_by(stride))
    }

    fn audit_blocks(
        &mut self,
        blocks: impl IntoIterator<Item = BlockAddr>,
    ) -> Result<(), SimError> {
        let now = self.execution_time_ns();
        let core_of = |n: NodeId| &self.shards[n.index() / self.chunk].core;
        let mut states = Vec::with_capacity(self.proto.nodes);
        for block in blocks {
            let home = home_of_block(block, &self.proto);
            let dir = core_of(home).dirs.get(&block).unwrap_or(&DirState::Idle);
            states.clear();
            states.extend(effective_cache_states(&self.proto, block, dir, |n| {
                core_of(n).cache_state(n, block)
            }));
            audit_block(block, dir, &states, &self.coord_tally, &mut self.ring, now)?;
        }
        Ok(())
    }
}

/// Runs a workload-style plan stream through a fresh sharded machine.
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn run_workload_sharded<F>(
    name: &str,
    iterations: u32,
    mut plan_for: F,
    proto: ProtocolConfig,
    sys: SystemConfig,
    shards: usize,
) -> Result<ShardedMachine, SimError>
where
    F: FnMut(u32) -> IterationPlan,
{
    let mut m = ShardedMachine::new(proto, sys, shards);
    m.set_app(name, iterations);
    for it in 0..iterations {
        let plan = plan_for(it);
        m.run_plan(&plan, it)?;
    }
    m.verify_coherence()?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Access;
    use stache::MsgType;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
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
        let mut m = ShardedMachine::new(ProtocolConfig::paper(), SystemConfig::paper(), 4);
        let plan = plan_of(vec![vec![Access::read(n(1), BlockAddr::new(0))]]);
        m.run_plan(&plan, 0).unwrap();
        let types: Vec<MsgType> = m.trace().records().iter().map(|r| r.mtype).collect();
        assert_eq!(types, vec![MsgType::GetRoRequest, MsgType::GetRoResponse]);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn lookahead_matches_min_crossbar_latency() {
        let m = ShardedMachine::new(ProtocolConfig::paper(), SystemConfig::paper(), 2);
        // Crossbar: 2 * ni + 1 hop * wire = 2*60 + 40.
        assert_eq!(m.lookahead_ns(), 160);
    }

    #[test]
    fn shard_count_clamps_to_nodes() {
        let m = ShardedMachine::new(ProtocolConfig::paper(), SystemConfig::paper(), 64);
        assert_eq!(m.shard_count(), 16);
    }

    #[test]
    fn capture_off_still_counts_records() {
        let mut m = ShardedMachine::new(ProtocolConfig::paper(), SystemConfig::paper(), 2);
        m.set_capture_trace(false);
        let plan = plan_of(vec![vec![Access::read(n(1), BlockAddr::new(0))]]);
        m.run_plan(&plan, 0).unwrap();
        assert_eq!(m.trace().len(), 0, "no records materialised");
        let snap = m.obs_snapshot();
        assert_eq!(
            snap.get("simx.trace.records"),
            Some(&obs::MetricValue::Counter(2)),
            "the two coherence messages are still counted"
        );
    }

    /// With barrier audits off nothing reads the cores' written-block
    /// lists, so the barrier must still empty them: a scale run's memory
    /// may not grow with the number of writes it has made.
    #[test]
    fn unaudited_barriers_still_empty_the_written_block_lists() {
        let block = |i: usize| BlockAddr::new(64 * ((i + 5) % 16) as u64);
        let plan = plan_of(vec![
            (1..=12).map(|i| Access::write(n(i), block(i))).collect(),
            (1..=12).map(|i| Access::rmw(n(i), block(i + 1))).collect(),
        ]);
        for shards in [1, 3] {
            let mut m = ShardedMachine::new(ProtocolConfig::paper(), SystemConfig::paper(), shards);
            m.set_audit_barriers(false);
            m.begin_phase(&plan.phases[0]);
            while let Some(floor) = m.min_pending() {
                m.run_windows(floor + m.lookahead).unwrap();
                m.replay_windows();
            }
            assert!(
                m.shards.iter().any(|s| !s.core.dirty.is_empty()),
                "shards {shards}: the phase wrote blocks"
            );
            m.barrier().unwrap();
            m.run_plan(&plan, 1).unwrap();
            for s in &m.shards {
                assert!(s.core.dirty.is_empty(), "shards {shards}: {:?}", s.nodes);
            }
            assert_eq!(m.tally().invariant_checks(), 0, "nothing was audited");
            // Audits on: the lists are consumed, not merely dropped.
            m.set_audit_barriers(true);
            m.run_plan(&plan, 2).unwrap();
            assert!(m.shards.iter().all(|s| s.core.dirty.is_empty()));
            assert!(m.tally().invariant_checks() > 0);
        }
    }

    /// The seam windows rest on: whatever a core schedules is handed
    /// over in full (its own queue and outbox stay empty) and every
    /// event a shard holds — before and after the coordinator routes the
    /// window's cross-shard pushes — belongs to a node the shard owns.
    #[test]
    fn shards_hold_only_events_for_their_own_nodes() {
        fn check(m: &ShardedMachine, when: &str) {
            for s in &m.shards {
                assert_eq!(s.core.pending_events(), 0, "{when}: core queue in use");
                assert!(s.core.outbox.is_empty(), "{when}: outbox not taken");
                assert!(s.wheap.is_empty(), "{when}: window heap not drained");
                for (_, ev) in s.events.iter() {
                    assert!(s.owns(ev), "{when}: shard {:?} holds {ev:?}", s.nodes);
                }
            }
        }
        // Nodes 1..=12 write, then read-modify-write their neighbour's block, on
        // homes spread over every shard: invalidations, recalls and local
        // accesses all cross shard boundaries.
        let block = |i: usize| BlockAddr::new(64 * ((i + 5) % 16) as u64);
        let phases = vec![
            (1..=12).map(|i| Access::write(n(i), block(i))).collect(),
            (1..=12).map(|i| Access::rmw(n(i), block(i + 1))).collect(),
        ];
        let plan = plan_of(phases);
        for shards in [2, 5] {
            let mut m = ShardedMachine::new(ProtocolConfig::paper(), SystemConfig::paper(), shards);
            let mut windows = 0;
            for phase in &plan.phases {
                m.begin_phase(phase);
                check(&m, "after begin_phase");
                while let Some(floor) = m.min_pending() {
                    m.run_windows(floor + m.lookahead).unwrap();
                    check(&m, "after run_window");
                    m.replay_windows();
                    check(&m, "after replay");
                    windows += 1;
                }
                m.barrier().unwrap();
            }
            assert!(windows > 10, "the plan spans many windows ({windows})");
            assert_eq!(m.trace().len() as u64, m.stats().messages_total());
        }
    }
}
