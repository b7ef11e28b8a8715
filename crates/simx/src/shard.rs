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
//! sequential coordinator then merges the logs in the global rank order
//! — the exact order the sequential engine would have popped those events
//! — and replays them: assigning queue sequence numbers, appending trace
//! records and reconstructing the queue-depth histogram. The result:
//! traces, statistics, tallies, and obs snapshots are byte-identical for
//! every shard count, including the `shards = 1` sequential fallback (see
//! `crates/workloads/tests/shard_identity.rs`).
//!
//! ## Ranks are one word
//!
//! A shard executes its events in `(time, rank)` order, `rank` a `u64`: the
//! replay-assigned global sequence number for an event pushed at a window
//! boundary, `1 << 63 | c` for an event spawned *inside* a window, `c`
//! counting the shard's spawns this window. On one shard that is the
//! sequential engine's order: its push counter numbers a spawned event
//! after everything that existed when the window opened (bit 63), and
//! numbers spawned events by when their parents were processed, then by
//! push order — which, a shard processing its own events in rank order,
//! is creation order. Across shards the counters mean nothing, so a log
//! entry also records `(parent's log index, index among siblings)` and
//! the merge compares two spawned events as it compares their parents,
//! then by sibling index (`cmp_entries`; DESIGN.md §6h shows this is
//! the lexicographic order of the ancestry paths ranks used to carry).
//!
//! ## The window is a batch
//!
//! Everything a window executes, bar what it spawns, is queued when it
//! opens, and those events are independent: another node's, or ordered
//! behind their own node's. So a shard runs a window in three steps.
//! *Open*: move the queued events with `time < horizon` out of the
//! arrival-order queue and sort them, once. *Resolve*: ask the core which
//! table slot each event's handler looks up first and make all those
//! lookups back to back, where their cache misses overlap — taken a
//! handler at a time, on a table that outgrew the cache, they were half
//! the run. *Execute*: the handlers, in order, follow-ups spawned inside
//! the window merging in from a small heap. Resolve changes nothing a
//! handler, the replay or an audit can observe (DESIGN.md §6h has the
//! argument and the measurements); there is no switch for it.
//!
//! ## What this engine deliberately omits
//!
//! A shard holds no protocol code. Each one wraps a
//! [`ConcurrentMachine`] — the *core* — and only schedules it: pop an
//! event, call the core's `dispatch`, and collect that event's side
//! effects from the two buffers the core fills (its outbox of scheduled
//! events and its trace). So the handlers that run here are the
//! concurrent engine's own, fault, speculation and span arms included.
//! Those three are absent from this engine because the window scheduler
//! never *installs* a fault plan, a policy or a span log on a core. A fault plan and a policy make the receiver's
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
    audit_block, check_drained, dense_states, ConcurrentMachine, Event, Touch,
};
use crate::config::{SystemConfig, BARRIER_NS, NI_ACCESS_NS};
use crate::driver::{IterationPlan, Phase};
use crate::machine::SimError;
use crate::stats::MachineStats;
use crate::store::Holder;
use stache::placement::home_of_block;
use stache::{BlockAddr, CacheState, DirState, NodeId, ProtocolConfig, ProtocolTally};
use std::cmp::{Ordering, Reverse};
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

/// Set in the rank of an event spawned *inside* a window; the low bits
/// are then the shard's creation counter for the window. Clear, the rank
/// is the global sequence number the replay assigned at a window
/// boundary. See the module docs for why `(time, rank)` is the sequential
/// engine's order on one shard.
const IN_WINDOW: u64 = 1 << 63;

/// A queued event: `(time, rank, handle into the shard's event arena)`.
type Queued = (u64, u64, ArenaId);

/// [`LogEntry::parent`] of a boundary event.
const NO_PARENT: u32 = u32::MAX;

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
    rank: u64,
    /// For an in-window event, the log index of the event that spawned it
    /// (same shard, same window) and its place among that event's
    /// in-window children: the ancestry only [`cmp_entries`] walks.
    parent: u32,
    sibling: u32,
    push_end: u32,
    rec_end: u32,
}

/// A shard's per-window side-effect log, buffers reused across windows.
#[derive(Debug, Default)]
struct WindowLog {
    entries: Vec<LogEntry>,
    pushes: Vec<PushRec>,
    recs: Vec<MsgRecord>,
    /// `(parent, sibling)` of each in-window event, by creation counter,
    /// kept from its creation until it executes and logs them.
    spawned: Vec<(u32, u32)>,
}

impl WindowLog {
    fn clear(&mut self) {
        self.entries.clear();
        self.pushes.clear();
        self.recs.clear();
        self.spawned.clear();
    }
}

/// The global execution order of two events of one window, on any two
/// shards: what the sequential engine's `(time, seq)` would have been.
/// Boundary events compare by sequence number and precede in-window
/// events of their time; in-window events compare as their parents do,
/// then by birth order — a walk up to the boundary events the two chains
/// hang from, as deep as a window has self-scheduled follow-ups (a few).
fn cmp_entries(logs: &[WindowLog], a: (usize, usize), b: (usize, usize)) -> Ordering {
    let (x, y) = (&logs[a.0].entries[a.1], &logs[b.0].entries[b.1]);
    x.time.cmp(&y.time).then_with(|| {
        if x.parent == NO_PARENT || y.parent == NO_PARENT {
            // The in-window bit sorts a spawned event last.
            return x.rank.cmp(&y.rank);
        }
        cmp_entries(logs, (a.0, x.parent as usize), (b.0, y.parent as usize))
            .then(x.sibling.cmp(&y.sibling))
    })
}

/// One node-range partition of the machine: a protocol core plus the
/// window scheduler that drives it.
#[derive(Debug)]
struct Shard {
    /// Executes every event. Full-width (sized for all `proto.nodes`),
    /// but only the state of the owned `nodes`, and of blocks homed on
    /// them, is ever touched. Its own event queue stays empty; its trace
    /// is per-event scratch.
    core: ConcurrentMachine,
    /// The owned node indices.
    nodes: Range<usize>,
    /// Events waiting for a window to open, in arrival order.
    queue: Vec<Queued>,
    /// The open window's events, by `(time, rank)`: those queued when it
    /// opened, sorted once, and those spawned inside it, a few at a time.
    batch: Vec<Queued>,
    in_window: BinaryHeap<Reverse<Queued>>,
    /// Backing storage for queued and in-window events: slots recycle
    /// through the free list, so steady-state execution allocates
    /// nothing per message.
    events: Arena<Event>,
    log: WindowLog,
    /// Resolve scratch, reused every window: the blocks the window's
    /// queued events look up first, by table.
    dir_touches: Vec<BlockAddr>,
    copy_touches: Vec<BlockAddr>,
}

impl Shard {
    fn new(proto: ProtocolConfig, sys: SystemConfig, nodes: Range<usize>) -> Self {
        Shard {
            core: ConcurrentMachine::new(proto, sys),
            nodes,
            queue: Vec::new(),
            batch: Vec::new(),
            in_window: BinaryHeap::new(),
            events: Arena::new(),
            log: WindowLog::default(),
            dir_touches: Vec::new(),
            copy_touches: Vec::new(),
        }
    }

    fn owns(&self, ev: &Event) -> bool {
        self.nodes.contains(&owner(ev).index())
    }

    /// Earliest pending event time.
    fn peek_time(&self) -> Option<u64> {
        self.queue.iter().map(|(t, _, _)| *t).min()
    }

    /// Enqueues an event with its replay-assigned compact rank.
    fn enqueue(&mut self, time: u64, seq: u64, ev: Event) {
        debug_assert!(self.owns(&ev), "events are routed to the owning shard");
        let id = self.events.alloc(ev);
        self.queue.push((time, seq, id));
    }

    /// Runs the window `[.., horizon)`: open, resolve, execute.
    fn run_window(&mut self, horizon: u64) -> Result<(), SimError> {
        self.open_window(horizon);
        self.resolve_window();
        self.execute_window(horizon)
    }

    /// Moves every queued event with `time < horizon` into the batch, in
    /// `(time, rank)` order: one sort per window, where a heap of
    /// everything pending sifted a thousand entries per pop.
    fn open_window(&mut self, horizon: u64) {
        let batch = &mut self.batch;
        debug_assert!(batch.is_empty() && self.in_window.is_empty());
        self.queue.retain(|queued| {
            let later = queued.0 >= horizon;
            if !later {
                batch.push(*queued);
            }
            later
        });
        batch.sort_unstable();
    }

    /// Has the core make the first table lookup of every event in the
    /// batch before the first handler runs (module docs, "The window is a
    /// batch"). Collecting and looking up are separate loops on purpose:
    /// a lookup loop that also chases arena slot, script front and home
    /// overlaps nothing. Events spawned inside the window are not
    /// resolved. Nothing observable depends on this stage having run.
    fn resolve_window(&mut self) {
        self.dir_touches.clear();
        self.copy_touches.clear();
        for (_, _, id) in &self.batch {
            let ev = self.events.get(*id).expect("live queued event");
            match self.core.first_touch(ev) {
                Some(Touch::Dir(block)) => self.dir_touches.push(block),
                Some(Touch::Copies(block)) => self.copy_touches.push(block),
                None => {}
            }
        }
        self.core.resolve(&self.dir_touches, &self.copy_touches);
    }

    /// Executes the open window on the core in `(time, rank)` order —
    /// the batch merged with what the window spawns as it goes — moving
    /// each event's side effects into the window log.
    fn execute_window(&mut self, horizon: u64) -> Result<(), SimError> {
        let mut next = 0;
        loop {
            // The earlier of the batch's next event and the next child.
            let queued = self.batch.get(next).copied();
            let spawned = self.in_window.peek().map(|Reverse(child)| *child);
            let Some((t, rank, id)) = queued.into_iter().chain(spawned).min() else {
                break;
            };
            let (parent, sibling) = match rank & IN_WINDOW {
                0 => {
                    next += 1;
                    (NO_PARENT, 0)
                }
                _ => {
                    self.in_window.pop();
                    self.log.spawned[(rank & !IN_WINDOW) as usize]
                }
            };
            let ev = self.events.free(id).expect("live queued event");
            let me = self.log.entries.len() as u32;
            self.core.dispatch(t, ev)?;
            // Pushes landing inside the window are intra-node follow-ups:
            // they join the window ranked by creation order, which on one
            // shard is parent order, then order among siblings.
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
                    let born = IN_WINDOW | self.log.spawned.len() as u64;
                    self.log.spawned.push((me, children));
                    self.in_window.push(Reverse((at, born, id)));
                    children += 1;
                }
            }
            self.log.recs.extend_from_slice(self.core.trace.records());
            self.core.trace.clear_records();
            self.log.entries.push(LogEntry {
                time: t,
                rank,
                parent,
                sibling,
                push_end: self.log.pushes.len() as u32,
                rec_end: self.log.recs.len() as u32,
            });
        }
        self.batch.clear();
        Ok(())
    }
}

// A hop is never free: the lookahead of two or more nodes is at least
// their two NI accesses, so a window is never empty.
const _: () = assert!(NI_ACCESS_NS > 0);

/// The sharded machine: a coordinator plus `shards` node-range
/// partitions executed in parallel per window. See the module docs for
/// the synchronisation and determinism arguments.
#[derive(Debug)]
pub struct ShardedMachine {
    pub(crate) proto: ProtocolConfig,
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
    coord_stats: MachineStats,
    coord_tally: ProtocolTally,
    audit_barriers: bool,
    windows: u64,
    /// Replay scratch, reused every window: the shards' logs while they
    /// are merged, and how far into each the merge has got.
    logs: Vec<WindowLog>,
    cursors: Vec<Cursor>,
    /// Barrier scratch: the blocks written since the previous one.
    written: Vec<BlockAddr>,
}

/// The replay's position in one shard's [`WindowLog`]: the next entry,
/// and the pushes and trace records consumed so far.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    entry: usize,
    push: usize,
    rec: usize,
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
        // On the crossbar every message between two nodes takes one hop's
        // time, so that is the minimum over pairs; a window is never empty.
        let lookahead = if nodes < 2 { 1 } else { sys.one_way_ns() };
        ShardedMachine {
            trace: TraceBundle::new(TraceMeta::new("unnamed", nodes, 0)),
            proto,
            logs: parts.iter().map(|_| WindowLog::default()).collect(),
            cursors: vec![Cursor::default(); parts.len()],
            written: Vec::new(),
            shards: parts,
            chunk,
            lookahead,
            seq: 0,
            vlen: 0,
            depth: obs::Histogram::new(),
            coord_stats: MachineStats::default(),
            coord_tally: ProtocolTally::new(),
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

    /// Turns the per-barrier coherence audit off (or back on). The audit
    /// covers the blocks written since the previous barrier and visits
    /// each one's holders, not the machine's nodes — a second lookup per
    /// written block, which on 1.67 M blocks each written once is about
    /// half the run again (EXPERIMENTS.md has the on/off timings). The
    /// knob stays because the scale drivers (`benchmark/`, `repro scale`)
    /// call it; they finish with one
    /// [`verify_coherence_sampled`](Self::verify_coherence_sampled)
    /// sweep instead. Note the audit
    /// feeds `stache.invariant.checks` (checks performed), so snapshots
    /// are only comparable between runs using the same setting.
    pub fn set_audit_barriers(&mut self, audit: bool) {
        self.audit_barriers = audit;
    }

    /// A no-op kept for one caller, `benchmark/src/pipeline.rs:608`,
    /// which predates the removal of the flight recorder. Goes when that
    /// call does.
    #[doc(hidden)]
    pub fn set_ring_enabled(&mut self, _enabled: bool) {}

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
    /// machine's bundle empty. The streaming mode: drained after every
    /// iteration and handed to a packed-trace writer (or dropped), peak
    /// memory is one iteration's records instead of the whole run's.
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

    /// Every block any cache or directory entry has touched, ascending:
    /// the union of the cores' sets, which is the concurrent engine's set.
    pub fn touched_blocks(&self) -> Vec<BlockAddr> {
        let cores = self.shards.iter().map(|s| &s.core);
        let mut blocks: Vec<BlockAddr> = cores.flat_map(|c| c.touched_blocks()).collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }

    /// Every node's effective cache state for `block` (home rights are
    /// derived from the directory entry, as in the audits).
    pub fn cache_states_for(&self, block: BlockAddr) -> Vec<CacheState> {
        let holders = holders(&self.shards, block);
        dense_states(&self.proto, block, &self.dir_state(block), holders)
    }

    /// The directory entry for `block` (`Idle` if never touched).
    pub fn dir_state(&self, block: BlockAddr) -> DirState {
        let home = home_of_block(block, &self.proto);
        let core = &self.shards[self.shard_of(home)].core;
        core.dir_state(block).into_owned()
    }

    /// Point-in-time export of every machine metric. Byte-identical for
    /// every shard count (only deterministic, partition-independent
    /// metrics are included).
    pub fn obs_snapshot(&self) -> obs::Snapshot {
        let mut snap = obs::Snapshot::new();
        let stats = self.stats();
        stats.export_obs(&mut snap);
        self.tally().export_obs(&mut snap);
        // Every delivered message is one record, drained or still held.
        snap.counter("simx.trace.records", stats.messages_total());
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
    /// rank of every event entering the next window), trace records and
    /// the queue-depth histogram.
    fn replay_windows(&mut self) {
        for (mine, shard) in self.logs.iter_mut().zip(&mut self.shards) {
            std::mem::swap(mine, &mut shard.log);
        }
        self.cursors.fill(Cursor::default());
        let logs = &self.logs;
        loop {
            let heads = self.cursors.iter().enumerate();
            let pending = heads.filter(|(s, at)| at.entry < logs[*s].entries.len());
            let first =
                pending.min_by(|(a, x), (b, y)| cmp_entries(logs, (*a, x.entry), (*b, y.entry)));
            let Some((s, _)) = first else { break };
            let (log, at) = (&logs[s], &mut self.cursors[s]);
            let e = &log.entries[at.entry];
            self.vlen -= 1; // the executed event itself popped
            let recs = &log.recs[at.rec..e.rec_end as usize];
            self.trace.extend_records(recs.iter().copied());
            for push in &log.pushes[at.push..e.push_end as usize] {
                let seq = self.seq;
                self.seq += 1;
                self.vlen += 1;
                self.depth.record(self.vlen);
                if !push.consumed {
                    let si = owner(&push.ev).index() / self.chunk;
                    self.shards[si].enqueue(push.time, seq, push.ev);
                }
            }
            *at = Cursor {
                entry: at.entry + 1,
                push: e.push_end as usize,
                rec: e.rec_end as usize,
            };
        }
        self.logs.iter_mut().for_each(WindowLog::clear);
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
        let mut written = std::mem::take(&mut self.written);
        for s in &mut self.shards {
            if self.audit_barriers {
                written.append(&mut s.core.dirty);
            } else {
                s.core.dirty.clear();
            }
        }
        written.sort_unstable();
        written.dedup();
        let audited = self.audit_blocks(written.iter().copied());
        written.clear();
        self.written = written;
        audited?;
        let max = self.execution_time_ns();
        for s in &mut self.shards {
            s.core.clocks.fill(max + BARRIER_NS);
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
    pub fn verify_coherence(&self) -> Result<(), SimError> {
        self.verify_coherence_sampled(usize::MAX)
    }

    /// Audits the coherence invariants for `min(max_blocks, touched)`
    /// touched blocks, ascending: those whose numbers hash smallest
    /// (SplitMix64, a bijection: no ties), kept in a bounded heap over one
    /// pass of the directories — the same blocks at any shard count. The
    /// cheap end-of-run check for millions-of-blocks scale runs, which the
    /// exhaustive [`verify_coherence`](Self::verify_coherence) would walk
    /// in full; a `max_blocks` of at least the touched count is that walk.
    ///
    /// # Errors
    ///
    /// Returns the first violation found among the sampled blocks.
    pub fn verify_coherence_sampled(&self, max_blocks: usize) -> Result<(), SimError> {
        let blocks = self.sample(max_blocks);
        self.audit_blocks(blocks)
    }

    /// The blocks [`verify_coherence_sampled`](Self::verify_coherence_sampled)
    /// audits, ascending.
    fn sample(&self, max_blocks: usize) -> Vec<BlockAddr> {
        // At quiescence every cached block has an entry at its home.
        let cores = || self.shards.iter().map(|s| &s.core);
        let mut blocks: Vec<BlockAddr> = if max_blocks >= cores().map(|c| c.dir.len()).sum() {
            cores().flat_map(|c| c.dir.keys()).collect()
        } else {
            let mut kept = BinaryHeap::with_capacity(max_blocks);
            for block in cores().flat_map(|c| c.dir.keys()) {
                let ranked = (crate::rng::splitmix64(&mut block.number()), block);
                if kept.len() < max_blocks {
                    kept.push(ranked);
                } else if let Some(mut last) = kept.peek_mut().filter(|last| ranked < **last) {
                    *last = ranked;
                }
            }
            kept.into_iter().map(|(_, block)| block).collect()
        };
        blocks.sort_unstable();
        blocks
    }

    fn audit_blocks(&self, blocks: impl IntoIterator<Item = BlockAddr>) -> Result<(), SimError> {
        let (proto, tally) = (&self.proto, &self.coord_tally);
        for block in blocks {
            let home = home_of_block(block, proto);
            let core = &self.shards[home.index() / self.chunk].core;
            let dir = core.dir_state(block);
            let holders = holders(&self.shards, block);
            audit_block(home, block, &dir, holders, tally)?;
        }
        Ok(())
    }
}

/// The copies of `block` cached outside its home, in node order: each
/// shard's own, shards being ascending node ranges.
fn holders(shards: &[Shard], block: BlockAddr) -> impl Iterator<Item = Holder> + Clone + '_ {
    shards
        .iter()
        .flat_map(move |s| s.core.holders(block).iter().copied())
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

    /// The rank this engine used before ranks were fixed-width, kept as
    /// the reference the new order is checked against: a tie-break
    /// `(head, rest)` compared lexicographically as `[head] ++ rest`. A
    /// boundary event carried `(seq, [])`; an event spawned inside a
    /// window `(u64::MAX, [parent_time, parent_head, parent_rest ...,
    /// sibling_index])` — after every boundary event of its time, then in
    /// its parent's order, then in birth order.
    type Tie = (u64, Vec<u64>);

    fn child_tie(parent_time: u64, parent: &Tie, index: u64) -> Tie {
        let mut rest = Vec::with_capacity(parent.1.len() + 3);
        rest.push(parent_time);
        rest.push(parent.0);
        rest.extend_from_slice(&parent.1);
        rest.push(index);
        (u64::MAX, rest)
    }

    /// An event as `(shard, log index)`, beside its reference `(time, tie)`.
    type Ranked = ((usize, usize), (u64, Tie));

    /// One window's worth of events over `shards` shards: boundary events
    /// with distinct global sequence numbers, and chains of in-window
    /// follow-ups up to `depth` deep, each on its parent's shard. Times
    /// come from a handful of values, so ties are the rule. Returns every
    /// event as `(shard, log index)` beside its reference rank.
    fn random_window(
        rng: &mut crate::rng::SmallRng,
        shards: usize,
        depth: usize,
    ) -> (Vec<WindowLog>, Vec<Ranked>) {
        let mut logs: Vec<WindowLog> = (0..shards).map(|_| WindowLog::default()).collect();
        let mut events: Vec<Ranked> = Vec::new();
        let mut depths = Vec::new();
        let mut born: Vec<u32> = Vec::new(); // in-window children so far, per event
        let log = |logs: &mut Vec<WindowLog>, shard: usize, e: LogEntry| {
            logs[shard].entries.push(e);
            (shard, logs[shard].entries.len() - 1)
        };
        let entry = |time, rank, parent, sibling| LogEntry {
            time,
            rank,
            parent,
            sibling,
            push_end: 0,
            rec_end: 0,
        };
        for seq in 0..rng.gen_range(2..10) as u64 {
            let (shard, time) = (
                rng.gen_range(0..shards),
                100 + 10 * rng.gen_range(0..3) as u64,
            );
            let at = log(&mut logs, shard, entry(time, seq, NO_PARENT, 0));
            events.push((at, (time, (seq, Vec::new()))));
            depths.push(0);
            born.push(0);
        }
        for _ in 0..rng.gen_range(0..40) {
            let p = rng.gen_range(0..events.len());
            if depths[p] == depth {
                continue;
            }
            let ((shard, parent), (ptime, ptie)) = events[p].clone();
            let time = ptime + 10 * rng.gen_range(0..2) as u64;
            let sibling = born[p];
            born[p] += 1;
            // The creation counter is irrelevant across shards; any value
            // with the in-window bit will do.
            let rank = IN_WINDOW | rng.gen() >> 1;
            let at = log(&mut logs, shard, entry(time, rank, parent as u32, sibling));
            events.push((at, (time, child_tie(ptime, &ptie, u64::from(sibling)))));
            depths.push(depths[p] + 1);
            born.push(0);
        }
        (logs, events)
    }

    /// The cross-shard merge's comparator walks `(parent, sibling)` links
    /// in the logs; the order it yields must be the lexicographic order
    /// of the ancestry paths those links abbreviate — for every pair, on
    /// one shard or two, boundary or spawned, at equal times or not.
    #[test]
    fn the_log_walking_order_is_the_ancestry_path_order() {
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x5eed);
        let (mut pairs, mut ties, mut deep) = (0, 0, 0);
        for _ in 0..300 {
            let (logs, events) = random_window(&mut rng, 4, 6);
            for (a, ra) in &events {
                for (b, rb) in &events {
                    assert_eq!(cmp_entries(&logs, *a, *b), ra.cmp(rb), "{ra:?} vs {rb:?}");
                    pairs += 1;
                    ties += usize::from(ra.0 == rb.0 && a != b);
                    deep += usize::from(ra.1 .1.len() > 9 && rb.1 .1.len() > 9 && a.0 != b.0);
                }
            }
        }
        assert!(
            pairs > 100_000 && ties > 30_000,
            "{pairs} pairs, {ties} at equal times"
        );
        assert!(
            deep > 100,
            "{deep} pairs of deep chains on different shards"
        );
    }

    /// On one shard the heap needs no ancestry at all: run a window's
    /// loop on the old ranks and on `(time, seq | IN_WINDOW + creation
    /// counter)` side by side, spawning the same follow-ups from whatever
    /// pops, and the two heaps pop the same events in the same order.
    #[test]
    fn creation_order_ranks_pop_in_the_ancestry_path_order_on_one_shard() {
        let mut rng = crate::rng::SmallRng::seed_from_u64(0xc0ffee);
        let mut popped = 0;
        for _ in 0..200 {
            let mut old: BinaryHeap<Reverse<(u64, Tie, usize)>> = BinaryHeap::new();
            let mut new: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
            let mut ids = 0..;
            for seq in 0..rng.gen_range(1..8) as u64 {
                let (time, id) = (100 + 10 * rng.gen_range(0..3) as u64, ids.next().unwrap());
                old.push(Reverse((time, (seq, Vec::new()), id)));
                new.push(Reverse((time, seq, id)));
            }
            let mut counter = 0;
            while let Some(Reverse((time, tie, id))) = old.pop() {
                let Reverse((new_time, _, new_id)) = new.pop().expect("same length");
                assert_eq!((new_time, new_id), (time, id));
                popped += 1;
                let depth = tie.1.len() / 3; // three words per generation
                for sibling in 0..rng.gen_range(0..3) as u64 {
                    if depth == 6 {
                        break;
                    }
                    let (at, id) = (time + 10 * rng.gen_range(0..2) as u64, ids.next().unwrap());
                    old.push(Reverse((at, child_tie(time, &tie, sibling), id)));
                    new.push(Reverse((at, IN_WINDOW | counter, id)));
                    counter += 1;
                }
            }
            assert!(new.is_empty());
        }
        assert!(popped > 2_000, "{popped}");
    }

    /// What an event and a block cost in memory, pinned: the heap entry
    /// and the log entry are fixed-width, a sharer set is two words with
    /// its spill boxed, and a directory entry — state word and
    /// transaction slot — is one word, 16 bytes with its key (1.67 M of
    /// them in `scale1024`).
    #[test]
    fn event_and_block_footprints_are_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<Queued>(), 24);
        assert_eq!(size_of::<LogEntry>(), 32);
        assert!(size_of::<stache::NodeSet>() <= 24);
        assert_eq!(size_of::<DirState>(), size_of::<stache::NodeSet>());
        assert_eq!(size_of::<(BlockAddr, crate::store::DirEntry)>(), 16);
        assert!(size_of::<(BlockAddr, crate::store::Copies)>() <= 32);
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
        let free = SystemConfig::paper().with_network_latency(0);
        let m = ShardedMachine::new(ProtocolConfig::paper(), free, 2);
        assert_eq!(m.lookahead_ns(), 120, "the two NI accesses remain");
    }

    #[test]
    fn shard_count_clamps_to_nodes() {
        let m = ShardedMachine::new(ProtocolConfig::paper(), SystemConfig::paper(), 64);
        assert_eq!(m.shards.len(), 16);
    }

    /// Named for the capture switch it first covered; what it pins now is
    /// that draining the trace does not un-count its records.
    #[test]
    fn capture_off_still_counts_records() {
        let mut m = ShardedMachine::new(ProtocolConfig::paper(), SystemConfig::paper(), 2);
        let plan = plan_of(vec![vec![Access::read(n(1), BlockAddr::new(0))]]);
        m.run_plan(&plan, 0).unwrap();
        assert_eq!(m.drain_trace_records().len(), 2);
        assert_eq!(m.trace().len(), 0, "nothing left in the machine");
        let snap = m.obs_snapshot();
        assert_eq!(
            snap.get("simx.trace.records"),
            Some(&obs::MetricValue::Counter(2)),
            "the two drained coherence messages are still counted"
        );
    }

    /// 40 blocks on 16 pages, read by up to three nodes each, and a
    /// machine of `shards` shards that ran them.
    fn sampled_machine(shards: usize) -> ShardedMachine {
        let block = |i: usize| BlockAddr::new(64 * (i % 16) as u64 + (i / 16) as u64);
        let reads = (0..40)
            .flat_map(|i| (0..=i % 3).map(move |r| Access::read(n((i + 5 * r) % 16), block(i))));
        let plan = plan_of(vec![reads.collect()]);
        let mut m = ShardedMachine::new(ProtocolConfig::paper(), SystemConfig::paper(), shards);
        m.run_plan(&plan, 0).unwrap();
        m
    }

    /// Runs `audit` and returns how many blocks it checked.
    fn checked(m: &mut ShardedMachine, audit: impl FnOnce(&mut ShardedMachine)) -> u64 {
        let before = m.tally().invariant_checks();
        audit(m);
        m.tally().invariant_checks() - before
    }

    #[test]
    fn the_sampled_audit_checks_min_k_touched_blocks_the_same_at_any_shard_count() {
        let touched = sampled_machine(1).touched_blocks().len();
        assert_eq!(touched, 40);
        let mut exhaustive = sampled_machine(1);
        let all = checked(&mut exhaustive, |m| m.verify_coherence().unwrap());
        assert_eq!(all, touched as u64);
        for k in [0, 1, 7, 39, 40, 41, usize::MAX] {
            let want = sampled_machine(1).sample(k);
            assert_eq!(want.len(), k.min(touched), "k {k}");
            assert!(want.windows(2).all(|w| w[0] < w[1]), "ascending");
            for shards in [1, 2, 4] {
                let mut m = sampled_machine(shards);
                assert_eq!(m.sample(k), want, "k {k}, shards {shards}");
                let audited = checked(&mut m, |m| m.verify_coherence_sampled(k).unwrap());
                assert_eq!(audited, k.min(touched) as u64, "k {k}, shards {shards}");
            }
        }
    }

    #[test]
    fn the_sampled_audit_reports_a_violation_in_a_sampled_block() {
        for shards in [1, 4] {
            let mut m = sampled_machine(shards);
            let sample = m.sample(8);
            let block = *sample
                .iter()
                .find(|&&b| holders(&m.shards, b).next().is_some())
                .expect("a sampled block cached away from its home");
            // The home forgets every copy of it.
            let home = home_of_block(block, &m.proto);
            let si = m.shard_of(home);
            let core = &mut m.shards[si].core;
            let e = core.dir.entry_or_default(block);
            core.wide.write(e, DirState::Idle);
            let err = m.verify_coherence_sampled(8).unwrap_err();
            assert!(err.to_string().contains(&block.to_string()), "{err}");
            assert!(
                m.verify_coherence_sampled(0).is_ok(),
                "k = 0 audits nothing"
            );
        }
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

    /// Everything a shard holds that a later window, the replay or an
    /// audit can see: directory entries, cached copies, the queue with
    /// its events, and the window log.
    fn picture(s: &Shard) -> String {
        let entry =
            |(block, &e): (BlockAddr, &crate::store::DirEntry)| (block, s.core.wide.state(e), e);
        let mut dir: Vec<_> = s.core.dir.iter().map(entry).collect();
        dir.sort_unstable_by_key(|(block, ..)| *block);
        let touched = s.core.touched_blocks().into_iter();
        let copies: Vec<_> = touched
            .map(|b| (b, s.core.holders(b)))
            .filter(|(_, held)| !held.is_empty())
            .collect();
        assert!(s.batch.is_empty() && s.in_window.is_empty(), "window open");
        let mut queue = s.queue.clone();
        queue.sort_unstable();
        let events: Vec<_> = queue.iter().map(|(_, _, id)| s.events.get(*id)).collect();
        format!("{dir:?}\n{copies:?}\n{queue:?}\n{events:?}\n{:?}", s.log)
    }

    /// Resolve is invisible. A machine and a twin that skips the resolve
    /// stage (it makes the other two of `run_window`'s three calls) run
    /// the same plan window by window: local misses, remote misses,
    /// scripts that hit before they miss again, eight sharers racing to
    /// upgrade one block (the losers' upgrades queue at the busy home and
    /// convert), read-modify-writes. After every window, and again after
    /// its replay, each shard's directory entries, cached copies, queue and
    /// log are the twin's: resolve created no entry its window did not.
    #[test]
    fn a_resolved_window_leaves_exactly_what_an_unresolved_one_leaves() {
        let b = |page: usize, offset: u64| BlockAddr::new(64 * page as u64 + offset);
        let plan = plan_of(vec![
            (1..=6)
                .flat_map(|i| {
                    [
                        Access::write(n(i), b(i, 0)),      // local miss (page i is homed on i)
                        Access::read(n(i), b(i, 0)),       // local hit
                        Access::read(n(i), b(i + 1, 1)),   // remote miss
                        Access::read(n(i), b(i + 1, 1)),   // hit
                        Access::write(n(i), b(i + 16, 2)), // local miss, fresh page
                    ]
                })
                .collect(),
            (1..=8).map(|i| Access::read(n(i), b(0, 0))).collect(),
            (1..=8).map(|i| Access::write(n(i), b(0, 0))).collect(),
            (1..=12)
                .map(|i| Access::rmw(n(i), b((i + 5) % 16, 3)))
                .collect(),
        ]);
        for shards in [1, 3] {
            let new =
                || ShardedMachine::new(ProtocolConfig::paper(), SystemConfig::paper(), shards);
            let (mut resolved, mut twin) = (new(), new());
            let (mut windows, mut dir_lookups, mut copy_lookups) = (0, 0, 0);
            let same = |resolved: &ShardedMachine, twin: &ShardedMachine, when: &str| {
                for (r, t) in resolved.shards.iter().zip(&twin.shards) {
                    assert_eq!(picture(r), picture(t), "shards {shards}, {when}");
                }
            };
            for phase in &plan.phases {
                resolved.begin_phase(phase);
                twin.begin_phase(phase);
                while let Some(floor) = resolved.min_pending() {
                    let horizon = floor + resolved.lookahead;
                    for (r, t) in resolved.shards.iter_mut().zip(&mut twin.shards) {
                        r.run_window(horizon).unwrap();
                        t.open_window(horizon);
                        t.execute_window(horizon).unwrap();
                        dir_lookups += r.dir_touches.len();
                        copy_lookups += r.copy_touches.len();
                    }
                    same(&resolved, &twin, &format!("window {windows} executed"));
                    resolved.replay_windows();
                    twin.replay_windows();
                    same(&resolved, &twin, &format!("window {windows} replayed"));
                    windows += 1;
                }
                resolved.barrier().unwrap();
                twin.barrier().unwrap();
            }
            assert!(
                windows > 20 && dir_lookups > 50 && copy_lookups > 50,
                "{windows} windows, {dir_lookups} + {copy_lookups} lookups resolved"
            );
            assert!(twin.shards.iter().all(|s| s.dir_touches.is_empty()));
            assert_eq!(resolved.trace().records(), twin.trace().records());
            assert_eq!(
                resolved.obs_snapshot().to_json(),
                twin.obs_snapshot().to_json()
            );
            let upgrades_converted = resolved
                .trace()
                .records()
                .iter()
                .any(|r| r.block == b(0, 0) && r.mtype == MsgType::GetRwResponse);
            assert!(upgrades_converted, "the upgrade race was lost by someone");
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
                let drained = s.batch.is_empty() && s.in_window.is_empty();
                let spawned = |(_, rank, _): &Queued| rank & IN_WINDOW != 0;
                assert!(
                    drained && !s.queue.iter().any(spawned),
                    "{when}: window not drained"
                );
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
