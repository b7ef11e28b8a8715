//! The evaluation harness: replay a trace through a fleet of predictors
//! and account accuracy the way the paper's tables and figures do.
//!
//! One predictor instance is allocated per agent — per `(node, role)` pair
//! — mirroring "we allocate a Cosmos predictor for every cache or directory
//! in the machine" (§3.2). For every record the harness asks the agent's
//! predictor for its prediction *before* showing it the observation, then
//! scores:
//!
//! * **overall / cache / directory** accuracy (Table 5's O, C, D columns);
//! * **per-arc** accuracy, keyed like `trace::ArcKey` (the X labels of
//!   Figures 6 and 7);
//! * **per-iteration** accuracy (the §6.2 time-to-adapt analysis);
//! * **per-arc cumulative accuracy at iteration checkpoints** (Table 8);
//! * the fleet's **memory footprint** (Table 7);
//! * each record's [`Verdict`], which [`StreamEval::push`] returns (the
//!   critical-path report's annotation).
//!
//! A message for which the predictor offers no prediction counts as a miss
//! (the conservative convention); coverage is reported separately.

use crate::fleet::{role_index, Fleet, ROLES};
use crate::memory::MemoryFootprint;
use crate::predictor::CosmosPredictor;
use crate::tuple::PredTuple;
use crate::{CoreStats, MessagePredictor};
use stache::fasthash::{FastMap, FastSet};
use stache::msg::ALL_MSG_TYPES;
use stache::{BlockAddr, MsgType, NodeId, Role};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use trace::{ArcKey, TraceBundle};

/// Hit/total counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Correct predictions.
    pub hits: u64,
    /// Messages scored.
    pub total: u64,
}

impl Counts {
    /// Records one scored message.
    pub fn add(&mut self, hit: bool) {
        self.hits += u64::from(hit);
        self.total += 1;
    }

    /// Hit rate in [0, 1]; 0 when nothing was scored.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.hits as f64 / self.total as f64
    }

    /// Hit rate as a percentage.
    pub fn percent(&self) -> f64 {
        100.0 * self.rate()
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: Counts) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

/// Evaluation options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalOptions {
    /// Records from iterations before this are *fed* to the predictors but
    /// not *scored* — the paper's exclusion of the start-up phase (§5).
    pub score_from_iteration: u32,
}

/// The harness' output: everything the paper's tables need.
#[derive(Debug, Clone)]
pub struct AccuracyReport {
    /// The predictor family evaluated.
    pub predictor: String,
    /// Table 5's "O" column.
    pub overall: Counts,
    /// Table 5's "C" column (messages received at caches).
    pub cache: Counts,
    /// Table 5's "D" column (messages received at directories).
    pub directory: Counts,
    /// How often a prediction was offered at all (`hits` = offered).
    pub coverage: Counts,
    /// Per-arc accuracy (Figures 6/7's X labels).
    pub per_arc: HashMap<ArcKey, Counts>,
    /// Per-agent accuracy — one entry per `(node, role)` predictor, for
    /// spotting pathological agents (e.g. one directory hosting all the
    /// noisy blocks).
    pub per_agent: HashMap<(NodeId, Role), Counts>,
    /// Accuracy per iteration (time-to-adapt curves).
    pub per_iteration: BTreeMap<u32, Counts>,
    /// Per-arc accuracy per iteration (Table 8's checkpoints).
    pub per_arc_by_iteration: HashMap<ArcKey, BTreeMap<u32, Counts>>,
    /// Fleet memory footprint after the full replay (Table 7).
    pub memory: MemoryFootprint,
    /// Predictor-core counters summed over the fleet (probe volume and
    /// resident table capacity) — the perf-engineering view of the run.
    pub core: CoreStats,
}

impl AccuracyReport {
    /// Share of a role's scored arc references on this arc (Figures 6/7's
    /// Y labels).
    pub fn arc_share(&self, key: ArcKey) -> f64 {
        let total: u64 = self
            .per_arc
            .iter()
            .filter(|(k, _)| k.role == key.role)
            .map(|(_, c)| c.total)
            .sum();
        if total == 0 {
            return 0.0;
        }
        self.per_arc.get(&key).map_or(0, |c| c.total) as f64 / total as f64
    }

    /// Cumulative hit/ref counts for an arc over iterations `0..=upto`
    /// (Table 8 reports these at 4, 80, and 320 iterations).
    pub fn arc_cumulative(&self, key: ArcKey, upto: u32) -> Counts {
        let mut out = Counts::default();
        if let Some(series) = self.per_arc_by_iteration.get(&key) {
            for (&it, c) in series {
                if it <= upto {
                    out.merge(*c);
                }
            }
        }
        out
    }

    /// Total scored arc references over iterations `0..=upto`, across all
    /// arcs of a role (Table 8's `refs` denominators).
    pub fn role_cumulative_refs(&self, role: Role, upto: u32) -> u64 {
        self.per_arc_by_iteration
            .iter()
            .filter(|(k, _)| k.role == role)
            .flat_map(|(_, series)| series.iter())
            .filter(|(&it, _)| it <= upto)
            .map(|(_, c)| c.total)
            .sum()
    }

    /// Accuracy over an iteration window `[lo, hi)`.
    pub fn window_rate(&self, lo: u32, hi: u32) -> f64 {
        let mut c = Counts::default();
        for (&it, counts) in &self.per_iteration {
            if it >= lo && it < hi {
                c.merge(*counts);
            }
        }
        c.rate()
    }

    /// The first iteration at which the trailing accuracy over `window`
    /// iterations reaches `fraction` of the final window's accuracy —
    /// the §6.2 "time to adapt".
    pub fn time_to_adapt(&self, window: u32, fraction: f64) -> Option<u32> {
        let last = *self.per_iteration.keys().next_back()?;
        let steady = self.window_rate(last.saturating_sub(window), last + 1);
        if steady == 0.0 {
            return Some(0);
        }
        (0..=last).find(|&it| self.window_rate(it, it + window) >= fraction * steady)
    }

    /// Renders a one-screen human-readable summary of the report.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: overall {:.1}% (cache {:.1}%, directory {:.1}%) over {} messages",
            self.predictor,
            self.overall.percent(),
            self.cache.percent(),
            self.directory.percent(),
            self.overall.total,
        );
        let _ = writeln!(
            out,
            "coverage {:.1}%; accuracy among offered {:.1}%",
            self.coverage.percent(),
            if self.coverage.hits == 0 {
                0.0
            } else {
                100.0 * self.overall.hits as f64 / self.coverage.hits as f64
            },
        );
        let _ = writeln!(
            out,
            "memory: {} MHR entries, {} PHT entries (ratio {:.2})",
            self.memory.mhr_entries,
            self.memory.pht_entries,
            self.memory.ratio(),
        );
        for role in [Role::Cache, Role::Directory] {
            let _ = writeln!(out, "top arcs at the {role} (accuracy%/share%):");
            for (arc, acc, share) in self.dominant_arcs(role, 3) {
                let _ = writeln!(
                    out,
                    "  {:<22} -> {:<22} {:>3.0}/{:<3.0}",
                    arc.prev.paper_name(),
                    arc.next.paper_name(),
                    acc,
                    share
                );
            }
        }
        out
    }

    /// Exports the headline numbers into a metrics snapshot under
    /// `cosmos.depth<d>.` — accuracy percentages (Table 5), coverage, and
    /// the Table 7 memory footprint (PHT occupancy and byte cost).
    pub fn export_obs(&self, depth: usize, snap: &mut obs::Snapshot) {
        let p = format!("cosmos.depth{depth}");
        snap.counter(&format!("{p}.messages"), self.overall.total);
        snap.gauge(&format!("{p}.accuracy.overall_pct"), self.overall.percent());
        snap.gauge(&format!("{p}.accuracy.cache_pct"), self.cache.percent());
        snap.gauge(
            &format!("{p}.accuracy.directory_pct"),
            self.directory.percent(),
        );
        snap.gauge(&format!("{p}.coverage_pct"), self.coverage.percent());
        snap.counter(
            &format!("{p}.memory.mhr_entries"),
            self.memory.mhr_entries as u64,
        );
        snap.counter(
            &format!("{p}.memory.pht_entries"),
            self.memory.pht_entries as u64,
        );
        snap.counter(
            &format!("{p}.memory.bytes"),
            self.memory.bytes(depth) as u64,
        );
        snap.gauge(
            &format!("{p}.memory.overhead_pct"),
            self.memory.overhead_percent(depth),
        );
    }

    /// Dominant arcs of a role by scored references, with `(accuracy %,
    /// share %)` — the Figure 6/7 labels.
    pub fn dominant_arcs(&self, role: Role, top: usize) -> Vec<(ArcKey, f64, f64)> {
        let mut arcs: Vec<(ArcKey, Counts)> = self
            .per_arc
            .iter()
            .filter(|(k, _)| k.role == role)
            .map(|(k, c)| (*k, *c))
            .collect();
        arcs.sort_by(|a, b| b.1.total.cmp(&a.1.total).then(a.0.cmp(&b.0)));
        arcs.truncate(top);
        arcs.into_iter()
            .map(|(k, c)| (k, c.percent(), 100.0 * self.arc_share(k)))
            .collect()
    }
}

/// One record's prediction outcome, as [`StreamEval::push`] returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The agent's predictor offered the observed `(sender, type)` tuple.
    Hit,
    /// The predictor offered something else.
    Miss,
    /// The predictor offered nothing (cold history or filtered arc).
    NoPrediction,
}

/// A block and the type of the last message an agent saw for it, in one
/// word — `block << 4 | type code`; a block number is a byte address over
/// the block size, so its top four bits are free — hashed and compared by
/// the block alone. A set of these is a map from block to type at 8 bytes
/// an entry rather than 16.
#[derive(Clone, Copy)]
struct LastSeen(u64);

impl LastSeen {
    fn new(block: BlockAddr, mtype: MsgType) -> Self {
        debug_assert!(block.number() >> 60 == 0, "{block} leaves no room");
        LastSeen(block.number() << 4 | u64::from(mtype.code()))
    }

    fn mtype(self) -> MsgType {
        ALL_MSG_TYPES[(self.0 & 0xf) as usize]
    }
}

impl PartialEq for LastSeen {
    fn eq(&self, other: &Self) -> bool {
        self.0 >> 4 == other.0 >> 4
    }
}

impl Eq for LastSeen {}

impl Hash for LastSeen {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0 >> 4); // as the `BlockAddr` hashes
    }
}

/// One agent's predictor plus its replay-local state.
struct AgentSlot {
    predictor: Box<dyn MessagePredictor>,
    /// Last message type seen per block at this agent (arc tracking): one
    /// word for every block the agent ever saw. This is the part of a
    /// "bounded-memory" fleet that is not bounded — an evicting predictor
    /// caps its tables, the arc tracker cannot forget — so it is kept to
    /// the one word.
    prev_type: FastSet<LastSeen>,
    counts: Counts,
}

/// Message types, the side of the dense arc array.
const TYPES: usize = ALL_MSG_TYPES.len();

/// The scored counters of the iteration the stream is currently in. A
/// trace stays in one iteration for thousands of records, so the hot
/// loop bumps a `Counts` and one cell of a dense `[role][prev][next]`
/// array; [`StreamEval::fold_open`] moves them into the report's maps
/// when the stream enters another iteration and at the end. Merging is
/// additive, so the maps come out the same for any record order.
struct OpenIteration {
    /// `None` until a record is scored.
    iteration: Option<u32>,
    counts: Counts,
    arcs: Box<[Counts; 2 * TYPES * TYPES]>,
    /// Cells of `arcs` that are non-zero, in first-touch order.
    touched: Vec<u16>,
}

impl OpenIteration {
    fn new() -> Self {
        OpenIteration {
            iteration: None,
            counts: Counts::default(),
            arcs: Box::new([Counts::default(); 2 * TYPES * TYPES]),
            touched: Vec::new(),
        }
    }

    #[inline]
    fn add_arc(&mut self, key: ArcKey, hit: bool) {
        let cell = (role_index(key.role) * TYPES + usize::from(key.prev.code())) * TYPES
            + usize::from(key.next.code());
        if self.arcs[cell].total == 0 {
            self.touched.push(cell as u16);
        }
        self.arcs[cell].add(hit);
    }

    /// The arc a cell of `arcs` counts.
    fn arc_of(cell: usize) -> ArcKey {
        ArcKey {
            role: ROLES[cell / (TYPES * TYPES)],
            prev: ALL_MSG_TYPES[cell / TYPES % TYPES],
            next: ALL_MSG_TYPES[cell % TYPES],
        }
    }
}

/// A push-based evaluation in progress: feed records one at a time (or a
/// chunk at a time) and [`finish`](StreamEval::finish) into the same
/// [`AccuracyReport`] the one-shot [`evaluate`] produces. This is the
/// engine behind the packed-trace replay path — a billion-message trace
/// streams through chunk by chunk without a bundle ever existing.
pub struct StreamEval<F>
where
    F: FnMut(NodeId, Role) -> Box<dyn MessagePredictor>,
{
    factory: F,
    opts: EvalOptions,
    fleet: Fleet<AgentSlot>,
    per_arc: FastMap<ArcKey, Counts>,
    per_arc_by_iteration: FastMap<ArcKey, BTreeMap<u32, Counts>>,
    predictor: String,
    overall: Counts,
    cache: Counts,
    directory: Counts,
    coverage: Counts,
    per_iteration: BTreeMap<u32, Counts>,
    open: OpenIteration,
}

impl<F> StreamEval<F>
where
    F: FnMut(NodeId, Role) -> Box<dyn MessagePredictor>,
{
    /// Starts an evaluation with the given options and per-agent factory.
    pub fn new(opts: EvalOptions, factory: F) -> Self {
        StreamEval {
            factory,
            opts,
            fleet: Fleet::default(),
            per_arc: FastMap::default(),
            per_arc_by_iteration: FastMap::default(),
            predictor: String::new(),
            overall: Counts::default(),
            cache: Counts::default(),
            directory: Counts::default(),
            coverage: Counts::default(),
            per_iteration: BTreeMap::new(),
            open: OpenIteration::new(),
        }
    }

    /// Moves the open iteration's counters into the per-iteration and
    /// per-arc maps and leaves them zeroed.
    fn fold_open(&mut self) {
        let Some(iteration) = self.open.iteration.take() else {
            return;
        };
        let counts = std::mem::take(&mut self.open.counts);
        self.per_iteration
            .entry(iteration)
            .or_default()
            .merge(counts);
        for cell in self.open.touched.drain(..) {
            let cell = usize::from(cell);
            let counts = std::mem::take(&mut self.open.arcs[cell]);
            let key = OpenIteration::arc_of(cell);
            self.per_arc.entry(key).or_default().merge(counts);
            self.per_arc_by_iteration
                .entry(key)
                .or_default()
                .entry(iteration)
                .or_default()
                .merge(counts);
        }
    }

    /// Feeds one record to its agent's predictor, scores it (subject to
    /// the warmup option) and returns the predictor's verdict on it,
    /// scored or not — the per-record view the report cannot give: a
    /// span tree looks up the verdict of the exact message it recorded
    /// (by trace-record index) to annotate its critical path.
    pub fn push(&mut self, r: &trace::MsgRecord) -> Verdict {
        let factory = &mut self.factory;
        let slot = self.fleet.agent(r.node, r.role, || AgentSlot {
            predictor: factory(r.node, r.role),
            prev_type: FastSet::default(),
            counts: Counts::default(),
        });
        if self.predictor.is_empty() {
            self.predictor = slot.predictor.name().to_string();
        }
        let observed = PredTuple::new(r.sender, r.mtype);
        let verdict = match slot.predictor.predict_then_observe(r.block, observed) {
            Some(p) if p == observed => Verdict::Hit,
            Some(_) => Verdict::Miss,
            None => Verdict::NoPrediction,
        };
        let seen = LastSeen::new(r.block, r.mtype);
        let prev = slot.prev_type.replace(seen).map(LastSeen::mtype);

        if r.iteration >= self.opts.score_from_iteration {
            let hit = verdict == Verdict::Hit;
            self.overall.add(hit);
            match r.role {
                Role::Cache => self.cache.add(hit),
                Role::Directory => self.directory.add(hit),
            }
            self.coverage.add(verdict != Verdict::NoPrediction);
            slot.counts.add(hit);
            if self.open.iteration != Some(r.iteration) {
                self.fold_open();
                self.open.iteration = Some(r.iteration);
            }
            self.open.counts.add(hit);
            if let Some(prev) = prev {
                self.open.add_arc(
                    ArcKey {
                        role: r.role,
                        prev,
                        next: r.mtype,
                    },
                    hit,
                );
            }
        }
        verdict
    }

    /// Feeds and scores a batch (typically one decoded chunk).
    pub fn push_all(&mut self, records: &[trace::MsgRecord]) {
        for r in records {
            self.push(r);
        }
    }

    /// Closes the evaluation and builds the report.
    pub fn finish(mut self) -> AccuracyReport {
        self.fold_open();
        let mut report = AccuracyReport {
            predictor: self.predictor,
            overall: self.overall,
            cache: self.cache,
            directory: self.directory,
            coverage: self.coverage,
            per_arc: self.per_arc.into_iter().collect(),
            per_agent: HashMap::new(),
            per_iteration: self.per_iteration,
            per_arc_by_iteration: self.per_arc_by_iteration.into_iter().collect(),
            memory: MemoryFootprint::default(),
            core: CoreStats::default(),
        };
        for (node, role, slot) in self.fleet.iter() {
            report.memory = report.memory + slot.predictor.memory();
            report.core.merge(slot.predictor.core_stats());
            // Agents that only saw warmup records never scored anything and
            // get no per-agent entry, matching the map-keyed accounting.
            if slot.counts.total > 0 {
                report.per_agent.insert((node, role), slot.counts);
            }
        }
        report
    }
}

/// Replays a trace through a fleet of predictors built by `factory` (one
/// per `(node, role)`), scoring as the paper does.
pub fn evaluate<F>(bundle: &TraceBundle, opts: &EvalOptions, factory: F) -> AccuracyReport
where
    F: FnMut(NodeId, Role) -> Box<dyn MessagePredictor>,
{
    let mut eval = StreamEval::new(opts.clone(), factory);
    eval.push_all(bundle.records());
    eval.finish()
}

/// Evaluates a Cosmos fleet of the given depth and filter over a trace.
pub fn evaluate_cosmos(bundle: &TraceBundle, depth: usize, filter_max: u8) -> AccuracyReport {
    evaluate(bundle, &EvalOptions::default(), |_, _| {
        Box::new(CosmosPredictor::new(depth, filter_max))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::{MsgRecord, TraceMeta};

    fn rec(
        i: usize,
        node: usize,
        role: Role,
        block: u64,
        sender: usize,
        mtype: MsgType,
        it: u32,
    ) -> MsgRecord {
        MsgRecord {
            time_ns: i as u64,
            node: NodeId::new(node),
            role,
            block: BlockAddr::new(block),
            sender: NodeId::new(sender),
            mtype,
            iteration: it,
        }
    }

    /// A perfectly periodic two-message cycle at one cache.
    fn cyclic_bundle(iterations: u32) -> TraceBundle {
        let mut b = TraceBundle::new(TraceMeta::new("cycle", 2, iterations));
        let mut i = 0;
        for it in 0..iterations {
            b.push(rec(i, 0, Role::Cache, 1, 1, MsgType::GetRwResponse, it));
            i += 1;
            b.push(rec(i, 0, Role::Cache, 1, 1, MsgType::InvalRwRequest, it));
            i += 1;
        }
        b
    }

    #[test]
    fn perfect_cycle_approaches_full_accuracy() {
        let bundle = cyclic_bundle(50);
        let report = evaluate_cosmos(&bundle, 1, 0);
        // Cold start costs 3 messages (fill MHR, learn 2 transitions).
        assert!(
            report.overall.rate() > 0.95,
            "rate {}",
            report.overall.rate()
        );
        assert_eq!(report.overall.total, 100);
        assert_eq!(report.directory.total, 0);
        assert_eq!(report.cache.total, 100);
        assert_eq!(report.predictor, "cosmos");
    }

    #[test]
    fn warmup_exclusion_removes_cold_start() {
        let bundle = cyclic_bundle(50);
        let opts = EvalOptions {
            score_from_iteration: 2,
        };
        let report = evaluate(&bundle, &opts, |_, _| Box::new(CosmosPredictor::new(1, 0)));
        assert_eq!(report.overall.total, 96);
        assert_eq!(report.overall.hits, 96, "steady state is perfect");
    }

    #[test]
    fn per_agent_accounting_partitions_the_totals() {
        let bundle = cyclic_bundle(10);
        let report = evaluate_cosmos(&bundle, 1, 0);
        // One cache agent in this trace: its counts are the totals.
        assert_eq!(report.per_agent.len(), 1);
        let agent = report.per_agent[&(NodeId::new(0), Role::Cache)];
        assert_eq!(agent.total, report.overall.total);
        assert_eq!(agent.hits, report.overall.hits);
    }

    #[test]
    fn per_arc_accounting() {
        let bundle = cyclic_bundle(10);
        let report = evaluate_cosmos(&bundle, 1, 0);
        let key = ArcKey {
            role: Role::Cache,
            prev: MsgType::GetRwResponse,
            next: MsgType::InvalRwRequest,
        };
        let c = report.per_arc.get(&key).expect("arc present");
        assert_eq!(c.total, 10);
        assert!(c.rate() > 0.8);
        // The two arcs split the share evenly (19 arcs total: 10 + 9).
        assert!((report.arc_share(key) - 10.0 / 19.0).abs() < 1e-9);
        let dom = report.dominant_arcs(Role::Cache, 5);
        assert_eq!(dom.len(), 2);
        assert_eq!(dom[0].0, key);
    }

    /// Arc references of a role, summed over its arcs.
    fn role_refs(report: &AccuracyReport, role: Role) -> u64 {
        report
            .per_arc
            .iter()
            .filter(|(k, _)| k.role == role)
            .map(|(_, c)| c.total)
            .sum()
    }

    #[test]
    fn consecutive_pairs_per_block_stream() {
        let mut b = TraceBundle::new(TraceMeta::new("t", 16, 1));
        // Cache stream for block 1: get_ro_response -> inval_ro_request -> get_ro_response.
        b.push(rec(0, 0, Role::Cache, 1, 15, MsgType::GetRoResponse, 0));
        b.push(rec(1, 0, Role::Cache, 1, 15, MsgType::InvalRoRequest, 0));
        b.push(rec(2, 0, Role::Cache, 1, 15, MsgType::GetRoResponse, 0));
        // Unrelated block 2 must not contribute to block 1's arcs.
        b.push(rec(3, 0, Role::Cache, 2, 15, MsgType::GetRwResponse, 0));
        let report = evaluate_cosmos(&b, 1, 0);
        assert_eq!(role_refs(&report, Role::Cache), 2);
        for (prev, next) in [
            (MsgType::GetRoResponse, MsgType::InvalRoRequest),
            (MsgType::InvalRoRequest, MsgType::GetRoResponse),
        ] {
            let key = ArcKey {
                role: Role::Cache,
                prev,
                next,
            };
            assert_eq!(report.per_arc[&key].total, 1, "{key}");
        }
        assert_eq!(role_refs(&report, Role::Directory), 0);
    }

    #[test]
    fn streams_are_separated_by_node_and_role() {
        let mut b = TraceBundle::new(TraceMeta::new("t", 16, 1));
        b.push(rec(0, 0, Role::Cache, 1, 15, MsgType::GetRoResponse, 0));
        b.push(rec(1, 1, Role::Cache, 1, 15, MsgType::InvalRoRequest, 0));
        b.push(rec(
            2,
            0,
            Role::Directory,
            1,
            15,
            MsgType::InvalRoRequest,
            0,
        ));
        // Different nodes, different roles: no arc.
        assert!(evaluate_cosmos(&b, 1, 0).per_arc.is_empty());
    }

    #[test]
    fn dominant_sorting_and_share() {
        let mut b = TraceBundle::new(TraceMeta::new("t", 16, 1));
        for i in 0..3 {
            b.push(rec(
                i * 10,
                0,
                Role::Cache,
                1,
                15,
                MsgType::GetRoResponse,
                0,
            ));
            b.push(rec(
                i * 10 + 1,
                0,
                Role::Cache,
                1,
                15,
                MsgType::InvalRoRequest,
                0,
            ));
        }
        let report = evaluate_cosmos(&b, 1, 0);
        let dom = report.dominant_arcs(Role::Cache, usize::MAX);
        assert_eq!(dom[0].0.prev, MsgType::GetRoResponse);
        assert_eq!(report.per_arc[&dom[0].0].total, 3);
        // 5 total arcs: 3 of RO->INV, 2 of INV->RO.
        assert!((report.arc_share(dom[0].0) - 3.0 / 5.0).abs() < 1e-12);
        assert!((dom[0].2 - 60.0).abs() < 1e-9);
    }

    #[test]
    fn cumulative_arc_counts_grow() {
        let bundle = cyclic_bundle(20);
        let report = evaluate_cosmos(&bundle, 1, 0);
        let key = ArcKey {
            role: Role::Cache,
            prev: MsgType::GetRwResponse,
            next: MsgType::InvalRwRequest,
        };
        let at5 = report.arc_cumulative(key, 5);
        let at19 = report.arc_cumulative(key, 19);
        assert!(at5.total < at19.total);
        assert!(at19.rate() >= at5.rate());
        assert!(report.role_cumulative_refs(Role::Cache, 19) >= at19.total);
    }

    #[test]
    fn time_to_adapt_is_early_for_easy_patterns() {
        let bundle = cyclic_bundle(60);
        let report = evaluate_cosmos(&bundle, 1, 0);
        let t = report.time_to_adapt(5, 0.95).unwrap();
        assert!(t <= 3, "adapted at iteration {t}");
    }

    #[test]
    fn coverage_counts_offered_predictions() {
        let bundle = cyclic_bundle(5);
        let report = evaluate_cosmos(&bundle, 1, 0);
        // The first three messages have no prediction: the first fills the
        // MHR, the second learns the first transition (but the MHR now
        // points at the not-yet-learned one), the third learns that one.
        assert_eq!(report.coverage.total, 10);
        assert_eq!(report.coverage.hits, 7);
    }

    #[test]
    fn summary_renders_the_essentials() {
        let bundle = cyclic_bundle(10);
        let report = evaluate_cosmos(&bundle, 1, 0);
        let s = report.render_summary();
        assert!(s.contains("cosmos"));
        assert!(s.contains("MHR"));
        assert!(s.contains("get_rw_response"));
    }

    #[test]
    fn export_obs_emits_depth_prefixed_metrics() {
        let bundle = cyclic_bundle(10);
        let report = evaluate_cosmos(&bundle, 2, 0);
        let mut snap = obs::Snapshot::new();
        report.export_obs(2, &mut snap);
        assert!(snap.names().iter().all(|n| n.starts_with("cosmos.depth2.")));
        assert!(matches!(
            snap.get("cosmos.depth2.accuracy.overall_pct"),
            Some(obs::MetricValue::Gauge(p)) if (0.0..=100.0).contains(p)
        ));
        assert!(matches!(
            snap.get("cosmos.depth2.memory.pht_entries"),
            Some(obs::MetricValue::Counter(n)) if *n > 0
        ));
        assert!(matches!(
            snap.get("cosmos.depth2.memory.bytes"),
            Some(obs::MetricValue::Counter(n)) if *n > 0
        ));
    }

    #[test]
    fn push_verdicts_align_with_the_aggregate_report() {
        let bundle = cyclic_bundle(20);
        let mut eval = StreamEval::new(EvalOptions::default(), |_, _| {
            Box::new(CosmosPredictor::new(1, 0))
        });
        let verdicts: Vec<Verdict> = bundle.records().iter().map(|r| eval.push(r)).collect();
        let report = eval.finish();
        assert_eq!(verdicts.len(), bundle.records().len());
        let hits = verdicts.iter().filter(|v| **v == Verdict::Hit).count() as u64;
        let offered = verdicts
            .iter()
            .filter(|v| **v != Verdict::NoPrediction)
            .count() as u64;
        assert_eq!(hits, report.overall.hits);
        assert_eq!(offered, report.coverage.hits);
        // The first record is always cold.
        assert_eq!(verdicts[0], Verdict::NoPrediction);
    }

    #[test]
    fn chunked_evaluation_matches_whole_bundle() {
        let bundle = cyclic_bundle(40);
        let whole = evaluate_cosmos(&bundle, 2, 0);
        for chunk_len in [1usize, 3, 7, 80] {
            let mut eval = StreamEval::new(EvalOptions::default(), |_, _| {
                Box::new(CosmosPredictor::new(2, 0))
            });
            for chunk in bundle.records().chunks(chunk_len) {
                eval.push_all(chunk);
            }
            let chunked = eval.finish();
            assert_eq!(chunked.overall, whole.overall, "chunk_len {chunk_len}");
            assert_eq!(chunked.cache, whole.cache);
            assert_eq!(chunked.coverage, whole.coverage);
            assert_eq!(chunked.per_arc, whole.per_arc);
            assert_eq!(chunked.per_iteration, whole.per_iteration);
            assert_eq!(chunked.per_agent, whole.per_agent);
        }
    }

    #[test]
    fn counts_helpers() {
        let mut c = Counts::default();
        assert_eq!(c.rate(), 0.0);
        c.add(true);
        c.add(false);
        assert_eq!(c.percent(), 50.0);
        let mut d = Counts::default();
        d.merge(c);
        assert_eq!(d.total, 2);
    }
}
