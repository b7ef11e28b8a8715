//! Differential tests for the scoring fast path.
//!
//! Three rewrites made scoring a record one table probe and no tree walk;
//! each keeps its predecessor alive here as an executable reference:
//!
//! * the index-plus-slab bounded table ([`EvictingCosmos::new`]) against
//!   a `Vec` of blocks with last-use timestamps and a min-scan victim
//!   search;
//! * [`MessagePredictor::predict_then_observe`] against `predict` then
//!   `observe`, for every predictor family the contender table and the
//!   live policies construct;
//! * [`StreamEval`]'s per-iteration dense accounting against the
//!   per-record map accounting it replaced.

use cosmos::directed::{
    Composition, DsiPredictor, LastTuple, MigratoryPredictor, MostCommon, RmwPredictor,
};
use cosmos::{
    CosmosPredictor, Counts, EvalOptions, EvictingCosmos, MemoryFootprint, MessagePredictor,
    PredTuple, StreamEval,
};
use simx::SystemConfig;
use stache::{BlockAddr, MsgType, NodeId, ProtocolConfig, Role};
use std::collections::{BTreeMap, HashMap};
use trace::{ArcKey, MsgRecord, TraceBundle};
use workloads::{run_to_trace, small_suite};

fn small_traces() -> Vec<TraceBundle> {
    small_suite()
        .into_iter()
        .map(|mut w| {
            run_to_trace(w.as_mut(), ProtocolConfig::paper(), SystemConfig::paper())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
        })
        .collect()
}

/// A stream in which no `(agent, block)` pair ever repeats — the all-cold
/// regime of the streamed scale cells, where a bounded table evicts on
/// every record once full.
fn never_repeating(records: usize) -> Vec<MsgRecord> {
    (0..records)
        .map(|i| MsgRecord {
            time_ns: i as u64,
            node: NodeId::new(i % 3),
            role: Role::Directory,
            block: BlockAddr::new(i as u64 * 4096 + 17 * 64 + 1),
            sender: NodeId::new(i % 5),
            mtype: MsgType::GetRwRequest,
            iteration: 0,
        })
        .collect()
}

/// The LRU table as a flat list: each tracked block keeps a one-block
/// Cosmos and the time it was last *observed*; a full table drops the
/// entry with the smallest timestamp.
struct RefEvicting {
    depth: usize,
    capacity: usize,
    clock: u64,
    blocks: Vec<(BlockAddr, u64, CosmosPredictor)>,
    evictions: u64,
}

impl RefEvicting {
    fn new(depth: usize, capacity: usize) -> Self {
        RefEvicting {
            depth,
            capacity,
            clock: 0,
            blocks: Vec::new(),
            evictions: 0,
        }
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        let (_, _, p) = self.blocks.iter().find(|(b, _, _)| *b == block)?;
        p.predict(block)
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        self.clock += 1;
        let at = match self.blocks.iter().position(|(b, _, _)| *b == block) {
            Some(at) => at,
            None => {
                if self.blocks.len() == self.capacity {
                    let (victim, _) = (self.blocks.iter().enumerate())
                        .min_by_key(|(_, (_, used, _))| *used)
                        .expect("capacity is positive");
                    self.blocks.swap_remove(victim);
                    self.evictions += 1;
                }
                self.blocks
                    .push((block, 0, CosmosPredictor::new(self.depth, 0)));
                self.blocks.len() - 1
            }
        };
        self.blocks[at].1 = self.clock;
        self.blocks[at].2.observe(block, tuple);
    }

    fn memory(&self) -> MemoryFootprint {
        (self.blocks.iter()).fold(MemoryFootprint::default(), |m, (_, _, p)| m + p.memory())
    }
}

#[test]
fn slab_evicting_cosmos_matches_the_timestamp_scan_reference() {
    let mut streams: Vec<(String, Vec<MsgRecord>)> = small_traces()
        .iter()
        .map(|t| (t.meta().app.clone(), t.records().to_vec()))
        .collect();
    streams.push(("never-repeating".into(), never_repeating(6000)));
    for (app, records) in &streams {
        for capacity in [1usize, 2, 7, 64, 1000] {
            let mut fleet: HashMap<(NodeId, Role), (CosmosPredictor, RefEvicting)> = HashMap::new();
            for (n, r) in records.iter().enumerate() {
                let (real, reference) = fleet.entry((r.node, r.role)).or_insert_with(|| {
                    (
                        EvictingCosmos::new(2, 0, capacity),
                        RefEvicting::new(2, capacity),
                    )
                });
                let observed = PredTuple::new(r.sender, r.mtype);
                let expected = reference.predict(r.block);
                reference.observe(r.block, observed);
                assert_eq!(
                    real.predict_then_observe(r.block, observed),
                    expected,
                    "{app} capacity {capacity} record {n}"
                );
            }
            for (agent, (real, reference)) in &fleet {
                assert_eq!(
                    real.evictions(),
                    reference.evictions,
                    "{app} capacity {capacity} {agent:?}"
                );
                assert_eq!(
                    real.memory(),
                    reference.memory(),
                    "{app} capacity {capacity} {agent:?}"
                );
            }
        }
    }
}

type Family = (&'static str, fn(Role) -> Box<dyn MessagePredictor>);

/// Every `MessagePredictor` family the contender table, the live policies
/// and the streamed replay build.
fn families() -> Vec<Family> {
    vec![
        ("cosmos-d1", |_| Box::new(CosmosPredictor::new(1, 0))),
        ("cosmos-d3-f1", |_| Box::new(CosmosPredictor::new(3, 1))),
        ("evicting-8", |_| Box::new(EvictingCosmos::new(2, 0, 8))),
        ("evicting-8192", |_| {
            Box::new(EvictingCosmos::new(2, 0, 8192))
        }),
        ("conf>=2", |_| {
            Box::new(CosmosPredictor::new(2, 0).confident(2))
        }),
        ("migratory", |role| Box::new(MigratoryPredictor::new(role))),
        ("dsi", |role| Box::new(DsiPredictor::new(role))),
        ("rmw", |role| Box::new(RmwPredictor::new(role))),
        ("composition", |role| Box::new(Composition::new(role))),
        ("last-tuple", |_| Box::new(LastTuple::new())),
        ("most-common", |_| Box::new(MostCommon::new())),
    ]
}

#[test]
fn fused_step_equals_predict_then_observe_for_every_family() {
    let traces = small_traces();
    for (name, make) in families() {
        for trace in &traces {
            let app = &trace.meta().app;
            type Pair = (Box<dyn MessagePredictor>, Box<dyn MessagePredictor>);
            let mut fleet: HashMap<(NodeId, Role), Pair> = HashMap::new();
            for (n, r) in trace.records().iter().enumerate() {
                let (fused, split) = fleet
                    .entry((r.node, r.role))
                    .or_insert_with(|| (make(r.role), make(r.role)));
                let observed = PredTuple::new(r.sender, r.mtype);
                let expected = split.predict(r.block);
                split.observe(r.block, observed);
                assert_eq!(
                    fused.predict_then_observe(r.block, observed),
                    expected,
                    "{name} on {app}, record {n}"
                );
            }
            for (agent, (fused, split)) in &fleet {
                let at = format!("{name} on {app}, {agent:?}");
                assert_eq!(fused.memory(), split.memory(), "{at}");
                assert_eq!(fused.core_stats(), split.core_stats(), "{at}");
            }
        }
    }
}

/// What `StreamEval` accounts per scored record, in the maps it used to
/// walk for every one of them.
#[derive(Default)]
struct RefAccounting {
    overall: Counts,
    cache: Counts,
    directory: Counts,
    coverage: Counts,
    per_arc: HashMap<ArcKey, Counts>,
    per_agent: HashMap<(NodeId, Role), Counts>,
    per_iteration: BTreeMap<u32, Counts>,
    per_arc_by_iteration: HashMap<ArcKey, BTreeMap<u32, Counts>>,
}

fn reference_accounting(records: &[MsgRecord], opts: &EvalOptions) -> RefAccounting {
    type Agent = (CosmosPredictor, HashMap<BlockAddr, MsgType>);
    let mut fleet: HashMap<(NodeId, Role), Agent> = HashMap::new();
    let mut out = RefAccounting::default();
    for r in records {
        let (predictor, prev_type) = fleet
            .entry((r.node, r.role))
            .or_insert_with(|| (CosmosPredictor::new(2, 0), HashMap::new()));
        let observed = PredTuple::new(r.sender, r.mtype);
        let predicted = predictor.predict(r.block);
        if r.iteration >= opts.score_from_iteration {
            let hit = predicted == Some(observed);
            out.overall.add(hit);
            match r.role {
                Role::Cache => out.cache.add(hit),
                Role::Directory => out.directory.add(hit),
            }
            out.coverage.add(predicted.is_some());
            out.per_agent.entry((r.node, r.role)).or_default().add(hit);
            out.per_iteration.entry(r.iteration).or_default().add(hit);
            if let Some(prev) = prev_type.get(&r.block) {
                let key = ArcKey {
                    role: r.role,
                    prev: *prev,
                    next: r.mtype,
                };
                out.per_arc.entry(key).or_default().add(hit);
                out.per_arc_by_iteration
                    .entry(key)
                    .or_default()
                    .entry(r.iteration)
                    .or_default()
                    .add(hit);
            }
        }
        prev_type.insert(r.block, r.mtype);
        predictor.observe(r.block, observed);
    }
    out
}

fn assert_same_accounting(what: &str, records: &[MsgRecord], opts: &EvalOptions) {
    let expected = reference_accounting(records, opts);
    let mut eval = StreamEval::new(opts.clone(), |_, _| {
        Box::new(CosmosPredictor::new(2, 0)) as Box<dyn MessagePredictor>
    });
    for r in records {
        eval.push(r);
    }
    let report = eval.finish();
    assert!(expected.overall.total > 0, "{what}: nothing was scored");
    assert_eq!(report.overall, expected.overall, "{what}: overall");
    assert_eq!(report.cache, expected.cache, "{what}: cache");
    assert_eq!(report.directory, expected.directory, "{what}: directory");
    assert_eq!(report.coverage, expected.coverage, "{what}: coverage");
    assert_eq!(report.per_arc, expected.per_arc, "{what}: per_arc");
    assert_eq!(report.per_agent, expected.per_agent, "{what}: per_agent");
    assert_eq!(
        report.per_iteration, expected.per_iteration,
        "{what}: per_iteration"
    );
    assert_eq!(
        report.per_arc_by_iteration, expected.per_arc_by_iteration,
        "{what}: per_arc_by_iteration"
    );
}

/// Fisher-Yates under a fixed xorshift stream.
fn shuffled(mut records: Vec<MsgRecord>) -> Vec<MsgRecord> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..records.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        records.swap(i, (x % (i as u64 + 1)) as usize);
    }
    records
}

#[test]
fn dense_accounting_matches_per_record_map_accounting() {
    for trace in small_traces() {
        let app = &trace.meta().app;
        let records = trace.records();
        let defaults = EvalOptions::default();
        assert_same_accounting(&format!("{app} in order"), records, &defaults);

        // Iterations interleaved at random: the open iteration changes on
        // nearly every record and every one of them is reopened many times.
        let mixed = shuffled(records.to_vec());
        assert_same_accounting(&format!("{app} shuffled"), &mixed, &defaults);

        // Warm-up exclusion: early iterations train but never open.
        let opts = EvalOptions {
            score_from_iteration: 2,
        };
        assert_same_accounting(&format!("{app} from 2"), records, &opts);
        assert_same_accounting(&format!("{app} shuffled from 2"), &mixed, &opts);
    }
}
