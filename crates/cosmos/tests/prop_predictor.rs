//! Property tests for the Cosmos predictor: shift-register laws, filter
//! semantics against a reference model, determinism, convergence on
//! periodic streams, and the replay's arc accounting.
//!
//! Seeded cases on the in-house generator (`simx::rng::check`).

mod seeded;

use cosmos::eval::evaluate_cosmos;
use cosmos::{CosmosPredictor, MessagePredictor, Mhr, PredTuple};
use seeded::{stream, tuple};
use simx::rng::check;
use stache::{BlockAddr, NodeId, Role};
use std::collections::HashMap;
use trace::{MsgRecord, TraceBundle, TraceMeta};

/// The MHR behaves like a bounded FIFO of the last `depth` tuples.
#[test]
fn mhr_is_a_bounded_fifo() {
    check(128, |rng| {
        let depth = rng.gen_range(1..5);
        let mut mhr = Mhr::new(depth);
        let mut model: Vec<PredTuple> = Vec::new();
        for _ in 0..rng.gen_range(0..40) {
            let t = tuple(rng);
            mhr.shift(t);
            model.push(t);
            if model.len() > depth {
                model.remove(0);
            }
            assert_eq!(mhr.contents(), model);
            assert_eq!(mhr.is_full(), model.len() == depth);
            if let Some(key) = mhr.key() {
                assert_eq!(key, cosmos::packed::pack_key(&model));
            }
        }
    });
}

/// The packed tuple encoding round-trips.
#[test]
fn tuple_pack_roundtrip() {
    check(128, |rng| {
        let t = tuple(rng);
        assert_eq!(PredTuple::unpack(t.pack()), Some(t));
    });
}

/// The full predictor agrees with a direct reference model: a map from
/// (block, last-depth-tuples) to a prediction with a saturating miss
/// counter.
#[test]
fn predictor_matches_reference_model() {
    check(128, |rng| {
        let depth = rng.gen_range(1..4);
        let filter_max = rng.gen_range(0..3) as u8;
        let mut sut = CosmosPredictor::new(depth, filter_max);
        let mut histories: HashMap<u64, Vec<PredTuple>> = HashMap::new();
        let mut pht: HashMap<(u64, Vec<PredTuple>), (PredTuple, u8)> = HashMap::new();

        for (block, tuple) in stream(rng, 3, 120) {
            let b = BlockAddr::new(block);
            let history = histories.entry(block).or_default();
            // Reference prediction.
            let expected = if history.len() == depth {
                pht.get(&(block, history.clone())).map(|&(p, _)| p)
            } else {
                None
            };
            assert_eq!(sut.predict(b), expected);
            // Reference update.
            if history.len() == depth {
                let key = (block, history.clone());
                match pht.get_mut(&key) {
                    None => {
                        pht.insert(key, (tuple, 0));
                    }
                    Some((pred, misses)) => {
                        if *pred == tuple {
                            *misses = 0;
                        } else if *misses < filter_max {
                            *misses += 1;
                        } else {
                            *pred = tuple;
                            *misses = 0;
                        }
                    }
                }
                history.remove(0);
            }
            history.push(tuple);
            sut.observe(b, tuple);
        }
    });
}

/// On a purely periodic stream, a filterless Cosmos of depth >= 1
/// reaches 100% accuracy after at most two periods, provided each
/// history uniquely determines the successor (a period longer than the
/// depth, of pairwise-distinct tuples, has distinct windows).
#[test]
fn periodic_streams_converge() {
    check(128, |rng| {
        let depth = rng.gen_range(1..4);
        let len = rng.gen_range(depth + 1..6);
        let mut period: Vec<PredTuple> = Vec::new();
        while period.len() < len {
            let t = tuple(rng);
            if !period.contains(&t) {
                period.push(t);
            }
        }
        let reps = rng.gen_range(3..6);

        let b = BlockAddr::new(0);
        let mut p = CosmosPredictor::new(depth, 0);
        // Warm up for two full periods.
        for t in period.iter().cycle().take(period.len() * 2) {
            p.observe(b, *t);
        }
        // Every subsequent message is predicted exactly.
        for t in period.iter().cycle().take(period.len() * reps) {
            assert_eq!(p.predict(b), Some(*t));
            p.observe(b, *t);
        }
    });
}

/// Determinism: identical streams produce identical predictor state
/// and predictions.
#[test]
fn predictor_is_deterministic() {
    check(128, |rng| {
        let mut a = CosmosPredictor::new(2, 1);
        let mut b = CosmosPredictor::new(2, 1);
        for (block, tuple) in stream(rng, 4, 80) {
            let blk = BlockAddr::new(block);
            assert_eq!(a.predict(blk), b.predict(blk));
            a.observe(blk, tuple);
            b.observe(blk, tuple);
        }
        assert_eq!(a.mhr_entries(), b.mhr_entries());
        assert_eq!(a.pht_entries(), b.pht_entries());
    });
}

/// Memory accounting: MHR entries equal distinct blocks observed, and
/// PHT entries never exceed (observations - depth) summed per block.
#[test]
fn memory_accounting_bounds() {
    check(128, |rng| {
        let depth = rng.gen_range(1..4);
        let mut p = CosmosPredictor::new(depth, 0);
        let mut per_block: HashMap<u64, usize> = HashMap::new();
        for (block, tuple) in stream(rng, 5, 100) {
            p.observe(BlockAddr::new(block), tuple);
            *per_block.entry(block).or_insert(0) += 1;
        }
        assert_eq!(p.mhr_entries(), per_block.len());
        let max_pht: usize = per_block.values().map(|&n| n.saturating_sub(depth)).sum();
        assert!(p.pht_entries() <= max_pht);
        // Blocks with <= depth observations allocate no PHT (Table 7 rule):
        if per_block.values().all(|&n| n <= depth) {
            assert_eq!(p.pht_entries(), 0);
        }
    });
}

/// Arc counts: a replay's arc references per role equal (records per
/// `(node, role, block)` stream - 1) summed over that role's streams.
#[test]
fn arc_totals_match_stream_lengths() {
    check(128, |rng| {
        // Few nodes and blocks, so streams are longer than one record.
        let mut b = TraceBundle::new(TraceMeta::new("arcs", 3, 1));
        b.extend_records((0..rng.gen_range(0..=100)).map(|_| {
            let t = tuple(rng);
            MsgRecord {
                time_ns: rng.gen(),
                node: NodeId::new(rng.gen_range(0..3)),
                role: if rng.gen_bool(0.5) {
                    Role::Directory
                } else {
                    Role::Cache
                },
                block: BlockAddr::new(rng.gen_range(0..4) as u64),
                sender: t.sender,
                mtype: t.mtype,
                iteration: rng.gen() as u32,
            }
        }));
        let report = evaluate_cosmos(&b, 1, 0);
        let mut streams: HashMap<(NodeId, Role, BlockAddr), u64> = HashMap::new();
        for r in b.records() {
            *streams.entry((r.node, r.role, r.block)).or_insert(0) += 1;
        }
        for role in [Role::Cache, Role::Directory] {
            let expected: u64 = streams
                .iter()
                .filter(|((_, r, _), _)| *r == role)
                .map(|(_, &n)| n - 1)
                .sum();
            let arcs: u64 = report
                .per_arc
                .iter()
                .filter(|(k, _)| k.role == role)
                .map(|(_, c)| c.total)
                .sum();
            assert_eq!(arcs, expected);
        }
    });
}
