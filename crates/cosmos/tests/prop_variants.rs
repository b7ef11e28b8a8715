//! Property tests for the predictor's constructor arguments and the
//! bounded second-level layout: each argument at its neutral value is
//! plain Cosmos, macroblock grouping is exactly index translation, the
//! confidence gate never lies about its threshold, a bounded table
//! respects its capacity, and `PreallocCosmos`' memory bound is hard.
//!
//! Seeded cases on the in-house generator (`simx::rng::check`).

mod seeded;

use cosmos::{CosmosPredictor, EvictingCosmos, MessagePredictor, PreallocCosmos, PredTuple};
use seeded::{stream, tuple};
use simx::rng::check;
use stache::{BlockAddr, NodeId};

/// Feeds `stream` to `left` and its image under `right_sees` to `right`,
/// asserting they predict alike before every arrival.
fn assert_same_predictions(
    mut left: CosmosPredictor,
    mut right: CosmosPredictor,
    stream: &[(u64, PredTuple)],
    right_sees: impl Fn(u64, PredTuple) -> (u64, PredTuple),
) -> (CosmosPredictor, CosmosPredictor) {
    for &(b, t) in stream {
        let (rb, rt) = right_sees(b, t);
        let (lb, rb) = (BlockAddr::new(b), BlockAddr::new(rb));
        assert_eq!(left.predict(lb), right.predict(rb));
        left.observe(lb, t);
        right.observe(rb, rt);
    }
    (left, right)
}

/// `PreallocCosmos` never exceeds its static + pool budget, whatever the
/// stream does.
#[test]
fn prealloc_memory_is_hard_bounded() {
    check(128, |rng| {
        let static_entries = rng.gen_range(1..5);
        let pool = rng.gen_range(0..20);
        let mut p = PreallocCosmos::new(1, 0, static_entries, pool);
        let mut blocks_seen = std::collections::HashSet::new();
        for (b, t) in stream(rng, 12, 300) {
            blocks_seen.insert(b);
            p.observe(BlockAddr::new(b), t);
        }
        let bound = blocks_seen.len() * static_entries + pool;
        let held = p.memory().pht_entries;
        assert!(held <= bound, "{held} entries > bound {bound}");
        assert!(p.pool_used() <= pool);
    });
}

/// A confidence threshold of 0 predicts exactly like no gate at all.
#[test]
fn confidence_zero_equals_plain() {
    check(128, |rng| {
        let gated = CosmosPredictor::new(2, 0).confident(0);
        let plain = CosmosPredictor::new(2, 0);
        assert_same_predictions(gated, plain, &stream(rng, 6, 200), |b, t| (b, t));
    });
}

/// A gated prediction is the stored one and carries at least the
/// threshold's confidence.
#[test]
fn confidence_gate_is_honest() {
    check(128, |rng| {
        let mut p = CosmosPredictor::new(1, 0).confident(rng.gen_range(0..4) as u8);
        for (b, t) in stream(rng, 6, 200) {
            let blk = BlockAddr::new(b);
            if let Some(answer) = p.predict(blk) {
                let (raw, conf) = p.predict_with_confidence(blk).expect("gated implies raw");
                assert_eq!(answer, raw);
                assert!(conf >= p.threshold());
            }
            p.observe(blk, t);
        }
    });
}

/// Raising the threshold can only reduce coverage, never grow it.
#[test]
fn higher_threshold_means_fewer_answers() {
    check(128, |rng| {
        let mut low = CosmosPredictor::new(1, 0).confident(0);
        let mut high = CosmosPredictor::new(1, 0).confident(2);
        let (mut low_answers, mut high_answers) = (0u32, 0u32);
        for (b, t) in stream(rng, 6, 300) {
            let blk = BlockAddr::new(b);
            low_answers += u32::from(low.predict(blk).is_some());
            high_answers += u32::from(high.predict(blk).is_some());
            low.observe(blk, t);
            high.observe(blk, t);
        }
        assert!(high_answers <= low_answers);
    });
}

/// Macroblock shift 0 is bit-identical to plain Cosmos; any shift is
/// plain Cosmos over translated addresses.
#[test]
fn macroblock_is_index_translation() {
    check(128, |rng| {
        let shift = rng.gen_range(0..5) as u32;
        let grouped = CosmosPredictor::new(2, 1).macroblock(shift);
        let plain = CosmosPredictor::new(2, 1);
        let (grouped, plain) =
            assert_same_predictions(grouped, plain, &stream(rng, 40, 200), |b, t| {
                (b >> shift, t)
            });
        assert_eq!(grouped.memory(), plain.memory());
    });
}

/// Dropping the sender is plain Cosmos over tuples whose sender is
/// already processor 0.
#[test]
fn type_only_is_tuple_translation() {
    check(128, |rng| {
        let typed = CosmosPredictor::new(2, 1).type_only();
        let plain = CosmosPredictor::new(2, 1);
        let (typed, plain) = assert_same_predictions(typed, plain, &stream(rng, 6, 200), |b, t| {
            (b, PredTuple::new(NodeId::new(0), t.mtype))
        });
        assert_eq!(typed.memory(), plain.memory());
    });
}

/// The bounded MHT never exceeds its capacity, and with capacity at
/// least the working set it equals plain Cosmos.
#[test]
fn evicting_capacity_holds() {
    check(128, |rng| {
        let capacity = rng.gen_range(1..10);
        let stream = stream(rng, 8, 250);
        let mut ev = EvictingCosmos::new(1, 0, capacity);
        for &(b, t) in &stream {
            ev.observe(BlockAddr::new(b), t);
            assert!(ev.memory().mhr_entries <= capacity);
        }
        if capacity >= 8 {
            let roomy = EvictingCosmos::new(1, 0, capacity);
            let plain = CosmosPredictor::new(1, 0);
            let (roomy, _) = assert_same_predictions(roomy, plain, &stream, |b, t| (b, t));
            assert_eq!(roomy.evictions(), 0);
        }
    });
}

/// Lookahead accounting is structurally sound: deeper steps can never
/// be scored more often than shallower ones (every d+1-step score
/// implies a d-step score from the same chain).
#[test]
fn lookahead_totals_are_monotone() {
    use trace::{MsgRecord, TraceBundle, TraceMeta};
    check(64, |rng| {
        let mut bundle = TraceBundle::new(TraceMeta::new("prop", 4, 1));
        for i in 0..rng.gen_range(10..150) {
            let t = tuple(rng);
            bundle.push(MsgRecord {
                time_ns: i as u64,
                node: NodeId::new(0),
                role: stache::Role::Cache,
                block: BlockAddr::new(rng.gen_range(0..3) as u64),
                sender: t.sender,
                mtype: t.mtype,
                iteration: 0,
            });
        }
        let by_distance = cosmos::evaluate_lookahead(&bundle, 1, 4).by_distance;
        for d in 0..3 {
            assert!(
                by_distance[d].total >= by_distance[d + 1].total,
                "distance {} scored {} < distance {} scored {}",
                d + 1,
                by_distance[d].total,
                d + 2,
                by_distance[d + 1].total
            );
        }
    });
}
