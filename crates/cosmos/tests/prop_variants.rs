//! Property tests for the predictor's constructor arguments: each
//! argument at its neutral value is plain Cosmos, the confidence gate
//! never lies about its threshold, and a bounded table respects its
//! capacity.
//!
//! Seeded cases on the in-house generator (`simx::rng::check`).

mod seeded;

use cosmos::{CosmosPredictor, EvictingCosmos, MessagePredictor, PredTuple};
use seeded::stream;
use simx::rng::check;
use stache::BlockAddr;

/// Feeds `stream` to both predictors, asserting they predict alike
/// before every arrival.
fn assert_same_predictions(
    mut left: CosmosPredictor,
    mut right: CosmosPredictor,
    stream: &[(u64, PredTuple)],
) -> (CosmosPredictor, CosmosPredictor) {
    for &(b, t) in stream {
        let b = BlockAddr::new(b);
        assert_eq!(left.predict(b), right.predict(b));
        left.observe(b, t);
        right.observe(b, t);
    }
    (left, right)
}

/// A confidence threshold of 0 predicts exactly like no gate at all.
#[test]
fn confidence_zero_equals_plain() {
    check(128, |rng| {
        let gated = CosmosPredictor::new(2, 0).confident(0);
        let plain = CosmosPredictor::new(2, 0);
        assert_same_predictions(gated, plain, &stream(rng, 6, 200));
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
            let (roomy, _) = assert_same_predictions(roomy, plain, &stream);
            assert_eq!(roomy.evictions(), 0);
        }
    });
}
