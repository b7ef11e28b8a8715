#[cfg(test)]
mod tests {
    use crate::{CosmosPredictor, MessagePredictor, PredTuple, CONFIDENCE_MAX};
    use stache::BlockAddr;
    use stache::{MsgType, NodeId};

    fn t(n: usize, m: MsgType) -> PredTuple {
        PredTuple::new(NodeId::new(n), m)
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(i)
    }

    #[test]
    fn threshold_zero_behaves_like_plain_cosmos() {
        let mut p = CosmosPredictor::new(1, 0).confident(0);
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        p.observe(b(1), t(2, MsgType::GetRwRequest));
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        assert_eq!(p.predict(b(1)), Some(t(2, MsgType::GetRwRequest)));
    }

    #[test]
    fn needs_confirmations_before_answering() {
        let mut p = CosmosPredictor::new(1, 0).confident(2);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        // First sighting of A -> B: confidence 0, silent.
        p.observe(b(1), a);
        p.observe(b(1), bb);
        p.observe(b(1), a);
        assert_eq!(p.predict(b(1)), None);
        assert_eq!(p.predict_with_confidence(b(1)), Some((bb, 0)));
        // One confirmation: confidence 1, still silent.
        p.observe(b(1), bb);
        p.observe(b(1), a);
        assert_eq!(p.predict(b(1)), None);
        // Second confirmation: confidence 2, speaks.
        p.observe(b(1), bb);
        p.observe(b(1), a);
        assert_eq!(p.predict(b(1)), Some(bb));
    }

    #[test]
    fn a_miss_resets_confidence() {
        let mut p = CosmosPredictor::new(1, 0).confident(1);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        let c = t(3, MsgType::UpgradeRequest);
        for _ in 0..3 {
            p.observe(b(1), a);
            p.observe(b(1), bb);
        }
        p.observe(b(1), a);
        assert_eq!(p.predict(b(1)), Some(bb));
        // Noise: A -> C. The entry is replaced at confidence 0: silent.
        p.observe(b(1), c);
        p.observe(b(1), a);
        assert_eq!(p.predict(b(1)), None);
    }

    #[test]
    fn confidence_saturates() {
        let mut p = CosmosPredictor::new(1, 0).confident(0);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        for _ in 0..10 {
            p.observe(b(1), a);
            p.observe(b(1), bb);
        }
        p.observe(b(1), a);
        let (_, conf) = p.predict_with_confidence(b(1)).unwrap();
        assert_eq!(conf, CONFIDENCE_MAX);
    }

    #[test]
    fn threshold_clamped_to_max() {
        let p = CosmosPredictor::new(2, 0).confident(200);
        assert_eq!(p.threshold(), CONFIDENCE_MAX);
    }
}
