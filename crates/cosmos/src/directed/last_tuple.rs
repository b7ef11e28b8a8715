//! The last-tuple baseline: predict a repeat of the previous message.

use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::BlockAddr;
use std::collections::HashMap;

/// Predicts that the next incoming message for a block is identical to the
/// last one — the cheapest possible per-block predictor and a useful floor
/// for Cosmos comparisons.
#[derive(Debug, Clone, Default)]
pub struct LastTuple {
    last: HashMap<BlockAddr, PredTuple>,
}

impl LastTuple {
    /// Creates the predictor.
    pub fn new() -> Self {
        LastTuple::default()
    }
}

impl MessagePredictor for LastTuple {
    fn name(&self) -> &'static str {
        "last-tuple"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        self.last.get(&block).copied()
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        self.last.insert(block, tuple);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stache::{MsgType, NodeId};

    #[test]
    fn repeats_the_last_observation() {
        let mut p = LastTuple::new();
        let b = BlockAddr::new(1);
        assert_eq!(p.predict(b), None);
        let t1 = PredTuple::new(NodeId::new(1), MsgType::GetRoRequest);
        let t2 = PredTuple::new(NodeId::new(2), MsgType::GetRwRequest);
        p.observe(b, t1);
        assert_eq!(p.predict(b), Some(t1));
        p.observe(b, t2);
        assert_eq!(p.predict(b), Some(t2));
        assert_eq!(p.predict(BlockAddr::new(9)), None);
    }
}
