//! The per-block modal baseline.

use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::BlockAddr;
use std::collections::HashMap;

/// Predicts each block's most frequently observed tuple so far (ties break
/// toward the earliest-seen tuple). History-less in the Cosmos sense — no
/// pattern context — so it bounds what a static per-block hint could do.
#[derive(Debug, Clone, Default)]
pub struct MostCommon {
    counts: HashMap<BlockAddr, HashMap<PredTuple, (u64, u64)>>, // (count, first_seen_seq)
    seq: u64,
}

impl MostCommon {
    /// Creates the predictor.
    pub fn new() -> Self {
        MostCommon::default()
    }
}

impl MessagePredictor for MostCommon {
    fn name(&self) -> &'static str {
        "most-common"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        let counts = self.counts.get(&block)?;
        counts
            .iter()
            .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.cmp(&a.1 .1)))
            .map(|(t, _)| *t)
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        self.seq += 1;
        let entry = self
            .counts
            .entry(block)
            .or_default()
            .entry(tuple)
            .or_insert((0, self.seq));
        entry.0 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stache::{MsgType, NodeId};

    #[test]
    fn tracks_the_mode() {
        let mut p = MostCommon::new();
        let b = BlockAddr::new(1);
        let a = PredTuple::new(NodeId::new(1), MsgType::GetRoRequest);
        let c = PredTuple::new(NodeId::new(2), MsgType::GetRwRequest);
        p.observe(b, a);
        p.observe(b, c);
        p.observe(b, c);
        assert_eq!(p.predict(b), Some(c));
        p.observe(b, a);
        p.observe(b, a);
        assert_eq!(p.predict(b), Some(a));
    }

    #[test]
    fn ties_break_to_earliest_seen() {
        let mut p = MostCommon::new();
        let b = BlockAddr::new(1);
        let a = PredTuple::new(NodeId::new(1), MsgType::GetRoRequest);
        let c = PredTuple::new(NodeId::new(2), MsgType::GetRwRequest);
        p.observe(b, a);
        p.observe(b, c);
        assert_eq!(p.predict(b), Some(a));
    }
}
