//! Directed dynamic-self-invalidation prediction (Lebeck & Wood '95 —
//! Figure 8(a)).
//!
//! Dynamic self-invalidation watches for blocks that are repeatedly filled
//! into a cache and then invalidated by a remote write or read — the
//! producer-consumer churn of Figure 4(a) — and replaces them early. As a
//! message predictor this is the cache-side rule set: after a fill,
//! predict the matching invalidation; after an invalidation, predict the
//! refill. It is cache-side only, like the technique itself, so directory
//! messages get no prediction.

use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::{BlockAddr, MsgType, NodeId, Role};
use std::collections::HashMap;

/// The directed self-invalidation predictor for one agent.
#[derive(Debug, Clone)]
pub struct DsiPredictor {
    role: Role,
    last: HashMap<BlockAddr, (NodeId, MsgType)>,
}

impl DsiPredictor {
    /// Creates a predictor for an agent of the given role.
    pub fn new(role: Role) -> Self {
        DsiPredictor {
            role,
            last: HashMap::new(),
        }
    }
}

impl MessagePredictor for DsiPredictor {
    fn name(&self) -> &'static str {
        "self-invalidation"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        if self.role != Role::Cache {
            return None;
        }
        let &(home, last) = self.last.get(&block)?;
        let next = match last {
            // Producer loop (Figure 8a): exclusive fill, then the
            // consumer's read invalidates us (half-migratory).
            MsgType::GetRwResponse => MsgType::InvalRwRequest,
            MsgType::InvalRwRequest => MsgType::GetRwResponse,
            // Consumer loop: shared fill, then the producer's write
            // invalidates us.
            MsgType::GetRoResponse => MsgType::InvalRoRequest,
            MsgType::InvalRoRequest => MsgType::GetRoResponse,
            _ => return None,
        };
        Some(PredTuple::new(home, next))
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        if self.role == Role::Cache {
            self.last.insert(block, (tuple.sender, tuple.mtype));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn producer_loop() {
        let mut p = DsiPredictor::new(Role::Cache);
        let b = BlockAddr::new(1);
        let home = NodeId::new(0);
        p.observe(b, PredTuple::new(home, MsgType::GetRwResponse));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(home, MsgType::InvalRwRequest))
        );
        p.observe(b, PredTuple::new(home, MsgType::InvalRwRequest));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(home, MsgType::GetRwResponse))
        );
    }

    #[test]
    fn consumer_loop() {
        let mut p = DsiPredictor::new(Role::Cache);
        let b = BlockAddr::new(1);
        let home = NodeId::new(3);
        p.observe(b, PredTuple::new(home, MsgType::GetRoResponse));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(home, MsgType::InvalRoRequest))
        );
    }

    #[test]
    fn directory_side_is_silent() {
        let mut p = DsiPredictor::new(Role::Directory);
        let b = BlockAddr::new(1);
        p.observe(b, PredTuple::new(NodeId::new(1), MsgType::GetRwRequest));
        assert_eq!(p.predict(b), None);
    }

    #[test]
    fn silent_after_non_loop_messages() {
        let mut p = DsiPredictor::new(Role::Cache);
        let b = BlockAddr::new(1);
        p.observe(b, PredTuple::new(NodeId::new(0), MsgType::UpgradeResponse));
        assert_eq!(p.predict(b), None);
    }
}
