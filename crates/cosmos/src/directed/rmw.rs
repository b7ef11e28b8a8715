//! Directed read-modify-write prediction (the SGI Origin protocol's
//! optimisation, paper §1).
//!
//! The Origin predicts that a processor reading a block will shortly write
//! it, and can answer a shared request with an exclusive grant. As a
//! message predictor: after a `get_ro_request` from `p`, the directory
//! predicts an `upgrade_request` from the same `p`; after a
//! `get_ro_response`, a cache predicts the matching `upgrade_response`.

use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::{BlockAddr, MsgType, NodeId, Role};
use std::collections::HashMap;

/// The directed read-modify-write predictor for one agent.
#[derive(Debug, Clone)]
pub struct RmwPredictor {
    role: Role,
    last: HashMap<BlockAddr, (NodeId, MsgType)>,
}

impl RmwPredictor {
    /// Creates a predictor for an agent of the given role.
    pub fn new(role: Role) -> Self {
        RmwPredictor {
            role,
            last: HashMap::new(),
        }
    }
}

impl MessagePredictor for RmwPredictor {
    fn name(&self) -> &'static str {
        "read-modify-write"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        let &(sender, last) = self.last.get(&block)?;
        match (self.role, last) {
            (Role::Directory, MsgType::GetRoRequest) => {
                Some(PredTuple::new(sender, MsgType::UpgradeRequest))
            }
            (Role::Cache, MsgType::GetRoResponse) => {
                Some(PredTuple::new(sender, MsgType::UpgradeResponse))
            }
            _ => None,
        }
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        self.last.insert(block, (tuple.sender, tuple.mtype));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_predicts_upgrade_after_read() {
        let mut p = RmwPredictor::new(Role::Directory);
        let b = BlockAddr::new(1);
        let reader = NodeId::new(4);
        p.observe(b, PredTuple::new(reader, MsgType::GetRoRequest));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(reader, MsgType::UpgradeRequest))
        );
        // After anything else it goes quiet.
        p.observe(b, PredTuple::new(reader, MsgType::UpgradeRequest));
        assert_eq!(p.predict(b), None);
    }

    #[test]
    fn cache_predicts_upgrade_response_after_fill() {
        let mut p = RmwPredictor::new(Role::Cache);
        let b = BlockAddr::new(1);
        let home = NodeId::new(0);
        p.observe(b, PredTuple::new(home, MsgType::GetRoResponse));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(home, MsgType::UpgradeResponse))
        );
    }

    #[test]
    fn empty_history_gives_no_prediction() {
        let p = RmwPredictor::new(Role::Directory);
        assert_eq!(p.predict(BlockAddr::new(1)), None);
    }
}
