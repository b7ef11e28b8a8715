//! Stacking the directed predictors — §7's thought experiment.
//!
//! The paper argues that *composing* several directed optimisations into a
//! real protocol explodes the state space; as pure predictors they compose
//! trivially (first one with an opinion wins), which isolates the
//! *coverage* question: even composed, directed predictors cannot track a
//! pattern none of them was directed at, e.g. unstructured's
//! migratory↔producer-consumer oscillation.

use super::{DsiPredictor, MigratoryPredictor, RmwPredictor};
use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::{BlockAddr, Role};

/// Migratory, then self-invalidation, then read-modify-write, in priority
/// order. All members observe every message; the first to offer a
/// prediction provides it.
#[derive(Debug, Clone)]
pub struct Composition {
    migratory: MigratoryPredictor,
    dsi: DsiPredictor,
    rmw: RmwPredictor,
}

impl Composition {
    /// Creates the composed predictor for an agent of the given role.
    pub fn new(role: Role) -> Self {
        Composition {
            migratory: MigratoryPredictor::new(role),
            dsi: DsiPredictor::new(role),
            rmw: RmwPredictor::new(role),
        }
    }
}

impl MessagePredictor for Composition {
    fn name(&self) -> &'static str {
        "directed-composition"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        self.migratory
            .predict(block)
            .or_else(|| self.dsi.predict(block))
            .or_else(|| self.rmw.predict(block))
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        self.migratory.observe(block, tuple);
        self.dsi.observe(block, tuple);
        self.rmw.observe(block, tuple);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stache::{MsgType, NodeId};

    #[test]
    fn priority_order_prefers_migratory() {
        let mut p = Composition::new(Role::Cache);
        let b = BlockAddr::new(1);
        let home = NodeId::new(0);
        // After a shared fill, both the migratory (upgrade next) and DSI
        // (invalidation next) rules could fire; migratory wins.
        p.observe(b, PredTuple::new(home, MsgType::GetRoResponse));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(home, MsgType::UpgradeResponse))
        );
    }

    #[test]
    fn falls_through_to_dsi() {
        let mut p = Composition::new(Role::Cache);
        let b = BlockAddr::new(1);
        let home = NodeId::new(0);
        // get_rw_response: migratory has no rule, DSI does.
        p.observe(b, PredTuple::new(home, MsgType::GetRwResponse));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(home, MsgType::InvalRwRequest))
        );
    }

    #[test]
    fn silent_when_no_member_fires() {
        let mut p = Composition::new(Role::Directory);
        let b = BlockAddr::new(1);
        p.observe(b, PredTuple::new(NodeId::new(2), MsgType::InvalRoResponse));
        assert_eq!(p.predict(b), None);
    }
}
