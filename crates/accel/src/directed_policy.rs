//! Speculation driven by the §7 directed predictors, for comparison with
//! [`CosmosPolicy`](crate::CosmosPolicy).

use crate::policy::{PredictorPolicy, GRANT_AND_SELF_INVALIDATE};
use cosmos::directed::{DsiPredictor, RmwPredictor};
use stache::Role;

/// Constructor of the classical pairing: Origin-style read-modify-write
/// prediction at directories, dynamic self-invalidation at caches — each
/// wired to the action it was designed for.
pub enum DirectedPolicy {}

impl DirectedPolicy {
    /// Creates the policy.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> PredictorPolicy {
        PredictorPolicy::new(GRANT_AND_SELF_INVALIDATE, |role| match role {
            Role::Directory => Box::new(RmwPredictor::new(role)),
            Role::Cache => Box::new(DsiPredictor::new(role)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx::SpeculationPolicy;
    use stache::{BlockAddr, MsgType, NodeId};
    use trace::MsgRecord;

    #[test]
    fn rmw_grant_fires_unconditionally_after_any_read() {
        // The directed RMW predictor always expects an upgrade after a
        // read — the Origin's bet, right or wrong.
        let mut p = DirectedPolicy::new();
        p.observe(&MsgRecord {
            time_ns: 0,
            node: NodeId::new(0),
            role: Role::Directory,
            block: BlockAddr::new(1),
            sender: NodeId::new(2),
            mtype: MsgType::GetRoRequest,
            iteration: 0,
        });
        assert!(p.grant_exclusive(NodeId::new(0), NodeId::new(2), BlockAddr::new(1)));
        assert!(!p.grant_exclusive(NodeId::new(0), NodeId::new(3), BlockAddr::new(1)));
    }

    #[test]
    fn dsi_fires_after_learning_the_producer_loop() {
        let mut p = DirectedPolicy::new();
        p.observe(&MsgRecord {
            time_ns: 0,
            node: NodeId::new(1),
            role: Role::Cache,
            block: BlockAddr::new(7),
            sender: NodeId::new(0),
            mtype: MsgType::GetRwResponse,
            iteration: 0,
        });
        assert!(p.self_invalidate(NodeId::new(1), BlockAddr::new(7)));
    }
}
