//! Mapping predictions to protocol actions (§4.1, Table 2, Figure 4).
//!
//! [`map_prediction`] names the speculative action a predicted next
//! incoming message implies at a cache or a directory; `repro table2`
//! renders it. What firing those actions buys is measured, not estimated
//! here: `accel` drives them on the event engine (`ConcurrentMachine`).

use crate::tuple::PredTuple;
use stache::{MsgType, NodeId, Role};

/// A speculative protocol action an agent can take on the basis of a
/// prediction (§4.1's examples).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeculativeAction {
    /// Directory: answer the predicted reader's next (shared) request with
    /// an exclusive grant — the Origin read-modify-write optimisation.
    GrantExclusive {
        /// The processor predicted to upgrade.
        writer: NodeId,
    },
    /// Directory: push the block to a predicted reader before its request
    /// arrives (producer-consumer forwarding).
    ForwardToReader {
        /// The processor predicted to read next.
        reader: NodeId,
    },
    /// Directory: begin recalling the current owner's dirty copy early,
    /// anticipating the writeback.
    EarlyRecall {
        /// The owner predicted to respond with the block.
        owner: NodeId,
    },
    /// Cache: replace the block to the directory before the predicted
    /// invalidation arrives — dynamic self-invalidation (Figure 4a).
    SelfInvalidate,
    /// Cache: request the predicted fill before the processor misses.
    PrefetchBlock,
    /// Cache: request ownership before the processor writes.
    PrefetchOwnership,
}

/// Chooses the speculative action implied by a predicted next incoming
/// message at an agent of `role`, per Table 2's prediction-action pairs.
/// Predictions that map to no useful speculation return `None`.
pub fn map_prediction(role: Role, predicted: PredTuple) -> Option<SpeculativeAction> {
    match (role, predicted.mtype) {
        (Role::Directory, MsgType::UpgradeRequest) => Some(SpeculativeAction::GrantExclusive {
            writer: predicted.sender,
        }),
        (Role::Directory, MsgType::GetRoRequest) => Some(SpeculativeAction::ForwardToReader {
            reader: predicted.sender,
        }),
        (Role::Directory, MsgType::GetRwRequest) => Some(SpeculativeAction::GrantExclusive {
            writer: predicted.sender,
        }),
        (Role::Directory, MsgType::InvalRwResponse | MsgType::DowngradeResponse) => {
            Some(SpeculativeAction::EarlyRecall {
                owner: predicted.sender,
            })
        }
        (Role::Cache, MsgType::InvalRwRequest | MsgType::InvalRoRequest) => {
            Some(SpeculativeAction::SelfInvalidate)
        }
        (Role::Cache, MsgType::GetRoResponse | MsgType::GetRwResponse) => {
            Some(SpeculativeAction::PrefetchBlock)
        }
        (Role::Cache, MsgType::UpgradeResponse) => Some(SpeculativeAction::PrefetchOwnership),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_covers_the_table_two_pairs() {
        let p = NodeId::new(3);
        assert_eq!(
            map_prediction(Role::Directory, PredTuple::new(p, MsgType::UpgradeRequest)),
            Some(SpeculativeAction::GrantExclusive { writer: p })
        );
        assert_eq!(
            map_prediction(Role::Directory, PredTuple::new(p, MsgType::GetRoRequest)),
            Some(SpeculativeAction::ForwardToReader { reader: p })
        );
        assert_eq!(
            map_prediction(Role::Cache, PredTuple::new(p, MsgType::InvalRwRequest)),
            Some(SpeculativeAction::SelfInvalidate)
        );
        assert_eq!(
            map_prediction(Role::Cache, PredTuple::new(p, MsgType::GetRoResponse)),
            Some(SpeculativeAction::PrefetchBlock)
        );
        // Responses to invalidations at the *cache* never occur; at the
        // directory an inval_ro_response maps to nothing useful.
        assert_eq!(
            map_prediction(Role::Directory, PredTuple::new(p, MsgType::InvalRoResponse)),
            None
        );
    }
}
