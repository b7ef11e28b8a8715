//! The §4 speculation hook ([`SpeculationPolicy`]) and the deterministic
//! policies model checking installs behind it.
//!
//! The `accel` crate supplies the *predictive* policies (Cosmos-driven,
//! history-dependent). Model checking wants the opposite temperament: a
//! policy that fires **every** speculative action **every** time it is
//! consulted, with no internal state, so that (a) the explored state
//! space covers every speculation/demand race the engine can express and
//! (b) the state fingerprint remains a sound pruning key — a stateless
//! policy's future behaviour is fully determined by the machine state.
//!
//! [`SpecActions`] selects which of the four speculative actions are
//! armed; [`EagerPolicy`] fires the armed ones unconditionally. The
//! selection serialises into [`ScheduleArtifact`](crate::simcheck::ScheduleArtifact)s
//! so a shrunk failing schedule replays under the same speculation
//! surface that found it.

use stache::{BlockAddr, NodeId};
use trace::MsgRecord;

/// The flavour of a speculative push: hand the predicted next reader a
/// shared copy, or the predicted next writer an exclusive one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardKind {
    /// Push a shared (read-only) copy.
    Shared,
    /// Push an exclusive (writable) copy.
    Exclusive,
}

/// A speculation policy: the §4 integration hook.
///
/// The paper stops at measuring prediction accuracy; its §4 sketches how a
/// predictor would *drive* the protocol. This trait is that coupling: the
/// event engine ([`ConcurrentMachine`](crate::ConcurrentMachine)) consults
/// the policy at the action points §4 highlights, and feeds it every
/// message reception for training.
///
/// All methods have no-op defaults, so a policy can implement only the
/// speculation it is directed at.
pub trait SpeculationPolicy: std::fmt::Debug + Send {
    /// Directory-side read-modify-write speculation: on a
    /// `get_ro_request` for `block` from `requester`, return `true` to
    /// answer with an **exclusive** grant instead of a shared one
    /// (betting on an imminent upgrade). A wrong bet costs the next
    /// reader an owner-invalidation round.
    fn grant_exclusive(&mut self, home: NodeId, requester: NodeId, block: BlockAddr) -> bool {
        let _ = (home, requester, block);
        false
    }

    /// Cache-side dynamic self-invalidation: after `node` completes a
    /// store to `block` (now exclusive), return `true` to replace the
    /// block to the directory immediately (betting the next access comes
    /// from elsewhere). A wrong bet costs `node` a fresh miss.
    fn self_invalidate(&mut self, node: NodeId, block: BlockAddr) -> bool {
        let _ = (node, block);
        false
    }

    /// Cache-side early invalidation acknowledgment: after `node`
    /// completes a load of `block` (now shared), return `true` to drop
    /// the copy and acknowledge the *predicted* invalidation before it is
    /// ever sent (betting the next writer shows up before the next local
    /// read). A wrong bet costs `node` a fresh read miss; a right one
    /// takes the invalidation round trip off the writer's critical path.
    fn early_inval_ack(&mut self, node: NodeId, block: BlockAddr) -> bool {
        let _ = (node, block);
        false
    }

    /// Directory-side speculative forwarding: when `block`'s entry at
    /// `home` goes idle, return the predicted next requester (and whether
    /// to push a shared or exclusive copy) to grant it *unsolicited* —
    /// the push races any demand miss; a target that already re-acquired
    /// the block rejects it and the directory rolls back. A wrong bet
    /// costs the pushed-to node nothing and the true next requester an
    /// owner-recall round.
    fn forward_candidate(
        &mut self,
        home: NodeId,
        block: BlockAddr,
    ) -> Option<(NodeId, ForwardKind)> {
        let _ = (home, block);
        None
    }

    /// Sees every message reception, for training.
    fn observe(&mut self, record: &MsgRecord) {
        let _ = record;
    }
}

/// Which speculative actions a policy is allowed to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpecActions {
    /// Answer a remote read miss with an exclusive grant (§4.1
    /// read-modify-write speculation).
    pub grant_exclusive: bool,
    /// Voluntarily write an exclusive copy back after a store
    /// (dynamic self-invalidation).
    pub self_invalidate: bool,
    /// Voluntarily drop a shared copy after a load and acknowledge the
    /// invalidation before it is ever sent (early invalidation-ack).
    pub early_ack: bool,
    /// Push an unsolicited copy to the predicted next reader/writer when
    /// a block goes idle at its home (speculative forward/regrant).
    pub forward: bool,
}

impl SpecActions {
    /// Every action armed.
    pub fn all() -> Self {
        SpecActions {
            grant_exclusive: true,
            self_invalidate: true,
            early_ack: true,
            forward: true,
        }
    }

    /// No action armed (structurally installed but inert — the
    /// infinite-threshold configuration of the differential tests).
    pub fn none() -> Self {
        SpecActions::default()
    }

    /// Stable name, used in schedule artifacts: the armed actions joined
    /// with `+` (`"none"` when nothing is armed).
    pub fn name(&self) -> String {
        let mut parts = Vec::new();
        if self.grant_exclusive {
            parts.push("grant");
        }
        if self.self_invalidate {
            parts.push("self_invalidate");
        }
        if self.early_ack {
            parts.push("early_ack");
        }
        if self.forward {
            parts.push("forward");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }

    /// Parses [`name`](Self::name) back. Unknown action names are `None`
    /// so artifact typos fail loudly.
    pub fn from_name(name: &str) -> Option<Self> {
        if name == "none" {
            return Some(SpecActions::none());
        }
        let mut actions = SpecActions::none();
        for part in name.split('+') {
            match part {
                "grant" => actions.grant_exclusive = true,
                "self_invalidate" => actions.self_invalidate = true,
                "early_ack" => actions.early_ack = true,
                "forward" => actions.forward = true,
                _ => return None,
            }
        }
        Some(actions)
    }
}

/// Fires every armed action unconditionally, with deterministic,
/// machine-state-independent choices — the adversarial policy `simcheck`
/// explores under. The forward target is the home's successor ring-wise
/// (the one node guaranteed distinct from the home) and the pushed
/// flavour alternates by page so both shared and exclusive pushes are
/// explored from a two-block plan.
#[derive(Debug, Clone)]
pub struct EagerPolicy {
    actions: SpecActions,
    nodes: usize,
}

impl EagerPolicy {
    /// A policy for a `nodes`-node machine arming `actions`.
    pub fn new(actions: SpecActions, nodes: usize) -> Self {
        EagerPolicy { actions, nodes }
    }
}

impl SpeculationPolicy for EagerPolicy {
    fn grant_exclusive(&mut self, _home: NodeId, _requester: NodeId, _block: BlockAddr) -> bool {
        self.actions.grant_exclusive
    }

    fn self_invalidate(&mut self, _node: NodeId, _block: BlockAddr) -> bool {
        self.actions.self_invalidate
    }

    fn early_inval_ack(&mut self, _node: NodeId, _block: BlockAddr) -> bool {
        self.actions.early_ack
    }

    fn forward_candidate(
        &mut self,
        home: NodeId,
        block: BlockAddr,
    ) -> Option<(NodeId, ForwardKind)> {
        if !self.actions.forward || self.nodes < 2 {
            return None;
        }
        let target = NodeId::new((home.index() + 1) % self.nodes);
        let kind = if (block.number() / 64).is_multiple_of(2) {
            ForwardKind::Shared
        } else {
            ForwardKind::Exclusive
        };
        Some((target, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_names_round_trip() {
        for actions in [
            SpecActions::none(),
            SpecActions::all(),
            SpecActions {
                early_ack: true,
                ..SpecActions::none()
            },
            SpecActions {
                grant_exclusive: true,
                forward: true,
                ..SpecActions::none()
            },
        ] {
            assert_eq!(SpecActions::from_name(&actions.name()), Some(actions));
        }
        assert_eq!(SpecActions::from_name("bogus"), None);
        assert_eq!(SpecActions::from_name("grant+bogus"), None);
    }

    #[test]
    fn eager_policy_fires_exactly_the_armed_actions() {
        let n0 = NodeId::new(0);
        let b0 = BlockAddr::new(0);
        let b1 = BlockAddr::new(64);
        let mut inert = EagerPolicy::new(SpecActions::none(), 4);
        assert!(!inert.grant_exclusive(n0, NodeId::new(1), b0));
        assert!(!inert.self_invalidate(n0, b0));
        assert!(!inert.early_inval_ack(n0, b0));
        assert!(inert.forward_candidate(n0, b0).is_none());

        let mut eager = EagerPolicy::new(SpecActions::all(), 4);
        assert!(eager.grant_exclusive(n0, NodeId::new(1), b0));
        assert!(eager.self_invalidate(n0, b0));
        assert!(eager.early_inval_ack(n0, b0));
        assert_eq!(
            eager.forward_candidate(n0, b0),
            Some((NodeId::new(1), ForwardKind::Shared))
        );
        assert_eq!(
            eager.forward_candidate(NodeId::new(3), b1),
            Some((NodeId::new(0), ForwardKind::Exclusive))
        );
        // A single-node machine has no one to push to.
        let mut lone = EagerPolicy::new(SpecActions::all(), 1);
        assert!(lone.forward_candidate(n0, b0).is_none());
    }
}
