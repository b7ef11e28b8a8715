//! The predictor-driven speculation policy — the only one.
//!
//! A policy here is two things: a way to build each agent's predictor,
//! and the set of [`SpecActions`] its predictions are allowed to fire.
//! [`CosmosPolicy`], [`DirectedPolicy`](crate::DirectedPolicy) and
//! [`SpeculatePolicy`](crate::SpeculatePolicy) are constructors that pick
//! those two arguments. What a prediction fires is [`action`], §4.1's
//! Table 2 as the engine acts on it: each [`SpeculationPolicy`] hook
//! looks its action up there, and `repro table2` prints it.

use cosmos::{CosmosPredictor, Fleet, MessagePredictor, PredTuple};
use simx::{ForwardKind, SpecActions, SpeculationPolicy};
use stache::{BlockAddr, MsgType, NodeId, Role};
use std::fmt;
use trace::MsgRecord;

/// A speculative action the engine takes on a prediction: one per
/// [`SpeculationPolicy`] hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Directory: answer the predicted upgrader's `get_ro_request` with an
    /// exclusive grant ([`SpeculationPolicy::grant_exclusive`]).
    GrantExclusive,
    /// Directory: push the predicted requester a copy of this kind when
    /// the block goes idle, never to the home itself
    /// ([`SpeculationPolicy::forward_candidate`]).
    Forward(ForwardKind),
    /// Cache: replace a freshly written block before the predicted recall
    /// ([`SpeculationPolicy::self_invalidate`]).
    SelfInvalidate,
    /// Cache: drop a shared copy and acknowledge the predicted
    /// invalidation before it is sent
    /// ([`SpeculationPolicy::early_inval_ack`]).
    EarlyInvalAck,
}

/// §4.1's Table 2 as the engine fires it: the action an agent of `role`
/// takes when it predicts an `mtype` next, or `None`. The paper's other
/// suggestions (prefetching at a cache, early recall at a directory) are
/// not implemented.
pub fn action(role: Role, mtype: MsgType) -> Option<Action> {
    match (role, mtype) {
        (Role::Directory, MsgType::UpgradeRequest) => Some(Action::GrantExclusive),
        (Role::Directory, MsgType::GetRoRequest) => Some(Action::Forward(ForwardKind::Shared)),
        (Role::Directory, MsgType::GetRwRequest) => Some(Action::Forward(ForwardKind::Exclusive)),
        (Role::Cache, MsgType::InvalRwRequest) => Some(Action::SelfInvalidate),
        (Role::Cache, MsgType::InvalRoRequest) => Some(Action::EarlyInvalAck),
        _ => None,
    }
}

/// One agent's predictor, as a policy holds it.
pub type Agent = Box<dyn MessagePredictor + Send>;

/// Drives the machine's speculative actions from live predictors — one
/// per directory and one per cache, trained on exactly the messages each
/// agent receives, as §3.2 prescribes.
///
/// Speculation is deliberately *conservative*: an action fires only when
/// it is armed, the agent's predictor has an opinion, and that opinion
/// maps to the action. With no opinion the protocol runs unmodified, so
/// the worst case degenerates to the baseline plus mispredicted actions.
pub struct PredictorPolicy {
    build: Box<dyn Fn(Role) -> Agent + Send>,
    armed: SpecActions,
    fleet: Fleet<Agent>,
    /// Exclusive grants issued.
    pub grants: u64,
    /// Voluntary replacements issued.
    pub replacements: u64,
}

impl PredictorPolicy {
    /// A policy that may fire the `armed` actions, on the word of
    /// predictors made by `build` (called once per agent, on its first
    /// message).
    pub fn new(armed: SpecActions, build: impl Fn(Role) -> Agent + Send + 'static) -> Self {
        PredictorPolicy {
            build: Box::new(build),
            armed,
            fleet: Fleet::default(),
            grants: 0,
            replacements: 0,
        }
    }

    /// What the agent expects to receive next for `block`; an agent that
    /// has received nothing yet has no predictor and no opinion.
    pub(crate) fn predicted(
        &self,
        node: NodeId,
        role: Role,
        block: BlockAddr,
    ) -> Option<PredTuple> {
        self.fleet.get(node, role)?.predict(block)
    }

    /// The action the agent's prediction fires, and whom it names, if the
    /// hook asking is `armed`.
    fn fires(
        &self,
        armed: bool,
        node: NodeId,
        role: Role,
        block: BlockAddr,
    ) -> Option<(NodeId, Action)> {
        if !armed {
            return None;
        }
        let p = self.predicted(node, role, block)?;
        Some((p.sender, action(role, p.mtype)?))
    }
}

impl fmt::Debug for PredictorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PredictorPolicy")
            .field("armed", &self.armed)
            .field("grants", &self.grants)
            .field("replacements", &self.replacements)
            .finish_non_exhaustive()
    }
}

impl SpeculationPolicy for PredictorPolicy {
    fn grant_exclusive(&mut self, home: NodeId, requester: NodeId, block: BlockAddr) -> bool {
        // The directory predictor has already observed the get_ro_request
        // (observe runs on every reception).
        let fire = self.fires(self.armed.grant_exclusive, home, Role::Directory, block)
            == Some((requester, Action::GrantExclusive));
        self.grants += u64::from(fire);
        fire
    }

    fn self_invalidate(&mut self, node: NodeId, block: BlockAddr) -> bool {
        let fire = matches!(
            self.fires(self.armed.self_invalidate, node, Role::Cache, block),
            Some((_, Action::SelfInvalidate))
        );
        self.replacements += u64::from(fire);
        fire
    }

    fn early_inval_ack(&mut self, node: NodeId, block: BlockAddr) -> bool {
        matches!(
            self.fires(self.armed.early_ack, node, Role::Cache, block),
            Some((_, Action::EarlyInvalAck))
        )
    }

    fn forward_candidate(
        &mut self,
        home: NodeId,
        block: BlockAddr,
    ) -> Option<(NodeId, ForwardKind)> {
        // A predicted local re-acquisition is not worth a push: the home's
        // own stache refills without the network.
        match self.fires(self.armed.forward, home, Role::Directory, block)? {
            (to, Action::Forward(kind)) if to != home => Some((to, kind)),
            _ => None,
        }
    }

    fn observe(&mut self, record: &MsgRecord) {
        let build = &self.build;
        self.fleet
            .agent(record.node, record.role, || build(record.role))
            .observe(record.block, PredTuple::new(record.sender, record.mtype));
    }
}

/// The two actions that never send an extra protocol message: exclusive
/// grants and self-invalidation.
pub(crate) const GRANT_AND_SELF_INVALIDATE: SpecActions = SpecActions {
    grant_exclusive: true,
    self_invalidate: true,
    early_ack: false,
    forward: false,
};

/// Constructor of the Cosmos-driven policy: plain Cosmos predictors arm
/// exclusive grants and self-invalidation.
pub enum CosmosPolicy {}

impl CosmosPolicy {
    /// A policy whose predictors use the given MHR depth and the paper's
    /// single-bit filter: speculation should not flip-flop on one noisy
    /// message.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(depth: usize) -> PredictorPolicy {
        PredictorPolicy::new(GRANT_AND_SELF_INVALIDATE, move |_| {
            Box::new(CosmosPredictor::new(depth, 1))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: usize, role: Role, block: u64, sender: usize, mtype: MsgType) -> MsgRecord {
        MsgRecord {
            time_ns: 0,
            node: NodeId::new(node),
            role,
            block: BlockAddr::new(block),
            sender: NodeId::new(sender),
            mtype,
            iteration: 0,
        }
    }

    #[test]
    fn grants_after_learning_a_rmw_pattern() {
        let mut p = CosmosPolicy::new(1);
        // Train the directory at node 0: reader P1's get_ro is always
        // followed by P1's upgrade.
        for _ in 0..3 {
            p.observe(&rec(0, Role::Directory, 5, 1, MsgType::GetRoRequest));
            p.observe(&rec(0, Role::Directory, 5, 1, MsgType::UpgradeRequest));
            p.observe(&rec(0, Role::Directory, 5, 2, MsgType::InvalRwResponse));
        }
        // A new get_ro_request arrives (the machine records it first)...
        p.observe(&rec(0, Role::Directory, 5, 1, MsgType::GetRoRequest));
        // ...and the policy grants exclusive.
        assert!(p.grant_exclusive(NodeId::new(0), NodeId::new(1), BlockAddr::new(5)));
        assert_eq!(p.grants, 1);
    }

    #[test]
    fn does_not_grant_for_a_different_requester() {
        let mut p = CosmosPolicy::new(1);
        for _ in 0..3 {
            p.observe(&rec(0, Role::Directory, 5, 1, MsgType::GetRoRequest));
            p.observe(&rec(0, Role::Directory, 5, 1, MsgType::UpgradeRequest));
            p.observe(&rec(0, Role::Directory, 5, 2, MsgType::InvalRwResponse));
        }
        p.observe(&rec(0, Role::Directory, 5, 1, MsgType::GetRoRequest));
        // Prediction says P1 will upgrade; P3 asking must not be granted.
        assert!(!p.grant_exclusive(NodeId::new(0), NodeId::new(3), BlockAddr::new(5)));
    }

    #[test]
    fn self_invalidates_on_predicted_recall() {
        let mut p = CosmosPolicy::new(1);
        // Train the producer's cache: every exclusive fill is followed by
        // a recall.
        for _ in 0..3 {
            p.observe(&rec(1, Role::Cache, 7, 0, MsgType::GetRwResponse));
            p.observe(&rec(1, Role::Cache, 7, 0, MsgType::InvalRwRequest));
        }
        p.observe(&rec(1, Role::Cache, 7, 0, MsgType::GetRwResponse));
        assert!(p.self_invalidate(NodeId::new(1), BlockAddr::new(7)));
        assert_eq!(p.replacements, 1);
    }

    #[test]
    fn cold_policy_never_speculates() {
        let mut p = CosmosPolicy::new(2);
        assert!(!p.grant_exclusive(NodeId::new(0), NodeId::new(1), BlockAddr::new(1)));
        assert!(!p.self_invalidate(NodeId::new(1), BlockAddr::new(1)));
        assert_eq!(p.grants + p.replacements, 0);
    }

    #[test]
    fn agents_are_isolated() {
        let mut p = CosmosPolicy::new(1);
        // Directory 0 learns the pattern; directory 3 must not inherit it.
        for _ in 0..3 {
            p.observe(&rec(0, Role::Directory, 5, 1, MsgType::GetRoRequest));
            p.observe(&rec(0, Role::Directory, 5, 1, MsgType::UpgradeRequest));
            p.observe(&rec(0, Role::Directory, 5, 2, MsgType::InvalRwResponse));
        }
        p.observe(&rec(3, Role::Directory, 5, 1, MsgType::GetRoRequest));
        assert!(!p.grant_exclusive(NodeId::new(3), NodeId::new(1), BlockAddr::new(5)));
    }
}
