//! The prediction-actioned policy: every §4 speculation, confidence-gated.
//!
//! [`CosmosPolicy`](crate::CosmosPolicy) drives the two speculations that
//! move the protocol between legal states. This constructor is the full
//! close-the-loop integration: it additionally arms the engine's
//! early-invalidation-ack and speculative-forward hooks, so a trained
//! Cosmos fleet *acts* on its predictions — and the rollback machinery
//! cleans up when it is wrong — and it speculates only on predictions the
//! tables have confirmed `threshold` times in a row, the right end of
//! Figure 5's trade-off when the misprediction penalty is high. The
//! protocol stays correct unconditionally; mispredictions only cost time.
//!
//! The `threshold` is an `Option`: `None` is an infinite threshold — the
//! predictors train on every message but no action is armed. That mode
//! exists for the differential test that pins the speculative engine,
//! structurally enabled but never speculating, byte-for-byte against the
//! plain one.

use crate::policy::PredictorPolicy;
use cosmos::CosmosPredictor;
use simx::SpecActions;

/// Constructor of the policy that arms all four protocol actions from one
/// confidence-gated Cosmos fleet (one predictor per directory and per
/// cache, as in the paper's per-node tables).
pub enum SpeculatePolicy {}

impl SpeculatePolicy {
    /// Creates a policy of the given MHR depth that fires any action whose
    /// prediction has confidence ≥ `threshold` — the rule, and the clamp
    /// to [`cosmos::CONFIDENCE_MAX`], of [`CosmosPredictor::confident`].
    /// `None` is the infinite threshold: train, arm nothing.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(depth: usize, threshold: Option<u8>) -> PredictorPolicy {
        let armed = match threshold {
            Some(_) => SpecActions::all(),
            None => SpecActions::none(),
        };
        // Replacement is immediate on a miss: the confidence counter
        // subsumes the noise filter's role.
        let gate = threshold.unwrap_or(0);
        PredictorPolicy::new(armed, move |_| {
            Box::new(CosmosPredictor::new(depth, 0).confident(gate))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::compare;
    use crate::CosmosPolicy;
    use simx::{ForwardKind, SpeculationPolicy};
    use stache::{BlockAddr, MsgType, NodeId, Role};
    use trace::MsgRecord;
    use workloads::micro::ProducerConsumer;
    use workloads::Appbt;

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

    /// Trains the home-0 directory predictor on a stable two-message
    /// cycle ending in `mtype` from node 1.
    fn train_directory(p: &mut PredictorPolicy, mtype: MsgType) {
        for _ in 0..4 {
            p.observe(&rec(0, Role::Directory, 0, 2, MsgType::GetRoRequest));
            p.observe(&rec(0, Role::Directory, 0, 1, mtype));
        }
        p.observe(&rec(0, Role::Directory, 0, 2, MsgType::GetRoRequest));
    }

    #[test]
    fn forwards_to_the_predicted_reader_and_writer() {
        let mut p = SpeculatePolicy::new(1, Some(2));
        train_directory(&mut p, MsgType::GetRwRequest);
        assert_eq!(
            p.forward_candidate(NodeId::new(0), BlockAddr::new(0)),
            Some((NodeId::new(1), ForwardKind::Exclusive))
        );
        let mut p = SpeculatePolicy::new(1, Some(2));
        train_directory(&mut p, MsgType::GetRoRequest);
        // After GetRoRequest from 2 the PHT predicts GetRoRequest from 1.
        assert_eq!(
            p.forward_candidate(NodeId::new(0), BlockAddr::new(0)),
            Some((NodeId::new(1), ForwardKind::Shared))
        );
    }

    /// The parent compared the raw threshold with a counter that
    /// saturates at 3, so `Some(4)` armed everything and never fired.
    #[test]
    fn a_threshold_above_the_counter_maximum_fires_at_the_maximum() {
        let mut p = SpeculatePolicy::new(1, Some(cosmos::CONFIDENCE_MAX + 1));
        train_directory(&mut p, MsgType::GetRwRequest);
        assert_eq!(
            p.forward_candidate(NodeId::new(0), BlockAddr::new(0)),
            Some((NodeId::new(1), ForwardKind::Exclusive))
        );
    }

    #[test]
    fn never_pushes_to_the_home_itself() {
        let mut p = SpeculatePolicy::new(1, Some(0));
        for _ in 0..3 {
            p.observe(&rec(0, Role::Directory, 0, 1, MsgType::GetRoRequest));
            p.observe(&rec(0, Role::Directory, 0, 0, MsgType::GetRwRequest));
        }
        p.observe(&rec(0, Role::Directory, 0, 1, MsgType::GetRoRequest));
        assert_eq!(p.forward_candidate(NodeId::new(0), BlockAddr::new(0)), None);
    }

    #[test]
    fn early_ack_fires_on_a_predicted_sharer_invalidation() {
        let mut p = SpeculatePolicy::new(1, Some(1));
        for _ in 0..3 {
            p.observe(&rec(2, Role::Cache, 0, 0, MsgType::GetRoResponse));
            p.observe(&rec(2, Role::Cache, 0, 0, MsgType::InvalRoRequest));
        }
        p.observe(&rec(2, Role::Cache, 0, 0, MsgType::GetRoResponse));
        assert!(p.early_inval_ack(NodeId::new(2), BlockAddr::new(0)));
        // A predicted owner-invalidation arms self-invalidate instead.
        assert!(!p.self_invalidate(NodeId::new(2), BlockAddr::new(0)));
    }

    #[test]
    fn infinite_threshold_trains_but_never_acts() {
        let mut p = SpeculatePolicy::new(1, None);
        train_directory(&mut p, MsgType::GetRwRequest);
        for _ in 0..3 {
            p.observe(&rec(2, Role::Cache, 0, 0, MsgType::GetRoResponse));
            p.observe(&rec(2, Role::Cache, 0, 0, MsgType::InvalRoRequest));
        }
        p.observe(&rec(2, Role::Cache, 0, 0, MsgType::GetRoResponse));
        // The tables hold confident predictions...
        assert!(p
            .predicted(NodeId::new(0), Role::Directory, BlockAddr::new(0))
            .is_some());
        // ...but no action fires.
        assert!(!p.grant_exclusive(NodeId::new(0), NodeId::new(1), BlockAddr::new(0)));
        assert!(!p.early_inval_ack(NodeId::new(2), BlockAddr::new(0)));
        assert!(!p.self_invalidate(NodeId::new(2), BlockAddr::new(0)));
        assert_eq!(p.forward_candidate(NodeId::new(0), BlockAddr::new(0)), None);
    }

    #[test]
    fn needs_confirmations_before_granting() {
        let mut p = SpeculatePolicy::new(1, Some(2));
        let rec = |mtype| rec(0, Role::Directory, 5, 1, mtype);
        // One sighting of the read->upgrade pattern: not confident yet.
        p.observe(&rec(MsgType::GetRoRequest));
        p.observe(&rec(MsgType::UpgradeRequest));
        p.observe(&rec(MsgType::GetRoRequest));
        assert!(!p.grant_exclusive(NodeId::new(0), NodeId::new(1), BlockAddr::new(5)));
        // Two confirmations later it fires.
        p.observe(&rec(MsgType::UpgradeRequest));
        p.observe(&rec(MsgType::GetRoRequest));
        p.observe(&rec(MsgType::UpgradeRequest));
        p.observe(&rec(MsgType::GetRoRequest));
        assert!(p.grant_exclusive(NodeId::new(0), NodeId::new(1), BlockAddr::new(5)));
    }

    #[test]
    fn gated_policy_still_accelerates_stable_patterns() {
        let make = || ProducerConsumer {
            blocks: 2,
            iterations: 25,
            ..Default::default()
        };
        let c = compare(&mut make(), &mut make(), || {
            Box::new(SpeculatePolicy::new(1, Some(2)))
        })
        .unwrap();
        assert!(c.accelerated.messages < c.baseline.messages, "{c}");
    }

    #[test]
    fn gating_reduces_speculation_volume_on_noisy_workloads() {
        // appbt's false sharing misleads an ungated policy; the gated one
        // fires less (and never blindly).
        let make = || Appbt::small();
        let eager = compare(&mut make(), &mut make(), || Box::new(CosmosPolicy::new(1))).unwrap();
        let gated = compare(&mut make(), &mut make(), || {
            Box::new(SpeculatePolicy::new(1, Some(2)))
        })
        .unwrap();
        let eager_fires =
            eager.accelerated.exclusive_grants + eager.accelerated.voluntary_replacements;
        let gated_fires =
            gated.accelerated.exclusive_grants + gated.accelerated.voluntary_replacements;
        assert!(
            gated_fires < eager_fires,
            "gated {gated_fires} vs eager {eager_fires}"
        );
        // And it still helps.
        assert!(
            gated.accelerated.messages <= gated.baseline.messages,
            "{gated}"
        );
    }
}
