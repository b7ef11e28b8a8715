//! The prediction-actioned policy: every §4 speculation, confidence-gated.
//!
//! [`ConfidentPolicy`](crate::ConfidentPolicy) drives the two speculations
//! the serial engine supports (exclusive grants, self-invalidation). This
//! policy is the full close-the-loop integration: it additionally arms the
//! engine's early-invalidation-ack and speculative-forward hooks, so a
//! trained Cosmos fleet *acts* on its predictions — and the rollback
//! machinery cleans up when it is wrong. The protocol stays correct
//! unconditionally; mispredictions only cost time.
//!
//! The `threshold` is an `Option`: `None` is an infinite threshold — the
//! predictors train on every message but no action ever fires. That mode
//! exists for the differential test that pins the speculative engine,
//! structurally enabled but never speculating, byte-for-byte against the
//! plain one.

use cosmos::{ConfidenceCosmos, MessagePredictor, PredTuple};
use simx::{ForwardKind, SpeculationPolicy};
use stache::{BlockAddr, MsgType, NodeId, Role};
use trace::MsgRecord;

/// A speculation policy that arms all four protocol actions from one
/// confidence-gated Cosmos fleet (one predictor per directory and per
/// cache, as in the paper's per-node tables).
#[derive(Debug)]
pub struct SpeculatePolicy {
    depth: usize,
    /// Confidence required to act; `None` never acts (observe-only).
    threshold: Option<u8>,
    /// Indexed by [`NodeId::index`]; an agent's predictor is created on
    /// its first message.
    directories: Vec<Option<ConfidenceCosmos>>,
    caches: Vec<Option<ConfidenceCosmos>>,
}

/// The predictor at `node`'s slot of `fleet`, created on first use.
fn agent(
    fleet: &mut Vec<Option<ConfidenceCosmos>>,
    node: NodeId,
    depth: usize,
) -> &mut ConfidenceCosmos {
    let idx = node.index();
    if idx >= fleet.len() {
        fleet.resize_with(idx + 1, || None);
    }
    fleet[idx].get_or_insert_with(|| ConfidenceCosmos::new(depth, 0))
}

impl SpeculatePolicy {
    /// Creates a policy of the given MHR depth that fires any action whose
    /// prediction has confidence ≥ `threshold`. `None` is the infinite
    /// threshold: train, never fire.
    pub fn new(depth: usize, threshold: Option<u8>) -> Self {
        SpeculatePolicy {
            depth,
            threshold,
            directories: Vec::new(),
            caches: Vec::new(),
        }
    }

    /// The configured threshold (`None` = observe-only).
    pub fn threshold(&self) -> Option<u8> {
        self.threshold
    }

    fn directory(&mut self, home: NodeId) -> &mut ConfidenceCosmos {
        agent(&mut self.directories, home, self.depth)
    }

    fn cache(&mut self, node: NodeId) -> &mut ConfidenceCosmos {
        agent(&mut self.caches, node, self.depth)
    }

    /// The confident prediction at `agent`, if any. The gate lives here —
    /// not in the predictor — so `threshold: None` can suppress every
    /// action while the tables keep training.
    fn confident(
        cosmos: &ConfidenceCosmos,
        threshold: Option<u8>,
        block: BlockAddr,
    ) -> Option<PredTuple> {
        let need = threshold?;
        cosmos
            .predict_with_confidence(block)
            .and_then(|(p, c)| (c >= need).then_some(p))
    }
}

impl SpeculationPolicy for SpeculatePolicy {
    fn grant_exclusive(&mut self, home: NodeId, requester: NodeId, block: BlockAddr) -> bool {
        let threshold = self.threshold;
        Self::confident(self.directory(home), threshold, block)
            == Some(PredTuple::new(requester, MsgType::UpgradeRequest))
    }

    fn self_invalidate(&mut self, node: NodeId, block: BlockAddr) -> bool {
        let threshold = self.threshold;
        matches!(
            Self::confident(self.cache(node), threshold, block),
            Some(PredTuple {
                mtype: MsgType::InvalRwRequest,
                ..
            })
        )
    }

    fn early_inval_ack(&mut self, node: NodeId, block: BlockAddr) -> bool {
        // The cache's incoming-message predictor says the next thing this
        // node hears about the block is a (read-sharer) invalidation:
        // acknowledge it before it is sent.
        let threshold = self.threshold;
        matches!(
            Self::confident(self.cache(node), threshold, block),
            Some(PredTuple {
                mtype: MsgType::InvalRoRequest,
                ..
            })
        )
    }

    fn forward_candidate(
        &mut self,
        home: NodeId,
        block: BlockAddr,
    ) -> Option<(NodeId, ForwardKind)> {
        // The directory's predictor names the next requester; push it the
        // matching copy. A predicted local re-acquisition is not worth a
        // push (the home's own stache refills without the network).
        let threshold = self.threshold;
        let p = Self::confident(self.directory(home), threshold, block)?;
        if p.sender == home {
            return None;
        }
        match p.mtype {
            MsgType::GetRoRequest => Some((p.sender, ForwardKind::Shared)),
            MsgType::GetRwRequest => Some((p.sender, ForwardKind::Exclusive)),
            _ => None,
        }
    }

    fn observe(&mut self, record: &MsgRecord) {
        let tuple = PredTuple::new(record.sender, record.mtype);
        match record.role {
            Role::Directory => self.directory(record.node).observe(record.block, tuple),
            Role::Cache => self.cache(record.node).observe(record.block, tuple),
        }
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

    /// Trains the home-0 directory predictor on a stable two-message
    /// cycle ending in `mtype` from node 1.
    fn train_directory(p: &mut SpeculatePolicy, mtype: MsgType) {
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
            .directory(NodeId::new(0))
            .predict_with_confidence(BlockAddr::new(0))
            .is_some());
        // ...but no action fires.
        assert!(!p.grant_exclusive(NodeId::new(0), NodeId::new(1), BlockAddr::new(0)));
        assert!(!p.early_inval_ack(NodeId::new(2), BlockAddr::new(0)));
        assert!(!p.self_invalidate(NodeId::new(2), BlockAddr::new(0)));
        assert_eq!(p.forward_candidate(NodeId::new(0), BlockAddr::new(0)), None);
    }
}
