//! Directed migratory-sharing prediction (Cox & Fowler '93, Stenström et
//! al. '93 — Figure 8(b)).
//!
//! Migratory sharing: a block is read then written by one processor, then
//! read then written by another, in turn. At a cache the incoming
//! signature is `get_ro_response → upgrade_response → inval_rw_request`;
//! at the directory, `get_ro_request(q) → inval_rw_response(p) →
//! upgrade_request(q) → get_ro_request(…)`.
//!
//! The predictor fires only when it recognises the pattern; outside it, it
//! offers no prediction — the directedness §7 contrasts with Cosmos.

use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::{BlockAddr, MsgType, NodeId, Role};
use std::collections::HashMap;

/// Per-block directory-side tracking.
#[derive(Debug, Clone, Default)]
struct DirTrack {
    /// Sender of the most recent `get_ro_request` (the incoming migrator).
    reader: Option<NodeId>,
    /// The current exclusive owner, as far as requests reveal it.
    owner: Option<NodeId>,
    /// The previous owner (who the block migrated *from*).
    prev_owner: Option<NodeId>,
    last: Option<MsgType>,
}

/// Per-block cache-side tracking.
#[derive(Debug, Clone, Default)]
struct CacheTrack {
    last_two: [Option<MsgType>; 2],
    home: Option<NodeId>,
}

/// The directed migratory predictor for one agent.
#[derive(Debug, Clone)]
pub struct MigratoryPredictor {
    role: Role,
    dir: HashMap<BlockAddr, DirTrack>,
    cache: HashMap<BlockAddr, CacheTrack>,
}

impl MigratoryPredictor {
    /// Creates a predictor for an agent of the given role.
    pub fn new(role: Role) -> Self {
        MigratoryPredictor {
            role,
            dir: HashMap::new(),
            cache: HashMap::new(),
        }
    }
}

impl MessagePredictor for MigratoryPredictor {
    fn name(&self) -> &'static str {
        "migratory"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        match self.role {
            Role::Cache => {
                let t = self.cache.get(&block)?;
                let home = t.home?;
                match t.last_two {
                    // get_ro then upgrade: we are mid-migration; the next
                    // migrator's read will invalidate us.
                    [Some(MsgType::GetRoResponse), Some(MsgType::UpgradeResponse)] => {
                        Some(PredTuple::new(home, MsgType::InvalRwRequest))
                    }
                    // Just filled for reading inside a critical section:
                    // the write upgrade comes next.
                    [_, Some(MsgType::GetRoResponse)] => {
                        Some(PredTuple::new(home, MsgType::UpgradeResponse))
                    }
                    // Just invalidated: the block will migrate back.
                    [_, Some(MsgType::InvalRwRequest)] => {
                        Some(PredTuple::new(home, MsgType::GetRoResponse))
                    }
                    _ => None,
                }
            }
            Role::Directory => {
                let t = self.dir.get(&block)?;
                match t.last? {
                    // A migrator has asked to read: the old owner's
                    // writeback arrives next.
                    MsgType::GetRoRequest => {
                        t.owner.map(|p| PredTuple::new(p, MsgType::InvalRwResponse))
                    }
                    // Writeback received: the migrator upgrades.
                    MsgType::InvalRwResponse => {
                        t.reader.map(|q| PredTuple::new(q, MsgType::UpgradeRequest))
                    }
                    // Upgrade done: pairwise migration predicts the block
                    // migrates back to the previous owner.
                    MsgType::UpgradeRequest => t
                        .prev_owner
                        .map(|p| PredTuple::new(p, MsgType::GetRoRequest)),
                    _ => None,
                }
            }
        }
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        match self.role {
            Role::Cache => {
                let t = self.cache.entry(block).or_default();
                t.home = Some(tuple.sender);
                t.last_two = [t.last_two[1], Some(tuple.mtype)];
            }
            Role::Directory => {
                let t = self.dir.entry(block).or_default();
                match tuple.mtype {
                    MsgType::GetRoRequest => t.reader = Some(tuple.sender),
                    MsgType::UpgradeRequest | MsgType::GetRwRequest => {
                        // Keep the previous owner through the writeback gap
                        // (owner was cleared by the inval_rw_response).
                        if t.owner.is_some() {
                            t.prev_owner = t.owner;
                        }
                        t.owner = Some(tuple.sender);
                    }
                    MsgType::InvalRwResponse | MsgType::DowngradeResponse => {
                        // The owner gave the block up.
                        t.prev_owner = t.owner.take().or(t.prev_owner);
                    }
                    _ => {}
                }
                t.last = Some(tuple.mtype);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn home() -> NodeId {
        NodeId::new(0)
    }

    #[test]
    fn cache_side_tracks_the_migratory_loop() {
        let mut p = MigratoryPredictor::new(Role::Cache);
        let b = BlockAddr::new(1);
        p.observe(b, PredTuple::new(home(), MsgType::GetRoResponse));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(home(), MsgType::UpgradeResponse))
        );
        p.observe(b, PredTuple::new(home(), MsgType::UpgradeResponse));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(home(), MsgType::InvalRwRequest))
        );
        p.observe(b, PredTuple::new(home(), MsgType::InvalRwRequest));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(home(), MsgType::GetRoResponse))
        );
    }

    #[test]
    fn directory_side_predicts_writeback_then_upgrade() {
        let mut p = MigratoryPredictor::new(Role::Directory);
        let b = BlockAddr::new(1);
        let (p1, p2) = (NodeId::new(1), NodeId::new(2));
        // P1 owns the block (observed upgrade).
        p.observe(b, PredTuple::new(p1, MsgType::GetRoRequest));
        p.observe(b, PredTuple::new(p1, MsgType::UpgradeRequest));
        // P2 asks to read: predict P1's writeback.
        p.observe(b, PredTuple::new(p2, MsgType::GetRoRequest));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(p1, MsgType::InvalRwResponse))
        );
        p.observe(b, PredTuple::new(p1, MsgType::InvalRwResponse));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(p2, MsgType::UpgradeRequest))
        );
        // After P2's upgrade, pairwise migration predicts P1 reads next.
        p.observe(b, PredTuple::new(p2, MsgType::UpgradeRequest));
        assert_eq!(
            p.predict(b),
            Some(PredTuple::new(p1, MsgType::GetRoRequest))
        );
    }

    #[test]
    fn silent_outside_the_pattern() {
        let p = MigratoryPredictor::new(Role::Cache);
        assert_eq!(p.predict(BlockAddr::new(5)), None);
        let mut p = MigratoryPredictor::new(Role::Directory);
        let b = BlockAddr::new(5);
        p.observe(b, PredTuple::new(NodeId::new(1), MsgType::InvalRoResponse));
        assert_eq!(p.predict(b), None);
    }
}
