//! Message-signature (arc) extraction for Figures 6 and 7.
//!
//! The paper visualises each application's *dominant incoming message
//! signatures* as a graph whose nodes are message types and whose arcs are
//! consecutive-arrival pairs for the same cache block at the same agent
//! role. Each arc is labelled `X/Y` where `Y` is the percentage of all
//! arc references the pair accounts for (computed here from the raw trace)
//! and `X` the prediction accuracy on that arc (computed by
//! `cosmos::eval`, which keys its per-arc accounting with the same
//! [`ArcKey`]).

use crate::bundle::TraceBundle;
use crate::record::MsgRecord;
use stache::{BlockAddr, MsgType, NodeId, Role};
use std::collections::HashMap;
use std::fmt;

/// An arc: at agents of `role`, a message of type `prev` for a block was
/// followed by one of type `next` for the same block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArcKey {
    /// The receiving agent's role.
    pub role: Role,
    /// Type of the earlier message.
    pub prev: MsgType,
    /// Type of the later message.
    pub next: MsgType,
}

impl fmt::Display for ArcKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} -> {}",
            self.role,
            self.prev.paper_name(),
            self.next.paper_name()
        )
    }
}

/// Aggregated arc reference counts for a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArcTable {
    counts: HashMap<ArcKey, usize>,
    total_by_role: HashMap<Role, usize>,
}

impl ArcTable {
    /// Builds the arc table for a trace.
    ///
    /// For every `(node, role, block)` stream, each consecutive pair of
    /// records contributes one arc reference.
    pub fn from_bundle(bundle: &TraceBundle) -> Self {
        let mut table = ArcTable::default();
        let mut last: HashMap<(NodeId, Role, BlockAddr), MsgType> = HashMap::new();
        for r in bundle.records() {
            table.observe(&mut last, r);
        }
        table
    }

    fn observe(&mut self, last: &mut HashMap<(NodeId, Role, BlockAddr), MsgType>, r: &MsgRecord) {
        let key = (r.node, r.role, r.block);
        if let Some(prev) = last.insert(key, r.mtype) {
            *self
                .counts
                .entry(ArcKey {
                    role: r.role,
                    prev,
                    next: r.mtype,
                })
                .or_insert(0) += 1;
            *self.total_by_role.entry(r.role).or_insert(0) += 1;
        }
    }

    /// Raw reference count for an arc.
    pub fn count(&self, key: ArcKey) -> usize {
        *self.counts.get(&key).unwrap_or(&0)
    }

    /// Total arc references at a role.
    pub fn total(&self, role: Role) -> usize {
        *self.total_by_role.get(&role).unwrap_or(&0)
    }

    /// Share of a role's arc references going to this arc (the paper's `Y`).
    pub fn share(&self, key: ArcKey) -> f64 {
        let total = self.total(key.role);
        if total == 0 {
            return 0.0;
        }
        self.count(key) as f64 / total as f64
    }

    /// Arcs at a role, sorted by descending reference count; the dominant
    /// signature is the prefix of this list.
    pub fn dominant(&self, role: Role) -> Vec<(ArcKey, usize)> {
        let mut arcs: Vec<(ArcKey, usize)> = self
            .counts
            .iter()
            .filter(|(k, _)| k.role == role)
            .map(|(k, c)| (*k, *c))
            .collect();
        arcs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        arcs
    }

    /// All arcs with counts, unordered.
    pub fn iter(&self) -> impl Iterator<Item = (ArcKey, usize)> + '_ {
        self.counts.iter().map(|(k, c)| (*k, *c))
    }

    /// Number of distinct arcs observed.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no arcs were observed.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::TraceMeta;

    fn rec(t: u64, node: usize, role: Role, block: u64, mtype: MsgType) -> MsgRecord {
        MsgRecord {
            time_ns: t,
            node: NodeId::new(node),
            role,
            block: BlockAddr::new(block),
            sender: NodeId::new(15),
            mtype,
            iteration: 0,
        }
    }

    #[test]
    fn consecutive_pairs_per_block_stream() {
        let mut b = TraceBundle::new(TraceMeta::new("t", 16, 1));
        // Cache stream for block 1: get_ro_response -> inval_ro_request -> get_ro_response.
        b.push(rec(0, 0, Role::Cache, 1, MsgType::GetRoResponse));
        b.push(rec(1, 0, Role::Cache, 1, MsgType::InvalRoRequest));
        b.push(rec(2, 0, Role::Cache, 1, MsgType::GetRoResponse));
        // Unrelated block 2 must not contribute to block 1's arcs.
        b.push(rec(3, 0, Role::Cache, 2, MsgType::GetRwResponse));
        let arcs = ArcTable::from_bundle(&b);
        assert_eq!(arcs.total(Role::Cache), 2);
        assert_eq!(
            arcs.count(ArcKey {
                role: Role::Cache,
                prev: MsgType::GetRoResponse,
                next: MsgType::InvalRoRequest
            }),
            1
        );
        assert_eq!(
            arcs.count(ArcKey {
                role: Role::Cache,
                prev: MsgType::InvalRoRequest,
                next: MsgType::GetRoResponse
            }),
            1
        );
        assert_eq!(arcs.total(Role::Directory), 0);
    }

    #[test]
    fn streams_are_separated_by_node_and_role() {
        let mut b = TraceBundle::new(TraceMeta::new("t", 16, 1));
        b.push(rec(0, 0, Role::Cache, 1, MsgType::GetRoResponse));
        b.push(rec(1, 1, Role::Cache, 1, MsgType::InvalRoRequest));
        // Different nodes: no arc.
        let arcs = ArcTable::from_bundle(&b);
        assert!(arcs.is_empty());
    }

    #[test]
    fn dominant_sorting_and_share() {
        let mut b = TraceBundle::new(TraceMeta::new("t", 16, 1));
        for i in 0..3 {
            b.push(rec(i * 10, 0, Role::Cache, 1, MsgType::GetRoResponse));
            b.push(rec(i * 10 + 1, 0, Role::Cache, 1, MsgType::InvalRoRequest));
        }
        let arcs = ArcTable::from_bundle(&b);
        let dom = arcs.dominant(Role::Cache);
        assert_eq!(dom[0].0.prev, MsgType::GetRoResponse);
        assert_eq!(dom[0].1, 3);
        // 5 total arcs: 3 of RO->INV, 2 of INV->RO.
        assert!((arcs.share(dom[0].0) - 3.0 / 5.0).abs() < 1e-12);
    }
}
