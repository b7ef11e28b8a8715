//! Trace bundles: a run's records plus metadata.

use crate::record::MsgRecord;
use stache::{BlockAddr, NodeId, Role};
use std::collections::BTreeSet;

/// Metadata describing the run a trace came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload name (e.g. `"appbt"`).
    pub app: String,
    /// Number of nodes in the simulated machine.
    pub nodes: usize,
    /// Number of workload iterations traced.
    pub iterations: u32,
}

impl TraceMeta {
    /// Creates trace metadata.
    pub fn new(app: impl Into<String>, nodes: usize, iterations: u32) -> Self {
        TraceMeta {
            app: app.into(),
            nodes,
            iterations,
        }
    }
}

/// A complete message trace: time-ordered records plus metadata.
///
/// Records are kept in reception order, which for a serialized simulation
/// is also (node-local) program order per block — the order in which a
/// predictor sitting at the receiving agent would observe them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBundle {
    meta: TraceMeta,
    records: Vec<MsgRecord>,
}

impl TraceBundle {
    /// Creates an empty bundle.
    pub fn new(meta: TraceMeta) -> Self {
        TraceBundle {
            meta,
            records: Vec::new(),
        }
    }

    /// The run metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// All records in reception order.
    pub fn records(&self) -> &[MsgRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record (caller is responsible for time order; `simx`
    /// produces records already ordered).
    pub fn push(&mut self, record: MsgRecord) {
        self.records.push(record);
    }

    /// Appends many records.
    pub fn extend_records(&mut self, records: impl IntoIterator<Item = MsgRecord>) {
        self.records.extend(records);
    }

    /// Takes the records out, leaving the bundle empty (metadata intact).
    /// The drain half of the streaming pipeline: callers hand the batch to
    /// a [`crate::pack::PackedTraceWriter`] and let it go, so memory stays
    /// bounded by the batch rather than the whole run. The bundle keeps
    /// room for as many records as it gave away: a caller draining once
    /// per iteration refills it without regrowing it from empty each time.
    pub fn take_records(&mut self) -> Vec<MsgRecord> {
        let room = self.records.len();
        std::mem::replace(&mut self.records, Vec::with_capacity(room))
    }

    /// Discards every record but keeps the allocation, for callers that
    /// copy a small batch out after each step and refill the same buffer.
    pub fn clear_records(&mut self) {
        self.records.clear();
    }

    /// Records received by a particular agent.
    pub fn for_receiver(&self, node: NodeId, role: Role) -> impl Iterator<Item = &MsgRecord> {
        self.records
            .iter()
            .filter(move |r| r.node == node && r.role == role)
    }

    /// Records for a particular block, at any agent.
    pub fn for_block(&self, block: BlockAddr) -> impl Iterator<Item = &MsgRecord> {
        self.records.iter().filter(move |r| r.block == block)
    }

    /// The distinct blocks appearing in the trace, in address order.
    pub fn blocks(&self) -> Vec<BlockAddr> {
        let set: BTreeSet<BlockAddr> = self.records.iter().map(|r| r.block).collect();
        set.into_iter().collect()
    }
}

impl Extend<MsgRecord> for TraceBundle {
    fn extend<I: IntoIterator<Item = MsgRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stache::MsgType;

    fn rec(
        t: u64,
        node: usize,
        role: Role,
        block: u64,
        sender: usize,
        mtype: MsgType,
        it: u32,
    ) -> MsgRecord {
        MsgRecord {
            time_ns: t,
            node: NodeId::new(node),
            role,
            block: BlockAddr::new(block),
            sender: NodeId::new(sender),
            mtype,
            iteration: it,
        }
    }

    fn sample() -> TraceBundle {
        let mut b = TraceBundle::new(TraceMeta::new("t", 4, 3));
        b.push(rec(10, 0, Role::Directory, 1, 1, MsgType::GetRoRequest, 0));
        b.push(rec(20, 1, Role::Cache, 1, 0, MsgType::GetRoResponse, 0));
        b.push(rec(30, 0, Role::Directory, 2, 2, MsgType::GetRwRequest, 1));
        b.push(rec(40, 2, Role::Cache, 2, 0, MsgType::GetRwResponse, 2));
        b
    }

    #[test]
    fn receiver_filtering() {
        let b = sample();
        assert_eq!(b.for_receiver(NodeId::new(0), Role::Directory).count(), 2);
        assert_eq!(b.for_receiver(NodeId::new(0), Role::Cache).count(), 0);
    }

    #[test]
    fn block_listing_is_sorted_and_deduped() {
        let b = sample();
        assert_eq!(b.blocks(), vec![BlockAddr::new(1), BlockAddr::new(2)]);
        assert_eq!(b.for_block(BlockAddr::new(1)).count(), 2);
    }

    #[test]
    fn empty_bundle() {
        let b = TraceBundle::new(TraceMeta::new("empty", 1, 0));
        assert!(b.is_empty());
        assert!(b.blocks().is_empty());
    }
}
