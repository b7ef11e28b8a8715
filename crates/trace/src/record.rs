//! A single trace record: one coherence message *reception*.

use stache::{BlockAddr, Msg, MsgType, NodeId, Role};
use std::fmt;

/// One incoming coherence message, as observed by the receiving agent.
///
/// This is the unit Cosmos predicts: given the history of records for
/// `(node, role, block)`, predict the `(sender, mtype)` of the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgRecord {
    /// Simulated reception time in nanoseconds.
    pub time_ns: u64,
    /// The receiving node.
    pub node: NodeId,
    /// Whether the receiving agent is the node's cache or its directory.
    pub role: Role,
    /// The cache block the message concerns.
    pub block: BlockAddr,
    /// The sending node.
    pub sender: NodeId,
    /// The message type.
    pub mtype: MsgType,
    /// The workload iteration during which the message was received
    /// (the paper uses iterations as its time axis for adaptation studies).
    pub iteration: u32,
}

impl MsgRecord {
    /// Builds a record from an in-flight message plus reception context.
    pub fn from_msg(msg: &Msg, time_ns: u64, iteration: u32) -> Self {
        MsgRecord {
            time_ns,
            node: msg.receiver,
            role: msg.receiver_role(),
            block: msg.block,
            sender: msg.sender,
            mtype: msg.mtype,
            iteration,
        }
    }

    /// The `(sender, mtype)` pair — the quantity Cosmos predicts.
    pub fn tuple(&self) -> (NodeId, MsgType) {
        (self.sender, self.mtype)
    }
}

impl fmt::Display for MsgRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={}ns it={} {}@{} [{}] <- {} {}",
            self.time_ns, self.iteration, self.role, self.node, self.block, self.sender, self.mtype
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_msg_derives_role_from_type() {
        let m = Msg::new(
            NodeId::new(1),
            NodeId::new(0),
            BlockAddr::new(5),
            MsgType::GetRwRequest,
        );
        let r = MsgRecord::from_msg(&m, 250, 3);
        assert_eq!(r.role, Role::Directory);
        assert_eq!(r.node, NodeId::new(0));
        assert_eq!(r.tuple(), (NodeId::new(1), MsgType::GetRwRequest));
        assert_eq!(r.iteration, 3);
    }

    #[test]
    fn display_mentions_everything() {
        let m = Msg::new(
            NodeId::new(2),
            NodeId::new(7),
            BlockAddr::new(9),
            MsgType::InvalRoRequest,
        );
        let r = MsgRecord::from_msg(&m, 40, 1);
        let s = r.to_string();
        assert!(s.contains("P2"));
        assert!(s.contains("P7"));
        assert!(s.contains("inval_ro_request"));
        assert!(s.contains("cache"));
    }
}
