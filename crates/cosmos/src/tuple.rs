//! The prediction tuple: `<sender, message-type>`.
//!
//! Table 7's overhead accounting assumes a tuple occupies **two bytes** —
//! "12 bits for processors and 4 bits for coherence message types". The
//! packed encoding here realises exactly that layout, and the memory model
//! uses [`PredTuple::SIZE_BYTES`] in the overhead formula.

use stache::{MsgType, NodeId};
use std::fmt;

/// A `<sender, message-type>` pair: both what Cosmos remembers (MHR
/// contents) and what it predicts (PHT entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredTuple {
    /// The message's sender.
    pub sender: NodeId,
    /// The message's type.
    pub mtype: MsgType,
}

impl PredTuple {
    /// Bytes a tuple occupies in hardware (12-bit node + 4-bit type).
    pub const SIZE_BYTES: usize = 2;

    /// Creates a tuple.
    pub fn new(sender: NodeId, mtype: MsgType) -> Self {
        PredTuple { sender, mtype }
    }

    /// Packs the tuple into 16 bits: node in the high 12, type in the low 4.
    ///
    /// ```
    /// use cosmos::PredTuple;
    /// use stache::{MsgType, NodeId};
    /// let t = PredTuple::new(NodeId::new(3), MsgType::GetRwRequest);
    /// assert_eq!(PredTuple::unpack(t.pack()), Some(t));
    /// ```
    pub fn pack(self) -> u16 {
        (self.sender.raw() << 4) | u16::from(self.mtype.code())
    }

    /// Unpacks a 16-bit encoding; `None` if the type code is invalid.
    pub fn unpack(bits: u16) -> Option<Self> {
        let sender = NodeId::from_raw(bits >> 4)?;
        let mtype = MsgType::from_code((bits & 0xF) as u8)?;
        Some(PredTuple { sender, mtype })
    }
}

impl From<(NodeId, MsgType)> for PredTuple {
    fn from((sender, mtype): (NodeId, MsgType)) -> Self {
        PredTuple { sender, mtype }
    }
}

impl fmt::Display for PredTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.sender, self.mtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stache::msg::ALL_MSG_TYPES;

    #[test]
    fn pack_roundtrips_every_type_and_edge_nodes() {
        for &t in &ALL_MSG_TYPES {
            for node in [0usize, 1, 15, 4095] {
                let tuple = PredTuple::new(NodeId::new(node), t);
                assert_eq!(PredTuple::unpack(tuple.pack()), Some(tuple));
            }
        }
    }

    #[test]
    fn invalid_type_code_rejected() {
        // Node 0, type code 13 (out of range).
        assert_eq!(PredTuple::unpack(13), None);
    }

    #[test]
    fn display_matches_paper_notation() {
        let t = PredTuple::new(NodeId::new(2), MsgType::GetRoRequest);
        assert_eq!(t.to_string(), "<P2, get_ro_request>");
    }

    #[test]
    fn from_pair() {
        let t: PredTuple = (NodeId::new(1), MsgType::GetRwResponse).into();
        assert_eq!(t.sender, NodeId::new(1));
    }
}
