//! Coherence message vocabulary (paper Table 1, plus the downgrade pair).
//!
//! Message types split by *receiver*: a directory receives the request
//! messages and the invalidation/downgrade responses; a cache receives the
//! get/upgrade responses and the invalidation/downgrade requests. The
//! receiver role is intrinsic to the type ([`MsgType::receiver_role`]),
//! which is what lets a per-cache or per-directory Cosmos predictor treat
//! its incoming stream uniformly.

use crate::ids::{BlockAddr, NodeId};
use std::fmt;

/// Which protocol agent a message (or a predictor) is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// The per-node remote-data cache.
    Cache,
    /// The per-node directory for locally-homed pages.
    Directory,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Role::Cache => "cache",
            Role::Directory => "directory",
        })
    }
}

/// A processor-side memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcOp {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl fmt::Display for ProcOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProcOp::Read => "read",
            ProcOp::Write => "write",
        })
    }
}

/// The twelve coherence message types of a full-map write-invalidate
/// directory protocol (paper Table 1 plus `downgrade_request` /
/// `downgrade_response`, which appear when the half-migratory optimisation
/// is disabled).
///
/// The discriminants are stable and fit in 4 bits, matching the tuple
/// encoding the paper assumes in Table 7 ("12 bits for processors and
/// 4 bits for coherence message types").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum MsgType {
    /// Get a block in read-only (shared) state. Received by a directory.
    GetRoRequest = 0,
    /// Get a block in read-write (exclusive) state. Received by a directory.
    GetRwRequest = 1,
    /// Upgrade a block from read-only to read-write. Received by a directory.
    UpgradeRequest = 2,
    /// Response to `inval_ro_request`. Received by a directory.
    InvalRoResponse = 3,
    /// Response to `inval_rw_request` (carries the block). Received by a directory.
    InvalRwResponse = 4,
    /// Response to `downgrade_request` (carries the block). Received by a directory.
    DowngradeResponse = 5,
    /// Response to `get_ro_request`. Received by a cache.
    GetRoResponse = 6,
    /// Response to `get_rw_request`. Received by a cache.
    GetRwResponse = 7,
    /// Response to `upgrade_request`. Received by a cache.
    UpgradeResponse = 8,
    /// Invalidate a read-only (shared) copy. Received by a cache.
    InvalRoRequest = 9,
    /// Invalidate a read-write (exclusive) copy and return the block.
    /// Received by a cache.
    InvalRwRequest = 10,
    /// Downgrade an exclusive copy to shared and return the block.
    /// Received by a cache.
    DowngradeRequest = 11,
}

/// All message types, in discriminant order.
pub const ALL_MSG_TYPES: [MsgType; 12] = [
    MsgType::GetRoRequest,
    MsgType::GetRwRequest,
    MsgType::UpgradeRequest,
    MsgType::InvalRoResponse,
    MsgType::InvalRwResponse,
    MsgType::DowngradeResponse,
    MsgType::GetRoResponse,
    MsgType::GetRwResponse,
    MsgType::UpgradeResponse,
    MsgType::InvalRoRequest,
    MsgType::InvalRwRequest,
    MsgType::DowngradeRequest,
];

impl MsgType {
    /// The 4-bit code used in the packed tuple encoding.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a 4-bit code; `None` if out of range.
    pub fn from_code(code: u8) -> Option<Self> {
        ALL_MSG_TYPES.get(code as usize).copied()
    }

    /// Which agent *receives* this message type.
    pub fn receiver_role(self) -> Role {
        use MsgType::*;
        match self {
            GetRoRequest | GetRwRequest | UpgradeRequest | InvalRoResponse | InvalRwResponse
            | DowngradeResponse => Role::Directory,
            GetRoResponse | GetRwResponse | UpgradeResponse | InvalRoRequest | InvalRwRequest
            | DowngradeRequest => Role::Cache,
        }
    }

    /// Whether this is a request (as opposed to a response).
    pub fn is_request(self) -> bool {
        use MsgType::*;
        matches!(
            self,
            GetRoRequest
                | GetRwRequest
                | UpgradeRequest
                | InvalRoRequest
                | InvalRwRequest
                | DowngradeRequest
        )
    }

    /// Whether this is a response.
    pub fn is_response(self) -> bool {
        !self.is_request()
    }

    /// The response type a request elicits, if any.
    ///
    /// ```
    /// use stache::MsgType;
    /// assert_eq!(MsgType::GetRoRequest.response(), Some(MsgType::GetRoResponse));
    /// assert_eq!(MsgType::InvalRwRequest.response(), Some(MsgType::InvalRwResponse));
    /// assert_eq!(MsgType::GetRoResponse.response(), None);
    /// ```
    pub fn response(self) -> Option<MsgType> {
        use MsgType::*;
        Some(match self {
            GetRoRequest => GetRoResponse,
            GetRwRequest => GetRwResponse,
            UpgradeRequest => UpgradeResponse,
            InvalRoRequest => InvalRoResponse,
            InvalRwRequest => InvalRwResponse,
            DowngradeRequest => DowngradeResponse,
            _ => return None,
        })
    }

    /// The paper's snake_case name for the message type.
    pub fn paper_name(self) -> &'static str {
        use MsgType::*;
        match self {
            GetRoRequest => "get_ro_request",
            GetRwRequest => "get_rw_request",
            UpgradeRequest => "upgrade_request",
            InvalRoResponse => "inval_ro_response",
            InvalRwResponse => "inval_rw_response",
            DowngradeResponse => "downgrade_response",
            GetRoResponse => "get_ro_response",
            GetRwResponse => "get_rw_response",
            UpgradeResponse => "upgrade_response",
            InvalRoRequest => "inval_ro_request",
            InvalRwRequest => "inval_rw_request",
            DowngradeRequest => "downgrade_request",
        }
    }
}

impl fmt::Display for MsgType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// A coherence message in flight: who sent it, who receives it, for which
/// block, and what it says.
///
/// The `trace` field is an observability passenger: it ties the message to
/// the coherence transaction's span tree (see `obs::span`) and is
/// **excluded** from equality, hashing, and fingerprinting, so two
/// messages that say the same thing about the same block compare equal
/// whether or not tracing is on.
#[derive(Debug, Clone, Copy, Eq)]
pub struct Msg {
    /// Sending node.
    pub sender: NodeId,
    /// Receiving node.
    pub receiver: NodeId,
    /// The cache block the message concerns.
    pub block: BlockAddr,
    /// The message type.
    pub mtype: MsgType,
    /// The transaction trace this message belongs to
    /// (`obs::TraceId::NONE` when tracing is off). Not protocol state.
    pub trace: obs::TraceId,
}

// Manual impls so `trace` stays outside the message's protocol identity.
impl PartialEq for Msg {
    fn eq(&self, other: &Self) -> bool {
        self.sender == other.sender
            && self.receiver == other.receiver
            && self.block == other.block
            && self.mtype == other.mtype
    }
}

impl std::hash::Hash for Msg {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sender.hash(state);
        self.receiver.hash(state);
        self.block.hash(state);
        self.mtype.hash(state);
    }
}

impl Msg {
    /// Creates an untraced message.
    pub fn new(sender: NodeId, receiver: NodeId, block: BlockAddr, mtype: MsgType) -> Self {
        Msg {
            sender,
            receiver,
            block,
            mtype,
            trace: obs::TraceId::NONE,
        }
    }

    /// Attaches a transaction trace id (builder style).
    pub fn with_trace(mut self, trace: obs::TraceId) -> Self {
        self.trace = trace;
        self
    }

    /// The role of the agent that receives this message.
    pub fn receiver_role(&self) -> Role {
        self.mtype.receiver_role()
    }
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} [{}] {}",
            self.sender, self.receiver, self.block, self.mtype
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip_and_fit_four_bits() {
        for (i, &t) in ALL_MSG_TYPES.iter().enumerate() {
            assert_eq!(t.code() as usize, i);
            assert!(t.code() < 16, "code must fit 4 bits");
            assert_eq!(MsgType::from_code(t.code()), Some(t));
        }
        assert_eq!(MsgType::from_code(12), None);
        assert_eq!(MsgType::from_code(255), None);
    }

    #[test]
    fn receiver_roles_partition_the_vocabulary() {
        let dir: Vec<_> = ALL_MSG_TYPES
            .iter()
            .filter(|t| t.receiver_role() == Role::Directory)
            .collect();
        let cache: Vec<_> = ALL_MSG_TYPES
            .iter()
            .filter(|t| t.receiver_role() == Role::Cache)
            .collect();
        assert_eq!(dir.len(), 6);
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn requests_have_responses_with_swapped_roles() {
        for &t in &ALL_MSG_TYPES {
            if let Some(r) = t.response() {
                assert!(t.is_request());
                assert!(r.is_response());
                assert_ne!(t.receiver_role(), r.receiver_role());
            } else {
                assert!(t.is_response());
            }
        }
    }

    #[test]
    fn paper_names_match_table_one() {
        assert_eq!(MsgType::GetRoRequest.to_string(), "get_ro_request");
        assert_eq!(MsgType::UpgradeResponse.to_string(), "upgrade_response");
        assert_eq!(MsgType::InvalRwRequest.to_string(), "inval_rw_request");
        assert_eq!(MsgType::DowngradeResponse.to_string(), "downgrade_response");
    }

    #[test]
    fn trace_id_is_not_part_of_message_identity() {
        let plain = Msg::new(
            NodeId::new(1),
            NodeId::new(2),
            BlockAddr::new(0x40),
            MsgType::GetRwRequest,
        );
        let mut log = obs::SpanLog::new();
        log.enable();
        let t = log.begin_trace("get_rw_request", 0, 1, 0x40);
        let traced = plain.with_trace(t);
        assert!(traced.trace.is_some());
        assert_eq!(plain, traced, "equality ignores the trace passenger");
        let hash = |m: &Msg| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&plain), hash(&traced));
    }

    #[test]
    fn msg_display_is_informative() {
        let m = Msg::new(
            NodeId::new(1),
            NodeId::new(2),
            BlockAddr::new(0x40),
            MsgType::GetRwRequest,
        );
        assert_eq!(m.to_string(), "P1 -> P2 [B0x40] get_rw_request");
        assert_eq!(m.receiver_role(), Role::Directory);
    }
}
