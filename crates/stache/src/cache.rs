//! Cache-side finite state machine.
//!
//! A block in a Stache cache is in one of three quiescent states —
//! invalid, shared, exclusive — plus the transient states the paper's
//! Figure 1 labels "I to S", "I to E", and "S to E" while a request is
//! outstanding at the directory.
//!
//! The two entry points are pure transition functions:
//!
//! * [`on_processor_op`] — the processor issues a load or store;
//! * [`on_message`] — a message from the directory arrives.

use crate::error::ProtocolError;
use crate::msg::{MsgType, ProcOp, Role};
use std::fmt;

/// Per-block cache state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CacheState {
    /// No valid copy.
    #[default]
    Invalid,
    /// Read-only copy.
    Shared,
    /// Read-write copy (sole owner).
    Exclusive,
    /// Read miss outstanding (`get_ro_request` sent).
    IToS,
    /// Write miss outstanding (`get_rw_request` sent).
    IToE,
    /// Upgrade outstanding (`upgrade_request` sent).
    SToE,
}

impl CacheState {
    /// Whether the state is quiescent (no transaction in flight).
    pub fn is_stable(self) -> bool {
        matches!(
            self,
            CacheState::Invalid | CacheState::Shared | CacheState::Exclusive
        )
    }

    fn name(self) -> &'static str {
        match self {
            CacheState::Invalid => "Invalid",
            CacheState::Shared => "Shared",
            CacheState::Exclusive => "Exclusive",
            CacheState::IToS => "IToS",
            CacheState::IToE => "IToE",
            CacheState::SToE => "SToE",
        }
    }

    /// Lowercase snake-case name, as the tally's metric paths spell it.
    pub fn short_name(self) -> &'static str {
        match self {
            CacheState::Invalid => "invalid",
            CacheState::Shared => "shared",
            CacheState::Exclusive => "exclusive",
            CacheState::IToS => "i_to_s",
            CacheState::IToE => "i_to_e",
            CacheState::SToE => "s_to_e",
        }
    }
}

impl fmt::Display for CacheState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What the cache controller does in response to a processor operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// The access hits; no coherence activity.
    Hit,
    /// Send a request of the given type to the block's directory.
    Send(MsgType),
}

/// Processor-op transition: `(state, op) -> (new state, action)`.
///
/// # Errors
///
/// Returns [`ProtocolError::BusyBlock`] if the block is in a transient
/// state — the serialized transaction engine never issues overlapping
/// operations on one block, so reaching this indicates a driver bug.
pub fn on_processor_op(
    state: CacheState,
    op: ProcOp,
) -> Result<(CacheState, CacheAction), ProtocolError> {
    use CacheState::*;
    match (state, op) {
        (Shared, ProcOp::Read) | (Exclusive, _) => Ok((state, CacheAction::Hit)),
        (Invalid, ProcOp::Read) => Ok((IToS, CacheAction::Send(MsgType::GetRoRequest))),
        (Invalid, ProcOp::Write) => Ok((IToE, CacheAction::Send(MsgType::GetRwRequest))),
        (Shared, ProcOp::Write) => Ok((SToE, CacheAction::Send(MsgType::UpgradeRequest))),
        (IToS | IToE | SToE, _) => Err(ProtocolError::BusyBlock),
    }
}

/// Incoming-message transition: `(state, message) -> (new state, reply)`.
///
/// The reply, when present, is a response the cache sends back to the
/// directory (e.g. `inval_rw_response` carrying the dirty block).
///
/// # Errors
///
/// Returns [`ProtocolError::WrongRole`] for message types a cache never
/// receives, and [`ProtocolError::UnexpectedCacheMessage`] for messages
/// with no transition from the current state.
pub fn on_message(
    state: CacheState,
    mtype: MsgType,
) -> Result<(CacheState, Option<MsgType>), ProtocolError> {
    use CacheState::*;
    use MsgType::*;
    if mtype.receiver_role() != Role::Cache {
        return Err(ProtocolError::WrongRole { mtype });
    }
    match (state, mtype) {
        (IToS, GetRoResponse) => Ok((Shared, None)),
        // A speculative exclusive grant (§4.1's read-modify-write
        // optimisation): the directory answered a shared request with an
        // exclusive copy, betting the processor will write it shortly.
        (IToS, GetRwResponse) => Ok((Exclusive, None)),
        (IToE, GetRwResponse) => Ok((Exclusive, None)),
        (SToE, UpgradeResponse) => Ok((Exclusive, None)),
        (Shared, InvalRoRequest) => Ok((Invalid, Some(InvalRoResponse))),
        // The upgrade race: this cache asked to upgrade its shared copy,
        // but another writer's invalidation won at the directory. The copy
        // is lost; the outstanding upgrade effectively becomes a write
        // miss (the directory converts it), so wait in I-to-E. Only the
        // concurrent engine can produce this; the serialized engine never
        // overlaps transactions on one block.
        (SToE, InvalRoRequest) => Ok((IToE, Some(InvalRoResponse))),
        (Exclusive, InvalRwRequest) => Ok((Invalid, Some(InvalRwResponse))),
        (Exclusive, DowngradeRequest) => Ok((Shared, Some(DowngradeResponse))),
        _ => Err(ProtocolError::UnexpectedCacheMessage {
            state: state.name(),
            mtype,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_do_not_change_state() {
        assert_eq!(
            on_processor_op(CacheState::Shared, ProcOp::Read).unwrap(),
            (CacheState::Shared, CacheAction::Hit)
        );
        assert_eq!(
            on_processor_op(CacheState::Exclusive, ProcOp::Read).unwrap(),
            (CacheState::Exclusive, CacheAction::Hit)
        );
        assert_eq!(
            on_processor_op(CacheState::Exclusive, ProcOp::Write).unwrap(),
            (CacheState::Exclusive, CacheAction::Hit)
        );
    }

    #[test]
    fn misses_send_the_right_requests() {
        let (s, a) = on_processor_op(CacheState::Invalid, ProcOp::Read).unwrap();
        assert_eq!(
            (s, a),
            (CacheState::IToS, CacheAction::Send(MsgType::GetRoRequest))
        );
        let (s, a) = on_processor_op(CacheState::Invalid, ProcOp::Write).unwrap();
        assert_eq!(
            (s, a),
            (CacheState::IToE, CacheAction::Send(MsgType::GetRwRequest))
        );
        let (s, a) = on_processor_op(CacheState::Shared, ProcOp::Write).unwrap();
        assert_eq!(
            (s, a),
            (CacheState::SToE, CacheAction::Send(MsgType::UpgradeRequest))
        );
    }

    #[test]
    fn transient_states_reject_processor_ops() {
        for s in [CacheState::IToS, CacheState::IToE, CacheState::SToE] {
            assert_eq!(
                on_processor_op(s, ProcOp::Read),
                Err(ProtocolError::BusyBlock)
            );
            assert!(!s.is_stable());
        }
    }

    #[test]
    fn responses_complete_transactions() {
        assert_eq!(
            on_message(CacheState::IToS, MsgType::GetRoResponse).unwrap(),
            (CacheState::Shared, None)
        );
        assert_eq!(
            on_message(CacheState::IToE, MsgType::GetRwResponse).unwrap(),
            (CacheState::Exclusive, None)
        );
        assert_eq!(
            on_message(CacheState::SToE, MsgType::UpgradeResponse).unwrap(),
            (CacheState::Exclusive, None)
        );
    }

    #[test]
    fn invalidations_reply_and_invalidate() {
        assert_eq!(
            on_message(CacheState::Shared, MsgType::InvalRoRequest).unwrap(),
            (CacheState::Invalid, Some(MsgType::InvalRoResponse))
        );
        assert_eq!(
            on_message(CacheState::Exclusive, MsgType::InvalRwRequest).unwrap(),
            (CacheState::Invalid, Some(MsgType::InvalRwResponse))
        );
    }

    #[test]
    fn upgrade_race_demotes_to_write_miss() {
        // SToE + inval_ro_request: the copy is gone; keep waiting as a
        // write miss and acknowledge the invalidation.
        assert_eq!(
            on_message(CacheState::SToE, MsgType::InvalRoRequest).unwrap(),
            (CacheState::IToE, Some(MsgType::InvalRoResponse))
        );
        // The converted grant then completes the write.
        assert_eq!(
            on_message(CacheState::IToE, MsgType::GetRwResponse).unwrap(),
            (CacheState::Exclusive, None)
        );
    }

    #[test]
    fn downgrade_moves_exclusive_to_shared() {
        assert_eq!(
            on_message(CacheState::Exclusive, MsgType::DowngradeRequest).unwrap(),
            (CacheState::Shared, Some(MsgType::DowngradeResponse))
        );
    }

    #[test]
    fn directory_messages_are_rejected_by_role() {
        assert_eq!(
            on_message(CacheState::Invalid, MsgType::GetRoRequest),
            Err(ProtocolError::WrongRole {
                mtype: MsgType::GetRoRequest
            })
        );
    }

    #[test]
    fn stray_messages_are_rejected() {
        assert!(matches!(
            on_message(CacheState::Invalid, MsgType::UpgradeResponse),
            Err(ProtocolError::UnexpectedCacheMessage { .. })
        ));
        assert!(matches!(
            on_message(CacheState::Shared, MsgType::InvalRwRequest),
            Err(ProtocolError::UnexpectedCacheMessage { .. })
        ));
        assert!(matches!(
            on_message(CacheState::Invalid, MsgType::DowngradeRequest),
            Err(ProtocolError::UnexpectedCacheMessage { .. })
        ));
    }

    /// Paper Figure 1(b): processor one's store to a block exclusive in
    /// processor two, traced as a pair of per-cache state walks.
    #[test]
    fn figure_one_state_walk() {
        // Processor one: I --store--> IToE --get_rw_response--> E.
        let (s1, a) = on_processor_op(CacheState::Invalid, ProcOp::Write).unwrap();
        assert_eq!(a, CacheAction::Send(MsgType::GetRwRequest));
        let (s1, _) = on_message(s1, MsgType::GetRwResponse).unwrap();
        assert_eq!(s1, CacheState::Exclusive);

        // Processor two: E --inval_rw_request--> I, replying with the block.
        let (s2, reply) = on_message(CacheState::Exclusive, MsgType::InvalRwRequest).unwrap();
        assert_eq!(s2, CacheState::Invalid);
        assert_eq!(reply, Some(MsgType::InvalRwResponse));
    }
}
