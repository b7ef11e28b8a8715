//! Exhaustive coverage of the protocol state machines: every
//! `(state, event)` pair is checked against the documented transition
//! table, so any future edit that adds, removes, or reroutes a transition
//! fails here explicitly.

use stache::cache::{on_message, on_processor_op, CacheAction};
use stache::directory::handle_request;
use stache::msg::ALL_MSG_TYPES;
use stache::{CacheState, DirState, MsgType, NodeId, NodeSet, ProcOp, ProtocolError, Role};

const CACHE_STATES: [CacheState; 6] = [
    CacheState::Invalid,
    CacheState::Shared,
    CacheState::Exclusive,
    CacheState::IToS,
    CacheState::IToE,
    CacheState::SToE,
];

#[test]
fn processor_op_table_is_exactly_as_documented() {
    use CacheState::*;
    for state in CACHE_STATES {
        for op in [ProcOp::Read, ProcOp::Write] {
            let got = on_processor_op(state, op);
            let expected = match (state, op) {
                (Shared, ProcOp::Read) | (Exclusive, _) => Ok((state, CacheAction::Hit)),
                (Invalid, ProcOp::Read) => Ok((IToS, CacheAction::Send(MsgType::GetRoRequest))),
                (Invalid, ProcOp::Write) => Ok((IToE, CacheAction::Send(MsgType::GetRwRequest))),
                (Shared, ProcOp::Write) => Ok((SToE, CacheAction::Send(MsgType::UpgradeRequest))),
                _ => Err(ProtocolError::BusyBlock),
            };
            assert_eq!(got, expected, "({state}, {op})");
        }
    }
}

#[test]
fn cache_message_table_is_exactly_as_documented() {
    use CacheState::*;
    use MsgType::*;
    for state in CACHE_STATES {
        for mtype in ALL_MSG_TYPES {
            let got = on_message(state, mtype);
            if mtype.receiver_role() != Role::Cache {
                assert_eq!(
                    got,
                    Err(ProtocolError::WrongRole { mtype }),
                    "({state}, {mtype})"
                );
                continue;
            }
            let expected: Option<(CacheState, Option<MsgType>)> = match (state, mtype) {
                (IToS, GetRoResponse) => Some((Shared, None)),
                (IToS, GetRwResponse) => Some((Exclusive, None)), // speculative grant
                (IToE, GetRwResponse) => Some((Exclusive, None)),
                (SToE, UpgradeResponse) => Some((Exclusive, None)),
                (Shared, InvalRoRequest) => Some((Invalid, Some(InvalRoResponse))),
                (SToE, InvalRoRequest) => Some((IToE, Some(InvalRoResponse))), // upgrade race
                (Exclusive, InvalRwRequest) => Some((Invalid, Some(InvalRwResponse))),
                (Exclusive, DowngradeRequest) => Some((Shared, Some(DowngradeResponse))),
                _ => None,
            };
            match expected {
                Some(exp) => assert_eq!(got, Ok(exp), "({state}, {mtype})"),
                None => assert!(
                    matches!(got, Err(ProtocolError::UnexpectedCacheMessage { .. })),
                    "({state}, {mtype}) should be rejected, got {got:?}"
                ),
            }
        }
    }
}

#[test]
fn directory_accepts_exactly_the_request_vocabulary() {
    let home = NodeId::new(0);
    let from = NodeId::new(5);
    let states = [
        DirState::Idle,
        DirState::Shared(NodeSet::singleton(NodeId::new(2))),
        DirState::Exclusive(NodeId::new(2)),
    ];
    for state in &states {
        for mtype in ALL_MSG_TYPES {
            let got = handle_request(state, home, from, mtype);
            match mtype {
                // The three requests are serviceable (upgrade only from a
                // sharer, which `from` is not).
                MsgType::GetRoRequest | MsgType::GetRwRequest => {
                    assert!(got.is_ok(), "({state}, {mtype}): {got:?}");
                }
                MsgType::UpgradeRequest => {
                    assert!(got.is_err(), "non-sharer upgrade must fail");
                }
                // Responses have no standalone directory transition.
                MsgType::InvalRoResponse
                | MsgType::InvalRwResponse
                | MsgType::DowngradeResponse => {
                    assert!(
                        matches!(got, Err(ProtocolError::InconsistentDirectory { .. })),
                        "({state}, {mtype})"
                    );
                }
                // Cache-bound types are rejected by role.
                _ => {
                    assert_eq!(
                        got,
                        Err(ProtocolError::WrongRole { mtype }),
                        "({state}, {mtype})"
                    );
                }
            }
        }
    }
}

#[test]
fn every_state_and_message_displays() {
    for s in CACHE_STATES {
        assert!(!s.to_string().is_empty());
    }
    for m in ALL_MSG_TYPES {
        assert!(!m.to_string().is_empty());
        assert_eq!(m.is_request(), !m.is_response());
    }
    for d in [
        DirState::Idle,
        DirState::Shared(NodeSet::singleton(NodeId::new(1))),
        DirState::Exclusive(NodeId::new(1)),
    ] {
        assert!(!d.to_string().is_empty());
    }
}

#[test]
fn stable_and_transient_states_partition() {
    let stable: Vec<_> = CACHE_STATES.iter().filter(|s| s.is_stable()).collect();
    assert_eq!(stable.len(), 3);
    // Transient states accept exactly one message each (their response).
    for (state, accepted) in [
        (CacheState::IToS, 2), // get_ro_response + speculative get_rw_response
        (CacheState::IToE, 1),
        (CacheState::SToE, 2), // upgrade_response + racing inval_ro_request
    ] {
        let n = ALL_MSG_TYPES
            .iter()
            .filter(|m| m.receiver_role() == Role::Cache)
            .filter(|m| on_message(state, **m).is_ok())
            .count();
        assert_eq!(n, accepted, "{state}");
    }
}
