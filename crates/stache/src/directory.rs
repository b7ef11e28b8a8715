//! Directory-side finite state machine.
//!
//! A full-map directory entry records whether a block is idle, shared by a
//! set of caches, or exclusive in one cache. Requests from caches produce a
//! [`DirOutcome`]: possibly a set of invalidations to current holders,
//! then a reply granting the requested access.
//!
//! The home node's own copy is tracked in the entry like any other node's
//! (which keeps the single-writer invariant uniform); the simulation layer
//! suppresses *messages* to and from the home, because Stache's directory
//! pages double as local cache pages (§5.1).
//!
//! The **half-migratory optimisation** (paper §5.1) is the protocol: a
//! read miss to an exclusive block *invalidates* the owner rather than
//! downgrading it, on the bet that the former owner is done with the block.
//! No directory plan sends a downgrade.

use crate::error::ProtocolError;
use crate::ids::{NodeId, NodeSet};
use crate::msg::{MsgType, ProcOp, Role};
use std::fmt;

/// Per-block directory state (the full map).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum DirState {
    /// No cached copies.
    #[default]
    Idle,
    /// Read-only copies at the given nodes (never empty).
    Shared(NodeSet),
    /// A read-write copy at one node.
    Exclusive(NodeId),
}

impl DirState {
    /// Nodes currently holding a copy.
    pub fn holders(&self) -> NodeSet {
        match self {
            DirState::Idle => NodeSet::new(),
            DirState::Shared(s) => s.clone(),
            DirState::Exclusive(o) => NodeSet::singleton(*o),
        }
    }

    /// The exclusive owner, if any.
    pub fn owner(&self) -> Option<NodeId> {
        match self {
            DirState::Exclusive(o) => Some(*o),
            _ => None,
        }
    }

    /// Whether `node` may read the block without coherence action
    /// (used for the home node's local accesses).
    pub fn node_readable(&self, node: NodeId) -> bool {
        match self {
            DirState::Idle => false,
            DirState::Shared(s) => s.contains(node),
            DirState::Exclusive(o) => *o == node,
        }
    }

    /// Whether `node` may write the block without coherence action.
    pub fn node_writable(&self, node: NodeId) -> bool {
        matches!(self, DirState::Exclusive(o) if *o == node)
    }

    /// Lowercase kind name (holder sets elided), for metric paths and
    /// trace events.
    pub fn kind_name(&self) -> &'static str {
        match self {
            DirState::Idle => "idle",
            DirState::Shared(_) => "shared",
            DirState::Exclusive(_) => "exclusive",
        }
    }
}

impl fmt::Display for DirState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirState::Idle => write!(f, "Idle"),
            DirState::Shared(s) => write!(f, "Shared{s}"),
            DirState::Exclusive(o) => write!(f, "Exclusive({o})"),
        }
    }
}

/// The directory's plan for servicing one request.
///
/// `holder_request` is sent to every node of `holders` first (invalidations
/// to current holders); once all their responses have been
/// collected, `reply` (if any — local accesses by the home node need no
/// reply message) is sent to the requester, and the entry moves to `next`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirOutcome {
    /// The current holders that must first give up their copy. A set, not a message list: every plan sends one message type,
    /// so building it allocates nothing while the set stays inline.
    pub holders: NodeSet,
    /// What each of `holders` is sent: `inval_ro_request` to sharers (and
    /// when there are none), `inval_rw_request` to an owner.
    pub holder_request: MsgType,
    /// The granting reply to the requester, if the requester is remote.
    pub reply: Option<MsgType>,
    /// The entry's state after the transaction completes.
    pub next: DirState,
}

impl DirOutcome {
    /// A plan that messages no holder.
    fn quiet(reply: Option<MsgType>, next: DirState) -> Self {
        DirOutcome {
            holders: NodeSet::new(),
            holder_request: MsgType::InvalRoRequest,
            reply,
            next,
        }
    }

    /// Invalidates every sharer but the requester `but` and the home.
    fn invalidate(sharers: &NodeSet, but: NodeId, home: NodeId, reply: Option<MsgType>) -> Self {
        let mut plan = DirOutcome::quiet(reply, DirState::Exclusive(but));
        plan.holders = sharers.clone();
        plan.holders.remove(but);
        plan.holders.remove(home);
        plan
    }

    /// Invalidates the owner (unless it is the home).
    fn recall(owner: NodeId, home: NodeId, reply: Option<MsgType>, next: DirState) -> Self {
        let mut plan = DirOutcome::quiet(reply, next);
        plan.holders.insert(owner);
        plan.holders.remove(home);
        plan.holder_request = MsgType::InvalRwRequest;
        plan
    }
}

/// Handles a request message from cache `from` (remote; `from != home`).
///
/// Returns the directory's service plan. `home` is the directory's own
/// node; its local copy is tracked in the entry but never receives
/// messages, so invalidating it is state-only (it simply drops out of
/// `holders`).
///
/// # Errors
///
/// Returns [`ProtocolError::WrongRole`] for messages a directory never
/// receives and [`ProtocolError::InconsistentDirectory`] for requests that
/// contradict the entry (e.g. an upgrade from a non-sharer).
pub fn handle_request(
    state: &DirState,
    home: NodeId,
    from: NodeId,
    mtype: MsgType,
) -> Result<DirOutcome, ProtocolError> {
    if mtype.receiver_role() != Role::Directory {
        return Err(ProtocolError::WrongRole { mtype });
    }
    let inconsistent = || ProtocolError::InconsistentDirectory {
        state: state.to_string(),
        from,
        mtype,
    };
    match mtype {
        MsgType::GetRoRequest => match state {
            DirState::Idle => Ok(DirOutcome::quiet(
                Some(MsgType::GetRoResponse),
                DirState::Shared(NodeSet::singleton(from)),
            )),
            DirState::Shared(s) => {
                if s.contains(from) {
                    return Err(inconsistent());
                }
                let mut next = s.clone();
                next.insert(from);
                Ok(DirOutcome::quiet(
                    Some(MsgType::GetRoResponse),
                    DirState::Shared(next),
                ))
            }
            DirState::Exclusive(owner) => {
                if *owner == from {
                    return Err(inconsistent());
                }
                // Half-migratory: invalidate the owner outright; only the
                // reader keeps a copy.
                let next = DirState::Shared(NodeSet::singleton(from));
                let reply = Some(MsgType::GetRoResponse);
                Ok(DirOutcome::recall(*owner, home, reply, next))
            }
        },
        MsgType::GetRwRequest => match state {
            DirState::Idle => Ok(DirOutcome::quiet(
                Some(MsgType::GetRwResponse),
                DirState::Exclusive(from),
            )),
            DirState::Shared(s) => {
                if s.contains(from) {
                    return Err(inconsistent());
                }
                let reply = Some(MsgType::GetRwResponse);
                Ok(DirOutcome::invalidate(s, from, home, reply))
            }
            DirState::Exclusive(owner) => {
                if *owner == from {
                    return Err(inconsistent());
                }
                Ok(DirOutcome::recall(
                    *owner,
                    home,
                    Some(MsgType::GetRwResponse),
                    DirState::Exclusive(from),
                ))
            }
        },
        MsgType::UpgradeRequest => match state {
            DirState::Shared(s) if s.contains(from) => Ok(DirOutcome::invalidate(
                s,
                from,
                home,
                Some(MsgType::UpgradeResponse),
            )),
            _ => Err(inconsistent()),
        },
        // Responses are absorbed by the transaction engine (it knows which
        // transaction they belong to); they carry no independent transition.
        MsgType::InvalRoResponse | MsgType::InvalRwResponse | MsgType::DowngradeResponse => {
            Err(inconsistent())
        }
        _ => unreachable!("receiver_role filtered cache-bound types"),
    }
}

/// Handles a *local* access by the home node itself. No request or reply
/// messages are generated, but remote holders may still need invalidating.
///
/// Returns `None` if the access needs no coherence action (the home already
/// has sufficient rights), otherwise the plan (with `reply: None`).
pub fn handle_local(state: &DirState, home: NodeId, op: ProcOp) -> Option<DirOutcome> {
    match op {
        ProcOp::Read => {
            if state.node_readable(home) {
                return None;
            }
            match state {
                DirState::Idle => Some(DirOutcome::quiet(
                    None,
                    DirState::Shared(NodeSet::singleton(home)),
                )),
                DirState::Shared(s) => {
                    let mut next = s.clone();
                    next.insert(home);
                    Some(DirOutcome::quiet(None, DirState::Shared(next)))
                }
                DirState::Exclusive(owner) => {
                    let next = DirState::Shared(NodeSet::singleton(home));
                    Some(DirOutcome::recall(*owner, home, None, next))
                }
            }
        }
        ProcOp::Write => {
            if state.node_writable(home) {
                return None;
            }
            let next = DirState::Exclusive(home);
            Some(match state {
                DirState::Idle => DirOutcome::quiet(None, next),
                DirState::Shared(s) => DirOutcome::invalidate(s, home, home, None),
                DirState::Exclusive(owner) => DirOutcome::recall(*owner, home, None, next),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: usize = 0; // home node for tests

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// The plan's holder messages, in the order they are sent.
    fn reqs(out: &DirOutcome) -> Vec<(NodeId, MsgType)> {
        out.holders
            .iter()
            .map(|h| (h, out.holder_request))
            .collect()
    }

    #[test]
    fn read_miss_on_idle_grants_shared() {
        let out = handle_request(&DirState::Idle, n(H), n(1), MsgType::GetRoRequest).unwrap();
        assert!(out.holders.is_empty());
        assert_eq!(out.reply, Some(MsgType::GetRoResponse));
        assert_eq!(out.next, DirState::Shared(NodeSet::singleton(n(1))));
    }

    #[test]
    fn read_miss_on_shared_adds_sharer() {
        let s = DirState::Shared(NodeSet::singleton(n(1)));
        let out = handle_request(&s, n(H), n(2), MsgType::GetRoRequest).unwrap();
        assert!(out.holders.is_empty());
        let expected: NodeSet = [n(1), n(2)].into_iter().collect();
        assert_eq!(out.next, DirState::Shared(expected));
    }

    #[test]
    fn half_migratory_read_miss_invalidates_owner() {
        let s = DirState::Exclusive(n(2));
        let out = handle_request(&s, n(H), n(1), MsgType::GetRoRequest).unwrap();
        assert_eq!(reqs(&out), vec![(n(2), MsgType::InvalRwRequest)]);
        assert_eq!(out.reply, Some(MsgType::GetRoResponse));
        // Only the reader keeps a copy: the half-migratory bet.
        assert_eq!(out.next, DirState::Shared(NodeSet::singleton(n(1))));
    }

    #[test]
    fn write_miss_invalidates_all_sharers() {
        let s = DirState::Shared([n(1), n(2), n(3)].into_iter().collect());
        let out = handle_request(&s, n(H), n(4), MsgType::GetRwRequest).unwrap();
        assert_eq!(
            reqs(&out),
            vec![
                (n(1), MsgType::InvalRoRequest),
                (n(2), MsgType::InvalRoRequest),
                (n(3), MsgType::InvalRoRequest),
            ]
        );
        assert_eq!(out.reply, Some(MsgType::GetRwResponse));
        assert_eq!(out.next, DirState::Exclusive(n(4)));
    }

    #[test]
    fn write_miss_skips_home_sharer_message() {
        // The home's own copy is invalidated silently.
        let s = DirState::Shared([n(H), n(2)].into_iter().collect());
        let out = handle_request(&s, n(H), n(3), MsgType::GetRwRequest).unwrap();
        assert_eq!(reqs(&out), vec![(n(2), MsgType::InvalRoRequest)]);
        assert_eq!(out.next, DirState::Exclusive(n(3)));
    }

    #[test]
    fn write_miss_on_exclusive_forwards_invalidation() {
        let s = DirState::Exclusive(n(2));
        let out = handle_request(&s, n(H), n(1), MsgType::GetRwRequest).unwrap();
        assert_eq!(reqs(&out), vec![(n(2), MsgType::InvalRwRequest)]);
        assert_eq!(out.next, DirState::Exclusive(n(1)));
    }

    #[test]
    fn upgrade_invalidates_other_sharers_only() {
        let s = DirState::Shared([n(1), n(2)].into_iter().collect());
        let out = handle_request(&s, n(H), n(1), MsgType::UpgradeRequest).unwrap();
        assert_eq!(reqs(&out), vec![(n(2), MsgType::InvalRoRequest)]);
        assert_eq!(out.reply, Some(MsgType::UpgradeResponse));
        assert_eq!(out.next, DirState::Exclusive(n(1)));
    }

    #[test]
    fn upgrade_by_sole_sharer_needs_no_invalidations() {
        let s = DirState::Shared(NodeSet::singleton(n(1)));
        let out = handle_request(&s, n(H), n(1), MsgType::UpgradeRequest).unwrap();
        assert!(out.holders.is_empty());
        assert_eq!(out.next, DirState::Exclusive(n(1)));
    }

    #[test]
    fn upgrade_from_non_sharer_is_inconsistent() {
        let s = DirState::Shared(NodeSet::singleton(n(1)));
        assert!(matches!(
            handle_request(&s, n(H), n(2), MsgType::UpgradeRequest),
            Err(ProtocolError::InconsistentDirectory { .. })
        ));
    }

    #[test]
    fn duplicate_requests_are_inconsistent() {
        let s = DirState::Shared(NodeSet::singleton(n(1)));
        assert!(handle_request(&s, n(H), n(1), MsgType::GetRoRequest).is_err());
        let e = DirState::Exclusive(n(1));
        assert!(handle_request(&e, n(H), n(1), MsgType::GetRoRequest).is_err());
        assert!(handle_request(&e, n(H), n(1), MsgType::GetRwRequest).is_err());
    }

    #[test]
    fn cache_bound_types_rejected_by_role() {
        assert_eq!(
            handle_request(&DirState::Idle, n(H), n(1), MsgType::GetRoResponse),
            Err(ProtocolError::WrongRole {
                mtype: MsgType::GetRoResponse
            })
        );
    }

    #[test]
    fn local_read_hit_needs_no_action() {
        let s = DirState::Shared(NodeSet::singleton(n(H)));
        assert_eq!(handle_local(&s, n(H), ProcOp::Read), None);
        let e = DirState::Exclusive(n(H));
        assert_eq!(handle_local(&e, n(H), ProcOp::Read), None);
        assert_eq!(handle_local(&e, n(H), ProcOp::Write), None);
    }

    #[test]
    fn local_read_of_remote_exclusive_invalidates_owner() {
        let s = DirState::Exclusive(n(2));
        let out = handle_local(&s, n(H), ProcOp::Read).unwrap();
        assert_eq!(reqs(&out), vec![(n(2), MsgType::InvalRwRequest)]);
        assert_eq!(out.reply, None);
        assert_eq!(out.next, DirState::Shared(NodeSet::singleton(n(H))));
    }

    #[test]
    fn local_write_invalidates_remote_sharers() {
        let s = DirState::Shared([n(H), n(2), n(5)].into_iter().collect());
        let out = handle_local(&s, n(H), ProcOp::Write).unwrap();
        assert_eq!(
            reqs(&out),
            vec![
                (n(2), MsgType::InvalRoRequest),
                (n(5), MsgType::InvalRoRequest)
            ]
        );
        assert_eq!(out.next, DirState::Exclusive(n(H)));
    }

    #[test]
    fn local_write_on_idle_is_silent() {
        let out = handle_local(&DirState::Idle, n(H), ProcOp::Write).unwrap();
        assert!(out.holders.is_empty());
        assert_eq!(out.next, DirState::Exclusive(n(H)));
    }

    #[test]
    fn dir_state_accessors() {
        let s = DirState::Shared([n(1), n(2)].into_iter().collect());
        assert_eq!(s.holders().len(), 2);
        assert_eq!(s.owner(), None);
        assert!(s.node_readable(n(1)));
        assert!(!s.node_readable(n(3)));
        assert!(!s.node_writable(n(1)));
        let e = DirState::Exclusive(n(1));
        assert_eq!(e.owner(), Some(n(1)));
        assert!(e.node_writable(n(1)));
        assert!(!e.node_writable(n(2)));
        assert!(DirState::Idle.holders().is_empty());
    }
}
