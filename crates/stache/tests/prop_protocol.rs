//! Property tests for the protocol substrate: the NodeSet behaves like a
//! set, identifier mappings round-trip, and the directory's outcomes
//! always leave the entry consistent with the request.

// Property tests need the external `proptest` crate; the feature is a
// placeholder until it can be vendored (see the workspace manifest).
#![cfg(feature = "proptest-tests")]
use proptest::prelude::*;
use stache::directory::{handle_local, handle_request, DirOutcome};
use stache::{BlockAddr, DirState, MsgType, NodeId, NodeSet, ProcOp, ProtocolConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// NodeSet agrees with a BTreeSet model under arbitrary operations.
    #[test]
    fn node_set_matches_model(ops in prop::collection::vec((0usize..200, any::<bool>()), 0..100)) {
        let mut set = NodeSet::new();
        let mut model = std::collections::BTreeSet::new();
        for (n, insert) in ops {
            let node = NodeId::new(n);
            if insert {
                prop_assert_eq!(set.insert(node), model.insert(n));
            } else {
                prop_assert_eq!(set.remove(node), model.remove(&n));
            }
        }
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.is_empty(), model.is_empty());
        let members: Vec<usize> = set.iter().map(NodeId::index).collect();
        let expected: Vec<usize> = model.iter().copied().collect();
        prop_assert_eq!(members, expected);
    }

    /// Block -> page -> first block stays within one page.
    #[test]
    fn block_page_consistency(block in 0u64..1_000_000, bpp in 1u64..512) {
        let b = BlockAddr::new(block);
        let page = b.page(bpp);
        let first = page.first_block(bpp);
        prop_assert!(first.number() <= block);
        prop_assert!(block < first.number() + bpp);
        prop_assert_eq!(first.page(bpp), page);
    }

    /// Tuple pack/unpack round-trips for every valid (node, type) pair.
    #[test]
    fn msg_codes_roundtrip(code in 0u8..12) {
        let t = MsgType::from_code(code).unwrap();
        prop_assert_eq!(t.code(), code);
    }

    /// Whatever request the directory services, the outcome's holder
    /// requests go only to current holders, never to the requester, never
    /// to the home, and the next state grants the requester its rights.
    #[test]
    fn directory_outcomes_are_consistent(
        holders in prop::collection::btree_set(0usize..8, 0..4),
        exclusive in any::<bool>(),
        from in 8usize..12,
        req_kind in 0usize..3,
        half_migratory in any::<bool>(),
    ) {
        let cfg = ProtocolConfig { half_migratory, ..ProtocolConfig::paper() };
        let home = NodeId::new(15);
        let from = NodeId::new(from);
        let state = if holders.is_empty() {
            DirState::Idle
        } else if exclusive {
            DirState::Exclusive(NodeId::new(*holders.iter().next().unwrap()))
        } else {
            DirState::Shared(holders.iter().map(|&n| NodeId::new(n)).collect())
        };
        let req = match req_kind {
            0 => MsgType::GetRoRequest,
            1 => MsgType::GetRwRequest,
            _ => MsgType::UpgradeRequest,
        };
        // Upgrades from a non-sharer are inconsistent by construction
        // (the requester pool 8..12 is disjoint from holders 0..8).
        let result = handle_request(&state, home, from, req, &cfg);
        if req == MsgType::UpgradeRequest {
            prop_assert!(result.is_err());
            return Ok(());
        }
        let DirOutcome { holders, holder_request, reply, next } = result.unwrap();
        let holders_before = state.holders();
        for target in &holders {
            prop_assert!(holders_before.contains(target), "{target} not a holder");
            prop_assert_ne!(target, from);
            prop_assert_ne!(target, home);
        }
        prop_assert!(matches!(
            holder_request,
            MsgType::InvalRoRequest | MsgType::InvalRwRequest | MsgType::DowngradeRequest
        ));
        prop_assert!(reply.is_some(), "remote requests are always answered");
        match req {
            MsgType::GetRoRequest => prop_assert!(next.node_readable(from)),
            MsgType::GetRwRequest => prop_assert!(next.node_writable(from)),
            _ => unreachable!(),
        }
    }

    /// Local accesses never message the home itself, and always leave the
    /// home with sufficient rights.
    #[test]
    fn local_accesses_grant_home_rights(
        holders in prop::collection::btree_set(0usize..8, 0..4),
        exclusive in any::<bool>(),
        write in any::<bool>(),
    ) {
        let cfg = ProtocolConfig::paper();
        let home = NodeId::new(15);
        let state = if holders.is_empty() {
            DirState::Idle
        } else if exclusive {
            DirState::Exclusive(NodeId::new(*holders.iter().next().unwrap()))
        } else {
            DirState::Shared(holders.iter().map(|&n| NodeId::new(n)).collect())
        };
        let op = if write { ProcOp::Write } else { ProcOp::Read };
        match handle_local(&state, home, op, &cfg) {
            None => {
                // Already had rights.
                if write {
                    prop_assert!(state.node_writable(home));
                } else {
                    prop_assert!(state.node_readable(home));
                }
            }
            Some(out) => {
                prop_assert!(out.reply.is_none());
                for target in &out.holders {
                    prop_assert_ne!(target, home);
                }
                if write {
                    prop_assert!(out.next.node_writable(home));
                } else {
                    prop_assert!(out.next.node_readable(home));
                }
            }
        }
    }
}
