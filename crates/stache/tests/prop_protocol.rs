//! Property tests for the protocol substrate: the NodeSet behaves like a
//! set, identifier mappings round-trip, and the directory's outcomes
//! always leave the entry consistent with the request.
//!
//! Seeded cases on the in-house generator (`simx::rng::check`).

use simx::rng::{check, SmallRng};
use stache::directory::{handle_local, handle_request, DirOutcome};
use stache::{BlockAddr, DirState, MsgType, NodeId, NodeSet, ProcOp, ProtocolConfig};
use std::collections::BTreeSet;

/// A directory entry held by up to three of nodes 0..8: idle when nobody
/// holds it, else exclusive to the lowest holder or shared by all.
fn dir_state(rng: &mut SmallRng) -> DirState {
    let want = rng.gen_range(0..4);
    let mut holders = BTreeSet::new();
    while holders.len() < want {
        holders.insert(rng.gen_range(0..8));
    }
    let exclusive = rng.gen_bool(0.5);
    match holders.first() {
        None => DirState::Idle,
        Some(&owner) if exclusive => DirState::Exclusive(NodeId::new(owner)),
        Some(_) => DirState::Shared(holders.iter().map(|&n| NodeId::new(n)).collect()),
    }
}

/// NodeSet agrees with a BTreeSet model under arbitrary operations.
#[test]
fn node_set_matches_model() {
    check(256, |rng| {
        let mut set = NodeSet::new();
        let mut model = BTreeSet::new();
        for _ in 0..rng.gen_range(0..100) {
            let n = rng.gen_range(0..200);
            let node = NodeId::new(n);
            if rng.gen_bool(0.5) {
                assert_eq!(set.insert(node), model.insert(n));
            } else {
                assert_eq!(set.remove(node), model.remove(&n));
            }
        }
        assert_eq!(set.len(), model.len());
        assert_eq!(set.is_empty(), model.is_empty());
        let members: Vec<usize> = set.iter().map(NodeId::index).collect();
        let expected: Vec<usize> = model.iter().copied().collect();
        assert_eq!(members, expected);
    });
}

/// Block -> page -> first block stays within one page.
#[test]
fn block_page_consistency() {
    check(256, |rng| {
        let block = rng.gen_range(0..1_000_000) as u64;
        let bpp = rng.gen_range(1..512) as u64;
        let page = BlockAddr::new(block).page(bpp);
        let first = page.first_block(bpp);
        assert!(first.number() <= block);
        assert!(block < first.number() + bpp);
        assert_eq!(first.page(bpp), page);
    });
}

/// Message-type codes round-trip for every valid code.
#[test]
fn msg_codes_roundtrip() {
    for code in 0u8..12 {
        assert_eq!(MsgType::from_code(code).unwrap().code(), code);
    }
}

/// Whatever request the directory services, the outcome's holder
/// requests go only to current holders, never to the requester, never
/// to the home, and the next state grants the requester its rights.
#[test]
fn directory_outcomes_are_consistent() {
    check(256, |rng| {
        let state = dir_state(rng);
        let cfg = ProtocolConfig {
            half_migratory: rng.gen_bool(0.5),
            ..ProtocolConfig::paper()
        };
        let home = NodeId::new(15);
        let from = NodeId::new(rng.gen_range(8..12));
        let req = [
            MsgType::GetRoRequest,
            MsgType::GetRwRequest,
            MsgType::UpgradeRequest,
        ][rng.gen_range(0..3)];
        // Upgrades from a non-sharer are inconsistent by construction
        // (the requester pool 8..12 is disjoint from holders 0..8).
        let result = handle_request(&state, home, from, req, &cfg);
        if req == MsgType::UpgradeRequest {
            assert!(result.is_err());
            return;
        }
        let DirOutcome {
            holders,
            holder_request,
            reply,
            next,
        } = result.unwrap();
        let holders_before = state.holders();
        for target in &holders {
            assert!(holders_before.contains(target), "{target} not a holder");
            assert_ne!(target, from);
            assert_ne!(target, home);
        }
        assert!(matches!(
            holder_request,
            MsgType::InvalRoRequest | MsgType::InvalRwRequest | MsgType::DowngradeRequest
        ));
        assert!(reply.is_some(), "remote requests are always answered");
        match req {
            MsgType::GetRoRequest => assert!(next.node_readable(from)),
            MsgType::GetRwRequest => assert!(next.node_writable(from)),
            _ => unreachable!(),
        }
    });
}

/// Local accesses never message the home itself, and always leave the
/// home with sufficient rights.
#[test]
fn local_accesses_grant_home_rights() {
    check(256, |rng| {
        let state = dir_state(rng);
        let write = rng.gen_bool(0.5);
        let cfg = ProtocolConfig::paper();
        let home = NodeId::new(15);
        let op = if write { ProcOp::Write } else { ProcOp::Read };
        let has_rights = |s: &DirState| {
            if write {
                s.node_writable(home)
            } else {
                s.node_readable(home)
            }
        };
        match handle_local(&state, home, op, &cfg) {
            // Already had rights.
            None => assert!(has_rights(&state)),
            Some(out) => {
                assert!(out.reply.is_none());
                for target in &out.holders {
                    assert_ne!(target, home);
                }
                assert!(has_rights(&out.next));
            }
        }
    });
}
