//! Exhaustive state-space exploration: a model-checking-style test that
//! enumerates *every* reachable protocol configuration for a small
//! machine (one block, up to four caches plus its home) by breadth-first
//! search over all possible processor operations, asserting the coherence
//! invariants in every reachable state.
//!
//! Unlike the randomised property tests, this is complete for the chosen
//! size: if any sequence of reads and writes (by any processors, in any
//! order) can reach an incoherent configuration, this test finds it.

use stache::cache::{on_message, on_processor_op, CacheAction};
use stache::directory::{handle_local, handle_request};
use stache::invariants::check_block;
use stache::{BlockAddr, CacheState, DirState, NodeId, ProcOp};
use std::collections::{BTreeSet, VecDeque};

/// One global configuration: the directory entry plus every cache's state.
/// Node 0 is the home; its "cache state" is derived from the entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Config {
    dir: String, // canonical rendering (DirState is not Ord)
    caches: Vec<CacheStateOrd>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum CacheStateOrd {
    Invalid,
    Shared,
    Exclusive,
}

impl From<CacheState> for CacheStateOrd {
    fn from(s: CacheState) -> Self {
        match s {
            CacheState::Invalid => CacheStateOrd::Invalid,
            CacheState::Shared => CacheStateOrd::Shared,
            CacheState::Exclusive => CacheStateOrd::Exclusive,
            other => panic!("transient state {other} at rest"),
        }
    }
}

/// Applies one complete, serialized transaction: processor `p` performs
/// `op`. Returns the successor configuration.
fn step(
    dir: &DirState,
    caches: &[CacheState],
    p: usize,
    op: ProcOp,
) -> (DirState, Vec<CacheState>) {
    let home = NodeId::new(0);
    let node = NodeId::new(p);
    let mut caches = caches.to_vec();

    if p == 0 {
        // Home access: handle_local; remote holders transition via FSM.
        match handle_local(dir, home, op) {
            None => (dir.clone(), caches),
            Some(out) => {
                for target in &out.holders {
                    let (next, reply) = on_message(caches[target.index()], out.holder_request)
                        .expect("holders accept invalidations");
                    assert!(reply.is_some());
                    caches[target.index()] = next;
                }
                (out.next, caches)
            }
        }
    } else {
        let (transient, action) = on_processor_op(caches[p], op).expect("stable states only");
        match action {
            CacheAction::Hit => (dir.clone(), caches),
            CacheAction::Send(req) => {
                let out = handle_request(dir, home, node, req)
                    .expect("serialized requests are consistent");
                for target in &out.holders {
                    let (next, reply) = on_message(caches[target.index()], out.holder_request)
                        .expect("holders accept invalidations");
                    assert!(reply.is_some());
                    caches[target.index()] = next;
                }
                let reply = out.reply.expect("remote requests are replied to");
                let (stable, extra) = on_message(transient, reply).expect("grant accepted");
                assert!(extra.is_none());
                caches[p] = stable;
                (out.next, caches)
            }
        }
    }
}

/// The home's effective state, derived from the directory entry.
fn home_state(dir: &DirState) -> CacheState {
    let home = NodeId::new(0);
    if dir.node_writable(home) {
        CacheState::Exclusive
    } else if dir.node_readable(home) {
        CacheState::Shared
    } else {
        CacheState::Invalid
    }
}

fn canonical(dir: &DirState, caches: &[CacheState]) -> Config {
    Config {
        dir: dir.to_string(),
        caches: caches.iter().map(|&s| CacheStateOrd::from(s)).collect(),
    }
}

fn explore(nodes: usize) -> usize {
    let block = BlockAddr::new(0);
    let initial_dir = DirState::Idle;
    let initial_caches = vec![CacheState::Invalid; nodes];

    let mut seen: BTreeSet<Config> = BTreeSet::new();
    let mut frontier: VecDeque<(DirState, Vec<CacheState>)> = VecDeque::new();
    seen.insert(canonical(&initial_dir, &initial_caches));
    frontier.push_back((initial_dir, initial_caches));

    while let Some((dir, caches)) = frontier.pop_front() {
        // Invariant check: the home's copy is the entry itself.
        let mut full = caches.clone();
        full[0] = home_state(&dir);
        check_block(block, &dir, &full).unwrap_or_else(|v| {
            panic!("incoherent state reached: {v} (dir {dir}, caches {caches:?})")
        });

        for p in 0..nodes {
            for op in [ProcOp::Read, ProcOp::Write] {
                let (ndir, ncaches) = step(&dir, &caches, p, op);
                let key = canonical(&ndir, &ncaches);
                if seen.insert(key) {
                    frontier.push_back((ndir, ncaches));
                }
            }
        }
    }
    seen.len()
}

#[test]
fn every_reachable_state_is_coherent_half_migratory() {
    let states = explore(4);
    // Sanity: the space is neither trivial nor unbounded.
    assert!(states > 10, "only {states} states explored");
    assert!(states < 1000, "state space exploded: {states}");
}

#[test]
fn five_node_space_is_also_clean() {
    let states = explore(5);
    assert!(states > 20, "only {states} states");
}

/// The reachable-state counts themselves are protocol signatures: any
/// change to the FSMs that silently adds or removes reachable
/// configurations shows up here.
#[test]
fn state_counts_are_stable() {
    assert_eq!([3, 4, 5].map(explore), [11, 20, 37]);
}
