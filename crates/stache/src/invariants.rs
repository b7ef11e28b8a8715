//! Global protocol invariant checking.
//!
//! Given a consistent snapshot of every cache's state and the directory
//! entry for a block, [`check_block`] verifies:
//!
//! 1. **Single-writer / multiple-reader (SWMR)** — at most one cache holds
//!    the block exclusive, and never together with shared copies elsewhere;
//! 2. **Full-map accuracy** — the directory's holder set matches exactly
//!    the caches that actually hold a valid copy.
//!
//! The property-test suite drives it with random access streams. The
//! `simx` engines audit with [`check_block_sparse`], the same check over a
//! block's holders only, and tests hold the two forms equal.

use crate::cache::CacheState;
use crate::directory::DirState;
use crate::ids::{BlockAddr, NodeId};
use std::error::Error;
use std::fmt;

/// A violated coherence invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// More than one cache holds the block exclusive.
    MultipleWriters {
        /// The block in violation.
        block: BlockAddr,
        /// The nodes that simultaneously hold it exclusive.
        writers: Vec<NodeId>,
    },
    /// A cache holds the block exclusive while another holds it shared.
    WriterWithReaders {
        /// The block in violation.
        block: BlockAddr,
        /// The exclusive owner.
        writer: NodeId,
        /// Nodes simultaneously holding shared copies.
        readers: Vec<NodeId>,
    },
    /// The directory's record disagrees with the caches' actual states.
    DirectoryMismatch {
        /// The block in violation.
        block: BlockAddr,
        /// Human-readable rendering of the directory entry.
        directory: String,
        /// The caches that actually hold valid copies, with their states.
        actual: Vec<(NodeId, CacheState)>,
    },
    /// A cache is stuck in a transient state outside a transaction.
    TransientAtRest {
        /// The block in violation.
        block: BlockAddr,
        /// The offending node.
        node: NodeId,
        /// Its (transient) state.
        state: CacheState,
    },
    /// A node is still waiting on a miss (or a directory transaction is
    /// still open) after the machine went quiescent — the message that
    /// would have completed it was lost or never sent.
    StuckMessage {
        /// The block the stuck request concerns.
        block: BlockAddr,
        /// The node left waiting.
        node: NodeId,
    },
    /// A receiver's delivery low-water mark moved backwards — the
    /// recovery layer's idempotent-delivery bookkeeping regressed.
    SequenceRegression {
        /// The receiver whose watermark regressed.
        node: NodeId,
        /// The watermark before the step.
        from: u64,
        /// The (lower) watermark after the step.
        to: u64,
    },
}

impl InvariantViolation {
    /// Lowercase kind name, for metric paths and trace events.
    pub fn kind_name(&self) -> &'static str {
        match self {
            InvariantViolation::MultipleWriters { .. } => "multiple_writers",
            InvariantViolation::WriterWithReaders { .. } => "writer_with_readers",
            InvariantViolation::DirectoryMismatch { .. } => "directory_mismatch",
            InvariantViolation::TransientAtRest { .. } => "transient_at_rest",
            InvariantViolation::StuckMessage { .. } => "stuck_message",
            InvariantViolation::SequenceRegression { .. } => "sequence_regression",
        }
    }

    /// The block in violation, if the invariant is per-block.
    pub fn block(&self) -> Option<BlockAddr> {
        match self {
            InvariantViolation::MultipleWriters { block, .. }
            | InvariantViolation::WriterWithReaders { block, .. }
            | InvariantViolation::DirectoryMismatch { block, .. }
            | InvariantViolation::TransientAtRest { block, .. }
            | InvariantViolation::StuckMessage { block, .. } => Some(*block),
            InvariantViolation::SequenceRegression { .. } => None,
        }
    }

    /// A node implicated in the violation, if one is identifiable.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            InvariantViolation::MultipleWriters { writers, .. } => writers.first().copied(),
            InvariantViolation::WriterWithReaders { writer, .. } => Some(*writer),
            InvariantViolation::DirectoryMismatch { actual, .. } => actual.first().map(|(n, _)| *n),
            InvariantViolation::TransientAtRest { node, .. }
            | InvariantViolation::StuckMessage { node, .. }
            | InvariantViolation::SequenceRegression { node, .. } => Some(*node),
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::MultipleWriters { block, writers } => {
                write!(f, "{block}: multiple exclusive owners: {writers:?}")
            }
            InvariantViolation::WriterWithReaders {
                block,
                writer,
                readers,
            } => {
                write!(
                    f,
                    "{block}: owner {writer} coexists with readers {readers:?}"
                )
            }
            InvariantViolation::DirectoryMismatch {
                block,
                directory,
                actual,
            } => {
                write!(
                    f,
                    "{block}: directory says {directory} but caches hold {actual:?}"
                )
            }
            InvariantViolation::TransientAtRest { block, node, state } => {
                write!(f, "{block}: {node} left in transient state {state}")
            }
            InvariantViolation::StuckMessage { block, node } => {
                write!(f, "{block}: {node} still waiting at quiescence")
            }
            InvariantViolation::SequenceRegression { node, from, to } => {
                write!(f, "{node}: delivery watermark regressed {from} -> {to}")
            }
        }
    }
}

impl Error for InvariantViolation {}

/// Checks the coherence invariants for one block.
///
/// `cache_states` gives each node's state for the block, indexed by node.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn check_block(
    block: BlockAddr,
    dir: &DirState,
    cache_states: &[CacheState],
) -> Result<(), InvariantViolation> {
    let writers: Vec<NodeId> = cache_states
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == CacheState::Exclusive)
        .map(|(i, _)| NodeId::new(i))
        .collect();
    let readers: Vec<NodeId> = cache_states
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == CacheState::Shared)
        .map(|(i, _)| NodeId::new(i))
        .collect();

    if let Some((i, &s)) = cache_states
        .iter()
        .enumerate()
        .find(|(_, s)| !s.is_stable())
    {
        return Err(InvariantViolation::TransientAtRest {
            block,
            node: NodeId::new(i),
            state: s,
        });
    }
    if writers.len() > 1 {
        return Err(InvariantViolation::MultipleWriters { block, writers });
    }
    if let (Some(&writer), false) = (writers.first(), readers.is_empty()) {
        return Err(InvariantViolation::WriterWithReaders {
            block,
            writer,
            readers,
        });
    }

    let mismatch = || InvariantViolation::DirectoryMismatch {
        block,
        directory: dir.to_string(),
        actual: cache_states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s != CacheState::Invalid)
            .map(|(i, s)| (NodeId::new(i), *s))
            .collect(),
    };
    match dir {
        DirState::Idle => {
            if !writers.is_empty() || !readers.is_empty() {
                return Err(mismatch());
            }
        }
        DirState::Shared(set) => {
            if !writers.is_empty() || set.is_empty() {
                return Err(mismatch());
            }
            let actual: Vec<NodeId> = readers;
            if actual.len() != set.len() || actual.iter().any(|n| !set.contains(*n)) {
                return Err(mismatch());
            }
        }
        DirState::Exclusive(owner) => {
            if writers != [*owner] || !readers.is_empty() {
                return Err(mismatch());
            }
        }
    }
    Ok(())
}

/// [`check_block`] over the block's *holders* — `(node, state)` for every
/// node whose state is not `Invalid`, ascending — instead of one state per
/// node of the machine: the same verdict and first violation at the
/// holders' cost, whatever the machine's size, allocating nothing for a
/// coherent block. This is the form the engines audit with.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn check_block_sparse<I>(
    block: BlockAddr,
    dir: &DirState,
    holders: I,
) -> Result<(), InvariantViolation>
where
    I: Iterator<Item = (NodeId, CacheState)> + Clone,
{
    if let Some((node, state)) = holders.clone().find(|(_, s)| !s.is_stable()) {
        return Err(InvariantViolation::TransientAtRest { block, node, state });
    }
    let writer = swmr(block, holders.clone())?;
    let mut readers = holders.clone().filter(|(_, s)| *s == CacheState::Shared);
    let accurate = match dir {
        DirState::Idle => writer.is_none() && readers.next().is_none(),
        DirState::Shared(set) => {
            let listed = readers.clone().all(|(n, _)| set.contains(n));
            writer.is_none() && listed && !set.is_empty() && readers.count() == set.len()
        }
        // (A writer has no reader beside it: `swmr` saw to that.)
        DirState::Exclusive(owner) => writer == Some(*owner),
    };
    if !accurate {
        let actual = holders.filter(|(_, s)| *s != CacheState::Invalid);
        return Err(InvariantViolation::DirectoryMismatch {
            block,
            directory: dir.to_string(),
            actual: actual.collect(),
        });
    }
    Ok(())
}

/// Single-writer/multiple-reader over a block's holders: the exclusive
/// owner, if any — alone of its kind, and with no reader beside it.
fn swmr<I>(block: BlockAddr, holders: I) -> Result<Option<NodeId>, InvariantViolation>
where
    I: Iterator<Item = (NodeId, CacheState)> + Clone,
{
    let holding = |want| {
        let of_state = holders.clone().filter(move |(_, s)| *s == want);
        of_state.map(|(n, _)| n)
    };
    let mut writers = holding(CacheState::Exclusive);
    let writer = writers.next();
    if writers.next().is_some() {
        let writers = holding(CacheState::Exclusive).collect();
        return Err(InvariantViolation::MultipleWriters { block, writers });
    }
    match (writer, holding(CacheState::Shared).next()) {
        (Some(writer), Some(_)) => Err(InvariantViolation::WriterWithReaders {
            block,
            writer,
            readers: holding(CacheState::Shared).collect(),
        }),
        _ => Ok(writer),
    }
}

/// Checks single-writer/multiple-reader only — the invariant that must
/// hold at *every* step, not just at quiescence.
///
/// Mid-transaction the directory entry legitimately lags the caches and
/// requesters sit in transient states, so [`check_block`]'s full-map and
/// transient-at-rest checks would fire spuriously; SWMR over the *stable*
/// states never does, because a Stache directory collects every
/// invalidation acknowledgment before granting new rights. The `simcheck`
/// model checker calls this after every delivered message.
///
/// # Errors
///
/// Returns [`InvariantViolation::MultipleWriters`] or
/// [`InvariantViolation::WriterWithReaders`].
pub fn check_swmr(block: BlockAddr, cache_states: &[CacheState]) -> Result<(), InvariantViolation> {
    let states = cache_states.iter().enumerate();
    swmr(block, states.map(|(i, s)| (NodeId::new(i), *s))).map(drop)
}

/// Checks that a receiver's delivery low-water mark only moves forward.
///
/// # Errors
///
/// Returns [`InvariantViolation::SequenceRegression`] when `after < before`.
pub fn check_watermark(node: NodeId, before: u64, after: u64) -> Result<(), InvariantViolation> {
    if after < before {
        return Err(InvariantViolation::SequenceRegression {
            node,
            from: before,
            to: after,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeSet;

    fn b() -> BlockAddr {
        BlockAddr::new(7)
    }

    #[test]
    fn idle_with_no_copies_is_coherent() {
        let states = vec![CacheState::Invalid; 4];
        assert!(check_block(b(), &DirState::Idle, &states).is_ok());
    }

    #[test]
    fn exclusive_matches_single_writer() {
        let mut states = vec![CacheState::Invalid; 4];
        states[2] = CacheState::Exclusive;
        assert!(check_block(b(), &DirState::Exclusive(NodeId::new(2)), &states).is_ok());
    }

    #[test]
    fn shared_matches_reader_set() {
        let mut states = vec![CacheState::Invalid; 4];
        states[0] = CacheState::Shared;
        states[3] = CacheState::Shared;
        let set: NodeSet = [NodeId::new(0), NodeId::new(3)].into_iter().collect();
        assert!(check_block(b(), &DirState::Shared(set), &states).is_ok());
    }

    #[test]
    fn two_writers_violate_swmr() {
        let mut states = vec![CacheState::Invalid; 4];
        states[0] = CacheState::Exclusive;
        states[1] = CacheState::Exclusive;
        assert!(matches!(
            check_block(b(), &DirState::Exclusive(NodeId::new(0)), &states),
            Err(InvariantViolation::MultipleWriters { .. })
        ));
    }

    #[test]
    fn writer_plus_reader_violates_swmr() {
        let mut states = vec![CacheState::Invalid; 4];
        states[0] = CacheState::Exclusive;
        states[1] = CacheState::Shared;
        assert!(matches!(
            check_block(b(), &DirState::Exclusive(NodeId::new(0)), &states),
            Err(InvariantViolation::WriterWithReaders { .. })
        ));
    }

    #[test]
    fn stale_directory_detected() {
        let mut states = vec![CacheState::Invalid; 4];
        states[1] = CacheState::Shared;
        // Directory thinks node 2 shares it instead.
        let set = NodeSet::singleton(NodeId::new(2));
        assert!(matches!(
            check_block(b(), &DirState::Shared(set), &states),
            Err(InvariantViolation::DirectoryMismatch { .. })
        ));
    }

    #[test]
    fn empty_shared_set_detected() {
        let states = vec![CacheState::Invalid; 4];
        assert!(matches!(
            check_block(b(), &DirState::Shared(NodeSet::new()), &states),
            Err(InvariantViolation::DirectoryMismatch { .. })
        ));
    }

    #[test]
    fn transient_at_rest_detected() {
        let mut states = vec![CacheState::Invalid; 4];
        states[3] = CacheState::IToS;
        assert!(matches!(
            check_block(b(), &DirState::Idle, &states),
            Err(InvariantViolation::TransientAtRest { .. })
        ));
    }

    /// Every picture of a four-node machine — six states per cache, every
    /// directory entry including the ill-formed empty sharer set — gets
    /// the same verdict, down to the nodes a violation lists, from the
    /// dense check and from the sparse one fed the non-`Invalid` states.
    #[test]
    fn sparse_check_agrees_with_the_dense_one_on_every_small_picture() {
        let all = [
            CacheState::Invalid,
            CacheState::Shared,
            CacheState::Exclusive,
            CacheState::IToS,
            CacheState::IToE,
            CacheState::SToE,
        ];
        let mut dirs = vec![DirState::Idle];
        dirs.extend((0..4).map(|i| DirState::Exclusive(NodeId::new(i))));
        dirs.extend((0..16u32).map(|mask| {
            let members = (0..4).filter(|i| mask & (1 << i) != 0);
            DirState::Shared(members.map(NodeId::new).collect())
        }));
        let mut failures = 0;
        for code in 0..6usize.pow(4) {
            let states: Vec<CacheState> = (0..4).map(|i| all[code / 6usize.pow(i) % 6]).collect();
            let holders = states
                .iter()
                .enumerate()
                .filter(|(_, s)| **s != CacheState::Invalid)
                .map(|(i, s)| (NodeId::new(i), *s));
            for dir in &dirs {
                let dense = check_block(b(), dir, &states);
                assert_eq!(
                    check_block_sparse(b(), dir, holders.clone()),
                    dense,
                    "{dir} {states:?}"
                );
                failures += usize::from(dense.is_err());
            }
        }
        assert!(
            failures > 20_000,
            "most pictures are incoherent: {failures}"
        );
    }

    #[test]
    fn violations_display() {
        let v = InvariantViolation::MultipleWriters {
            block: b(),
            writers: vec![NodeId::new(0), NodeId::new(1)],
        };
        assert!(v.to_string().contains("multiple exclusive owners"));
        let s = InvariantViolation::StuckMessage {
            block: b(),
            node: NodeId::new(1),
        };
        assert!(s.to_string().contains("still waiting"));
        assert_eq!(s.kind_name(), "stuck_message");
        assert_eq!(s.block(), Some(b()));
        assert_eq!(s.node(), Some(NodeId::new(1)));
    }

    #[test]
    fn swmr_tolerates_transients_mid_flight() {
        // A requester in S-to-E next to the current owner is a legal
        // mid-transaction picture; the full check would reject it.
        let mut states = vec![CacheState::Invalid; 4];
        states[0] = CacheState::Exclusive;
        states[1] = CacheState::SToE;
        states[2] = CacheState::IToS;
        assert!(check_swmr(b(), &states).is_ok());
        assert!(check_block(b(), &DirState::Exclusive(NodeId::new(0)), &states).is_err());
    }

    #[test]
    fn swmr_still_rejects_stable_violations() {
        let mut states = vec![CacheState::Invalid; 4];
        states[0] = CacheState::Exclusive;
        states[2] = CacheState::Shared;
        assert!(matches!(
            check_swmr(b(), &states),
            Err(InvariantViolation::WriterWithReaders { .. })
        ));
        states[2] = CacheState::Exclusive;
        assert!(matches!(
            check_swmr(b(), &states),
            Err(InvariantViolation::MultipleWriters { .. })
        ));
    }

    #[test]
    fn watermarks_must_be_monotone() {
        assert!(check_watermark(NodeId::new(0), 5, 5).is_ok());
        assert!(check_watermark(NodeId::new(0), 5, 9).is_ok());
        let v = check_watermark(NodeId::new(3), 5, 4).unwrap_err();
        assert_eq!(v.kind_name(), "sequence_regression");
        assert_eq!(v.block(), None);
        assert_eq!(v.node(), Some(NodeId::new(3)));
    }
}
