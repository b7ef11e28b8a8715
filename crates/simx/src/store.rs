//! The values of [`ConcurrentMachine`](crate::ConcurrentMachine)'s two
//! block-keyed tables (DESIGN.md §6h): a block's [`DirEntry`] at its home
//! and its [`Copies`] in other nodes' caches. Nothing is kept per node, so
//! a handler looks a block up once and an audit visits a block's holders.

use stache::{CacheState, DirState, NodeId};

/// [`DirEntry::txn`] of a block with no transaction open.
pub(crate) const NO_TXN: u32 = u32::MAX;

/// Everything a home keeps for one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirEntry {
    /// The full-map state.
    pub(crate) state: DirState,
    /// The open transaction's slot in the machine's transaction slab
    /// ([`NO_TXN`] when the block is free). Requests that find the block
    /// busy queue in that slot.
    pub(crate) txn: u32,
    /// Whether the sharer set outgrew the limited-pointer budget, so that
    /// the next write must broadcast.
    pub(crate) overflowed: bool,
}

impl Default for DirEntry {
    fn default() -> Self {
        DirEntry {
            state: DirState::Idle,
            txn: NO_TXN,
            overflowed: false,
        }
    }
}

/// Copies kept in the value itself: most blocks have a single owner or a
/// few readers.
const INLINE: usize = 4;

/// One node's copy of a block.
pub(crate) type Holder = (NodeId, CacheState);

/// The copies of one block cached outside its home: every node whose
/// state for the block is not `Invalid`, in node order.
#[derive(Debug, Clone)]
pub(crate) enum Copies {
    /// The first `.0` slots are the copies.
    Inline(u8, [Holder; INLINE]),
    /// More than [`INLINE`] copies at some point. Boxed: a bare `Vec`
    /// would make every block's entry a word longer.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<Holder>>),
}

impl Default for Copies {
    fn default() -> Self {
        Copies::Inline(0, [(NodeId::new(0), CacheState::Invalid); INLINE])
    }
}

impl PartialEq for Copies {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Copies {
    /// The copies, in node order.
    pub(crate) fn as_slice(&self) -> &[Holder] {
        match self {
            Copies::Inline(len, slots) => &slots[..usize::from(*len)],
            Copies::Spilled(copies) => copies,
        }
    }

    /// `node`'s state for the block.
    pub(crate) fn state(&self, node: NodeId) -> CacheState {
        let held = self.as_slice();
        let at = held.binary_search_by_key(&node, |(n, _)| *n);
        at.map_or(CacheState::Invalid, |at| held[at].1)
    }

    /// Sets `node`'s state; `Invalid` drops its copy.
    pub(crate) fn set(&mut self, node: NodeId, state: CacheState) {
        let at = self.as_slice().binary_search_by_key(&node, |(n, _)| *n);
        match (self, at, state == CacheState::Invalid) {
            (_, Err(_), true) => {}
            (Copies::Spilled(copies), Ok(at), true) => drop(copies.remove(at)),
            (Copies::Spilled(copies), Ok(at), false) => copies[at].1 = state,
            (Copies::Spilled(copies), Err(at), false) => copies.insert(at, (node, state)),
            (Copies::Inline(len, slots), Ok(at), true) => {
                slots.copy_within(at + 1..usize::from(*len), at);
                *len -= 1;
            }
            (Copies::Inline(_, slots), Ok(at), false) => slots[at].1 = state,
            (Copies::Inline(len, slots), Err(at), false) if usize::from(*len) < INLINE => {
                slots.copy_within(at..usize::from(*len), at + 1);
                slots[at] = (node, state);
                *len += 1;
            }
            (this, Err(at), false) => {
                let mut copies = this.as_slice().to_vec();
                copies.insert(at, (node, state));
                *this = Copies::Spilled(Box::new(copies));
            }
        }
    }
}

/// A block's picture as the coherence checks want it: its cached copies
/// `holders` (ascending) with the home's own rights merged in at its
/// place. The home keeps no cache entry — its rights are what its
/// directory entry `dir` says.
pub(crate) fn with_home_rights<'a>(
    holders: impl Iterator<Item = Holder> + Clone + 'a,
    home: NodeId,
    dir: &DirState,
) -> impl Iterator<Item = Holder> + Clone + 'a {
    let rights = if dir.node_writable(home) {
        CacheState::Exclusive
    } else if dir.node_readable(home) {
        CacheState::Shared
    } else {
        CacheState::Invalid
    };
    let below = holders.clone().take_while(move |(n, _)| *n < home);
    let above = holders.skip_while(move |(n, _)| *n <= home);
    below
        .chain((rights != CacheState::Invalid).then_some((home, rights)))
        .chain(above)
}

#[cfg(test)]
mod tests {
    use super::*;
    use CacheState::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn copies_stay_in_node_order_through_the_spill_and_back() {
        let mut c = Copies::default();
        let mut model = std::collections::BTreeMap::new();
        let script = [
            (9, Shared),
            (2, IToS),
            (1000, Shared),
            (2, Shared),
            (5, Invalid), // never held
            (40, Shared),
            (3, Shared), // fifth copy: spills
            (9, Invalid),
            (2, Invalid),
            (1000, SToE),
            (40, Invalid),
            (3, Invalid),
            (1000, Invalid),
        ];
        for (i, state) in script {
            c.set(n(i), state);
            if state == Invalid {
                model.remove(&i);
            } else {
                model.insert(i, state);
            }
            let want: Vec<Holder> = model.iter().map(|(&i, &s)| (n(i), s)).collect();
            assert_eq!(c.as_slice(), want);
            assert_eq!(c.state(n(i)), state);
            assert_eq!(c.state(n(77)), Invalid);
        }
        assert!(matches!(c, Copies::Spilled(_)));
        assert_eq!(c, Copies::default(), "equality is the copies'");
    }

    #[test]
    fn the_homes_rights_are_merged_in_at_its_place() {
        let held = [(n(1), Shared), (n(4), Shared)];
        let set: stache::NodeSet = [n(1), n(3), n(4)].into_iter().collect();
        let picture = |home, dir: &DirState| -> Vec<Holder> {
            with_home_rights(held.iter().copied(), n(home), dir).collect()
        };
        let shared = DirState::Shared(set);
        assert_eq!(
            picture(3, &shared),
            [(n(1), Shared), (n(3), Shared), (n(4), Shared)]
        );
        assert_eq!(picture(0, &shared), held, "home 0 is no sharer");
        assert_eq!(picture(9, &DirState::Exclusive(n(9)))[2], (n(9), Exclusive));
        // A cache entry for the home itself is not its state: the
        // directory entry is.
        assert_eq!(picture(4, &DirState::Idle), [(n(1), Shared)]);
    }
}
