//! Identifier newtypes: nodes, cache blocks, pages, and node sets.
//!
//! The paper's predictor tuple reserves 12 bits for the processor number and
//! 4 bits for the message type (Table 7 caption), so [`NodeId`] enforces a
//! 12-bit range. [`BlockAddr`] is a *block-granular* address (a block
//! number), which is the granularity at which both the directory and Cosmos
//! keep state. [`NodeSet`] is the directory's sharer list: two words, no
//! allocation for the usual handful of sharers, and one abstract set
//! whichever way it is stored.

use std::fmt;

/// Maximum number of nodes representable in a prediction tuple (12 bits).
pub const MAX_NODES: usize = 1 << 12;

/// A node (equivalently, a processor — the paper considers single-processor
/// nodes only).
///
/// ```
/// use stache::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "P3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAX_NODES` (the tuple encoding reserves 12 bits).
    pub fn new(index: usize) -> Self {
        assert!(index < MAX_NODES, "node index {index} exceeds 12-bit range");
        NodeId(index as u16)
    }

    /// The zero-based index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw 12-bit value used by the packed tuple encoding.
    pub fn raw(self) -> u16 {
        self.0
    }

    /// Reconstructs a node id from a raw 12-bit value.
    ///
    /// Returns `None` if the value is out of range.
    pub fn from_raw(raw: u16) -> Option<Self> {
        ((raw as usize) < MAX_NODES).then_some(NodeId(raw))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(n: NodeId) -> usize {
        n.index()
    }
}

/// A cache-block address: the block *number*, i.e. byte address divided by
/// the block size. Directory entries, cache lines, and Cosmos MHRs are all
/// keyed by `BlockAddr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a block number.
    pub fn new(block_number: u64) -> Self {
        BlockAddr(block_number)
    }

    /// The block number.
    pub fn number(self) -> u64 {
        self.0
    }

    /// The page containing this block, given `blocks_per_page`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks_per_page` is zero.
    pub fn page(self, blocks_per_page: u64) -> PageId {
        assert!(blocks_per_page > 0, "blocks_per_page must be nonzero");
        PageId(self.0 / blocks_per_page)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{:#x}", self.0)
    }
}

/// A page identifier. Pages are the unit of round-robin home placement
/// (paper §5.1): page `X` is homed on node `X mod N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page id.
    pub fn new(page_number: u64) -> Self {
        PageId(page_number)
    }

    /// The page number.
    pub fn number(self) -> u64 {
        self.0
    }

    /// The first block of this page.
    pub fn first_block(self, blocks_per_page: u64) -> BlockAddr {
        BlockAddr(self.0 * blocks_per_page)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pg{}", self.0)
    }
}

/// A set of nodes, used as the full-map sharer list in directory entries.
///
/// A sorted list of ids: up to seven members live in the value itself, so
/// the usual sharer set — a handful of nodes, whatever their ids — costs
/// no allocation to build, clone or grow; a larger set spills to the heap
/// and stays there. Either way it is one abstract set: equality, hashing
/// and iteration order depend on the members only.
///
/// ```
/// use stache::{NodeId, NodeSet};
/// let mut s = NodeSet::new();
/// s.insert(NodeId::new(2));
/// s.insert(NodeId::new(5));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(NodeId::new(2)));
/// let members: Vec<_> = s.iter().map(|n| n.index()).collect();
/// assert_eq!(members, vec![2, 5]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NodeSet(Repr);

/// Members a [`NodeSet`] holds without allocating.
const INLINE: usize = 7;

/// Raw ids, ascending. Two words: the spill sits behind a thin pointer so
/// that every directory entry stays as small as an inline sharer list.
#[derive(Debug, Clone)]
enum Repr {
    /// The first `.0` slots.
    Inline(u8, [u16; INLINE]),
    #[allow(clippy::box_collection)] // a bare `Vec` is three words
    Spilled(Box<Vec<u16>>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Inline(0, [0; INLINE])
    }
}

impl NodeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// Creates a set containing exactly one node.
    pub fn singleton(node: NodeId) -> Self {
        let mut set = NodeSet::new();
        set.insert(node);
        set
    }

    fn members(&self) -> &[u16] {
        match &self.0 {
            Repr::Inline(len, list) => &list[..usize::from(*len)],
            Repr::Spilled(list) => list,
        }
    }

    /// Inserts a node; returns `true` if it was newly added.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let Err(at) = self.members().binary_search(&node.raw()) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline(len, list) if usize::from(*len) < INLINE => {
                list.copy_within(at..usize::from(*len), at + 1);
                list[at] = node.raw();
                *len += 1;
            }
            Repr::Inline(_, list) => {
                let mut list = list.to_vec();
                list.insert(at, node.raw());
                self.0 = Repr::Spilled(Box::new(list));
            }
            Repr::Spilled(list) => list.insert(at, node.raw()),
        }
        true
    }

    /// Removes a node; returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let Ok(at) = self.members().binary_search(&node.raw()) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline(len, list) => {
                list.copy_within(at + 1..usize::from(*len), at);
                *len -= 1;
            }
            Repr::Spilled(list) => drop(list.remove(at)),
        }
        true
    }

    /// Whether the node is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members().binary_search(&node.raw()).is_ok()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members().is_empty()
    }

    /// Iterates members in ascending index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.members().iter())
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        self.members() == other.members()
    }
}

impl Eq for NodeSet {}

impl std::hash::Hash for NodeSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.members().hash(state);
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = NodeSet::new();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for n in iter {
            self.insert(n);
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the members of a [`NodeSet`] in ascending order.
#[derive(Debug, Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, u16>);

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.0.next().map(|&raw| NodeId(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(15);
        assert_eq!(NodeId::from_raw(n.raw()), Some(n));
        assert_eq!(NodeId::from_raw(0x0FFF), Some(NodeId::new(4095)));
        assert_eq!(NodeId::from_raw(0x1000), None);
    }

    #[test]
    #[should_panic(expected = "12-bit")]
    fn node_id_range_enforced() {
        let _ = NodeId::new(MAX_NODES);
    }

    #[test]
    fn block_to_page() {
        // 64 blocks per page (4 KiB pages, 64 B blocks).
        assert_eq!(BlockAddr::new(0).page(64), PageId::new(0));
        assert_eq!(BlockAddr::new(63).page(64), PageId::new(0));
        assert_eq!(BlockAddr::new(64).page(64), PageId::new(1));
        assert_eq!(PageId::new(1).first_block(64), BlockAddr::new(64));
    }

    #[test]
    fn node_set_basics() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        assert!(s.insert(NodeId::new(0)));
        assert!(!s.insert(NodeId::new(0)));
        assert!(s.insert(NodeId::new(63)));
        assert!(s.insert(NodeId::new(64)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(NodeId::new(64)));
        assert!(s.remove(NodeId::new(0)));
        assert!(!s.remove(NodeId::new(0)));
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.iter().map(NodeId::index).collect::<Vec<_>>(),
            vec![63, 64]
        );
    }

    #[test]
    fn node_set_display() {
        let s: NodeSet = [NodeId::new(1), NodeId::new(4)].into_iter().collect();
        assert_eq!(s.to_string(), "{P1,P4}");
        assert_eq!(NodeSet::new().to_string(), "{}");
    }

    /// `singleton(a); insert(b); remove(b)` once compared unequal to a
    /// fresh `singleton(a)` (the bitset kept `b`'s zeroed word), which
    /// made equal `DirState`s differ above 64 nodes.
    #[test]
    fn node_set_equality_and_hash_see_members_only() {
        use std::hash::{Hash, Hasher};
        fn hash_of(s: &NodeSet) -> u64 {
            let mut h = crate::fasthash::FxHasher::default();
            s.hash(&mut h);
            h.finish()
        }
        for a in [3, 64, 1000] {
            for b in [100, 2000, 4095] {
                let fresh = NodeSet::singleton(NodeId::new(a));
                let mut worn = fresh.clone();
                worn.insert(NodeId::new(b));
                assert_ne!(worn, fresh);
                worn.remove(NodeId::new(b));
                assert_eq!(worn, fresh, "{a} then {b}");
                assert_eq!(hash_of(&worn), hash_of(&fresh));
                assert_eq!(
                    crate::DirState::Shared(worn),
                    crate::DirState::Shared(fresh)
                );
            }
        }
    }

    #[test]
    fn node_set_is_one_set_across_the_spill_boundary() {
        use std::hash::{Hash, Hasher};
        // Ids on both sides of a word boundary, inserted out of order.
        let ids = [1000, 3, 64, 63, 4095, 7, 129, 128];
        let seven: NodeSet = ids[..7].iter().map(|&i| NodeId::new(i)).collect();
        assert!(matches!(seven.0, Repr::Inline(..)));
        let mut grown = seven.clone();
        assert!(grown.insert(NodeId::new(ids[7])));
        assert!(matches!(grown.0, Repr::Spilled(_)));
        assert!(!grown.insert(NodeId::new(ids[7])));
        assert_eq!(grown.len(), 8);
        let mut sorted = ids;
        sorted.sort_unstable();
        assert_eq!(grown.iter().map(NodeId::index).collect::<Vec<_>>(), sorted);
        assert_ne!(grown, seven);
        // 8 -> 7: still spilled, yet the same set as the inline one.
        assert!(grown.remove(NodeId::new(ids[7])));
        assert!(matches!(grown.0, Repr::Spilled(_)));
        assert_eq!(grown, seven);
        assert_eq!(seven, grown);
        assert_eq!(grown.len(), 7);
        assert!(grown.iter().eq(seven.iter()));
        let hash = |s: &NodeSet| {
            let mut h = crate::fasthash::FxHasher::default();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&grown), hash(&seven));
        for &i in &ids[..7] {
            assert!(grown.contains(NodeId::new(i)) && seven.contains(NodeId::new(i)));
            assert!(grown.remove(NodeId::new(i)));
        }
        assert!(grown.is_empty());
        assert_eq!(grown, NodeSet::new());
    }

    #[test]
    fn node_set_inline_list_stays_sorted_under_insert_and_remove() {
        let mut s = NodeSet::new();
        for i in [9, 2, 4000, 2, 70, 5] {
            s.insert(NodeId::new(i));
        }
        assert_eq!(
            s.iter().map(NodeId::index).collect::<Vec<_>>(),
            [2, 5, 9, 70, 4000]
        );
        assert!(s.remove(NodeId::new(9)));
        assert!(!s.remove(NodeId::new(9)));
        assert_eq!(s.to_string(), "{P2,P5,P70,P4000}");
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn node_set_remove_out_of_range_is_noop() {
        let mut s = NodeSet::singleton(NodeId::new(1));
        assert!(!s.remove(NodeId::new(200)));
        assert_eq!(s.len(), 1);
    }
}
