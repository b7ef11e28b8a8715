//! Identifier newtypes: nodes, cache blocks, pages, and node sets.
//!
//! The paper's predictor tuple reserves 12 bits for the processor number and
//! 4 bits for the message type (Table 7 caption), so [`NodeId`] enforces a
//! 12-bit range. [`BlockAddr`] is a *block-granular* address (a block
//! number), which is the granularity at which both the directory and Cosmos
//! keep state.

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
/// Backed by a fixed 64-bit word per 64 nodes; for the paper's 16-node
/// machine a single word suffices, but the set grows as needed so larger
/// configurations also work.
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// Creates a set containing exactly one node.
    pub fn singleton(node: NodeId) -> Self {
        let mut s = NodeSet::new();
        s.insert(node);
        s
    }

    /// Inserts a node; returns `true` if it was newly added.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (w, b) = (node.index() / 64, node.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes a node; returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (w, b) = (node.index() / 64, node.index() % 64);
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Whether the node is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        let (w, b) = (node.index() / 64, node.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates members in ascending index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The sole member, if the set is a singleton.
    pub fn sole_member(&self) -> Option<NodeId> {
        let mut it = self.iter();
        let first = it.next()?;
        it.next().is_none().then_some(first)
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
pub struct Iter<'a> {
    set: &'a NodeSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(NodeId::new(self.word * 64 + b));
            }
            self.word += 1;
            self.bits = *self.set.words.get(self.word)?;
        }
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
    fn node_set_sole_member() {
        let mut s = NodeSet::singleton(NodeId::new(7));
        assert_eq!(s.sole_member(), Some(NodeId::new(7)));
        s.insert(NodeId::new(8));
        assert_eq!(s.sole_member(), None);
        s.remove(NodeId::new(7));
        s.remove(NodeId::new(8));
        assert_eq!(s.sole_member(), None);
    }

    #[test]
    fn node_set_display() {
        let s: NodeSet = [NodeId::new(1), NodeId::new(4)].into_iter().collect();
        assert_eq!(s.to_string(), "{P1,P4}");
        assert_eq!(NodeSet::new().to_string(), "{}");
    }

    #[test]
    fn node_set_remove_out_of_range_is_noop() {
        let mut s = NodeSet::singleton(NodeId::new(1));
        assert!(!s.remove(NodeId::new(200)));
        assert_eq!(s.len(), 1);
    }
}
