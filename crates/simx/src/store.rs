//! The values of [`ConcurrentMachine`](crate::ConcurrentMachine)'s two
//! block-keyed tables (DESIGN.md §6h): a block's [`DirEntry`] at its home
//! and its [`Copies`] in other nodes' caches. Nothing is kept per node, so
//! a handler looks a block up once and an audit visits a block's holders.

use stache::fasthash::FastMap;
use stache::{BlockAddr, CacheState, DirState, NodeId};

/// How many maps a [`BlockTable`] spreads its blocks over. At 1 024 nodes
/// a segment is ≈ 270 KB, so growing one copies that much, not the whole
/// table. A constant, not a knob: 64 to 4 096 leave the same memory
/// resident; more of them allocate more often while the table fills, which
/// `alloc_steady_state.rs` holds under its budget.
const SEGMENTS: usize = 256;
const _: () = assert!(SEGMENTS.is_power_of_two(), "`segment` takes top bits");

/// One of [`ConcurrentMachine`](crate::ConcurrentMachine)'s block-keyed
/// tables: [`SEGMENTS`] [`FastMap`]s that each grow on their own, a block's
/// segment picked by the top bits of a Fibonacci hash (a multiplier other
/// than [`FastMap`]'s, so the bits are not ones a segment indexes by). Not
/// a map in general: just what the machine's handlers and audits use, and
/// no iteration order anybody may rely on.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct BlockTable<V> {
    /// [`SEGMENTS`] maps — or none, in the `Default` table that stands in
    /// while `with_dir` lends the real one out: that one reads as empty
    /// and panics on a write.
    segments: Vec<FastMap<BlockAddr, V>>,
}

impl<V: Default> BlockTable<V> {
    /// An empty table, its segments in place.
    pub(crate) fn new() -> Self {
        BlockTable {
            segments: (0..SEGMENTS).map(|_| FastMap::default()).collect(),
        }
    }

    #[inline]
    fn segment(block: BlockAddr) -> usize {
        const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
        (block.number().wrapping_mul(GOLDEN) >> (u64::BITS - SEGMENTS.trailing_zeros())) as usize
    }

    #[inline]
    pub(crate) fn get(&self, block: BlockAddr) -> Option<&V> {
        self.segments.get(Self::segment(block))?.get(&block)
    }

    #[inline]
    pub(crate) fn entry_or_default(&mut self, block: BlockAddr) -> &mut V {
        self.segments[Self::segment(block)]
            .entry(block)
            .or_default()
    }

    pub(crate) fn remove(&mut self, block: BlockAddr) -> Option<V> {
        self.segments.get_mut(Self::segment(block))?.remove(&block)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.segments.iter().all(FastMap::is_empty)
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.iter().map(|(block, _)| block)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (BlockAddr, &V)> {
        self.segments.iter().flatten().map(|(b, v)| (*b, v))
    }
}

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
    fn block_table_is_a_map_from_block_to_value() {
        // Page-strided keys, as one home of a machine sees them.
        for nodes in [16u64, 64, 1024] {
            crate::rng::check(8, |rng| {
                let home = rng.gen_range(0..nodes as usize) as u64;
                let key = |rng: &mut crate::rng::SmallRng| {
                    let (slot, offset) = (rng.gen_range(0..40) as u64, rng.gen_range(0..3) as u64);
                    BlockAddr::new((slot * nodes + home) * 64 + offset)
                };
                let mut table = BlockTable::<u64>::new();
                let mut model = FastMap::<BlockAddr, u64>::default();
                for step in 0..2_000 {
                    let block = key(rng);
                    match rng.gen_range(0..4) {
                        0 => assert_eq!(table.remove(block), model.remove(&block)),
                        1 => assert_eq!(table.get(block), model.get(&block)),
                        _ => {
                            let (got, want) = (
                                table.entry_or_default(block),
                                model.entry(block).or_default(),
                            );
                            assert_eq!(got, want);
                            (*got, *want) = (step, step);
                        }
                    }
                    assert_eq!(table.is_empty(), model.is_empty());
                }
                let sorted = |mut blocks: Vec<BlockAddr>| {
                    blocks.sort_unstable();
                    blocks
                };
                let want = sorted(model.keys().copied().collect());
                assert_eq!(sorted(table.keys().collect()), want);
                assert_eq!(table.iter().count(), want.len());
                assert!(table.iter().all(|(block, v)| model.get(&block) == Some(v)));
            });
        }
    }

    #[test]
    fn a_default_block_table_has_no_segments_and_reads_as_empty() {
        let mut lent = BlockTable::<DirEntry>::default();
        assert!(lent.segments.is_empty() && lent.is_empty());
        assert_eq!(lent.get(BlockAddr::new(7)), None);
        assert_eq!(lent.remove(BlockAddr::new(7)), None);
        assert_eq!(lent.keys().count(), 0);
        assert_eq!(BlockTable::<DirEntry>::new().segments.len(), SEGMENTS);
    }

    /// Every block `w` touches.
    fn blocks_of(mut w: impl workloads::Workload) -> Vec<BlockAddr> {
        let plans: Vec<_> = (0..w.iterations()).map(|it| w.plan(it)).collect();
        let phases = plans.iter().flat_map(|plan| &plan.phases);
        let accesses = phases.flat_map(|phase| phase.per_node.iter().flatten());
        accesses.map(|a| a.block).collect()
    }

    #[test]
    fn segments_fill_evenly() {
        let sets = [
            ("scale 1024", blocks_of(workloads::Scale::new(1024, 16, 8))),
            ("scale 64", blocks_of(workloads::Scale::new(64, 0, 400))),
            ("appbt", blocks_of(workloads::Appbt::default())),
        ];
        for (name, blocks) in sets {
            let mut table = BlockTable::<()>::new();
            for block in blocks {
                table.entry_or_default(block);
            }
            let mean = table.iter().count() as f64 / SEGMENTS as f64;
            let fullest = table.segments.iter().map(FastMap::len).max().unwrap();
            println!("{name}: fullest segment {fullest}, mean {mean:.1}");
            assert!(mean >= 8.0, "{name}: too few blocks to judge");
            assert!(fullest as f64 <= 2.0 * mean, "{name}: {fullest} of {mean}");
        }
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
