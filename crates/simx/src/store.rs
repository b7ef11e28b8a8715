//! The values of [`ConcurrentMachine`](crate::ConcurrentMachine)'s two
//! block-keyed tables (DESIGN.md §6h): a block's [`DirEntry`] at its home
//! and its [`Copies`] in other nodes' caches. Nothing is kept per node, so
//! a handler looks a block up once and an audit visits a block's holders.

use stache::fasthash::FastMap;
use stache::{BlockAddr, CacheState, DirState, NodeId, NodeSet, ProcOp};
use std::borrow::Cow;

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

    pub(crate) fn len(&self) -> usize {
        self.segments.iter().map(FastMap::len).sum()
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

/// The kind of state, a [`DirEntry`] word's two low bits: `PAIR` is
/// `Shared` of one or two nodes (the same id twice for one), `WIDE` of
/// three or more, kept in a [`WideSets`] slot.
const IDLE: u32 = 0;
const EXCLUSIVE: u32 = 1;
const PAIR: u32 = 2;
const WIDE: u32 = 3;
const KIND: u32 = 0b11;
/// Where the node ids or the slot start; an id is 12 bits (4 095 tops).
const SHIFT: u32 = 2;
const NODE_BITS: u32 = 12;
const NODE: u32 = (1 << NODE_BITS) - 1;

/// Everything a home keeps for one block, in 8 bytes: at 1 024 nodes the
/// directory holds 1.67 M of them. The state word packs the kind of
/// state and the state's nodes — or, for a set of three or more, the slot
/// in the machine's [`WideSets`] that holds it: the full map, exact for
/// every sharer set. Read the state through
/// [`WideSets::state`]; only [`WideSets::write`] changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DirEntry {
    /// The open transaction's slot in the machine's transaction slab
    /// ([`NO_TXN`] when the block is free). Requests that find the block
    /// busy queue in that slot.
    pub(crate) txn: u32,
    word: u32,
}

impl Default for DirEntry {
    fn default() -> Self {
        DirEntry {
            txn: NO_TXN,
            word: IDLE,
        }
    }
}

impl DirEntry {
    fn kind_bits(self) -> u32 {
        self.word & KIND
    }

    fn payload(self) -> u32 {
        self.word >> SHIFT
    }

    /// The kind of state, its sharers left out (`Shared` of nobody stands
    /// for every shared set): what a tally counts, with nothing to decode.
    pub(crate) fn kind(self) -> DirState {
        match self.kind_bits() {
            IDLE => DirState::Idle,
            EXCLUSIVE => DirState::Exclusive(NodeId::new(self.payload() as usize)),
            _ => DirState::Shared(NodeSet::new()),
        }
    }

    /// Whether `node` holds the rights `op` needs: the word says, but for
    /// a read of a wide set.
    pub(crate) fn grants(self, node: NodeId, op: ProcOp, wide: &WideSets) -> bool {
        let (id, p) = (u32::from(node.raw()), self.payload());
        match (self.kind_bits(), op) {
            (EXCLUSIVE, _) => p == id,
            (PAIR, ProcOp::Read) => p & NODE == id || p >> NODE_BITS == id,
            (WIDE, ProcOp::Read) => wide.slots[p as usize].node_readable(node),
            _ => false,
        }
    }
}

/// The sharer sets of three or more nodes that [`DirEntry`]s point at, one
/// slot each, and the slots given back. Owned by the machine beside its
/// directory; [`write`](Self::write), the one writer, takes and returns
/// the slots.
#[derive(Debug, Default)]
pub(crate) struct WideSets {
    slots: Vec<DirState>,
    free: Vec<u32>,
}

impl WideSets {
    /// `e`'s state: the slot's, borrowed, or built from the word — a set
    /// of two stays inline, so neither way allocates.
    pub(crate) fn state(&self, e: DirEntry) -> Cow<'_, DirState> {
        let p = e.payload();
        Cow::Owned(match e.kind_bits() {
            IDLE => DirState::Idle,
            EXCLUSIVE => DirState::Exclusive(NodeId::new(p as usize)),
            PAIR => {
                let mut set = NodeSet::singleton(NodeId::new((p & NODE) as usize));
                set.insert(NodeId::new((p >> NODE_BITS) as usize));
                DirState::Shared(set)
            }
            _ => return Cow::Borrowed(&self.slots[p as usize]),
        })
    }

    /// Makes `next` `e`'s state: a wide set goes into the slot `e` already
    /// holds, else into a free or new one; a slot `e` no longer needs is
    /// emptied and freed.
    pub(crate) fn write(&mut self, e: &mut DirEntry, next: DirState) {
        let mut held = (e.kind_bits() == WIDE).then(|| e.payload());
        let (kind, payload) = match next {
            DirState::Idle => (IDLE, 0),
            DirState::Exclusive(owner) => (EXCLUSIVE, u32::from(owner.raw())),
            DirState::Shared(ref set) if set.len() <= 2 => {
                let mut ids = set.iter().map(|n| u32::from(n.raw()));
                let first = ids.next().expect("a shared set is never empty");
                (PAIR, first | ids.next().unwrap_or(first) << NODE_BITS)
            }
            wide => {
                let slot = held.take().or_else(|| self.free.pop()).unwrap_or_else(|| {
                    let slot = self.slots.len();
                    assert!(
                        slot < 1 << (u32::BITS - SHIFT),
                        "wide sets outgrew the word"
                    );
                    self.slots.push(DirState::Idle);
                    slot as u32
                });
                self.slots[slot as usize] = wide;
                (WIDE, slot)
            }
        };
        if let Some(slot) = held {
            self.slots[slot as usize] = DirState::Idle;
            self.free.push(slot);
        }
        e.word = kind | payload << SHIFT;
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
impl WideSets {
    /// Checks the slots against the entries `dir` holds: each wide entry
    /// has a slot of its own, every other slot is free and empty, and no
    /// slot is free twice. Returns the number of live slots.
    pub(crate) fn check_slots<'a>(&self, dir: impl Iterator<Item = &'a DirEntry>) -> usize {
        let mut owner = vec![false; self.slots.len()];
        for e in dir.filter(|e| e.kind_bits() == WIDE) {
            let slot = e.payload() as usize;
            assert!(
                !std::mem::replace(&mut owner[slot], true),
                "slot {slot} shared"
            );
            assert!(matches!(&self.slots[slot], DirState::Shared(s) if s.len() > 2));
        }
        for &slot in &self.free {
            let slot = slot as usize;
            assert!(
                !std::mem::replace(&mut owner[slot], true),
                "slot {slot} live and free"
            );
            assert_eq!(
                self.slots[slot],
                DirState::Idle,
                "free slot {slot} keeps a set"
            );
        }
        assert!(owner.iter().all(|&o| o), "a slot leaked");
        self.slots.len() - self.free.len()
    }
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

    /// A `Shared` state of `len` distinct nodes drawn from all 4 096 ids.
    fn shared(rng: &mut crate::rng::SmallRng, len: usize) -> DirState {
        let mut set = NodeSet::new();
        while set.len() < len {
            set.insert(n(rng.gen_range(0..4096)));
        }
        DirState::Shared(set)
    }

    #[test]
    fn every_state_shape_round_trips_through_the_entry_word() {
        crate::rng::check(32, |rng| {
            let mut shapes = vec![
                DirState::Idle,
                DirState::Exclusive(n(0)),
                DirState::Exclusive(n(1)),
                DirState::Exclusive(n(4095)),
                DirState::Shared(NodeSet::singleton(n(4095))),
            ];
            shapes.extend([1, 2, 3, 7, 8, 1023].map(|len| shared(rng, len)));
            let mut wide = WideSets::default();
            let mut e = DirEntry::default();
            for _ in 0..64 {
                let state = shapes[rng.gen_range(0..shapes.len())].clone();
                let txn = [NO_TXN, 0, 0x7fff_fffe][rng.gen_range(0..3)];
                e.txn = txn;
                wide.write(&mut e, state.clone());
                assert_eq!(*wide.state(e), state);
                assert_eq!(e.txn, txn);
                assert_eq!(e.kind() == DirState::Idle, state == DirState::Idle);
                for node in state.holders().iter().chain([n(0), n(4095), n(77)]) {
                    let read = e.grants(node, ProcOp::Read, &wide);
                    assert_eq!(read, state.node_readable(node));
                    let write = e.grants(node, ProcOp::Write, &wide);
                    assert_eq!(write, state.node_writable(node));
                }
                assert!(wide.check_slots([&e].into_iter()) <= 1);
            }
        });
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
