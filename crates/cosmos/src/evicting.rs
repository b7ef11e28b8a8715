//! First-level-table eviction — the §3.7 history-loss concern.
//!
//! "It may be possible to merge the first-level table with the cache
//! block state maintained at both directories and caches. However, this
//! may lead to a loss of Cosmos' history information when cache blocks
//! are replaced." This variant bounds the Message History Table to a
//! fixed number of block entries per agent; when a new block arrives and
//! the table is full, the least-recently-used block's *entire* predictor
//! state (MHR and PHT) is discarded — exactly what merging the tables
//! with finite cache state would do.
//!
//! Measuring accuracy as the capacity shrinks quantifies how much the
//! persistence that Stache's no-replacement policy provides (§5.1) is
//! worth.

use crate::fasthash::FastMap;
use crate::memory::MemoryFootprint;
use crate::pht::Pht;
use crate::predictor::BlockState;
use crate::tuple::PredTuple;
use crate::{CoreStats, MessagePredictor};
use stache::BlockAddr;
use std::cell::Cell;

/// "No slot": the end of the recency list.
const NIL: u32 = u32::MAX;

/// One tracked block: its predictor state and its recency-list links.
#[derive(Debug, Clone)]
struct Slot {
    block: BlockAddr,
    state: BlockState,
    /// Slot toward the MRU end of the recency list, or [`NIL`].
    prev: u32,
    /// Slot toward the LRU end of the recency list, or [`NIL`].
    next: u32,
}

/// A Cosmos predictor whose MHT holds at most `capacity` blocks (LRU).
///
/// The table is an index from block address to slot number plus a slab
/// of slots. Recency is a doubly-linked list of slot numbers (`head` =
/// most recent, `tail` = victim), so a hit costs one hash probe, a full
/// table evicts in O(1) and reuses the victim's slot in place, and the
/// hash buckets hold 16 bytes instead of the whole block state. The slab
/// grows with the blocks actually seen, never to `capacity` up front: a
/// wide run builds thousands of agents that each see a few hundred.
#[derive(Debug, Clone)]
pub struct EvictingCosmos {
    depth: usize,
    filter_max: u8,
    capacity: usize,
    index: FastMap<BlockAddr, u32>,
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    /// PHT probes, counted by [`CosmosPredictor`](crate::CosmosPredictor)'s
    /// rule: one per lookup that reached a PHT, one per update.
    probes: Cell<u64>,
    /// Blocks whose history was discarded under capacity pressure.
    pub evictions: u64,
}

impl EvictingCosmos {
    /// Creates a predictor with at most `capacity` tracked blocks.
    ///
    /// # Panics
    ///
    /// Panics if `depth` or `capacity` is zero.
    pub fn new(depth: usize, filter_max: u8, capacity: usize) -> Self {
        assert!(depth > 0, "MHR depth must be at least 1");
        assert!(capacity > 0, "a zero-capacity MHT cannot predict");
        EvictingCosmos {
            depth,
            filter_max,
            capacity,
            index: FastMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            probes: Cell::new(0),
            evictions: 0,
        }
    }

    /// The MHT capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old = self.head;
        let slot = &mut self.slots[i as usize];
        slot.prev = NIL;
        slot.next = old;
        match old {
            NIL => self.tail = i,
            o => self.slots[o as usize].prev = i,
        }
        self.head = i;
    }

    /// Finds `block`'s slot, or gives it a fresh one — a new slab entry
    /// while the table has room, else the LRU victim's, whose whole
    /// state is discarded — and makes it the most recent. The tail is the
    /// least recently *observed* block (predictions don't touch recency).
    fn touch(&mut self, block: BlockAddr) -> usize {
        if let Some(&i) = self.index.get(&block) {
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return i as usize;
        }
        let fresh = Slot {
            block,
            state: BlockState::new(self.depth),
            prev: NIL,
            next: NIL,
        };
        let i = if self.slots.len() < self.capacity {
            assert!(self.slots.len() < NIL as usize, "slot numbers exhausted");
            self.slots.push(fresh);
            (self.slots.len() - 1) as u32
        } else {
            let victim = self.tail;
            self.unlink(victim);
            let slot = &mut self.slots[victim as usize];
            self.index.remove(&slot.block);
            *slot = fresh;
            self.evictions += 1;
            victim
        };
        self.index.insert(block, i);
        self.push_front(i);
        i as usize
    }

    /// Both halves of a scoring step on one [`touch`](Self::touch).
    fn step(&mut self, block: BlockAddr, tuple: PredTuple, lookup: bool) -> Option<PredTuple> {
        let i = self.touch(block);
        self.slots[i]
            .state
            .step(tuple, self.filter_max, lookup, &self.probes)
    }
}

impl MessagePredictor for EvictingCosmos {
    fn name(&self) -> &'static str {
        "cosmos-evicting"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        let slot = &self.slots[*self.index.get(&block)? as usize];
        slot.state.predict(&self.probes)
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        self.step(block, tuple, false);
    }

    fn predict_then_observe(&mut self, block: BlockAddr, tuple: PredTuple) -> Option<PredTuple> {
        self.step(block, tuple, true)
    }

    fn memory(&self) -> MemoryFootprint {
        MemoryFootprint {
            mhr_entries: self.slots.len(),
            pht_entries: self
                .slots
                .iter()
                .filter_map(|s| s.state.pht.as_ref())
                .map(Pht::len)
                .sum(),
        }
    }

    fn core_stats(&self) -> CoreStats {
        let index = self.index.capacity() * std::mem::size_of::<(BlockAddr, u32)>();
        let slab = self.slots.capacity() * std::mem::size_of::<Slot>();
        let phts = self.slots.iter().filter_map(|s| s.state.pht.as_ref());
        CoreStats {
            pht_probes: self.probes.get(),
            table_capacity_bytes: (index + slab + phts.map(Pht::capacity_bytes).sum::<usize>())
                as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::CosmosPredictor;
    use stache::{MsgType, NodeId};

    fn t(n: usize, m: MsgType) -> PredTuple {
        PredTuple::new(NodeId::new(n), m)
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(i)
    }

    #[test]
    fn unbounded_capacity_matches_plain_cosmos() {
        let mut ev = EvictingCosmos::new(1, 0, 1000);
        let mut plain = CosmosPredictor::new(1, 0);
        for i in 0..60u64 {
            let blk = b(i % 5);
            let tuple = t(((i / 5) % 3) as usize, MsgType::GetRoRequest);
            assert_eq!(ev.predict(blk), plain.predict(blk));
            ev.observe(blk, tuple);
            plain.observe(blk, tuple);
        }
        assert_eq!(ev.memory(), plain.memory());
        assert_eq!(ev.evictions, 0);
        // Same probe-counting rule; reserved bytes follow the blocks
        // seen, not the configured capacity.
        assert_eq!(ev.core_stats().pht_probes, plain.core_stats().pht_probes);
        assert!(ev.core_stats().pht_probes > 0);
        let reserved = ev.core_stats().table_capacity_bytes;
        assert!(reserved > 0);
        assert!(reserved < 1000 * std::mem::size_of::<Slot>() as u64);
        let fresh = EvictingCosmos::new(1, 0, 1 << 20).core_stats();
        assert_eq!(fresh.table_capacity_bytes, 0, "nothing pre-sized");
    }

    #[test]
    fn eviction_discards_learned_history() {
        let mut ev = EvictingCosmos::new(1, 0, 1);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        // Learn a->b on block 1.
        for _ in 0..3 {
            ev.observe(b(1), a);
            ev.observe(b(1), bb);
        }
        ev.observe(b(1), a);
        assert_eq!(ev.predict(b(1)), Some(bb));
        // Touching block 2 evicts block 1's state entirely.
        ev.observe(b(2), a);
        assert_eq!(ev.evictions, 1);
        assert_eq!(ev.predict(b(1)), None, "history lost with the block");
        // And block 1 must relearn from scratch.
        ev.observe(b(1), a);
        assert_eq!(ev.predict(b(1)), None);
    }

    #[test]
    fn capacity_is_respected() {
        let mut ev = EvictingCosmos::new(1, 0, 4);
        for i in 0..100u64 {
            ev.observe(b(i), t(0, MsgType::GetRoRequest));
        }
        assert_eq!(ev.memory().mhr_entries, 4);
        assert_eq!(ev.evictions, 96);
    }

    #[test]
    fn lru_keeps_the_hot_block() {
        let mut ev = EvictingCosmos::new(1, 0, 2);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        for _ in 0..3 {
            ev.observe(b(1), a);
            ev.observe(b(1), bb);
        }
        ev.observe(b(2), a); // table now {1, 2}
        ev.observe(b(1), a); // block 1 most recent
        ev.observe(b(3), a); // evicts block 2, not block 1
        assert_eq!(ev.predict(b(1)), Some(bb), "hot block survived");
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        let _ = EvictingCosmos::new(1, 0, 0);
    }
}
