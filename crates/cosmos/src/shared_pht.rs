//! A shared-PHT Cosmos — the GAp/gshare point of Yeh & Patt's design
//! space, transplanted.
//!
//! The paper's Cosmos is the **PAp** point: a private pattern table per
//! block. Branch prediction's classic alternative hashes every (address,
//! history) pair into one **shared** table, trading aliasing for a fixed
//! table size. This variant does the same for coherence messages: the PHT
//! is a single direct-mapped array of `2^index_bits` entries, indexed by
//! a hash of the block address XOR-folded with the packed history tuples.
//!
//! Aliasing can be constructive (blocks with identical sharing patterns
//! reinforce one another — common in partitioned arrays) or destructive;
//! the `repro variants` machinery can quantify which wins per workload.

use crate::fasthash::FastMap;
use crate::memory::MemoryFootprint;
use crate::mhr::Mhr;
use crate::pht::PhtEntry;
use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::BlockAddr;

/// A Cosmos variant with one shared, fixed-size pattern history table of
/// tag-less [`PhtEntry`]s.
#[derive(Debug, Clone)]
pub struct SharedPhtCosmos {
    depth: usize,
    filter_max: u8,
    histories: FastMap<BlockAddr, Mhr>,
    table: Vec<Option<PhtEntry>>,
}

impl SharedPhtCosmos {
    /// Creates a predictor: MHR `depth`, filter `filter_max`, and a shared
    /// table of `2^index_bits` entries.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is out of [`Mhr`]'s range or `index_bits` exceeds
    /// 24 (a 16M-entry table is already far past any hardware point worth
    /// studying).
    pub fn new(depth: usize, filter_max: u8, index_bits: u32) -> Self {
        let _ = Mhr::new(depth); // checks `depth` now, not at the first block
        assert!(index_bits <= 24, "table size out of the study's range");
        SharedPhtCosmos {
            depth,
            filter_max,
            histories: FastMap::default(),
            table: vec![None; 1 << index_bits],
        }
    }

    /// The shared table's entry count.
    pub fn table_entries(&self) -> usize {
        self.table.len()
    }

    /// gshare-style index: the block address folded against the packed
    /// history, reduced to `index_bits` bits. The fold walks the packed
    /// key's 16-bit lanes oldest-first — bit-identical to the original
    /// per-tuple fold over a `&[PredTuple]` history.
    fn index(&self, block: BlockAddr, key: u64) -> usize {
        let mut h = block.number().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for lane in (0..self.depth).rev() {
            let packed = (key >> (16 * lane)) & 0xFFFF;
            h ^= packed.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = h.rotate_left(17);
        }
        (h ^ (h >> 32)) as usize & (self.table.len() - 1)
    }
}

impl MessagePredictor for SharedPhtCosmos {
    fn name(&self) -> &'static str {
        "cosmos-shared-pht"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        let mhr = self.histories.get(&block)?;
        let key = mhr.key()?;
        let idx = self.index(block, key);
        self.table[idx].map(|e| e.prediction)
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        let depth = self.depth;
        let mhr = self
            .histories
            .entry(block)
            .or_insert_with(|| Mhr::new(depth));
        let key = mhr.key();
        mhr.shift(tuple);
        if let Some(key) = key {
            let idx = self.index(block, key);
            match &mut self.table[idx] {
                Some(entry) => entry.learn(tuple, self.filter_max),
                slot @ None => *slot = Some(PhtEntry::new(tuple)),
            }
        }
    }

    fn memory(&self) -> MemoryFootprint {
        MemoryFootprint {
            mhr_entries: self.histories.len(),
            pht_entries: self.table.iter().filter(|e| e.is_some()).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stache::{MsgType, NodeId};

    fn t(n: usize, m: MsgType) -> PredTuple {
        PredTuple::new(NodeId::new(n), m)
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(i)
    }

    #[test]
    fn learns_a_cycle_like_plain_cosmos() {
        let mut p = SharedPhtCosmos::new(1, 0, 12);
        let cycle = [
            t(0, MsgType::GetRoResponse),
            t(0, MsgType::UpgradeResponse),
            t(0, MsgType::InvalRwRequest),
        ];
        for tuple in cycle.iter().cycle().take(6) {
            p.observe(b(1), *tuple);
        }
        for tuple in cycle.iter().cycle().take(6) {
            assert_eq!(p.predict(b(1)), Some(*tuple));
            p.observe(b(1), *tuple);
        }
    }

    #[test]
    fn constructive_aliasing_shares_learning() {
        // With a tiny 1-entry table, every (block, history) maps to the
        // same slot: blocks with the same pattern help each other...
        let mut p = SharedPhtCosmos::new(1, 0, 0);
        assert_eq!(p.table_entries(), 1);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(1, MsgType::UpgradeRequest);
        p.observe(b(1), a);
        p.observe(b(1), bb); // slot learns "-> upgrade"
        p.observe(b(2), a);
        // Block 2 never saw the pattern, but the shared slot answers.
        assert_eq!(p.predict(b(2)), Some(bb));
    }

    #[test]
    fn destructive_aliasing_thrashes() {
        let mut p = SharedPhtCosmos::new(1, 0, 0);
        let a = t(1, MsgType::GetRoRequest);
        let x = t(2, MsgType::GetRwRequest);
        let y = t(3, MsgType::UpgradeRequest);
        p.observe(b(1), a);
        p.observe(b(1), x); // slot: -> x
        p.observe(b(2), a);
        p.observe(b(2), y); // slot: -> y (thrash)
                            // Block 1's next lookup hits the same slot and sees block 2's
                            // overwrite instead of its own learned successor.
        assert_eq!(p.predict(b(1)), Some(y), "block 1 sees block 2's update");
    }

    #[test]
    fn memory_is_bounded_by_the_table() {
        let mut p = SharedPhtCosmos::new(2, 0, 4);
        for i in 0..1000u64 {
            p.observe(b(i % 40), t((i % 16) as usize, MsgType::GetRoRequest));
        }
        assert!(p.memory().pht_entries <= 16, "table has 2^4 slots");
        assert_eq!(p.memory().mhr_entries, 40);
    }

    #[test]
    #[should_panic(expected = "range")]
    fn oversized_table_rejected() {
        let _ = SharedPhtCosmos::new(1, 0, 30);
    }
}
