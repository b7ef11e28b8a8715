//! The §3.7 implementation proposal: statically preallocated PHT entries
//! plus a bounded dynamic pool.
//!
//! "We could preallocate four pattern history entries corresponding to
//! each cache block. If a cache block needs more pattern histories, then
//! it can allocate them from a common pool of dynamically allocated
//! memory in the same way LimitLESS directory entries capture the list of
//! sharers." This module implements exactly that: each block owns
//! `static_entries` slots; overflow goes to a shared pool of
//! `pool_capacity` slots; when the pool is full, the least-recently-used
//! pooled pattern is evicted (forgotten).
//!
//! Unlike the unbounded [`CosmosPredictor`](crate::CosmosPredictor), this
//! variant has a *hard* memory bound, making the §3.7 cost model concrete
//! — and its accuracy under pool pressure is measurable (`repro
//! variants`).

use crate::fasthash::FastMap;
use crate::lru::LruSlab;
use crate::memory::MemoryFootprint;
use crate::packed::PackedHistory;
use crate::pht::PhtEntry;
use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::BlockAddr;

/// A `(block, packed history)` pattern key — two words, no allocation.
type PatternKey = (BlockAddr, u64);

/// A Cosmos predictor with the §3.7 bounded memory layout.
#[derive(Debug, Clone)]
pub struct PreallocCosmos {
    depth: usize,
    filter_max: u8,
    static_entries: usize,
    pool_capacity: usize,
    histories: FastMap<BlockAddr, PackedHistory>,
    /// Patterns held in their block's static allocation, and how many of
    /// its `static_entries` each block has used.
    fixed: FastMap<PatternKey, PhtEntry>,
    static_used: FastMap<BlockAddr, usize>,
    /// Patterns held in the shared pool, least recently *observed* first
    /// out.
    pool: LruSlab<PatternKey, PhtEntry>,
}

impl PreallocCosmos {
    /// Creates a predictor with the paper's suggested defaults: four
    /// static entries per block.
    pub fn paper(depth: usize, pool_capacity: usize) -> Self {
        PreallocCosmos::new(depth, 1, 4, pool_capacity)
    }

    /// Creates a predictor: MHR `depth`, noise filter `filter_max`,
    /// `static_entries` per block, and a shared pool of `pool_capacity`.
    pub fn new(depth: usize, filter_max: u8, static_entries: usize, pool_capacity: usize) -> Self {
        let _ = PackedHistory::new(depth); // checks `depth` now, not at the first block
        PreallocCosmos {
            depth,
            filter_max,
            static_entries,
            pool_capacity,
            histories: FastMap::default(),
            fixed: FastMap::default(),
            static_used: FastMap::default(),
            pool: LruSlab::new(pool_capacity),
        }
    }

    /// Patterns currently held in the shared pool.
    pub fn pool_used(&self) -> usize {
        self.pool.len()
    }

    /// Pooled patterns evicted under pressure (a measure of how far the
    /// paper's "four static entries" assumption is from a workload).
    pub fn evictions(&self) -> u64 {
        self.pool.evictions
    }

    /// Learns `observed` as the successor of pattern `key`: in place if
    /// the pattern is stored, else in the block's next static slot, else
    /// in the pool (a pool of capacity zero stores nothing).
    fn learn(&mut self, key: PatternKey, observed: PredTuple) {
        if let Some(entry) = self.fixed.get_mut(&key) {
            return entry.learn(observed, self.filter_max);
        }
        if let Some(entry) = self.pool.hit(&key) {
            return entry.learn(observed, self.filter_max);
        }
        let used = self.static_used.entry(key.0).or_insert(0);
        if *used < self.static_entries {
            *used += 1;
            self.fixed.insert(key, PhtEntry::new(observed));
        } else if self.pool_capacity > 0 {
            self.pool.touch(key, || PhtEntry::new(observed));
        }
    }
}

impl MessagePredictor for PreallocCosmos {
    fn name(&self) -> &'static str {
        "cosmos-prealloc"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        let key = (block, self.histories.get(&block)?.key()?);
        let entry = self.fixed.get(&key).or_else(|| self.pool.get(&key))?;
        Some(entry.prediction)
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        let depth = self.depth;
        let history = self
            .histories
            .entry(block)
            .or_insert_with(|| PackedHistory::new(depth));
        let key = history.key();
        history.push(tuple.pack());
        if let Some(key) = key {
            self.learn((block, key), tuple);
        }
    }

    fn memory(&self) -> MemoryFootprint {
        MemoryFootprint {
            mhr_entries: self.histories.len(),
            pht_entries: self.fixed.len() + self.pool.len(),
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

    /// Drives `n` distinct single-tuple patterns through block `blk`.
    fn distinct_patterns(p: &mut PreallocCosmos, blk: u64, n: usize) {
        for i in 0..n {
            p.observe(b(blk), t(i + 1, MsgType::GetRoRequest));
        }
    }

    #[test]
    fn behaves_like_cosmos_within_the_static_allocation() {
        let mut p = PreallocCosmos::paper(1, 16);
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        p.observe(b(1), t(2, MsgType::GetRwRequest));
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        assert_eq!(p.predict(b(1)), Some(t(2, MsgType::GetRwRequest)));
        assert_eq!(p.pool_used(), 0, "two patterns fit the static four");
    }

    #[test]
    fn overflow_goes_to_the_pool() {
        let mut p = PreallocCosmos::new(1, 0, 2, 8);
        // 5 distinct history values -> 4 patterns; 2 static + 2 pooled.
        distinct_patterns(&mut p, 1, 5);
        assert_eq!(p.memory().pht_entries, 4);
        assert_eq!(p.pool_used(), 2);
    }

    #[test]
    fn pool_pressure_evicts_lru() {
        let mut p = PreallocCosmos::new(1, 0, 1, 2);
        // 6 distinct patterns on one block: 1 static + 2 pooled max.
        distinct_patterns(&mut p, 1, 7);
        assert_eq!(p.memory().pht_entries, 3);
        assert!(p.evictions() > 0);
    }

    #[test]
    fn the_pool_forgets_its_least_recently_observed_pattern() {
        // No static slots and a pool of two; block i's only pattern is
        // x -> x, learned by its second x and confirmed by every later one.
        let mut p = PreallocCosmos::new(1, 0, 0, 2);
        let x = t(1, MsgType::GetRoRequest);
        for blk in [1, 2] {
            p.observe(b(blk), x);
            p.observe(b(blk), x);
        }
        p.observe(b(1), x); // block 1's pattern is now the more recent
        p.observe(b(3), x);
        p.observe(b(3), x); // admitted in place of block 2's
        assert_eq!(p.evictions(), 1);
        assert_eq!(p.pool_used(), 2);
        assert_eq!(p.predict(b(1)), Some(x));
        assert_eq!(p.predict(b(2)), None, "block 2's pattern was the victim");
        assert_eq!(p.predict(b(3)), Some(x));
    }

    #[test]
    fn zero_pool_still_serves_static_patterns() {
        let mut p = PreallocCosmos::new(1, 0, 1, 0);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        for _ in 0..3 {
            p.observe(b(1), a);
            p.observe(b(1), bb);
        }
        p.observe(b(1), a);
        // The first-learned pattern (a -> b) holds the single static slot.
        assert_eq!(p.predict(b(1)), Some(bb));
        assert_eq!(p.pool_used(), 0);
    }

    #[test]
    fn bounded_memory_under_adversarial_streams() {
        let mut p = PreallocCosmos::new(1, 0, 4, 10);
        for i in 0..500usize {
            p.observe(b((i % 7) as u64), t((i * 13) % 100, MsgType::GetRoRequest));
        }
        // 7 blocks x 4 static + 10 pooled at most.
        assert!(p.memory().pht_entries <= 7 * 4 + 10);
    }

    #[test]
    fn filter_applies_to_stored_patterns() {
        let mut p = PreallocCosmos::new(1, 1, 4, 4);
        let a = t(1, MsgType::GetRoRequest);
        let good = t(2, MsgType::GetRwRequest);
        let noise = t(3, MsgType::UpgradeRequest);
        for _ in 0..2 {
            p.observe(b(1), a);
            p.observe(b(1), good);
        }
        p.observe(b(1), a);
        p.observe(b(1), noise); // one miss: filtered
        p.observe(b(1), a);
        assert_eq!(p.predict(b(1)), Some(good));
    }
}
