//! The full two-level Cosmos predictor for one agent.

use crate::fasthash::FastMap;
use crate::memory::MemoryFootprint;
use crate::mhr::Mhr;
use crate::packed;
use crate::pht::Pht;
use crate::tuple::PredTuple;
use crate::{CoreStats, MessagePredictor};
use stache::BlockAddr;
use std::cell::Cell;
use std::collections::HashMap;

/// Per-block predictor state: the MHR and its private PHT. Shared with
/// [`EvictingCosmos`](crate::EvictingCosmos), which stores the same state
/// in a bounded table.
///
/// Both methods take the owner's PHT probe counter and keep it the
/// *logical* count — one per lookup that reached a PHT, one per update —
/// however the step was made.
#[derive(Debug, Clone)]
pub(crate) struct BlockState {
    pub(crate) mhr: Mhr,
    /// Allocated lazily: a block gets a PHT only once its reference count
    /// exceeds the MHR depth (Table 7's accounting rule — blocks with at
    /// most `depth` references never allocate one).
    pub(crate) pht: Option<Pht>,
}

impl BlockState {
    pub(crate) fn new(depth: usize) -> Self {
        BlockState {
            mhr: Mhr::new(depth),
            pht: None,
        }
    }

    /// §3.3: the MHR is the PHT key; the PHT's entry, if any, is the
    /// prediction.
    #[inline]
    pub(crate) fn predict(&self, probes: &Cell<u64>) -> Option<PredTuple> {
        let key = self.mhr.key()?;
        let pht = self.pht.as_ref()?;
        probes.set(probes.get() + 1);
        pht.predict(key)
    }

    /// §3.4: write the observed tuple as the new prediction for the
    /// current history (subject to the filter), then left-shift it into
    /// the MHR. Returns what [`predict`](Self::predict) would have said
    /// first, found on the same PHT slot; `lookup` says whether the
    /// caller asked for it (and so whether it counts as a probe).
    #[inline]
    pub(crate) fn step(
        &mut self,
        tuple: PredTuple,
        filter_max: u8,
        lookup: bool,
        probes: &Cell<u64>,
    ) -> Option<PredTuple> {
        let mut predicted = None;
        if let Some(key) = self.mhr.key() {
            let reached = lookup && self.pht.is_some();
            probes.set(probes.get() + 1 + u64::from(reached));
            let pht = self.pht.get_or_insert_with(Pht::new);
            predicted = pht.predict_then_update(key, tuple, filter_max);
        }
        self.mhr.shift(tuple);
        predicted
    }
}

/// A Cosmos predictor instance, one per cache or directory module
/// (paper §3.2).
///
/// `depth` is the MHR depth (the paper evaluates 1–4); `filter_max` the
/// noise filter's maximum count (0 = no filter, matching Table 6's
/// column 0; the paper's single-bit counter is 1).
#[derive(Debug, Clone)]
pub struct CosmosPredictor {
    depth: usize,
    filter_max: u8,
    blocks: FastMap<BlockAddr, BlockState>,
    /// PHT probe count (lookups + updates), kept in a `Cell` so the
    /// `&self` predict path can account itself without atomics.
    probes: Cell<u64>,
}

impl CosmosPredictor {
    /// Creates a predictor with the given MHR depth and filter maximum.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds [`packed::MAX_DEPTH`].
    pub fn new(depth: usize, filter_max: u8) -> Self {
        assert!(depth > 0, "MHR depth must be at least 1");
        assert!(
            depth <= packed::MAX_DEPTH,
            "MHR depth {depth} exceeds the packed-word maximum of {}",
            packed::MAX_DEPTH
        );
        CosmosPredictor {
            depth,
            filter_max,
            blocks: FastMap::default(),
            probes: Cell::new(0),
        }
    }

    /// The configured MHR depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The configured filter maximum count.
    pub fn filter_max(&self) -> u8 {
        self.filter_max
    }

    /// Number of MHRs allocated (blocks seen at least once).
    pub fn mhr_entries(&self) -> usize {
        self.blocks.len()
    }

    /// Total PHT entries across all blocks.
    pub fn pht_entries(&self) -> usize {
        self.blocks
            .values()
            .filter_map(|b| b.pht.as_ref())
            .map(Pht::len)
            .sum()
    }

    /// Predicts a *chain* of up to `n` future messages for `block` by
    /// repeatedly applying the PHT to a simulated history — the mechanism
    /// behind §4.1's "executing a sequence of protocol actions, instead of
    /// executing a single action". The chain stops early at the first
    /// history with no learned successor.
    ///
    /// ```
    /// use cosmos::{CosmosPredictor, MessagePredictor, PredTuple};
    /// use stache::{BlockAddr, MsgType, NodeId};
    /// let mut p = CosmosPredictor::new(1, 0);
    /// let b = BlockAddr::new(1);
    /// let cycle = [
    ///     PredTuple::new(NodeId::new(0), MsgType::GetRoResponse),
    ///     PredTuple::new(NodeId::new(0), MsgType::UpgradeResponse),
    ///     PredTuple::new(NodeId::new(0), MsgType::InvalRwRequest),
    /// ];
    /// for t in cycle.iter().cycle().take(6) {
    ///     p.observe(b, *t);
    /// }
    /// // The whole migratory loop unrolls from the tables.
    /// assert_eq!(p.predict_chain(b, 3), cycle.to_vec());
    /// ```
    pub fn predict_chain(&self, block: BlockAddr, n: usize) -> Vec<PredTuple> {
        let mut chain = Vec::new();
        let Some(state) = self.blocks.get(&block) else {
            return chain;
        };
        let Some(key) = state.mhr.key() else {
            return chain;
        };
        let Some(pht) = state.pht.as_ref() else {
            return chain;
        };
        let mut history = key;
        for _ in 0..n {
            self.probes.set(self.probes.get() + 1);
            let Some(next) = pht.predict(history) else {
                break;
            };
            chain.push(next);
            history = packed::push_key(history, self.depth, next.pack());
        }
        chain
    }

    /// The per-block table contents in address order, for
    /// [`snapshot::save`](crate::snapshot::save).
    pub fn snapshot_blocks(&self) -> Vec<(BlockAddr, &Mhr, Option<&Pht>)> {
        let mut blocks: Vec<_> = self
            .blocks
            .iter()
            .map(|(addr, s)| (*addr, &s.mhr, s.pht.as_ref()))
            .collect();
        blocks.sort_by_key(|(addr, _, _)| *addr);
        blocks
    }

    /// Installs one block's state, replacing any existing entry — the
    /// restore half of [`crate::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the register's depth differs from the predictor's.
    pub fn restore_block(&mut self, addr: BlockAddr, mhr: Mhr, pht: Option<Pht>) {
        assert_eq!(mhr.depth(), self.depth, "MHR depth mismatch on restore");
        self.blocks.insert(addr, BlockState { mhr, pht });
    }

    /// Per-block PHT entry counts (for the preallocation analysis of §3.7).
    pub fn pht_entry_histogram(&self) -> HashMap<usize, usize> {
        let mut hist = HashMap::new();
        for b in self.blocks.values() {
            let n = b.pht.as_ref().map_or(0, Pht::len);
            *hist.entry(n).or_insert(0) += 1;
        }
        hist
    }

    /// One MHT probe for both halves of a scoring step.
    #[inline]
    fn step(&mut self, block: BlockAddr, tuple: PredTuple, lookup: bool) -> Option<PredTuple> {
        let depth = self.depth;
        self.blocks
            .entry(block)
            .or_insert_with(|| BlockState::new(depth))
            .step(tuple, self.filter_max, lookup, &self.probes)
    }

    /// PHT probes (lookups plus updates) performed so far.
    pub fn pht_probes(&self) -> u64 {
        self.probes.get()
    }

    /// Estimated bytes reserved by the predictor's hash tables (capacity,
    /// not occupancy) — the `cosmos.core.fastmap_capacity_bytes` gauge.
    pub fn table_capacity_bytes(&self) -> u64 {
        let block_slot = std::mem::size_of::<(BlockAddr, BlockState)>();
        let phts = self.blocks.values().filter_map(|b| b.pht.as_ref());
        (self.blocks.capacity() * block_slot + phts.map(Pht::capacity_bytes).sum::<usize>()) as u64
    }
}

impl MessagePredictor for CosmosPredictor {
    fn name(&self) -> &'static str {
        "cosmos"
    }

    /// §3.3: index the MHT by block, use the MHR as the PHT key, return
    /// the PHT's prediction if one exists.
    #[inline]
    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        self.blocks.get(&block)?.predict(&self.probes)
    }

    /// §3.4: learn the observed tuple, then shift it into the MHR.
    #[inline]
    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        self.step(block, tuple, false);
    }

    #[inline]
    fn predict_then_observe(&mut self, block: BlockAddr, tuple: PredTuple) -> Option<PredTuple> {
        self.step(block, tuple, true)
    }

    fn memory(&self) -> MemoryFootprint {
        MemoryFootprint {
            mhr_entries: self.mhr_entries(),
            pht_entries: self.pht_entries(),
        }
    }

    fn core_stats(&self) -> CoreStats {
        CoreStats {
            pht_probes: self.pht_probes(),
            table_capacity_bytes: self.table_capacity_bytes(),
        }
    }

    /// Table 7's tuple accounting, in bits: `depth` tuples per MHR plus
    /// `depth + 1` tuples per PHT entry, at 2 bytes per tuple.
    fn storage_bits(&self) -> u64 {
        self.memory().bytes(self.depth) as u64 * 8
    }
}

/// A sender-agnostic Cosmos variant for the §3.5 footnote-3 ablation: both
/// the history and the predictions collapse every sender to processor 0,
/// so only message *types* are tracked. Evaluate it with
/// [`EvalOptions::type_only`](crate::eval::EvalOptions) — its predictions
/// can never match a full tuple from a nonzero sender, which is exactly
/// the paper's point that dropping the sender loses actionability.
#[derive(Debug, Clone)]
pub struct TypeOnlyCosmos {
    inner: CosmosPredictor,
}

impl TypeOnlyCosmos {
    /// Creates a type-only predictor with the given depth and filter.
    pub fn new(depth: usize, filter_max: u8) -> Self {
        TypeOnlyCosmos {
            inner: CosmosPredictor::new(depth, filter_max),
        }
    }

    fn collapse(tuple: PredTuple) -> PredTuple {
        PredTuple::new(stache::NodeId::new(0), tuple.mtype)
    }
}

impl MessagePredictor for TypeOnlyCosmos {
    fn name(&self) -> &'static str {
        "cosmos-type-only"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        self.inner.predict(block)
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        self.inner.observe(block, Self::collapse(tuple));
    }

    fn memory(&self) -> MemoryFootprint {
        self.inner.memory()
    }

    fn core_stats(&self) -> CoreStats {
        self.inner.core_stats()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
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
    fn depth_one_learns_a_cycle() {
        let mut p = CosmosPredictor::new(1, 0);
        let cycle = [
            t(0, MsgType::GetRoResponse),
            t(0, MsgType::UpgradeResponse),
            t(0, MsgType::InvalRwRequest),
        ];
        // Two passes to learn all three transitions.
        for tuple in cycle.iter().cycle().take(6) {
            p.observe(b(1), *tuple);
        }
        // Third pass: every prediction correct.
        for tuple in cycle.iter().cycle().take(6) {
            assert_eq!(p.predict(b(1)), Some(*tuple));
            p.observe(b(1), *tuple);
        }
    }

    #[test]
    fn section_three_five_out_of_order_consumers() {
        // §3.5: after seeing both orders of two consumers' requests, a
        // depth-1 Cosmos predicts the *other* consumer after either one.
        let mut p = CosmosPredictor::new(1, 0);
        let p1 = t(1, MsgType::GetRoRequest);
        let p2 = t(2, MsgType::GetRoRequest);
        let inv = t(3, MsgType::InvalRwResponse);
        // Round A: P1 then P2; round B: P2 then P1.
        for round in [[p1, p2], [p2, p1]] {
            p.observe(b(9), inv);
            for m in round {
                p.observe(b(9), m);
            }
        }
        // The PHT now simultaneously holds P1's-request -> P2's-request
        // and P2's-request -> P1's-request: either arrival order of the
        // two consumers predicts the other consumer next.
        assert_eq!(p.predict(b(9)), Some(p2), "history ends with P1's request");
        p.observe(b(9), p2);
        assert_eq!(
            p.predict(b(9)),
            Some(p1),
            "history now ends with P2's request"
        );
    }

    #[test]
    fn depth_two_disambiguates_three_consumers() {
        // §3.5's depth-2 example: three consumers arriving in rotating
        // orders; depth 2 predicts the third from the first two.
        let mut p = CosmosPredictor::new(2, 0);
        let reqs = [
            t(1, MsgType::GetRoRequest),
            t(2, MsgType::GetRoRequest),
            t(3, MsgType::GetRoRequest),
        ];
        let sep = t(4, MsgType::InvalRwResponse);
        let orders = [[0, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1]];
        for ord in orders {
            p.observe(b(5), sep);
            for i in ord {
                p.observe(b(5), reqs[i]);
            }
        }
        // Replay a seen prefix: [sep, reqs[1]] was followed by reqs[0] in
        // the second round.
        let mut q = p.clone();
        q.observe(b(5), sep);
        q.observe(b(5), reqs[1]);
        assert_eq!(q.predict(b(5)), Some(reqs[0]));
    }

    #[test]
    fn blocks_are_independent() {
        let mut p = CosmosPredictor::new(1, 0);
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        p.observe(b(1), t(2, MsgType::GetRoRequest));
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        p.observe(b(2), t(1, MsgType::GetRoRequest));
        // Block 2 has no learned pattern despite block 1's history.
        assert_eq!(p.predict(b(2)), None);
        assert_eq!(p.predict(b(1)), Some(t(2, MsgType::GetRoRequest)));
    }

    #[test]
    fn pht_allocation_is_lazy() {
        let mut p = CosmosPredictor::new(3, 0);
        // Three observations = exactly depth: no PHT yet (Table 7 rule).
        for i in 1..=3 {
            p.observe(b(7), t(i, MsgType::GetRoRequest));
        }
        assert_eq!(p.mhr_entries(), 1);
        assert_eq!(p.pht_entries(), 0);
        // The fourth reference allocates and fills the PHT.
        p.observe(b(7), t(4, MsgType::GetRoRequest));
        assert_eq!(p.pht_entries(), 1);
    }

    #[test]
    fn filter_propagates_to_pht() {
        let mut p = CosmosPredictor::new(1, 1);
        let good = t(2, MsgType::GetRoRequest);
        let noise = t(3, MsgType::UpgradeRequest);
        let anchor = t(1, MsgType::InvalRwResponse);
        // Learn anchor -> good.
        for _ in 0..2 {
            p.observe(b(1), anchor);
            p.observe(b(1), good);
        }
        // One noisy occurrence must not flip the prediction.
        p.observe(b(1), anchor);
        p.observe(b(1), noise);
        p.observe(b(1), anchor);
        assert_eq!(p.predict(b(1)), Some(good));
    }

    #[test]
    fn histogram_counts_blocks_by_pht_size() {
        let mut p = CosmosPredictor::new(1, 0);
        // Block 1: two patterns; block 2: touched once (no PHT).
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        p.observe(b(1), t(2, MsgType::GetRoRequest));
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        p.observe(b(2), t(1, MsgType::GetRoRequest));
        let hist = p.pht_entry_histogram();
        assert_eq!(hist.get(&0), Some(&1));
        assert_eq!(hist.get(&2), Some(&1));
        let fp = p.memory();
        assert_eq!(fp.mhr_entries, 2);
        assert_eq!(fp.pht_entries, 2);
    }

    #[test]
    fn core_stats_count_probes_and_capacity() {
        let mut p = CosmosPredictor::new(1, 0);
        assert_eq!(p.core_stats(), CoreStats::default());
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        p.observe(b(1), t(2, MsgType::GetRoRequest)); // 1 update probe
        let _ = p.predict(b(1)); // 1 lookup probe
        let stats = p.core_stats();
        assert_eq!(stats.pht_probes, 2);
        assert!(stats.table_capacity_bytes > 0);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn over_deep_predictor_rejected() {
        let _ = CosmosPredictor::new(5, 0);
    }

    #[test]
    fn capacity_bytes_accounting_is_consistent_across_growth() {
        let mut p = CosmosPredictor::new(1, 0);
        assert_eq!(
            p.table_capacity_bytes(),
            0,
            "an empty predictor reserves nothing"
        );
        // Drive enough distinct blocks and per-block patterns to force
        // both the block table and the per-block PHTs through several
        // resizes; the gauge must never move backwards while growing.
        let mut last = 0u64;
        for block in 1..=256u64 {
            for sender in 0..8 {
                p.observe(b(block), t(sender, MsgType::GetRoRequest));
                p.observe(b(block), t(sender, MsgType::InvalRoResponse));
            }
            let now = p.table_capacity_bytes();
            assert!(
                now >= last,
                "capacity gauge regressed {last} -> {now} at block {block}"
            );
            last = now;
        }
        // The gauge is capacity-based, so it must dominate an
        // occupancy-based lower bound over the same slot types...
        let fp = p.memory();
        let occupied = fp.mhr_entries as u64 * 16 + fp.pht_entries as u64 * 16;
        assert!(
            last >= occupied,
            "capacity {last} below an occupancy floor of {occupied}"
        );
        // ...and agree with what core_stats() exports for obs.
        assert_eq!(p.core_stats().table_capacity_bytes, last);
    }
}
