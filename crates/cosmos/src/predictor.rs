//! The two-level Cosmos predictor for one agent — the only one.
//!
//! The paper's contribution is one structure, block → MHR → PHT with an
//! optional filter (§3.2–3.6), and its follow-ons are parameter changes of
//! it. [`CosmosPredictor`] takes them as constructor arguments on two
//! axes — *store*, where a block's state lives ([`EvictingCosmos::new`],
//! §3.7); *gate*, when a stored prediction is offered
//! ([`confident`](CosmosPredictor::confident), §4.2/§4.3) — and every
//! combination runs the same `step`.

use crate::lru::LruSlab;
use crate::memory::MemoryFootprint;
use crate::mhr::Mhr;
use crate::pht::{Pht, CONFIDENCE_MAX};
use crate::tuple::PredTuple;
use crate::{CoreStats, MessagePredictor};
use stache::fasthash::FastMap;
use stache::BlockAddr;
use std::cell::Cell;

/// Per-block predictor state: the MHR and its private PHT.
///
/// Both methods take the owner's gate and PHT probe counter, and keep the
/// counter the *logical* count — one per lookup that reached a PHT, one
/// per update — however the step was made.
#[derive(Debug, Clone)]
struct BlockState {
    mhr: Mhr,
    /// Allocated lazily: a block gets a PHT only once its reference count
    /// exceeds the MHR depth (Table 7's accounting rule — blocks with at
    /// most `depth` references never allocate one). Boxed, so a block
    /// without one costs a pointer, not a map header: 24 bytes a block
    /// instead of 48, for one more hop on a block that has one.
    pht: Option<Box<Pht>>,
}

impl BlockState {
    fn new(depth: usize) -> Self {
        BlockState {
            mhr: Mhr::new(depth),
            pht: None,
        }
    }

    /// §3.3: the MHR is the PHT key; the PHT's entry, if any and if it
    /// passes the gate, is the prediction.
    #[inline]
    fn predict(&self, gate: u8, probes: &Cell<u64>) -> Option<PredTuple> {
        let key = self.mhr.key()?;
        let pht = self.pht.as_deref()?;
        probes.set(probes.get() + 1);
        pht.entry(key)?.offered(gate)
    }

    /// §3.4: write the observed tuple as the new prediction for the
    /// current history (subject to the filter), then left-shift it into
    /// the MHR. Returns what [`predict`](Self::predict) would have said
    /// first, found on the same PHT slot; `lookup` says whether the
    /// caller asked for it (and so whether it counts as a probe).
    #[inline]
    fn step(
        &mut self,
        tuple: PredTuple,
        filter_max: u8,
        gate: u8,
        lookup: bool,
        probes: &Cell<u64>,
    ) -> Option<PredTuple> {
        let mut predicted = None;
        if let Some(key) = self.mhr.key() {
            let reached = lookup && self.pht.is_some();
            probes.set(probes.get() + 1 + u64::from(reached));
            let pht = self.pht.get_or_insert_with(Box::default);
            predicted = pht.predict_then_update(key, tuple, filter_max, gate);
        }
        self.mhr.shift(tuple);
        predicted
    }
}

/// Where the per-block state lives (the Message History Table).
#[derive(Debug, Clone)]
enum Store {
    /// An entry for every block ever seen — Stache never replaces a block
    /// (§5.1), so the paper's tables never forget one.
    Unbounded(FastMap<BlockAddr, BlockState>),
    /// §3.7's merge with finite cache state: "this may lead to a loss of
    /// Cosmos' history information when cache blocks are replaced". The
    /// least recently *observed* block's whole state, MHR and PHT, is
    /// discarded to admit a new block (predictions don't touch recency).
    Lru(LruSlab<BlockAddr, BlockState>),
}

impl Store {
    #[inline]
    fn get(&self, block: BlockAddr) -> Option<&BlockState> {
        match self {
            Store::Unbounded(map) => map.get(&block),
            Store::Lru(slab) => slab.get(&block),
        }
    }

    /// `block`'s state, created on its first observation.
    #[inline]
    fn touch(&mut self, block: BlockAddr, depth: usize) -> &mut BlockState {
        match self {
            Store::Unbounded(map) => map.entry(block).or_insert_with(|| BlockState::new(depth)),
            Store::Lru(slab) => slab.touch(block, || BlockState::new(depth)),
        }
    }

    fn len(&self) -> usize {
        match self {
            Store::Unbounded(map) => map.len(),
            Store::Lru(slab) => slab.len(),
        }
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (BlockAddr, &BlockState)> + '_> {
        match self {
            Store::Unbounded(map) => Box::new(map.iter().map(|(b, s)| (*b, s))),
            Store::Lru(slab) => Box::new(slab.iter()),
        }
    }

    /// Bytes the table itself has reserved, PHTs excluded.
    fn reserved_bytes(&self) -> usize {
        match self {
            Store::Unbounded(map) => {
                map.capacity() * std::mem::size_of::<(BlockAddr, BlockState)>()
            }
            Store::Lru(slab) => slab.reserved_bytes(),
        }
    }
}

/// A Cosmos predictor instance, one per cache or directory module
/// (paper §3.2).
///
/// `depth` is the MHR depth (the paper evaluates 1–4); `filter_max` the
/// noise filter's maximum count (0 = no filter, matching Table 6's
/// column 0; the paper's single-bit counter is 1). The builder method
/// sets the [module's](self) gate argument; call it before the first
/// observation.
#[derive(Debug, Clone)]
pub struct CosmosPredictor {
    depth: usize,
    filter_max: u8,
    /// Gate: confirmations in a row an entry needs before it is offered.
    threshold: u8,
    store: Store,
    /// PHT probe count (lookups + updates), kept in a `Cell` so the
    /// `&self` predict path can account itself without atomics.
    probes: Cell<u64>,
}

impl CosmosPredictor {
    /// Creates a predictor with the given MHR depth and filter maximum.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds [`crate::packed::MAX_DEPTH`].
    pub fn new(depth: usize, filter_max: u8) -> Self {
        let _ = Mhr::new(depth); // checks `depth` now, not at the first block
        CosmosPredictor {
            depth,
            filter_max,
            threshold: 0,
            store: Store::Unbounded(FastMap::default()),
            probes: Cell::new(0),
        }
    }

    /// Confidence gating: a prediction is offered only once its entry has
    /// been confirmed `threshold` times in a row (see
    /// [`PhtEntry::confidence`](crate::PhtEntry)), the coverage/accuracy
    /// dial an integration wants when the misprediction penalty `r` of
    /// §4.3 is large. 0 always answers; values above [`CONFIDENCE_MAX`]
    /// are clamped to it.
    pub fn confident(mut self, threshold: u8) -> Self {
        self.threshold = threshold.min(CONFIDENCE_MAX);
        self
    }

    /// The configured MHR depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The configured filter maximum count.
    pub fn filter_max(&self) -> u8 {
        self.filter_max
    }

    /// The configured confidence threshold.
    pub fn threshold(&self) -> u8 {
        self.threshold
    }

    /// Blocks whose history a bounded table ([`EvictingCosmos::new`]) discarded.
    pub fn evictions(&self) -> u64 {
        match &self.store {
            Store::Unbounded(_) => 0,
            Store::Lru(slab) => slab.evictions,
        }
    }

    /// Number of MHRs allocated (blocks seen at least once and still
    /// tracked).
    pub fn mhr_entries(&self) -> usize {
        self.store.len()
    }

    /// Total PHT entries across all blocks.
    pub fn pht_entries(&self) -> usize {
        self.phts().map(Pht::len).sum()
    }

    fn phts(&self) -> impl Iterator<Item = &Pht> {
        self.store.iter().filter_map(|(_, s)| s.pht.as_deref())
    }

    /// The stored prediction for `block` regardless of the gate, with its
    /// confidence.
    pub fn predict_with_confidence(&self, block: BlockAddr) -> Option<(PredTuple, u8)> {
        let state = self.store.get(block)?;
        let entry = state.pht.as_deref()?.entry(state.mhr.key()?)?;
        Some((entry.prediction, entry.confidence))
    }

    /// One MHT probe for both halves of a scoring step.
    #[inline]
    fn step(&mut self, block: BlockAddr, tuple: PredTuple, lookup: bool) -> Option<PredTuple> {
        self.store.touch(block, self.depth).step(
            tuple,
            self.filter_max,
            self.threshold,
            lookup,
            &self.probes,
        )
    }

    /// Estimated bytes reserved by the predictor's hash tables (capacity,
    /// not occupancy) — [`crate::CoreStats::table_capacity_bytes`]. A
    /// boxed PHT counts its map header as well as its buckets.
    pub fn table_capacity_bytes(&self) -> u64 {
        let pht = |p: &Pht| std::mem::size_of::<Pht>() + p.capacity_bytes();
        (self.store.reserved_bytes() + self.phts().map(pht).sum::<usize>()) as u64
    }
}

impl MessagePredictor for CosmosPredictor {
    /// Whatever the arguments: a configuration is named by the label of
    /// the study that builds it.
    fn name(&self) -> &'static str {
        "cosmos"
    }

    /// §3.3: index the MHT by block, use the MHR as the PHT key, return
    /// the PHT's prediction if one exists and passes the gate.
    #[inline]
    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        self.store.get(block)?.predict(self.threshold, &self.probes)
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
            pht_probes: self.probes.get(),
            table_capacity_bytes: self.table_capacity_bytes(),
        }
    }
}

/// The constructor of the *store* argument, under the name the §3.7
/// history-persistence study has always built it by.
pub enum EvictingCosmos {}

impl EvictingCosmos {
    /// A Cosmos whose MHT holds at most `capacity` blocks and discards the
    /// least recently observed block's whole state to admit a new one —
    /// §3.7's history-loss concern, what merging the table with finite
    /// cache state would do.
    ///
    /// # Panics
    ///
    /// Panics if `depth` or `capacity` is zero.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(depth: usize, filter_max: u8, capacity: usize) -> CosmosPredictor {
        assert!(capacity > 0, "a zero-capacity MHT cannot predict");
        CosmosPredictor {
            store: Store::Lru(LruSlab::new(capacity)),
            ..CosmosPredictor::new(depth, filter_max)
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
    fn every_argument_reports_table_sevens_storage() {
        let variants = [
            ("plain", CosmosPredictor::new(2, 0)),
            ("confident", CosmosPredictor::new(2, 0).confident(2)),
            ("bounded", EvictingCosmos::new(2, 0, 4)),
        ];
        let bits = |p: &CosmosPredictor| p.memory().bytes(p.depth()) * 8;
        for (name, mut p) in variants {
            assert_eq!(bits(&p), 0, "{name}: empty tables cost nothing");
            let cycle = [
                MsgType::GetRoRequest,
                MsgType::UpgradeRequest,
                MsgType::InvalRwResponse,
            ];
            for m in cycle.iter().cycle().take(6) {
                p.observe(b(1), t(1, *m));
            }
            // One MHR of 2 tuples and three PHT entries of 3, 16 bits each.
            assert_eq!(p.memory().pht_entries, 3, "{name}");
            assert_eq!(bits(&p), (2 + 3 * 3) * 16, "{name}");
        }
    }

    /// What a tracked block costs the bounded fleet, pinned: the block
    /// state is an MHR and a pointer, a slab slot adds its key and two
    /// links, and an index bucket is one word — 56 bytes a block at the
    /// index's load of one half.
    #[test]
    fn fleet_footprints_are_pinned() {
        use crate::lru::Slot;
        use std::mem::size_of;
        assert!(size_of::<BlockState>() <= 24);
        assert!(size_of::<Slot<BlockAddr, BlockState>>() <= 40);
        let mut slab = LruSlab::new(64);
        for i in 0..64 {
            slab.touch(b(i), || BlockState::new(1));
        }
        let index_bytes = slab.reserved_bytes() - 64 * size_of::<Slot<BlockAddr, BlockState>>();
        assert_eq!(index_bytes, 128 * 8, "two 8-byte index words a block");
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
