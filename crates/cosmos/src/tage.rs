//! TAGE-MP: a TAGE-style predictor for coherence messages.
//!
//! Branch prediction moved past two-level PAp-style tables (the lineage
//! Cosmos descends from) with Seznec's TAGE: a base predictor backed by a
//! set of *tagged* tables indexed by geometrically growing history
//! lengths, with per-entry confidence and usefulness counters and
//! allocation-on-mispredict. This module ports that design onto the
//! `<sender, message-type>` prediction problem so it can race Cosmos in
//! the `repro tournament` harness:
//!
//! * the **base table** is a direct-mapped bimodal table indexed by a hash
//!   of the block address — a per-block "most recent stable tuple" with
//!   2-bit hysteresis;
//! * each **tagged table** `i` is indexed by a hash of the block address
//!   and the newest `L_i` tuples of that block's packed history (the
//!   [`crate::packed`] shift-register word from PR 3, masked to `L_i`
//!   lanes), where the `L_i` grow geometrically (1, 2, 4, …) up to
//!   [`packed::MAX_DEPTH`]; entries carry a partial tag, a 3-bit
//!   confidence counter, and a 2-bit usefulness counter;
//! * the **provider** is the matching table with the longest history; the
//!   next-longest match (or the base table) is the **altpred**, used when
//!   the provider entry is still weak (confidence 0) — the `use_alt_on_na`
//!   rule, simplified to a static policy;
//! * on a mispredict, an entry is **allocated** in one table with a longer
//!   history than the provider (the first such table with a dead entry,
//!   `u == 0`); if every candidate is alive, their usefulness counters are
//!   decayed instead.
//!
//! Unlike Cosmos — whose per-block PHTs grow without bound — TAGE-MP's
//! tables are *fixed* at construction, so its storage cost is a property
//! of the geometry, not the workload. [`TageConfig::table_bits`] accounts
//! those bits exactly; [`TagePredictor::storage_bits`] adds the per-block
//! history registers actually allocated, mirroring how Table 7 counts
//! Cosmos MHR entries.

use crate::fasthash::{fx_words, FastMap};
use crate::hybrid::Tournament;
use crate::memory::MemoryFootprint;
use crate::packed::{self, PackedHistory};
use crate::predictor::CosmosPredictor;
use crate::tuple::PredTuple;
use crate::{CoreStats, MessagePredictor};
use stache::BlockAddr;

/// Saturation of a tagged entry's 3-bit confidence counter.
const CTR_MAX: u8 = 7;
/// Saturation of a tagged entry's 2-bit usefulness counter.
const U_MAX: u8 = 3;
/// Saturation of a base entry's 2-bit hysteresis counter.
const HYST_MAX: u8 = 3;

/// Bits per base-table entry: a 16-bit packed tuple, 2 hysteresis bits,
/// and a valid bit.
pub const BASE_ENTRY_BITS: u64 = 16 + 2 + 1;
/// Bits per tagged-table entry beyond the tag: a 16-bit packed tuple, the
/// 3-bit confidence counter, the 2-bit usefulness counter, and a valid
/// bit.
pub const TAGGED_ENTRY_BITS: u64 = 16 + 3 + 2 + 1;

/// The table geometry of a TAGE-MP predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// `log2` of the base (bimodal) table's entry count.
    pub base_bits: u32,
    /// `log2` of each tagged table's entry count.
    pub tagged_bits: u32,
    /// Partial-tag width in bits (1..=16).
    pub tag_bits: u32,
    /// History length (in tuples) per tagged table, strictly increasing,
    /// each within `1..=packed::MAX_DEPTH`.
    pub hist_lens: Vec<usize>,
}

impl TageConfig {
    /// The small budget point: a 64-entry base and two 64-entry tagged
    /// tables (histories 1 and 2) — 4800 bits of table storage per agent.
    pub fn small() -> Self {
        TageConfig {
            base_bits: 6,
            tagged_bits: 6,
            tag_bits: 6,
            hist_lens: vec![1, 2],
        }
    }

    /// The mid budget point: a 256-entry base and three 128-entry tagged
    /// tables (geometric histories 1, 2, 4) — 16384 bits per agent.
    pub fn mid() -> Self {
        TageConfig {
            base_bits: 8,
            tagged_bits: 7,
            tag_bits: 8,
            hist_lens: vec![1, 2, 4],
        }
    }

    /// The large budget point: a 1024-entry base and four 512-entry tagged
    /// tables (histories 1, 2, 3, 4) — 84992 bits per agent.
    pub fn large() -> Self {
        TageConfig {
            base_bits: 10,
            tagged_bits: 9,
            tag_bits: 10,
            hist_lens: vec![1, 2, 3, 4],
        }
    }

    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the tag is empty or wider than 16 bits, a table exponent
    /// exceeds 24 (a plainly misconfigured budget), no tagged tables are
    /// configured, or the history lengths are not strictly increasing
    /// within `1..=packed::MAX_DEPTH`.
    pub fn validate(&self) {
        assert!(
            (1..=16).contains(&self.tag_bits),
            "tag width {} outside 1..=16",
            self.tag_bits
        );
        assert!(self.base_bits <= 24, "base table exponent too large");
        assert!(self.tagged_bits <= 24, "tagged table exponent too large");
        assert!(!self.hist_lens.is_empty(), "at least one tagged table");
        for w in self.hist_lens.windows(2) {
            assert!(w[0] < w[1], "history lengths must strictly increase");
        }
        for &len in &self.hist_lens {
            // Unconditional: a zero length would mask every history key to
            // zero and silently alias all blocks (the key_mask foot-gun).
            assert!(
                (1..=packed::MAX_DEPTH).contains(&len),
                "history length {len} outside 1..={}",
                packed::MAX_DEPTH
            );
        }
    }

    /// Number of tagged tables.
    pub fn num_tables(&self) -> usize {
        self.hist_lens.len()
    }

    /// Exact fixed table storage in bits: the base table at
    /// [`BASE_ENTRY_BITS`] per entry plus every tagged table at
    /// `tag_bits +` [`TAGGED_ENTRY_BITS`] per entry.
    pub fn table_bits(&self) -> u64 {
        let base = (1u64 << self.base_bits) * BASE_ENTRY_BITS;
        let tagged = self.num_tables() as u64
            * (1u64 << self.tagged_bits)
            * (u64::from(self.tag_bits) + TAGGED_ENTRY_BITS);
        base + tagged
    }
}

/// A base-table entry: the last stable tuple with 2-bit hysteresis.
#[derive(Debug, Clone, Copy, Default)]
struct BaseEntry {
    valid: bool,
    pred: u16,
    hyst: u8,
}

/// A tagged-table entry.
#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    valid: bool,
    tag: u16,
    pred: u16,
    /// 3-bit confidence in `pred` (0 = newly allocated / weak).
    ctr: u8,
    /// 2-bit usefulness; only `u == 0` entries may be re-allocated.
    u: u8,
}

/// Where a prediction came from, for the provider/altpred logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Tagged table index (into `hist_lens`).
    Tagged(usize),
    /// The base bimodal table.
    Base,
}

/// The resolved lookup for one block: the provider, its alternate, and
/// the final prediction the predictor would emit.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    provider: Option<(Source, u16)>,
    alt: Option<(Source, u16)>,
    /// The tuple the predictor answers with, if any.
    chosen: Option<u16>,
}

/// A TAGE-MP predictor instance for one agent (one cache or directory).
#[derive(Debug, Clone)]
pub struct TagePredictor {
    config: TageConfig,
    base: Vec<BaseEntry>,
    /// One fixed table per configured history length.
    tables: Vec<Vec<TaggedEntry>>,
    /// Per-block packed history registers (always [`packed::MAX_DEPTH`]
    /// lanes deep; each table masks down to its own length).
    histories: FastMap<BlockAddr, PackedHistory>,
    probes: std::cell::Cell<u64>,
}

impl TagePredictor {
    /// Builds a predictor with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`TageConfig::validate`]).
    pub fn new(config: TageConfig) -> Self {
        config.validate();
        let base = vec![BaseEntry::default(); 1 << config.base_bits];
        let tables = (0..config.num_tables())
            .map(|_| vec![TaggedEntry::default(); 1 << config.tagged_bits])
            .collect();
        TagePredictor {
            config,
            base,
            tables,
            histories: FastMap::default(),
            probes: std::cell::Cell::new(0),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &TageConfig {
        &self.config
    }

    /// Storage in bits: the fixed table geometry plus one 64-bit packed
    /// history register per block seen (the MHT side, counted like Cosmos
    /// counts MHR entries).
    pub fn storage_bits(&self) -> u64 {
        self.config.table_bits() + 64 * self.histories.len() as u64
    }

    /// The full 64-bit hash a table derives its index and tag from: block
    /// address, the newest `len` lanes of the history, and the table id
    /// (so equal-length tables would still decorrelate).
    #[inline]
    fn table_hash(&self, table: usize, block: BlockAddr, hist_bits: u64) -> u64 {
        let len = self.config.hist_lens[table];
        let masked = hist_bits & packed::key_mask(len);
        fx_words(&[block.number(), masked, table as u64])
    }

    #[inline]
    fn index_of(&self, hash: u64, bits: u32) -> usize {
        (hash & ((1u64 << bits) - 1)) as usize
    }

    /// The partial tag: taken from the hash's high half so it shares no
    /// bits with the index.
    #[inline]
    fn tag_of(&self, hash: u64) -> u16 {
        ((hash >> 32) & ((1u64 << self.config.tag_bits) - 1)) as u16
    }

    #[inline]
    fn base_index(&self, block: BlockAddr) -> usize {
        let h = fx_words(&[block.number()]);
        self.index_of(h, self.config.base_bits)
    }

    /// Resolves provider, altpred, and the chosen prediction for a block.
    fn lookup(&self, block: BlockAddr) -> Lookup {
        let hist = self.histories.get(&block);
        let hist_len = hist.map_or(0, PackedHistory::len);
        let hist_bits = hist.map_or(0, PackedHistory::raw_bits);
        let mut matches: Vec<(Source, u16, u8)> = Vec::with_capacity(2);
        // Longest history first.
        for i in (0..self.config.num_tables()).rev() {
            if matches.len() == 2 {
                break;
            }
            if hist_len < self.config.hist_lens[i] {
                continue;
            }
            self.probes.set(self.probes.get() + 1);
            let h = self.table_hash(i, block, hist_bits);
            let e = &self.tables[i][self.index_of(h, self.config.tagged_bits)];
            if e.valid && e.tag == self.tag_of(h) {
                matches.push((Source::Tagged(i), e.pred, e.ctr));
            }
        }
        if matches.len() < 2 {
            self.probes.set(self.probes.get() + 1);
            let b = &self.base[self.base_index(block)];
            if b.valid {
                matches.push((Source::Base, b.pred, CTR_MAX));
            }
        }
        let provider = matches.first().map(|&(s, p, _)| (s, p));
        let alt = matches.get(1).map(|&(s, p, _)| (s, p));
        let chosen = match matches.first() {
            // A weak provider (newly allocated) defers to its alternate —
            // the static `use_alt_on_na` policy.
            Some(&(_, _, 0)) => alt.or(provider).map(|(_, p)| p),
            Some(&(_, p, _)) => Some(p),
            None => None,
        };
        Lookup {
            provider,
            alt,
            chosen,
        }
    }

    /// Entries currently valid across the base and tagged tables.
    pub fn live_entries(&self) -> usize {
        let base = self.base.iter().filter(|e| e.valid).count();
        let tagged: usize = self
            .tables
            .iter()
            .map(|t| t.iter().filter(|e| e.valid).count())
            .sum();
        base + tagged
    }
}

impl MessagePredictor for TagePredictor {
    fn name(&self) -> &'static str {
        "tage-mp"
    }

    #[inline]
    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        self.lookup(block).chosen.and_then(PredTuple::unpack)
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        let observed = tuple.pack();
        let look = self.lookup(block);
        let hist_bits = self
            .histories
            .get(&block)
            .map_or(0, PackedHistory::raw_bits);
        let hist_len = self.histories.get(&block).map_or(0, PackedHistory::len);

        // 1. Provider update: reinforce a correct prediction, weaken a
        //    wrong one, and replace the stored tuple once confidence dies.
        if let Some((Source::Tagged(i), pred)) = look.provider {
            let h = self.table_hash(i, block, hist_bits);
            let idx = self.index_of(h, self.config.tagged_bits);
            let e = &mut self.tables[i][idx];
            if pred == observed {
                e.ctr = (e.ctr + 1).min(CTR_MAX);
            } else if e.ctr > 0 {
                e.ctr -= 1;
            } else {
                e.pred = observed;
            }
            // 2. Usefulness: when provider and altpred disagree, the
            //    outcome says which of them deserved to stay resident.
            if let Some((_, alt_pred)) = look.alt {
                if alt_pred != pred {
                    if pred == observed {
                        e.u = (e.u + 1).min(U_MAX);
                    } else {
                        e.u = e.u.saturating_sub(1);
                    }
                }
            }
        }

        // 3. The base table always learns (it is every block's fallback).
        {
            self.probes.set(self.probes.get() + 1);
            let idx = self.base_index(block);
            let b = &mut self.base[idx];
            if !b.valid {
                *b = BaseEntry {
                    valid: true,
                    pred: observed,
                    hyst: 0,
                };
            } else if b.pred == observed {
                b.hyst = (b.hyst + 1).min(HYST_MAX);
            } else if b.hyst > 0 {
                b.hyst -= 1;
            } else {
                b.pred = observed;
            }
        }

        // 4. Allocation on mispredict: claim a dead entry in one table
        //    with a longer history than the provider; decay the candidates
        //    if all are alive.
        if look.chosen != Some(observed) {
            let provider_table = match look.provider {
                Some((Source::Tagged(i), _)) => Some(i),
                _ => None,
            };
            let start = provider_table.map_or(0, |i| i + 1);
            let mut allocated = false;
            for i in start..self.config.num_tables() {
                if hist_len < self.config.hist_lens[i] {
                    break;
                }
                let h = self.table_hash(i, block, hist_bits);
                let idx = self.index_of(h, self.config.tagged_bits);
                let tag = self.tag_of(h);
                let e = &mut self.tables[i][idx];
                if !e.valid || e.u == 0 {
                    *e = TaggedEntry {
                        valid: true,
                        tag,
                        pred: observed,
                        ctr: 0,
                        u: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for i in start..self.config.num_tables() {
                    if hist_len < self.config.hist_lens[i] {
                        break;
                    }
                    let h = self.table_hash(i, block, hist_bits);
                    let idx = self.index_of(h, self.config.tagged_bits);
                    let e = &mut self.tables[i][idx];
                    e.u = e.u.saturating_sub(1);
                }
            }
        }

        // 5. Shift the observation into the block's history register.
        self.histories
            .entry(block)
            .or_insert_with(|| PackedHistory::new(packed::MAX_DEPTH))
            .push(observed);
    }

    fn memory(&self) -> MemoryFootprint {
        MemoryFootprint {
            mhr_entries: self.histories.len(),
            pht_entries: self.live_entries(),
        }
    }

    fn core_stats(&self) -> CoreStats {
        let slot = std::mem::size_of::<(BlockAddr, PackedHistory)>();
        CoreStats {
            pht_probes: self.probes.get(),
            table_capacity_bytes: (self.histories.capacity() * slot) as u64
                + self.config.table_bits() / 8,
        }
    }

    fn storage_bits(&self) -> u64 {
        TagePredictor::storage_bits(self)
    }
}

/// A per-agent tournament between a Cosmos predictor and a TAGE-MP
/// predictor: one 2-bit chooser counter per agent (per *node*, not per
/// block) tracks which component has been right more often recently when
/// they disagree, and arbitrates between them.
pub type CosmosTageHybrid = Tournament<CosmosPredictor, TagePredictor>;

impl CosmosTageHybrid {
    /// Builds the hybrid from a Cosmos depth/filter and a TAGE geometry.
    pub fn new(depth: usize, filter_max: u8, config: TageConfig) -> Self {
        Tournament::between(
            "cosmos+tage",
            CosmosPredictor::new(depth, filter_max),
            TagePredictor::new(config),
            false,
        )
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
    fn table_bits_match_geometry_exactly() {
        // small: 64·19 + 2·64·(6+22) = 1216 + 3584.
        assert_eq!(TageConfig::small().table_bits(), 4800);
        // mid: 256·19 + 3·128·(8+22) = 4864 + 11520.
        assert_eq!(TageConfig::mid().table_bits(), 16384);
        // large: 1024·19 + 4·512·(10+22) = 19456 + 65536.
        assert_eq!(TageConfig::large().table_bits(), 84992);
    }

    #[test]
    fn storage_bits_add_one_history_register_per_block() {
        let mut p = TagePredictor::new(TageConfig::small());
        let fixed = TageConfig::small().table_bits();
        assert_eq!(p.storage_bits(), fixed, "no blocks seen yet");
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        p.observe(b(2), t(1, MsgType::GetRoRequest));
        p.observe(b(2), t(2, MsgType::GetRwRequest));
        assert_eq!(p.storage_bits(), fixed + 2 * 64, "two blocks tracked");
        assert_eq!(MessagePredictor::storage_bits(&p), p.storage_bits());
    }

    #[test]
    fn learns_a_simple_cycle() {
        let mut p = TagePredictor::new(TageConfig::mid());
        let cycle = [
            t(0, MsgType::GetRoResponse),
            t(0, MsgType::UpgradeResponse),
            t(0, MsgType::InvalRwRequest),
        ];
        for tuple in cycle.iter().cycle().take(30) {
            p.observe(b(1), *tuple);
        }
        let mut hits = 0;
        for tuple in cycle.iter().cycle().take(12) {
            hits += u32::from(p.predict(b(1)) == Some(*tuple));
            p.observe(b(1), *tuple);
        }
        assert!(hits >= 10, "only {hits}/12 after warmup");
    }

    #[test]
    fn long_history_tables_disambiguate_alternation() {
        // A -> X, A -> Y alternating with a period the base table and the
        // length-1 table cannot express; the longer tables must.
        let mut p = TagePredictor::new(TageConfig::mid());
        let a = t(1, MsgType::GetRoRequest);
        let x = t(2, MsgType::GetRwRequest);
        let y = t(3, MsgType::UpgradeRequest);
        for _ in 0..40 {
            p.observe(b(1), x);
            p.observe(b(1), a);
            p.observe(b(1), y);
            p.observe(b(1), a);
        }
        // After [.., y, a] the successor is x.
        let mut hits = 0;
        for _ in 0..10 {
            hits += u32::from(p.predict(b(1)) == Some(x));
            p.observe(b(1), x);
            p.observe(b(1), a);
            hits += u32::from(p.predict(b(1)) == Some(y));
            p.observe(b(1), y);
            p.observe(b(1), a);
        }
        assert!(hits >= 16, "only {hits}/20 on the alternation");
    }

    #[test]
    fn cold_predictor_offers_nothing() {
        let p = TagePredictor::new(TageConfig::small());
        assert_eq!(p.predict(b(7)), None);
        assert_eq!(p.memory(), MemoryFootprint::default());
    }

    #[test]
    fn memory_reports_histories_and_live_entries() {
        let mut p = TagePredictor::new(TageConfig::small());
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        p.observe(b(1), t(2, MsgType::GetRwRequest));
        let m = p.memory();
        assert_eq!(m.mhr_entries, 1);
        assert!(m.pht_entries >= 1, "base entry at least");
        assert!(p.core_stats().pht_probes > 0);
        assert!(p.core_stats().table_capacity_bytes >= TageConfig::small().table_bits() / 8);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_increasing_lengths_rejected() {
        let _ = TagePredictor::new(TageConfig {
            base_bits: 4,
            tagged_bits: 4,
            tag_bits: 8,
            hist_lens: vec![2, 2],
        });
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn zero_history_length_rejected() {
        let _ = TagePredictor::new(TageConfig {
            base_bits: 4,
            tagged_bits: 4,
            tag_bits: 8,
            hist_lens: vec![0, 1],
        });
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn over_deep_history_length_rejected() {
        let _ = TagePredictor::new(TageConfig {
            base_bits: 4,
            tagged_bits: 4,
            tag_bits: 8,
            hist_lens: vec![1, packed::MAX_DEPTH + 1],
        });
    }

    #[test]
    fn hybrid_arbitrates_between_components() {
        let mut p = CosmosTageHybrid::new(1, 0, TageConfig::small());
        let cycle = [t(0, MsgType::GetRwResponse), t(0, MsgType::InvalRwRequest)];
        for tuple in cycle.iter().cycle().take(20) {
            p.observe(b(1), *tuple);
        }
        let mut hits = 0;
        for tuple in cycle.iter().cycle().take(10) {
            hits += u32::from(p.predict(b(1)) == Some(*tuple));
            p.observe(b(1), *tuple);
        }
        assert!(hits >= 9, "hybrid hit {hits}/10 on an easy cycle");
        assert!(p.first_used + p.second_used > 0);
        assert!(p.storage_bits() > TageConfig::small().table_bits());
    }
}
