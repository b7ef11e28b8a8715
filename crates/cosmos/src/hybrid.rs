//! The tournament hybrid: two Cosmos depths and a chooser.
//!
//! Table 5 shows no single depth wins everywhere: depth 1 adapts fastest
//! (barnes prefers it), depth 3 resolves rotations (dsmc needs it). Branch
//! prediction's classic answer is a *tournament*: run both, and let a
//! chooser counter track which component has been right more often
//! recently. [`HybridCosmos`] is that construction over coherence messages
//! — the kind of follow-on design the paper's §8 invites — with one
//! chooser per block.

use crate::fasthash::FastMap;
use crate::memory::MemoryFootprint;
use crate::predictor::CosmosPredictor;
use crate::tuple::PredTuple;
use crate::{CoreStats, MessagePredictor};
use stache::BlockAddr;

/// Chooser saturation (2-bit counter: 0–1 favour the shallow component,
/// 2–3 the deep one).
const CHOOSER_MAX: u8 = 3;

/// A per-block tournament between a shallow and a deep Cosmos.
#[derive(Debug, Clone)]
pub struct HybridCosmos {
    shallow: CosmosPredictor,
    deep: CosmosPredictor,
    /// Chooser counters by block.
    choosers: FastMap<BlockAddr, u8>,
}

impl HybridCosmos {
    /// Creates a tournament between `shallow_depth` and `deep_depth`
    /// Cosmos components (both filterless; the chooser supplies the
    /// hysteresis a filter would).
    ///
    /// # Panics
    ///
    /// Panics if the depths are equal or zero.
    pub fn new(shallow_depth: usize, deep_depth: usize) -> Self {
        assert!(shallow_depth < deep_depth, "components must differ");
        HybridCosmos {
            shallow: CosmosPredictor::new(shallow_depth, 0),
            deep: CosmosPredictor::new(deep_depth, 0),
            choosers: FastMap::default(),
        }
    }
}

impl MessagePredictor for HybridCosmos {
    fn name(&self) -> &'static str {
        "cosmos-hybrid"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        let a = self.shallow.predict(block);
        let b = self.deep.predict(block);
        match (a, b) {
            (Some(a), Some(b)) => {
                // An untrained chooser leans shallow: it warms up first.
                let chooser = self.choosers.get(&block).copied().unwrap_or(1);
                Some(if chooser >= 2 { b } else { a })
            }
            // Whoever has an opinion, speaks.
            (a, b) => a.or(b),
        }
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        // Score the components before they learn from the observation.
        let a_hit = self.shallow.predict(block) == Some(tuple);
        let b_hit = self.deep.predict(block) == Some(tuple);
        if a_hit != b_hit {
            let c = self.choosers.entry(block).or_insert(1);
            if b_hit {
                *c = (*c + 1).min(CHOOSER_MAX);
            } else {
                *c = c.saturating_sub(1);
            }
        }
        self.shallow.observe(block, tuple);
        self.deep.observe(block, tuple);
    }

    fn memory(&self) -> MemoryFootprint {
        self.shallow.memory() + self.deep.memory()
    }

    fn core_stats(&self) -> CoreStats {
        let mut stats = self.shallow.core_stats();
        stats.merge(self.deep.core_stats());
        stats
    }

    /// Both components' bits plus one 2-bit chooser per block.
    fn storage_bits(&self) -> u64 {
        self.shallow.storage_bits() + self.deep.storage_bits() + 2 * self.choosers.len() as u64
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
    fn warms_up_on_the_shallow_component() {
        let mut p = HybridCosmos::new(1, 3);
        let cycle = [
            t(0, MsgType::GetRoResponse),
            t(0, MsgType::UpgradeResponse),
            t(0, MsgType::InvalRwRequest),
        ];
        // After two periods the depth-1 component already predicts; the
        // depth-3 one is still cold. The hybrid must answer anyway.
        for tuple in cycle.iter().cycle().take(6) {
            p.observe(b(1), *tuple);
        }
        assert_eq!(p.predict(b(1)), Some(cycle[0]));
    }

    #[test]
    fn chooser_migrates_to_the_deep_component() {
        // An alternating successor: A -> X, A -> Y, A -> X, ... with a
        // disambiguating prefix. Depth 1 flip-flops (always wrong); depth 2
        // learns it; the chooser must swing deep.
        let mut p = HybridCosmos::new(1, 2);
        let a = t(1, MsgType::GetRoRequest);
        let x = t(2, MsgType::GetRwRequest);
        let y = t(3, MsgType::UpgradeRequest);
        for _ in 0..12 {
            p.observe(b(1), x);
            p.observe(b(1), a);
            p.observe(b(1), y);
            p.observe(b(1), a);
        }
        // After [y, a] the successor is x; depth 2 knows, depth 1 cannot.
        assert_eq!(p.predict(b(1)), Some(x));
    }

    #[test]
    fn hybrid_tracks_the_better_component_on_both_streams() {
        // Stream A is depth-1-friendly, stream B needs depth 2; one hybrid
        // instance handles both blocks well simultaneously.
        let mut p = HybridCosmos::new(1, 2);
        let simple = [t(0, MsgType::GetRwResponse), t(0, MsgType::InvalRwRequest)];
        let a = t(1, MsgType::GetRoRequest);
        let x = t(2, MsgType::GetRwRequest);
        let y = t(3, MsgType::UpgradeRequest);
        for round in 0..14 {
            p.observe(b(1), simple[round % 2]);
            p.observe(b(2), if round % 2 == 0 { x } else { y });
            p.observe(b(2), a);
        }
        let mut hits = 0;
        let mut total = 0;
        for round in 14..20 {
            let expected_simple = simple[round % 2];
            total += 1;
            hits += u32::from(p.predict(b(1)) == Some(expected_simple));
            p.observe(b(1), expected_simple);
            let expected_alt = if round % 2 == 0 { x } else { y };
            total += 1;
            hits += u32::from(p.predict(b(2)) == Some(expected_alt));
            p.observe(b(2), expected_alt);
            p.observe(b(2), a);
        }
        assert!(hits * 10 >= total * 8, "hybrid hit {hits}/{total}");
    }

    #[test]
    fn memory_is_the_sum_of_components() {
        let mut p = HybridCosmos::new(1, 2);
        p.observe(b(1), t(0, MsgType::GetRoResponse));
        p.observe(b(1), t(0, MsgType::UpgradeResponse));
        p.observe(b(1), t(0, MsgType::InvalRwRequest));
        let m = p.memory();
        assert_eq!(m.mhr_entries, 2, "one MHR per component");
        assert!(m.pht_entries >= 2);
    }

    #[test]
    #[should_panic(expected = "differ")]
    fn equal_depths_rejected() {
        let _ = HybridCosmos::new(2, 2);
    }
}
