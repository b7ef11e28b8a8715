#![warn(missing_docs)]

//! # cosmos — the Cosmos coherence message predictor
//!
//! The core contribution of *Using Prediction to Accelerate Coherence
//! Protocols* (Mukherjee & Hill, ISCA 1998): a two-level adaptive predictor,
//! derived from Yeh & Patt's PAp branch predictor, that predicts the
//! `<sender, message-type>` tuple of the **next incoming coherence
//! message** for a cache block.
//!
//! One Cosmos predictor sits beside every cache and every directory:
//!
//! 1. The block address indexes the **Message History Table** (MHT); each
//!    entry is a **Message History Register** (MHR) holding the last
//!    `depth` `<sender, type>` tuples received for that block.
//! 2. The MHR contents index that block's **Pattern History Table** (PHT),
//!    whose entry — if present — is the predicted next tuple. PHT entries
//!    may carry a saturating-counter noise filter (§3.6).
//!
//! That structure exists once, as [`CosmosPredictor`]; the paper's
//! follow-ons still in use (a bounded table, confidence gating) are
//! constructor arguments of it, see [`predictor`]. The crate also
//! provides:
//!
//! * [`fleet`] — the per-`(node, role)` table every replay and live policy
//!   keeps its agents in;
//! * [`directed`] — reimplementations of the *directed* predictors the
//!   paper compares against in §7 (migratory detection, dynamic
//!   self-invalidation, Origin-style read-modify-write, last-tuple);
//! * [`eval`] — the evaluation harness producing overall / per-role /
//!   per-arc / per-iteration accuracies (Tables 5, 6, 8; Figures 6, 7);
//! * [`memory`] — Table 7's PHT/MHR ratio and per-block overhead formula;
//! * [`speedup`] — §4.4's analytic speedup model (Figure 5).
//!
//! What a prediction fires (§4.1's Table 2) is `accel`'s, beside the
//! policy that fires it.
//!
//! ## Example
//!
//! ```
//! use cosmos::{CosmosPredictor, MessagePredictor, PredTuple};
//! use stache::{BlockAddr, MsgType, NodeId};
//!
//! // Figure 3: the directory's predictor for `shared_counter`.
//! let mut p = CosmosPredictor::new(1, 0);
//! let block = BlockAddr::new(42);
//! let from_p1 = PredTuple::new(NodeId::new(1), MsgType::GetRoRequest);
//! let from_p2 = PredTuple::new(NodeId::new(2), MsgType::InvalRoResponse);
//!
//! p.observe(block, from_p1);
//! p.observe(block, from_p2); // learns: after get_ro_request(P1) comes inval_ro_response(P2)
//! p.observe(block, from_p1);
//! assert_eq!(p.predict(block), Some(from_p2));
//! ```

pub mod directed;
pub mod eval;
pub mod fleet;
mod lru;
pub mod memory;
pub mod mhr;
pub mod packed;
pub mod pht;
pub mod predictor;
pub mod speedup;
pub mod tuple;

pub use eval::{AccuracyReport, Counts, EvalOptions, StreamEval, Verdict};
pub use fleet::Fleet;
pub use memory::MemoryFootprint;
pub use mhr::Mhr;
pub use pht::{Pht, PhtEntry, CONFIDENCE_MAX};
pub use predictor::{CosmosPredictor, EvictingCosmos};
pub use tuple::PredTuple;

use stache::BlockAddr;

/// Internal predictor-core counters, carried on every report as
/// [`eval::AccuracyReport::core`] (apart from the accuracy metrics and
/// their goldens); the pipeline benchmark publishes them as
/// `cosmos.score.pht_probes` and `cosmos.score.table_bytes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// PHT probes (lookups plus updates) performed over the predictor's
    /// lifetime.
    pub pht_probes: u64,
    /// Bytes the predictor's hash tables have *reserved* (capacity, not
    /// occupancy) — the allocation cost of the table layout.
    pub table_capacity_bytes: u64,
}

impl CoreStats {
    /// Accumulates another predictor's counters into this one.
    pub fn merge(&mut self, other: CoreStats) {
        self.pht_probes += other.pht_probes;
        self.table_capacity_bytes += other.table_capacity_bytes;
    }
}

/// A predictor of the next incoming coherence message for a block.
///
/// One instance serves one agent (a cache or a directory at one node). The
/// evaluation harness calls [`predict`](MessagePredictor::predict) *before*
/// [`observe`](MessagePredictor::observe) for every incoming message and
/// scores the prediction against the observation.
pub trait MessagePredictor {
    /// A short name for tables and reports.
    fn name(&self) -> &'static str;

    /// Predicts the next incoming `<sender, type>` for `block`, or `None`
    /// if the predictor has no basis for a prediction yet.
    fn predict(&self, block: BlockAddr) -> Option<PredTuple>;

    /// Feeds the actually-received tuple for `block` into the predictor.
    fn observe(&mut self, block: BlockAddr, tuple: PredTuple);

    /// One scoring step: what [`predict`](MessagePredictor::predict) would
    /// return for `block`, then [`observe`](MessagePredictor::observe) of
    /// `tuple`. Table-backed predictors override it to find the block's
    /// state once; the result and every counter must equal the two calls.
    fn predict_then_observe(&mut self, block: BlockAddr, tuple: PredTuple) -> Option<PredTuple> {
        let predicted = self.predict(block);
        self.observe(block, tuple);
        predicted
    }

    /// The predictor's table sizes, for memory accounting (Table 7).
    /// Predictors without per-block tables report an empty footprint.
    fn memory(&self) -> MemoryFootprint {
        MemoryFootprint::default()
    }

    /// Internal table counters for performance auditing ([`CoreStats`]).
    /// Predictors without an instrumented core report zeros.
    fn core_stats(&self) -> CoreStats {
        CoreStats::default()
    }
}

// Tests of the store and gate arguments of `CosmosPredictor`, under the
// module paths they had when each argument was a struct of its own.
#[cfg(test)]
mod confidence;
#[cfg(test)]
mod evicting;

#[cfg(test)]
mod tests {
    use super::*;
    use stache::{MsgType, NodeId};

    /// The lib.rs doc example, kept as a compiled test too.
    #[test]
    fn figure_three_walkthrough() {
        let mut p = CosmosPredictor::new(1, 0);
        let block = BlockAddr::new(42);
        let t1 = PredTuple::new(NodeId::new(1), MsgType::GetRoRequest);
        let t2 = PredTuple::new(NodeId::new(2), MsgType::InvalRoResponse);
        assert_eq!(p.predict(block), None);
        p.observe(block, t1);
        assert_eq!(p.predict(block), None, "no pattern learned yet");
        p.observe(block, t2);
        p.observe(block, t1);
        assert_eq!(p.predict(block), Some(t2));
    }
}
