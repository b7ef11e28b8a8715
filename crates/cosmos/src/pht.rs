//! The Pattern History Table: the second predictor level.
//!
//! One PHT exists per MHR (i.e. per cache block, paper §3.2). It maps a
//! history of `<sender, type>` tuples to a predicted next tuple. Unlike
//! PAp's two-bit counters, a Cosmos PHT entry "simply consists of a
//! prediction" — optionally guarded by a saturating-counter noise filter
//! (§3.6): the prediction is replaced only after `max_count + 1`
//! consecutive mispredictions for the same history. Beside the filter's
//! miss counter an entry keeps a confirmation counter, which a
//! confidence-gated predictor reads; [`PhtEntry::learn`] updates both and
//! is the rule every second-level layout in the crate applies.
//!
//! Since PR 3 the table is keyed by the **packed history word** (see
//! [`crate::packed`]) through the allocation-free [`FastMap`]: a probe
//! hashes one `u64` instead of a heap-allocated `Vec<PredTuple>`, and
//! updates take a single `entry` probe instead of a `get_mut`-then-`insert`
//! pair.

use crate::tuple::PredTuple;
use stache::fasthash::FastMap;
use std::collections::hash_map::Entry;

/// Saturation point of [`PhtEntry::confidence`] (2 bits, like branch
/// predictors' counters). A confidence threshold above it is clamped to
/// it — the one rule for every gate in the workspace.
pub const CONFIDENCE_MAX: u8 = 3;

/// A PHT entry: the prediction, the filter's miss counter and the
/// confidence counter, side by side. With its packed-history key it fills
/// a 16-byte bucket (plus the map's control byte); the map's own 32-byte
/// header sits behind a box in its block's state, allocated with the
/// first entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhtEntry {
    /// The predicted next tuple for this history.
    pub prediction: PredTuple,
    /// Consecutive mispredictions observed (saturates at the filter's
    /// maximum count).
    pub misses: u8,
    /// Consecutive confirmations observed, saturating at
    /// [`CONFIDENCE_MAX`]; any miss resets it.
    pub confidence: u8,
}

impl PhtEntry {
    /// A freshly learned prediction: never missed, never confirmed.
    pub fn new(prediction: PredTuple) -> Self {
        PhtEntry {
            prediction,
            misses: 0,
            confidence: 0,
        }
    }

    /// Folds the actually-observed tuple into the entry — the workspace's
    /// one statement of the §3.6 noise filter: a confirmation clears the
    /// miss counter, a miss is absorbed while the counter is below
    /// `filter_max` and replaces the prediction once it is not
    /// (`filter_max = 0` replaces on the first miss, Table 6's column 0).
    #[inline]
    pub fn learn(&mut self, observed: PredTuple, filter_max: u8) {
        if self.prediction == observed {
            self.misses = 0;
            self.confidence += u8::from(self.confidence < CONFIDENCE_MAX);
        } else if self.misses < filter_max {
            self.misses += 1;
            self.confidence = 0;
        } else {
            *self = PhtEntry::new(observed);
        }
    }

    /// The prediction, if it has been confirmed at least `gate` times in a
    /// row (`gate = 0` always offers it).
    #[inline]
    pub fn offered(&self, gate: u8) -> Option<PredTuple> {
        (self.confidence >= gate).then_some(self.prediction)
    }
}

/// A per-block pattern history table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pht {
    entries: FastMap<u64, PhtEntry>,
}

impl Pht {
    /// Creates an empty table.
    pub fn new() -> Self {
        Pht::default()
    }

    /// The entry for a packed history, if one has been learned.
    #[inline]
    pub fn entry(&self, key: u64) -> Option<&PhtEntry> {
        self.entries.get(&key)
    }

    /// The prediction for a packed history, if one has been learned.
    #[inline]
    pub fn predict(&self, key: u64) -> Option<PredTuple> {
        self.entry(key).map(|e| e.prediction)
    }

    /// Updates the entry for `key` with the actually-observed tuple,
    /// applying the noise filter with the given maximum count (see
    /// [`PhtEntry::learn`]).
    #[inline]
    pub fn update(&mut self, key: u64, observed: PredTuple, filter_max: u8) {
        self.predict_then_update(key, observed, filter_max, 0);
    }

    /// A gated [`predict`](Self::predict) then [`update`](Self::update) on
    /// one table slot: returns what the entry for `key`
    /// [offered](PhtEntry::offered) at `gate` *before* learning `observed`.
    #[inline]
    pub fn predict_then_update(
        &mut self,
        key: u64,
        observed: PredTuple,
        filter_max: u8,
        gate: u8,
    ) -> Option<PredTuple> {
        match self.entries.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(PhtEntry::new(observed));
                None
            }
            Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                let offered = entry.offered(gate);
                entry.learn(observed, filter_max);
                offered
            }
        }
    }

    /// Number of learned patterns (Table 7's per-block PHT entry count).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no patterns have been learned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of buckets the table has reserved (capacity, not occupancy),
    /// its header excluded — feeds
    /// [`crate::CoreStats::table_capacity_bytes`], which adds the header.
    pub fn capacity_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, PhtEntry)>()
    }

    /// Iterates `(packed history, entry)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &PhtEntry)> {
        self.entries.iter().map(|(&k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::pack_key;
    use stache::{MsgType, NodeId};

    fn t(n: usize, m: MsgType) -> PredTuple {
        PredTuple::new(NodeId::new(n), m)
    }

    fn key1() -> u64 {
        pack_key(&[t(1, MsgType::GetRoRequest)])
    }

    #[test]
    fn learns_then_predicts() {
        let mut pht = Pht::new();
        assert_eq!(pht.predict(key1()), None);
        pht.update(key1(), t(2, MsgType::InvalRoResponse), 0);
        assert_eq!(pht.predict(key1()), Some(t(2, MsgType::InvalRoResponse)));
        assert_eq!(pht.len(), 1);
    }

    #[test]
    fn predict_then_update_returns_the_prior_prediction() {
        let (mut fused, mut split) = (Pht::new(), Pht::new());
        let stream = [
            t(2, MsgType::InvalRoResponse),
            t(3, MsgType::UpgradeRequest),
            t(3, MsgType::UpgradeRequest),
            t(2, MsgType::InvalRoResponse),
        ];
        for observed in stream {
            let expected = split.predict(key1());
            split.update(key1(), observed, 1);
            assert_eq!(fused.predict_then_update(key1(), observed, 1, 0), expected);
            assert_eq!(fused, split);
        }
    }

    #[test]
    fn unfiltered_update_replaces_immediately() {
        let mut pht = Pht::new();
        pht.update(key1(), t(2, MsgType::InvalRoResponse), 0);
        pht.update(key1(), t(3, MsgType::UpgradeRequest), 0);
        assert_eq!(pht.predict(key1()), Some(t(3, MsgType::UpgradeRequest)));
    }

    #[test]
    fn single_bit_filter_needs_two_consecutive_misses() {
        // The paper's single-bit counter (§3.6): the prediction changes
        // only after two consecutive mispredictions.
        let mut pht = Pht::new();
        let good = t(2, MsgType::InvalRoResponse);
        let noise = t(3, MsgType::UpgradeRequest);
        pht.update(key1(), good, 1);
        pht.update(key1(), noise, 1); // first miss: filtered
        assert_eq!(pht.predict(key1()), Some(good));
        pht.update(key1(), good, 1); // correct again: counter resets
        pht.update(key1(), noise, 1); // miss 1
        assert_eq!(pht.predict(key1()), Some(good));
        pht.update(key1(), noise, 1); // miss 2: replaced
        assert_eq!(pht.predict(key1()), Some(noise));
    }

    #[test]
    fn max_count_two_needs_three_misses() {
        let mut pht = Pht::new();
        let good = t(2, MsgType::InvalRoResponse);
        let noise = t(3, MsgType::UpgradeRequest);
        pht.update(key1(), good, 2);
        pht.update(key1(), noise, 2);
        pht.update(key1(), noise, 2);
        assert_eq!(pht.predict(key1()), Some(good), "two misses filtered");
        pht.update(key1(), noise, 2);
        assert_eq!(pht.predict(key1()), Some(noise), "third miss replaces");
    }

    #[test]
    fn correct_observation_resets_the_counter() {
        let mut pht = Pht::new();
        let good = t(2, MsgType::InvalRoResponse);
        let noise = t(3, MsgType::UpgradeRequest);
        pht.update(key1(), good, 1);
        pht.update(key1(), noise, 1);
        pht.update(key1(), good, 1);
        // Counter is back to zero; a single miss must not replace.
        pht.update(key1(), noise, 1);
        assert_eq!(pht.predict(key1()), Some(good));
    }

    #[test]
    fn distinct_histories_are_independent() {
        let mut pht = Pht::new();
        let key_a = pack_key(&[t(1, MsgType::GetRoRequest), t(2, MsgType::GetRoRequest)]);
        let key_b = pack_key(&[t(2, MsgType::GetRoRequest), t(1, MsgType::GetRoRequest)]);
        pht.update(key_a, t(3, MsgType::UpgradeRequest), 0);
        pht.update(key_b, t(4, MsgType::GetRwRequest), 0);
        assert_eq!(pht.predict(key_a), Some(t(3, MsgType::UpgradeRequest)));
        assert_eq!(pht.predict(key_b), Some(t(4, MsgType::GetRwRequest)));
        assert_eq!(pht.len(), 2);
        assert_eq!(pht.iter().count(), 2);
    }
}
