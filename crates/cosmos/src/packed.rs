//! Packed message histories: a whole MHR in one `u64`.
//!
//! [`PredTuple::pack`] realises the paper's 16-bit tuple encoding (12-bit
//! sender, 4-bit type, Table 7's caption), and the paper never evaluates an
//! MHR deeper than 4 — so an entire history fits in a single machine word,
//! four 16-bit lanes wide. [`PackedHistory`] stores it that way: shifting a
//! tuple in is one shift-or-mask instead of a `Vec::remove(0)` memmove, and
//! the full register *is* the PHT key — no heap-allocated `Vec<PredTuple>`
//! per probe, no per-tuple hashing.
//!
//! Lane layout: the **oldest** tuple lives in the highest occupied 16-bit
//! lane, the newest in bits 0..16. Two same-depth histories are equal iff
//! their words are equal, and the word compares/hashes in one operation.

use crate::tuple::PredTuple;

/// The deepest MHR the packed representation (and the paper) supports.
pub const MAX_DEPTH: usize = 4;

/// The packed-key mask for a given depth: the low `16 * depth` bits.
///
/// # Panics
///
/// Panics if `depth` is outside `1..=MAX_DEPTH`, in every build profile.
/// A debug-only guard here let release builds compute `key_mask(0) == 0`,
/// which silently pinned every pushed key to zero — a key that aliases
/// all histories — and saturated out-of-range depths to the full word.
/// Both are data corruption, not recoverable states.
#[inline]
pub fn key_mask(depth: usize) -> u64 {
    assert!(
        (1..=MAX_DEPTH).contains(&depth),
        "packed-key depth {depth} outside 1..={MAX_DEPTH}"
    );
    if depth >= MAX_DEPTH {
        u64::MAX
    } else {
        (1u64 << (16 * depth)) - 1
    }
}

/// Packs a slice of tuples (oldest first) into a key word.
///
/// # Panics
///
/// Panics if more than [`MAX_DEPTH`] tuples are given.
pub fn pack_key(tuples: &[PredTuple]) -> u64 {
    assert!(tuples.len() <= MAX_DEPTH, "history deeper than one word");
    tuples
        .iter()
        .fold(0u64, |k, t| (k << 16) | u64::from(t.pack()))
}

/// A fixed-depth shift register of packed prediction tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedHistory {
    depth: u8,
    len: u8,
    bits: u64,
}

impl PackedHistory {
    /// Creates an empty register.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds [`MAX_DEPTH`] — the packed
    /// layout is exactly one word wide.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "MHR depth must be at least 1");
        assert!(
            depth <= MAX_DEPTH,
            "MHR depth {depth} exceeds the packed-word maximum of {MAX_DEPTH}"
        );
        PackedHistory {
            depth: depth as u8,
            len: 0,
            bits: 0,
        }
    }

    /// The configured depth.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Tuples currently held (0 until warm, then always `depth`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no tuple has been shifted in yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `depth` tuples have been received.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.depth
    }

    /// Shifts a packed tuple in; once full, the oldest lane falls out.
    #[inline]
    pub fn push(&mut self, packed: u16) {
        self.bits = ((self.bits << 16) | u64::from(packed)) & key_mask(self.depth as usize);
        if self.len < self.depth {
            self.len += 1;
        }
    }

    /// The PHT key — the packed word — once the register is full.
    #[inline]
    pub fn key(&self) -> Option<u64> {
        self.is_full().then_some(self.bits)
    }

    /// The `i`-th occupied lane, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn lane(&self, i: usize) -> u16 {
        assert!(i < self.len(), "lane {i} of {}", self.len());
        (self.bits >> (16 * (self.len() - 1 - i))) as u16
    }

    /// The most recently pushed lane, if any.
    #[inline]
    pub fn last(&self) -> Option<u16> {
        (self.len > 0).then_some(self.bits as u16)
    }

    /// Unpacks the occupied lanes into tuples, oldest first.
    pub fn tuples(&self) -> Vec<PredTuple> {
        (0..self.len())
            .map(|i| PredTuple::unpack(self.lane(i)).expect("lane holds a packed tuple"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stache::{MsgType, NodeId};

    fn t(n: usize, m: MsgType) -> PredTuple {
        PredTuple::new(NodeId::new(n), m)
    }

    #[test]
    fn masks_cover_each_depth() {
        assert_eq!(key_mask(1), 0xFFFF);
        assert_eq!(key_mask(2), 0xFFFF_FFFF);
        assert_eq!(key_mask(3), 0xFFFF_FFFF_FFFF);
        assert_eq!(key_mask(4), u64::MAX);
    }

    #[test]
    fn fills_then_shifts_like_a_fifo() {
        let mut h = PackedHistory::new(2);
        assert!(h.is_empty());
        assert_eq!(h.key(), None);
        let a = t(1, MsgType::GetRoRequest);
        let b = t(2, MsgType::GetRwRequest);
        let c = t(3, MsgType::UpgradeRequest);
        h.push(a.pack());
        assert_eq!(h.key(), None);
        assert_eq!(h.tuples(), vec![a]);
        h.push(b.pack());
        assert!(h.is_full());
        assert_eq!(h.key(), Some(pack_key(&[a, b])));
        h.push(c.pack());
        assert_eq!(h.key(), Some(pack_key(&[b, c])), "oldest lane fell out");
        assert_eq!(h.last(), Some(c.pack()));
        assert_eq!(h.tuples(), vec![b, c]);
    }

    #[test]
    fn depth_four_uses_the_full_word() {
        let mut h = PackedHistory::new(4);
        let ts: Vec<PredTuple> = (0..5).map(|i| t(i + 1, MsgType::GetRoRequest)).collect();
        for x in &ts {
            h.push(x.pack());
        }
        // The first tuple fell out; the remaining four fill all 64 bits.
        assert_eq!(h.key(), Some(pack_key(&ts[1..])));
        assert_eq!(h.tuples(), ts[1..].to_vec());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let ts = vec![
            t(4095, MsgType::GetRoRequest),
            t(0, MsgType::GetRwRequest),
            t(17, MsgType::UpgradeRequest),
        ];
        let mut h = PackedHistory::new(3);
        ts.iter().for_each(|x| h.push(x.pack()));
        assert_eq!(h.key(), Some(pack_key(&ts)));
        assert_eq!(h.tuples(), ts);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn depth_zero_rejected() {
        let _ = PackedHistory::new(0);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn depth_five_rejected() {
        let _ = PackedHistory::new(5);
    }

    // The next two guard the release-mode regression: these asserts used
    // to be debug-only, so optimised builds returned mask 0 for depth 0
    // (pinning every pushed key to 0) and u64::MAX for depth > MAX_DEPTH.
    // They must panic in *every* profile.

    #[test]
    #[should_panic(expected = "outside 1..=4")]
    fn key_mask_depth_zero_panics_in_all_profiles() {
        let _ = key_mask(0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=4")]
    fn key_mask_depth_five_panics_in_all_profiles() {
        let _ = key_mask(MAX_DEPTH + 1);
    }
}
