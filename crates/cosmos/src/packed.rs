//! Packed message histories: a whole MHR in one `u64`.
//!
//! [`PredTuple::pack`] realises the paper's 16-bit tuple encoding (12-bit
//! sender, 4-bit type, Table 7's caption), and the paper never evaluates an
//! MHR deeper than 4 — so an entire history fits in a single machine word,
//! four 16-bit lanes wide. [`Mhr`](crate::mhr::Mhr) stores it that way:
//! shifting a tuple in is one shift-or-mask instead of a `Vec::remove(0)`
//! memmove, and the full register *is* the PHT key — no heap-allocated
//! `Vec<PredTuple>` per probe, no per-tuple hashing.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mhr::Mhr;
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
    fn depth_four_uses_the_full_word() {
        let mut h = Mhr::new(4);
        let ts: Vec<PredTuple> = (0..5).map(|i| t(i + 1, MsgType::GetRoRequest)).collect();
        for &x in &ts {
            h.shift(x);
        }
        // The first tuple fell out; the remaining four fill all 64 bits.
        assert_eq!(h.key(), Some(pack_key(&ts[1..])));
        assert_eq!(h.contents(), ts[1..].to_vec());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let ts = vec![
            t(4095, MsgType::GetRoRequest),
            t(0, MsgType::GetRwRequest),
            t(17, MsgType::UpgradeRequest),
        ];
        let mut h = Mhr::new(3);
        ts.iter().for_each(|&x| h.shift(x));
        assert_eq!(h.key(), Some(pack_key(&ts)));
        assert_eq!(h.contents(), ts);
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
