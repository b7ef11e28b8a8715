//! The Message History Register: the first predictor level.
//!
//! An MHR is a shift register of the last `depth` `<sender, type>` tuples
//! received for one cache block (paper §3.2). Its contents — once full —
//! form the key into the block's Pattern History Table.
//!
//! The whole history lives in one `u64` (16 bits per tuple, depth ≤ 4;
//! the layout is in [`crate::packed`]), so a shift is a word operation and
//! the PHT key is the word itself.

use crate::packed::{key_mask, MAX_DEPTH};
use crate::tuple::PredTuple;
use std::fmt;

/// A fixed-depth shift register of prediction tuples, packed into one
/// word: the oldest tuple in the highest occupied 16-bit lane, the newest
/// in bits 0..16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mhr {
    depth: u8,
    len: u8,
    bits: u64,
}

impl Mhr {
    /// Creates an empty register of the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero — a depthless Cosmos has no first level —
    /// or exceeds [`MAX_DEPTH`] (the paper evaluates 1–4; the packed
    /// layout is one word wide).
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "MHR depth must be at least 1");
        assert!(
            depth <= MAX_DEPTH,
            "MHR depth {depth} exceeds the packed-word maximum of {MAX_DEPTH}"
        );
        Mhr {
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

    /// Left-shifts a tuple in (paper §3.4); the oldest tuple falls out once
    /// the register is full.
    #[inline]
    pub fn shift(&mut self, tuple: PredTuple) {
        self.bits = ((self.bits << 16) | u64::from(tuple.pack())) & key_mask(self.depth());
        if self.len < self.depth {
            self.len += 1;
        }
    }

    /// Whether `depth` tuples have been received.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.depth
    }

    /// The packed register contents, usable as a PHT key once full.
    #[inline]
    pub fn key(&self) -> Option<u64> {
        self.is_full().then_some(self.bits)
    }

    /// The register contents regardless of fill level (oldest first).
    pub fn contents(&self) -> Vec<PredTuple> {
        (0..self.len)
            .rev()
            .map(|lane| unpack(self.bits >> (16 * lane)))
            .collect()
    }

    /// The most recent tuple, if any.
    pub fn last(&self) -> Option<PredTuple> {
        (self.len > 0).then(|| unpack(self.bits))
    }
}

/// The tuple in the low 16 bits of `bits`.
fn unpack(bits: u64) -> PredTuple {
    PredTuple::unpack(bits as u16).expect("lane holds a packed tuple")
}

impl fmt::Display for Mhr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.contents().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
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

    #[test]
    fn fills_then_shifts() {
        let mut r = Mhr::new(2);
        assert!(!r.is_full());
        assert!(r.contents().is_empty());
        assert_eq!(r.last(), None);
        assert_eq!(r.key(), None);
        r.shift(t(1, MsgType::GetRoRequest));
        assert!(!r.is_full());
        assert_eq!(r.key(), None);
        assert_eq!(r.contents(), vec![t(1, MsgType::GetRoRequest)]);
        r.shift(t(2, MsgType::GetRoRequest));
        assert!(r.is_full());
        assert_eq!(
            r.key().unwrap(),
            pack_key(&[t(1, MsgType::GetRoRequest), t(2, MsgType::GetRoRequest)])
        );
        r.shift(t(3, MsgType::UpgradeRequest));
        assert_eq!(
            r.key().unwrap(),
            pack_key(&[t(2, MsgType::GetRoRequest), t(3, MsgType::UpgradeRequest)]),
            "oldest lane fell out"
        );
        assert_eq!(r.last(), Some(t(3, MsgType::UpgradeRequest)));
        assert_eq!(
            r.contents(),
            vec![t(2, MsgType::GetRoRequest), t(3, MsgType::UpgradeRequest)]
        );
    }

    #[test]
    fn depth_one_keeps_only_latest() {
        let mut r = Mhr::new(1);
        r.shift(t(1, MsgType::GetRoRequest));
        r.shift(t(2, MsgType::GetRwRequest));
        assert_eq!(r.key().unwrap(), pack_key(&[t(2, MsgType::GetRwRequest)]));
        assert_eq!(r.depth(), 1);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_rejected() {
        let _ = Mhr::new(0);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn over_deep_register_rejected() {
        let _ = Mhr::new(5);
    }

    #[test]
    fn display_shows_tuples() {
        let mut r = Mhr::new(2);
        r.shift(t(1, MsgType::GetRoRequest));
        assert_eq!(r.to_string(), "[<P1, get_ro_request>]");
    }
}
