//! Predictor state snapshots.
//!
//! Long evaluations (the trace crate streams multi-gigabyte runs) want
//! checkpointing: stop, persist every agent's tables, resume later with
//! identical predictions. This module gives [`CosmosPredictor`] a compact
//! binary snapshot format:
//!
//! ```text
//! "CPS1" | depth u8 | filter u8 | block_count u32 |
//!   per block: addr u64 | mhr_len u8 | mhr tuples (u16 each) |
//!              pht_len u32 | per entry: key tuples (depth u16s) |
//!                                       prediction u16 | misses u8
//! ```
//!
//! The format is self-describing enough to validate on restore; a
//! restored predictor is bit-for-bit equivalent to the original (same
//! predictions, same memory accounting, same future evolution). The bytes
//! are canonical — blocks in address order, PHT entries in packed-key
//! order — so equal predictors save equal snapshots.
//!
//! The scope is a plain, unbounded Cosmos: the header carries `depth` and
//! `filter_max` only, and the confidence counters, which only a gated
//! predictor reads, are not written.

use crate::mhr::Mhr;
use crate::pht::Pht;
use crate::predictor::CosmosPredictor;
use crate::tuple::PredTuple;
use stache::BlockAddr;
use std::error::Error;
use std::fmt;

const MAGIC: &[u8; 4] = b"CPS1";

/// A malformed snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// The input ended mid-structure.
    Truncated,
    /// A field held an invalid value.
    BadField {
        /// Which field was malformed.
        field: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a predictor snapshot"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadField { field } => write!(f, "malformed snapshot field: {field}"),
        }
    }
}

impl Error for SnapshotError {}

/// Serialises a predictor's full state.
///
/// # Panics
///
/// Panics if the predictor was built with a store or gate argument:
/// `CPS1` has fields for depth and filter only, so the bytes would restore
/// as a different predictor.
pub fn save(predictor: &CosmosPredictor) -> Vec<u8> {
    assert!(
        predictor.is_plain(),
        "CPS1 cannot describe store or gate arguments"
    );
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(predictor.depth() as u8);
    out.push(predictor.filter_max());
    let blocks = predictor.snapshot_blocks();
    out.extend_from_slice(&(blocks.len() as u32).to_be_bytes());
    for (addr, mhr, pht) in blocks {
        out.extend_from_slice(&addr.number().to_be_bytes());
        let history = mhr.contents();
        out.push(history.len() as u8);
        for t in &history {
            out.extend_from_slice(&t.pack().to_be_bytes());
        }
        match pht {
            None => out.extend_from_slice(&0u32.to_be_bytes()),
            Some(pht) => {
                out.extend_from_slice(&(pht.len() as u32).to_be_bytes());
                // In packed-key order, not table order: the bytes must not
                // depend on the hasher or on insertion history.
                let mut entries: Vec<_> = pht.iter().collect();
                entries.sort_unstable_by_key(|(key, _)| *key);
                for (key, entry) in entries {
                    // The packed key's lanes serialise oldest-first as
                    // depth 16-bit tuples — the same wire layout the
                    // `Vec<PredTuple>`-keyed table produced.
                    for lane in (0..predictor.depth()).rev() {
                        out.extend_from_slice(&((key >> (16 * lane)) as u16).to_be_bytes());
                    }
                    out.extend_from_slice(&entry.prediction.pack().to_be_bytes());
                    out.push(entry.misses);
                }
            }
        }
    }
    out
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.data.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    fn tuple(&mut self) -> Result<PredTuple, SnapshotError> {
        PredTuple::unpack(self.u16()?).ok_or(SnapshotError::BadField { field: "tuple" })
    }
}

/// Restores a predictor from a snapshot.
///
/// # Errors
///
/// Fails on malformed input; never panics.
pub fn restore(bytes: &[u8]) -> Result<CosmosPredictor, SnapshotError> {
    let mut r = Reader {
        data: bytes,
        pos: 0,
    };
    if r.take(4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let depth = r.u8()? as usize;
    if depth == 0 || depth > crate::packed::MAX_DEPTH {
        return Err(SnapshotError::BadField { field: "depth" });
    }
    let filter_max = r.u8()?;
    let block_count = r.u32()?;
    let mut predictor = CosmosPredictor::new(depth, filter_max);
    for _ in 0..block_count {
        let addr = BlockAddr::new(r.u64()?);
        let mhr_len = r.u8()? as usize;
        if mhr_len > depth {
            return Err(SnapshotError::BadField { field: "mhr_len" });
        }
        let mut mhr = Mhr::new(depth);
        for _ in 0..mhr_len {
            mhr.shift(r.tuple()?);
        }
        let pht_len = r.u32()? as usize;
        let pht = if pht_len == 0 {
            None
        } else {
            let mut pht = Pht::new();
            for _ in 0..pht_len {
                let mut key = 0u64;
                for _ in 0..depth {
                    key = (key << 16) | u64::from(r.tuple()?.pack());
                }
                let prediction = r.tuple()?;
                let misses = r.u8()?;
                pht.restore_entry(key, prediction, misses);
            }
            Some(pht)
        };
        predictor.restore_block(addr, mhr, pht);
    }
    if r.pos != bytes.len() {
        return Err(SnapshotError::BadField {
            field: "trailing bytes",
        });
    }
    Ok(predictor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MessagePredictor;
    use stache::{MsgType, NodeId};

    fn trained(depth: usize, filter: u8, n: usize) -> CosmosPredictor {
        let mut p = CosmosPredictor::new(depth, filter);
        for i in 0..n {
            let block = BlockAddr::new((i % 7) as u64);
            let tuple = PredTuple::new(
                NodeId::new((i * 3) % 16),
                MsgType::from_code((i % 12) as u8).unwrap(),
            );
            p.observe(block, tuple);
        }
        p
    }

    #[test]
    fn roundtrip_preserves_predictions_and_memory() {
        for depth in [1usize, 2, 3] {
            let original = trained(depth, 1, 200);
            let bytes = save(&original);
            let restored = restore(&bytes).unwrap();
            // Canonical: tables refilled in snapshot order save the same.
            assert_eq!(save(&restored), bytes, "depth {depth}");
            assert_eq!(original.memory(), restored.memory());
            for b in 0..7u64 {
                assert_eq!(
                    original.predict(BlockAddr::new(b)),
                    restored.predict(BlockAddr::new(b)),
                    "depth {depth} block {b}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_preserves_future_evolution() {
        let mut original = trained(2, 1, 150);
        let mut restored = restore(&save(&original)).unwrap();
        // Continue both with the same stream: they stay identical.
        for i in 0..100 {
            let block = BlockAddr::new((i % 5) as u64);
            let tuple = PredTuple::new(
                NodeId::new((i * 5) % 16),
                MsgType::from_code((i % 12) as u8).unwrap(),
            );
            assert_eq!(original.predict(block), restored.predict(block), "step {i}");
            original.observe(block, tuple);
            restored.observe(block, tuple);
        }
        assert_eq!(original.memory(), restored.memory());
    }

    #[test]
    fn empty_predictor_roundtrips() {
        let p = CosmosPredictor::new(3, 2);
        let restored = restore(&save(&p)).unwrap();
        assert_eq!(restored.depth(), 3);
        assert_eq!(restored.filter_max(), 2);
        assert_eq!(restored.memory().mhr_entries, 0);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(matches!(restore(b"NOPE"), Err(SnapshotError::BadMagic)));
        assert!(matches!(restore(b"CP"), Err(SnapshotError::Truncated)));
        let mut good = save(&trained(1, 0, 50));
        good.truncate(good.len() - 3);
        assert!(matches!(restore(&good), Err(SnapshotError::Truncated)));
        let mut trailing = save(&trained(1, 0, 50));
        trailing.push(0);
        assert!(matches!(
            restore(&trailing),
            Err(SnapshotError::BadField {
                field: "trailing bytes"
            })
        ));
    }

    #[test]
    #[should_panic(expected = "cannot describe")]
    fn a_variant_predictor_is_outside_the_format() {
        save(&crate::EvictingCosmos::new(1, 0, 4));
    }

    #[test]
    fn depth_zero_snapshot_rejected() {
        let mut bytes = save(&CosmosPredictor::new(1, 0));
        bytes[4] = 0; // depth field
        assert!(matches!(
            restore(&bytes),
            Err(SnapshotError::BadField { field: "depth" })
        ));
    }
}
