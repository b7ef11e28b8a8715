//! Memory accounting — the paper's Table 7.
//!
//! Table 7 reports, per application and MHR depth:
//!
//! * **Ratio** — total PHT entries ÷ total MHR entries (MHR entries are
//!   blocks referenced at least once; blocks with ≤ depth references
//!   allocate no PHT);
//! * **Ovhd** — average overhead per 128-byte block as a percentage of the
//!   block size:
//!
//! ```text
//! Ovhd = (tuple_size * [depth + Ratio * (depth + 1)] * 100 / 128) %
//! ```
//!
//! with a 2-byte tuple (12-bit processor + 4-bit type). An MHR costs
//! `depth` tuples; each PHT entry costs `depth + 1` tuples (its key plus
//! its prediction).

use crate::tuple::PredTuple;
use std::fmt;
use std::iter::Sum;
use std::ops::Add;

/// The reference block size Table 7 normalises against.
pub const TABLE7_BLOCK_BYTES: usize = 128;

/// Table sizes of one or more predictors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// MHR entries (blocks referenced at least once).
    pub mhr_entries: usize,
    /// Total PHT entries.
    pub pht_entries: usize,
}

impl MemoryFootprint {
    /// The PHT-to-MHR ratio (Table 7's `Ratio`); 0 when no MHRs exist.
    pub fn ratio(&self) -> f64 {
        if self.mhr_entries == 0 {
            return 0.0;
        }
        self.pht_entries as f64 / self.mhr_entries as f64
    }

    /// Table 7's `Ovhd`: average per-block memory overhead as a percentage
    /// of a 128-byte block, for a predictor of the given depth.
    pub fn overhead_percent(&self, depth: usize) -> f64 {
        overhead_percent(depth, self.ratio())
    }

    /// Raw bytes consumed by the tables (tuples only, as the paper counts).
    pub fn bytes(&self, depth: usize) -> usize {
        PredTuple::SIZE_BYTES * (self.mhr_entries * depth + self.pht_entries * (depth + 1))
    }
}

impl Add for MemoryFootprint {
    type Output = MemoryFootprint;
    fn add(self, rhs: MemoryFootprint) -> MemoryFootprint {
        MemoryFootprint {
            mhr_entries: self.mhr_entries + rhs.mhr_entries,
            pht_entries: self.pht_entries + rhs.pht_entries,
        }
    }
}

impl Sum for MemoryFootprint {
    fn sum<I: Iterator<Item = MemoryFootprint>>(iter: I) -> MemoryFootprint {
        iter.fold(MemoryFootprint::default(), Add::add)
    }
}

impl fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} MHR entries, {} PHT entries (ratio {:.2})",
            self.mhr_entries,
            self.pht_entries,
            self.ratio()
        )
    }
}

/// Table 7's overhead formula, exposed directly for the harness:
/// `(tuple_size * [depth + ratio * (depth + 1)] * 100 / 128) %`.
pub fn overhead_percent(depth: usize, ratio: f64) -> f64 {
    PredTuple::SIZE_BYTES as f64 * (depth as f64 + ratio * (depth as f64 + 1.0)) * 100.0
        / TABLE7_BLOCK_BYTES as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_empty() {
        assert_eq!(MemoryFootprint::default().ratio(), 0.0);
    }

    #[test]
    fn paper_example_overheads() {
        // Table 7, appbt depth 1: Ratio 1.2 -> Ovhd 5.4% (5.3125 exactly;
        // the paper's ratio is rounded to one decimal).
        assert!((overhead_percent(1, 1.2) - 5.3125).abs() < 0.01);
        // Table 7, barnes depth 3: Ratio 9.3 -> Ovhd 63.0%.
        assert!((overhead_percent(3, 9.3) - 62.8125).abs() < 0.2);
        // Table 7, dsmc depth 4: Ratio 0.3 -> Ovhd 8.9%.
        assert!((overhead_percent(4, 0.3) - 8.59).abs() < 0.35);
    }

    #[test]
    fn footprint_math() {
        let a = MemoryFootprint {
            mhr_entries: 10,
            pht_entries: 12,
        };
        let b = MemoryFootprint {
            mhr_entries: 5,
            pht_entries: 3,
        };
        let s: MemoryFootprint = [a, b].into_iter().sum();
        assert_eq!(s.mhr_entries, 15);
        assert_eq!(s.pht_entries, 15);
        assert!((s.ratio() - 1.0).abs() < 1e-12);
        // depth 2: bytes = 2 * (15*2 + 15*3) = 150.
        assert_eq!(s.bytes(2), 150);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn overhead_matches_footprint_method() {
        let fp = MemoryFootprint {
            mhr_entries: 100,
            pht_entries: 170,
        };
        assert!((fp.overhead_percent(2) - overhead_percent(2, 1.7)).abs() < 1e-12);
    }
}
