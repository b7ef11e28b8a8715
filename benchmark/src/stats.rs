//! Small numeric helpers: order statistics over pass timings and the
//! record-stream digest the output checks compare.

use trace::MsgRecord;

/// Order statistics and sample count of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// Lower quartile, `sorted[(n - 1) / 4]`: the value the benchmark
    /// reports for a host time. Interference on the shared 2-core box
    /// only ever adds time, in bursts that can cover most of a run (a
    /// run of 0.93 s passes with half of them at 1.5 s was measured), so
    /// the fast quarter repeats from run to run where the median does
    /// not. With one to four samples it is the fastest one.
    pub low: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarises `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: every caller passes at least one
/// measured duration.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no measurements");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Summary {
        median,
        low: v[(n - 1) / 4],
        min: v[0],
        max: v[n - 1],
        n,
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload
/// never entered has no rate).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Order-sensitive FNV-1a digest of a record stream, one 64-bit step per
/// field (node, role, block, sender, mtype, iteration, time) rather than
/// per byte: the digest runs inside timed passes over millions of
/// records, and seven multiplies a record keep it under 2 % of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    #[inline]
    fn step(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }

    /// Folds one record in.
    #[inline]
    pub fn record(&mut self, r: &MsgRecord) {
        self.step(r.node.index() as u64);
        self.step(r.role as u64);
        self.step(r.block.number());
        self.step(r.sender.index() as u64);
        self.step(u64::from(r.mtype.code()));
        self.step(u64::from(r.iteration));
        self.step(r.time_ns);
    }

    /// Folds a batch in, in order.
    pub fn records(&mut self, records: &[MsgRecord]) {
        for r in records {
            self.record(r);
        }
    }

    /// Folds another stream's finished digest in (cell after cell).
    pub fn chain(&mut self, other: Digest) {
        self.step(other.0);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stache::{BlockAddr, MsgType, NodeId, Role};

    #[test]
    fn median_min_max_of_odd_and_even_counts() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        let s = summarize(&[7.5]);
        assert_eq!(
            (s.median, s.low, s.min, s.max, s.n),
            (7.5, 7.5, 7.5, 7.5, 1)
        );
    }

    #[test]
    fn lower_quartile_ignores_a_burst_of_slow_samples() {
        assert_eq!(summarize(&[2.0, 1.0]).low, 1.0);
        assert_eq!(summarize(&[5.0, 4.0, 3.0, 2.0, 1.0]).low, 2.0);
        let mut run: Vec<f64> = (0..12).map(|i| 0.93 + 0.001 * f64::from(i)).collect();
        run.extend([1.5; 15]);
        let s = summarize(&run);
        assert_eq!(s.median, 1.5, "the burst owns the median");
        assert!((s.low - 0.936).abs() < 1e-12, "not the lower quartile");
    }

    #[test]
    fn ratio_of_an_idle_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }

    fn rec(time_ns: u64, block: u64) -> MsgRecord {
        MsgRecord {
            time_ns,
            node: NodeId::new(3),
            role: Role::Directory,
            block: BlockAddr::new(block),
            sender: NodeId::new(5),
            mtype: MsgType::GetRoRequest,
            iteration: 7,
        }
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let (a, b) = (rec(100, 64), rec(140, 65));
        let mut batched = Digest::default();
        batched.records(&[a, b]);
        let mut one_by_one = Digest::default();
        one_by_one.record(&a);
        one_by_one.record(&b);
        assert_eq!(batched, one_by_one, "batching must not change the digest");
        // Pinned: two commits compare digests from result.json, so the
        // function itself must never drift.
        assert_eq!(batched.value(), 0x7a51_e600_f2ca_e946);

        let mut swapped = Digest::default();
        swapped.records(&[b, a]);
        assert_ne!(batched, swapped);
        let mut retimed = Digest::default();
        retimed.records(&[a, rec(141, 65)]);
        assert_ne!(batched, retimed);
        assert_ne!(Digest::default(), batched);
    }
}
