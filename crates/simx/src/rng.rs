//! Deterministic randomness: the workspace's core PRNG.
//!
//! The simulator's fault-injection layer and the workload generators both
//! need reproducible randomness: same parameters → same draws → same
//! traces and fault schedules. Every stochastic choice draws from a
//! [`SmallRng`] seeded from `(seed, iteration, stream)` so a decision at
//! point *i* does not depend on whether earlier decision points ran.
//!
//! The generator is a self-contained xoshiro256++ (the algorithm behind
//! the `rand` crate's non-portable `SmallRng` on 64-bit targets),
//! hand-rolled here so the workspace builds with no external crates.
//! Statistical quality is far beyond what plan generation or fault
//! scheduling needs; what matters is that the byte-for-byte output stream
//! is frozen by this file alone.
//!
//! This module is the home of the PRNG core; `workloads::rng` re-exports
//! it (plus workload-specific sampling helpers), so existing callers and
//! their frozen byte streams are unchanged.

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step — used both to mix `(seed, iteration, stream)` and
/// to expand a single u64 seed into the 256-bit xoshiro state.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small, fast, deterministic PRNG (xoshiro256++).
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Builds a generator from a single seed, SplitMix64-expanded into the
    /// full state (the standard seeding recipe, which also guards against
    /// the all-zero state xoshiro cannot leave).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SmallRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next uniformly distributed `u64`.
    pub fn gen(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` (53 random mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.gen() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw; `p` is clamped to `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw from a (non-empty) `usize` range, exclusive or
    /// inclusive.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> usize {
        range.sample(self)
    }

    /// A uniform draw from `[0, n)` via the widening-multiply map. The
    /// modulo bias is at most `n / 2^64` — invisible at workload scales.
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "empty range");
        ((self.gen() as u128 * n as u128) >> 64) as u64
    }
}

/// The seeded property runner every `prop_*` suite shares: runs
/// `property` on generators seeded `0..cases`, each case on its own
/// stream, and puts the failing seed in the panic message. There is no
/// shrinking — re-run the one seed to debug it.
pub fn check(cases: u64, property: impl Fn(&mut SmallRng)) {
    for seed in 0..cases {
        let case = AssertUnwindSafe(|| property(&mut SmallRng::seed_from_u64(seed)));
        if let Err(cause) = catch_unwind(case) {
            let why = (cause.downcast_ref::<String>().map(String::as_str))
                .or_else(|| cause.downcast_ref::<&str>().copied());
            match why {
                Some(why) => panic!("property failed at seed {seed}: {why}"),
                None => resume_unwind(cause),
            }
        }
    }
}

/// Ranges [`SmallRng::gen_range`] can sample.
pub trait SampleRange {
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut SmallRng) -> usize;
}

impl SampleRange for Range<usize> {
    fn sample(self, rng: &mut SmallRng) -> usize {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SampleRange for RangeInclusive<usize> {
    fn sample(self, rng: &mut SmallRng) -> usize {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "gen_range on empty range");
        start + rng.below((end - start) as u64 + 1) as usize
    }
}

/// A per-(iteration, stream) RNG derived from a seed.
pub fn iter_rng(seed: u64, iteration: u32, stream: u64) -> SmallRng {
    // SplitMix64-style mixing keeps distinct (iteration, stream) pairs
    // decorrelated even for small seeds.
    let mut z =
        seed ^ (iteration as u64).wrapping_mul(GOLDEN) ^ stream.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    SmallRng::seed_from_u64(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_rng_is_deterministic_and_stream_separated() {
        let a: Vec<u64> = (0..5).map(|_| iter_rng(7, 3, 0).gen()).collect();
        let b: Vec<u64> = (0..5).map(|_| iter_rng(7, 3, 0).gen()).collect();
        assert_eq!(a, b);
        let c: u64 = iter_rng(7, 3, 1).gen();
        assert_ne!(a[0], c);
        let d: u64 = iter_rng(7, 4, 0).gen();
        assert_ne!(a[0], d);
    }

    #[test]
    fn gen_f64_stays_in_unit_interval() {
        let mut rng = iter_rng(9, 0, 0);
        for _ in 0..10_000 {
            let u = rng.gen_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_range_covers_inclusive_and_exclusive_bounds() {
        let mut rng = iter_rng(11, 0, 0);
        let mut seen_ex = [false; 5];
        let mut seen_in = [false; 5];
        for _ in 0..1000 {
            seen_ex[rng.gen_range(0..5)] = true;
            let v = rng.gen_range(1..=4);
            assert!((1..=4).contains(&v));
            seen_in[v] = true;
        }
        assert!(seen_ex.iter().all(|&b| b));
        assert!(seen_in[1..].iter().all(|&b| b) && !seen_in[0]);
    }

    #[test]
    fn stream_is_frozen() {
        // The first draws from a few (seed, iteration, stream) triples,
        // pinned so a refactor of the generator cannot silently change
        // every workload trace and fault schedule in the workspace.
        assert_eq!(SmallRng::seed_from_u64(0).gen(), 5987356902031041503);
        assert_eq!(SmallRng::seed_from_u64(42).gen(), 15021278609987233951);
        let mut r = iter_rng(7, 3, 1);
        let first = r.gen();
        assert_eq!(iter_rng(7, 3, 1).gen(), first);
    }
}
