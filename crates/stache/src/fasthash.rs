//! A hand-rolled FxHash-style hasher for the hot block-keyed tables: the
//! predictor core's and the execution engines'.
//!
//! Both key every table by small fixed-width integers — a packed history
//! (`u64`), a [`BlockAddr`](crate::BlockAddr) (one `u64`), or a pair of
//! the two. `std`'s default SipHash is DoS-resistant but costs
//! tens of cycles per probe, which dominates the eval loop; these keys are
//! program-internal (never attacker-controlled), so the multiply-xor hash
//! used by rustc's own tables (`FxHash`) is the right trade. The repo policy
//! is zero external dependencies, so the hasher is written out here: per
//! 8-byte word, `hash = (hash.rotate_left(5) ^ word) * K` with Fx's odd
//! 64-bit constant.
//!
//! A multiply only carries information *upward*: the low `n` bits of
//! `word * K` depend on nothing but the low `n` bits of `word`. `std`'s
//! table takes its bucket from the hash's *low* bits, and this repo's
//! block addresses are constant there (Stache homes pages round-robin, so
//! every block one agent of a 64-node run sees agrees in its low 12 bits).
//! [`FxHasher::finish`] therefore rotates the well-mixed high bits down
//! (`FINISH_ROTATE`, the rustc-hash 2.x finaliser).
//!
//! Unlike `RandomState`, [`FastHash`] is deterministic across processes —
//! table *iteration order* is therefore reproducible, which the eval
//! harness never relies on but which makes perf runs comparable.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier: a 64-bit constant derived from the golden ratio,
/// chosen (by the Firefox/rustc lineage of this hash) for good bit
/// dispersion under wrapping multiplication.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// How far [`FxHasher::finish`] rotates the folded word left: the
/// product's top 26 bits become the result's low 26 (the bucket index of
/// any table up to 2^26 buckets), and the result's top bits, which
/// `std`'s table uses as a per-slot tag, still come from above bit 30.
/// 20, 26 and 32 all pass `page_strided_keys_disperse` (7500+ of 8192
/// distinct at both strides); 26 is rustc-hash 2.x's choice.
const FINISH_ROTATE: u32 = 26;

/// The FxHash word-at-a-time hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// The deterministic `BuildHasher` for [`FastMap`]/[`FastSet`].
pub type FastHash = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`] — the predictor core's table type.
pub type FastMap<K, V> = HashMap<K, V, FastHash>;

/// A `HashSet` hashed through [`FxHasher`].
pub type FastSet<T> = HashSet<T, FastHash>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(f: impl FnOnce(&mut FxHasher)) -> u64 {
        let mut h = FxHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        let a = hash_of(|h| h.write_u64(0xdead_beef));
        let b = hash_of(|h| h.write_u64(0xdead_beef));
        assert_eq!(a, b);
        assert_eq!(
            FastHash::default().hash_one(42u64),
            FastHash::default().hash_one(42u64)
        );
    }

    #[test]
    fn distinct_keys_disperse() {
        // Consecutive u64 keys must not collide in the low bits (the part
        // a power-of-two table actually uses).
        let mut low_bits = FastSet::default();
        for k in 0u64..1024 {
            low_bits.insert(hash_of(|h| h.write_u64(k)) & 0xFFFF);
        }
        assert!(low_bits.len() > 1000, "only {} distinct", low_bits.len());
    }

    /// Distinct values of the low 14 bits (the bucket index of a
    /// 16 384-bucket table, what an 8192-entry map gets) over 8192 keys
    /// `slot * stride + offset`.
    fn distinct_low14(stride: u64, offset: u64) -> usize {
        (0u64..8192)
            .map(|slot| FastHash::default().hash_one(slot * stride + offset) & 0x3FFF)
            .collect::<FastSet<u64>>()
            .len()
    }

    #[test]
    fn page_strided_keys_disperse() {
        // `placement::block_homed_at`: the blocks one agent of a 64-node
        // run sees are (slot * 64 + home) * 64 + offset, constant in their
        // low 12 bits. Without the finaliser these give 4 distinct values.
        let homed = distinct_low14(4096, 17 * 64 + 1);
        assert!(homed >= 4096, "only {homed} distinct at stride 4096");
        // `private_block`'s offset-0 pages: stride 64.
        let private = distinct_low14(64, 0);
        assert!(private >= 4096, "only {private} distinct at stride 64");
    }

    #[test]
    fn map_hash_is_the_fx_fold_rotated() {
        // The per-word fold of a `u64` and a `(u64, u64, u64)`, then the
        // finaliser's rotation and nothing else: table iteration order
        // (and with it every perf run's probe sequence) hangs on these.
        let rotated = |fold: u64| fold.rotate_left(FINISH_ROTATE);
        let hash = FastHash::default();
        assert_eq!(hash.hash_one(42u64), rotated(0x5e77_c80c_6b95_bc72));
        assert_eq!(
            hash.hash_one((0x1234_5678_9abc_def0u64, 0x0007_0011u64, 3u64)),
            rotated(0x7234_53fe_d179_25b9)
        );
        assert_eq!(
            hash.hash_one((7u64 * 64 + 5) * 64 + 1),
            rotated(0xc22f_07c6_f650_74d5)
        );
    }

    #[test]
    fn byte_writes_match_word_semantics_for_tail() {
        // A 10-byte slice hashes as one full word plus a zero-padded tail.
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let a = hash_of(|h| h.write(&bytes));
        let b = hash_of(|h| {
            h.write_u64(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            h.write_u64(u64::from_le_bytes([9, 10, 0, 0, 0, 0, 0, 0]));
        });
        assert_eq!(a, b);
    }

    #[test]
    fn fastmap_works_as_a_map() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);
    }

    /// Keys whose hashes agree in the low `bits` bits — they land in the
    /// same bucket region of any table with at most `2^bits` buckets, so
    /// every insert past the first probes through a chain of collisions.
    fn colliding_keys(bits: u32, want: usize) -> Vec<u64> {
        let target = hash_of(|h| h.write_u64(0)) & ((1 << bits) - 1);
        (0u64..)
            .filter(|&k| hash_of(|h| h.write_u64(k)) & ((1 << bits) - 1) == target)
            .take(want)
            .collect()
    }

    #[test]
    fn forced_collisions_still_resolve_exactly() {
        // 32 keys in one 128-bucket region; the map must still treat
        // them as distinct and keep every binding addressable.
        let keys = colliding_keys(7, 32);
        assert_eq!(keys.len(), 32);
        let mut m: FastMap<u64, u64> = FastMap::default();
        for &k in &keys {
            m.insert(k, !k);
        }
        assert_eq!(m.len(), keys.len(), "collisions must not overwrite");
        for &k in &keys {
            assert_eq!(m.get(&k), Some(&!k), "key {k:#x} lost in the chain");
        }
        // A 33rd key from the same region but absent must miss cleanly
        // (probing walks the whole chain without a false hit).
        let absent = colliding_keys(7, 33)[32];
        assert_eq!(m.get(&absent), None);
    }

    #[test]
    fn deletions_inside_a_collision_chain_leave_no_shadows() {
        // Removing the middle of a collision chain exercises the table's
        // tombstone/backshift handling: later keys in the same chain must
        // stay reachable, and the dead key must not resurrect.
        let keys = colliding_keys(7, 16);
        let mut m: FastMap<u64, u64> = FastMap::default();
        for &k in &keys {
            m.insert(k, k + 1);
        }
        for &k in keys.iter().step_by(2) {
            assert_eq!(m.remove(&k), Some(k + 1));
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(m.get(&k), None, "removed key {k:#x} resurrected");
            } else {
                assert_eq!(m.get(&k), Some(&(k + 1)), "survivor {k:#x} lost");
            }
        }
        // Reinserting over the holes restores the full chain.
        for &k in keys.iter().step_by(2) {
            m.insert(k, k + 2);
        }
        assert_eq!(m.len(), keys.len());
        assert_eq!(m.get(&keys[0]), Some(&(keys[0] + 2)));
    }

    #[test]
    fn growth_preserves_every_binding() {
        let mut m: FastMap<u64, u64> = FastMap::with_capacity_and_hasher(4, FastHash::default());
        let mut capacities = vec![m.capacity()];
        for k in 0u64..4096 {
            m.insert(k, k * 3);
            if m.capacity() != *capacities.last().expect("nonempty") {
                capacities.push(m.capacity());
            }
        }
        assert!(
            capacities.len() > 2,
            "4096 inserts must resize at least twice"
        );
        assert!(
            capacities.windows(2).all(|w| w[0] < w[1]),
            "capacity must grow monotonically: {capacities:?}"
        );
        assert!(m.capacity() >= m.len());
        for k in 0u64..4096 {
            assert_eq!(m.get(&k), Some(&(k * 3)), "rehash dropped key {k}");
        }
    }

    #[test]
    fn churn_does_not_leak_capacity_without_bound() {
        // Insert/remove cycles at a constant live size: capacity must
        // settle (tombstones get reclaimed on rehash, not accumulated).
        let mut m: FastMap<u64, u64> = FastMap::default();
        for k in 0u64..64 {
            m.insert(k, k);
        }
        let settled = {
            for round in 0u64..256 {
                let dead = round * 64..(round + 1) * 64;
                let live = (round + 1) * 64..(round + 2) * 64;
                for k in dead {
                    m.remove(&k);
                }
                for k in live {
                    m.insert(k, k);
                }
            }
            m.capacity()
        };
        assert_eq!(m.len(), 64);
        assert!(
            settled <= 1024,
            "64 live keys should never hold {settled} buckets"
        );
    }
}
