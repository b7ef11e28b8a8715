//! A capacity-bounded table with least-recently-used replacement.
//!
//! §3.7's first-level table merged with finite cache state is this
//! structure: [`EvictingCosmos`](crate::EvictingCosmos)'s bounded MHT.

use stache::fasthash::FastHash;
use std::hash::{BuildHasher, Hash};

/// "No slot": the end of the recency list.
const NIL: u32 = u32::MAX;

/// An index bucket with no slot in it (its slot half is [`NIL`]).
const EMPTY: u64 = u64::MAX;

/// One tracked key: its value and its recency-list links.
#[derive(Debug, Clone)]
pub(crate) struct Slot<K, V> {
    key: K,
    value: V,
    /// Slot toward the MRU end of the recency list, or [`NIL`].
    prev: u32,
    /// Slot toward the LRU end of the recency list, or [`NIL`].
    next: u32,
}

/// At most `capacity` values, the least recently [`touch`](Self::touch)ed
/// one discarded to admit a new key.
///
/// A slab of slots, recency a doubly-linked list of slot numbers (`head`
/// = most recent, `tail` = victim), and an open-addressed index that
/// holds no key: each bucket is one word, `tag << 32 | slot`, `tag` the
/// low half of the key's hash, whose low bits name the key's bucket. A
/// probe reads the slab only on a tag match; growing the index or closing
/// a hole (linear probing, load ≤ ½, backward-shift deletion) never reads
/// it. A hit is one probe, a full table evicts in O(1) into the victim's
/// slot, and a key costs a slot plus two to four 8-byte buckets (two in a
/// full table of power-of-two capacity, like the streamed replay's 8192).
/// Slab and index grow with the keys seen, never to `capacity` up front:
/// a wide run builds thousands of agents that each see a few hundred
/// blocks.
#[derive(Debug, Clone)]
pub(crate) struct LruSlab<K, V> {
    capacity: usize,
    /// A power of two of buckets, at least twice the slab's length (or
    /// none before the first key).
    index: Vec<u64>,
    slots: Vec<Slot<K, V>>,
    head: u32,
    tail: u32,
    /// Values discarded under capacity pressure.
    pub(crate) evictions: u64,
}

impl<K: Copy + Eq + Hash, V> LruSlab<K, V> {
    /// An empty table of at most `capacity` values. A zero-capacity table
    /// holds nothing: its owner must not [`touch`](Self::touch) it.
    pub(crate) fn new(capacity: usize) -> Self {
        LruSlab {
            capacity,
            index: Vec::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            evictions: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// `key`'s value, recency untouched.
    #[inline]
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        Some(&self.slots[self.find(key)? as usize].value)
    }

    /// `key`'s value, made the most recent; an untracked key gets
    /// `fresh()` in a new slot while the table has room, else in the
    /// least recent key's slot, whose value is discarded.
    #[inline]
    pub(crate) fn touch(&mut self, key: K, fresh: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(&key) {
            Some(i) => {
                self.promote(i);
                i
            }
            None => self.admit(key, fresh()),
        };
        &mut self.slots[i as usize].value
    }

    /// The low half of `key`'s hash: the tag its bucket word carries.
    #[inline]
    fn tag(key: &K) -> u64 {
        FastHash::default().hash_one(key) & u64::from(u32::MAX)
    }

    /// The bucket a word's key hashes to, in an index of `mask + 1`.
    #[inline]
    fn home(word: u64, mask: usize) -> usize {
        (word >> 32) as usize & mask
    }

    /// `key`'s slot number, if it is tracked.
    #[inline]
    fn find(&self, key: &K) -> Option<u32> {
        let mask = self.index.len().checked_sub(1)?;
        let tag = Self::tag(key);
        let mut b = tag as usize & mask;
        loop {
            let word = self.index[b];
            if word == EMPTY {
                return None;
            }
            let slot = word as u32;
            if word >> 32 == tag && self.slots[slot as usize].key == *key {
                return Some(slot);
            }
            b = (b + 1) & mask;
        }
    }

    /// Gives an untracked `key` a slot at the most-recent end.
    fn admit(&mut self, key: K, value: V) -> u32 {
        let slot = Slot {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let i = if self.slots.len() < self.capacity {
            assert!(self.slots.len() < NIL as usize, "slot numbers exhausted");
            if 2 * (self.slots.len() + 1) > self.index.len() {
                self.grow();
            }
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        } else {
            let victim = self.tail;
            self.unlink(victim);
            let old = std::mem::replace(&mut self.slots[victim as usize], slot);
            self.remove(&old.key, victim);
            self.evictions += 1;
            victim
        };
        self.place(Self::tag(&key) << 32 | u64::from(i));
        self.push_front(i);
        i
    }

    /// Puts `word` in the first empty bucket from its home on.
    fn place(&mut self, word: u64) {
        let mask = self.index.len() - 1;
        let mut b = Self::home(word, mask);
        while self.index[b] != EMPTY {
            b = (b + 1) & mask;
        }
        self.index[b] = word;
    }

    /// Doubles the index (two buckets to start) and re-places every word
    /// by its tag.
    fn grow(&mut self) {
        let buckets = (2 * self.index.len()).max(2);
        let old = std::mem::replace(&mut self.index, vec![EMPTY; buckets]);
        for word in old.into_iter().filter(|&w| w != EMPTY) {
            self.place(word);
        }
    }

    /// Takes `slot`, which holds `key`, out of the index. Backward-shift
    /// deletion: each later word of the probe run moves into the hole if
    /// its home does not lie between the hole and where it sits, so the
    /// run stays unbroken and no tombstone is ever left.
    fn remove(&mut self, key: &K, slot: u32) {
        let mask = self.index.len() - 1;
        let mut hole = Self::tag(key) as usize & mask;
        while self.index[hole] as u32 != slot {
            hole = (hole + 1) & mask;
        }
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let word = self.index[b];
            if word == EMPTY {
                break;
            }
            if b.wrapping_sub(Self::home(word, mask)) & mask >= b.wrapping_sub(hole) & mask {
                self.index[hole] = word;
                hole = b;
            }
        }
        self.index[hole] = EMPTY;
    }

    /// Every tracked `(key, value)`, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots.iter().map(|s| (s.key, &s.value))
    }

    /// Bytes the index and the slab have reserved (capacity, not
    /// occupancy), excluding anything the values own.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<u64>()
            + self.slots.capacity() * std::mem::size_of::<Slot<K, V>>()
    }

    fn promote(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old = self.head;
        let slot = &mut self.slots[i as usize];
        slot.prev = NIL;
        slot.next = old;
        match old {
            NIL => self.tail = i,
            o => self.slots[o as usize].prev = i,
        }
        self.head = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx::rng::check;
    use stache::BlockAddr;
    use std::cell::Cell;
    use std::collections::{BTreeMap, BTreeSet};

    /// Where each `(slot, key)` sits in the index.
    fn buckets(slab: &LruSlab<BlockAddr, u64>) -> BTreeMap<(u32, BlockAddr), usize> {
        let index = slab.index.iter().enumerate();
        index
            .filter(|&(_, &w)| w != EMPTY)
            .map(|(b, &w)| ((w as u32, slab.slots[w as u32 as usize].key), b))
            .collect()
    }

    /// The slab against a model — a recency list, most recent first, and
    /// a map — at capacities 1–64, on keys strided as one home's blocks
    /// are at 64 and 1 024 nodes, so probe runs collide and wrap. Every
    /// step compares results, the eviction count, the load and the key
    /// set; each case ends by evicting everything in model order. Words
    /// that a deletion shifted back across the index's end are counted:
    /// the property is vacuous without them.
    #[test]
    fn index_matches_a_recency_list_model() {
        let wrapped = Cell::new(0u64);
        check(256, |rng| {
            let capacity = rng.gen_range(1..=64);
            let nodes = [64, 1024][rng.gen_range(0..2)];
            let home = rng.gen_range(0..nodes) as u64;
            let block = |slot: usize| BlockAddr::new((slot as u64 * nodes as u64 + home) * 64);
            let pool = 2 * capacity + rng.gen_range(0..8);
            let mut slab = LruSlab::new(capacity);
            let mut recency: Vec<BlockAddr> = Vec::new();
            let mut model: BTreeMap<BlockAddr, u64> = BTreeMap::new();
            let mut evictions = 0;
            for step in 0..rng.gen_range(1..400) as u64 {
                let key = block(rng.gen_range(0..pool));
                let tracked = recency.iter().position(|&k| k == key);
                let (before, buckets_before) = (buckets(&slab), slab.index.len());
                match rng.gen_range(0..2) {
                    0 => {
                        let got = slab.touch(key, || step);
                        *got += 1000;
                        let got = *got;
                        match tracked {
                            Some(at) => _ = recency.remove(at),
                            None => {
                                if recency.len() == capacity {
                                    let victim = recency.pop().expect("a full model");
                                    model.remove(&victim);
                                    evictions += 1;
                                }
                                model.insert(key, step);
                            }
                        }
                        recency.insert(0, key);
                        let want = model.get_mut(&key).expect("just touched");
                        *want += 1000;
                        assert_eq!(got, *want, "touch {key:?} at step {step}");
                    }
                    _ => assert_eq!(slab.get(&key), model.get(&key), "get {key:?}"),
                }
                assert_eq!(slab.evictions, evictions);
                assert!(2 * slab.len() <= slab.index.len(), "load above one half");
                let keys: BTreeSet<_> = slab.iter().map(|(k, _)| k).collect();
                assert!(
                    keys.iter().eq(model.keys()),
                    "key sets differ at step {step}"
                );
                if slab.index.len() == buckets_before {
                    let after = buckets(&slab);
                    let moved_back = before
                        .iter()
                        .filter(|(w, b)| after.get(w).is_some_and(|a| a > b));
                    wrapped.set(wrapped.get() + moved_back.count() as u64);
                }
            }
            for (k, v) in &model {
                assert_eq!(slab.get(k), Some(v), "{k:?} lost");
            }
            // Fresh keys fill the table, then evict the rest, least
            // recent first.
            let mut fresh = (pool..).map(block);
            while slab.len() < capacity {
                slab.touch(fresh.next().expect("endless"), || 0);
            }
            for (n, victim) in recency.iter().rev().enumerate() {
                slab.touch(fresh.next().expect("endless"), || 0);
                assert_eq!(slab.get(victim), None, "{victim:?} evicted out of order");
                assert_eq!(slab.evictions, evictions + n as u64 + 1);
            }
        });
        assert!(
            wrapped.get() > 0,
            "no deletion shifted a word back across the index's end"
        );
        println!("{} words shifted back across the end", wrapped.get());
    }
}
