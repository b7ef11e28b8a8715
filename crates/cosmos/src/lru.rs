//! A capacity-bounded table with least-recently-used replacement.
//!
//! §3.7 bounds the predictor twice — the first-level table merged with
//! finite cache state, and a "common pool" of overflow PHT entries — and
//! both are this structure: [`CosmosPredictor`](crate::CosmosPredictor)'s
//! bounded MHT and [`PreallocCosmos`](crate::PreallocCosmos)'s pool.

use crate::fasthash::FastMap;
use std::hash::Hash;

/// "No slot": the end of the recency list.
const NIL: u32 = u32::MAX;

/// One tracked key: its value and its recency-list links.
#[derive(Debug, Clone)]
struct Slot<K, V> {
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
/// An index from key to slot number plus a slab of slots; recency is a
/// doubly-linked list of slot numbers (`head` = most recent, `tail` =
/// victim). A hit costs one hash probe, a full table evicts in O(1) and
/// reuses the victim's slot in place, and the hash buckets hold 16 bytes
/// instead of the whole value. The slab grows with the keys actually
/// seen, never to `capacity` up front: a wide run builds thousands of
/// agents that each see a few hundred blocks.
#[derive(Debug, Clone)]
pub(crate) struct LruSlab<K, V> {
    capacity: usize,
    index: FastMap<K, u32>,
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
            index: FastMap::default(),
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
        Some(&self.slots[*self.index.get(key)? as usize].value)
    }

    /// `key`'s value if it is tracked, made the most recent.
    #[inline]
    pub(crate) fn hit(&mut self, key: &K) -> Option<&mut V> {
        let i = *self.index.get(key)?;
        self.promote(i);
        Some(&mut self.slots[i as usize].value)
    }

    /// `key`'s value, made the most recent; an untracked key gets
    /// `fresh()` in a new slot while the table has room, else in the
    /// least recent key's slot, whose value is discarded.
    #[inline]
    pub(crate) fn touch(&mut self, key: K, fresh: impl FnOnce() -> V) -> &mut V {
        let i = match self.index.get(&key) {
            Some(&i) => {
                self.promote(i);
                i
            }
            None => self.admit(key, fresh()),
        };
        &mut self.slots[i as usize].value
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
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        } else {
            let victim = self.tail;
            self.unlink(victim);
            let old = std::mem::replace(&mut self.slots[victim as usize], slot);
            self.index.remove(&old.key);
            self.evictions += 1;
            victim
        };
        self.index.insert(key, i);
        self.push_front(i);
        i
    }

    /// Every tracked `(key, value)`, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots.iter().map(|s| (s.key, &s.value))
    }

    /// Bytes the index and the slab have reserved (capacity, not
    /// occupancy), excluding anything the values own.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<(K, u32)>()
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
