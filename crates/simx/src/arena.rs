//! A generational slab arena for message-rate allocations.
//!
//! The sharded engine (DESIGN.md §6h) turns over hundreds of thousands
//! of small objects per simulated window — in-flight messages, window
//! log entries, outbox batches. Allocating each from the global heap
//! (the `Box`/clone churn of the serialized engines) costs an
//! allocator round-trip and scatters them across the address space;
//! this arena keeps them in one contiguous `Vec`, recycles slots
//! through a free list, and brands every handle with a *generation* so
//! a stale handle held past a free is a caught bug, not a silent read
//! of unrelated data.
//!
//! Handles are 8 bytes (`u32` slot + `u32` generation) — `Copy`,
//! comparable, and safe to stash in queues and logs.

/// A handle into an [`Arena`]: slot index plus the generation the slot
/// had when allocated. Stale handles (outlived by a [`Arena::free`]) no
/// longer resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArenaId {
    slot: u32,
    generation: u32,
}

impl ArenaId {
    /// Slot index — stable for the lifetime of the allocation, useful
    /// as a dense map key.
    pub fn slot(&self) -> u32 {
        self.slot
    }
}

#[derive(Debug)]
enum Slot<T> {
    /// Live value, allocated at this generation.
    Full { generation: u32, value: T },
    /// Free slot; `next_free` chains the free list. The generation is
    /// what the *next* allocation of this slot will carry.
    Empty {
        generation: u32,
        next_free: Option<u32>,
    },
}

/// A generational slab: O(1) alloc/free/lookup, slot reuse through a
/// free list.
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free_head: Option<u32>,
    live: usize,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free_head: None,
            live: 0,
        }
    }

    /// An empty arena with room for `cap` values before any reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(cap),
            free_head: None,
            live: 0,
        }
    }

    /// Number of live allocations.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no allocations are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots owned (live + recyclable) — the high-water mark of
    /// concurrent allocations.
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
    }

    /// Stores `value`, reusing a freed slot if one is available.
    pub fn alloc(&mut self, value: T) -> ArenaId {
        self.live += 1;
        match self.free_head {
            Some(slot) => {
                let (generation, next_free) = match self.slots[slot as usize] {
                    Slot::Empty {
                        generation,
                        next_free,
                    } => (generation, next_free),
                    Slot::Full { .. } => unreachable!("free list points at a live slot"),
                };
                self.free_head = next_free;
                self.slots[slot as usize] = Slot::Full { generation, value };
                ArenaId { slot, generation }
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots");
                self.slots.push(Slot::Full {
                    generation: 0,
                    value,
                });
                ArenaId {
                    slot,
                    generation: 0,
                }
            }
        }
    }

    /// The value behind `id`, or `None` if it was freed.
    pub fn get(&self, id: ArenaId) -> Option<&T> {
        match self.slots.get(id.slot as usize) {
            Some(Slot::Full { generation, value }) if *generation == id.generation => Some(value),
            _ => None,
        }
    }

    /// Mutable access to the value behind `id`, if still live.
    pub fn get_mut(&mut self, id: ArenaId) -> Option<&mut T> {
        match self.slots.get_mut(id.slot as usize) {
            Some(Slot::Full { generation, value }) if *generation == id.generation => Some(value),
            _ => None,
        }
    }

    /// Frees `id`, returning its value; the slot's generation bumps so
    /// the stale handle stops resolving. Freeing twice is a no-op.
    pub fn free(&mut self, id: ArenaId) -> Option<T> {
        match self.slots.get_mut(id.slot as usize) {
            Some(slot @ Slot::Full { .. }) => {
                let generation = match slot {
                    Slot::Full { generation, .. } => *generation,
                    Slot::Empty { .. } => unreachable!(),
                };
                if generation != id.generation {
                    return None;
                }
                let old = std::mem::replace(
                    slot,
                    Slot::Empty {
                        generation: generation.wrapping_add(1),
                        next_free: self.free_head,
                    },
                );
                self.free_head = Some(id.slot);
                self.live -= 1;
                match old {
                    Slot::Full { value, .. } => Some(value),
                    Slot::Empty { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Visits every live `(id, value)` pair in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (ArenaId, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Full { generation, value } => Some((
                ArenaId {
                    slot: i as u32,
                    generation: *generation,
                },
                value,
            )),
            Slot::Empty { .. } => None,
        })
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_free_roundtrip() {
        let mut a = Arena::new();
        let x = a.alloc("x");
        let y = a.alloc("y");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(x), Some(&"x"));
        assert_eq!(a.get(y), Some(&"y"));
        assert_eq!(a.free(x), Some("x"));
        assert_eq!(a.get(x), None, "freed handle is stale");
        assert_eq!(a.free(x), None, "double free is a no-op");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn slots_are_reused_with_fresh_generations() {
        let mut a = Arena::new();
        let x = a.alloc(1u32);
        a.free(x);
        let y = a.alloc(2u32);
        assert_eq!(y.slot(), x.slot(), "freed slot is reused");
        assert_ne!(x, y, "generation differs");
        assert_eq!(a.get(x), None);
        assert_eq!(a.get(y), Some(&2));
        assert_eq!(a.capacity_slots(), 1, "no growth past the high-water mark");
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut a = Arena::new();
        let id = a.alloc(vec![1, 2]);
        a.get_mut(id).unwrap().push(3);
        assert_eq!(a.get(id), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn iter_visits_live_only() {
        let mut a = Arena::new();
        let x = a.alloc('x');
        let y = a.alloc('y');
        let z = a.alloc('z');
        a.free(y);
        let seen: Vec<char> = a.iter().map(|(_, &v)| v).collect();
        assert_eq!(seen, vec!['x', 'z']);
        assert_eq!(a.iter().next().unwrap().0, x);
        let _ = z;
    }
}
