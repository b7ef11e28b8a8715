//! A deterministic discrete-event queue: a binary heap on `(time, seq)`.
//!
//! Events are totally ordered by `(time, seq)` where `seq` is an
//! insertion counter, so events at equal times pop in FIFO order —
//! determinism matters because traces (and therefore every reported
//! accuracy) must be reproducible run-to-run.
//!
//! The queue serves [`ConcurrentMachine`](crate::ConcurrentMachine)
//! (16–64 nodes, a few dozen events in flight) and the processor
//! interleave in [`driver`](crate::driver) (one entry per node);
//! thousand-node runs go through [`shard`](crate::shard)'s own heaps. At
//! those sizes `std`'s heap is both the least code and the fastest thing
//! measured (DESIGN.md §6h).
//!
//! The simcheck model checker additionally needs a *ranked* view of the
//! pending set ([`EventQueue::iter_ranked`]) and forced out-of-order
//! removal ([`EventQueue::remove_rank`]); both sort the pending set
//! (`O(n log n)`) and are explicitly off the simulation fast path.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A deterministic time-ordered event queue.
///
/// ```
/// use simx::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(20, "late");
/// q.push(10, "early");
/// q.push(10, "early-second");
/// assert_eq!(q.pop(), Some((10, "early")));
/// assert_eq!(q.pop(), Some((10, "early-second")));
/// assert_eq!(q.pop(), Some((20, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    depth: obs::Histogram,
}

/// A pending event. Ordered by `(time, seq)` *reversed*, so the max-heap
/// surfaces the earliest entry; the payload takes no part in the order.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    fn rank(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank().cmp(&self.rank())
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            depth: obs::Histogram::new(),
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: u64, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, payload });
        self.depth.record(self.heap.len() as u64);
    }

    /// Pops the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Distribution of queue depth sampled after every push — how much
    /// in-flight work the simulated machine sustains.
    pub fn depth_histogram(&self) -> &obs::Histogram {
        &self.depth
    }

    /// The pending entries sorted into pop order.
    fn ranked(&self) -> Vec<&Entry<T>> {
        let mut ranked: Vec<&Entry<T>> = self.heap.iter().collect();
        ranked.sort_unstable_by_key(|e| e.rank());
        ranked
    }

    /// Visits every pending event in deterministic pop order.
    pub fn for_each_ranked(&self, mut f: impl FnMut(u64, &T)) {
        for e in self.ranked() {
            f(e.time, &e.payload);
        }
    }

    /// The pending events in deterministic pop order — rank 0 is what
    /// [`pop`](Self::pop) would return next, ties broken FIFO. This is
    /// the enumeration surface the `simcheck` model checker branches on.
    pub fn iter_ranked(&self) -> Vec<(u64, &T)> {
        let ranked = self.ranked();
        ranked.into_iter().map(|e| (e.time, &e.payload)).collect()
    }

    /// Removes and returns the `rank`-th pending event in the
    /// [`iter_ranked`](Self::iter_ranked) order (`remove_rank(0)` is
    /// `pop`), or `None` if `rank` is out of range.
    ///
    /// Sorts and rebuilds the heap for `rank > 0`; intended for the model
    /// checker's forced delivery orders, not the simulation fast path.
    pub fn remove_rank(&mut self, rank: usize) -> Option<(u64, T)> {
        if rank >= self.heap.len() {
            return None;
        }
        if rank == 0 {
            return self.pop();
        }
        // Ascending by `Ord` is descending by `(time, seq)`: pop order
        // read from the back.
        let mut entries = std::mem::take(&mut self.heap).into_sorted_vec();
        let e = entries.remove(entries.len() - 1 - rank);
        self.heap = entries.into();
        Some((e.time, e.payload))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(5, 'c');
        q.push(1, 'a');
        q.push(3, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn depth_histogram_samples_every_push() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.push(2, ());
        q.pop();
        q.push(3, ());
        let d = q.depth_histogram();
        assert_eq!(d.count(), 3);
        assert_eq!(d.max(), 2);
        assert_eq!(d.min(), 1);
    }

    #[test]
    fn ranked_view_matches_pop_order() {
        let mut q = EventQueue::new();
        q.push(5, 'c');
        q.push(1, 'a');
        q.push(1, 'b');
        let ranked: Vec<(u64, char)> = q.iter_ranked().iter().map(|&(t, &p)| (t, p)).collect();
        assert_eq!(ranked, vec![(1, 'a'), (1, 'b'), (5, 'c')]);
        let popped: Vec<(u64, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(ranked, popped);
    }

    #[test]
    fn remove_rank_forces_out_of_order_delivery() {
        let mut q = EventQueue::new();
        q.push(1, 'a');
        q.push(2, 'b');
        q.push(3, 'c');
        assert_eq!(q.remove_rank(1), Some((2, 'b')));
        assert_eq!(q.len(), 2);
        // The remaining order is preserved across the removal.
        assert_eq!(q.remove_rank(0), Some((1, 'a')));
        assert_eq!(q.remove_rank(5), None, "out of range");
        assert_eq!(q.remove_rank(0), Some((3, 'c')));
        assert_eq!(q.remove_rank(0), None);
    }

    #[test]
    fn remove_rank_keeps_fifo_ties_stable() {
        let mut q = EventQueue::new();
        for i in 0..6 {
            q.push(7, i);
        }
        assert_eq!(q.remove_rank(3), Some((7, 3)));
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(rest, vec![0, 1, 2, 4, 5]);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(9, ());
        assert_eq!(q.peek_time(), Some(9));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_tracks_simulation_shape() {
        // A DES-shaped load: pop the head, schedule a couple of
        // follow-ups slightly in the future, repeat. Times must come
        // out non-decreasing and FIFO among ties.
        let mut q = EventQueue::new();
        for n in 0..8u64 {
            q.push(n * 100, n);
        }
        let mut last = (0u64, 0u64);
        let mut popped = 0usize;
        let mut spawned = 8u64;
        while let Some((t, id)) = q.pop() {
            assert!((t, id) >= last || popped == 0, "non-monotonic pop");
            last = (t, id);
            popped += 1;
            if spawned < 600 {
                q.push(t + 160, spawned);
                spawned += 1;
                q.push(t + 100, spawned);
                spawned += 1;
            }
        }
        assert_eq!(popped, 600);
    }

    #[test]
    fn for_each_ranked_matches_iter_ranked() {
        let mut q = EventQueue::new();
        for i in 0..40u64 {
            q.push((i * 37) % 11, i);
        }
        q.pop();
        let via_iter: Vec<(u64, u64)> = q.iter_ranked().iter().map(|&(t, &p)| (t, p)).collect();
        let mut via_for_each = Vec::new();
        q.for_each_ranked(|t, &p| via_for_each.push((t, p)));
        assert_eq!(via_iter, via_for_each);
    }

    #[test]
    fn sparse_far_future_events_still_pop_in_order() {
        // Widely separated times force the direct-search fallback.
        let mut q = EventQueue::new();
        let times = [5u64, 1 << 40, 3, 1 << 20, 7, (1 << 40) + 1];
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(popped, sorted);
    }

    // ---- differential check against a plainly-correct sorted vector ----

    /// The ordering oracle: every pending `(time, seq, payload)` in a
    /// `Vec` kept sorted, so the head is `v[0]` and rank `r` is `v[r]`.
    struct SortedOracle {
        pending: Vec<(u64, u64, u64)>,
        seq: u64,
        /// Queue depth after every push: count, min, max.
        depth: (u64, u64, u64),
    }

    impl SortedOracle {
        fn new() -> Self {
            SortedOracle {
                pending: Vec::new(),
                seq: 0,
                depth: (0, u64::MAX, 0),
            }
        }
        fn push(&mut self, time: u64, payload: u64) {
            let at = self
                .pending
                .partition_point(|&(t, q, _)| (t, q) < (time, self.seq));
            self.pending.insert(at, (time, self.seq, payload));
            self.seq += 1;
            let len = self.pending.len() as u64;
            let (n, lo, hi) = self.depth;
            self.depth = (n + 1, lo.min(len), hi.max(len));
        }
        fn remove_rank(&mut self, rank: usize) -> Option<(u64, u64)> {
            (rank < self.pending.len()).then(|| {
                let (t, _, p) = self.pending.remove(rank);
                (t, p)
            })
        }
        fn pop(&mut self) -> Option<(u64, u64)> {
            self.remove_rank(0)
        }
        fn peek_time(&self) -> Option<u64> {
            self.pending.first().map(|&(t, _, _)| t)
        }
    }

    /// xorshift64* — deterministic, dependency-free randomness.
    fn rng_next(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn differential_random_interleavings_match_heap_oracle() {
        for seed in 1..=20u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut q = EventQueue::new();
            let mut oracle = SortedOracle::new();
            // Time of the last event popped; most pushes land at or after
            // it, some deliberately before.
            let mut now = 0u64;
            for step in 0..2_000u64 {
                match rng_next(&mut state) % 12 {
                    // Pushes dominate so the queue grows to a few hundred
                    // entries; time scales are mixed to exercise ties,
                    // near-future and far-future events.
                    0..=5 => {
                        let dt = match rng_next(&mut state) % 5 {
                            0 => 0,
                            1 => rng_next(&mut state) % 8,
                            2 => rng_next(&mut state) % 500,
                            3 => rng_next(&mut state) % 100_000,
                            _ => rng_next(&mut state) % (1 << 30),
                        };
                        q.push(now + dt, step);
                        oracle.push(now + dt, step);
                    }
                    // A push earlier than the last popped time (simcheck's
                    // forced orders and reorder faults both do this): it
                    // must become the new head.
                    6 => {
                        let t = now - rng_next(&mut state) % (now + 1);
                        q.push(t, step);
                        oracle.push(t, step);
                    }
                    7..=9 => {
                        let a = q.pop();
                        assert_eq!(a, oracle.pop(), "pop diverged (seed {seed}, step {step})");
                        if let Some((t, _)) = a {
                            now = t;
                        }
                    }
                    10 => assert_eq!(
                        q.peek_time(),
                        oracle.peek_time(),
                        "peek_time diverged (seed {seed}, step {step})"
                    ),
                    _ => {
                        let rank = if q.is_empty() {
                            0
                        } else {
                            (rng_next(&mut state) as usize) % (q.len() + 1)
                        };
                        let a = q.remove_rank(rank);
                        let b = oracle.remove_rank(rank);
                        assert_eq!(a, b, "remove_rank diverged (seed {seed}, step {step})");
                        if let Some((t, _)) = a {
                            now = now.max(t);
                        }
                    }
                }
                assert_eq!(q.len(), oracle.pending.len());
            }
            let ranked: Vec<(u64, u64)> = q.iter_ranked().iter().map(|&(t, &p)| (t, p)).collect();
            let expect: Vec<(u64, u64)> = oracle.pending.iter().map(|&(t, _, p)| (t, p)).collect();
            assert_eq!(ranked, expect, "ranked view diverged (seed {seed})");
            let d = q.depth_histogram();
            assert_eq!(
                (d.count(), d.min(), d.max()),
                oracle.depth,
                "depth samples diverged (seed {seed})"
            );
            // Drain both completely.
            loop {
                let (a, b) = (q.pop(), oracle.pop());
                assert_eq!(a, b, "drain diverged (seed {seed})");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
