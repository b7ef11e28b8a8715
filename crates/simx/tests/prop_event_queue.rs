//! Property tests: `EventQueue` against an independent binary-heap
//! oracle (payload-ordered `Reverse` tuples, rank removal by full sort)
//! on arbitrary push/pop/remove_rank interleavings. Since the queue is
//! itself a `(time, seq)` binary heap this checks the wrapper — sequence
//! numbering, FIFO ties, rank removal — rather than a second structure.
//!
//! The differential with fixed xorshift seeds against a sorted-`Vec`
//! oracle lives in `crates/simx/src/event.rs`
//! (`differential_random_interleavings_match_heap_oracle`); this file
//! widens it to seeded cases on the in-house generator
//! (`simx::rng::check`).

use simx::rng::check;
use simx::EventQueue;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

struct Oracle {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl Oracle {
    fn remove_rank(&mut self, rank: usize) -> Option<(u64, u32)> {
        if rank >= self.heap.len() {
            return None;
        }
        let mut entries: Vec<(u64, u64, u32)> = std::mem::take(&mut self.heap)
            .into_iter()
            .map(|Reverse(e)| e)
            .collect();
        entries.sort_unstable();
        let (t, _, p) = entries.remove(rank);
        self.heap = entries.into_iter().map(Reverse).collect();
        Some((t, p))
    }
}

/// Every operation returns exactly what the heap oracle returns, and the
/// ranked view always equals the oracle's sorted order.
#[test]
fn calendar_queue_matches_heap_oracle() {
    check(256, |rng| {
        let mut cal = EventQueue::new();
        let mut oracle = Oracle {
            heap: BinaryHeap::new(),
            seq: 0,
        };
        for i in 0..rng.gen_range(0..400) as u32 {
            // Weights 4 : 2 : 2 : 1 — wide pushes, dense small times
            // (which force FIFO tie-breaking), pops, rank removals.
            match rng.gen_range(0..9) {
                op @ 0..=5 => {
                    let t = rng.gen() % if op < 4 { 1 << 34 } else { 16 };
                    cal.push(t, i);
                    oracle.heap.push(Reverse((t, oracle.seq, i)));
                    oracle.seq += 1;
                }
                6 | 7 => {
                    let want = oracle.heap.pop().map(|Reverse((t, _, p))| (t, p));
                    assert_eq!(cal.pop(), want);
                }
                _ => {
                    // In range, or one past the end (must be `None`).
                    let r = rng.gen_range(0..=oracle.heap.len());
                    assert_eq!(cal.remove_rank(r), oracle.remove_rank(r));
                }
            }
            assert_eq!(cal.len(), oracle.heap.len());
            assert_eq!(cal.peek_time(), oracle.heap.peek().map(|r| r.0 .0));
        }
        let ranked: Vec<(u64, u32)> = cal.iter_ranked().iter().map(|&(t, &p)| (t, p)).collect();
        let mut want: Vec<(u64, u64, u32)> = oracle.heap.iter().map(|r| r.0).collect();
        want.sort_unstable();
        let want: Vec<(u64, u32)> = want.into_iter().map(|(t, _, p)| (t, p)).collect();
        assert_eq!(ranked, want);
    });
}
