//! Property tests: `EventQueue` against an independent binary-heap
//! oracle (payload-ordered `Reverse` tuples, rank removal by full sort)
//! on arbitrary push/pop/remove_rank interleavings. Since the queue is
//! itself a `(time, seq)` binary heap this checks the wrapper — sequence
//! numbering, FIFO ties, rank removal — rather than a second structure.
//!
//! The always-on differential with fixed xorshift seeds, against a
//! sorted-`Vec` oracle, lives in `crates/simx/src/event.rs`
//! (`differential_random_interleavings_match_heap_oracle`);
//! this file widens it to proptest-generated interleavings and is
//! feature-gated per the workspace's zero-external-dependency policy
//! (see TESTING.md §2 — any shrunk counterexample proptest saves must
//! be promoted to a named seed test in `regression_seeds.rs`).

#![cfg(feature = "proptest-tests")]
use proptest::prelude::*;
use simx::EventQueue;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    Pop,
    RemoveRank(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..1 << 34).prop_map(Op::Push),
        // Dense small times force FIFO tie-breaking through the
        // calendar's bucket min-scan.
        2 => (0u64..16).prop_map(Op::Push),
        2 => Just(Op::Pop),
        1 => any::<usize>().prop_map(Op::RemoveRank),
    ]
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every operation returns exactly what the heap oracle returns,
    /// and the ranked view always equals the oracle's sorted order.
    #[test]
    fn calendar_queue_matches_heap_oracle(ops in prop::collection::vec(op_strategy(), 0..400)) {
        let mut cal = EventQueue::new();
        let mut oracle = Oracle { heap: BinaryHeap::new(), seq: 0 };
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Push(t) => {
                    cal.push(t, i as u32);
                    oracle.heap.push(Reverse((t, oracle.seq, i as u32)));
                    oracle.seq += 1;
                }
                Op::Pop => {
                    let got = cal.pop();
                    let want = oracle.heap.pop().map(|Reverse((t, _, p))| (t, p));
                    prop_assert_eq!(got, want);
                }
                Op::RemoveRank(r) => {
                    let r = if oracle.heap.is_empty() { r } else { r % (oracle.heap.len() + 1) };
                    prop_assert_eq!(cal.remove_rank(r), oracle.remove_rank(r));
                }
            }
            prop_assert_eq!(cal.len(), oracle.heap.len());
            prop_assert_eq!(cal.peek_time(), oracle.heap.peek().map(|r| r.0 .0));
        }
        let ranked: Vec<(u64, u32)> = cal.iter_ranked().iter().map(|&(t, &p)| (t, p)).collect();
        let mut want: Vec<(u64, u64, u32)> = oracle.heap.iter().map(|r| r.0).collect();
        want.sort_unstable();
        let want: Vec<(u64, u32)> = want.into_iter().map(|(t, _, p)| (t, p)).collect();
        prop_assert_eq!(ranked, want);
    }
}
