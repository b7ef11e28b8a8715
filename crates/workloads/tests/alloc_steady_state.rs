//! Heap allocations per message, counted (DESIGN.md §6h).
//!
//! The event engines' per-event work is meant to be allocation-free once
//! warm: ranks are fixed-width, sharer sets and a block's copies live
//! inline, transaction slots, window logs, the window batch and the
//! resolve and replay scratch are reused. What may still allocate is
//! amortised — a table doubling, the trace buffer growing, one fresh
//! buffer per drained iteration — hence a small budget rather than zero.
//! This binary installs a counting allocator (std only, this test binary
//! only) and measures each engine over the iterations that follow a
//! warm-up.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running beside this one would be counted too. Shards 2 is left
//! out on purpose as well: `thread::scope` allocates per spawn per window
//! until shard workers persist.

use simx::{ConcurrentMachine, IterationPlan, ShardedMachine, SystemConfig};
use stache::ProtocolConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::{Appbt, Scale, Workload};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter is a side effect
// that touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The budget: amortised growth only, nothing per event.
const MAX_ALLOCS_PER_MSG: f64 = 0.05;

/// Runs `iterations` plans of `w` through `step` (which returns the
/// messages it delivered) and returns the allocations and messages of the
/// iterations from `warm_up` on. Plan generation is outside the count.
fn measure(
    w: &mut dyn Workload,
    warm_up: u32,
    iterations: u32,
    mut step: impl FnMut(&IterationPlan, u32) -> u64,
) -> (u64, u64) {
    let (mut allocs, mut msgs) = (0, 0);
    for it in 0..iterations {
        let plan = w.plan(it);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let delivered = step(&plan, it);
        if it >= warm_up {
            allocs += ALLOCATIONS.load(Ordering::Relaxed) - before;
            msgs += delivered;
        }
    }
    (allocs, msgs)
}

fn check(cell: &str, (allocs, msgs): (u64, u64)) {
    let per_msg = allocs as f64 / msgs as f64;
    println!("{cell}: {allocs} allocations / {msgs} messages = {per_msg:.4} per message");
    assert!(msgs > 10_000, "{cell}: too few messages to judge ({msgs})");
    assert!(
        per_msg <= MAX_ALLOCS_PER_MSG,
        "{cell}: {per_msg:.4} allocations per message"
    );
}

/// The sharded engine at shards 1, drained every iteration as the
/// benchmark's streaming cells drain it.
fn sharded(mut w: Scale, warm_up: u32) -> (u64, u64) {
    let iterations = w.iterations();
    let mut m = ShardedMachine::new(w.proto(), SystemConfig::paper(), 1);
    measure(&mut w, warm_up, iterations, |plan, it| {
        m.run_plan(plan, it).expect("scale runs clean");
        m.drain_trace_records().len() as u64
    })
}

#[test]
fn steady_state_allocates_next_to_nothing_per_message() {
    // ConcurrentMachine, paper configuration, barrier audits on.
    let mut appbt = Appbt::default();
    let iterations = appbt.iterations();
    let mut m = ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
    let mut seen = 0;
    let counted = measure(&mut appbt, iterations / 2, iterations, |plan, it| {
        m.run_plan(plan, it).expect("appbt runs clean");
        let delivered = m.trace().len() as u64 - seen;
        seen += delivered;
        delivered
    });
    check("concurrent appbt", counted);

    check("sharded(1) scale 64", sharded(Scale::new(64, 0, 400), 200));
    check(
        "sharded(1) scale 1024",
        sharded(Scale::new(1024, 16, 24), 12),
    );
}
