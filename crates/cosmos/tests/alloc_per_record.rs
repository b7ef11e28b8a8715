//! Heap allocations per scored record, counted.
//!
//! A bounded fleet scoring a cold stream is meant to allocate nothing per
//! record once warm: a block's state lives in its agent's slab slot, the
//! slab's index is a vector of words, and a block that reaches an agent
//! once never gets a PHT. What may still allocate is amortised — a slab,
//! an index or a `prev_type` set doubling — hence a small budget rather
//! than zero. A hot fleet allocates per PHT, and a boxed PHT is one
//! allocation more than an inline map; that figure is printed, not
//! bounded. This binary installs a counting allocator (std only, this
//! test binary only) and counts around the scoring calls alone: the
//! streams are generated before counting starts.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running beside this one would be counted too.

use cosmos::{CosmosPredictor, EvalOptions, EvictingCosmos, MessagePredictor, StreamEval};
use simx::{ShardedMachine, SystemConfig};
use stache::ProtocolConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use trace::MsgRecord;
use workloads::{run_to_trace, Appbt, Scale, Workload};

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

/// The budget: amortised growth only, nothing per record.
const MAX_ALLOCS_PER_RECORD: f64 = 0.05;

/// Each iteration's records of a `Scale` run on the sharded engine,
/// drained as the benchmark's streaming cells drain them.
fn scale_stream(mut w: Scale) -> Vec<Vec<MsgRecord>> {
    let mut m = ShardedMachine::new(w.proto(), SystemConfig::paper(), 1);
    (0..w.iterations())
        .map(|it| {
            m.run_plan(&w.plan(it), it).expect("scale runs clean");
            m.drain_trace_records()
        })
        .collect()
}

/// Scores `chunks` through a fleet of `agent()`s and returns the
/// allocations and records of the chunks from `warm_up` on.
fn measure(
    chunks: &[Vec<MsgRecord>],
    warm_up: usize,
    agent: fn() -> Box<dyn MessagePredictor>,
) -> (u64, u64) {
    let mut eval = StreamEval::new(EvalOptions::default(), |_, _| agent());
    let (mut allocs, mut records) = (0, 0);
    for (i, chunk) in chunks.iter().enumerate() {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        eval.push_all(chunk);
        if i >= warm_up {
            allocs += ALLOCATIONS.load(Ordering::Relaxed) - before;
            records += chunk.len() as u64;
        }
    }
    (allocs, records)
}

fn per_record(cell: &str, (allocs, records): (u64, u64)) -> f64 {
    let per = allocs as f64 / records as f64;
    println!("{cell}: {allocs} allocations / {records} records = {per:.4} per record");
    per
}

#[test]
fn a_cold_bounded_fleet_allocates_next_to_nothing_per_record() {
    let cold = scale_stream(Scale::new(64, 0, 600));
    let (allocs, records) = measure(&cold, 300, || {
        Box::new(EvictingCosmos::new(2, 0, 8192)) as Box<dyn MessagePredictor>
    });
    assert!(records > 10_000, "too few records to judge ({records})");
    let per = per_record("evicting(2, 0, 8192) scale 64", (allocs, records));
    assert!(
        per <= MAX_ALLOCS_PER_RECORD,
        "{per:.4} allocations per cold record"
    );

    // Hot tables, counted from the first record: every PHT is a box and
    // a map, and the maps grow.
    let trace = run_to_trace(
        &mut Appbt::default(),
        ProtocolConfig::paper(),
        SystemConfig::paper(),
    )
    .expect("appbt runs clean");
    let chunks: Vec<Vec<MsgRecord>> = trace.records().chunks(4096).map(<[_]>::to_vec).collect();
    per_record(
        "cosmos(1, 0) appbt",
        measure(&chunks, 0, || {
            Box::new(CosmosPredictor::new(1, 0)) as Box<dyn MessagePredictor>
        }),
    );
}
