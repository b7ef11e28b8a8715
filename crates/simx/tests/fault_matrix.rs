//! Fault-matrix integration coverage: each fault kind in isolation, and
//! all of them together, against a small contended workload. Every cell
//! of the matrix must terminate, pass the full coherence audit, leave no
//! waiter or transaction open, and balance its recovery ledger.

use simx::concurrent::ConcurrentMachine;
use simx::simcheck::contention_plan;
use simx::{FaultPlan, SystemConfig};
use stache::ProtocolConfig;

/// Runs the 4-node, 2-block contention plan a few iterations under the
/// given fault spec and returns the machine for inspection.
fn run_under(spec: &str, seed: u64) -> ConcurrentMachine {
    let proto = ProtocolConfig { nodes: 4 };
    let mut m = ConcurrentMachine::new(proto, SystemConfig::paper());
    let plan = FaultPlan::parse(spec).expect("fault spec").with_seed(seed);
    m.set_fault_plan(plan);
    let workload = contention_plan(4, 2);
    for iter in 0..8 {
        m.run_plan(&workload, iter).expect("faulted run terminates");
    }
    m
}

fn assert_clean(m: &ConcurrentMachine, cell: &str) {
    m.verify_coherence()
        .unwrap_or_else(|e| panic!("{cell}: final audit failed: {e}"));
    assert_eq!(
        m.tally().invariant_failures(),
        0,
        "{cell}: invariant failures recorded"
    );
    assert_eq!(m.open_transactions(), 0, "{cell}: transaction left open");
    assert!(
        m.waiting_nodes().is_empty(),
        "{cell}: waiter left stranded: {:?}",
        m.waiting_nodes()
    );
    let r = m.recovery_tally();
    assert!(
        r.naks_received <= r.naks_sent,
        "{cell}: more NAKs received ({}) than sent ({})",
        r.naks_received,
        r.naks_sent
    );
}

#[test]
fn dropped_messages_recover_cleanly() {
    let m = run_under("drop=0.05", 11);
    assert_clean(&m, "drop");
    let r = m.recovery_tally();
    assert!(
        r.timeouts > 0 && r.retries > 0,
        "a 5% drop rate over 8 iterations must exercise the retry path \
         (timeouts={}, retries={})",
        r.timeouts,
        r.retries
    );
}

#[test]
fn duplicated_messages_are_absorbed() {
    let m = run_under("dup=0.05", 12);
    assert_clean(&m, "dup");
    assert!(
        m.recovery_tally().dups_absorbed > 0,
        "a 5% duplication rate must hit the dedup filter"
    );
}

#[test]
fn reordered_messages_stay_coherent() {
    let m = run_under("reorder=4", 13);
    assert_clean(&m, "reorder");
}

#[test]
fn latency_spikes_stay_coherent() {
    let m = run_under("spike=0.2,spike_ns=500", 14);
    assert_clean(&m, "spike");
}

#[test]
fn the_full_storm_terminates_with_a_balanced_ledger() {
    let m = run_under("drop=0.05,dup=0.05,reorder=4,spike=0.2,spike_ns=500", 15);
    assert_clean(&m, "storm");
    assert!(
        !m.recovery_tally().is_quiet(),
        "the combined fault storm must trigger recovery at least once"
    );
}

#[test]
fn fault_runs_are_deterministic_per_seed() {
    let run = |seed| {
        let m = run_under("drop=0.03,dup=0.02,reorder=2", seed);
        let r = m.recovery_tally();
        (r.timeouts, r.retries, r.naks_sent, r.dups_absorbed)
    };
    assert_eq!(run(42), run(42), "same seed, same recovery history");
}
