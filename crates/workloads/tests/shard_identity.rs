//! Byte-identity of the sharded engine (DESIGN.md §6h).
//!
//! Two pinned properties:
//!
//! 1. **Shard-count invariance** — for every workload and every shard
//!    count `k`, `ShardedMachine` output (trace, stats, tallies, full obs
//!    snapshot JSON) is byte-identical to the `shards = 1` sequential
//!    fallback. Partitioning is an execution strategy, never a semantics
//!    change.
//!
//! 2. **Engine equivalence** — on the clean fabric the sharded engine
//!    reproduces the `ConcurrentMachine` exactly: same trace records,
//!    same statistics, the same set of touched blocks (so the resolve
//!    stage, which creates directory entries ahead of their handlers,
//!    created none a handler did not) with the same final cache/directory
//!    states, and an obs snapshot that agrees on every metric the
//!    concurrent engine exports (the sharded snapshot adds only its own
//!    `simx.shard.*` keys). Checked on the paper's configuration at shards
//!    1, 2 and 4, and at two non-paper network latencies at shards 1
//!    and 3.

use simx::{ConcurrentMachine, ShardedMachine, SystemConfig};
use stache::ProtocolConfig;
use workloads::{drive, run_sharded, small_suite, Workload};

fn concurrent_run(w: &mut dyn Workload) -> ConcurrentMachine {
    let mut m = ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
    drive(&mut m, w).unwrap_or_else(|e| panic!("{} concurrent run failed: {e}", w.name()));
    m
}

fn sharded_run(w: &mut dyn Workload, shards: usize) -> ShardedMachine {
    let name = w.name();
    run_sharded(w, ProtocolConfig::paper(), SystemConfig::paper(), shards)
        .unwrap_or_else(|e| panic!("{name} sharded({shards}) run failed: {e}"))
}

/// Every shard count produces the same snapshot JSON, byte for byte.
#[test]
fn shard_count_never_changes_output() {
    for k in [2, 4, 7, 16] {
        for (mut base, mut multi) in small_suite().into_iter().zip(small_suite()) {
            let name = base.name();
            let one = sharded_run(base.as_mut(), 1);
            let many = sharded_run(multi.as_mut(), k);
            assert_eq!(
                one.obs_snapshot().to_json(),
                many.obs_snapshot().to_json(),
                "{name}: obs snapshot diverges at {k} shards"
            );
            assert_eq!(
                one.trace().records(),
                many.trace().records(),
                "{name}: trace diverges at {k} shards"
            );
            assert_eq!(
                one.execution_time_ns(),
                many.execution_time_ns(),
                "{name}: execution time diverges at {k} shards"
            );
        }
    }
}

/// Everything both engines expose, compared.
fn assert_same_run(name: &str, conc: &ConcurrentMachine, shar: &ShardedMachine) {
    assert_eq!(
        conc.trace().records(),
        shar.trace().records(),
        "{name}: trace records differ"
    );
    assert_eq!(conc.stats(), &shar.stats(), "{name}: stats differ");
    assert_eq!(
        conc.execution_time_ns(),
        shar.execution_time_ns(),
        "{name}: execution time differs"
    );

    // The sharded snapshot is a superset: every metric the
    // concurrent engine exports appears with an identical value.
    let csnap = conc.obs_snapshot();
    let ssnap = shar.obs_snapshot();
    for key in csnap.names() {
        assert_eq!(
            csnap.get(&key),
            ssnap.get(&key),
            "{name}: snapshot metric {key} differs"
        );
    }

    // Final protocol state: the same blocks touched — an entry the
    // sharded engine's resolve stage created and no handler used would
    // show here — and identical per-block cache and directory pictures.
    let touched = conc.touched_blocks();
    assert_eq!(
        touched,
        shar.touched_blocks(),
        "{name}: touched block sets differ"
    );
    for block in touched {
        assert_eq!(
            conc.cache_states_for(block),
            shar.cache_states_for(block),
            "{name}: cache states differ for {block:?}"
        );
    }
}

/// The sharded engine reproduces the concurrent engine's observable
/// output exactly on every small-suite workload, at shards 1, 2 and 4.
#[test]
fn sharded_matches_concurrent_engine() {
    for (i, mut cw) in small_suite().into_iter().enumerate() {
        let name = cw.name();
        let conc = concurrent_run(cw.as_mut());
        for shards in [1, 2, 4] {
            let shar = sharded_run(small_suite().remove(i).as_mut(), shards);
            assert_same_run(&format!("{name}@{shards}"), &conc, &shar);
        }
    }
}

/// The same identity off the paper's network latency, at shards 1 and 3:
/// a slow network (a wide lookahead window) and a fast one (a narrow
/// window).
#[test]
fn variants_match_across_engines() {
    let proto = ProtocolConfig::paper();
    let slow = SystemConfig::paper().with_network_latency(400);
    let fast = SystemConfig::paper().with_network_latency(5);
    for (variant, sys) in [("slow_network", slow), ("fast_network", fast)] {
        let suites = small_suite()
            .into_iter()
            .zip(small_suite())
            .zip(small_suite());
        for ((mut cw, w1), w3) in suites {
            let name = format!("{variant}/{}", cw.name());
            let mut conc = ConcurrentMachine::new(proto.clone(), sys.clone());
            drive(&mut conc, cw.as_mut()).unwrap_or_else(|e| panic!("{name} concurrent: {e}"));
            for (shards, mut w) in [(1, w1), (3, w3)] {
                let shar = run_sharded(w.as_mut(), proto.clone(), sys.clone(), shards)
                    .unwrap_or_else(|e| panic!("{name} sharded({shards}): {e}"));
                assert_same_run(&format!("{name}@{shards}"), &conc, &shar);
            }
        }
    }
}

/// The micro-workloads from the simcheck/golden tier also agree — the
/// smallest configs exercise the local-marker and upgrade paths.
#[test]
fn micro_workloads_match_across_engines() {
    use workloads::micro::{Migratory, ProducerConsumer};
    let fresh = || -> Vec<Box<dyn Workload>> {
        vec![
            Box::new(ProducerConsumer::default()),
            Box::new(Migratory::default()),
        ]
    };
    for (i, mut w) in fresh().into_iter().enumerate() {
        let name = w.name();
        let conc = concurrent_run(w.as_mut());
        for k in [1, 2, 5] {
            let mut again = fresh().remove(i);
            let shar = sharded_run(again.as_mut(), k);
            assert_same_run(&format!("{name}@{k}"), &conc, &shar);
        }
    }
}

/// What a per-barrier audit costs at scale: the benchmark's two streaming
/// shapes (`scale1024`, `stream64`) on the sharded engine at shards 1,
/// drained every iteration, with barrier audits off (as the benchmark
/// configures them) and on. Prints host seconds; asserts only that the
/// simulated run is the same either way. Ignored: a measurement, run in
/// release —
/// `cargo test --release --offline -p workloads --test shard_identity -- --ignored --nocapture`.
#[test]
#[ignore = "a timing measurement; run in release with --ignored --nocapture"]
fn barrier_audit_cost_at_64_and_1024_nodes() {
    use workloads::Scale;
    for (nodes, private, iterations) in [(1024, 16, 96), (64, 0, 12_000)] {
        let mut outcome = Vec::new();
        for audit in [false, true] {
            let mut w = Scale::new(nodes, private, iterations);
            let mut m = ShardedMachine::new(w.proto(), SystemConfig::paper(), 1);
            m.set_audit_barriers(audit);
            let started = std::time::Instant::now();
            let mut records = 0;
            for it in 0..iterations {
                m.run_plan(&w.plan(it), it).expect("scale runs clean");
                records += m.drain_trace_records().len();
            }
            let secs = started.elapsed().as_secs_f64();
            let checks = m.tally().invariant_checks();
            println!(
                "scale {nodes} nodes, barrier audits {}: {secs:.3} s, {records} records, {checks} blocks audited",
                if audit { "on" } else { "off" }
            );
            outcome.push((records, m.execution_time_ns()));
        }
        assert_eq!(
            outcome[0], outcome[1],
            "{nodes} nodes: the audit changed the run"
        );
    }
}
