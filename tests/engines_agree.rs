//! Integration: the two execution engines agree on everything Cosmos
//! cares about, across the real benchmark generators.

use cosmos_repro::accel::{run_machine, RunSummary};
use cosmos_repro::cosmos::eval::evaluate_cosmos;
use cosmos_repro::simx::SystemConfig;
use cosmos_repro::stache::ProtocolConfig;
use cosmos_repro::workloads::{run_to_trace, small_suite};

#[test]
fn every_benchmark_runs_coherently_on_the_concurrent_engine() {
    for mut w in small_suite() {
        let t = run_machine(w.as_mut(), None, None, false)
            .unwrap_or_else(|e| panic!("{} on the concurrent engine: {e}", w.name()))
            .into_trace();
        assert!(!t.is_empty(), "{} produced no messages", w.name());
    }
}

#[test]
fn accuracy_is_engine_independent_within_a_few_points() {
    // The serialized engine is the calibrated default; the concurrent
    // engine reorders independent transactions and breaks RMW atomicity.
    // Per-block patterns — the thing Cosmos learns — must survive.
    for (mut a, mut b) in small_suite().into_iter().zip(small_suite()) {
        let serial =
            run_to_trace(a.as_mut(), ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        let conc = run_machine(b.as_mut(), None, None, false)
            .unwrap()
            .into_trace();
        let s_acc = evaluate_cosmos(&serial, 1, 0).overall.percent();
        let c_acc = evaluate_cosmos(&conc, 1, 0).overall.percent();
        assert!(
            (s_acc - c_acc).abs() < 8.0,
            "{}: serialized {s_acc:.1}% vs concurrent {c_acc:.1}%",
            a.name()
        );
    }
}

#[test]
fn message_volumes_are_engine_independent_within_a_few_percent() {
    for (mut a, mut b) in small_suite().into_iter().zip(small_suite()) {
        let serial =
            run_to_trace(a.as_mut(), ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        let conc = run_machine(b.as_mut(), None, None, false)
            .unwrap()
            .into_trace();
        let ratio = conc.len() as f64 / serial.len().max(1) as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{}: serialized {} vs concurrent {} messages",
            a.name(),
            serial.len(),
            conc.len()
        );
    }
}

#[test]
fn the_integration_baseline_counts_the_table_engines_messages_within_a_few_percent() {
    // `accel::compare` measures savings against a baseline run on the
    // event engine; Tables 5-8 come from the walk. Tie the study's
    // denominator to the table engine.
    for (mut a, mut b) in small_suite().into_iter().zip(small_suite()) {
        let walk =
            run_to_trace(a.as_mut(), ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        let baseline = RunSummary::of(&run_machine(b.as_mut(), None, None, false).unwrap());
        let ratio = baseline.messages as f64 / walk.len().max(1) as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{}: walk {} vs integration baseline {} messages",
            a.name(),
            walk.len(),
            baseline.messages
        );
    }
}
