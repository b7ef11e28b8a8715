//! Integration: live speculation preserves coherence and pays off where
//! the paper says it should.

use cosmos_repro::accel::directed_policy::DirectedPolicy;
use cosmos_repro::accel::{compare, run_machine, CosmosPolicy, RunSummary};
use cosmos_repro::simx::{SimError, SpeculationPolicy};
use cosmos_repro::workloads::micro::{Migratory, ProducerConsumer};
use cosmos_repro::workloads::{small_suite, Workload};

/// A coherence-audited run on a perfect fabric under `policy`.
fn run_with_policy(
    w: &mut dyn Workload,
    policy: Option<Box<dyn SpeculationPolicy>>,
) -> Result<RunSummary, SimError> {
    run_machine(w, policy, None, false).map(|m| RunSummary::of(&m))
}

fn fresh(name: &str) -> Box<dyn Workload> {
    small_suite()
        .into_iter()
        .find(|w| w.name() == name)
        .expect("known benchmark")
}

#[test]
fn speculation_preserves_coherence_on_every_benchmark() {
    // run_with_policy verifies SWMR + full-map + fresh reads internally;
    // completing without error is the assertion.
    for name in ["appbt", "barnes", "dsmc", "moldyn", "unstructured"] {
        run_with_policy(fresh(name).as_mut(), Some(Box::new(CosmosPolicy::new(2))))
            .unwrap_or_else(|e| panic!("{name} with cosmos policy: {e}"));
        run_with_policy(fresh(name).as_mut(), Some(Box::new(DirectedPolicy::new())))
            .unwrap_or_else(|e| panic!("{name} with directed policy: {e}"));
    }
}

#[test]
fn cosmos_speculation_never_slows_a_benchmark_down_much() {
    // Cosmos only fires on learned patterns, so its downside is bounded:
    // every benchmark stays within a whisker of baseline or better.
    for name in ["appbt", "barnes", "dsmc", "moldyn", "unstructured"] {
        let c = compare(fresh(name).as_mut(), fresh(name).as_mut(), || {
            Box::new(CosmosPolicy::new(2))
        })
        .unwrap();
        assert!(
            c.speedup() > 0.97,
            "{name}: cosmos speculation slowed the run to {:.2}x",
            c.speedup()
        );
    }
}

#[test]
fn exclusive_grants_eliminate_the_migratory_upgrade_round() {
    let make = || Migratory {
        blocks: 4,
        iterations: 25,
        ..Default::default()
    };
    let c = compare(&mut make(), &mut make(), || Box::new(CosmosPolicy::new(2))).unwrap();
    // Every learned migratory turn saves the 2-message upgrade round.
    assert!(c.accelerated.exclusive_grants > 50, "{c}");
    assert!(
        c.message_saving() > 0.15,
        "saved only {:.1}%",
        100.0 * c.message_saving()
    );
    assert!(c.speedup() > 1.1, "{c}");
}

#[test]
fn self_invalidation_shortens_the_handoff() {
    let make = || ProducerConsumer {
        blocks: 4,
        iterations: 25,
        ..Default::default()
    };
    let c = compare(&mut make(), &mut make(), || Box::new(CosmosPolicy::new(1))).unwrap();
    assert!(c.accelerated.voluntary_replacements >= 40, "{c}");
    // The consumer's 4-message owner recall becomes a 2-message idle miss
    // (minus the 1-message replacement): net saving.
    assert!(c.accelerated.messages < c.baseline.messages, "{c}");
}

#[test]
fn identical_streams_mean_identical_work_modulo_speculation() {
    // The accelerated run executes exactly the same access stream: the
    // access totals match, and speculation can only move accesses between
    // the hit and miss columns (exclusive grants make follow-up writes
    // hit; self-invalidation makes some re-accesses miss).
    let base = run_with_policy(fresh("dsmc").as_mut(), None).unwrap();
    let accel =
        run_with_policy(fresh("dsmc").as_mut(), Some(Box::new(CosmosPolicy::new(2)))).unwrap();
    assert_eq!(base.accesses, accel.accesses, "same access stream");
    assert!(
        accel.hits >= base.hits,
        "dsmc is grant-friendly: hits {} -> {}",
        base.hits,
        accel.hits
    );
}
