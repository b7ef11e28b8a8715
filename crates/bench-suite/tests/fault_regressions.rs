//! Fault-injection regression suite.
//!
//! Two guarantees the fault layer must never lose:
//!
//! 1. **Faults off is a no-op** — the instrumented report of a machine
//!    with no fault injector must stay byte-identical to the golden
//!    snapshot captured before the fault layer existed. Any drift means
//!    the clean path picked up an accidental behaviour change. (Its eight
//!    `accel.*` values were re-committed once, when the integration
//!    study moved from the walk's closed form to the event engine.)
//! 2. **Faults on is reproducible and coherent** — the five-benchmark
//!    sensitivity report under the ISSUE's reference plan completes with
//!    zero invariant violations and exports identical obs JSON for
//!    identical seeds.
//!
//! Beside them, `golden/faults_small.csv` pins the report itself: the
//! bytes `repro --small faults --csv DIR` wrote (default plan, seed 0)
//! while `faults` still ran its own clean and perturbed simulations.

use bench_suite::baseline::{bare_runs, BareRun};
use bench_suite::faults::{csv_fault_report, fault_report, FAULT_DEPTHS};
use bench_suite::{obs_report, Scale};
use simx::FaultPlan;

/// Both halves of the small-scale baseline set, the second under `plan`;
/// every run is invariant-audited and errs on a violation.
fn small_halves(plan: &FaultPlan) -> [Vec<BareRun>; 2] {
    [None, Some(plan)].map(|plan| bare_runs(Scale::Small, plan, false).unwrap())
}

/// The report's obs JSON under `plan`, both halves run fresh.
fn small_obs_json(plan: &FaultPlan) -> String {
    let [clean, perturbed] = small_halves(plan);
    fault_report(&clean, &perturbed, plan)
        .export_obs()
        .to_json()
}

/// The golden `obs.v1` snapshot of `repro --small --obs-json --obs-app
/// appbt`, captured before the fault-injection layer was introduced.
const GOLDEN: &str = include_str!("golden/appbt_small_obs.json");

#[test]
fn clean_run_report_is_byte_identical_to_the_pre_fault_golden() {
    let now = obs_report(Scale::Small, "appbt").to_json();
    assert_eq!(
        now, GOLDEN,
        "the clean path changed: a machine without a fault injector \
         must produce exactly the pre-fault-layer report"
    );
}

#[test]
fn reference_fault_plan_is_coherent_and_seed_reproducible() {
    let plan = FaultPlan::parse("drop=0.01,dup=0.005,reorder=3")
        .unwrap()
        .with_seed(7);
    let [clean, perturbed] = small_halves(&plan);
    let a = fault_report(&clean, &perturbed, &plan);
    assert_eq!((a.clean.len(), a.perturbed.len()), (5, 5));
    let (faults, recovery) = a.totals();
    assert!(faults.drops > 0);
    assert!(recovery.retries > 0, "drops force retransmissions");
    assert!(recovery.naks_sent > 0, "contention forces NAKs");
    for run in a.clean.iter().chain(a.perturbed) {
        for i in 0..FAULT_DEPTHS.len() {
            assert!(run.accuracy[i].is_finite());
        }
    }

    assert_eq!(
        a.export_obs().to_json(),
        small_obs_json(&plan),
        "same seed must export identical bytes"
    );

    // A different seed draws a different schedule.
    assert_ne!(
        a.export_obs().to_json(),
        small_obs_json(&plan.clone().with_seed(8)),
        "a different seed must perturb differently"
    );
}

#[test]
fn small_faults_csv_is_byte_identical_to_the_golden() {
    // The `repro` default plan, seed untouched.
    let plan = FaultPlan::parse("drop=0.01,dup=0.005,reorder=3").unwrap();
    let [clean, perturbed] = small_halves(&plan);
    let csv = csv_fault_report(&fault_report(&clean, &perturbed, &plan));
    assert_eq!(
        csv,
        include_str!("golden/faults_small.csv"),
        "the fault report drifted from the golden"
    );
}
