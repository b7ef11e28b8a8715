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

use bench_suite::faults::{fault_report, FAULT_DEPTHS};
use bench_suite::{obs_report, Scale};
use simx::FaultPlan;

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
    // fault_report invariant-audits every run and errs on violation.
    let a = fault_report(Scale::Small, &plan).unwrap();
    assert_eq!(a.rows.len(), 5);
    let (faults, recovery) = a.totals();
    assert!(faults.drops > 0);
    assert!(recovery.retries > 0, "drops force retransmissions");
    assert!(recovery.naks_sent > 0, "contention forces NAKs");
    for row in &a.rows {
        for i in 0..FAULT_DEPTHS.len() {
            assert!(row.clean_pct[i].is_finite());
            assert!(row.perturbed_pct[i].is_finite());
        }
    }

    let b = fault_report(Scale::Small, &plan).unwrap();
    assert_eq!(
        a.export_obs().to_json(),
        b.export_obs().to_json(),
        "same seed must export identical bytes"
    );

    // A different seed draws a different schedule.
    let c = fault_report(Scale::Small, &plan.clone().with_seed(8)).unwrap();
    assert_ne!(
        a.export_obs().to_json(),
        c.export_obs().to_json(),
        "a different seed must perturb differently"
    );
}
