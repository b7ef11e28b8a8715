//! Golden regression test for the acceleration table: the small-scale
//! CSV must stay byte-identical to the committed copy (the exact bytes
//! `repro --small accel --csv DIR` writes, default fault plan). Any drift
//! means a policy's actions, the rollback accounting, or the engine's
//! timing changed — either a real behaviour change (update the golden
//! deliberately) or a lost determinism guarantee (a bug).

use bench_suite::accel;
use bench_suite::baseline::bare_runs;
use bench_suite::Scale;
use simx::FaultPlan;

const GOLDEN: &str = include_str!("golden/accel_small.csv");

#[test]
fn small_accel_csv_is_byte_identical_to_the_golden() {
    // The `repro` default plan, seed untouched.
    let plan = FaultPlan::parse("drop=0.01,dup=0.005,reorder=3").unwrap();
    let clean = bare_runs(Scale::Small, None, false).unwrap();
    let faulted = bare_runs(Scale::Small, Some(&plan), false).unwrap();
    let rows = accel::accel(Scale::Small, &plan, &clean, &faulted).unwrap();
    let csv = accel::csv_accel(&rows);
    assert_eq!(csv, GOLDEN, "acceleration table drifted from the golden");
}
