//! Golden regression test for the speculative speedup report: the
//! small-scale CSV must stay byte-identical to the committed copy (the
//! exact bytes `repro --small speedup --csv DIR` writes, default fault
//! plan). Any drift means the speculation layer's actions, the rollback
//! accounting, or the engine's timing changed — either a real behaviour
//! change (update the golden deliberately) or a lost determinism
//! guarantee (a bug).

use bench_suite::speedup;
use bench_suite::Scale;
use simx::FaultPlan;

const GOLDEN: &str = include_str!("golden/speedup_small.csv");

#[test]
fn small_speedup_csv_is_byte_identical_to_the_golden() {
    // The `repro` default plan, seed untouched.
    let plan = FaultPlan::parse("drop=0.01,dup=0.005,reorder=3").unwrap();
    let report = speedup::speedup_report(Scale::Small, &plan).unwrap();
    let csv = speedup::csv_speedup_report(&report);
    assert_eq!(csv, GOLDEN, "speedup report drifted from the golden");
}
