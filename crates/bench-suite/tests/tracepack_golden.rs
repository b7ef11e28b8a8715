//! Golden regression test for the packed-trace pipeline: the
//! small-scale `tracepack.csv` must stay byte-identical to the committed
//! copy (the exact bytes `repro --small tracepack --csv DIR` writes).
//! The CSV pins the codec byte totals and compression ratios per
//! benchmark and the streamed cell's totals — so any drift means the
//! packed format or the streamed workload changed. On top of byte
//! identity, the acceptance bar is asserted explicitly: every packed
//! trace at least 2× smaller than the flat codec.

use bench_suite::tracepack;
use bench_suite::{Scale, TraceSet};

const GOLDEN: &str = include_str!("golden/tracepack_small.csv");

#[test]
fn small_tracepack_csv_is_byte_identical_to_the_golden() {
    let set = TraceSet::generate(Scale::Small);
    let report = tracepack::tracepack(&set, Scale::Small).expect("clean stream cell");
    let csv = tracepack::csv_tracepack(&report);
    assert_eq!(csv, GOLDEN, "tracepack report drifted from the golden");

    // The acceptance bar, restated on the live report so a deliberate
    // golden update cannot silently regress it.
    for p in &report.pack {
        assert!(
            p.stats.ratio() >= 2.0,
            "{}: compression ratio {:.2} under the 2x floor",
            p.app,
            p.stats.ratio()
        );
    }
}
