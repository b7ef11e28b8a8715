//! Golden regression tests for the accuracy views on the small traces.
//!
//! * `golden/table5_small.csv` was captured before the packed-history
//!   predictor core and parallel sweeps landed;
//! * the Table 6, 7 and 8 CSVs and the `repro --small fig6` and
//!   `repro --small adaptation` stdout were captured while each view still
//!   replayed its own traces, before they became views of one race.
//!
//! Any drift means a change moved results, not just speed or structure.

use bench_suite::contenders::{race, Race};
use bench_suite::{extras, figures, tables, Scale, TraceSet};

/// The small traces raced over `field`.
fn small_race(field: &[&'static str]) -> Race {
    race(&TraceSet::generate(Scale::Small), field)
}

const GOLDEN: &str = include_str!("golden/table5_small.csv");

#[test]
fn small_table5_csv_is_byte_identical_to_the_pre_optimization_golden() {
    let csv = tables::csv_table5(&tables::table5(&small_race(&tables::BY_DEPTH)));
    assert_eq!(csv, GOLDEN, "table5 CSV drifted from the golden copy");
}

#[test]
fn small_table6_to_8_csvs_are_byte_identical_to_the_goldens() {
    // Table 6's field and the two depths Table 7 adds to it.
    let race = small_race(&[tables::TABLE6_FIELD.as_flattened(), &tables::BY_DEPTH[2..]].concat());
    let cases = [
        (
            "table6",
            tables::csv_table6(&tables::table6(&race)),
            include_str!("golden/table6_small.csv"),
        ),
        (
            "table7",
            tables::csv_table7(&tables::table7(&race)),
            include_str!("golden/table7_small.csv"),
        ),
        (
            "table8",
            tables::csv_table8(&tables::table8(&race)),
            include_str!("golden/table8_small.csv"),
        ),
    ];
    for (name, csv, golden) in cases {
        assert_eq!(csv, golden, "{name} CSV drifted from the golden copy");
    }
}

#[test]
fn small_fig6_and_adaptation_stdout_is_byte_identical_to_the_goldens() {
    let race = small_race(&[tables::DEPTH1]);
    // `repro` prints each rendering with `println!`: one more newline.
    let cases = [
        (
            "fig6",
            figures::render_figures_6_7(&race),
            include_str!("golden/fig6_small.txt"),
        ),
        (
            "adaptation",
            extras::render_adaptation(&extras::adaptation(&race)),
            include_str!("golden/adaptation_small.txt"),
        ),
    ];
    for (name, text, golden) in cases {
        assert_eq!(text + "\n", golden, "{name} drifted from the golden copy");
    }
}
