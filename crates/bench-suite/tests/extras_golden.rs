//! Golden regression tests for the contender table and the live
//! speculation policies, which no other golden races:
//!
//! * `golden/contenders_small.csv` — every contender row × the five small
//!   traces, as exact integer counts (hits, scored, offered, MHR and PHT
//!   entries), so a predictor that drifts by one message fails;
//! * `golden/extras_small.txt` — the rendered `comparison` section;
//! * `golden/engines_small.txt` — `repro --small engines` stdout, captured
//!   while `engines` still ran both engines itself.
//!
//! Both files were generated by the code *before* the variants became
//! arguments of one predictor struct and the policies one policy; the
//! bytes have not changed since, except that rows and sections of retired
//! studies were deleted with them, and that the six Cosmos rows Tables 5–7
//! read (`cosmos-d2`, `cosmos-d4`, `cosmos-d{1,2}-f{1,2}`) were added when
//! the tables became views of the race; their counts agree with the
//! table goldens.

use bench_suite::baseline::bare_runs;
use bench_suite::contenders::{race, CONTENDERS};
use bench_suite::{extras, tables, Scale, TraceSet};
use cosmos::eval::{evaluate, EvalOptions};
use std::fmt::Write as _;

const CONTENDERS_GOLDEN: &str = include_str!("golden/contenders_small.csv");
const EXTRAS_GOLDEN: &str = include_str!("golden/extras_small.txt");

#[test]
fn every_contender_scores_the_golden_counts_on_the_small_traces() {
    let set = TraceSet::generate(Scale::Small);
    let mut csv = String::from("label,app,hits,total,offered,mhr_entries,pht_entries\n");
    for (label, factory) in CONTENDERS {
        for t in set.traces() {
            let r = evaluate(t, &EvalOptions::default(), factory);
            let _ = writeln!(
                csv,
                "{label},{},{},{},{},{},{}",
                t.meta().app,
                r.overall.hits,
                r.overall.total,
                r.coverage.hits,
                r.memory.mhr_entries,
                r.memory.pht_entries,
            );
        }
    }
    assert_eq!(
        csv, CONTENDERS_GOLDEN,
        "a contender drifted from the golden"
    );
}

#[test]
fn the_comparison_section_renders_the_golden_text() {
    let set = TraceSet::generate(Scale::Small);
    assert_eq!(
        extras::render_comparison(&extras::comparison(&race(&set, &extras::COMPARISON))),
        EXTRAS_GOLDEN,
        "the comparison section drifted from the golden"
    );
}

#[test]
fn the_engines_section_renders_the_golden_text() {
    let set = TraceSet::generate(Scale::Small);
    let race = race(&set, &[tables::DEPTH1]);
    let bare = bare_runs(Scale::Small, None, false).unwrap();
    // `repro` prints the rendering with `println!`: one more newline.
    assert_eq!(
        extras::engines(&set, &race, &bare) + "\n",
        include_str!("golden/engines_small.txt"),
        "the engines section drifted from the golden"
    );
}
