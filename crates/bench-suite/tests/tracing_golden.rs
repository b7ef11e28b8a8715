//! Golden and structural regression tests for the causal-tracing layer:
//! the small-scale `tracespans` attribution CSV must stay byte-identical
//! to the committed copy, as must the per-phase and critical-path
//! renderings (`repro --small tracespans` stdout after the attribution
//! table, captured while each listed transaction still replayed its own
//! depth-1 fleet), and the Chrome trace export must remain
//! structurally valid (metadata + complete events forming whole span
//! trees) without pulling in a JSON parser dependency.

use bench_suite::baseline::{bare_runs, BareRun};
use bench_suite::{spans, Scale};
use obs::span::SpanKind;

const GOLDEN: &str = include_str!("golden/tracespans_small.csv");

/// The baseline set's clean half on the small suite: the traced runs.
fn small_runs() -> Vec<BareRun> {
    bare_runs(Scale::Small, None, true).unwrap()
}

#[test]
fn small_tracespans_csv_is_byte_identical_to_the_golden() {
    let runs = small_runs();
    let csv = spans::csv_attribution(&spans::attribution(&runs));
    assert_eq!(csv, GOLDEN, "tracespans CSV drifted from the golden copy");
}

#[test]
fn small_phases_and_critical_paths_are_byte_identical_to_the_golden() {
    let runs = small_runs();
    // `repro` prints each rendering with `println!`: one more newline.
    let text = format!(
        "{}\n{}\n",
        spans::render_phases(&runs),
        spans::render_critical_paths(&runs, 5)
    );
    assert_eq!(
        text,
        include_str!("golden/tracespans_small.txt"),
        "the phase or critical-path rendering drifted from the golden"
    );
}

#[test]
fn chrome_export_contains_complete_span_trees() {
    let runs = small_runs();
    let json = spans::chrome_trace(&runs);
    // Structural validity: one JSON object, a traceEvents array, one
    // process-name metadata record per run, and complete ("X") events.
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert!(json.ends_with("]}"));
    assert_eq!(json.matches("\"ph\":\"M\"").count(), runs.len());
    assert!(json.matches("\"ph\":\"X\"").count() > runs.len());
    // Every transaction's tree is complete: no span was left open for the
    // barrier to flag, so every event carries its own duration, and each
    // root ("txn" category) has at least one child edge in the same trace.
    for run in &runs {
        assert_eq!(run.spans.orphans(), 0, "{}", run.app);
        for root in run.spans.spans().iter().filter(|s| s.kind == SpanKind::Txn) {
            let children = run
                .spans
                .spans()
                .iter()
                .filter(|s| s.trace == root.trace && s.id != root.id)
                .count();
            assert!(
                children > 0,
                "{}: trace {} has a bare root",
                run.app,
                root.trace.raw()
            );
        }
    }
    assert!(json.contains("\"cat\":\"network\""));
    assert!(json.contains("\"cat\":\"directory\""));
}
