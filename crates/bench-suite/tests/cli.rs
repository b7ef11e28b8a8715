//! CLI contract tests for the `repro` binary's argument parsing: flags
//! that expect a value must fail loudly when the value is missing, and
//! unknown targets must exit non-zero instead of being silently skipped.
//! One `tracedump` case rides along: an unknown benchmark is a one-line
//! error, not a panic.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn help_exits_zero_and_mentions_bench_json() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--bench-json"));
    assert!(stdout.contains("--faults"));
}

#[test]
fn value_flags_reject_a_missing_value() {
    for flag in [
        "--csv",
        "--obs-json",
        "--bench-json",
        "--faults",
        "--faults-seed",
        "--trace-out",
    ] {
        let out = repro(&[flag]);
        assert!(!out.status.success(), "{flag} with no value must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("needs a value"),
            "{flag}: stderr was {stderr:?}"
        );
    }
}

#[test]
fn unknown_targets_exit_nonzero() {
    let out = repro(&["table9000"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown target"), "stderr was {stderr:?}");
}

#[test]
fn trace_out_rejects_a_missing_directory_before_simulating() {
    let out = repro(&[
        "--small",
        "--trace-out",
        "/definitely/not/a/directory/trace.json",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--trace-out") && stderr.contains("does not exist"),
        "stderr was {stderr:?}"
    );
}

#[test]
fn help_mentions_the_tracespans_target_and_trace_out() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tracespans"));
    assert!(stdout.contains("--trace-out"));
}

#[test]
fn bad_faults_seed_exits_nonzero() {
    let out = repro(&["--faults-seed", "not-a-number"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a u64"));
}

// Regression: naming a target twice used to run it twice (the target list
// was never deduplicated), doubling output and wall time. `table1` is
// trace-free, so these stay fast.

#[test]
fn duplicate_target_runs_once() {
    let out = repro(&["table1", "table1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("TABLE 1.").count(),
        1,
        "duplicated target must run once; stdout was {stdout:?}"
    );
}

#[test]
fn dedup_preserves_first_occurrence_order() {
    let out = repro(&["table2", "table1", "table2"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("TABLE 2.").count(), 1);
    assert_eq!(stdout.matches("TABLE 1.").count(), 1);
    let t2 = stdout.find("TABLE 2.").expect("table 2 present");
    let t1 = stdout.find("TABLE 1.").expect("table 1 present");
    assert!(
        t2 < t1,
        "first occurrence wins the position: table2 must print before table1"
    );
}

#[test]
fn help_mentions_the_tournament_target() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("tournament"));
}

// Regression: `tracedump gen spice out.trace` used to panic inside
// `single_trace` (exit 101 and a backtrace) instead of reporting the typo.

#[test]
fn tracedump_gen_rejects_an_unknown_benchmark_without_panicking() {
    let out = Command::new(env!("CARGO_BIN_EXE_tracedump"))
        .args(["gen", "spice", "/definitely/not/written.trace", "--small"])
        .output()
        .expect("spawn tracedump");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown benchmark spice")
            && stderr.contains("appbt, barnes, dsmc, moldyn, unstructured"),
        "stderr was {stderr:?}"
    );
    assert!(!stderr.contains("panicked"), "stderr was {stderr:?}");
}
