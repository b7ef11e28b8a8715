//! CLI contract tests for the `repro` binary's argument parsing: flags
//! that expect a value must fail loudly when the value is missing,
//! unknown targets must exit non-zero instead of being silently skipped,
//! and an artefact that cannot be written is a failure. `tracedump`'s
//! cases ride along: bad input is a one-line error, not a panic and not
//! a silent default.

use std::process::{Command, Stdio};

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn tracedump(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tracedump"))
        .args(args)
        .output()
        .expect("spawn tracedump")
}

/// Named for a timing flag `repro` no longer has (`benchmark/run.sh`
/// measures host time); what it pins is that `--help` succeeds and
/// documents the flags.
#[test]
fn help_exits_zero_and_mentions_bench_json() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--csv"));
    assert!(stdout.contains("--faults"));
}

#[test]
fn value_flags_reject_a_missing_value() {
    for flag in [
        "--csv",
        "--obs-json",
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

// Regression: `write_csv` logged a failed write and carried on, so a run
// whose every artefact was lost still exited 0.

#[test]
fn unwritable_csv_dir_fails_before_the_first_target() {
    let out = repro(&["--small", "--csv", "/proc/nonexistent/dir", "fig5"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("/proc/nonexistent/dir"),
        "stderr was {stderr:?}"
    );
    assert!(out.stdout.is_empty(), "no target may have run");
}

// Regression: a stream cell that could not create its temporary file
// panicked; it is a one-line error and exit status 1.
#[test]
fn tracepack_without_a_temp_directory_is_a_one_line_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--small", "tracepack"])
        .env("TMPDIR", "/definitely/not/a/directory")
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let last = stderr.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("tracepack: creating /definitely/not/a/directory/"),
        "stderr was {stderr:?}"
    );
    assert!(!stderr.contains("panicked"), "stderr was {stderr:?}");
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

// Regression: a fault plan harsh enough to exhaust the retry budget
// panicked in a worker thread (`faults.rs`, `accel.rs`, the `join`); it
// is one line naming the target and the benchmark, and exit status 1.

fn assert_exhausted_plan_is_a_one_line_error(target: &str) {
    let out = repro(&["--small", "--faults", "drop=0.9", target]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr was {stderr:?}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(
        last.starts_with(&format!("{target}: appbt failed: "))
            && last.ends_with("retry budget exhausted"),
        "stderr was {stderr:?}"
    );
}

#[test]
fn a_fault_plan_that_exhausts_retries_fails_the_faults_target_in_one_line() {
    assert_exhausted_plan_is_a_one_line_error("faults");
}

#[test]
fn a_fault_plan_that_exhausts_retries_fails_the_accel_target_in_one_line() {
    assert_exhausted_plan_is_a_one_line_error("accel");
}

// Regression: `--faults` / `--faults-seed` beside targets that never read
// the plan ran clean and exited 0, the flag silently ignored.
#[test]
fn fault_flags_are_rejected_when_no_selected_target_reads_them() {
    for args in [
        &["--faults", "drop=0.1", "table1"][..],
        &["--faults-seed", "9", "table5"],
        &["--small", "--faults", "drop=0.1", "--obs-json", "/dev/null"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something first");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.lines().count() == 1 && stderr.contains("only faults, accel do"),
            "{args:?}: stderr was {stderr:?}"
        );
    }
    // Beside a target that does read the plan, other targets are fine.
    let out = repro(&["--small", "--faults-seed", "9", "table1", "faults"]);
    assert!(out.status.success());
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
fn help_mentions_the_comparison_target() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("comparison"));
}

// The one-off studies are retired: their findings and the commands that
// made them are recorded in EXPERIMENTS.md "Retired studies".
#[test]
fn retired_studies_are_unknown_targets() {
    for name in [
        "ablation",
        "variants",
        "persistence",
        "limitless",
        "scaling",
        "topology",
        "lookahead",
        "tournament",
        "integration",
        "speedup",
    ] {
        let out = repro(&["--small", name]);
        assert_eq!(out.status.code(), Some(1), "{name}");
        assert!(out.stdout.is_empty(), "{name} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown target"), "{name}: {stderr:?}");
    }
}

// Regression: `--csv DIR` beside targets that write no artefact created
// DIR, wrote nothing and exited 0, the flag silently ignored.
#[test]
fn csv_is_rejected_when_no_selected_target_writes_an_artefact() {
    let dir = std::env::temp_dir().join(format!("cli-csv-{}", std::process::id()));
    let path = dir.to_str().expect("utf-8 temp path");
    for args in [
        &["--small", "--csv", path, "comparison"][..],
        &["--csv", path, "table1", "fig8"],
        &["--small", "--csv", path, "--obs-json", "/dev/null"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something first");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.lines().count() == 1
                && stderr.starts_with("--csv: no selected target writes an artefact")
                && stderr.contains("table5"),
            "{args:?}: stderr was {stderr:?}"
        );
        assert!(!dir.exists(), "{args:?} created {path}");
    }
    // Beside a target that writes one, other targets are fine.
    let out = repro(&["--csv", path, "table1", "fig5"]);
    assert!(out.status.success());
    assert!(dir.join("figure5.csv").is_file());
    std::fs::remove_dir_all(&dir).ok();
}

// Regression: `tracedump gen spice out.trace` used to panic inside
// `single_trace` (exit 101 and a backtrace) instead of reporting the typo.

#[test]
fn tracedump_gen_rejects_an_unknown_benchmark_without_panicking() {
    let out = tracedump(&["gen", "spice", "/definitely/not/written.trace", "--small"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown benchmark spice")
            && stderr.contains("appbt, barnes, dsmc, moldyn, unstructured"),
        "stderr was {stderr:?}"
    );
    assert!(!stderr.contains("panicked"), "stderr was {stderr:?}");
}

// Regressions: `eval a.trace two` evaluated depth 1 and exited 0, `eval
// a.trace 0` printed `depth 0` over a depth-1 result, `eval a.trace 9`
// panicked in the packed-history word, `dump a.trace x` dumped 20 records,
// and `dump a.trace | head` panicked on the closed pipe.

#[test]
fn tracedump_rejects_bad_numbers_and_survives_a_closed_pipe() {
    let path = std::env::temp_dir().join(format!("cli-appbt-{}.trace", std::process::id()));
    let file = path.to_str().expect("utf-8 temp path");
    let gen = tracedump(&["gen", "appbt", file, "--small"]);
    assert!(gen.status.success());
    assert!(String::from_utf8_lossy(&gen.stdout).contains("7592 records written"));

    for (args, complaint) in [
        (vec!["eval", file, "two"], "depth `two`"),
        (vec!["eval", file, "0"], "depth 0 is outside 1..=4"),
        (vec!["eval", file, "9"], "depth 9 is outside 1..=4"),
        (vec!["eval", file, "1", "256"], "filter `256`"),
        (vec!["obs", file, "-1"], "depth `-1`"),
        (vec!["dump", file, "x"], "limit `x`"),
        (vec!["seq", file, "0x40"], "block `0x40`"),
    ] {
        let out = tracedump(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args:?}: stderr was {stderr:?}"
        );
        assert!(
            stderr.contains(complaint),
            "{args:?}: stderr was {stderr:?}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr was {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result anyway");
    }

    let out = tracedump(&["eval", file, "2", "1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("depth 2, filter 1\n"), "{stdout:?}");

    // Far more output than a pipe buffers, and nobody reading it.
    let mut child = Command::new(env!("CARGO_BIN_EXE_tracedump"))
        .args(["dump", file, "7592"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tracedump");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for tracedump");
    assert!(out.status.success(), "closed pipe gave {:?}", out.status);
    assert!(out.stderr.is_empty(), "closed pipe is not an error");

    std::fs::remove_file(&path).ok();
}
