//! The human-facing command: every workload in its own child process,
//! one after another (one client, closed loop, never two workloads at
//! once), their metric lines echoed and collected into
//! `out/result.json`. `--selfcheck` runs the untraced set twice and holds
//! the second against the first.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use crate::metrics::{Workload, END_TO_END, RUN_SECONDS, SIMULATED};
use crate::worker::out_dir;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub traced: bool,
    pub selfcheck: bool,
}

/// One workload's `metric -> (value, unit)` as its child printed them.
type Metrics = BTreeMap<String, (String, String)>;

/// Runs one workload in a child, echoing its `workload metric value unit`
/// lines. Returns the parsed lines and whether the child exited 0.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<(Metrics, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut metrics = Metrics::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading {workload}'s output: {e}"))?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [w, name, value, unit] = fields[..] {
            if w == workload.name() {
                println!("{line}");
                metrics.insert(name.to_string(), (value.to_string(), unit.to_string()));
            }
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for {workload}: {e}"))?;
    Ok((metrics, status.success()))
}

fn result_json(seed: u64, results: &BTreeMap<Workload, Metrics>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let workloads: Vec<String> = results
        .iter()
        .map(|(w, metrics)| {
            let digest = metrics.get("digest").map_or("", |(v, _)| v);
            let rows: Vec<String> = metrics
                .iter()
                .filter(|(name, _)| *name != "digest")
                .map(|(name, (value, unit))| {
                    format!("        \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                })
                .collect();
            format!(
                "    \"{w}\": {{\n      \"digest\": \"{digest}\",\n      \"metrics\": {{\n{}\n      }}\n    }}",
                rows.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"nproc\": {nproc},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {{\n{}\n  }}\n}}\n",
        workloads.join(",\n")
    )
}

/// Holds the second untraced set against the first: host metrics within
/// their bounds either way, simulated metrics and digests identical.
fn selfcheck(a: &BTreeMap<Workload, Metrics>, b: &BTreeMap<Workload, Metrics>) -> bool {
    let mut ok = true;
    println!("selfcheck: workload metric first second difference bound verdict");
    for (w, first) in a {
        let second = &b[w];
        let text = |m: &Metrics, name: &str| m.get(name).map_or("", |(v, _)| v).to_string();
        for (m, bound) in &END_TO_END {
            let (x, y) = (text(first, m.name), text(second, m.name));
            let diff = match (x.parse::<f64>(), y.parse::<f64>()) {
                (Ok(x), Ok(y)) if x != 0.0 => (y - x) / x,
                _ => f64::NAN,
            };
            let pass = diff.abs() <= *bound;
            ok &= pass;
            println!(
                "selfcheck: {w} {} {x} {y} {:+.2}% {:.0}% {}",
                m.name,
                100.0 * diff,
                100.0 * bound,
                if pass { "ok" } else { "BREACH" }
            );
        }
        for name in SIMULATED.iter().map(|m| m.name).chain(["digest"]) {
            let (x, y) = (text(first, name), text(second, name));
            if x.is_empty() && y.is_empty() {
                continue;
            }
            let pass = x == y;
            ok &= pass;
            println!(
                "selfcheck: {w} {name} {x} {y} exact 0% {}",
                if pass { "ok" } else { "DIFFERS" }
            );
        }
    }
    ok
}

pub fn run(args: &Args) -> Result<bool, String> {
    let selected: Vec<Workload> = Workload::ALL
        .into_iter()
        .filter(|w| args.workload.is_none_or(|only| only == *w))
        .collect();
    let mut ok = true;
    let mut sets = Vec::new();
    for _ in 0..if args.selfcheck { 2 } else { 1 } {
        let mut set = BTreeMap::new();
        for &w in &selected {
            let (mut metrics, child_ok) = run_child(w, args.seed, RUN_SECONDS, false)?;
            ok &= child_ok;
            if args.traced && !args.selfcheck {
                // The same budget again: untraced passes for the traced
                // pass to be compared with, the traced pass, the extra cell.
                let (traced, child_ok) = run_child(w, args.seed, RUN_SECONDS, true)?;
                ok &= child_ok;
                if traced.get("digest") != metrics.get("digest") {
                    eprintln!("{w}: the traced run's digest differs from the untraced run's");
                    ok = false;
                }
                for (name, value) in traced {
                    metrics.entry(name).or_insert(value);
                }
            }
            set.insert(w, metrics);
        }
        sets.push(set);
    }

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("result.json");
    std::fs::write(&path, result_json(args.seed, &sets[0]))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());

    if args.selfcheck {
        ok &= selfcheck(&sets[0], &sets[1]);
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(wall: &str, digest: &str) -> BTreeMap<Workload, Metrics> {
        let mut m = Metrics::new();
        for (name, value, unit) in [
            ("setup_s", "0.002", "s"),
            ("wall_s", wall, "s"),
            ("msgs_per_s", "1000000", "1/s"),
            ("peak_rss_mb", "100", "MB"),
            ("sim_exec_ms", "12.5", "sim_ms"),
            ("digest", digest, "hex"),
        ] {
            m.insert(name.to_string(), (value.to_string(), unit.to_string()));
        }
        BTreeMap::from([(Workload::Suite16, m)])
    }

    #[test]
    fn selfcheck_accepts_noise_inside_the_bound_and_rejects_the_rest() {
        let base = set("1.00", "abc");
        assert!(selfcheck(&base, &set("1.05", "abc")));
        assert!(selfcheck(&base, &set("0.95", "abc")));
        assert!(!selfcheck(&base, &set("1.40", "abc")), "wall_s 40 % off");
        assert!(!selfcheck(&base, &set("1.00", "abd")), "digest differs");
    }

    #[test]
    fn result_json_keeps_the_digest_apart_from_the_numbers() {
        let json = result_json(3, &set("1.5", "00ff"));
        assert!(json.contains("\"seed\": 3"));
        assert!(json.contains("\"digest\": \"00ff\""));
        assert!(json.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!json.contains("\"digest\": {"));
    }
}
