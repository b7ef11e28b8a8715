//! `pipebench` - the repository's benchmark (see README.md beside this
//! package). Started through `benchmark/run.sh`, which builds it first.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and ends with the one-line JSON result (the form the
//!   benchmark driver uses);
//! * without `--seconds` every workload (or the one named) runs in its
//!   own child, one after another, and `out/result.json` is written;
//!   `--traced` adds the per-layer run, `--selfcheck` runs the untraced
//!   set twice and compares.

mod metrics;
mod orchestrate;
mod pipeline;
mod span;
mod stats;
mod worker;

use std::process::ExitCode;

use metrics::Workload;

const USAGE: &str = "usage: benchmark/run.sh [--seed N] [--workload NAME] [--traced] [--selfcheck]
       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
       benchmark/run.sh --manifest";

#[derive(Default)]
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    traced: bool,
    selfcheck: bool,
    setup_only: bool,
    manifest: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload = Workload::parse(&name);
                cli.workload = Some(workload.ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value()?;
                // Any 64-bit pattern is a seed; accept it signed too.
                cli.seed = v
                    .parse::<u64>()
                    .or_else(|_| v.parse::<i64>().map(|s| s as u64))
                    .map_err(|_| format!("--seed {v}: not an integer"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {v}: out of range"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: want 0 or 1")),
                };
            }
            "--traced" => cli.traced = true,
            "--selfcheck" => cli.selfcheck = true,
            "--setup-only" => cli.setup_only = true,
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn run(cli: Cli) -> Result<bool, String> {
    if cli.manifest {
        print!("{}", metrics::manifest_json());
        return Ok(true);
    }
    if cli.setup_only {
        let workload = cli.workload.ok_or("--setup-only needs --workload")?;
        return worker::setup(workload, cli.seed).map(|_| true);
    }
    match (cli.seconds, cli.workload) {
        (Some(seconds), Some(workload)) => worker::run(&worker::Args {
            workload,
            seed: cli.seed,
            seconds,
            trace: cli.trace,
        }),
        (Some(_), None) => Err("--seconds needs --workload".to_string()),
        (None, workload) => orchestrate::run(&orchestrate::Args {
            workload,
            seed: cli.seed,
            traced: cli.traced,
            selfcheck: cli.selfcheck,
        }),
    }
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
