//! Regenerates the paper's tables and figures from scratch.
//!
//! ```text
//! repro [--small] [TARGET ...]
//! ```
//!
//! Every target is one row of [`TARGETS`]; `repro --help` lists them.
//! `all` (the default) runs every row except `scale` and `tracepack`,
//! which exist to exercise the simulator and its trace pipeline (minutes
//! at paper scale — the tracepack streaming cell alone simulates ≥10⁸
//! messages) and are run explicitly. Repeated targets run once: the list
//! is deduplicated preserving the first occurrence's position, so `repro
//! table5 all` never evaluates a table twice.
//!
//! `--small` uses the reduced workload sizes (for smoke runs); the default
//! is the paper-calibrated scale. `--csv DIR` additionally writes the
//! machine-readable artefacts (CSV, and `obs.v1` JSON for some) of the
//! targets that have one into DIR; beside targets that have none, a DIR
//! that cannot be created, or an artefact that cannot be written, it is
//! exit status 1.
//!
//! `--obs-json PATH` runs one instrumented benchmark end-to-end (`--obs-app
//! NAME` selects it; default `appbt`) and writes the workspace-wide metrics
//! snapshot — machine, protocol, trace, predictor, and speculation layers —
//! as `obs.v1` JSON to PATH. Given alone, it runs only the report.
//!
//! Host time is not measured here: `benchmark/run.sh` times the pipeline.

use bench_suite::{extras, faults, figures, obs_report, tables, Scale, TraceSet};
use simx::{FaultPlan, SystemConfig};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What a target's `run` sees of the command line.
struct Ctx<'a> {
    scale: Scale,
    /// The shared trace set; present when any requested target needs it.
    set: Option<&'a TraceSet>,
    csv_dir: Option<&'a Path>,
    trace_out: Option<&'a Path>,
    fault_plan: &'a FaultPlan,
    /// Figures 6 and 7 are one rendering: whichever target comes first
    /// prints it.
    fig67_done: Cell<bool>,
}

impl Ctx<'_> {
    fn set(&self) -> &TraceSet {
        self.set.expect("row is marked `traced`")
    }

    /// Writes one artefact when `--csv DIR` was given.
    fn artefact(&self, name: &str, contents: &str) -> Result<(), String> {
        let Some(dir) = self.csv_dir else {
            return Ok(());
        };
        let path = dir.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}

type Run = fn(&Ctx) -> Result<(), String>;

/// One `repro` target. The usage line, `all`, the shared-trace decision
/// and the dispatch all read this one declaration.
struct Target {
    name: &'static str,
    /// Whether `all` includes it.
    in_all: bool,
    /// Whether it reads the shared five-benchmark trace set.
    needs_traces: bool,
    /// Whether it reads the `--faults` / `--faults-seed` plan.
    reads_faults: bool,
    /// Whether it writes an artefact into `--csv DIR`.
    writes_csv: bool,
    run: Run,
}

impl Target {
    const fn new(name: &'static str, run: Run) -> Self {
        Target {
            name,
            in_all: true,
            needs_traces: false,
            reads_faults: false,
            writes_csv: false,
            run,
        }
    }

    const fn traced(mut self) -> Self {
        self.needs_traces = true;
        self
    }

    const fn faulted(mut self) -> Self {
        self.reads_faults = true;
        self
    }

    const fn csv(mut self) -> Self {
        self.writes_csv = true;
        self
    }

    const fn explicit_only(mut self) -> Self {
        self.in_all = false;
        self
    }
}

fn show(text: impl std::fmt::Display) -> Result<(), String> {
    println!("{text}");
    Ok(())
}

const TARGETS: &[Target] = &[
    Target::new("table1", |_| show(tables::table1())),
    Target::new("table2", |_| show(tables::table2())),
    Target::new("table3", |_| show(tables::table3(&SystemConfig::paper()))),
    Target::new("table4", |_| show(tables::table4())),
    Target::new("table5", table5).traced().csv(),
    Target::new("table6", table6).traced().csv(),
    Target::new("table7", table7).traced().csv(),
    Target::new("table8", table8).traced().csv(),
    Target::new("fig5", fig5).csv(),
    Target::new("fig6", fig67).traced(),
    Target::new("fig7", fig67).traced(),
    Target::new("fig8", |_| show(figures::render_figure8())),
    Target::new("sensitivity", sensitivity),
    Target::new("adaptation", |c| {
        show(extras::render_adaptation(&extras::adaptation(c.set())))
    })
    .traced(),
    Target::new("comparison", |c| {
        show(extras::render_comparison(&extras::comparison(c.set())))
    })
    .traced(),
    Target::new("integration", integration),
    Target::new("engines", |c| show(extras::engines(c.scale))),
    Target::new("seeds", |c| show(extras::seed_robustness(c.scale))),
    Target::new("faults", fault_sensitivity).faulted().csv(),
    Target::new("simcheck", simcheck).csv(),
    Target::new("speedup", speedup).faulted().csv(),
    Target::new("tracespans", tracespans).csv(),
    Target::new("scale", scale_sweep).csv().explicit_only(),
    Target::new("tracepack", tracepack)
        .traced()
        .csv()
        .explicit_only(),
];

fn table5(c: &Ctx) -> Result<(), String> {
    let rows = tables::table5(c.set());
    println!("{}", tables::render_table5(&rows));
    c.artefact("table5.csv", &tables::csv_table5(&rows))
}

fn table6(c: &Ctx) -> Result<(), String> {
    let rows = tables::table6(c.set());
    println!("{}", tables::render_table6(&rows));
    c.artefact("table6.csv", &tables::csv_table6(&rows))
}

fn table7(c: &Ctx) -> Result<(), String> {
    let rows = tables::table7(c.set());
    println!("{}", tables::render_table7(&rows));
    c.artefact("table7.csv", &tables::csv_table7(&rows))
}

fn table8(c: &Ctx) -> Result<(), String> {
    let rows = tables::table8_from_set(c.set());
    println!("{}", tables::render_table8(&rows));
    c.artefact("table8.csv", &tables::csv_table8(&rows))
}

fn fig5(c: &Ctx) -> Result<(), String> {
    let series = figures::figure5();
    println!("{}", figures::render_figure5(&series));
    c.artefact("figure5.csv", &figures::csv_figure5(&series))
}

fn fig67(c: &Ctx) -> Result<(), String> {
    if !c.fig67_done.replace(true) {
        println!("{}", figures::render_figures_6_7(c.set()));
    }
    Ok(())
}

fn sensitivity(c: &Ctx) -> Result<(), String> {
    let latencies = [40, 200, 1000];
    let rows = extras::latency_sensitivity(c.scale, &latencies);
    show(extras::render_latency_sensitivity(&rows, &latencies))
}

fn integration(c: &Ctx) -> Result<(), String> {
    let rows = bench_suite::integration::integration(c.scale, 2)
        .map_err(|e| format!("integration: {e}"))?;
    show(bench_suite::integration::render_integration(&rows, 2))
}

fn fault_sensitivity(c: &Ctx) -> Result<(), String> {
    eprintln!(
        "running fault-sensitivity report ({:?} scale, seed {})...",
        c.scale, c.fault_plan.seed
    );
    let report = faults::fault_report(c.scale, c.fault_plan).map_err(|e| format!("faults: {e}"))?;
    println!("{}", faults::render_fault_report(&report));
    c.artefact("faults.csv", &faults::csv_fault_report(&report))?;
    c.artefact("faults_obs.json", &report.export_obs().to_json())
}

fn simcheck(c: &Ctx) -> Result<(), String> {
    use bench_suite::modelcheck;
    eprintln!(
        "running bounded schedule exploration ({:?} scale)...",
        c.scale
    );
    let rows = modelcheck::simcheck_report(c.scale);
    println!("{}", modelcheck::render_simcheck(&rows));
    c.artefact("simcheck.csv", &modelcheck::csv_simcheck(&rows))?;
    c.artefact(
        "simcheck_obs.json",
        &modelcheck::export_obs(&rows).to_json(),
    )?;
    if rows.iter().any(|r| r.violation.is_some()) {
        return Err("simcheck: invariant violation found".into());
    }
    Ok(())
}

fn speedup(c: &Ctx) -> Result<(), String> {
    use bench_suite::speedup;
    eprintln!(
        "running speculative speedup report ({:?} scale, seed {})...",
        c.scale, c.fault_plan.seed
    );
    let report =
        speedup::speedup_report(c.scale, c.fault_plan).map_err(|e| format!("speedup: {e}"))?;
    println!("{}", speedup::render_speedup_report(&report));
    c.artefact("speedup.csv", &speedup::csv_speedup_report(&report))?;
    c.artefact("speedup_obs.json", &report.export_obs().to_json())
}

fn tracespans(c: &Ctx) -> Result<(), String> {
    use bench_suite::spans;
    eprintln!("running traced benchmarks ({:?} scale)...", c.scale);
    let runs = spans::traced_runs(c.scale);
    let rows = spans::attribution(&runs);
    println!("{}", spans::render_attribution(&rows));
    println!("{}", spans::render_phases(&runs));
    println!("{}", spans::render_critical_paths(&runs, 5));
    c.artefact("tracespans.csv", &spans::csv_attribution(&rows))?;
    if let Some(path) = c.trace_out {
        spans::write_chrome_trace(&runs, path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn scale_sweep(c: &Ctx) -> Result<(), String> {
    use bench_suite::scale as sc;
    eprintln!("running sharded scale sweep ({:?} scale)...", c.scale);
    let rows = sc::sweep(c.scale);
    println!("{}", sc::render_scale(&rows));
    c.artefact("scale.csv", &sc::csv_scale(&rows))
}

fn tracepack(c: &Ctx) -> Result<(), String> {
    use bench_suite::tracepack as tp;
    eprintln!(
        "running packed-trace pipeline report ({:?} scale)...",
        c.scale
    );
    let report = tp::tracepack(c.set(), c.scale).map_err(|e| e.to_string())?;
    println!("{}", tp::render_tracepack(&report));
    c.artefact("tracepack.csv", &tp::csv_tracepack(&report))
}

fn target_named(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

/// The row a flag implies (`--trace-out`, `--faults`).
fn implied(name: &str) -> &'static Target {
    target_named(name).expect("flags imply targets the table has")
}

/// A flag only some rows read is an error beside selected targets that
/// all ignore it, not a silent no-op: one line naming the rows that do.
fn require_reader(
    targets: &[&Target],
    flag: &str,
    what: &str,
    reads: fn(&Target) -> bool,
) -> Result<(), String> {
    if targets.iter().any(|t| reads(t)) {
        return Ok(());
    }
    let readers: Vec<&str> = TARGETS
        .iter()
        .filter(|t| reads(t))
        .map(|t| t.name)
        .collect();
    Err(format!(
        "{flag}: no selected target {what} (only {} do)",
        readers.join(", ")
    ))
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
    println!(
        "usage: repro [--small] [--csv DIR] [--obs-json PATH [--obs-app NAME]] \
         [--trace-out PATH] \
         [--faults SPEC [--faults-seed N]] [{}|all ...]",
        names.join("|")
    );
    println!(
        "  --trace-out PATH   write the traced runs of the `tracespans` target \
         as Chrome trace-event JSON (Perfetto-loadable) to PATH"
    );
    println!(
        "  --faults SPEC   fault plan for the `faults` and `speedup` targets, e.g. \
         drop=0.01,dup=0.005,reorder=3 (keys: drop, dup, spike, reorder, spike_ns)"
    );
}

fn run(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut scale = Scale::Paper;
    let mut targets: Vec<&'static Target> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut obs_json: Option<PathBuf> = None;
    let mut obs_app = String::from("appbt");
    let mut fault_plan: Option<FaultPlan> = None;
    let mut faults_seed: Option<u64> = None;
    let mut trace_out: Option<PathBuf> = None;
    let all = || TARGETS.iter().filter(|t| t.in_all);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{a} needs a value; try --help"))
        };
        match a.as_str() {
            "--small" => scale = Scale::Small,
            "--csv" => csv_dir = Some(PathBuf::from(value()?)),
            "--obs-json" => obs_json = Some(PathBuf::from(value()?)),
            "--obs-app" => obs_app = value()?,
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--faults" => {
                let plan = FaultPlan::parse(&value()?).map_err(|e| format!("--faults: {e}"))?;
                fault_plan = Some(plan);
            }
            "--faults-seed" => {
                let v = value()?;
                let seed = v.parse();
                faults_seed = Some(seed.map_err(|_| format!("--faults-seed: `{v}` is not a u64"))?);
            }
            "--help" | "-h" => {
                print_help();
                return Ok(());
            }
            "all" => targets.extend(all()),
            other => targets.push(
                target_named(other)
                    .ok_or_else(|| format!("unknown target `{other}`; try --help"))?,
            ),
        }
    }

    if let Some(path) = &trace_out {
        // Fail on an unwritable destination before minutes of simulation.
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = parent.filter(|dir| !dir.is_dir()) {
            return Err(format!(
                "--trace-out: directory {} does not exist",
                dir.display()
            ));
        }
        // `--trace-out` alone implies the target that produces the trace.
        targets.push(implied("tracespans"));
    }

    // `--faults SPEC` alone runs the fault-sensitivity report; the
    // `faults` target without a spec uses a small default perturbation.
    if fault_plan.is_some() && targets.is_empty() && obs_json.is_none() {
        targets.push(implied("faults"));
    }
    // No target named and no report asked for: everything.
    if targets.is_empty() && obs_json.is_none() {
        targets.extend(all());
    }
    if fault_plan.is_some() || faults_seed.is_some() {
        let flag = "--faults / --faults-seed";
        require_reader(&targets, flag, "reads a fault plan", |t| t.reads_faults)?;
    }
    if let Some(dir) = &csv_dir {
        require_reader(&targets, "--csv", "writes an artefact", |t| t.writes_csv)?;
        // Like `--trace-out`: no simulating towards artefacts that cannot
        // be written.
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let mut fault_plan = fault_plan.unwrap_or_else(|| {
        FaultPlan::parse("drop=0.01,dup=0.005,reorder=3").expect("default fault spec")
    });
    if let Some(seed) = faults_seed {
        fault_plan = fault_plan.with_seed(seed);
    }

    if let Some(path) = &obs_json {
        let apps = bench_suite::report::report_apps();
        if !apps.contains(&obs_app) {
            return Err(format!(
                "unknown --obs-app `{obs_app}`; one of: {}",
                apps.join(", ")
            ));
        }
        eprintln!("running instrumented {obs_app} ({scale:?} scale)...");
        let snap = obs_report(scale, &obs_app);
        std::fs::write(path, snap.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {} ({} metrics)", path.display(), snap.len());
        // `--obs-json` alone runs only the report.
        if targets.is_empty() {
            return Ok(());
        }
    }
    // Run each target once however often it was named (`repro table5
    // table5`, or `table5 all`, or an implied push duplicating an explicit
    // one). Keep the first occurrence's position so output order follows
    // the command line.
    let mut seen = std::collections::HashSet::new();
    targets.retain(|t| seen.insert(t.name));

    // Figures 6/7 share the same trace set as the tables; generate once.
    let set = targets.iter().any(|t| t.needs_traces).then(|| {
        eprintln!("generating traces ({scale:?} scale)...");
        TraceSet::generate(scale)
    });
    let ctx = Ctx {
        scale,
        set: set.as_ref(),
        csv_dir: csv_dir.as_deref(),
        trace_out: trace_out.as_deref(),
        fault_plan: &fault_plan,
        fig67_done: Cell::new(false),
    };
    targets.into_iter().try_for_each(|t| (t.run)(&ctx))
}
