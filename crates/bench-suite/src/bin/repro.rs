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

use bench_suite::baseline::{bare_runs, BareRun};
use bench_suite::contenders::{race, Race};
use bench_suite::traces::TraceError;
use bench_suite::{extras, faults, figures, obs_report, tables, Scale, TraceSet};
use simx::{FaultPlan, SystemConfig};
use std::cell::{Cell, OnceCell};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What a target's `run` sees of the command line and of the shared runs,
/// each dropped once no target left to run reads it ([`Ctx::release`]).
struct Ctx<'a> {
    scale: Scale,
    /// The shared trace set, while a `traced` target is left to run.
    set: Option<TraceSet>,
    /// The union of the selected targets' fields, raced once.
    race: Race,
    /// The baseline set's clean half and its half under `fault_plan`,
    /// each simulated by the first row that reads it.
    bare: [OnceCell<Result<Vec<BareRun>, TraceError>>; 2],
    /// Whether the clean half records spans: a selected row reads them.
    spans: bool,
    csv_dir: Option<&'a Path>,
    trace_out: Option<&'a Path>,
    fault_plan: &'a FaultPlan,
    /// Figures 6 and 7 are one rendering: whichever target comes first
    /// prints it.
    fig67_done: Cell<bool>,
}

impl Ctx<'_> {
    /// The baseline set's clean half, or its half under the fault plan.
    fn bare(&self, faulted: bool) -> Result<&[BareRun], TraceError> {
        let (plan, spans) = (faulted.then_some(self.fault_plan), self.spans && !faulted);
        let runs =
            self.bare[usize::from(faulted)].get_or_init(|| bare_runs(self.scale, plan, spans));
        runs.as_deref().map_err(Clone::clone)
    }

    /// Drops each shared artefact no target in `rest` reads.
    fn release(&mut self, rest: &[&Target]) {
        if !rest.iter().any(|t| t.needs_traces) {
            self.set = None;
        }
        if rest.iter().all(|t| t.field.is_empty()) {
            self.race = Race::default();
        }
        if !rest.iter().any(|t| t.reads_baseline) {
            self.bare[0].take();
        }
        if !rest.iter().any(|t| t.reads_faults) {
            self.bare[1].take();
        }
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

/// One `repro` target. The usage line, `all`, the shared-trace decision,
/// the race, the baseline set, when each is dropped, and the dispatch all
/// read this one declaration.
struct Target {
    name: &'static str,
    /// Whether `all` includes it.
    in_all: bool,
    /// The contenders whose reports over the shared trace set it reads
    /// (labels of `bench_suite::contenders::CONTENDERS`).
    field: &'static [&'static str],
    /// Whether it reads the shared five-benchmark trace set itself.
    needs_traces: bool,
    /// Whether it reads the baseline set's clean half.
    reads_baseline: bool,
    /// Whether it reads that half's spans.
    reads_spans: bool,
    /// Whether it reads the `--faults` / `--faults-seed` plan, and with it
    /// the baseline set's half run under the plan.
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
            field: &[],
            needs_traces: false,
            reads_baseline: false,
            reads_spans: false,
            reads_faults: false,
            writes_csv: false,
            run,
        }
    }

    const fn races(mut self, field: &'static [&'static str]) -> Self {
        self.field = field;
        self
    }

    const fn traced(mut self) -> Self {
        self.needs_traces = true;
        self
    }

    const fn baseline(mut self) -> Self {
        self.reads_baseline = true;
        self
    }

    const fn spans(mut self) -> Self {
        self.reads_spans = true;
        self.baseline()
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
    Target::new("table5", table5).races(&tables::BY_DEPTH).csv(),
    Target::new("table6", table6)
        .races(tables::TABLE6_FIELD.as_flattened())
        .csv(),
    Target::new("table7", table7).races(&tables::BY_DEPTH).csv(),
    Target::new("table8", table8).races(&[tables::DEPTH1]).csv(),
    Target::new("fig5", fig5).csv(),
    Target::new("fig6", fig67).races(&[tables::DEPTH1]),
    Target::new("fig7", fig67).races(&[tables::DEPTH1]),
    Target::new("fig8", |_| show(figures::render_figure8())),
    Target::new("sensitivity", sensitivity),
    Target::new("adaptation", |c| {
        show(extras::render_adaptation(&extras::adaptation(&c.race)))
    })
    .races(&[tables::DEPTH1]),
    Target::new("comparison", |c| {
        show(extras::render_comparison(&extras::comparison(&c.race)))
    })
    .races(&extras::COMPARISON),
    Target::new("engines", |c| {
        let set = c.set.as_ref().expect("row is marked `traced`");
        let bare = c.bare(false).map_err(|e| format!("engines: {e}"))?;
        show(extras::engines(set, &c.race, bare))
    })
    .races(&[tables::DEPTH1])
    .traced()
    .baseline(),
    Target::new("seeds", |c| show(extras::seed_robustness(c.scale))),
    Target::new("faults", fault_sensitivity)
        .baseline()
        .faulted()
        .csv(),
    Target::new("simcheck", simcheck).csv(),
    Target::new("accel", acceleration)
        .baseline()
        .faulted()
        .csv(),
    Target::new("tracespans", tracespans).spans().csv(),
    Target::new("scale", scale_sweep).csv().explicit_only(),
    Target::new("tracepack", tracepack)
        .traced()
        .csv()
        .explicit_only(),
];

fn table5(c: &Ctx) -> Result<(), String> {
    let rows = tables::table5(&c.race);
    println!("{}", tables::render_table5(&rows));
    c.artefact("table5.csv", &tables::csv_table5(&rows))
}

fn table6(c: &Ctx) -> Result<(), String> {
    let rows = tables::table6(&c.race);
    println!("{}", tables::render_table6(&rows));
    c.artefact("table6.csv", &tables::csv_table6(&rows))
}

fn table7(c: &Ctx) -> Result<(), String> {
    let rows = tables::table7(&c.race);
    println!("{}", tables::render_table7(&rows));
    c.artefact("table7.csv", &tables::csv_table7(&rows))
}

fn table8(c: &Ctx) -> Result<(), String> {
    let rows = tables::table8(&c.race);
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
        println!("{}", figures::render_figures_6_7(&c.race));
    }
    Ok(())
}

fn sensitivity(c: &Ctx) -> Result<(), String> {
    let latencies = [40, 200, 1000];
    let rows = extras::latency_sensitivity(c.scale, &latencies);
    show(extras::render_latency_sensitivity(&rows, &latencies))
}

fn fault_sensitivity(c: &Ctx) -> Result<(), String> {
    eprintln!(
        "running fault-sensitivity report ({:?} scale, seed {})...",
        c.scale, c.fault_plan.seed
    );
    let err = |e| format!("faults: {e}");
    let (bare, faulted) = (c.bare(false).map_err(err)?, c.bare(true).map_err(err)?);
    let report = faults::fault_report(bare, faulted, c.fault_plan);
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

fn acceleration(c: &Ctx) -> Result<(), String> {
    use bench_suite::accel;
    eprintln!(
        "running acceleration table ({:?} scale, seed {})...",
        c.scale, c.fault_plan.seed
    );
    let err = |e| format!("accel: {e}");
    let (bare, faulted) = (c.bare(false).map_err(err)?, c.bare(true).map_err(err)?);
    let rows = accel::accel(c.scale, c.fault_plan, bare, faulted).map_err(err)?;
    println!("{}", accel::render_accel(&rows, c.fault_plan));
    c.artefact("accel.csv", &accel::csv_accel(&rows))?;
    c.artefact("accel_obs.json", &accel::export_obs(&rows).to_json())
}

fn tracespans(c: &Ctx) -> Result<(), String> {
    use bench_suite::spans;
    let runs = c.bare(false).map_err(|e| format!("tracespans: {e}"))?;
    let rows = spans::attribution(runs);
    println!("{}", spans::render_attribution(&rows));
    println!("{}", spans::render_phases(runs));
    println!("{}", spans::render_critical_paths(runs, 5));
    c.artefact("tracespans.csv", &spans::csv_attribution(&rows))?;
    if let Some(path) = c.trace_out {
        std::fs::write(path, spans::chrome_trace(runs))
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
    let set = c.set.as_ref().expect("row is marked `traced`");
    let report = tp::tracepack(set, c.scale).map_err(|e| e.to_string())?;
    println!("{}", tp::render_tracepack(&report));
    c.artefact("tracepack.csv", &tp::csv_tracepack(&report))
}

/// The union of the targets' fields, each label once: what `repro`
/// races, so a (label, trace) pair is replayed once however many
/// selected targets read it.
fn field(targets: &[&Target]) -> Vec<&'static str> {
    let mut labels: Vec<_> = targets.iter().flat_map(|t| t.field).copied().collect();
    labels.sort_unstable();
    labels.dedup();
    labels
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
        "  --faults SPEC   fault plan for the `faults` and `accel` targets, e.g. \
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

    // Every accuracy view reads one race over one trace set; generate and
    // race once.
    let labels = field(&targets);
    let set = (!labels.is_empty() || targets.iter().any(|t| t.needs_traces)).then(|| {
        eprintln!("generating traces ({scale:?} scale)...");
        TraceSet::generate(scale)
    });
    let raced = set.as_ref().map(|set| race(set, &labels));
    let mut ctx = Ctx {
        scale,
        set,
        race: raced.unwrap_or_default(),
        bare: Default::default(),
        spans: targets.iter().any(|t| t.reads_spans),
        csv_dir: csv_dir.as_deref(),
        trace_out: trace_out.as_deref(),
        fault_plan: &fault_plan,
        fig67_done: Cell::new(false),
    };
    ctx.release(&targets);
    for (i, t) in targets.iter().enumerate() {
        (t.run)(&ctx)?;
        ctx.release(&targets[i + 1..]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_of(names: &[&str]) -> Vec<&'static str> {
        let targets: Vec<&Target> = names.iter().map(|n| target_named(n).unwrap()).collect();
        field(&targets)
    }

    #[test]
    fn each_contender_is_raced_once_however_many_targets_read_it() {
        // Over the five traces: `all` is 70 replays, Table 5 alone 20.
        let all: Vec<&str> = TARGETS
            .iter()
            .filter(|t| t.in_all)
            .map(|t| t.name)
            .collect();
        assert_eq!(field_of(&all).len() * 5, 70);
        assert_eq!(field_of(&["table5"]), tables::BY_DEPTH);
        assert_eq!(field_of(&["table5", "table7", "fig6", "fig7"]).len(), 4);
        assert_eq!(field_of(&["table6", "comparison"]).len(), 13);
        // Only the streamed replay reads the traces without a race.
        for t in TARGETS
            .iter()
            .filter(|t| t.needs_traces && t.field.is_empty())
        {
            assert_eq!(t.name, "tracepack");
        }
    }

    /// What the named targets simulate over the five benchmarks, as
    /// (event-engine runs, walks): the trace set and each baseline half
    /// once however many rows read them, plus each row's own runs.
    fn simulations(names: &[&str]) -> (usize, usize) {
        let targets: Vec<&Target> = names.iter().map(|n| target_named(n).unwrap()).collect();
        let reads = |f: fn(&Target) -> bool| usize::from(targets.iter().any(|t| f(t)));
        let set = usize::from(!field(&targets).is_empty()) | reads(|t| t.needs_traces);
        let halves = reads(|t| t.reads_baseline) + reads(|t| t.reads_faults);
        // Per benchmark: accel's action sets, clean and faulted; the
        // latency and seed sweeps' three walks each.
        let own = |t: &&Target| match t.name {
            "accel" => (2 * bench_suite::accel::ACTION_SETS.len(), 0),
            "sensitivity" | "seeds" => (0, 3),
            _ => (0, 0),
        };
        targets
            .iter()
            .map(own)
            .fold((5 * halves, 5 * set), |(e, w), (oe, ow)| {
                (e + 5 * oe, w + 5 * ow)
            })
    }

    #[test]
    fn each_bare_run_is_simulated_once_however_many_targets_read_it() {
        let all: Vec<&str> = TARGETS
            .iter()
            .filter(|t| t.in_all)
            .map(|t| t.name)
            .collect();
        // 160 (120 event-engine, 40 walk) when `faults`, `accel`,
        // `tracespans` and `engines` each ran their own bare runs.
        assert_eq!(simulations(&all), (100, 35));
        // No target alone simulates more than it did then.
        let then = [
            ("engines", (5, 5)),
            ("faults", (10, 0)),
            ("accel", (100, 0)),
            ("tracespans", (5, 0)),
        ];
        for (name, (event, walk)) in then {
            let (e, w) = simulations(&[name]);
            assert!(e <= event && w <= walk, "{name}: {e} + {w} runs");
        }
    }
}
