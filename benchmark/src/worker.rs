//! One workload in one process: set-up, untraced passes for the
//! end-to-end numbers, then (with `--trace 1`) one traced pass and the
//! traced run's extra cells for the per-layer ledger.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::metrics::{self, MetricDef, Workload, END_TO_END, PER_LAYER, SIMULATED};
use crate::pipeline::{self, Pass, PassData, SCALE1024, STREAM64};
use crate::span::{Tracer, PASS};
use crate::stats::{ratio, summarize};

/// Where the benchmark writes: the packed stream of `stream64`, the
/// Chrome traces, `result.json`. Inside the checkout, ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up repetitions per run; `setup_s` is their lower quartile.
const SETUP_REPS: usize = 41;
/// Spans the traced pass has room for before its `Vec` must grow
/// (`stream64` records about 62 000).
const SPAN_CAPACITY: usize = 1 << 17;

/// What set-up leaves behind for the passes.
pub struct Prepared {
    /// The packed-stream file of `stream64`, created empty.
    stream_path: Option<PathBuf>,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(path) = &self.stream_path {
            // Best effort: a leftover file is truncated by the next run.
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Everything up to the first timed pass: workload construction and
/// temp-file creation. Process start is the remaining part of `setup_s`
/// and is measured by running this in a child (`--setup-only`).
pub fn setup(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let dir = out_dir().join("tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut stream_path = None;
    match workload {
        Workload::Suite16 | Workload::Spec16 => {
            std::hint::black_box(pipeline::paper_generators(seed));
        }
        Workload::Stream64 => {
            let path = dir.join(format!("stream64_{}.cpk", std::process::id()));
            std::fs::File::create(&path)
                .map_err(|e| format!("creating {}: {e}", path.display()))?;
            stream_path = Some(path);
        }
        Workload::Scale1024 => {}
    }
    Ok(Prepared { stream_path })
}

fn run_pass(pass: &mut Pass, args: &Args, prepared: &Prepared) -> Result<(), String> {
    match args.workload {
        Workload::Suite16 => pipeline::suite16(pass, args.seed),
        Workload::Spec16 => pipeline::spec16(pass, args.seed),
        Workload::Stream64 => {
            let path = prepared
                .stream_path
                .as_deref()
                .expect("set-up made the file");
            pipeline::stream_on_disk(pass, STREAM64, path)
        }
        Workload::Scale1024 => pipeline::stream_in_memory(pass, SCALE1024),
    }
}

/// How many pass-lengths the traced part of a `--trace 1` run needs: the
/// traced pass itself plus the workload's extra cell.
fn traced_pass_lengths(workload: Workload) -> f64 {
    match workload {
        Workload::Spec16 => 1.6,    // + the five never-firing cells
        Workload::Scale1024 => 2.0, // + the engine half again at shards 2
        Workload::Suite16 | Workload::Stream64 => 1.0,
    }
}

/// `setup_s`: wall time of a child that starts, sets up and exits.
fn measure_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let status = Command::new(&exe)
            .args(["--setup-only", "--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("starting the set-up child: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("set-up child failed: {status}"));
        }
    }
    Ok(summarize(&times).low)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The run's output checks, pooled over passes.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Takes a finished pass's checks and holds its outputs against the
    /// first pass's: digest, simulated results and counts must repeat.
    fn absorb(&mut self, pass: &mut Pass, label: &str, first: Option<&PassData>) {
        if let Some(first) = first {
            let data = &pass.data;
            let differs =
                (data != first).then(|| format!("{data:?} differs from pass 1's {first:?}"));
            pass.check(differs.is_none(), || differs.unwrap_or_default());
        }
        self.attempted += pass.checks;
        self.failures
            .extend(pass.failures.drain(..).map(|f| format!("{label}: {f}")));
    }
}

fn simulated_value(name: &str, workload: Workload, d: &PassData) -> f64 {
    if !metrics::simulated_applies(name, workload) {
        return 0.0;
    }
    match name {
        "sim_exec_ms" => d.exec_ns as f64 / 1e6,
        "accuracy_pct" => d.accuracy.percent(),
        "paper_error_pp" => d.paper_error_pp(),
        "sim_speedup" => d.sim_speedup(),
        "packed_bytes_per_msg" => ratio(d.packed_bytes as f64, d.packed_records as f64),
        _ => unreachable!("{name} is not a simulated metric"),
    }
}

/// Numbers of the traced run that are not span self times or counts.
#[derive(Default)]
struct TracedExtras {
    par2_busy_s: f64,
    /// Engine seconds of the never-firing cells, where they ran.
    overlay_engine_s: Option<f64>,
    residual_s: f64,
    overhead_pct: f64,
    spans: usize,
}

fn per_layer_value(
    name: &str,
    busy: &BTreeMap<&'static str, f64>,
    counts: &BTreeMap<&'static str, u64>,
    x: &TracedExtras,
) -> f64 {
    let b = |layer: &str| busy.get(layer).copied().unwrap_or(0.0);
    let c = |key: &str| counts.get(key).copied().unwrap_or(0) as f64;
    match name {
        "simx.shard.par2_busy_s" => x.par2_busy_s,
        "simx.shard.par2_efficiency" => ratio(b("simx.shard"), 2.0 * x.par2_busy_s),
        "accel.overlay.busy_s" => x
            .overlay_engine_s
            .map_or(0.0, |overlay| overlay - b("simx.concurrent")),
        "accel.spec.commit_ratio" => ratio(c("accel.spec.confirmed"), c("accel.spec.pushes")),
        "cosmos.score.hit_ratio" => ratio(c("cosmos.score.hits"), c("cosmos.score.records")),
        "bench.residual_s" => x.residual_s,
        "bench.trace_overhead_pct" => x.overhead_pct,
        "bench.spans" => x.spans as f64,
        _ => {
            if let Some(layer) = name.strip_suffix(".busy_s") {
                b(layer)
            } else if let Some((layer, what)) = name
                .strip_suffix("_per_s")
                .and_then(|stem| stem.rsplit_once('.'))
            {
                let what = if what == "recs" { "records" } else { what };
                ratio(c(&format!("{layer}.{what}")), b(layer))
            } else {
                c(name)
            }
        }
    }
}

fn print_metric(workload: Workload, m: &MetricDef, value: f64) {
    println!("{workload} {} {value} {}", m.name, m.unit);
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The traced part of a `--trace 1` run: one pass with the tracer on,
/// its Chrome trace, then the workload's extra cell. Returns the
/// per-layer ledger.
fn traced_run(
    args: &Args,
    prepared: &Prepared,
    first: &PassData,
    untraced_median_s: f64,
    checks: &mut Checks,
) -> Result<Vec<(&'static MetricDef, f64)>, String> {
    let w = args.workload;
    let mut pass = Pass::new(Tracer::on(SPAN_CAPACITY));
    let open = pass.tr.begin(PASS);
    run_pass(&mut pass, args, prepared)?;
    pass.tr.end(open);
    checks.absorb(&mut pass, "traced pass", Some(first));

    let busy = pass.tr.self_seconds();
    let root = pass.tr.spans()[0];
    let traced_wall = (root.end_ns - root.start_ns) as f64 / 1e9;
    let layers: f64 = metrics::layer_spans().filter_map(|l| busy.get(l)).sum();
    let mut extras = TracedExtras {
        residual_s: traced_wall - layers,
        overhead_pct: 100.0 * (traced_wall / untraced_median_s - 1.0),
        spans: pass.tr.spans().len(),
        ..TracedExtras::default()
    };
    let path = out_dir().join(format!("trace_{w}.json"));
    std::fs::write(&path, pass.tr.chrome_json(w.name(), args.seed))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    // The extra cells run after the traced pass and outside its span.
    let mut extra = Pass::new(Tracer::off());
    match w {
        Workload::Spec16 => {
            let overlay = pipeline::spec16_overlay(&mut extra, args.seed, &first.cell_digests)?;
            extras.overlay_engine_s = Some(overlay);
        }
        Workload::Scale1024 => {
            extras.par2_busy_s =
                pipeline::shard_cell(&mut extra, SCALE1024, 2, first.cell_digests[0])?;
        }
        Workload::Suite16 | Workload::Stream64 => {}
    }
    checks.absorb(&mut extra, "extra cell", None);

    println!("{w} traced_wall_s {traced_wall} s");
    let mut ledger = Vec::with_capacity(PER_LAYER.len() + SIMULATED.len());
    for m in &PER_LAYER {
        let v = per_layer_value(m.name, &busy, &first.counts, &extras);
        print_metric(w, m, v);
        ledger.push((m, v));
    }
    ledger.extend(
        SIMULATED
            .iter()
            .map(|m| (m, simulated_value(m.name, w, first))),
    );
    Ok(ledger)
}

/// Runs the workload and prints its metrics; `Ok(false)` when an output
/// check failed.
pub fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let setup_s = if args.trace {
        None
    } else {
        Some(measure_setup(args)?)
    };
    let prepared = setup(w, args.seed)?;

    // Untraced passes: one `Instant` pair each, closed loop, no warm-up
    // (`repro` is a batch tool; its users pay the cold cost every run).
    // Another pass starts only if it should end inside the budget.
    let reserve = if args.trace {
        traced_pass_lengths(w)
    } else {
        0.0
    };
    let mut checks = Checks::default();
    let mut first: Option<PassData> = None;
    let mut walls = Vec::new();
    let started = Instant::now();
    loop {
        let mut pass = Pass::new(Tracer::off());
        let t0 = Instant::now();
        run_pass(&mut pass, args, &prepared)?;
        walls.push(t0.elapsed().as_secs_f64());
        checks.absorb(&mut pass, &format!("pass {}", walls.len()), first.as_ref());
        first.get_or_insert(pass.data);
        let longest = summarize(&walls).max;
        if started.elapsed().as_secs_f64() + longest * (1.0 + reserve) > args.seconds {
            break;
        }
    }
    let first = first.expect("at least one pass ran");
    let wall = summarize(&walls);
    let rss = peak_rss_mb()?;

    if w == Workload::Suite16 {
        let mut reference = Pass::new(Tracer::off());
        pipeline::suite16_reference(&mut reference, args.seed, &first)?;
        checks.absorb(&mut reference, "reference", None);
    }

    let mut reported: Vec<(&MetricDef, f64)> = Vec::new();
    if let Some(setup_s) = setup_s {
        let values = [setup_s, wall.low, first.msgs as f64 / wall.low, rss];
        for ((m, _), v) in END_TO_END.iter().zip(values) {
            print_metric(w, m, v);
            reported.push((m, v));
        }
        println!("{w} wall_median_s {} s", wall.median);
        println!("{w} wall_min_s {} s", wall.min);
        println!("{w} wall_max_s {} s", wall.max);
    }
    println!("{w} passes {} count", wall.n);
    for m in &SIMULATED {
        if metrics::simulated_applies(m.name, w) {
            print_metric(w, m, simulated_value(m.name, w, &first));
        }
    }
    println!("{w} digest {:016x} hex", first.digest.value());

    if args.trace {
        reported = traced_run(args, &prepared, &first, wall.median, &mut checks)?;
    }

    let failed = checks.failures.len() as u64;
    for f in &checks.failures {
        eprintln!("{w}: FAILED CHECK: {f}");
    }
    println!("{w} ops {} count", checks.attempted);
    println!("{w} failed_ops {failed} count");
    println!(
        "{w} fail_ratio {} ratio",
        ratio(failed as f64, checks.attempted as f64)
    );
    println!(
        "{}",
        result_line(failed == 0, checks.attempted, failed, &reported)
    );
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_values_come_from_counts_busy_time_and_extras() {
        let busy = BTreeMap::from([("simx.shard", 2.0), ("trace.pack_encode", 0.5)]);
        let counts = BTreeMap::from([
            ("simx.shard.msgs", 100u64),
            ("simx.shard.accesses", 400),
            ("trace.pack_encode.records", 50),
            ("cosmos.score.records", 10),
            ("cosmos.score.hits", 4),
            ("accel.spec.pushes", 8),
            ("accel.spec.confirmed", 6),
        ]);
        let x = TracedExtras {
            par2_busy_s: 1.25,
            ..TracedExtras::default()
        };
        let v = |name| per_layer_value(name, &busy, &counts, &x);
        assert_eq!(v("simx.shard.busy_s"), 2.0);
        assert_eq!(v("simx.shard.msgs"), 100.0);
        assert_eq!(v("simx.shard.msgs_per_s"), 50.0);
        assert_eq!(v("simx.shard.accesses_per_s"), 200.0);
        assert_eq!(v("trace.pack_encode.recs_per_s"), 100.0);
        assert_eq!(v("cosmos.score.hit_ratio"), 0.4);
        assert_eq!(v("accel.spec.commit_ratio"), 0.75);
        assert_eq!(v("simx.shard.par2_efficiency"), 0.8);
        assert_eq!(v("simx.machine.busy_s"), 0.0, "a layer never entered");
        assert_eq!(v("simx.machine.msgs_per_s"), 0.0);
        assert_eq!(v("accel.overlay.busy_s"), 0.0, "no overlay cell ran");
        // Every declared metric resolves without panicking.
        for m in &PER_LAYER {
            assert!(v(m.name).is_finite(), "{}", m.name);
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let (m, _) = &END_TO_END[1];
        let line = result_line(true, 12, 0, &[(m, 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
