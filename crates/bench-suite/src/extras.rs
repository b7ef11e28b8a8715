//! Beyond the numbered artefacts: the paper's prose claims (§5, §6.2, §7)
//! and two instruments of the open questions — which engine makes the
//! tables ([`engines`]) and how far a number moves with the workload seed
//! ([`seed_robustness`]).

use crate::baseline::BareRun;
use crate::contenders::Race;
use crate::tables::DEPTH1;
use crate::traces::{single_trace, Scale, TraceSet};
use cosmos::eval::evaluate_cosmos;
use simx::SystemConfig;
use stache::ProtocolConfig;
use std::fmt::Write as _;

/// The network latencies §5's sweep simulates beside the paper's own
/// (Table 3's 40 ns), whose column is the trace set's.
const OTHER_LATENCIES_NS: [u64; 2] = [200, 1000];

/// §5's claim: accuracy is largely insensitive to network latency (40 ns
/// vs 1 µs "hardly changes" the rates). Returns, per benchmark, the
/// overall depth-1 accuracy at the paper's latency, from a race of
/// [`DEPTH1`], then at each of the other latencies, one walk each.
pub fn latency_sensitivity(race: &Race, scale: Scale) -> Vec<(String, Vec<f64>)> {
    let names: Vec<&str> = race.apps().collect();
    // One sweep cell per (benchmark, latency) — each is an independent
    // simulation, so the whole grid parallelises.
    let cols = OTHER_LATENCIES_NS.len();
    let cells = crate::par::sweep(names.len() * cols, |i| {
        let sys = SystemConfig::paper().with_network_latency(OTHER_LATENCIES_NS[i % cols]);
        let t = single_trace(names[i / cols], scale, ProtocolConfig::paper(), sys)
            .expect("suite benchmark");
        evaluate_cosmos(&t, 1, 0).overall.percent()
    });
    names
        .iter()
        .zip(cells.chunks(cols))
        .map(|(app, walked)| {
            let paper = race.report(DEPTH1, app).overall.percent();
            let rates = std::iter::once(paper).chain(walked.iter().copied());
            (app.to_string(), rates.collect())
        })
        .collect()
}

/// Renders the latency sweep.
pub fn render_latency_sensitivity(rows: &[(String, Vec<f64>)]) -> String {
    let mut out =
        String::from("Sensitivity: overall depth-1 accuracy (%) vs network latency (§5)\n");
    let _ = write!(out, "{:<14}", "benchmark");
    let paper = SystemConfig::paper().network_latency_ns;
    for lat in std::iter::once(paper).chain(OTHER_LATENCIES_NS) {
        let _ = write!(out, " {:>9}", format!("{lat} ns"));
    }
    out.push('\n');
    for (app, rates) in rows {
        let _ = write!(out, "{app:<14}");
        for r in rates {
            let _ = write!(out, " {r:>9.1}");
        }
        out.push('\n');
    }
    out
}

/// §6.2's time-to-adapt: iterations until the trailing-window accuracy
/// reaches 95% of steady state, from a race of [`DEPTH1`] (depth 1, no
/// filter).
pub fn adaptation(race: &Race) -> Vec<(String, Option<u32>)> {
    race.apps()
        .map(|app| {
            let report = race.report(DEPTH1, app);
            (app.to_string(), report.time_to_adapt(4, 0.95))
        })
        .collect()
}

/// Renders the adaptation table.
pub fn render_adaptation(rows: &[(String, Option<u32>)]) -> String {
    let mut out = String::from(
        "Time to adapt (§6.2): first iteration whose trailing window reaches\n\
         95% of steady-state accuracy (depth 1). Paper: <20 (unstructured,\n\
         barnes), ~30 (appbt, moldyn), ~300 (dsmc).\n",
    );
    for (app, at) in rows {
        let v = at.map(|i| i.to_string()).unwrap_or_else(|| "-".to_string());
        let _ = writeln!(out, "{app:<14} {v:>6}");
    }
    out
}

/// [`comparison`]'s field (labels of
/// [`CONTENDERS`](crate::contenders::CONTENDERS)).
pub const COMPARISON: [&str; 8] = [
    "cosmos-d1",
    "cosmos-d3",
    "migratory",
    "self-inval",
    "rmw",
    "composition",
    "last-tuple",
    "most-common",
];

/// §7's comparison: Cosmos (depths 1 and 3) against every directed
/// predictor and the baselines, overall accuracy per benchmark, from a
/// race of [`COMPARISON`].
pub fn comparison(race: &Race) -> Vec<(String, Vec<(String, f64)>)> {
    race.apps()
        .map(|app| {
            let cells = COMPARISON
                .iter()
                .map(|label| {
                    let r = race.report(label, app);
                    (label.to_string(), r.overall.percent())
                })
                .collect();
            (app.to_string(), cells)
        })
        .collect()
}

/// Renders the §7 comparison.
pub fn render_comparison(rows: &[(String, Vec<(String, f64)>)]) -> String {
    let mut out =
        String::from("Comparison (§7): overall accuracy (%), Cosmos vs directed predictors\n");
    if let Some((_, first)) = rows.first() {
        let _ = write!(out, "{:<14}", "benchmark");
        for (name, _) in first {
            let _ = write!(out, " {name:>12}");
        }
        out.push('\n');
    }
    for (app, cells) in rows {
        let _ = write!(out, "{app:<14}");
        for (_, v) in cells {
            let _ = write!(out, " {v:>12.1}");
        }
        out.push('\n');
    }
    out
}

/// Serialized vs concurrent engine: per-benchmark messages, depth-1
/// accuracy and execution time of the five benchmarks on both execution
/// models — the walk's from the shared trace `set` and its race of
/// [`DEPTH1`], the event engine's from the clean half of the baseline set
/// (`bare`, [`crate::baseline`]). The serialized engine is the calibrated
/// default; the concurrent engine overlaps independent transactions,
/// queues requests at busy blocks, and exhibits the upgrade race — this
/// study shows how much any of that moves the paper's numbers.
pub fn engines(set: &TraceSet, race: &Race, bare: &[BareRun]) -> String {
    let mut out = String::from(
        "Engines: serialized (calibrated default) vs concurrent\n\
         (message-level DES with request queueing and races)\n",
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>8} {:>12} | {:>10} {:>8} {:>12}",
        "benchmark", "ser msgs", "ser d1", "ser time", "con msgs", "con d1", "con time"
    );
    for (serial, conc) in set.traces().iter().zip(bare) {
        let app = &serial.meta().app;
        let ser_acc = race.report(DEPTH1, app).overall.percent();
        let ser_ns = serial.records().iter().map(|r| r.time_ns).max();
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>7.1}% {:>10}us | {:>10} {:>7.1}% {:>10}us",
            app,
            serial.len(),
            ser_acc,
            ser_ns.unwrap_or(0) / 1000,
            conc.summary.messages,
            conc.accuracy[0],
            conc.summary.execution_time_ns / 1000,
        );
    }
    out.push_str(
        "(accuracies should roughly agree: per-block orders are what Cosmos\n\
         learns, and both engines serialize per block)\n",
    );
    out
}

/// Seed robustness: the workload generators draw every stochastic choice
/// from a seed; if the reproduced shapes depended on seed luck they would
/// be worthless. Re-derives Table 5's overall column under different
/// seeds.
pub fn seed_robustness(scale: Scale) -> String {
    use workloads::{Appbt, Barnes, Dsmc, Moldyn, Unstructured, Workload};
    let small = matches!(scale, Scale::Small);
    // The five benchmarks at this scale, in Table 4 row order, reseeded.
    macro_rules! reseeded {
        ($seed:expr; $($w:ident),*) => {
            vec![$(Box::new($w {
                seed: $seed,
                ..if small { $w::small() } else { $w::default() }
            }) as Box<dyn Workload>),*]
        };
    }
    let suite_with_seed = |seed: u64| reseeded!(seed; Appbt, Barnes, Dsmc, Moldyn, Unstructured);
    let seeds = [0xC05D05u64, 1, 424242];
    let mut out = String::from(
        "Seed robustness: Table 5's overall accuracy (%) at depths 1 and 3\n\
         under three unrelated workload seeds\n",
    );
    let _ = write!(out, "{:<14}", "benchmark");
    for seed in seeds {
        let _ = write!(out, " | {:^15}", format!("seed {seed:#x}"));
    }
    out.push('\n');
    let _ = write!(out, "{:<14}", "");
    for _ in seeds {
        let _ = write!(out, " | {:>6} {:>6} ", "d1", "d3");
    }
    out.push('\n');
    let suite = scale.suite();
    let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
    // (benchmark, seed) grid on the shared worker pool — 15 full
    // simulations, all independent.
    let cols = seeds.len();
    let cells = crate::par::sweep(names.len() * cols, |i| {
        let (name, seed) = (names[i / cols], seeds[i % cols]);
        let mut w = suite_with_seed(seed).remove(i / cols);
        let t = workloads::run_to_trace(&mut *w, ProtocolConfig::paper(), SystemConfig::paper())
            .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
        (
            evaluate_cosmos(&t, 1, 0).overall.percent(),
            evaluate_cosmos(&t, 3, 0).overall.percent(),
        )
    });
    for (r, name) in names.iter().enumerate() {
        let _ = write!(out, "{name:<14}");
        for (d1, d3) in &cells[r * cols..(r + 1) * cols] {
            let _ = write!(out, " | {d1:>5.1} {d3:>6.1} ");
        }
        out.push('\n');
    }
    out.push_str("(the shapes are structural, not seed luck)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contenders::race;

    #[test]
    fn latency_sweep_is_insensitive_at_small_scale() {
        let set = TraceSet::generate(Scale::Small);
        let rows = latency_sensitivity(&race(&set, &[DEPTH1]), Scale::Small);
        assert_eq!(rows.len(), 5);
        for (app, rates) in &rows {
            // "hardly changes": allow a few points of drift.
            assert!(
                rates[1..].iter().all(|r| (rates[0] - r).abs() < 6.0),
                "{app} drifted: {rates:?}"
            );
        }
        let s = render_latency_sensitivity(&rows);
        assert!(s.contains("   40 ns") && s.contains("1000 ns"));
    }

    #[test]
    fn adaptation_reports_every_benchmark() {
        let set = TraceSet::generate(Scale::Small);
        let rows = adaptation(&race(&set, &[DEPTH1]));
        assert_eq!(rows.len(), 5);
        assert!(render_adaptation(&rows).contains("dsmc"));
    }

    #[test]
    fn comparison_ranks_cosmos_above_baselines_overall() {
        let set = TraceSet::generate(Scale::Small);
        let rows = comparison(&race(&set, &COMPARISON));
        let mean = |idx: usize| -> f64 {
            rows.iter().map(|(_, cells)| cells[idx].1).sum::<f64>() / rows.len() as f64
        };
        let cosmos_d3 = mean(1);
        let composition = mean(5);
        let last = mean(6);
        assert!(
            cosmos_d3 > composition,
            "cosmos {cosmos_d3} vs composition {composition}"
        );
        assert!(cosmos_d3 > last);
        assert!(render_comparison(&rows).contains("cosmos-d3"));
    }
}
