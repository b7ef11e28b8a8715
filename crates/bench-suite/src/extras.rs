//! Beyond the numbered artefacts: the paper's prose claims (§5, §6.2, §7)
//! and two instruments of the open questions — which engine makes the
//! tables ([`engines`]) and how far a number moves with the workload seed
//! ([`seed_robustness`]).

use crate::contenders::{by_app, race};
use crate::traces::{single_trace, Scale, TraceSet};
use cosmos::eval::evaluate_cosmos;
use simx::SystemConfig;
use stache::ProtocolConfig;
use std::fmt::Write as _;

/// §5's claim: accuracy is largely insensitive to network latency (40 ns
/// vs 1 µs "hardly changes" the rates). Returns, per benchmark, the
/// overall depth-1 accuracy at each latency.
pub fn latency_sensitivity(scale: Scale, latencies_ns: &[u64]) -> Vec<(String, Vec<f64>)> {
    let names = ["appbt", "barnes", "dsmc", "moldyn", "unstructured"];
    // One sweep cell per (benchmark, latency) — each is an independent
    // simulation, so the whole grid parallelises instead of one thread
    // crawling the 15 runs.
    let cols = latencies_ns.len();
    let cells = crate::par::sweep(names.len() * cols, |i| {
        let name = names[i / cols];
        let lat = latencies_ns[i % cols];
        let sys = SystemConfig::paper().with_network_latency(lat);
        let t = single_trace(name, scale, ProtocolConfig::paper(), sys).expect("suite benchmark");
        evaluate_cosmos(&t, 1, 0).overall.percent()
    });
    names
        .iter()
        .enumerate()
        .map(|(r, name)| (name.to_string(), cells[r * cols..(r + 1) * cols].to_vec()))
        .collect()
}

/// Renders the latency sweep.
pub fn render_latency_sensitivity(rows: &[(String, Vec<f64>)], latencies_ns: &[u64]) -> String {
    let mut out =
        String::from("Sensitivity: overall depth-1 accuracy (%) vs network latency (§5)\n");
    let _ = write!(out, "{:<14}", "benchmark");
    for lat in latencies_ns {
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
/// reaches 95% of steady state (depth 1, no filter).
pub fn adaptation(set: &TraceSet) -> Vec<(String, Option<u32>)> {
    set.traces()
        .iter()
        .map(|t| {
            let report = evaluate_cosmos(t, 1, 0);
            (t.meta().app.clone(), report.time_to_adapt(4, 0.95))
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
pub(crate) const COMPARISON: [&str; 8] = [
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
/// predictor and the baselines, overall accuracy per benchmark.
pub fn comparison(set: &TraceSet) -> Vec<(String, Vec<(String, f64)>)> {
    let reports = race(set, &COMPARISON);
    by_app(set, &reports)
        .map(|(app, row)| {
            let cells = COMPARISON
                .iter()
                .zip(row)
                .map(|(label, r)| (label.to_string(), r.overall.percent()))
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

/// Serialized vs concurrent engine: the five benchmarks run on both
/// execution models; per-benchmark messages, depth-1 accuracy, and
/// execution time. The serialized engine is the calibrated default; the
/// concurrent engine overlaps independent transactions, queues requests
/// at busy blocks, and exhibits the upgrade race — this study shows how
/// much any of that moves the paper\'s numbers.
pub fn engines(scale: Scale) -> String {
    let mut out = String::from(
        "Engines: serialized (calibrated default) vs concurrent\n\
         (message-level DES with request queueing and races)\n",
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>8} {:>12} | {:>10} {:>8} {:>12}",
        "benchmark", "ser msgs", "ser d1", "ser time", "con msgs", "con d1", "con time"
    );
    // Each (benchmark, engine) pair is an independent run: 10 sweep
    // cells, each returning (messages, depth-1 accuracy, time in us).
    let names = ["appbt", "barnes", "dsmc", "moldyn", "unstructured"];
    let cells = crate::par::sweep(names.len() * 2, |i| {
        let name = names[i / 2];
        let mut w = scale.workload(name).expect("known");
        if i % 2 == 0 {
            let serial =
                workloads::run_to_trace(&mut *w, ProtocolConfig::paper(), SystemConfig::paper())
                    .expect("clean serialized run");
            let acc = evaluate_cosmos(&serial, 1, 0).overall.percent();
            let time = serial
                .records()
                .iter()
                .map(|r| r.time_ns)
                .max()
                .unwrap_or(0);
            (serial.len(), acc, time / 1000)
        } else {
            let mut conc =
                simx::ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
            workloads::drive(&mut conc, &mut *w).expect("clean concurrent run");
            let acc = evaluate_cosmos(conc.trace(), 1, 0).overall.percent();
            (conc.trace().len(), acc, conc.execution_time_ns() / 1000)
        }
    });
    for (r, name) in names.iter().enumerate() {
        let (ser_msgs, ser_acc, ser_us) = cells[r * 2];
        let (con_msgs, con_acc, con_us) = cells[r * 2 + 1];
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>7.1}% {:>10}us | {:>10} {:>7.1}% {:>10}us",
            name, ser_msgs, ser_acc, ser_us, con_msgs, con_acc, con_us,
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
    let suite_with_seed = |seed: u64| -> Vec<Box<dyn Workload>> {
        let small = matches!(scale, Scale::Small);
        vec![
            Box::new(Appbt {
                seed,
                ..if small {
                    Appbt::small()
                } else {
                    Appbt::default()
                }
            }),
            Box::new(Barnes {
                seed,
                ..if small {
                    Barnes::small()
                } else {
                    Barnes::default()
                }
            }),
            Box::new(Dsmc {
                seed,
                ..if small {
                    Dsmc::small()
                } else {
                    Dsmc::default()
                }
            }),
            Box::new(Moldyn {
                seed,
                ..if small {
                    Moldyn::small()
                } else {
                    Moldyn::default()
                }
            }),
            Box::new(Unstructured {
                seed,
                ..if small {
                    Unstructured::small()
                } else {
                    Unstructured::default()
                }
            }),
        ]
    };
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
    let names = ["appbt", "barnes", "dsmc", "moldyn", "unstructured"];
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

    #[test]
    fn latency_sweep_is_insensitive_at_small_scale() {
        let rows = latency_sensitivity(Scale::Small, &[40, 1000]);
        assert_eq!(rows.len(), 5);
        for (app, rates) in &rows {
            // "hardly changes": allow a few points of drift.
            assert!(
                (rates[0] - rates[1]).abs() < 6.0,
                "{app} drifted: {rates:?}"
            );
        }
        let s = render_latency_sensitivity(&rows, &[40, 1000]);
        assert!(s.contains("1000 ns"));
    }

    #[test]
    fn adaptation_reports_every_benchmark() {
        let set = TraceSet::generate(Scale::Small);
        let rows = adaptation(&set);
        assert_eq!(rows.len(), 5);
        assert!(render_adaptation(&rows).contains("dsmc"));
    }

    #[test]
    fn comparison_ranks_cosmos_above_baselines_overall() {
        let set = TraceSet::generate(Scale::Small);
        let rows = comparison(&set);
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
