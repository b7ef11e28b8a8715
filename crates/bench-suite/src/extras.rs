//! Beyond the numbered artefacts: the paper's prose claims and the
//! design-choice ablations DESIGN.md calls out.

use crate::contenders::{by_app, plain, race};
use crate::traces::{single_trace, Scale, TraceSet};
use cosmos::eval::{evaluate_cosmos, EvalOptions};
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

/// [`comparison`]'s field: the tournament's, less depths 2 and 4.
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
/// predictor and the baselines, overall accuracy per benchmark — the
/// [`tournament`](crate::tournament)'s cells for this field, less the bits.
pub fn comparison(set: &TraceSet) -> Vec<(String, Vec<(String, f64)>)> {
    let reports = race(set, &plain(&COMPARISON));
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

/// Ablation: the half-migratory optimisation (§5.1). Re-runs every
/// benchmark with it disabled (DASH-style downgrades) and reports the
/// depth-1 overall accuracy and total message count next to the defaults.
pub fn ablation_half_migratory(scale: Scale) -> String {
    let on = TraceSet::generate(scale);
    let off = TraceSet::generate_with(
        scale,
        ProtocolConfig {
            half_migratory: false,
            ..ProtocolConfig::paper()
        },
        SystemConfig::paper(),
    );
    let mut out = String::from(
        "Ablation: half-migratory optimisation (§5.1). hm = enabled (Stache),\n\
         dash = disabled (read misses downgrade the owner instead)\n",
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>10} {:>12} {:>12}",
        "benchmark", "acc(hm)", "acc(dash)", "msgs(hm)", "msgs(dash)"
    );
    for (a, b) in on.traces().iter().zip(off.traces()) {
        let ra = evaluate_cosmos(a, 1, 0);
        let rb = evaluate_cosmos(b, 1, 0);
        let _ = writeln!(
            out,
            "{:<14} {:>9.1}% {:>9.1}% {:>12} {:>12}",
            a.meta().app,
            ra.overall.percent(),
            rb.overall.percent(),
            a.len(),
            b.len()
        );
    }
    out
}

/// [`ablation_sender`]'s two columns.
pub(crate) const SENDER_ABLATION: [&str; 2] = ["cosmos-d1", "type-only"];

/// Ablation: dropping the sender from the tuple (§3.5 footnote 3). Scores
/// a sender-agnostic Cosmos on message *type* only, next to the full
/// tuple's accuracy — the gap is what a type-only predictor would gain in
/// raw accuracy but lose in actionability.
pub fn ablation_sender(set: &TraceSet) -> String {
    let mut out =
        String::from("Ablation: <sender,type> tuple vs type-only prediction (§3.5 fn 3)\n");
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12}",
        "benchmark", "full tuple", "type-only"
    );
    let [full, type_only] = SENDER_ABLATION;
    let score_type = EvalOptions {
        type_only: true,
        ..Default::default()
    };
    let reports = race(
        set,
        &[(full, EvalOptions::default()), (type_only, score_type)],
    );
    for (app, row) in by_app(set, &reports) {
        let _ = write!(out, "{app:<14}");
        for r in row {
            let _ = write!(out, " {:>11.1}%", r.overall.percent());
        }
        out.push('\n');
    }
    out
}

/// [`variants`]' columns; the first is the plain-Cosmos baseline.
pub(crate) const VARIANTS: [&str; 7] = [
    "cosmos-d2",
    "macro x4",
    "macro x16",
    "conf>=2",
    "prealloc",
    "shared 4k",
    "hybrid 1+3",
];

/// The predictor-variant study: the extensions the paper sketches —
/// macroblock grouping (§7), confidence gating (§4.2/§4.3), and the
/// preallocated-PHT memory layout (§3.7) — against plain Cosmos at
/// depth 2, reporting accuracy, coverage, and table sizes.
pub fn variants(set: &TraceSet) -> String {
    let mut out = String::from(
        "Variants: paper-sketched predictor extensions, depth 2.\n\
         acc = accuracy on all messages; cov = messages with a prediction\n\
         offered; acc|cov = accuracy among offered; PHT = total entries\n",
    );
    let _ = write!(out, "{:<14}", "benchmark");
    for label in VARIANTS {
        // The baseline column is headed just "cosmos".
        let heading = if label == "cosmos-d2" {
            "cosmos"
        } else {
            label
        };
        let _ = write!(out, " | {:^27}", heading);
    }
    out.push('\n');
    let _ = write!(out, "{:<14}", "");
    for _ in VARIANTS {
        let _ = write!(
            out,
            " | {:>4} {:>4} {:>7} {:>7}",
            "acc", "cov", "acc|cov", "PHT"
        );
    }
    out.push('\n');
    let reports = race(set, &plain(&VARIANTS));
    for (app, row) in by_app(set, &reports) {
        let _ = write!(out, "{app:<14}");
        for r in row {
            let offered = r.coverage.hits.max(1);
            let _ = write!(
                out,
                " | {:>3.0}% {:>3.0}% {:>6.0}% {:>7}",
                r.overall.percent(),
                r.coverage.percent(),
                100.0 * r.overall.hits as f64 / offered as f64,
                r.memory.pht_entries
            );
        }
        out.push('\n');
    }
    out.push_str(
        "(macroblock trades accuracy for a smaller MHT; confidence trades\n\
         coverage for per-answer precision; prealloc bounds memory hard)\n",
    );
    out
}

/// [`history_persistence`]'s columns: unbounded, then shrinking capacity.
pub(crate) const PERSISTENCE: [&str; 5] =
    ["cosmos-d2", "evict 512", "evict 128", "evict 32", "evict 8"];

/// The §3.7 history-persistence study: accuracy of an MHT-capacity-bounded
/// Cosmos (history discarded with LRU block eviction) as the per-agent
/// capacity shrinks — what merging the predictor tables with finite cache
/// state would cost.
pub fn history_persistence(set: &TraceSet) -> String {
    let mut out = String::from(
        "History persistence (§3.7): depth-2 accuracy vs per-agent MHT\n\
         capacity (LRU; evicting a block discards its learned patterns)\n",
    );
    let _ = write!(out, "{:<14}", "benchmark");
    for label in PERSISTENCE {
        let heading = label.strip_prefix("evict ").unwrap_or("unbounded");
        let _ = write!(out, " {heading:>10}");
    }
    out.push('\n');
    let reports = race(set, &plain(&PERSISTENCE));
    for (app, row) in by_app(set, &reports) {
        let _ = write!(out, "{app:<14}");
        for r in row {
            let _ = write!(out, " {:>9.1}%", r.overall.percent());
        }
        out.push('\n');
    }
    out.push_str(
        "(Stache never replaces blocks, so the paper\'s runs enjoy the\n\
         unbounded column; small tables forget exactly the stable patterns\n\
         Cosmos relies on)\n",
    );
    out
}

/// The limited-pointer directory study (Dir_i B, after the LimitLESS work
/// the paper cites in §3.7): message volume, overflow count, and Cosmos
/// depth-1 accuracy as the per-entry pointer budget shrinks from the
/// paper\'s full map down to one pointer.
pub fn limitless(scale: Scale) -> String {
    let budgets: [Option<usize>; 4] = [None, Some(4), Some(2), Some(1)];
    let mut out = String::from(
        "Limited-pointer directory (Dir_i B): traffic and accuracy vs the\n\
         pointer budget. Overflowed entries broadcast invalidations to all\n\
         nodes on the next write.\n",
    );
    let _ = writeln!(
        out,
        "{:<14} {:>14} {:>11} {:>9}",
        "benchmark", "config", "messages", "cosmos-d1"
    );
    for budget in budgets {
        let proto = ProtocolConfig {
            limited_pointers: budget,
            ..ProtocolConfig::paper()
        };
        let set = TraceSet::generate_with(scale, proto, SystemConfig::paper());
        let label = budget.map_or("full-map".to_string(), |i| format!("{i} pointers"));
        for t in set.traces() {
            let r = evaluate_cosmos(t, 1, 0);
            let _ = writeln!(
                out,
                "{:<14} {:>14} {:>11} {:>8.1}%",
                t.meta().app,
                label,
                t.len(),
                r.overall.percent()
            );
        }
    }
    out.push_str(
        "(the broadcast acks inflate traffic for widely-shared blocks; they\n\
         also arrive in node order, so Cosmos learns them where stable)\n",
    );
    out
}

/// Machine-size scaling: depth-1 and depth-3 accuracy as the machine
/// grows from 4 to 64 nodes. Bigger machines mean more possible senders
/// per block — the tuple space Cosmos must pick from grows, and the
/// paper\'s 12-bit processor field anticipates machines far beyond 16
/// nodes.
pub fn scaling(scale: Scale) -> String {
    use workloads::{Appbt, Barnes, Dsmc, Moldyn, Unstructured, Workload};
    let suite_with_nodes = |nodes: usize| -> Vec<Box<dyn Workload>> {
        let small = matches!(scale, Scale::Small);
        vec![
            Box::new(Appbt {
                nodes,
                ..if small {
                    Appbt::small()
                } else {
                    Appbt::default()
                }
            }),
            Box::new(Barnes {
                nodes,
                ..if small {
                    Barnes::small()
                } else {
                    Barnes::default()
                }
            }),
            Box::new(Dsmc {
                nodes,
                ..if small {
                    Dsmc::small()
                } else {
                    Dsmc::default()
                }
            }),
            Box::new(Moldyn {
                nodes,
                ..if small {
                    Moldyn::small()
                } else {
                    Moldyn::default()
                }
            }),
            Box::new(Unstructured {
                nodes,
                ..if small {
                    Unstructured::small()
                } else {
                    Unstructured::default()
                }
            }),
        ]
    };
    let mut out = String::from(
        "Scaling: overall accuracy vs machine size (appbt needs a square\n\
         processor grid, hence 4/16/64)\n",
    );
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>11} {:>10} {:>10}",
        "benchmark", "nodes", "messages", "d1", "d3"
    );
    // Row-major (machine size, benchmark) grid on the shared worker
    // pool; rendering below walks the cells in the same order the old
    // nested loops did, so the report is byte-identical.
    let sizes = [4usize, 16, 64];
    let cells = crate::par::sweep(sizes.len() * 5, |i| {
        let nodes = sizes[i / 5];
        let proto = ProtocolConfig {
            nodes,
            ..ProtocolConfig::paper()
        };
        let mut w = suite_with_nodes(nodes).remove(i % 5);
        let t = workloads::run_to_trace(w.as_mut(), proto, SystemConfig::paper())
            .unwrap_or_else(|e| panic!("{} at {nodes} nodes: {e}", w.name()));
        let d1 = evaluate_cosmos(&t, 1, 0);
        let d3 = evaluate_cosmos(&t, 3, 0);
        (
            w.name().to_string(),
            nodes,
            t.len(),
            d1.overall.percent(),
            d3.overall.percent(),
        )
    });
    for (name, nodes, msgs, d1, d3) in cells {
        let _ = writeln!(
            out,
            "{:<14} {:>6} {:>11} {:>9.1}% {:>9.1}%",
            name, nodes, msgs, d1, d3
        );
    }
    out
}

/// Topology sensitivity: the §5 insensitivity claim, extended from a flat
/// latency sweep to *structured* latency — crossbar, 4-column 2D mesh,
/// and ring. Per-block message orders depend on relative distances, so a
/// little reordering is possible, but accuracy should barely move.
pub fn topology_sensitivity(scale: Scale) -> String {
    use simx::Topology;
    let topologies = [
        ("crossbar", Topology::Crossbar),
        ("mesh 4x4", Topology::Mesh2D { cols: 4 }),
        ("ring", Topology::Ring),
    ];
    let mut out = String::from("Topology sensitivity: overall depth-1 accuracy (%) per network\n");
    let _ = write!(out, "{:<14}", "benchmark");
    for (name, _) in &topologies {
        let _ = write!(out, " {name:>10}");
    }
    out.push('\n');
    let names = ["appbt", "barnes", "dsmc", "moldyn", "unstructured"];
    // (benchmark, topology) grid on the shared worker pool.
    let cols = topologies.len();
    let cells = crate::par::sweep(names.len() * cols, |i| {
        let sys = SystemConfig::paper().with_topology(topologies[i % cols].1);
        let t = single_trace(names[i / cols], scale, ProtocolConfig::paper(), sys)
            .expect("suite benchmark");
        evaluate_cosmos(&t, 1, 0).overall.percent()
    });
    for (r, name) in names.iter().enumerate() {
        let _ = write!(out, "{name:<14}");
        for pct in &cells[r * cols..(r + 1) * cols] {
            let _ = write!(out, " {pct:>9.1}%");
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

/// Lookahead: how far ahead the tables can be unrolled (§4.1\'s "sequence
/// of protocol actions"). Chain step `d` is scored against the `d`-th
/// message that actually arrives next for the block.
pub fn lookahead(set: &TraceSet) -> String {
    use cosmos::evaluate_lookahead;
    let mut out = String::from(
        "Lookahead: chain-prediction accuracy vs distance (depth-2 Cosmos).\n\
         Scored among issued chains (the tables must have an opinion), so\n\
         step 1 sits above Table 5's all-message accuracy.\n",
    );
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>8} {:>8} {:>8}",
        "benchmark", "d=1", "d=2", "d=3", "d=4"
    );
    for t in set.traces() {
        let r = evaluate_lookahead(t, 2, 4);
        let _ = writeln!(
            out,
            "{:<14} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            t.meta().app,
            r.percent_at(1),
            r.percent_at(2),
            r.percent_at(3),
            r.percent_at(4)
        );
    }
    out.push_str(
        "(errors compound multiplicatively; where patterns are pure cycles\n\
         the chain survives several steps — the budget for multi-action\n\
         speculation)\n",
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

    #[test]
    fn comparison_is_the_tournament_restricted_to_its_field() {
        let set = TraceSet::generate(Scale::Small);
        let cells = crate::tournament::tournament(&set);
        let rows = comparison(&set);
        assert_eq!(rows.len(), 5);
        for (app, row) in &rows {
            let labels: Vec<&str> = row.iter().map(|(label, _)| label.as_str()).collect();
            assert_eq!(labels, COMPARISON);
            for (label, pct) in row {
                let cell = cells
                    .iter()
                    .find(|c| c.app == *app && c.predictor == *label)
                    .expect("the tournament races the comparison's field");
                let counts = cosmos::Counts {
                    hits: cell.hits,
                    total: cell.total,
                };
                assert_eq!(*pct, counts.percent(), "{label} on {app}");
            }
        }
    }

    #[test]
    fn variants_study_renders_all_contenders() {
        let set = TraceSet::generate(Scale::Small);
        let s = variants(&set);
        for name in ["cosmos", "macro x4", "conf>=2", "prealloc"] {
            assert!(s.contains(name), "missing {name}");
        }
    }

    #[test]
    fn sender_ablation_renders() {
        let set = TraceSet::generate(Scale::Small);
        let s = ablation_sender(&set);
        assert!(s.contains("type-only"));
    }

    #[test]
    fn half_migratory_ablation_changes_message_mix() {
        let s = ablation_half_migratory(Scale::Small);
        assert!(s.contains("dash"));
    }
}
