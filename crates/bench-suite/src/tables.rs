//! The paper's tables, regenerated.

use crate::contenders::Race;
use cosmos::memory::overhead_percent;
use cosmos::MemoryFootprint;
use simx::SystemConfig;
use stache::msg::ALL_MSG_TYPES;
use stache::{MsgType, Role};
use std::fmt::Write as _;
use trace::ArcKey;

/// The MHR depths the paper evaluates.
pub const DEPTHS: [usize; 4] = [1, 2, 3, 4];

/// Tables 5 and 7 read filterless Cosmos at each of [`DEPTHS`] (labels of
/// [`CONTENDERS`](crate::contenders::CONTENDERS)).
pub const BY_DEPTH: [&str; 4] = ["cosmos-d1", "cosmos-d2", "cosmos-d3", "cosmos-d4"];

/// Table 8, Figures 6–7 and §6.2's time-to-adapt read the depth-1
/// filterless Cosmos fleet their captions name.
pub const DEPTH1: &str = "cosmos-d1";

/// Table 1: the coherence message vocabulary.
pub fn table1() -> String {
    let mut out =
        String::from("TABLE 1. Coherence messages of the full-map write-invalidate protocol\n");
    let _ = writeln!(out, "{:<22} {:<10} pairs with", "message", "received");
    for &t in &ALL_MSG_TYPES {
        let pair = t
            .response()
            .map(|r| r.paper_name().to_string())
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<22} {:<10} {}",
            t.paper_name(),
            t.receiver_role().to_string(),
            pair
        );
    }
    out
}

/// Table 2: the prediction-action pairs of §4.1, generated from the
/// actual [`cosmos::actions::map_prediction`] mapping so the table can
/// never drift from the code.
pub fn table2() -> String {
    use cosmos::actions::map_prediction;
    use cosmos::PredTuple;
    use stache::NodeId;
    let mut out = String::from(
        "TABLE 2. Prediction-action pairs (predicted next incoming message\n\
         at an agent -> speculative action)\n",
    );
    let p = NodeId::new(1);
    for role in [Role::Directory, Role::Cache] {
        let _ = writeln!(out, "at the {role}:");
        for &mtype in &ALL_MSG_TYPES {
            if mtype.receiver_role() != role {
                continue;
            }
            let action = map_prediction(role, PredTuple::new(p, mtype))
                .map(|a| format!("{a:?}"))
                .unwrap_or_else(|| "(no speculation)".to_string());
            let _ = writeln!(out, "  predict {:<22} -> {}", mtype.paper_name(), action);
        }
    }
    out
}

/// Table 3: the simulated machine's parameters.
pub fn table3(sys: &SystemConfig) -> String {
    let mut out = String::from("TABLE 3. System parameters\n");
    let rows = [
        ("Number of parallel machine nodes", "16".to_string()),
        ("Processor speed", "1 GHz".to_string()),
        ("Cache block size", "64 bytes".to_string()),
        ("Cache size", "1 MiB".to_string()),
        (
            "Main memory access time",
            format!("{} ns", sys.mem_access_ns),
        ),
        ("Network message size", "256 bytes".to_string()),
        ("Network latency", format!("{} ns", sys.network_latency_ns)),
        (
            "Network interface access time",
            format!("{} ns", sys.ni_access_ns),
        ),
        (
            "Protocol handler occupancy",
            format!("{} ns", sys.handler_ns),
        ),
    ];
    for (k, v) in rows {
        let _ = writeln!(out, "{k:<36} {v}");
    }
    out
}

/// Table 4: benchmark descriptions.
pub fn table4() -> String {
    let mut out = String::from("TABLE 4. Benchmarks\n");
    for m in workloads::meta::table4() {
        let _ = writeln!(
            out,
            "{:<13} iters={:<4} {}",
            m.name, m.iterations, m.description
        );
        let _ = writeln!(out, "{:<13} patterns: {}", "", m.patterns);
    }
    out
}

/// One benchmark's row block of Table 5: `[depth-1] -> (C, D, O)` percents.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Benchmark name.
    pub app: String,
    /// `(cache, directory, overall)` accuracy percentages per depth.
    pub by_depth: Vec<(f64, f64, f64)>,
}

/// Table 5 (prediction rate vs MHR depth, no filter) from a race of
/// [`BY_DEPTH`].
pub fn table5(race: &Race) -> Vec<Table5Row> {
    race.apps()
        .map(|app| Table5Row {
            app: app.to_string(),
            by_depth: BY_DEPTH
                .iter()
                .map(|label| {
                    let r = race.report(label, app);
                    (
                        r.cache.percent(),
                        r.directory.percent(),
                        r.overall.percent(),
                    )
                })
                .collect(),
        })
        .collect()
}

/// Renders Table 5 in the paper's layout.
pub fn render_table5(rows: &[Table5Row]) -> String {
    let mut out =
        String::from("TABLE 5. Prediction rates (%). C = cache, D = directory, O = overall\n");
    let _ = write!(out, "{:<6}", "depth");
    for row in rows {
        let _ = write!(out, "| {:^17} ", row.app);
    }
    out.push('\n');
    let _ = write!(out, "{:<6}", "");
    for _ in rows {
        let _ = write!(out, "| {:>5} {:>5} {:>5} ", "C", "D", "O");
    }
    out.push('\n');
    for (i, &d) in DEPTHS.iter().enumerate() {
        let _ = write!(out, "{d:<6}");
        for row in rows {
            let (c, dd, o) = row.by_depth[i];
            let _ = write!(out, "| {c:>5.0} {dd:>5.0} {o:>5.0} ");
        }
        out.push('\n');
    }
    out
}

/// One benchmark's block of Table 6: overall accuracy per
/// `(depth, filter max-count)`.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Benchmark name.
    pub app: String,
    /// `by_depth[depth-1][max_count]` = overall accuracy (%).
    pub by_depth: Vec<[f64; 3]>,
}

/// The depths Table 6 evaluates (the paper shows 1 and 2).
pub const TABLE6_DEPTHS: [usize; 2] = [1, 2];

/// Table 6's field: each of [`TABLE6_DEPTHS`] at filter max-count 0, 1
/// and 2.
pub const TABLE6_FIELD: [[&str; 3]; 2] = [
    ["cosmos-d1", "cosmos-d1-f1", "cosmos-d1-f2"],
    ["cosmos-d2", "cosmos-d2-f1", "cosmos-d2-f2"],
];

/// Table 6 (noise-filter maximum count 0/1/2) from a race of
/// [`TABLE6_FIELD`].
pub fn table6(race: &Race) -> Vec<Table6Row> {
    race.apps()
        .map(|app| Table6Row {
            app: app.to_string(),
            by_depth: TABLE6_FIELD
                .iter()
                .map(|row| row.map(|label| race.report(label, app).overall.percent()))
                .collect(),
        })
        .collect()
}

/// Renders Table 6 in the paper's layout.
pub fn render_table6(rows: &[Table6Row]) -> String {
    let mut out = String::from("TABLE 6. Overall prediction rate (%) vs noise-filter max count\n");
    let _ = write!(out, "{:<6}", "depth");
    for row in rows {
        let _ = write!(out, "| {:^14} ", row.app);
    }
    out.push('\n');
    let _ = write!(out, "{:<6}", "");
    for _ in rows {
        let _ = write!(out, "| {:>4} {:>4} {:>4} ", "0", "1", "2");
    }
    out.push('\n');
    for (i, &d) in TABLE6_DEPTHS.iter().enumerate() {
        let _ = write!(out, "{d:<6}");
        for row in rows {
            let r = row.by_depth[i];
            let _ = write!(out, "| {:>4.0} {:>4.0} {:>4.0} ", r[0], r[1], r[2]);
        }
        out.push('\n');
    }
    out
}

/// One benchmark's block of Table 7: `(ratio, overhead %)` per depth.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Benchmark name.
    pub app: String,
    /// `(PHT/MHR ratio, overhead percent)` per depth 1–4.
    pub by_depth: Vec<(f64, f64)>,
    /// Raw footprints per depth (for downstream analysis).
    pub footprints: Vec<MemoryFootprint>,
}

/// Table 7 (memory overhead of filterless Cosmos predictors) from a race
/// of [`BY_DEPTH`].
pub fn table7(race: &Race) -> Vec<Table7Row> {
    race.apps()
        .map(|app| {
            let footprints: Vec<MemoryFootprint> = BY_DEPTH
                .iter()
                .map(|label| race.report(label, app).memory)
                .collect();
            Table7Row {
                app: app.to_string(),
                by_depth: DEPTHS
                    .iter()
                    .zip(&footprints)
                    .map(|(&d, fp)| (fp.ratio(), overhead_percent(d, fp.ratio())))
                    .collect(),
                footprints,
            }
        })
        .collect()
}

/// Renders Table 7 in the paper's layout.
pub fn render_table7(rows: &[Table7Row]) -> String {
    let mut out = String::from(
        "TABLE 7. Memory overhead. Ratio = PHT entries / MHR entries;\n\
         Ovhd = (2B * [depth + Ratio*(depth+1)] * 100 / 128)%\n",
    );
    let _ = write!(out, "{:<6}", "depth");
    for row in rows {
        let _ = write!(out, "| {:^14} ", row.app);
    }
    out.push('\n');
    let _ = write!(out, "{:<6}", "");
    for _ in rows {
        let _ = write!(out, "| {:>6} {:>7} ", "Ratio", "Ovhd");
    }
    out.push('\n');
    for (i, &d) in DEPTHS.iter().enumerate() {
        let _ = write!(out, "{d:<6}");
        for row in rows {
            let (ratio, ovhd) = row.by_depth[i];
            let _ = write!(out, "| {ratio:>6.1} {ovhd:>6.1}% ");
        }
        out.push('\n');
    }
    out
}

/// The transitions Table 8 follows (dsmc, depth 1, filterless).
pub const TABLE8_TRANSITIONS: [ArcKey; 3] = [
    ArcKey {
        role: Role::Cache,
        prev: MsgType::GetRoResponse,
        next: MsgType::UpgradeResponse,
    },
    ArcKey {
        role: Role::Directory,
        prev: MsgType::GetRoRequest,
        next: MsgType::InvalRwResponse,
    },
    ArcKey {
        role: Role::Directory,
        prev: MsgType::InvalRwResponse,
        next: MsgType::UpgradeRequest,
    },
];

/// The iteration checkpoints Table 8 reports.
pub const TABLE8_CHECKPOINTS: [u32; 3] = [4, 80, 320];

/// One transition's Table 8 row: `(hits %, refs %)` at each checkpoint.
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// The transition followed.
    pub arc: ArcKey,
    /// `(cumulative hit %, cumulative reference share %)` per checkpoint.
    pub at_checkpoints: Vec<(f64, f64)>,
}

/// Table 8 from dsmc's report in a race of [`DEPTH1`].
pub fn table8(race: &Race) -> Vec<Table8Row> {
    let report = race.report(DEPTH1, "dsmc");
    TABLE8_TRANSITIONS
        .into_iter()
        .map(|arc| {
            let at_checkpoints = TABLE8_CHECKPOINTS
                .iter()
                .map(|&upto| {
                    let c = report.arc_cumulative(arc, upto);
                    let role_total = report.role_cumulative_refs(arc.role, upto);
                    let refs_share = if role_total == 0 {
                        0.0
                    } else {
                        100.0 * c.total as f64 / role_total as f64
                    };
                    (c.percent(), refs_share)
                })
                .collect();
            Table8Row {
                arc,
                at_checkpoints,
            }
        })
        .collect()
}

/// Renders Table 8 in the paper's layout.
pub fn render_table8(rows: &[Table8Row]) -> String {
    let mut out =
        String::from("TABLE 8. dsmc per-transition cumulative accuracy (depth 1, no filter)\n");
    let _ = write!(out, "{:<55}", "transition");
    for cp in TABLE8_CHECKPOINTS {
        let _ = write!(out, "| {:^13} ", format!("{cp} iters"));
    }
    out.push('\n');
    let _ = write!(out, "{:<55}", "");
    for _ in TABLE8_CHECKPOINTS {
        let _ = write!(out, "| {:>5} {:>6} ", "hits", "refs");
    }
    out.push('\n');
    for row in rows {
        let label = format!(
            "[{}] <{}, {}>",
            row.arc.role,
            row.arc.prev.paper_name(),
            row.arc.next.paper_name()
        );
        let _ = write!(out, "{label:<55}");
        for (hits, refs) in &row.at_checkpoints {
            let _ = write!(out, "| {hits:>4.0}% {refs:>5.1}% ");
        }
        out.push('\n');
    }
    out
}

/// CSV for Table 5: `app,depth,cache,directory,overall`.
pub fn csv_table5(rows: &[Table5Row]) -> String {
    let mut t = obs::Table::new(vec!["app", "depth", "cache", "directory", "overall"]);
    for row in rows {
        for (i, &(c, d, o)) in row.by_depth.iter().enumerate() {
            t.push_row(vec![
                row.app.clone(),
                DEPTHS[i].to_string(),
                format!("{c:.2}"),
                format!("{d:.2}"),
                format!("{o:.2}"),
            ]);
        }
    }
    t.to_csv()
}

/// CSV for Table 6: `app,depth,filter_max,overall`.
pub fn csv_table6(rows: &[Table6Row]) -> String {
    let mut t = obs::Table::new(vec!["app", "depth", "filter_max", "overall"]);
    for row in rows {
        for (i, cells) in row.by_depth.iter().enumerate() {
            for (fmax, &acc) in cells.iter().enumerate() {
                t.push_row(vec![
                    row.app.clone(),
                    TABLE6_DEPTHS[i].to_string(),
                    fmax.to_string(),
                    format!("{acc:.2}"),
                ]);
            }
        }
    }
    t.to_csv()
}

/// CSV for Table 7: `app,depth,ratio,overhead_percent,mhr_entries,pht_entries`.
pub fn csv_table7(rows: &[Table7Row]) -> String {
    let mut t = obs::Table::new(vec![
        "app",
        "depth",
        "ratio",
        "overhead_percent",
        "mhr_entries",
        "pht_entries",
    ]);
    for row in rows {
        for (i, &(ratio, ovhd)) in row.by_depth.iter().enumerate() {
            let fp = row.footprints[i];
            t.push_row(vec![
                row.app.clone(),
                DEPTHS[i].to_string(),
                format!("{ratio:.3}"),
                format!("{ovhd:.2}"),
                fp.mhr_entries.to_string(),
                fp.pht_entries.to_string(),
            ]);
        }
    }
    t.to_csv()
}

/// CSV for Table 8: `role,prev,next,checkpoint,hits_percent,refs_percent`.
pub fn csv_table8(rows: &[Table8Row]) -> String {
    let mut t = obs::Table::new(vec![
        "role",
        "prev",
        "next",
        "checkpoint",
        "hits_percent",
        "refs_percent",
    ]);
    for row in rows {
        for (i, &(hits, refs)) in row.at_checkpoints.iter().enumerate() {
            t.push_row(vec![
                row.arc.role.to_string(),
                row.arc.prev.paper_name().to_string(),
                row.arc.next.paper_name().to_string(),
                TABLE8_CHECKPOINTS[i].to_string(),
                format!("{hits:.2}"),
                format!("{refs:.2}"),
            ]);
        }
    }
    t.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contenders::race;
    use crate::traces::{Scale, TraceSet};

    /// Every table's field raced over the small traces.
    fn small_race() -> Race {
        let set = TraceSet::generate(Scale::Small);
        race(
            &set,
            &[TABLE6_FIELD.as_flattened(), &BY_DEPTH[2..]].concat(),
        )
    }

    #[test]
    fn table1_contains_the_vocabulary() {
        let t = table1();
        for &m in &ALL_MSG_TYPES {
            assert!(t.contains(m.paper_name()), "missing {m}");
        }
    }

    #[test]
    fn table3_renders_parameters() {
        assert_eq!(
            table3(&SystemConfig::paper()),
            "TABLE 3. System parameters\n\
             Number of parallel machine nodes     16\n\
             Processor speed                      1 GHz\n\
             Cache block size                     64 bytes\n\
             Cache size                           1 MiB\n\
             Main memory access time              120 ns\n\
             Network message size                 256 bytes\n\
             Network latency                      40 ns\n\
             Network interface access time        60 ns\n\
             Protocol handler occupancy           100 ns\n"
        );
    }

    #[test]
    fn table5_small_scale_sanity() {
        let rows = table5(&small_race());
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert_eq!(row.by_depth.len(), 4);
            for &(c, d, o) in &row.by_depth {
                assert!((0.0..=100.0).contains(&c));
                assert!((0.0..=100.0).contains(&d));
                // Overall lies between cache and directory accuracy.
                assert!(o <= c.max(d) + 1e-9 && o >= c.min(d) - 1e-9);
            }
        }
        let rendered = render_table5(&rows);
        assert!(rendered.contains("appbt"));
        assert!(rendered.contains("unstructured"));
    }

    #[test]
    fn table6_filters_never_panic_and_render() {
        let rows = table6(&small_race());
        assert_eq!(rows.len(), 5);
        let rendered = render_table6(&rows);
        assert!(rendered.contains("dsmc"));
    }

    #[test]
    fn table7_ratios_are_finite_and_positive() {
        let rows = table7(&small_race());
        for row in &rows {
            for (i, &(ratio, ovhd)) in row.by_depth.iter().enumerate() {
                assert!(ratio.is_finite());
                assert!(ratio >= 0.0);
                assert!(ovhd >= 0.0, "depth {} ovhd {ovhd}", i + 1);
                assert!(row.footprints[i].mhr_entries > 0);
            }
        }
        let rendered = render_table7(&rows);
        assert!(rendered.contains("Ratio"));
    }

    #[test]
    fn csv_tables_keep_headers_and_row_counts() {
        let race = small_race();
        let cases = [
            (
                csv_table5(&table5(&race)),
                "app,depth,cache,directory,overall",
                5 * DEPTHS.len(),
            ),
            (
                csv_table6(&table6(&race)),
                "app,depth,filter_max,overall",
                5 * TABLE6_DEPTHS.len() * 3,
            ),
            (
                csv_table7(&table7(&race)),
                "app,depth,ratio,overhead_percent,mhr_entries,pht_entries",
                5 * DEPTHS.len(),
            ),
            (
                csv_table8(&table8(&race)),
                "role,prev,next,checkpoint,hits_percent,refs_percent",
                3 * TABLE8_CHECKPOINTS.len(),
            ),
        ];
        for (csv, header, rows) in cases {
            let lines: Vec<&str> = csv.lines().collect();
            assert_eq!(lines[0], header);
            assert_eq!(lines.len(), rows + 1, "under {header}");
        }
    }

    #[test]
    fn table8_checkpoints_monotone_refs() {
        let rows = table8(&small_race());
        assert_eq!(rows.len(), 3);
        let rendered = render_table8(&rows);
        assert!(rendered.contains("get_ro"));
    }
}
