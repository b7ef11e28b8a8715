//! The `simcheck` CLI target: bounded schedule exploration over the
//! small Stache configurations, with a per-configuration summary table,
//! a CSV artefact, and a `simcheck.*` obs export.
//!
//! At [`Scale::Small`] only the two 2-node configurations run (the CI
//! smoke); [`Scale::Paper`] sweeps up to four nodes. Every configuration
//! is expected to explore to exhaustion with zero violations — a
//! violation is rendered loudly rather than panicking, so a future
//! protocol regression produces a readable minimized schedule instead of
//! a dead report.

use crate::traces::Scale;
use simx::simcheck::{explore, CheckConfig, CheckStats, Violation};
use std::thread;

/// One explored configuration and its outcome.
#[derive(Debug, Clone)]
pub struct CheckRow {
    /// Node count of the configuration.
    pub nodes: usize,
    /// Contended block count.
    pub blocks: usize,
    /// Exploration statistics.
    pub stats: CheckStats,
    /// The minimized violation, if one was found.
    pub violation: Option<Violation>,
}

/// The `(nodes, blocks)` configurations explored at each scale.
pub fn configs(scale: Scale) -> Vec<(usize, usize)> {
    match scale {
        Scale::Small => vec![(2, 1), (2, 2)],
        Scale::Paper => vec![(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)],
    }
}

/// Explores every configuration of the scale, one thread per
/// configuration (each exploration is independent and single-threaded).
pub fn simcheck_report(scale: Scale) -> Vec<CheckRow> {
    thread::scope(|s| {
        let handles: Vec<_> = configs(scale)
            .into_iter()
            .map(|(nodes, blocks)| {
                s.spawn(move || {
                    let report = explore(&CheckConfig::small(nodes, blocks));
                    CheckRow {
                        nodes,
                        blocks,
                        stats: report.stats,
                        violation: report.violation,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("exploration thread"))
            .collect()
    })
}

/// Folds all rows' statistics into one aggregate for the obs export.
pub fn aggregate(rows: &[CheckRow]) -> CheckStats {
    let mut total = CheckStats {
        exhausted: true,
        ..CheckStats::default()
    };
    for row in rows {
        total.merge(&row.stats);
    }
    total
}

/// Renders the per-configuration summary table, plus any minimized
/// failing schedule in full. Host time stays out of it, so the text
/// depends only on the scale; `simcheck.csv` keeps `wall_ns`.
pub fn render_simcheck(rows: &[CheckRow]) -> String {
    let mut table = obs::Table::new(vec![
        "config",
        "states",
        "pruned",
        "terminal",
        "schedules",
        "steps",
        "exhausted",
        "violations",
    ])
    .with_title(
        "simcheck: bounded schedule exploration (SWMR + watermark per delivery, \
         full audit at quiescence)"
            .to_string(),
    )
    .with_aligns(vec![
        obs::Align::Left,
        obs::Align::Right,
        obs::Align::Right,
        obs::Align::Right,
        obs::Align::Right,
        obs::Align::Right,
        obs::Align::Right,
        obs::Align::Right,
    ]);
    for row in rows {
        table.push_row(vec![
            format!("{}n/{}b", row.nodes, row.blocks),
            row.stats.states_visited.to_string(),
            row.stats.states_pruned.to_string(),
            row.stats.terminal_states.to_string(),
            row.stats.schedules.to_string(),
            row.stats.steps_total.to_string(),
            if row.stats.exhausted { "yes" } else { "NO" }.to_string(),
            row.stats.violations.to_string(),
        ]);
    }
    let mut out = table.render();
    for row in rows {
        if let Some(v) = &row.violation {
            out.push_str(&format!(
                "\nVIOLATION in {}n/{}b: {} — {}\n",
                row.nodes, row.blocks, v.kind, v.detail
            ));
            for (i, label) in v.labels.iter().enumerate() {
                out.push_str(&format!("  step {i}: rank {} -> {label}\n", v.schedule[i]));
            }
        }
    }
    out
}

/// The CSV artefact (`simcheck.csv`).
pub fn csv_simcheck(rows: &[CheckRow]) -> String {
    let mut out = String::from(
        "nodes,blocks,states_visited,states_pruned,terminal_states,schedules,\
         steps_total,max_frontier,truncated,violations,exhausted,wall_ns\n",
    );
    for row in rows {
        let s = &row.stats;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}\n",
            row.nodes,
            row.blocks,
            s.states_visited,
            s.states_pruned,
            s.terminal_states,
            s.schedules,
            s.steps_total,
            s.max_frontier,
            s.truncated,
            s.violations,
            u64::from(s.exhausted),
            s.wall_ns,
        ));
    }
    out
}

/// Exports the aggregate statistics as a `simcheck.*` obs snapshot.
pub fn export_obs(rows: &[CheckRow]) -> obs::Snapshot {
    let mut snap = obs::Snapshot::new();
    aggregate(rows).export_obs(&mut snap);
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_explores_cleanly() {
        let rows = simcheck_report(Scale::Small);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(
                row.stats.exhausted,
                "{}n/{}b not exhausted",
                row.nodes, row.blocks
            );
            assert!(row.violation.is_none());
        }
        let total = aggregate(&rows);
        assert!(total.exhausted);
        assert_eq!(total.violations, 0);
        assert!(total.states_visited > 0);
    }

    #[test]
    fn artefacts_cover_every_row() {
        let rows = simcheck_report(Scale::Small);
        let rendered = render_simcheck(&rows);
        assert!(rendered.contains("2n/1b") && rendered.contains("2n/2b"));
        assert!(!rendered.contains("VIOLATION"));

        let csv = csv_simcheck(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1, "header + one per row");
        assert!(csv.lines().nth(1).unwrap().starts_with("2,1,"));

        let snap = export_obs(&rows);
        assert!(matches!(
            snap.get("simcheck.exhausted"),
            Some(obs::MetricValue::Counter(1))
        ));
        assert!(snap.names().iter().all(|n| n.starts_with("simcheck.")));
    }
}
