//! The acceleration table (`repro accel`): how much live prediction
//! moves the bottom line, the question the paper's §8 leaves open.
//!
//! Every benchmark runs on the event engine under nine action sets: the
//! §7 directed pairing, two-action Cosmos at MHR depths 1–4 and the
//! confidence-gated four-action fleet at depths 1–4. Each runs on a
//! perfect fabric and under one seeded [`FaultPlan`], and is compared with
//! the bare run on the same fabric, read from the baseline set
//! ([`crate::baseline`]). Every run is coherence-audited; every
//! cell is one [`Comparison`], whose accelerated [`RunSummary`] carries
//! the run's grants, replacements and [`RollbackTally`].

use accel::{Comparison, CosmosPolicy, DirectedPolicy, RunSummary, SpeculatePolicy};
use simx::{FaultPlan, SpeculationPolicy};
use stache::RollbackTally;

use crate::baseline::BareRun;
use crate::traces::{run_machine, TraceError};
use crate::Scale;

/// Confidence threshold of the gated fleet (see [`cosmos::CONFIDENCE_MAX`]):
/// high enough that cold tables stay silent, low enough that stable
/// patterns fire.
pub const GATED_THRESHOLD: u8 = 2;

/// The speculative actions one run arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Actions {
    /// [`DirectedPolicy`]: exclusive grants and self-invalidation from the
    /// §7 directed predictors, which have no MHR depth.
    Directed,
    /// [`CosmosPolicy`] at an MHR depth: exclusive grants and
    /// self-invalidation.
    Cosmos(usize),
    /// [`SpeculatePolicy`] at an MHR depth and [`GATED_THRESHOLD`]: the
    /// two above plus early invalidation acks and forwarding pushes.
    Gated(usize),
}

/// The nine action sets, in table order.
pub const ACTION_SETS: [Actions; 9] = [
    Actions::Directed,
    Actions::Cosmos(1),
    Actions::Cosmos(2),
    Actions::Cosmos(3),
    Actions::Cosmos(4),
    Actions::Gated(1),
    Actions::Gated(2),
    Actions::Gated(3),
    Actions::Gated(4),
];

impl Actions {
    fn name(self) -> &'static str {
        match self {
            Actions::Directed => "directed",
            Actions::Cosmos(_) => "cosmos",
            Actions::Gated(_) => "gated",
        }
    }

    fn depth(self) -> Option<usize> {
        match self {
            Actions::Directed => None,
            Actions::Cosmos(d) | Actions::Gated(d) => Some(d),
        }
    }

    fn policy(self) -> Box<dyn SpeculationPolicy> {
        match self {
            Actions::Directed => Box::new(DirectedPolicy::new()),
            Actions::Cosmos(d) => Box::new(CosmosPolicy::new(d)),
            Actions::Gated(d) => Box::new(SpeculatePolicy::new(d, Some(GATED_THRESHOLD))),
        }
    }
}

/// One benchmark under one action set.
#[derive(Debug, Clone)]
pub struct AccelRow {
    /// Benchmark name (Table 4 row order).
    pub app: String,
    /// What the accelerated runs armed.
    pub actions: Actions,
    /// Bare vs accelerated, both on a perfect fabric.
    pub clean: Comparison,
    /// Bare vs accelerated, both under the fault plan.
    pub faulted: Comparison,
}

/// Runs every benchmark under every [`ACTION_SETS`] entry, clean and under
/// `plan`, and compares each run with the benchmark's bare run on the same
/// fabric: `clean` and `faulted` are the two halves of the baseline set
/// ([`bare_runs`](crate::baseline::bare_runs)), the faulted one run under
/// `plan`. One sweep cell per `(benchmark, action set)`, so the 18 runs of
/// a benchmark spread over the worker pool.
///
/// # Errors
///
/// The first benchmark whose run fails, named: short of a plan that
/// exhausts the retry budget, a protocol bug, since speculation must
/// never trade correctness for speed.
pub fn accel(
    scale: Scale,
    plan: &FaultPlan,
    clean: &[BareRun],
    faulted: &[BareRun],
) -> Result<Vec<AccelRow>, TraceError> {
    let sets = ACTION_SETS.len();
    let cells = crate::par::sweep(clean.len() * sets, |cell| {
        let run = |plan| {
            let mut w = scale.suite().swap_remove(cell / sets);
            let policy = ACTION_SETS[cell % sets].policy();
            let m = run_machine(w.as_mut(), Some(policy), plan, false)?;
            Ok(RunSummary::of(&m))
        };
        Ok((run(None)?, run(Some(plan.clone()))?))
    })
    .into_iter()
    .collect::<Result<Vec<_>, TraceError>>()?;
    let rows = cells.into_iter().enumerate().map(|(cell, (c, f))| {
        let (base, fbase) = (&clean[cell / sets], &faulted[cell / sets]);
        AccelRow {
            app: base.app.clone(),
            actions: ACTION_SETS[cell % sets],
            clean: Comparison {
                baseline: base.summary,
                accelerated: c,
            },
            faulted: Comparison {
                baseline: fbase.summary,
                accelerated: f,
            },
        }
    });
    Ok(rows.collect())
}

/// Renders the table: the clean run's message reduction and actions
/// beside the clean and faulted speedups.
pub fn render_accel(rows: &[AccelRow], plan: &FaultPlan) -> String {
    let mut tbl = obs::Table::new(vec![
        "benchmark",
        "actions",
        "depth",
        "msg-",
        "clean",
        "faulty",
        "grants",
        "repl",
        "pushes",
        "confirmed",
        "rolled back",
        "early acks",
    ])
    .with_title(format!(
        "Acceleration (§4/§8): live speculation on the event engine, speedup \
         clean and under faults (drop={}, dup={}, reorder={}, seed={})",
        plan.drop, plan.dup, plan.reorder, plan.seed
    ))
    .with_aligns(
        [obs::Align::Left, obs::Align::Left]
            .into_iter()
            .chain([obs::Align::Right; 10])
            .collect(),
    );
    for r in rows {
        let run = &r.clean.accelerated;
        tbl.push_row(vec![
            r.app.clone(),
            r.actions.name().to_string(),
            r.actions.depth().map_or("-".into(), |d| d.to_string()),
            format!("{:.1}%", 100.0 * r.clean.message_saving()),
            format!("{:.4}", r.clean.speedup()),
            format!("{:.4}", r.faulted.speedup()),
            run.exclusive_grants.to_string(),
            run.voluntary_replacements.to_string(),
            run.rollback.pushes.to_string(),
            run.rollback.confirmed.to_string(),
            run.rollback.rolled_back.to_string(),
            run.rollback.early_acks.to_string(),
        ]);
    }
    let mut out = tbl.render();
    out.push_str(&format!(
        "(msg- = coherence-message reduction; clean / faulty = execution-time \
         speedup over the bare run on the same fabric;\n\
         grants .. early acks = the clean run's actions; directed = the §7 \
         RMW+DSI pairing, cosmos = exclusive grants\n\
         and self-invalidation, gated = those plus early acks and pushes at \
         confidence >= {GATED_THRESHOLD})\n"
    ));
    out
}

/// The table as CSV (`accel.csv` under `--csv DIR`); `depth` is empty for
/// the directed pairing.
pub fn csv_accel(rows: &[AccelRow]) -> String {
    let mut out = String::from(
        "benchmark,actions,depth,clean_speedup,faulted_speedup,\
         base_msgs,spec_msgs,faulted_base_msgs,faulted_spec_msgs,\
         grants,replacements,pushes,confirmed,rolled_back,early_acks\n",
    );
    for r in rows {
        let run = &r.clean.accelerated;
        out.push_str(&format!(
            "{},{},{},{:.4},{:.4},{},{},{},{},{},{},{},{},{},{}\n",
            r.app,
            r.actions.name(),
            r.actions.depth().map_or(String::new(), |d| d.to_string()),
            r.clean.speedup(),
            r.faulted.speedup(),
            r.clean.baseline.messages,
            run.messages,
            r.faulted.baseline.messages,
            r.faulted.accelerated.messages,
            run.exclusive_grants,
            run.voluntary_replacements,
            run.rollback.pushes,
            run.rollback.confirmed,
            run.rollback.rolled_back,
            run.rollback.early_acks,
        ));
    }
    out
}

/// The table as one snapshot: per-cell gauges under
/// `accel.<app>.<actions>[.depth<d>]` (the counts are the CSV's), and the
/// `stache.rollback.*` totals of every accelerated run, clean and faulted.
pub fn export_obs(rows: &[AccelRow]) -> obs::Snapshot {
    let mut snap = obs::Snapshot::new();
    let mut total = RollbackTally::new();
    for r in rows {
        let key = match r.actions.depth() {
            Some(d) => format!("accel.{}.{}.depth{d}", r.app, r.actions.name()),
            None => format!("accel.{}.{}", r.app, r.actions.name()),
        };
        let saving = 100.0 * r.clean.message_saving();
        snap.gauge(&format!("{key}.msg_saving_pct"), saving);
        snap.gauge(&format!("{key}.clean"), r.clean.speedup());
        snap.gauge(&format!("{key}.faulted"), r.faulted.speedup());
        total.merge(&r.clean.accelerated.rollback);
        total.merge(&r.faulted.accelerated.rollback);
    }
    total.export_obs(&mut snap);
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::bare_runs;
    use std::sync::OnceLock;

    fn plan() -> FaultPlan {
        FaultPlan::parse("drop=0.01,dup=0.005,reorder=3")
            .unwrap()
            .with_seed(7)
    }

    /// The small-scale table under `plan`, its baselines run fresh.
    fn small_table(plan: &FaultPlan) -> Vec<AccelRow> {
        let clean = bare_runs(Scale::Small, None, false).unwrap();
        let faulted = bare_runs(Scale::Small, Some(plan), false).unwrap();
        accel(Scale::Small, plan, &clean, &faulted).unwrap()
    }

    /// The small-scale table, computed once for the tests that read it.
    fn rows() -> &'static [AccelRow] {
        static ROWS: OnceLock<Vec<AccelRow>> = OnceLock::new();
        ROWS.get_or_init(|| small_table(&plan()))
    }

    /// Checks the row count and the benchmark order every test relies on.
    fn assert_covers_every_app(rows: &[AccelRow]) {
        assert_eq!(rows.len(), 5 * ACTION_SETS.len());
        let apps: Vec<&str> = rows
            .iter()
            .step_by(ACTION_SETS.len())
            .map(|r| r.app.as_str())
            .collect();
        assert_eq!(apps, ["appbt", "barnes", "dsmc", "moldyn", "unstructured"]);
    }

    #[test]
    fn every_app_runs_coherently_and_cosmos_fires_at_depth_two() {
        let rows = rows();
        assert_covers_every_app(rows);
        for r in rows {
            let cell = format!("{} {:?}", r.app, r.actions);
            // Every run completed its coherence audit; what is left to
            // check is that each ran and that Cosmos at depth 2 acted.
            assert!(r.clean.baseline.messages > 0, "{cell}");
            let run = &r.clean.accelerated;
            if r.actions == Actions::Cosmos(2) {
                assert!(
                    run.exclusive_grants + run.voluntary_replacements > 0,
                    "{cell}: no speculation fired"
                );
            }
        }
        let rendered = render_accel(rows, &plan());
        assert!(rendered.contains("speedup") && rendered.contains("unstructured"));
    }

    #[test]
    fn every_cell_resolves_its_pushes_clean_and_faulted() {
        let rows = rows();
        assert_covers_every_app(rows);
        let mut gated_speculated = false;
        for r in rows {
            let cell = format!("{} {:?}", r.app, r.actions);
            for c in [&r.clean, &r.faulted] {
                assert!(c.baseline.messages > 0 && c.accelerated.messages > 0);
                assert!(c.speedup() > 0.0, "{cell}");
                let t = c.accelerated.rollback;
                assert_eq!(t.pushes, t.confirmed + t.rolled_back, "{cell}");
            }
            if let Actions::Gated(_) = r.actions {
                gated_speculated |= !r.clean.accelerated.rollback.is_quiet();
            }
        }
        assert!(gated_speculated, "no benchmark speculated at any depth");
        assert_eq!(csv_accel(rows).lines().count(), 1 + rows.len());
    }

    #[test]
    fn cosmos_cuts_messages_on_the_speculation_friendly_benchmarks() {
        // dsmc's handoffs and unstructured/moldyn's migratory phases are
        // the headline cases: Cosmos speculation must cut messages there.
        for app in ["dsmc", "moldyn", "unstructured"] {
            let r = rows()
                .iter()
                .find(|r| r.app == app && r.actions == Actions::Cosmos(2))
                .unwrap();
            assert!(
                r.clean.accelerated.messages < r.clean.baseline.messages,
                "{app}: {}",
                r.clean
            );
        }
    }

    #[test]
    fn same_plan_is_deterministic() {
        let again = export_obs(&small_table(&plan()));
        assert_eq!(export_obs(rows()).to_json(), again.to_json());
        assert!(again.get("stache.rollback.pushes").is_some());
    }
}
