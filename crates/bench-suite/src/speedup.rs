//! The end-to-end speculation speedup report (`repro speedup`).
//!
//! Figure 5 of the paper is an *analytic* speedup model: given per-message
//! prediction accuracy `p`, overlap fraction `f`, and misprediction
//! penalty `r`, it predicts how much a prediction-actioned protocol gains.
//! This report closes the loop the paper leaves open: every benchmark runs
//! on the event engine twice per cell — bare, then with the
//! [`SpeculatePolicy`] driving all four speculative actions (exclusive
//! grants, self-invalidation, early invalidation acks, speculative
//! forwarding pushes with rollback) — and the *measured* execution-time
//! ratio is laid beside the Figure 5 curve evaluated at the accuracy the
//! predictor actually achieved on that benchmark's trace.
//!
//! Cells are measured clean and under a seeded [`FaultPlan`]: the rollback
//! machinery rides the same sequence-numbered recovery layer, so the
//! claim under test is that speculation keeps its gains (and its
//! correctness) when the fabric misbehaves. Every run is coherence-audited;
//! the speculative runs' [`RollbackTally`] columns show how often the
//! protocol bet and how often it had to roll a push back.

use accel::SpeculatePolicy;
use cosmos::eval::evaluate_cosmos;
use cosmos::speedup::{speedup as model_speedup, SpeedupParams};
use simx::FaultPlan;
use stache::RollbackTally;
use trace::TraceBundle;
use workloads::Workload;

use crate::traces::{run_machine, TraceError};
use crate::Scale;

/// MHR depths the speedup report measures (the paper evaluates 1–4).
pub const SPEEDUP_DEPTHS: [usize; 4] = [1, 2, 3, 4];

/// Confidence threshold every speculative run uses (see
/// [`cosmos::CONFIDENCE_MAX`]): high enough that cold tables
/// stay silent, low enough that stable patterns fire.
pub const SPEC_THRESHOLD: u8 = 2;

/// Overlap fraction `f` for the analytic comparison: a correctly-predicted
/// message still costs ~a third of its latency (the action fires at the
/// directory/cache handler, not infinitely early).
pub const ANALYTIC_F: f64 = 0.3;

/// Misprediction penalty `r` for the analytic comparison: a wrong bet
/// costs about one extra message round (`r = 1` ⇒ 2× delay).
pub const ANALYTIC_R: f64 = 1.0;

/// One measured cell: a benchmark at one depth, clean or faulted.
#[derive(Debug, Clone)]
pub struct SpeedupCell {
    /// Baseline (no policy) execution time, ns.
    pub base_ns: u64,
    /// Speculative execution time, ns.
    pub spec_ns: u64,
    /// Baseline coherence messages.
    pub base_msgs: u64,
    /// Speculative-run coherence messages.
    pub spec_msgs: u64,
    /// Push/rollback/early-ack counts from the speculative run.
    pub rollback: RollbackTally,
}

impl SpeedupCell {
    /// Measured execution-time speedup, baseline over speculative.
    pub fn speedup(&self) -> f64 {
        if self.spec_ns == 0 {
            return 1.0;
        }
        self.base_ns as f64 / self.spec_ns as f64
    }
}

/// One benchmark × depth row of the report.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Benchmark name (Table 4 row order).
    pub app: String,
    /// MHR depth of the speculating predictor fleet.
    pub depth: usize,
    /// Cosmos accuracy (rate in [0, 1]) on this benchmark's clean
    /// baseline trace at this depth — the `p` fed to the model.
    pub accuracy: f64,
    /// Figure 5 analytic speedup at that accuracy
    /// ([`ANALYTIC_F`], [`ANALYTIC_R`]).
    pub analytic: f64,
    /// Measured cell on a perfect fabric.
    pub clean: SpeedupCell,
    /// Measured cell under the fault plan.
    pub faulted: SpeedupCell,
}

/// The full five-benchmark, four-depth report.
#[derive(Debug, Clone)]
pub struct SpeedupReport {
    /// The plan every faulted cell used.
    pub plan: FaultPlan,
    /// Rows in (benchmark, depth) order.
    pub rows: Vec<SpeedupRow>,
}

impl SpeedupReport {
    /// Exports the report as one snapshot: per-cell speedup gauges and
    /// aggregate `stache.rollback.*` totals across all speculative runs.
    pub fn export_obs(&self) -> obs::Snapshot {
        let mut snap = obs::Snapshot::new();
        let mut total = RollbackTally::new();
        for row in &self.rows {
            let key = format!("speedup.{}.depth{}", row.app, row.depth);
            snap.gauge(&format!("{key}.accuracy_pct"), 100.0 * row.accuracy);
            snap.gauge(&format!("{key}.analytic"), row.analytic);
            snap.gauge(&format!("{key}.clean"), row.clean.speedup());
            snap.gauge(&format!("{key}.faulted"), row.faulted.speedup());
            snap.counter(&format!("{key}.pushes"), row.clean.rollback.pushes);
            snap.counter(
                &format!("{key}.rolled_back"),
                row.clean.rollback.rolled_back,
            );
            snap.counter(&format!("{key}.early_acks"), row.clean.rollback.early_acks);
            total.merge(&row.clean.rollback);
            total.merge(&row.faulted.rollback);
        }
        total.export_obs(&mut snap);
        snap
    }
}

/// A fresh instance of benchmark `i` (plans are pure functions of the
/// workload parameters, so every instance replays the same accesses).
fn fresh(scale: Scale, i: usize) -> Box<dyn Workload> {
    scale.suite().swap_remove(i)
}

/// Runs one workload on the event engine, optionally speculating,
/// optionally faulted, and returns (time, messages, rollback, trace).
fn run_cell(
    w: &mut dyn Workload,
    policy: Option<Box<dyn simx::SpeculationPolicy>>,
    plan: Option<FaultPlan>,
) -> Result<(u64, u64, RollbackTally, TraceBundle), TraceError> {
    let machine = run_machine(w, policy, plan)?;
    let ns = machine.execution_time_ns();
    let msgs = machine.stats().messages_total();
    let rollback = machine.rollback_tally().clone();
    Ok((ns, msgs, rollback, machine.into_trace()))
}

/// Measures every benchmark at every [`SPEEDUP_DEPTHS`] depth, clean and
/// under `plan` (one sweep cell per benchmark, like the fault report).
///
/// # Errors
///
/// The first benchmark whose run fails, named — speculation must never
/// trade correctness for speed, so short of a plan that exhausts the
/// retry budget this is a protocol bug.
pub fn speedup_report(scale: Scale, plan: &FaultPlan) -> Result<SpeedupReport, TraceError> {
    let per_app = crate::par::sweep(scale.suite().len(), |i| {
        let (base_ns, base_msgs, _, base_trace) = run_cell(fresh(scale, i).as_mut(), None, None)?;
        let (fbase_ns, fbase_msgs, _, _) =
            run_cell(fresh(scale, i).as_mut(), None, Some(plan.clone()))?;
        SPEEDUP_DEPTHS
            .iter()
            .map(|&depth| {
                let policy = || Box::new(SpeculatePolicy::new(depth, Some(SPEC_THRESHOLD)));
                let (spec_ns, spec_msgs, rollback, _) =
                    run_cell(fresh(scale, i).as_mut(), Some(policy()), None)?;
                let (fspec_ns, fspec_msgs, frollback, _) =
                    run_cell(fresh(scale, i).as_mut(), Some(policy()), Some(plan.clone()))?;
                let accuracy = evaluate_cosmos(&base_trace, depth, 1).overall.rate();
                Ok(SpeedupRow {
                    app: base_trace.meta().app.clone(),
                    depth,
                    accuracy,
                    analytic: model_speedup(SpeedupParams {
                        p: accuracy,
                        f: ANALYTIC_F,
                        r: ANALYTIC_R,
                    }),
                    clean: SpeedupCell {
                        base_ns,
                        spec_ns,
                        base_msgs,
                        spec_msgs,
                        rollback,
                    },
                    faulted: SpeedupCell {
                        base_ns: fbase_ns,
                        spec_ns: fspec_ns,
                        base_msgs: fbase_msgs,
                        spec_msgs: fspec_msgs,
                        rollback: frollback,
                    },
                })
            })
            .collect::<Result<Vec<_>, TraceError>>()
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(SpeedupReport {
        plan: plan.clone(),
        rows: per_app.into_iter().flatten().collect(),
    })
}

/// Renders the measured-vs-analytic table and the speculation-action
/// summary.
pub fn render_speedup_report(report: &SpeedupReport) -> String {
    let p = &report.plan;
    let mut tbl = obs::Table::new(vec![
        "benchmark",
        "depth",
        "p %",
        "fig5 model",
        "measured clean",
        "measured faulty",
        "pushes",
        "rolled back",
        "early acks",
    ])
    .with_title(format!(
        "Measured speculation speedup vs Figure 5 model \
         (f={ANALYTIC_F}, r={ANALYTIC_R}, threshold={SPEC_THRESHOLD}; \
         faults drop={}, dup={}, reorder={}, seed={})",
        p.drop, p.dup, p.reorder, p.seed
    ))
    .with_aligns(vec![
        obs::Align::Left,
        obs::Align::Right,
        obs::Align::Right,
        obs::Align::Right,
        obs::Align::Right,
        obs::Align::Right,
        obs::Align::Right,
        obs::Align::Right,
        obs::Align::Right,
    ]);
    for row in &report.rows {
        tbl.push_row(vec![
            row.app.clone(),
            row.depth.to_string(),
            format!("{:.1}", 100.0 * row.accuracy),
            format!("{:.4}", row.analytic),
            format!("{:.4}", row.clean.speedup()),
            format!("{:.4}", row.faulted.speedup()),
            row.clean.rollback.pushes.to_string(),
            row.clean.rollback.rolled_back.to_string(),
            row.clean.rollback.early_acks.to_string(),
        ]);
    }
    tbl.render()
}

/// The report as CSV (`speedup.csv` under `--csv DIR`).
pub fn csv_speedup_report(report: &SpeedupReport) -> String {
    let mut out = String::from(
        "benchmark,depth,accuracy_pct,analytic,clean_speedup,faulted_speedup,\
         base_msgs,spec_msgs,faulted_base_msgs,faulted_spec_msgs,\
         pushes,confirmed,rolled_back,early_acks\n",
    );
    for row in &report.rows {
        out.push_str(&format!(
            "{},{},{:.4},{:.4},{:.4},{:.4},{},{},{},{},{},{},{},{}\n",
            row.app,
            row.depth,
            100.0 * row.accuracy,
            row.analytic,
            row.clean.speedup(),
            row.faulted.speedup(),
            row.clean.base_msgs,
            row.clean.spec_msgs,
            row.faulted.base_msgs,
            row.faulted.spec_msgs,
            row.clean.rollback.pushes,
            row.clean.rollback.confirmed,
            row.clean.rollback.rolled_back,
            row.clean.rollback.early_acks,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue_plan() -> FaultPlan {
        FaultPlan::parse("drop=0.01,dup=0.005,reorder=3")
            .unwrap()
            .with_seed(7)
    }

    #[test]
    fn speedup_report_covers_every_cell_and_stays_coherent() {
        let report = speedup_report(Scale::Small, &issue_plan()).unwrap();
        assert_eq!(report.rows.len(), 5 * SPEEDUP_DEPTHS.len());
        let apps: Vec<&str> = report
            .rows
            .iter()
            .step_by(SPEEDUP_DEPTHS.len())
            .map(|r| r.app.as_str())
            .collect();
        assert_eq!(
            apps,
            vec!["appbt", "barnes", "dsmc", "moldyn", "unstructured"]
        );
        let mut speculated = false;
        for row in &report.rows {
            assert!((0.0..=1.0).contains(&row.accuracy), "{}", row.app);
            assert!(row.analytic >= 0.5, "{} model out of range", row.app);
            assert!(row.clean.base_msgs > 0 && row.clean.spec_msgs > 0);
            assert!(row.clean.speedup() > 0.0 && row.faulted.speedup() > 0.0);
            // Every push was resolved: confirmed or rolled back.
            for cell in [&row.clean, &row.faulted] {
                assert_eq!(
                    cell.rollback.pushes,
                    cell.rollback.confirmed + cell.rollback.rolled_back,
                    "{} d{} unresolved pushes",
                    row.app,
                    row.depth
                );
            }
            speculated |= !row.clean.rollback.is_quiet();
        }
        assert!(speculated, "no benchmark speculated at any depth");
        let rendered = render_speedup_report(&report);
        assert!(rendered.contains("Figure 5 model"));
        assert!(rendered.contains("unstructured"));
        let csv = csv_speedup_report(&report);
        assert_eq!(csv.lines().count(), 1 + 5 * SPEEDUP_DEPTHS.len());
    }

    #[test]
    fn same_plan_is_deterministic() {
        let a = speedup_report(Scale::Small, &issue_plan())
            .unwrap()
            .export_obs();
        let b = speedup_report(Scale::Small, &issue_plan())
            .unwrap()
            .export_obs();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.get("stache.rollback.pushes").is_some());
    }
}
