//! The fault-sensitivity report (`repro faults`).
//!
//! §5 of the paper argues Cosmos accuracy is insensitive to modest
//! perturbations of the message stream. This report tests that claim
//! directly: every benchmark runs twice on the event engine — once on a
//! perfect fabric and once under a seeded [`FaultPlan`] — and the
//! predictor is evaluated on both traces at MHR depths 1–4. Faults
//! perturb the *trace itself* — recovery shifts delivery timing and
//! ordering, and every retransmission that arrives is a reception —
//! while NAKs and retransmission timers stay recovery-layer control
//! traffic, excluded from the vocabulary. The accuracy delta therefore
//! measures how much a lossy network degrades pattern-based prediction.
//!
//! Both runs are audited by the usual invariant checks; the perturbed
//! run's fault and recovery tallies are merged into one snapshot
//! (`simx.fault.*`, `stache.recovery.*`, and per-benchmark
//! `faults.<app>.*` gauges) so `repro --faults … --csv DIR` leaves a
//! machine-readable artefact next to the rendered table.

use cosmos::eval::evaluate_cosmos;
use simx::fault::FaultTally;
use simx::FaultPlan;
use stache::RecoveryTally;
use trace::TraceBundle;

use crate::traces::{run_machine, TraceError};
use crate::Scale;

/// MHR depths the sensitivity report evaluates.
pub const FAULT_DEPTHS: [usize; 4] = [1, 2, 3, 4];

/// One benchmark's clean-vs-perturbed comparison.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Benchmark name (Table 4 row order).
    pub app: String,
    /// Overall Cosmos accuracy (%) on the clean trace, per [`FAULT_DEPTHS`].
    pub clean_pct: [f64; 4],
    /// Overall Cosmos accuracy (%) on the perturbed trace.
    pub perturbed_pct: [f64; 4],
    /// Coherence messages in the clean trace.
    pub clean_msgs: usize,
    /// Coherence messages in the perturbed trace (retransmissions are
    /// re-recorded, so this is usually larger).
    pub perturbed_msgs: usize,
    /// Faults injected into this benchmark's run.
    pub faults: FaultTally,
    /// Recovery actions this benchmark's run needed.
    pub recovery: RecoveryTally,
}

/// The full five-benchmark sensitivity report.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The plan every perturbed run used.
    pub plan: FaultPlan,
    /// Per-benchmark rows, Table 4 order.
    pub rows: Vec<FaultRow>,
}

impl FaultReport {
    /// Fault and recovery totals across all five benchmarks.
    pub fn totals(&self) -> (FaultTally, RecoveryTally) {
        let mut faults = FaultTally::default();
        let mut recovery = RecoveryTally::new();
        for row in &self.rows {
            faults.deliveries = faults.deliveries.saturating_add(row.faults.deliveries);
            faults.drops = faults.drops.saturating_add(row.faults.drops);
            faults.dups = faults.dups.saturating_add(row.faults.dups);
            faults.jitter_events = faults
                .jitter_events
                .saturating_add(row.faults.jitter_events);
            faults.spikes = faults.spikes.saturating_add(row.faults.spikes);
            faults.extra_delay_ns.merge(&row.faults.extra_delay_ns);
            recovery.merge(&row.recovery);
        }
        (faults, recovery)
    }

    /// Exports the whole report as one snapshot: aggregate `simx.fault.*`
    /// and `stache.recovery.*` totals plus per-benchmark accuracy gauges.
    pub fn export_obs(&self) -> obs::Snapshot {
        let mut snap = obs::Snapshot::new();
        let (faults, recovery) = self.totals();
        faults.export_obs(&mut snap);
        recovery.export_obs(&mut snap);
        for row in &self.rows {
            for (i, depth) in FAULT_DEPTHS.iter().enumerate() {
                snap.gauge(
                    &format!("faults.{}.depth{depth}.clean_pct", row.app),
                    row.clean_pct[i],
                );
                snap.gauge(
                    &format!("faults.{}.depth{depth}.perturbed_pct", row.app),
                    row.perturbed_pct[i],
                );
            }
            snap.counter(
                &format!("faults.{}.clean_msgs", row.app),
                row.clean_msgs as u64,
            );
            snap.counter(
                &format!("faults.{}.perturbed_msgs", row.app),
                row.perturbed_msgs as u64,
            );
            snap.counter(&format!("faults.{}.retries", row.app), row.recovery.retries);
            snap.counter(&format!("faults.{}.naks", row.app), row.recovery.naks_sent);
        }
        snap
    }
}

/// Runs all five benchmarks clean and under `plan` on the shared worker
/// pool, evaluating Cosmos on both traces at every [`FAULT_DEPTHS`] depth.
/// Every run is invariant-audited.
///
/// # Errors
///
/// The first benchmark whose run fails, named: a plan harsh enough to
/// exhaust the retry budget, or (a protocol bug) an incoherent end state.
pub fn fault_report(scale: Scale, plan: &FaultPlan) -> Result<FaultReport, TraceError> {
    let accuracy = |bundle: &TraceBundle| {
        FAULT_DEPTHS.map(|d| evaluate_cosmos(bundle, d, 0).overall.percent())
    };
    let rows = crate::par::sweep(scale.suite().len(), |i| {
        let fresh = || scale.suite().swap_remove(i);
        let clean = run_machine(fresh().as_mut(), None, None)?.into_trace();
        let machine = run_machine(fresh().as_mut(), None, Some(plan.clone()))?;
        let faults = machine.fault_tally().cloned().unwrap_or_default();
        let recovery = machine.recovery_tally().clone();
        let perturbed = machine.into_trace();
        Ok(FaultRow {
            app: clean.meta().app.clone(),
            clean_pct: accuracy(&clean),
            perturbed_pct: accuracy(&perturbed),
            clean_msgs: clean.len(),
            perturbed_msgs: perturbed.len(),
            faults,
            recovery,
        })
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(FaultReport {
        plan: plan.clone(),
        rows,
    })
}

/// Renders the accuracy comparison and the recovery-action summary.
pub fn render_fault_report(report: &FaultReport) -> String {
    let p = &report.plan;
    let mut acc = obs::Table::new(vec![
        "benchmark",
        "d1 clean",
        "d1 faulty",
        "d2 clean",
        "d2 faulty",
        "d3 clean",
        "d3 faulty",
        "d4 clean",
        "d4 faulty",
    ])
    .with_title(format!(
        "Cosmos accuracy (overall %), clean vs perturbed trace \
         (drop={}, dup={}, reorder={}, spike={}, seed={})",
        p.drop, p.dup, p.reorder, p.spike, p.seed
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
        let mut cells = vec![row.app.clone()];
        for i in 0..FAULT_DEPTHS.len() {
            cells.push(format!("{:.1}", row.clean_pct[i]));
            cells.push(format!("{:.1}", row.perturbed_pct[i]));
        }
        acc.push_row(cells);
    }

    let mut rec = obs::Table::new(vec![
        "benchmark",
        "msgs clean",
        "msgs faulty",
        "drops",
        "dups",
        "retries",
        "NAKs",
        "regrants",
    ])
    .with_title("Recovery actions under the fault plan".to_string())
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
    for row in &report.rows {
        rec.push_row(vec![
            row.app.clone(),
            row.clean_msgs.to_string(),
            row.perturbed_msgs.to_string(),
            row.faults.drops.to_string(),
            row.faults.dups.to_string(),
            row.recovery.retries.to_string(),
            row.recovery.naks_sent.to_string(),
            row.recovery.regrants.to_string(),
        ]);
    }

    format!("{}\n{}", acc.render(), rec.render())
}

/// The accuracy comparison as CSV (`faults.csv` under `--csv DIR`).
pub fn csv_fault_report(report: &FaultReport) -> String {
    let mut out = String::from(
        "benchmark,depth,clean_pct,perturbed_pct,clean_msgs,perturbed_msgs,\
         drops,dups,retries,naks\n",
    );
    for row in &report.rows {
        for (i, depth) in FAULT_DEPTHS.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{},{},{},{},{},{}\n",
                row.app,
                depth,
                row.clean_pct[i],
                row.perturbed_pct[i],
                row.clean_msgs,
                row.perturbed_msgs,
                row.faults.drops,
                row.faults.dups,
                row.recovery.retries,
                row.recovery.naks_sent,
            ));
        }
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
    fn all_five_benchmarks_survive_the_issue_plan() {
        let report = fault_report(Scale::Small, &issue_plan()).unwrap();
        assert_eq!(
            report
                .rows
                .iter()
                .map(|r| r.app.as_str())
                .collect::<Vec<_>>(),
            vec!["appbt", "barnes", "dsmc", "moldyn", "unstructured"]
        );
        let (faults, recovery) = report.totals();
        assert!(faults.deliveries > 0, "the injector ruled on traffic");
        assert!(faults.drops > 0, "1% drop rate must hit something");
        assert!(!recovery.is_quiet(), "drops require recovery actions");
        for row in &report.rows {
            for i in 0..FAULT_DEPTHS.len() {
                assert!((0.0..=100.0).contains(&row.clean_pct[i]), "{}", row.app);
                assert!((0.0..=100.0).contains(&row.perturbed_pct[i]), "{}", row.app);
            }
            assert!(row.clean_msgs > 0 && row.perturbed_msgs > 0);
        }
        let rendered = render_fault_report(&report);
        assert!(rendered.contains("Cosmos accuracy"));
        assert!(rendered.contains("unstructured"));
        let csv = csv_fault_report(&report);
        // Header plus five benchmarks at four depths.
        assert_eq!(csv.lines().count(), 1 + 5 * FAULT_DEPTHS.len());
    }

    #[test]
    fn same_seed_exports_identical_obs_json() {
        let a = fault_report(Scale::Small, &issue_plan())
            .unwrap()
            .export_obs();
        let b = fault_report(Scale::Small, &issue_plan())
            .unwrap()
            .export_obs();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.get("stache.recovery.retries").is_some());
        assert!(a.get("simx.fault.drops").is_some());
        assert!(a.get("faults.appbt.naks").is_some());
    }
}
