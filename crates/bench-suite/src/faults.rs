//! The fault-sensitivity report (`repro faults`).
//!
//! §5 of the paper argues Cosmos accuracy is insensitive to modest
//! perturbations of the message stream. This report tests that claim
//! directly: it reads both halves of the baseline set
//! ([`crate::baseline`]), where every benchmark ran bare on the event
//! engine once on a perfect fabric and once under a seeded [`FaultPlan`],
//! and the predictor was evaluated on both traces at MHR depths 1–4. Faults
//! perturb the *trace itself* — recovery shifts delivery timing and
//! ordering, and every retransmission that arrives is a reception —
//! while NAKs and retransmission timers stay recovery-layer control
//! traffic, excluded from the vocabulary. The accuracy delta therefore
//! measures how much a lossy network degrades pattern-based prediction.
//!
//! Both runs were audited by the usual invariant checks; the perturbed
//! run's fault and recovery tallies are merged into one snapshot
//! (`simx.fault.*`, `stache.recovery.*`, and per-benchmark
//! `faults.<app>.*` gauges) so `repro --faults … --csv DIR` leaves a
//! machine-readable artefact next to the rendered table.

use simx::fault::FaultTally;
use simx::FaultPlan;
use stache::RecoveryTally;

use crate::baseline::BareRun;

/// MHR depths the sensitivity report evaluates.
pub const FAULT_DEPTHS: [usize; 4] = [1, 2, 3, 4];

/// The full five-benchmark sensitivity report: both halves of the
/// baseline set side by side.
#[derive(Debug, Clone, Copy)]
pub struct FaultReport<'a> {
    /// The plan every perturbed run used.
    pub plan: &'a FaultPlan,
    /// The clean runs, Table 4 order.
    pub clean: &'a [BareRun],
    /// The same benchmarks run under `plan`, in the same order.
    pub perturbed: &'a [BareRun],
}

impl FaultReport<'_> {
    /// Each benchmark's clean and perturbed run.
    fn rows(&self) -> impl Iterator<Item = (&BareRun, &BareRun)> {
        self.clean.iter().zip(self.perturbed)
    }

    /// Fault and recovery totals across all five benchmarks.
    pub fn totals(&self) -> (FaultTally, RecoveryTally) {
        let mut faults = FaultTally::default();
        let mut recovery = RecoveryTally::new();
        for run in self.perturbed {
            faults.deliveries = faults.deliveries.saturating_add(run.faults.deliveries);
            faults.drops = faults.drops.saturating_add(run.faults.drops);
            faults.dups = faults.dups.saturating_add(run.faults.dups);
            faults.jitter_events = faults
                .jitter_events
                .saturating_add(run.faults.jitter_events);
            faults.spikes = faults.spikes.saturating_add(run.faults.spikes);
            faults.extra_delay_ns.merge(&run.faults.extra_delay_ns);
            recovery.merge(&run.recovery);
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
        for (clean, perturbed) in self.rows() {
            let app = &clean.app;
            for (i, depth) in FAULT_DEPTHS.iter().enumerate() {
                snap.gauge(
                    &format!("faults.{app}.depth{depth}.clean_pct"),
                    clean.accuracy[i],
                );
                snap.gauge(
                    &format!("faults.{app}.depth{depth}.perturbed_pct"),
                    perturbed.accuracy[i],
                );
            }
            snap.counter(&format!("faults.{app}.clean_msgs"), clean.summary.messages);
            snap.counter(
                &format!("faults.{app}.perturbed_msgs"),
                perturbed.summary.messages,
            );
            snap.counter(&format!("faults.{app}.retries"), perturbed.recovery.retries);
            snap.counter(&format!("faults.{app}.naks"), perturbed.recovery.naks_sent);
        }
        snap
    }
}

/// The report over the two halves of the baseline set
/// ([`bare_runs`](crate::baseline::bare_runs)), `perturbed` run under
/// `plan`; both in Table 4 order.
pub fn fault_report<'a>(
    clean: &'a [BareRun],
    perturbed: &'a [BareRun],
    plan: &'a FaultPlan,
) -> FaultReport<'a> {
    FaultReport {
        plan,
        clean,
        perturbed,
    }
}

/// Renders the accuracy comparison and the recovery-action summary.
pub fn render_fault_report(report: &FaultReport) -> String {
    let p = report.plan;
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
    for (clean, perturbed) in report.rows() {
        let mut cells = vec![clean.app.clone()];
        for i in 0..FAULT_DEPTHS.len() {
            cells.push(format!("{:.1}", clean.accuracy[i]));
            cells.push(format!("{:.1}", perturbed.accuracy[i]));
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
    for (clean, perturbed) in report.rows() {
        rec.push_row(vec![
            clean.app.clone(),
            clean.summary.messages.to_string(),
            perturbed.summary.messages.to_string(),
            perturbed.faults.drops.to_string(),
            perturbed.faults.dups.to_string(),
            perturbed.recovery.retries.to_string(),
            perturbed.recovery.naks_sent.to_string(),
            perturbed.recovery.regrants.to_string(),
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
    for (clean, perturbed) in report.rows() {
        for (i, depth) in FAULT_DEPTHS.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{},{},{},{},{},{}\n",
                clean.app,
                depth,
                clean.accuracy[i],
                perturbed.accuracy[i],
                clean.summary.messages,
                perturbed.summary.messages,
                perturbed.faults.drops,
                perturbed.faults.dups,
                perturbed.recovery.retries,
                perturbed.recovery.naks_sent,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::baseline::bare_runs;
    use crate::Scale;

    fn issue_plan() -> FaultPlan {
        FaultPlan::parse("drop=0.01,dup=0.005,reorder=3")
            .unwrap()
            .with_seed(7)
    }

    /// Both halves of the small-scale baseline set, the second under
    /// `plan`.
    fn small_halves(plan: &FaultPlan) -> [Vec<BareRun>; 2] {
        [None, Some(plan)].map(|plan| bare_runs(Scale::Small, plan, false).unwrap())
    }

    #[test]
    fn all_five_benchmarks_survive_the_issue_plan() {
        let plan = issue_plan();
        let [clean, perturbed] = small_halves(&plan);
        let report = fault_report(&clean, &perturbed, &plan);
        assert_eq!(
            report
                .rows()
                .map(|(c, _)| c.app.as_str())
                .collect::<Vec<_>>(),
            vec!["appbt", "barnes", "dsmc", "moldyn", "unstructured"]
        );
        let (faults, recovery) = report.totals();
        assert!(faults.deliveries > 0, "the injector ruled on traffic");
        assert!(faults.drops > 0, "1% drop rate must hit something");
        assert!(!recovery.is_quiet(), "drops require recovery actions");
        for (c, p) in report.rows() {
            for i in 0..FAULT_DEPTHS.len() {
                assert!((0.0..=100.0).contains(&c.accuracy[i]), "{}", c.app);
                assert!((0.0..=100.0).contains(&p.accuracy[i]), "{}", c.app);
            }
            assert!(c.summary.messages > 0 && p.summary.messages > 0);
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
        let plan = issue_plan();
        let [a, b] = [0, 1].map(|_| {
            let [clean, perturbed] = small_halves(&plan);
            fault_report(&clean, &perturbed, &plan).export_obs()
        });
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.get("stache.recovery.retries").is_some());
        assert!(a.get("simx.fault.drops").is_some());
        assert!(a.get("faults.appbt.naks").is_some());
    }
}
