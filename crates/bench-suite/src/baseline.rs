//! The baseline set: every benchmark run bare (no speculation policy) on
//! the event engine, on a perfect fabric and under a fault plan. `faults`
//! compares the two halves, `accel` measures its runs against them, and
//! `engines` and `tracespans` read the clean half, which records spans
//! when `tracespans` is to read it. Each run is reduced to what those
//! views read and its trace dropped in its sweep cell.

use accel::RunSummary;
use cosmos::eval::{evaluate_cosmos, record_verdicts, Verdict};
use obs::span::SpanLog;
use simx::fault::FaultTally;
use simx::FaultPlan;
use stache::RecoveryTally;

use crate::faults::FAULT_DEPTHS;
use crate::traces::{run_machine, TraceError};
use crate::Scale;

/// One benchmark's bare run, reduced to what the views read.
#[derive(Debug)]
pub struct BareRun {
    /// Benchmark name (Table 4 row order).
    pub app: String,
    /// Messages (each one a trace record, so a retransmission that
    /// arrives counts), execution time and action tallies.
    pub summary: RunSummary,
    /// Overall Cosmos accuracy (%) on the trace, per [`FAULT_DEPTHS`].
    pub accuracy: [f64; 4],
    /// Faults injected (all zero on a perfect fabric).
    pub faults: FaultTally,
    /// Recovery actions the run needed (quiet on a perfect fabric).
    pub recovery: RecoveryTally,
    /// The run's span trees; empty unless spans were recorded.
    pub spans: SpanLog,
    /// A depth-1 Cosmos fleet's verdict on each trace record, indexed as
    /// [`SpanLog::links`] indexes the trace; empty unless spans were
    /// recorded.
    pub verdicts: Vec<Verdict>,
}

/// Runs every benchmark bare, under `plan` or — with `None` — on a
/// perfect fabric, recording spans (and the verdicts they link to) if
/// `spans` is set; one sweep cell per benchmark. Every run is
/// invariant-audited.
///
/// # Errors
///
/// The first benchmark whose run fails, named: a plan harsh enough to
/// exhaust the retry budget, or (a protocol bug) an incoherent end state.
pub fn bare_runs(
    scale: Scale,
    plan: Option<&FaultPlan>,
    spans: bool,
) -> Result<Vec<BareRun>, TraceError> {
    crate::par::sweep(scale.suite().len(), |i| {
        let mut w = scale.suite().swap_remove(i);
        let mut machine = run_machine(w.as_mut(), None, plan.cloned(), spans)?;
        let summary = RunSummary::of(&machine);
        let faults = machine.fault_tally().cloned().unwrap_or_default();
        let recovery = machine.recovery_tally().clone();
        let span_log = machine.take_spans();
        let trace = machine.into_trace();
        Ok(BareRun {
            app: w.name().to_string(),
            summary,
            accuracy: FAULT_DEPTHS.map(|d| evaluate_cosmos(&trace, d, 0).overall.percent()),
            faults,
            recovery,
            spans: span_log,
            verdicts: if spans {
                record_verdicts(&trace, 1, 0)
            } else {
                Vec::new()
            },
        })
    })
    .into_iter()
    .collect()
}
