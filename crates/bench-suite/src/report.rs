//! The machine-readable run report behind `repro --obs-json`.
//!
//! One call to [`obs_report`] runs a benchmark end-to-end and condenses
//! every layer's metrics into a single [`obs::Snapshot`]:
//!
//! * `simx.*` — machine access/message counters and latency histograms;
//! * `stache.*` — per-transition protocol tallies and invariant-check
//!   counts;
//! * `trace.*` — captured message-mix statistics and the packed-codec
//!   byte totals (`trace.pack.*`);
//! * `cosmos.depth<d>.*` — predictor accuracy, coverage, and memory at
//!   MHR depths 1 and 2;
//! * `accel.*` — the baseline-vs-speculation comparison.
//!
//! Everything in the pipeline is deterministic (plans are pure functions
//! of their parameters, the machine serialises events deterministically),
//! so the exported JSON is byte-stable run to run — asserted by the
//! golden test below and relied on by downstream diffing.

use accel::{compare, CosmosPolicy};
use cosmos::eval::evaluate_cosmos;
use simx::{Machine, SystemConfig};
use stache::ProtocolConfig;
use trace::TraceStats;
use workloads::{drive, small_suite, Workload};

use crate::Scale;

/// MHR depths the report evaluates the predictor at.
pub const REPORT_DEPTHS: [usize; 2] = [1, 2];

/// Chunk size the report packs the captured trace at (matches the
/// `tracepack` target's per-scale choice so the two agree byte-for-byte).
pub fn report_chunk_records(scale: Scale) -> u32 {
    crate::tracepack::chunk_records(scale)
}

/// The benchmark names [`obs_report`] accepts.
pub fn report_apps() -> Vec<String> {
    small_suite()
        .into_iter()
        .map(|w| w.name().to_string())
        .collect()
}

fn workload_named(scale: Scale, app: &str) -> Box<dyn Workload> {
    let found = scale.suite().into_iter().find(|w| w.name() == app);
    found.unwrap_or_else(|| panic!("unknown benchmark {app}"))
}

/// Runs `app` at `scale` and exports a workspace-wide metrics snapshot.
///
/// # Panics
///
/// Panics if `app` is not one of the five benchmarks or a run fails —
/// this is a reporting entry point, not a recoverable path.
pub fn obs_report(scale: Scale, app: &str) -> obs::Snapshot {
    // The instrumented base run: machine + protocol + trace metrics.
    let mut w = workload_named(scale, app);
    let mut machine = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
    drive(&mut machine, &mut *w).unwrap_or_else(|e| panic!("{app} failed: {e}"));
    let mut snap = machine.obs_snapshot();
    TraceStats::compute(machine.trace()).export_obs(&mut snap);

    // The packed-codec totals over the same captured trace: byte volumes
    // and compression ratio are pure functions of the record stream, so
    // they belong in the deterministic report (packing speed is the
    // pipeline benchmark's `trace.pack_encode` layer).
    let (_, pack_stats) =
        trace::pack::pack_bundle_with_stats(machine.trace(), report_chunk_records(scale))
            .unwrap_or_else(|e| panic!("{app} trace failed to pack: {e}"));
    pack_stats.export_obs(&mut snap);

    // Predictor accuracy and memory over the captured trace.
    for depth in REPORT_DEPTHS {
        evaluate_cosmos(machine.trace(), depth, 0).export_obs(depth, &mut snap);
    }

    // The §4 integration: same workload, bare vs speculating.
    let comparison = compare(
        &mut *workload_named(scale, app),
        &mut *workload_named(scale, app),
        || Box::new(CosmosPolicy::new(2)),
    )
    .unwrap_or_else(|e| panic!("{app} comparison failed: {e}"));
    comparison.export_obs(&mut snap);

    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_spans_every_layer_with_enough_metrics() {
        let snap = obs_report(Scale::Small, "appbt");
        assert!(
            snap.len() >= 20,
            "only {} metrics: {:?}",
            snap.len(),
            snap.names()
        );
        for prefix in [
            "simx.",
            "stache.",
            "trace.",
            "trace.pack.",
            "cosmos.",
            "accel.",
        ] {
            assert!(
                snap.names().iter().any(|n| n.starts_with(prefix)),
                "no {prefix} metrics in {:?}",
                snap.names()
            );
        }
    }

    #[test]
    fn report_json_is_byte_stable_across_runs() {
        let a = obs_report(Scale::Small, "appbt").to_json();
        let b = obs_report(Scale::Small, "appbt").to_json();
        assert_eq!(a, b, "same seed must export identical bytes");
        assert!(a.starts_with("{\"schema\":\"obs.v1\""));
    }
}
