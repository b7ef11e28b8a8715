//! The §4/§8 integration study: running the benchmarks on the event
//! engine with live Cosmos-driven speculation, against the unmodified
//! protocol and against the directed-predictor pairing.

use crate::traces::{run_machine, Scale, TraceError};
use accel::{Comparison, CosmosPolicy, DirectedPolicy, RunSummary};
use simx::SpeculationPolicy;
use std::fmt::Write as _;

/// One benchmark's integration outcomes.
#[derive(Debug, Clone)]
pub struct IntegrationRow {
    /// Benchmark name.
    pub app: String,
    /// Baseline vs Cosmos-driven speculation.
    pub cosmos: Comparison,
    /// Baseline vs directed-predictor speculation.
    pub directed: Comparison,
}

/// Runs the integration study over the five benchmarks.
///
/// # Errors
///
/// The first benchmark whose run fails or ends incoherent, named.
pub fn integration(scale: Scale, depth: usize) -> Result<Vec<IntegrationRow>, TraceError> {
    // Each benchmark runs three full simulations (one baseline, two
    // accelerated); fan the five benchmarks out on the shared worker pool.
    crate::par::sweep(scale.suite().len(), |i| {
        let run = |policy: Option<Box<dyn SpeculationPolicy>>| {
            let mut w = scale.suite().swap_remove(i);
            let m = run_machine(w.as_mut(), policy, None)?;
            Ok((w.name().to_string(), RunSummary::of(&m)))
        };
        let (app, baseline) = run(None)?;
        let against = |policy| {
            Ok(Comparison {
                baseline,
                accelerated: run(Some(policy))?.1,
            })
        };
        Ok(IntegrationRow {
            app,
            cosmos: against(Box::new(CosmosPolicy::new(depth)))?,
            directed: against(Box::new(DirectedPolicy::new()))?,
        })
    })
    .into_iter()
    .collect()
}

/// Renders the study.
pub fn render_integration(rows: &[IntegrationRow], depth: usize) -> String {
    let mut out = format!(
        "Integration (§4/§8): live speculation on the machine, Cosmos depth {depth}\n\
         msg- = coherence-message reduction, speedup = execution-time ratio\n",
    );
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>9} {:>8} {:>8} | {:>9} {:>9}",
        "benchmark", "msg-", "speedup", "grants", "repl", "dir msg-", "dir spd"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>8.1}% {:>8.2}x {:>8} {:>8} | {:>8.1}% {:>8.2}x",
            r.app,
            100.0 * r.cosmos.message_saving(),
            r.cosmos.speedup(),
            r.cosmos.accelerated.exclusive_grants,
            r.cosmos.accelerated.voluntary_replacements,
            100.0 * r.directed.message_saving(),
            r.directed.speedup(),
        );
    }
    out.push_str(
        "(grants/repl = speculative exclusive grants / voluntary replacements;\n\
         dir = the directed RMW+DSI pairing; every run is on the event engine,\n\
         where actions contend with real races)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integration_runs_coherently_at_small_scale() {
        let rows = integration(Scale::Small, 2).unwrap();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            // Identical access streams: hits can only move because of
            // speculation, and the run never wedges (every run is
            // coherence-audited).
            assert!(r.cosmos.baseline.messages > 0);
            assert!(
                r.cosmos.accelerated.exclusive_grants + r.cosmos.accelerated.voluntary_replacements
                    > 0,
                "{}: no speculation fired",
                r.app
            );
        }
        let rendered = render_integration(&rows, 2);
        assert!(rendered.contains("speedup"));
    }

    #[test]
    fn speculation_helps_the_speculation_friendly_benchmarks() {
        let rows = integration(Scale::Small, 2).unwrap();
        // dsmc's handoffs and unstructured/moldyn's migratory phases are
        // the headline cases: Cosmos speculation must cut messages there.
        for app in ["dsmc", "moldyn", "unstructured"] {
            let r = rows.iter().find(|r| r.app == app).unwrap();
            assert!(
                r.cosmos.accelerated.messages < r.cosmos.baseline.messages,
                "{app}: {} -> {}",
                r.cosmos.baseline.messages,
                r.cosmos.accelerated.messages
            );
        }
    }
}
