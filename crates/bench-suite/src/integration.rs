//! The §4/§8 integration study: running the benchmarks on the machine
//! with live Cosmos-driven speculation, against the unmodified protocol
//! and against the directed-predictor pairing.

use crate::traces::Scale;
use accel::{compare, compare_concurrent, Comparison, CosmosPolicy, DirectedPolicy};
use std::fmt::Write as _;
use workloads::{paper_suite, small_suite, Workload};

/// One benchmark's integration outcomes.
#[derive(Debug, Clone)]
pub struct IntegrationRow {
    /// Benchmark name.
    pub app: String,
    /// Baseline vs Cosmos-driven speculation.
    pub cosmos: Comparison,
    /// Baseline vs directed-predictor speculation.
    pub directed: Comparison,
    /// Baseline vs Cosmos speculation, on the concurrent engine.
    pub cosmos_concurrent: Comparison,
}

fn suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    match scale {
        Scale::Paper => paper_suite(),
        Scale::Small => small_suite(),
    }
}

/// Runs the integration study over the five benchmarks.
pub fn integration(scale: Scale, depth: usize) -> Vec<IntegrationRow> {
    let names: Vec<&str> = suite(scale).iter().map(|w| w.name()).collect();
    // Each benchmark runs six full simulations (three baseline/accelerated
    // pairs); fan the five benchmarks out on the shared worker pool.
    crate::par::sweep(names.len(), |i| {
        let name = names[i];
        let fresh = || {
            suite(scale)
                .into_iter()
                .find(|w| w.name() == name)
                .expect("known benchmark")
        };
        let cosmos = compare(fresh().as_mut(), fresh().as_mut(), || {
            Box::new(CosmosPolicy::new(depth))
        })
        .expect("coherent accelerated run");
        let directed = compare(fresh().as_mut(), fresh().as_mut(), || {
            Box::new(DirectedPolicy::new())
        })
        .expect("coherent directed run");
        let cosmos_concurrent = compare_concurrent(fresh().as_mut(), fresh().as_mut(), || {
            Box::new(CosmosPolicy::new(depth))
        })
        .expect("coherent concurrent accelerated run");
        IntegrationRow {
            app: name.to_string(),
            cosmos,
            directed,
            cosmos_concurrent,
        }
    })
}

/// Renders the study.
pub fn render_integration(rows: &[IntegrationRow], depth: usize) -> String {
    let mut out = format!(
        "Integration (§4/§8): live speculation on the machine, Cosmos depth {depth}\n\
         msg- = coherence-message reduction, speedup = execution-time ratio\n",
    );
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>9} {:>8} {:>8} | {:>9} {:>9} | {:>9} {:>9}",
        "benchmark",
        "msg-",
        "speedup",
        "grants",
        "repl",
        "dir msg-",
        "dir spd",
        "conc msg-",
        "conc spd"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>8.1}% {:>8.2}x {:>8} {:>8} | {:>8.1}% {:>8.2}x | {:>8.1}% {:>8.2}x",
            r.app,
            100.0 * r.cosmos.message_saving(),
            r.cosmos.speedup(),
            r.cosmos.accelerated.exclusive_grants,
            r.cosmos.accelerated.voluntary_replacements,
            100.0 * r.directed.message_saving(),
            r.directed.speedup(),
            100.0 * r.cosmos_concurrent.message_saving(),
            r.cosmos_concurrent.speedup(),
        );
    }
    out.push_str(
        "(grants/repl = speculative exclusive grants / voluntary replacements;\n\
         dir = the directed RMW+DSI pairing; conc = Cosmos speculation on the\n\
         concurrent engine, where actions contend with real races)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integration_runs_coherently_at_small_scale() {
        let rows = integration(Scale::Small, 2);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            // Identical access streams: hits can only move because of
            // speculation, and the run never wedges (compare() verified
            // coherence internally).
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
        let rows = integration(Scale::Small, 2);
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
