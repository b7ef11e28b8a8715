//! Introspection: a tour of the predictor's analysis APIs — per-agent
//! accuracy breakdowns and confidence gating — over a real workload
//! trace.
//!
//! ```text
//! cargo run --release --example introspection
//! ```

use cosmos_repro::cosmos::eval::evaluate_cosmos;
use cosmos_repro::cosmos::CosmosPredictor;
use cosmos_repro::simx::SystemConfig;
use cosmos_repro::stache::ProtocolConfig;
use cosmos_repro::workloads::{run_to_trace, Unstructured};

fn main() {
    let mut w = Unstructured::small();
    let trace = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper())
        .expect("benchmark runs clean");
    println!("unstructured (small): {} messages\n", trace.len());

    // 1. The standard report, with the per-agent breakdown.
    let report = evaluate_cosmos(&trace, 2, 0);
    println!("== accuracy report ==");
    print!("{}", report.render_summary());
    let mut agents: Vec<_> = report.per_agent.iter().collect();
    agents.sort_by(|a, b| a.1.rate().partial_cmp(&b.1.rate()).expect("finite rates"));
    if let (Some(worst), Some(best)) = (agents.first(), agents.last()) {
        println!(
            "worst agent: {} {} at {:.1}%; best: {} {} at {:.1}%\n",
            worst.0 .1,
            worst.0 .0,
            worst.1.percent(),
            best.0 .1,
            best.0 .0,
            best.1.percent(),
        );
    }

    // 2. Confidence: the precision/coverage dial.
    println!("== confidence gating ==");
    for threshold in [0u8, 1, 2, 3] {
        let r = cosmos_repro::cosmos::eval::evaluate(&trace, &Default::default(), |_, _| {
            Box::new(CosmosPredictor::new(2, 0).confident(threshold))
        });
        let offered = r.coverage.hits.max(1);
        println!(
            "  threshold {threshold}: answers {:>5.1}% of messages, right {:>5.1}% of the time",
            r.coverage.percent(),
            100.0 * r.overall.hits as f64 / offered as f64,
        );
    }
}
