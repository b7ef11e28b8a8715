//! Property tests for the workload generators: determinism, node-range
//! validity, and end-to-end coherence on the simulated machine.
//!
//! Seeded cases on the in-house generator (`simx::rng::check`).

use simx::rng::check;
use simx::SystemConfig;
use stache::ProtocolConfig;
use workloads::{run_to_trace, small_suite, Workload};

/// plan(i) is a pure function of (workload parameters, i).
#[test]
fn plans_are_reproducible() {
    check(24, |rng| {
        let idx = rng.gen_range(0..5);
        let iteration = rng.gen_range(0..6) as u32;
        let mut a = small_suite().remove(idx);
        let mut b = small_suite().remove(idx);
        // Build some earlier plans on one side only: must not matter.
        for i in 0..iteration {
            let _ = a.plan(i);
        }
        assert_eq!(a.plan(iteration), b.plan(iteration));
    });
}

/// Every access names a node inside the machine, and no phase is
/// issued for a machine bigger than the workload declares.
#[test]
fn accesses_stay_in_range() {
    check(24, |rng| {
        let mut w = small_suite().remove(rng.gen_range(0..5));
        let nodes = w.nodes();
        let plan = w.plan(rng.gen_range(0..6) as u32);
        for phase in &plan.phases {
            assert!(phase.per_node.len() <= nodes);
            for (node, accesses) in phase.per_node.iter().enumerate() {
                for a in accesses {
                    assert_eq!(a.node.index(), node, "access filed under wrong node");
                }
            }
        }
    });
}

/// Any prefix of any benchmark runs coherently on the machine.
#[test]
fn prefixes_run_coherently() {
    struct Prefix {
        inner: Box<dyn Workload>,
        iterations: u32,
    }
    impl Workload for Prefix {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn nodes(&self) -> usize {
            self.inner.nodes()
        }
        fn iterations(&self) -> u32 {
            self.iterations
        }
        fn plan(&mut self, iteration: u32) -> simx::IterationPlan {
            self.inner.plan(iteration)
        }
    }
    check(24, |rng| {
        let mut w = Prefix {
            inner: small_suite().remove(rng.gen_range(0..5)),
            iterations: rng.gen_range(1..4) as u32,
        };
        let trace = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper())
            .expect("coherent run");
        // Iteration stamps never exceed the requested prefix.
        for r in trace.records() {
            assert!(r.iteration < w.iterations);
        }
    });
}
