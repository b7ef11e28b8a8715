//! Property tests for the actioned speculation layer: a learned
//! [`SpeculatePolicy`] with an *arbitrary* confidence threshold, over an
//! *arbitrary* fault plan, must never violate SWMR and must always drain
//! to quiescence. Correctness never depends on the predictor being right
//! — a mispredict costs time (rollback, re-fetch), never coherence.
//!
//! Seeded cases on the in-house generator (`simx::rng::check`).

use accel::SpeculatePolicy;
use simx::rng::check;
use simx::{ConcurrentMachine, FaultPlan, SystemConfig};
use stache::ProtocolConfig;
use workloads::small_suite;

/// Random speculation thresholds × random fault plans over the small
/// suite: every run drains (returning from `run_plan` at all means no
/// deadlock — the engine's retry watchdog would error first) and the
/// barrier + final audits hold SWMR and directory/cache agreement.
///
/// `threshold = None` is the ∞ threshold (train, never fire); small
/// values fire aggressively on barely-warm predictions — far harsher
/// than the tuned default.
#[test]
fn speculation_under_faults_stays_coherent_and_quiescent() {
    check(32, |rng| {
        let app = rng.gen_range(0..5);
        let depth = rng.gen_range(1..5);
        let threshold = rng.gen_bool(0.5).then(|| rng.gen_range(0..6) as u8);
        let plan = FaultPlan {
            // Basis points: up to 2% drop, up to 1% duplication.
            drop: rng.gen_range(0..=200) as f64 / 10_000.0,
            dup: rng.gen_range(0..=100) as f64 / 10_000.0,
            reorder: rng.gen_range(0..=4) as u32,
            seed: rng.gen(),
            ..FaultPlan::default()
        };
        let mut suite = small_suite();
        let w = suite[app].as_mut();
        let mut m = ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
        m.set_app(w.name(), w.iterations());
        m.set_fault_plan(plan);
        m.set_policy(Box::new(SpeculatePolicy::new(depth, threshold)));
        for it in 0..w.iterations() {
            let p = w.plan(it);
            m.run_plan(&p, it)
                .expect("speculative faulted run must drain");
        }
        m.verify_coherence()
            .expect("SWMR + directory/cache agreement");
    });
}
