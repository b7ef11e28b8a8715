//! Proptest regression seeds for the speculation layer, promoted to
//! named deterministic tests.
//!
//! `prop_speculation.rs` was a proptest suite until it was ported to
//! seeded cases; the counterexamples proptest had saved for it are
//! replayed here verbatim, each under the `promoted:` hash it had in the
//! regressions file.
//!
//! All three seeds came out of the speculative speedup harness's faulted
//! cells and each one exposed a distinct recovery hole in the concurrent
//! engine — the fixes live in `simx::concurrent` and are documented in
//! DESIGN §6i. The tests pin them in the property's coordinate space:
//! `(app, depth, threshold, drop_bp, dup_bp, reorder, seed)`.

use accel::SpeculatePolicy;
use simx::{ConcurrentMachine, FaultPlan, SystemConfig};
use stache::ProtocolConfig;
use workloads::small_suite;

/// Mirrors `prop_speculation`: one case is `(app, depth, threshold,
/// drop_bp, dup_bp, reorder, seed)` with rates in basis points.
fn replay(app: usize, depth: usize, threshold: Option<u8>, case: (u32, u32, u32, u64)) {
    let (drop_bp, dup_bp, reorder, seed) = case;
    let plan = FaultPlan {
        drop: f64::from(drop_bp) / 10_000.0,
        dup: f64::from(dup_bp) / 10_000.0,
        reorder,
        seed,
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
}

/// promoted: 606da227586db2fff642e917ff29adcfa264a108e709967ddb6d3db5143d4852
///
/// dsmc, depth 1, threshold 2, `drop=0.01,dup=0.005,reorder=3`, seed 0.
/// A converted upgrade's `inval_rw_request` overtook the previous
/// writer's still-in-flight `upgrade_response` and landed at a cache in
/// `SToE`, which had no arm for it — "cache in state SToE cannot accept
/// inval_rw_request". The fix yields the block from `SToE` (ack, drop
/// the value, fall to `IToE`) and lets the retried upgrade re-convert.
#[test]
fn seed_recall_overtakes_upgrade_grant() {
    replay(2, 1, Some(2), (100, 50, 3, 0));
}

/// promoted: 1280eba7ee06e469f89e1362321594d4751ea190b51291ec76b15b8e851d746c
///
/// moldyn, depth 1, threshold 2, same plan. A requester-level
/// retransmitted `get_ro_request` (fresh sequence number, so not a
/// fabric dup) arrived after the node's voluntary early-ack had already
/// removed it from the sharer set; the directory re-added the node and
/// granted, the node absorbed the grant as stale — directory listing a
/// non-holder. The fix absorbs directory-side requests whose sender is
/// no longer waiting on that block with a matching op.
#[test]
fn seed_stale_retransmission_after_early_ack() {
    replay(3, 1, Some(2), (100, 50, 3, 0));
}

/// promoted: 0cb20525cf62a4fe916d0728d944de0bfe84b27c239ee11c578c0eaaca48d71c
///
/// dsmc, depth 2, threshold 2, same plan. A recall for the *next*
/// transaction overtook the grant for the current one; the waiting node
/// acked the recall via the already-applied arm, the directory granted
/// the next writer, and the node then consumed the older reordered grant
/// — two exclusive owners. The fix poisons grants ordered before an
/// acked recall (per-receiver sequence numbers give the order) so the
/// stale grant is absorbed and the retry fetches a fresh one.
#[test]
fn seed_poisoned_grant_after_acked_recall() {
    replay(2, 2, Some(2), (100, 50, 3, 0));
}
