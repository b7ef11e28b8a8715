//! Integration: checkpoint/resume an evaluation mid-trace — a fleet of
//! predictors is snapshotted, dropped, restored, and must finish the
//! trace with exactly the accuracy of an uninterrupted run.

use cosmos_repro::cosmos::snapshot::{restore, save};
use cosmos_repro::cosmos::{CosmosPredictor, MessagePredictor, PredTuple};
use cosmos_repro::simx::SystemConfig;
use cosmos_repro::stache::{NodeId, ProtocolConfig, Role};
use cosmos_repro::workloads::{run_to_trace, Moldyn};
use std::collections::HashMap;

type Agent = (NodeId, Role);

fn score(
    fleet: &mut HashMap<Agent, CosmosPredictor>,
    records: &[cosmos_repro::trace::MsgRecord],
    depth: usize,
) -> (u64, u64) {
    let (mut hits, mut total) = (0, 0);
    for r in records {
        let agent = fleet
            .entry((r.node, r.role))
            .or_insert_with(|| CosmosPredictor::new(depth, 1));
        let observed = PredTuple::new(r.sender, r.mtype);
        total += 1;
        hits += u64::from(agent.predict(r.block) == Some(observed));
        agent.observe(r.block, observed);
    }
    (hits, total)
}

#[test]
fn checkpointed_fleet_matches_uninterrupted_run() {
    let mut w = Moldyn::small();
    let trace = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
    let records = trace.records();
    let mid = records.len() / 2;
    let depth = 2;

    // Uninterrupted run.
    let mut straight: HashMap<Agent, CosmosPredictor> = HashMap::new();
    let (h1, t1) = score(&mut straight, records, depth);

    // Checkpointed run: first half, snapshot every agent, drop the fleet,
    // restore, second half.
    let mut first: HashMap<Agent, CosmosPredictor> = HashMap::new();
    let (h_a, t_a) = score(&mut first, &records[..mid], depth);
    let snapshots: HashMap<Agent, Vec<u8>> = first.iter().map(|(k, p)| (*k, save(p))).collect();
    drop(first);
    let mut resumed: HashMap<Agent, CosmosPredictor> = snapshots
        .into_iter()
        .map(|(k, bytes)| (k, restore(&bytes).expect("valid snapshot")))
        .collect();
    let (h_b, t_b) = score(&mut resumed, &records[mid..], depth);

    assert_eq!(t_a + t_b, t1);
    assert_eq!(h_a + h_b, h1, "resume must not lose or invent accuracy");
}

#[test]
fn snapshots_are_deterministic_bytes() {
    let mut w = Moldyn::small();
    let trace = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
    let mut a = CosmosPredictor::new(2, 1);
    let mut b = CosmosPredictor::new(2, 1);
    for r in trace.records().iter().take(500) {
        let t = PredTuple::new(r.sender, r.mtype);
        a.observe(r.block, t);
        b.observe(r.block, t);
    }
    // Identical training produces byte-identical snapshots: blocks are
    // serialised in address order and PHT entries in packed-key order, so
    // nothing depends on hash-table iteration order.
    let (sa, sb) = (save(&a), save(&b));
    assert_eq!(sa, sb);
    // A restored predictor filled its tables in snapshot order, not
    // training order, and still saves the same bytes.
    let ra = restore(&sa).unwrap();
    assert_eq!(ra.memory(), a.memory());
    assert_eq!(save(&ra), sa);
}
