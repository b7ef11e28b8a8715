//! Multi-step (lookahead) prediction accuracy.
//!
//! §4.1 raises speculating on a *sequence* of protocol actions, not just
//! the next one. [`CosmosPredictor::predict_chain`] unrolls the PHT; this
//! module measures how trustworthy each step of the unrolled chain is:
//! for every incoming message the evaluator asks the agent's predictor
//! for a `K`-step chain and scores step `d` against the `d`-th message
//! that actually arrives next for that block at that agent.
//!
//! Chains compound per-step error, so accuracy must fall with distance —
//! how fast it falls bounds how deep an implementation can afford to
//! speculate.

use crate::eval::Counts;
use crate::fasthash::FastMap;
use crate::fleet::Fleet;
use crate::predictor::CosmosPredictor;
use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::BlockAddr;
use std::collections::VecDeque;
use trace::TraceBundle;

/// Accuracy per lookahead distance (index 0 = one step ahead).
#[derive(Debug, Clone)]
pub struct LookaheadReport {
    /// `by_distance[d]` scores predictions `d + 1` steps ahead.
    pub by_distance: Vec<Counts>,
}

impl LookaheadReport {
    /// Accuracy at `distance` steps ahead (1-based), as a percentage.
    pub fn percent_at(&self, distance: usize) -> f64 {
        assert!(distance >= 1, "distance is 1-based");
        self.by_distance
            .get(distance - 1)
            .map_or(0.0, Counts::percent)
    }
}

/// An outstanding chain prediction awaiting its actuals.
#[derive(Debug)]
struct OutstandingChain {
    chain: Vec<PredTuple>,
    /// How many of the chain's steps have been scored so far.
    matched: usize,
}

/// Evaluates `K`-step chain accuracy of depth-`depth` filterless Cosmos
/// predictors over a trace.
pub fn evaluate_lookahead(bundle: &TraceBundle, depth: usize, k: usize) -> LookaheadReport {
    assert!(k >= 1, "need at least one lookahead step");
    /// One agent: its predictor plus its outstanding chains per block
    /// (oldest first).
    struct AgentSlot {
        predictor: CosmosPredictor,
        outstanding: FastMap<BlockAddr, VecDeque<OutstandingChain>>,
    }
    let mut fleet = Fleet::default();
    let mut by_distance = vec![Counts::default(); k];

    for r in bundle.records() {
        let slot = fleet.agent(r.node, r.role, || AgentSlot {
            predictor: CosmosPredictor::new(depth, 0),
            outstanding: FastMap::default(),
        });
        let agent = &mut slot.predictor;
        let observed = PredTuple::new(r.sender, r.mtype);

        // Score this arrival against every outstanding chain's next step.
        if let Some(chains) = slot.outstanding.get_mut(&r.block) {
            chains.retain_mut(|c| {
                let step = c.matched;
                if step < c.chain.len() {
                    by_distance[step].add(c.chain[step] == observed);
                }
                c.matched += 1;
                c.matched < k
            });
        }

        // Fold the arrival in, then issue a fresh chain: its step 1
        // predicts the *next* arrival, step `d` the one `d` arrivals out.
        agent.observe(r.block, observed);
        let chain = agent.predict_chain(r.block, k);
        if !chain.is_empty() {
            slot.outstanding
                .entry(r.block)
                .or_default()
                .push_back(OutstandingChain { chain, matched: 0 });
        }
    }
    LookaheadReport { by_distance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stache::{MsgType, NodeId, Role};
    use trace::{MsgRecord, TraceMeta};

    fn cyclic(period: &[MsgType], reps: usize) -> TraceBundle {
        let mut b = TraceBundle::new(TraceMeta::new("look", 2, 1));
        let mut t = 0;
        for m in period.iter().cycle().take(period.len() * reps) {
            b.push(MsgRecord {
                time_ns: t,
                node: NodeId::new(0),
                role: Role::Cache,
                block: BlockAddr::new(1),
                sender: NodeId::new(1),
                mtype: *m,
                iteration: 0,
            });
            t += 10;
        }
        b
    }

    #[test]
    fn perfect_cycles_unroll_perfectly() {
        let period = [
            MsgType::GetRoResponse,
            MsgType::UpgradeResponse,
            MsgType::InvalRwRequest,
        ];
        let r = evaluate_lookahead(&cyclic(&period, 40), 1, 3);
        for d in 1..=3 {
            assert!(
                r.percent_at(d) > 90.0,
                "distance {d}: {:.1}%",
                r.percent_at(d)
            );
        }
    }

    #[test]
    fn noise_compounds_with_distance() {
        // A stream with a stochastic-looking alternation: accuracy at
        // distance 3 cannot beat accuracy at distance 1.
        let period = [
            MsgType::GetRoResponse,
            MsgType::InvalRoRequest,
            MsgType::GetRoResponse,
            MsgType::UpgradeResponse,
            MsgType::InvalRwRequest,
        ];
        let r = evaluate_lookahead(&cyclic(&period, 30), 1, 3);
        assert!(
            r.percent_at(1) + 1e-9 >= r.percent_at(3),
            "d1 {:.1}% vs d3 {:.1}%",
            r.percent_at(1),
            r.percent_at(3)
        );
    }

    #[test]
    fn deeper_history_unrolls_ambiguous_cycles() {
        // The 5-long period above is ambiguous at depth 1 (get_ro_response
        // has two successors) but exact at depth 2.
        let period = [
            MsgType::GetRoResponse,
            MsgType::InvalRoRequest,
            MsgType::GetRoResponse,
            MsgType::UpgradeResponse,
            MsgType::InvalRwRequest,
        ];
        let shallow = evaluate_lookahead(&cyclic(&period, 30), 1, 2);
        let deep = evaluate_lookahead(&cyclic(&period, 30), 2, 2);
        assert!(deep.percent_at(2) > shallow.percent_at(2) + 10.0);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn distance_zero_rejected() {
        let r = LookaheadReport {
            by_distance: vec![Counts::default()],
        };
        let _ = r.percent_at(0);
    }
}
