//! Mapping predictions to protocol actions (§4.1, Table 2, Figure 4) and
//! estimating what speculation would buy.
//!
//! The paper deliberately evaluates prediction *in isolation*; this module
//! implements the forward-looking part of §4 so the `acceleration` example
//! can demonstrate the pipeline: predict the next incoming message, choose
//! a speculative action, and account what firing it would have saved (or
//! cost) given whether the prediction proved right.

use crate::eval::Counts;
use crate::fleet::Fleet;
use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::{MsgType, NodeId, Role};
use std::collections::HashMap;
use trace::TraceBundle;

/// A speculative protocol action an agent can take on the basis of a
/// prediction (§4.1's examples).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeculativeAction {
    /// Directory: answer the predicted reader's next (shared) request with
    /// an exclusive grant — the Origin read-modify-write optimisation.
    GrantExclusive {
        /// The processor predicted to upgrade.
        writer: NodeId,
    },
    /// Directory: push the block to a predicted reader before its request
    /// arrives (producer-consumer forwarding).
    ForwardToReader {
        /// The processor predicted to read next.
        reader: NodeId,
    },
    /// Directory: begin recalling the current owner's dirty copy early,
    /// anticipating the writeback.
    EarlyRecall {
        /// The owner predicted to respond with the block.
        owner: NodeId,
    },
    /// Cache: replace the block to the directory before the predicted
    /// invalidation arrives — dynamic self-invalidation (Figure 4a).
    SelfInvalidate,
    /// Cache: request the predicted fill before the processor misses.
    PrefetchBlock,
    /// Cache: request ownership before the processor writes.
    PrefetchOwnership,
}

/// Chooses the speculative action implied by a predicted next incoming
/// message at an agent of `role`, per Table 2's prediction-action pairs.
/// Predictions that map to no useful speculation return `None`.
pub fn map_prediction(role: Role, predicted: PredTuple) -> Option<SpeculativeAction> {
    match (role, predicted.mtype) {
        (Role::Directory, MsgType::UpgradeRequest) => Some(SpeculativeAction::GrantExclusive {
            writer: predicted.sender,
        }),
        (Role::Directory, MsgType::GetRoRequest) => Some(SpeculativeAction::ForwardToReader {
            reader: predicted.sender,
        }),
        (Role::Directory, MsgType::GetRwRequest) => Some(SpeculativeAction::GrantExclusive {
            writer: predicted.sender,
        }),
        (Role::Directory, MsgType::InvalRwResponse | MsgType::DowngradeResponse) => {
            Some(SpeculativeAction::EarlyRecall {
                owner: predicted.sender,
            })
        }
        (Role::Cache, MsgType::InvalRwRequest | MsgType::InvalRoRequest) => {
            Some(SpeculativeAction::SelfInvalidate)
        }
        (Role::Cache, MsgType::GetRoResponse | MsgType::GetRwResponse) => {
            Some(SpeculativeAction::PrefetchBlock)
        }
        (Role::Cache, MsgType::UpgradeResponse) => Some(SpeculativeAction::PrefetchOwnership),
        _ => None,
    }
}

/// The outcome of replaying a trace with speculation enabled.
#[derive(Debug, Clone, Default)]
pub struct SpeculationReport {
    /// Per-action counts: `hits` = the prediction behind the fired action
    /// proved correct.
    pub per_action: HashMap<&'static str, Counts>,
    /// Messages whose critical-path latency the correct speculations would
    /// have hidden.
    pub messages_accelerated: u64,
    /// Speculations fired on wrong predictions (recovery cost).
    pub wasted_speculations: u64,
    /// Messages scored in total.
    pub total_messages: u64,
}

impl SpeculationReport {
    /// The fraction of messages accelerated.
    pub fn acceleration_rate(&self) -> f64 {
        if self.total_messages == 0 {
            return 0.0;
        }
        self.messages_accelerated as f64 / self.total_messages as f64
    }

    /// Plugs the measured counts into §4.4's model: an accelerated message
    /// keeps fraction `f` of its delay, a wasted speculation costs penalty
    /// `r`, and messages with no speculation fired keep their full delay
    /// (they are neither helped nor penalised).
    pub fn estimated_speedup(&self, f: f64, r: f64) -> f64 {
        if self.total_messages == 0 {
            return 1.0;
        }
        let n = self.total_messages as f64;
        let accelerated = self.messages_accelerated as f64 / n;
        let wasted = self.wasted_speculations as f64 / n;
        let unaffected = 1.0 - accelerated - wasted;
        1.0 / (accelerated * f + wasted * (1.0 + r) + unaffected)
    }

    fn action_label(a: SpeculativeAction) -> &'static str {
        match a {
            SpeculativeAction::GrantExclusive { .. } => "grant-exclusive",
            SpeculativeAction::ForwardToReader { .. } => "forward-to-reader",
            SpeculativeAction::EarlyRecall { .. } => "early-recall",
            SpeculativeAction::SelfInvalidate => "self-invalidate",
            SpeculativeAction::PrefetchBlock => "prefetch-block",
            SpeculativeAction::PrefetchOwnership => "prefetch-ownership",
        }
    }
}

/// Replays a trace with one predictor per agent, firing the mapped action
/// for every prediction and scoring it against the actual next message.
pub fn simulate_speculation<F>(bundle: &TraceBundle, mut factory: F) -> SpeculationReport
where
    F: FnMut(NodeId, Role) -> Box<dyn MessagePredictor>,
{
    let mut fleet = Fleet::default();
    let mut report = SpeculationReport::default();
    for r in bundle.records() {
        let agent = fleet.agent(r.node, r.role, || factory(r.node, r.role));
        let observed = PredTuple::new(r.sender, r.mtype);
        report.total_messages += 1;
        if let Some(predicted) = agent.predict_then_observe(r.block, observed) {
            if let Some(action) = map_prediction(r.role, predicted) {
                let hit = predicted == observed;
                report
                    .per_action
                    .entry(SpeculationReport::action_label(action))
                    .or_default()
                    .add(hit);
                if hit {
                    report.messages_accelerated += 1;
                } else {
                    report.wasted_speculations += 1;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::CosmosPredictor;
    use crate::speedup::{speedup, SpeedupParams};
    use stache::BlockAddr;
    use trace::{MsgRecord, TraceMeta};

    /// The §4.4 formula applied directly with `p` = the report's
    /// acceleration rate, `f` = 0.3 and `r` = 1 — the paper's simpler
    /// model, which assumes every message is either correctly predicted
    /// or penalised.
    fn paper_model(report: &SpeculationReport) -> f64 {
        speedup(SpeedupParams {
            p: report.acceleration_rate(),
            f: 0.3,
            r: 1.0,
        })
    }

    #[test]
    fn mapping_covers_the_table_two_pairs() {
        let p = NodeId::new(3);
        assert_eq!(
            map_prediction(Role::Directory, PredTuple::new(p, MsgType::UpgradeRequest)),
            Some(SpeculativeAction::GrantExclusive { writer: p })
        );
        assert_eq!(
            map_prediction(Role::Directory, PredTuple::new(p, MsgType::GetRoRequest)),
            Some(SpeculativeAction::ForwardToReader { reader: p })
        );
        assert_eq!(
            map_prediction(Role::Cache, PredTuple::new(p, MsgType::InvalRwRequest)),
            Some(SpeculativeAction::SelfInvalidate)
        );
        assert_eq!(
            map_prediction(Role::Cache, PredTuple::new(p, MsgType::GetRoResponse)),
            Some(SpeculativeAction::PrefetchBlock)
        );
        // Responses to invalidations at the *cache* never occur; at the
        // directory an inval_ro_response maps to nothing useful.
        assert_eq!(
            map_prediction(Role::Directory, PredTuple::new(p, MsgType::InvalRoResponse)),
            None
        );
    }

    #[test]
    fn speculation_on_a_perfect_stream_accelerates_nearly_everything() {
        let mut b = TraceBundle::new(TraceMeta::new("spec", 2, 10));
        let block = BlockAddr::new(1);
        let home = NodeId::new(0);
        for i in 0..40u64 {
            let mtype = if i % 2 == 0 {
                MsgType::GetRwResponse
            } else {
                MsgType::InvalRwRequest
            };
            b.push(MsgRecord {
                time_ns: i,
                node: NodeId::new(1),
                role: Role::Cache,
                block,
                sender: home,
                mtype,
                iteration: (i / 4) as u32,
            });
        }
        let report = simulate_speculation(&b, |_, _| Box::new(CosmosPredictor::new(1, 0)));
        assert_eq!(report.total_messages, 40);
        assert!(
            report.acceleration_rate() > 0.8,
            "{}",
            report.acceleration_rate()
        );
        assert!(report.per_action.contains_key("self-invalidate"));
        assert!(report.per_action.contains_key("prefetch-block"));
        assert!(report.estimated_speedup(0.3, 1.0) > 1.0);
        assert_eq!(report.wasted_speculations, 0);
    }

    #[test]
    fn refined_model_and_paper_model_agree_without_unaffected_messages() {
        let report = SpeculationReport {
            per_action: Default::default(),
            messages_accelerated: 80,
            wasted_speculations: 20,
            total_messages: 100,
        };
        // Every message was either accelerated or wasted: the refined
        // estimator reduces exactly to the paper's formula.
        let refined = report.estimated_speedup(0.3, 1.0);
        let paper = paper_model(&report);
        assert!((refined - paper).abs() < 1e-12);
        // With unaffected traffic present they diverge (the paper's model
        // penalises what speculation never touched).
        let partial = SpeculationReport {
            per_action: Default::default(),
            messages_accelerated: 40,
            wasted_speculations: 10,
            total_messages: 100,
        };
        assert!(partial.estimated_speedup(0.3, 1.0) > paper_model(&partial));
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let b = TraceBundle::new(TraceMeta::new("empty", 1, 0));
        let report = simulate_speculation(&b, |_, _| Box::new(CosmosPredictor::new(1, 0)));
        assert_eq!(report.total_messages, 0);
        assert_eq!(report.acceleration_rate(), 0.0);
    }
}
