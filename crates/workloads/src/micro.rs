//! Microbenchmarks: the paper's worked examples as runnable workloads.
//!
//! * [`ProducerConsumer`] — Figure 2's `shared_counter`: a producer stores
//!   to a block, one or more consumers load it, repeatedly. Generates the
//!   textbook signatures Cosmos learns in Figure 3.
//! * [`Migratory`] — a block updated inside a critical section by each
//!   processor in turn; generates Figure 8(b)'s migratory trigger
//!   signature.

use crate::Workload;
use simx::{Access, IterationPlan, Phase};
use stache::placement::block_homed_at;
use stache::{BlockAddr, NodeId, ProtocolConfig};

/// Figure 2's producer-consumer microbenchmark.
///
/// Each iteration the producer stores to every block, then every consumer
/// loads every block. Blocks live on pages homed at a third node so both
/// producer and consumers are remote (the configuration the paper's
/// Figure 2/3 walkthrough assumes).
#[derive(Debug, Clone)]
pub struct ProducerConsumer {
    /// The producing processor.
    pub producer: NodeId,
    /// The consuming processors.
    pub consumers: Vec<NodeId>,
    /// The directory (home) node for the shared blocks.
    pub home: NodeId,
    /// Number of shared blocks.
    pub blocks: usize,
    /// Iterations to run.
    pub iterations: u32,
    /// Machine size.
    pub nodes: usize,
}

impl Default for ProducerConsumer {
    fn default() -> Self {
        ProducerConsumer {
            producer: NodeId::new(1),
            consumers: vec![NodeId::new(2)],
            home: NodeId::new(0),
            blocks: 4,
            iterations: 20,
            nodes: 16,
        }
    }
}

impl ProducerConsumer {
    fn block(&self, i: usize) -> BlockAddr {
        let cfg = ProtocolConfig { nodes: self.nodes };
        block_homed_at(self.home, 0, i as u64, &cfg)
    }
}

impl Workload for ProducerConsumer {
    fn name(&self) -> &'static str {
        "producer-consumer"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn plan(&mut self, _iteration: u32) -> IterationPlan {
        let mut plan = IterationPlan::new();
        let mut produce = Phase::new(self.nodes);
        for i in 0..self.blocks {
            produce.push(Access::write(self.producer, self.block(i)));
        }
        plan.push(produce);
        let mut consume = Phase::new(self.nodes);
        for i in 0..self.blocks {
            for &c in &self.consumers {
                consume.push(Access::read(c, self.block(i)));
            }
        }
        plan.push(consume);
        plan
    }
}

/// A migratory microbenchmark: `writers` take turns executing an atomic
/// read-modify-write on each block every iteration (a critical-section
/// update), producing Figure 8(b)'s `⟨get_ro, upgrade, inval_rw⟩`
/// signature at each cache.
#[derive(Debug, Clone)]
pub struct Migratory {
    /// The processors the blocks migrate among, in turn order.
    pub writers: Vec<NodeId>,
    /// The directory (home) node for the blocks.
    pub home: NodeId,
    /// Number of migrating blocks.
    pub blocks: usize,
    /// Iterations to run.
    pub iterations: u32,
    /// Machine size.
    pub nodes: usize,
}

impl Default for Migratory {
    fn default() -> Self {
        Migratory {
            writers: vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)],
            home: NodeId::new(0),
            blocks: 4,
            iterations: 20,
            nodes: 16,
        }
    }
}

impl Migratory {
    fn block(&self, i: usize) -> BlockAddr {
        let cfg = ProtocolConfig { nodes: self.nodes };
        block_homed_at(self.home, 0, i as u64, &cfg)
    }
}

impl Workload for Migratory {
    fn name(&self) -> &'static str {
        "migratory"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn plan(&mut self, _iteration: u32) -> IterationPlan {
        let mut plan = IterationPlan::new();
        // One phase per writer turn keeps the critical-section ordering
        // strict: w0 updates every block, then w1, then w2, ...
        for &w in &self.writers {
            let mut phase = Phase::new(self.nodes);
            for i in 0..self.blocks {
                phase.push(Access::rmw(w, self.block(i)));
            }
            plan.push(phase);
        }
        plan
    }
}

/// Two processors alternately updating the same block — the classic
/// false-sharing ping-pong. The block migrates back and forth forever,
/// producing a two-party migratory signature that any depth-1 predictor
/// should learn perfectly.
#[derive(Debug, Clone)]
pub struct PingPong {
    /// The two contenders.
    pub pair: (NodeId, NodeId),
    /// The directory (home) node for the block.
    pub home: NodeId,
    /// Number of ping-ponging blocks.
    pub blocks: usize,
    /// Updates per processor per iteration.
    pub updates_per_iteration: usize,
    /// Iterations to run.
    pub iterations: u32,
    /// Machine size.
    pub nodes: usize,
}

impl Default for PingPong {
    fn default() -> Self {
        PingPong {
            pair: (NodeId::new(1), NodeId::new(2)),
            home: NodeId::new(0),
            blocks: 2,
            updates_per_iteration: 4,
            iterations: 15,
            nodes: 16,
        }
    }
}

impl PingPong {
    fn block(&self, i: usize) -> BlockAddr {
        let cfg = ProtocolConfig { nodes: self.nodes };
        block_homed_at(self.home, 1, i as u64, &cfg)
    }
}

impl Workload for PingPong {
    fn name(&self) -> &'static str {
        "ping-pong"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn plan(&mut self, _iteration: u32) -> IterationPlan {
        let mut plan = IterationPlan::new();
        for _ in 0..self.updates_per_iteration {
            for node in [self.pair.0, self.pair.1] {
                let mut phase = Phase::new(self.nodes);
                for i in 0..self.blocks {
                    phase.push(Access::rmw(node, self.block(i)));
                }
                plan.push(phase);
            }
        }
        plan
    }
}

/// An all-to-all exchange: every processor publishes into its own block,
/// then reads every other processor's block — the communication step of
/// FFT-style transposes. Directories see `nodes - 1` consumers per block,
/// arriving in a stable order.
#[derive(Debug, Clone)]
pub struct AllToAll {
    /// Blocks published per processor.
    pub blocks_per_proc: usize,
    /// Iterations to run.
    pub iterations: u32,
    /// Machine size (all nodes participate).
    pub nodes: usize,
}

impl Default for AllToAll {
    fn default() -> Self {
        AllToAll {
            blocks_per_proc: 1,
            iterations: 10,
            nodes: 16,
        }
    }
}

impl AllToAll {
    fn block(&self, owner: usize, j: usize) -> BlockAddr {
        // A dedicated region clear of the other micros.
        BlockAddr::new((4 << 20) + (owner * self.blocks_per_proc + j) as u64)
    }
}

impl Workload for AllToAll {
    fn name(&self) -> &'static str {
        "all-to-all"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn plan(&mut self, _iteration: u32) -> IterationPlan {
        let mut plan = IterationPlan::new();
        let mut publish = Phase::new(self.nodes);
        for owner in 0..self.nodes {
            for j in 0..self.blocks_per_proc {
                publish.push(Access::write(NodeId::new(owner), self.block(owner, j)));
            }
        }
        plan.push(publish);
        let mut exchange = Phase::new(self.nodes);
        for reader in 0..self.nodes {
            for owner in 0..self.nodes {
                if owner == reader {
                    continue;
                }
                for j in 0..self.blocks_per_proc {
                    exchange.push(Access::read(NodeId::new(reader), self.block(owner, j)));
                }
            }
        }
        plan.push(exchange);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_to_trace;
    use simx::SystemConfig;
    use stache::{MsgType, Role};

    #[test]
    fn producer_consumer_generates_figure_two_signature() {
        let mut w = ProducerConsumer {
            blocks: 1,
            iterations: 5,
            ..Default::default()
        };
        let t = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        // Producer's cache stream (after iteration 0's cold start) cycles
        // get_rw_response -> inval_rw_request, exactly Figure 2(b).
        let producer_msgs: Vec<MsgType> = t
            .for_receiver(NodeId::new(1), Role::Cache)
            .map(|r| r.mtype)
            .collect();
        assert!(producer_msgs.len() >= 8);
        for pair in producer_msgs.chunks(2) {
            assert_eq!(pair[0], MsgType::GetRwResponse);
            if pair.len() == 2 {
                assert_eq!(pair[1], MsgType::InvalRwRequest);
            }
        }
        // Consumer's stream cycles get_ro_response -> inval_ro_request.
        let consumer_msgs: Vec<MsgType> = t
            .for_receiver(NodeId::new(2), Role::Cache)
            .map(|r| r.mtype)
            .collect();
        assert_eq!(consumer_msgs[0], MsgType::GetRoResponse);
        assert_eq!(consumer_msgs[1], MsgType::InvalRoRequest);
    }

    #[test]
    fn migratory_generates_figure_eight_signature() {
        let mut w = Migratory {
            blocks: 1,
            iterations: 4,
            ..Default::default()
        };
        let t = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        // Each writer's cache sees get_ro_response, upgrade_response,
        // inval_rw_request repeating (after its cold start).
        let msgs: Vec<MsgType> = t
            .for_receiver(NodeId::new(2), Role::Cache)
            .map(|r| r.mtype)
            .collect();
        let cycle = [
            MsgType::GetRoResponse,
            MsgType::UpgradeResponse,
            MsgType::InvalRwRequest,
        ];
        assert!(msgs.len() >= 9);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(*m, cycle[i % 3], "at index {i}: {msgs:?}");
        }
    }

    #[test]
    fn ping_pong_is_perfectly_learnable() {
        use cosmos_eval_shim::depth1_overall;
        let mut w = PingPong::default();
        let t = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        assert!(t.len() > 100);
        let acc = depth1_overall(&t);
        assert!(acc > 0.9, "ping-pong depth-1 accuracy {acc}");
    }

    #[test]
    fn all_to_all_floods_the_directory() {
        let mut w = AllToAll::default();
        let t = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        // Each block's directory sees get_ro_requests from (nearly) every
        // other node each iteration.
        let dir_reads = t
            .records()
            .iter()
            .filter(|r| r.mtype == MsgType::GetRoRequest)
            .count();
        assert!(dir_reads as u32 >= (w.nodes as u32 - 2) * w.nodes as u32 * (w.iterations - 1));
    }

    /// A tiny independent re-implementation of depth-1 Cosmos scoring.
    /// `cosmos` already dev-depends on this crate, so dev-depending back
    /// would create a cycle; the shim also doubles as an external check
    /// that the real evaluator isn't grading its own homework.
    mod cosmos_eval_shim {
        use std::collections::HashMap;
        use trace::TraceBundle;

        pub fn depth1_overall(t: &TraceBundle) -> f64 {
            type Key = (stache::NodeId, stache::Role, stache::BlockAddr);
            let mut last: HashMap<Key, (stache::NodeId, stache::MsgType)> = HashMap::new();
            let mut pht: HashMap<
                (Key, (stache::NodeId, stache::MsgType)),
                (stache::NodeId, stache::MsgType),
            > = HashMap::new();
            let (mut hits, mut total) = (0u64, 0u64);
            for r in t.records() {
                let key = (r.node, r.role, r.block);
                let tuple = (r.sender, r.mtype);
                total += 1;
                if let Some(prev) = last.get(&key).copied() {
                    if pht.get(&(key, prev)) == Some(&tuple) {
                        hits += 1;
                    }
                    pht.insert((key, prev), tuple);
                }
                last.insert(key, tuple);
            }
            hits as f64 / total.max(1) as f64
        }
    }

    #[test]
    fn two_consumer_variant_runs() {
        // The paper's §3.1 extension, where the consumers'
        // `get_ro_request`s can arrive in either order.
        let mut w = ProducerConsumer {
            consumers: vec![NodeId::new(2), NodeId::new(3)],
            ..ProducerConsumer::default()
        };
        let t = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        // Both consumers' requests reach the directory each iteration.
        let dir_reqs = t
            .for_receiver(NodeId::new(0), Role::Directory)
            .filter(|r| r.mtype == MsgType::GetRoRequest)
            .count();
        assert_eq!(dir_reqs as u32, 2 * w.iterations * w.blocks as u32);
    }
}
