//! A streaming scale workload for 1k-node, millions-of-blocks runs
//! (DESIGN.md §6h).
//!
//! The five paper benchmarks are written for 16 processors and keep
//! their whole block population live; this generator is written for the
//! sharded engine's scale sweeps (64–1024 nodes). Three design rules:
//!
//! * **Streaming block population.** Each iteration touches a *fresh*
//!   slice of the block space — private writes land on never-seen
//!   blocks, handoff blocks are written once and read once — so the
//!   total distinct-block count grows linearly with iterations into the
//!   millions while the generator itself keeps O(1) state and each
//!   [`IterationPlan`] stays O(nodes × accesses-per-node). Nothing
//!   proportional to the *cumulative* population is ever materialised.
//! * **Local/remote mix with known shape.** Per node and iteration:
//!   `private_per_node` streaming writes homed on the writer (directory
//!   churn, zero messages), one ring handoff (producer writes locally,
//!   the next node reads it the following iteration — two messages),
//!   and one migratory update of a persistent block homed on the next
//!   ring neighbour (four-to-six messages steady-state). Message counts
//!   are therefore analytic, which the scale CSV goldens pin.
//! * **Determinism without a seed.** The access stream is a closed-form
//!   function of (node, iteration); two constructions of the same shape
//!   are identical, so sweep cells are reproducible and diffable.

use crate::Workload;
use simx::{Access, IterationPlan, Phase};
use stache::placement::block_homed_at;
use stache::{BlockAddr, NodeId, ProtocolConfig};

/// Streaming scale generator; see the module docs for the access shape.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Processors (64–1024 for the paper-scale sweeps).
    pub nodes: usize,
    /// Fresh private blocks each node writes per iteration.
    pub private_per_node: usize,
    /// Iterations; total distinct blocks ≈ `nodes × iterations ×
    /// (private_per_node + 1)`.
    pub iterations: u32,
    proto: ProtocolConfig,
}

impl Scale {
    /// A scale workload of the given shape, on the paper's protocol
    /// parameters widened to `nodes`.
    pub fn new(nodes: usize, private_per_node: usize, iterations: u32) -> Self {
        assert!(nodes >= 2, "the ring patterns need at least two nodes");
        let proto = ProtocolConfig { nodes };
        Scale {
            nodes,
            private_per_node,
            iterations,
            proto,
        }
    }

    /// The CI smoke shape: 64 nodes, small block population, seconds to
    /// run in debug builds.
    pub fn small() -> Self {
        Scale::new(64, 4, 4)
    }

    /// The protocol configuration sized for this workload.
    pub fn proto(&self) -> ProtocolConfig {
        self.proto.clone()
    }

    /// Total distinct blocks the full run touches.
    pub fn total_blocks(&self) -> u64 {
        self.nodes as u64 * self.iterations as u64 * (self.private_per_node as u64 + 1)
            + self.nodes as u64
    }

    /// A fresh private block for `(node, iteration, i)`, homed on `node`.
    fn private_block(&self, node: usize, iteration: u32, i: usize) -> BlockAddr {
        let per_iter = self.private_per_node as u64 + 1;
        let slot = 1 + iteration as u64 * per_iter + i as u64;
        block_homed_at(NodeId::new(node), slot, 0, &self.proto)
    }

    /// The handoff block node `node` produces in `iteration` (slot 0 of
    /// the iteration's page group, homed on the producer).
    fn handoff_block(&self, node: usize, iteration: u32) -> BlockAddr {
        let per_iter = self.private_per_node as u64 + 1;
        block_homed_at(
            NodeId::new(node),
            1 + iteration as u64 * per_iter,
            1,
            &self.proto,
        )
    }

    /// The persistent migratory block homed on `node`, written by its
    /// ring predecessor every iteration.
    fn migratory_block(&self, node: usize) -> BlockAddr {
        block_homed_at(NodeId::new(node), 0, 0, &self.proto)
    }
}

impl Workload for Scale {
    fn name(&self) -> &'static str {
        "scale"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn plan(&mut self, iteration: u32) -> IterationPlan {
        let mut plan = IterationPlan::new();

        // Phase 1 — streaming work: every node writes its fresh private
        // slice (local directory misses, no messages), produces this
        // iteration's handoff block (also local), and updates the
        // migratory block homed on its ring successor (remote write).
        let mut work = Phase::new(self.nodes);
        for node in 0..self.nodes {
            let n = NodeId::new(node);
            for i in 0..self.private_per_node {
                work.push(Access::write(n, self.private_block(node, iteration, i)));
            }
            work.push(Access::write(n, self.handoff_block(node, iteration)));
            let succ = (node + 1) % self.nodes;
            work.push(Access::write(n, self.migratory_block(succ)));
        }
        plan.push(work);

        // Phase 2 — consumption: every node reads the handoff block its
        // ring predecessor produced *last* iteration (remote read of a
        // block never touched again: the streaming producer-consumer
        // pattern).
        if iteration > 0 {
            let mut consume = Phase::new(self.nodes);
            for node in 0..self.nodes {
                let pred = (node + self.nodes - 1) % self.nodes;
                consume.push(Access::read(
                    NodeId::new(node),
                    self.handoff_block(pred, iteration - 1),
                ));
            }
            plan.push(consume);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stache::placement::home_of_block;

    #[test]
    fn blocks_are_fresh_and_homed_as_documented() {
        let s = Scale::new(64, 4, 8);
        let mut seen = std::collections::HashSet::new();
        let proto = s.proto();
        for it in 0..s.iterations {
            for node in 0..s.nodes {
                for i in 0..s.private_per_node {
                    let b = s.private_block(node, it, i);
                    assert!(seen.insert(b), "private block reused: {b:?}");
                    assert_eq!(home_of_block(b, &proto), NodeId::new(node));
                }
                let h = s.handoff_block(node, it);
                assert!(seen.insert(h), "handoff block reused: {h:?}");
                assert_eq!(home_of_block(h, &proto), NodeId::new(node));
            }
        }
        for node in 0..s.nodes {
            let m = s.migratory_block(node);
            assert!(seen.insert(m), "migratory block collides: {m:?}");
            assert_eq!(home_of_block(m, &proto), NodeId::new(node));
        }
        assert_eq!(seen.len() as u64, s.total_blocks());
    }

    #[test]
    fn plans_are_deterministic_and_bounded() {
        let mut a = Scale::new(64, 4, 4);
        let mut b = Scale::new(64, 4, 4);
        for it in 0..4 {
            let pa = a.plan(it);
            assert_eq!(pa, b.plan(it));
            let accesses: usize = pa.phases.iter().map(|p| p.len()).sum();
            // O(nodes × per-node), never O(cumulative population).
            assert!(accesses <= 64 * (4 + 3));
        }
    }

    #[test]
    fn small_shape_runs_clean_on_the_sharded_engine() {
        let mut w = Scale::small();
        let proto = w.proto();
        let m = crate::run_sharded(&mut w, proto, simx::SystemConfig::paper(), 4).unwrap();
        let stats = m.stats();
        // Handoff consumption: 64 ring reads × 3 consuming iterations ×
        // 2 messages, plus migratory traffic.
        assert!(stats.messages_total() > 0);
        assert_eq!(stats.accesses(), 64 * (4 + 2) * 4 + 64 * 3);
    }
}
