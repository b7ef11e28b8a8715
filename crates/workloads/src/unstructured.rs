//! **unstructured** — CFD over a static unstructured mesh (paper §5.2,
//! §6.1).
//!
//! The distinctive behaviour: *the same data structures oscillate between
//! migratory and producer-consumer sharing in different phases of each
//! iteration*. The mesh is static (recursive-coordinate-bisection
//! partition), so the participant sets are fixed for the whole run — the
//! composite signature is perfectly learnable, but only with history: a
//! depth-1 Cosmos is confused at every pattern switch, which is exactly why
//! the paper's accuracy climbs from 74% (depth 1) to 92% (depth 4).
//!
//! The producer in the producer-consumer phase *is itself a consumer* of
//! the data, and the mean number of consumers per producer is **2.6**.

use crate::rng::{choose_distinct, consumer_count, iter_rng};
use crate::{push_quiet_phase, Workload};
use simx::{Access, IterationPlan, Phase};
use stache::{BlockAddr, NodeId};

/// Block-address region for shared mesh (node/edge) blocks.
const MESH_REGION: u64 = 0;

/// Block-address region for quiet blocks: data touched a handful of
/// times in the whole run (array interiors, unshared mesh nodes, ...).
const QUIET_REGION: u64 = 3 << 20;

/// The unstructured workload generator.
#[derive(Debug, Clone)]
pub struct Unstructured {
    /// Machine size.
    pub nodes: usize,
    /// Shared mesh blocks.
    pub mesh_blocks: usize,
    /// Processors updating each block in the migratory phase (besides the
    /// owner).
    pub migratory_peers: usize,
    /// Mean consumers per block in the producer-consumer phase (paper: 2.6).
    pub mean_consumers: f64,
    /// Per-iteration probability of a one-off extra consumer for a block —
    /// partition-boundary nodes whose face values are occasionally needed
    /// by a third processor. Unlearnable at any history depth; keeps the
    /// accuracy ceiling below 100%.
    pub flicker: f64,
    /// Quiet blocks: touched once in the whole run. Real codes' arrays
    /// are mostly such blocks; they dominate the MHR population and keep
    /// Table 7's PHT/MHR ratio near the paper's magnitudes.
    pub quiet_blocks: usize,
    /// Iterations.
    pub iterations: u32,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Unstructured {
    fn default() -> Self {
        Unstructured {
            nodes: 16,
            mesh_blocks: 72,
            migratory_peers: 2,
            mean_consumers: 2.6,
            flicker: 0.18,
            quiet_blocks: 300,
            iterations: 50,
            seed: 0x0575,
        }
    }
}

impl Unstructured {
    /// A reduced configuration for fast tests.
    pub fn small() -> Self {
        Unstructured {
            mesh_blocks: 16,
            quiet_blocks: 12,
            iterations: 8,
            ..Unstructured::default()
        }
    }

    fn block(&self, m: usize) -> BlockAddr {
        BlockAddr::new(MESH_REGION + m as u64)
    }

    /// The (static) owner of mesh block `m` — the bisection partition.
    fn owner(&self, m: usize) -> NodeId {
        NodeId::new(m % self.nodes)
    }

    /// The (static) peers updating block `m` in migratory phases: mesh
    /// neighbours across the partition boundary.
    fn migratory_set(&self, m: usize) -> Vec<NodeId> {
        let mut rng = iter_rng(self.seed, 0, 500 + m as u64);
        let owner = self.owner(m);
        let pool: Vec<NodeId> = (0..self.nodes)
            .filter(|&n| n != owner.index())
            .map(NodeId::new)
            .collect();
        let mut set = vec![owner];
        set.extend(choose_distinct(&mut rng, &pool, self.migratory_peers));
        set
    }

    /// The (static) consumers of block `m` in producer-consumer phases.
    /// The owner produces *and* consumes; these are the other consumers.
    fn consumer_set(&self, m: usize) -> Vec<NodeId> {
        let mut rng = iter_rng(self.seed, 0, 600 + m as u64);
        let owner = self.owner(m);
        let k = consumer_count(&mut rng, self.mean_consumers, self.nodes - 1);
        let pool: Vec<NodeId> = (0..self.nodes)
            .filter(|&n| n != owner.index())
            .map(NodeId::new)
            .collect();
        choose_distinct(&mut rng, &pool, k)
    }
}

impl Workload for Unstructured {
    fn name(&self) -> &'static str {
        "unstructured"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn plan(&mut self, iteration: u32) -> IterationPlan {
        let mut plan = IterationPlan::new();
        let mut flicker_rng = iter_rng(self.seed, iteration, 900);

        // Migratory phase: each block is updated in critical sections by
        // its owner and its boundary peers, in a fixed turn order.
        let turns = self.migratory_peers + 1;
        for turn in 0..turns {
            let mut phase = Phase::new(self.nodes);
            for m in 0..self.mesh_blocks {
                let set = self.migratory_set(m);
                let w = set[turn % set.len()];
                phase.push(Access::rmw(w, self.block(m)));
            }
            plan.push(phase);
        }

        // Producer-consumer phase: the owner recomputes the block (reading
        // its own previous result — the producer is also a consumer), then
        // the fixed consumer set reads it.
        let mut produce = Phase::new(self.nodes);
        for m in 0..self.mesh_blocks {
            produce.push(Access::rmw(self.owner(m), self.block(m)));
        }
        plan.push(produce);

        let mut consume = Phase::new(self.nodes);
        for m in 0..self.mesh_blocks {
            let consumers = self.consumer_set(m);
            for &c in &consumers {
                consume.push(Access::read(c, self.block(m)));
            }
            if flicker_rng.gen_bool(self.flicker.clamp(0.0, 1.0)) {
                let owner = self.owner(m);
                let pool: Vec<NodeId> = (0..self.nodes)
                    .map(NodeId::new)
                    .filter(|n| *n != owner && !consumers.contains(n))
                    .collect();
                if !pool.is_empty() {
                    let extra = pool[flicker_rng.gen_range(0..pool.len())];
                    consume.push(Access::read(extra, self.block(m)));
                }
            }
        }
        plan.push(consume);
        push_quiet_phase(
            &mut plan,
            QUIET_REGION,
            self.quiet_blocks,
            self.nodes,
            iteration,
            self.iterations,
        );
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_to_trace;
    use cosmos::eval::evaluate_cosmos;
    use simx::SystemConfig;
    use stache::{MsgType, ProtocolConfig, Role};
    use trace::ArcKey;

    #[test]
    fn mesh_structure_is_static() {
        let w = Unstructured::default();
        assert_eq!(w.migratory_set(3), w.migratory_set(3));
        assert_eq!(w.consumer_set(3), w.consumer_set(3));
        assert_eq!(w.migratory_set(3)[0], w.owner(3));
    }

    #[test]
    fn plans_are_static_up_to_flicker() {
        // Static mesh: with flicker off, iteration plans do not vary.
        let mut w = Unstructured {
            flicker: 0.0,
            quiet_blocks: 0,
            ..Unstructured::small()
        };
        assert_eq!(w.plan(0), w.plan(7));
    }

    #[test]
    fn both_patterns_appear_in_one_trace() {
        let mut w = Unstructured::small();
        let t = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        let arcs = evaluate_cosmos(&t, 1, 0);
        // Migratory: get_ro_response -> upgrade_response at caches.
        let migratory = ArcKey {
            role: Role::Cache,
            prev: MsgType::GetRoResponse,
            next: MsgType::UpgradeResponse,
        };
        // Producer-consumer: consumers see get_ro_response -> inval_ro_request.
        let pc = ArcKey {
            role: Role::Cache,
            prev: MsgType::GetRoResponse,
            next: MsgType::InvalRoRequest,
        };
        assert!(arcs.arc_share(migratory) > 0.0, "no migratory arcs");
        assert!(arcs.arc_share(pc) > 0.0, "no producer-consumer arcs");
    }

    #[test]
    fn consumer_mean_near_target() {
        let w = Unstructured::default();
        let total: usize = (0..w.mesh_blocks).map(|m| w.consumer_set(m).len()).sum();
        let mean = total as f64 / w.mesh_blocks as f64;
        assert!((mean - 2.6).abs() < 0.8, "mean consumers {mean}");
    }
}
