//! **appbt** — NAS 3D CFD stencil (paper §5.2, §6.1).
//!
//! The code is spatially parallelised: each processor owns a sub-block of
//! the 3D arrays and shares boundary blocks with neighbours. The paper
//! reports a clean producer-consumer pattern — *producer reads, producer
//! writes, consumer reads* (one consumer per block) — repeating for the
//! whole run, degraded only by **false sharing in two data structures**
//! whose blocks two processors write in pseudo-random alternation (the
//! source of the noisy `upgrade_request → inval_ro_response` directory arc
//! in Figure 6).
//!
//! Note the producer's *read before write*: this is why the paper says the
//! half-migratory optimisation **hurts** appbt — every read miss to the
//! previously-exclusive producer copy invalidates it outright.

use crate::rng::iter_rng;
use crate::{push_quiet_phase, Workload};
use simx::{Access, IterationPlan, Phase};
use stache::{BlockAddr, NodeId};

/// Block-address region for boundary blocks.
const BOUNDARY_REGION: u64 = 0;
/// Block-address region for the two false-shared structures.
const FALSE_SHARE_REGION: u64 = 1 << 20;

/// Block-address region for quiet blocks: data touched a handful of
/// times in the whole run (array interiors, unshared mesh nodes, ...).
const QUIET_REGION: u64 = 3 << 20;

/// The appbt workload generator.
#[derive(Debug, Clone)]
pub struct Appbt {
    /// Machine size (the stencil grid is `grid_side^2` processors).
    pub nodes: usize,
    /// Boundary blocks owned per processor.
    pub boundary_per_proc: usize,
    /// Total false-shared blocks (split between the "two data structures").
    pub false_shared: usize,
    /// Quiet blocks: touched once in the whole run. Real codes' arrays
    /// are mostly such blocks; they dominate the MHR population and keep
    /// Table 7's PHT/MHR ratio near the paper's magnitudes.
    pub quiet_blocks: usize,
    /// Iterations (time steps).
    pub iterations: u32,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Appbt {
    fn default() -> Self {
        Appbt {
            nodes: 16,
            boundary_per_proc: 16,
            false_shared: 160,
            quiet_blocks: 2000,
            iterations: 60,
            seed: 0xA9B7,
        }
    }
}

impl Appbt {
    /// A reduced configuration for fast tests.
    pub fn small() -> Self {
        Appbt {
            boundary_per_proc: 6,
            false_shared: 6,
            quiet_blocks: 40,
            iterations: 8,
            ..Appbt::default()
        }
    }

    fn grid_side(&self) -> usize {
        let side = (self.nodes as f64).sqrt() as usize;
        assert_eq!(
            side * side,
            self.nodes,
            "appbt wants a square processor grid"
        );
        side
    }

    /// The (static) consumer of a boundary block: one of the owner's 2D
    /// grid neighbours, chosen by the block's position on the sub-block
    /// surface.
    fn consumer(&self, owner: usize, j: usize) -> NodeId {
        let side = self.grid_side();
        let (r, c) = (owner / side, owner % side);
        let (nr, nc) = match j % 4 {
            0 => ((r + 1) % side, c),
            1 => ((r + side - 1) % side, c),
            2 => (r, (c + 1) % side),
            _ => (r, (c + side - 1) % side),
        };
        NodeId::new(nr * side + nc)
    }

    fn boundary_block(&self, owner: usize, j: usize) -> BlockAddr {
        BlockAddr::new(BOUNDARY_REGION + (owner * self.boundary_per_proc + j) as u64)
    }

    /// The two processors falsely sharing block `k`, and its address.
    fn false_share_block(&self, k: usize) -> (NodeId, NodeId, BlockAddr) {
        let a = k % self.nodes;
        let b = (k + 1) % self.nodes;
        (
            NodeId::new(a),
            NodeId::new(b),
            BlockAddr::new(FALSE_SHARE_REGION + k as u64),
        )
    }
}

impl Workload for Appbt {
    fn name(&self) -> &'static str {
        "appbt"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn plan(&mut self, iteration: u32) -> IterationPlan {
        let mut plan = IterationPlan::new();
        let mut rng = iter_rng(self.seed, iteration, 0);

        // Compute phase: every owner reads then writes each of its
        // boundary blocks (the update sweep over its sub-block).
        let mut compute = Phase::new(self.nodes);
        for owner in 0..self.nodes {
            for j in 0..self.boundary_per_proc {
                let b = self.boundary_block(owner, j);
                let o = NodeId::new(owner);
                compute.push(Access::read(o, b));
                compute.push(Access::write(o, b));
            }
        }
        // The falsely-shared structures are updated during compute too.
        // The two halves of each block belong to different owners, so who
        // writes, in what order, and whether the other half is touched at
        // all varies run-to-run — "multiple signatures that the protocol
        // oscillates between randomly" (§6.1), noise that no history depth
        // can learn.
        for k in 0..self.false_shared {
            let (a, b, blk) = self.false_share_block(k);
            let mut writers = Vec::new();
            if rng.gen_bool(0.7) {
                writers.push(a);
            }
            if rng.gen_bool(0.7) {
                writers.push(b);
            }
            if rng.gen_bool(0.25) {
                // A third processor's stray touch (the structure straddles
                // a partition corner): fresh identity each time, so deeper
                // history cannot memorise the participant sequence either.
                writers.push(NodeId::new(rng.gen_range(0..self.nodes)));
            }
            if rng.gen_bool(0.5) {
                writers.reverse();
            }
            for w in writers {
                compute.push(Access::rmw(w, blk));
            }
        }
        plan.push(compute);

        // Exchange phase: each boundary block's consumer reads it; the
        // falsely-shared blocks are read back by both writers (each needs
        // the other's half), again in random order.
        let mut exchange = Phase::new(self.nodes);
        for owner in 0..self.nodes {
            for j in 0..self.boundary_per_proc {
                exchange.push(Access::read(
                    self.consumer(owner, j),
                    self.boundary_block(owner, j),
                ));
            }
        }
        for k in 0..self.false_shared {
            let (a, b, blk) = self.false_share_block(k);
            let mut readers = Vec::new();
            if rng.gen_bool(0.7) {
                readers.push(a);
            }
            if rng.gen_bool(0.7) {
                readers.push(b);
            }
            if rng.gen_bool(0.5) {
                readers.reverse();
            }
            for r in readers {
                exchange.push(Access::read(r, blk));
            }
        }
        plan.push(exchange);
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
    fn consumers_are_grid_neighbours() {
        let w = Appbt::default();
        for owner in 0..16 {
            for j in 0..4 {
                let c = w.consumer(owner, j);
                assert_ne!(c.index(), owner, "a block's consumer is another processor");
            }
        }
        // Deterministic.
        assert_eq!(w.consumer(5, 0), w.consumer(5, 0));
    }

    #[test]
    fn trace_shows_producer_consumer_signature() {
        let mut w = Appbt::small();
        let t = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        let arcs = evaluate_cosmos(&t, 1, 0);
        // The dominant cache arcs of Figure 6: get_ro_response ->
        // upgrade_response (producer read-then-write) must be prominent.
        let key = ArcKey {
            role: Role::Cache,
            prev: MsgType::GetRoResponse,
            next: MsgType::UpgradeResponse,
        };
        assert!(
            arcs.arc_share(key) > 0.1,
            "share was {}",
            arcs.arc_share(key)
        );
    }

    #[test]
    fn false_sharing_generates_upgrade_inval_noise() {
        let mut w = Appbt::small();
        let t = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        let arcs = evaluate_cosmos(&t, 1, 0);
        let key = ArcKey {
            role: Role::Directory,
            prev: MsgType::UpgradeRequest,
            next: MsgType::InvalRoResponse,
        };
        assert!(
            arcs.arc_share(key) > 0.0,
            "expected the Figure 6 false-sharing arc"
        );
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_grid_rejected() {
        let w = Appbt {
            nodes: 12,
            ..Appbt::default()
        };
        let _ = w.consumer(0, 0);
    }
}
