//! **moldyn** — CHARMM-like molecular dynamics (paper §5.2, §6.1).
//!
//! Two dominant sharing patterns:
//!
//! * **Migratory** — the shared force array is reduced in critical
//!   sections: each contributing processor reads then writes an element in
//!   turn, producing the `⟨get_ro_response, upgrade_response,
//!   inval_rw_request⟩` cache signature (the half-migratory optimisation
//!   *helps*: the previous owner is invalidated by the next reader without
//!   an extra handshake).
//! * **Producer-consumer** — the coordinates array: each molecule's owner
//!   updates it, then a mean of **4.9 consumers** read it, so directories
//!   see highly-predictable back-to-back `get_ro_request`s.
//!
//! The interaction list is rebuilt every 20 iterations (Table 4), which
//! resamples contributor and consumer sets and injects transient noise.

use crate::rng::{choose_distinct, consumer_count, iter_rng};
use crate::{push_quiet_phase, Workload};
use simx::{Access, IterationPlan, Phase};
use stache::{BlockAddr, NodeId};

/// Block-address region for force-array elements.
const FORCE_REGION: u64 = 0;
/// Block-address region for coordinates blocks.
const COORD_REGION: u64 = 1 << 20;

/// Block-address region for quiet blocks: data touched a handful of
/// times in the whole run (array interiors, unshared mesh nodes, ...).
const QUIET_REGION: u64 = 3 << 20;

/// The moldyn workload generator.
#[derive(Debug, Clone)]
pub struct Moldyn {
    /// Machine size.
    pub nodes: usize,
    /// Shared force-array element blocks.
    pub force_elements: usize,
    /// Contributors per force element.
    pub contributors: usize,
    /// Coordinate blocks per processor.
    pub coords_per_proc: usize,
    /// Mean consumers per coordinate block (the paper reports 4.9).
    pub mean_consumers: f64,
    /// Per-iteration probability that a molecule near the cut-off radius
    /// flickers in or out of an interaction — an extra one-off reader that
    /// injects unlearnable noise at every history depth.
    pub boundary_flicker: f64,
    /// Iterations between interaction-list rebuilds (Table 4: 20).
    pub rebuild_every: u32,
    /// Quiet blocks: touched once in the whole run. Real codes' arrays
    /// are mostly such blocks; they dominate the MHR population and keep
    /// Table 7's PHT/MHR ratio near the paper's magnitudes.
    pub quiet_blocks: usize,
    /// Iterations.
    pub iterations: u32,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Moldyn {
    fn default() -> Self {
        Moldyn {
            nodes: 16,
            force_elements: 48,
            contributors: 3,
            coords_per_proc: 6,
            mean_consumers: 4.9,
            boundary_flicker: 0.22,
            quiet_blocks: 1700,
            rebuild_every: 20,
            iterations: 60,
            seed: 0x301D,
        }
    }
}

impl Moldyn {
    /// A reduced configuration for fast tests.
    pub fn small() -> Self {
        Moldyn {
            force_elements: 8,
            coords_per_proc: 2,
            quiet_blocks: 30,
            iterations: 8,
            rebuild_every: 4,
            ..Moldyn::default()
        }
    }

    fn epoch(&self, iteration: u32) -> u32 {
        iteration / self.rebuild_every.max(1)
    }

    fn force_block(&self, e: usize) -> BlockAddr {
        BlockAddr::new(FORCE_REGION + e as u64)
    }

    fn coord_block(&self, owner: usize, j: usize) -> BlockAddr {
        BlockAddr::new(COORD_REGION + (owner * self.coords_per_proc + j) as u64)
    }

    /// The processors contributing to force element `e` during `epoch`
    /// (fixed within an epoch — the interaction list).
    fn force_contributors(&self, epoch: u32, e: usize) -> Vec<NodeId> {
        let mut rng = iter_rng(self.seed, epoch, 300 + e as u64);
        let pool: Vec<NodeId> = (0..self.nodes).map(NodeId::new).collect();
        choose_distinct(&mut rng, &pool, self.contributors)
    }

    /// The consumers of a coordinate block during `epoch`.
    fn coord_consumers(&self, epoch: u32, owner: usize, j: usize) -> Vec<NodeId> {
        let mut rng = iter_rng(
            self.seed,
            epoch,
            400 + (owner * self.coords_per_proc + j) as u64,
        );
        let k = consumer_count(&mut rng, self.mean_consumers, self.nodes - 1);
        let pool: Vec<NodeId> = (0..self.nodes)
            .filter(|&n| n != owner)
            .map(NodeId::new)
            .collect();
        choose_distinct(&mut rng, &pool, k)
    }
}

impl Workload for Moldyn {
    fn name(&self) -> &'static str {
        "moldyn"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn plan(&mut self, iteration: u32) -> IterationPlan {
        let epoch = self.epoch(iteration);
        let mut plan = IterationPlan::new();

        // Position update: each owner reads and rewrites its coordinate
        // blocks (producer is read-then-write, like appbt's producer).
        let mut update = Phase::new(self.nodes);
        for owner in 0..self.nodes {
            for j in 0..self.coords_per_proc {
                update.push(Access::rmw(NodeId::new(owner), self.coord_block(owner, j)));
            }
        }
        plan.push(update);

        // Force computation: consumers read coordinates they interact
        // with; occasionally a molecule near the cut-off radius flickers
        // into range and an extra processor reads it this iteration only.
        let mut flicker_rng = iter_rng(self.seed, iteration, 800);
        let mut gather = Phase::new(self.nodes);
        for owner in 0..self.nodes {
            for j in 0..self.coords_per_proc {
                let consumers = self.coord_consumers(epoch, owner, j);
                for &c in &consumers {
                    gather.push(Access::read(c, self.coord_block(owner, j)));
                }
                if flicker_rng.gen_bool(self.boundary_flicker.clamp(0.0, 1.0)) {
                    let pool: Vec<NodeId> = (0..self.nodes)
                        .filter(|&n| n != owner)
                        .map(NodeId::new)
                        .filter(|n| !consumers.contains(n))
                        .collect();
                    if let Some(&extra) = pool.get(
                        flicker_rng
                            .gen_range(0..pool.len().max(1))
                            .min(pool.len().saturating_sub(1)),
                    ) {
                        gather.push(Access::read(extra, self.coord_block(owner, j)));
                    }
                }
            }
        }
        plan.push(gather);

        // Reduction: each contributor adds its private contribution to the
        // shared force array inside a critical section, in a stable turn
        // order — lock hand-off settles into the same sequence every
        // iteration, which is what makes the migratory directory traffic
        // predictable even at depth 1. The unlearnable residue that caps
        // the paper's directory accuracy near 79% is the cut-off-radius
        // flicker above, not the reduction order.
        for turn in 0..self.contributors {
            let mut reduce = Phase::new(self.nodes);
            for e in 0..self.force_elements {
                let contribs = self.force_contributors(epoch, e);
                if let Some(&w) = contribs.get(turn) {
                    reduce.push(Access::rmw(w, self.force_block(e)));
                }
            }
            plan.push(reduce);
        }
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
    fn interaction_list_is_stable_within_an_epoch() {
        let w = Moldyn::default();
        assert_eq!(w.force_contributors(0, 5), w.force_contributors(0, 5));
        assert_eq!(w.coord_consumers(1, 2, 0), w.coord_consumers(1, 2, 0));
        // Across epochs it (almost surely, for this seed) changes.
        assert_ne!(w.force_contributors(0, 5), w.force_contributors(1, 5));
    }

    #[test]
    fn epoch_boundaries_follow_rebuild_every() {
        let w = Moldyn {
            rebuild_every: 20,
            ..Moldyn::default()
        };
        assert_eq!(w.epoch(0), 0);
        assert_eq!(w.epoch(19), 0);
        assert_eq!(w.epoch(20), 1);
    }

    #[test]
    fn migratory_signature_present() {
        let mut w = Moldyn::small();
        let t = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        let arcs = evaluate_cosmos(&t, 1, 0);
        // Figure 7's migratory cache signature: get_ro_response followed
        // by upgrade_response.
        let a = ArcKey {
            role: Role::Cache,
            prev: MsgType::GetRoResponse,
            next: MsgType::UpgradeResponse,
        };
        let b = ArcKey {
            role: Role::Cache,
            prev: MsgType::UpgradeResponse,
            next: MsgType::InvalRwRequest,
        };
        assert!(
            arcs.arc_share(a) > 0.05,
            "get_ro->upgrade share {}",
            arcs.arc_share(a)
        );
        assert!(
            arcs.arc_share(b) > 0.05,
            "upgrade->inval_rw share {}",
            arcs.arc_share(b)
        );
    }

    #[test]
    fn coordinates_have_multiple_consumers() {
        let w = Moldyn::default();
        let total: usize = (0..w.nodes).map(|o| w.coord_consumers(0, o, 0).len()).sum();
        let mean = total as f64 / w.nodes as f64;
        assert!(mean > 3.0, "mean consumers {mean} too low for 4.9 target");
    }
}
