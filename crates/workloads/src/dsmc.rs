//! **dsmc** — discrete-simulation Monte Carlo gas dynamics (paper §5.2,
//! §6.1, Table 8).
//!
//! Three documented behaviours are modelled:
//!
//! 1. **Buffer handoffs** — at the end of each iteration, particles move
//!    between neighbouring processors via shared buffers: the producer
//!    *writes without reading first* (so the half-migratory optimisation
//!    helps — invalidating the producer avoids a directory handshake), then
//!    the consumer reads. This classical producer-consumer traffic gives
//!    dsmc the suite's highest accuracy.
//! 2. **Contended buffers** — "in some cases multiple processors compete
//!    for exclusive access to a shared buffer", creating oscillating
//!    patterns. Each contended block has a per-block stabilisation
//!    iteration (front-loaded, tail to ~320): before it, fresh
//!    competitors each iteration read and write the buffer head
//!    *non-atomically*, so rivals' invalidations break the read/write
//!    pairs (Table 8's near-zero early hit rates); after it the writer
//!    rotation is fixed — A,B,A,C with two-message refills, resolvable
//!    exactly at depth 3 (Table 5's directory jump). The churn's falling
//!    traffic share reproduces Table 8's falling reference columns and
//!    the ~300-iteration time-to-adapt of §6.2.
//! 3. **Rarely-touched cells** — a large population of blocks referenced
//!    only once or twice in the whole run, which keeps dsmc's PHT/MHR
//!    ratio below one (Table 7) since blocks with at most `depth`
//!    references never allocate a PHT.

use crate::rng::{iter_rng, permutation};
use crate::Workload;
use simx::{Access, IterationPlan, Phase};
use stache::{BlockAddr, NodeId};

/// Block-address region for pairwise handoff buffers.
const BUFFER_REGION: u64 = 0;
/// Block-address region for contended buffers.
const CONTENDED_REGION: u64 = 1 << 20;
/// Block-address region for rarely-touched cells.
const RARE_REGION: u64 = 2 << 20;

/// The dsmc workload generator.
#[derive(Debug, Clone)]
pub struct Dsmc {
    /// Machine size.
    pub nodes: usize,
    /// Handoff-buffer blocks per neighbour pair.
    pub buffer_blocks: usize,
    /// Contended buffer blocks refilled with plain writes (their
    /// repeated-writer rotation is only resolvable at history depth 3).
    pub contended: usize,
    /// Contended buffer blocks updated with read-modify-writes (their
    /// rotation resolves at depth 2; these produce Table 8's
    /// `get_ro`/`upgrade`/`inval_rw` transitions).
    pub contended_rmw: usize,
    /// Writers competing for each contended block.
    pub contention_writers: usize,
    /// Latest iteration at which a contended block stabilises.
    pub stabilize_by: u32,
    /// Rarely-touched cell blocks.
    pub rare_blocks: usize,
    /// Iterations.
    pub iterations: u32,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Dsmc {
    fn default() -> Self {
        Dsmc {
            nodes: 16,
            buffer_blocks: 2,
            contended: 48,
            contended_rmw: 16,
            contention_writers: 3,
            stabilize_by: 320,
            rare_blocks: 6000,
            iterations: 400,
            seed: 0xD51C,
        }
    }
}

impl Dsmc {
    /// A reduced configuration for fast tests.
    pub fn small() -> Self {
        Dsmc {
            buffer_blocks: 2,
            contended: 4,
            contended_rmw: 2,
            stabilize_by: 10,
            rare_blocks: 60,
            iterations: 15,
            ..Dsmc::default()
        }
    }

    fn buffer_block(&self, pair: usize, j: usize) -> BlockAddr {
        BlockAddr::new(BUFFER_REGION + (pair * self.buffer_blocks + j) as u64)
    }

    fn contended_block(&self, k: usize) -> BlockAddr {
        BlockAddr::new(CONTENDED_REGION + k as u64)
    }

    /// The iteration at which contended block `k` settles into its fixed
    /// writer rotation. Front-loaded (cubic transform of a uniform draw):
    /// most buffers settle quickly, a tail takes until ~`stabilize_by`,
    /// which reproduces the ~300-iteration time-to-adapt of §6.2.
    fn stabilize_iteration(&self, k: usize) -> u32 {
        let mut rng = iter_rng(self.seed, 0, 100 + k as u64);
        let u = rng.gen_f64();
        1 + (f64::from(self.stabilize_by.max(1) - 1) * u.powi(6)) as u32
    }

    /// The fixed (post-stabilisation) writer rotation for block `k`. The
    /// rotation *repeats* one writer (A, B, A, C): a depth-1 history at
    /// the directory cannot tell the two A-turns apart, while depth 3 can
    /// — the source of dsmc's directory-accuracy jump at depth 3 in
    /// Table 5.
    fn writer_rotation(&self, k: usize) -> Vec<NodeId> {
        let mut rng = iter_rng(self.seed, 0, 200 + k as u64);
        let start = rng.gen_range(0..self.nodes);
        let distinct: Vec<NodeId> = (0..self.contention_writers)
            .map(|i| NodeId::new((start + i * 3) % self.nodes))
            .collect();
        // A, B, A, then the remaining writers: the repeated writer's two
        // turns are never adjacent (adjacent turns would silently hit).
        let mut rotation = vec![distinct[0], distinct[1], distinct[0]];
        rotation.extend_from_slice(&distinct[2..]);
        rotation
    }
}

impl Workload for Dsmc {
    fn name(&self) -> &'static str {
        "dsmc"
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

        // Pre-stabilisation, a contended buffer is fought over: several
        // processors each read the buffer head and write it back *without
        // holding it exclusively across the pair*, so competitors'
        // invalidations land between the read and the write. This is what
        // makes Table 8's read-modify-write transitions start near zero
        // accuracy and dominate the early reference mix.
        let total_contended = self.contended + self.contended_rmw;
        let mut scramble = Phase::new(self.nodes);
        for k in 0..total_contended {
            if iteration >= self.stabilize_iteration(k) {
                continue;
            }
            // Fresh competitors every iteration: nothing to learn yet.
            let all: Vec<usize> = permutation(&mut rng, self.nodes);
            for &w in all.iter().take(self.contention_writers) {
                let node = NodeId::new(w);
                scramble.push(Access::read(node, self.contended_block(k)));
                scramble.push(Access::write(node, self.contended_block(k)));
            }
        }
        if !scramble.is_empty() {
            plan.push(scramble);
        }

        // Post-stabilisation the rotation is fixed: the first `contended`
        // blocks are *refilled* with plain writes (their repeated-writer
        // A,B,A,C rotation is only resolvable at depth 3); the rest keep
        // clean in-place read-modify-write updates (resolvable at depth 2).
        let per_block: Vec<Option<Vec<NodeId>>> = (0..total_contended)
            .map(|k| {
                if iteration < self.stabilize_iteration(k) {
                    return None;
                }
                // Traffic intensity decays once the buffer settles.
                if !rng.gen_bool(0.8) {
                    return None;
                }
                Some(self.writer_rotation(k))
            })
            .collect();
        let turns = self.contention_writers + 1;
        for turn in 0..turns {
            let mut phase = Phase::new(self.nodes);
            for (k, writers) in per_block.iter().enumerate() {
                if let Some(ws) = writers {
                    if let Some(&w) = ws.get(turn) {
                        if k < self.contended {
                            phase.push(Access::write(w, self.contended_block(k)));
                        } else {
                            phase.push(Access::rmw(w, self.contended_block(k)));
                        }
                    }
                }
            }
            if !phase.is_empty() {
                plan.push(phase);
            }
        }

        // Rarely-touched cells: a thin slice of the population is touched
        // each iteration, once, and never again.
        let mut rare = Phase::new(self.nodes);
        // `div_ceil` (as in `push_quiet_phase`): flooring the division
        // drops the remainder and leaves the last `rare_blocks %
        // iterations` cells untouched for the whole run.
        let per_iter = ((self.rare_blocks as u32).div_ceil(self.iterations.max(1))).max(1) as usize;
        let base = iteration as usize * per_iter;
        for r in 0..per_iter {
            let idx = base + r;
            if idx >= self.rare_blocks {
                break;
            }
            let b = BlockAddr::new(RARE_REGION + idx as u64);
            let toucher = NodeId::new(rng.gen_range(0..self.nodes));
            rare.push(Access::write(toucher, b));
            let reader = NodeId::new((toucher.index() + 1) % self.nodes);
            rare.push(Access::read(reader, b));
        }
        plan.push(rare);

        // Handoff phase: each processor fills the buffer to its successor
        // (write-only), then consumers drain their inbound buffers.
        let mut fill = Phase::new(self.nodes);
        for p in 0..self.nodes {
            for j in 0..self.buffer_blocks {
                fill.push(Access::write(NodeId::new(p), self.buffer_block(p, j)));
            }
        }
        plan.push(fill);

        let mut drain = Phase::new(self.nodes);
        for p in 0..self.nodes {
            let consumer = NodeId::new((p + 1) % self.nodes);
            for j in 0..self.buffer_blocks {
                drain.push(Access::read(consumer, self.buffer_block(p, j)));
            }
        }
        plan.push(drain);
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
    fn rotation_and_stabilisation_are_deterministic() {
        let w = Dsmc::default();
        assert_eq!(w.writer_rotation(3), w.writer_rotation(3));
        assert_eq!(w.stabilize_iteration(3), w.stabilize_iteration(3));
        assert!(w.stabilize_iteration(3) <= w.stabilize_by);
        // The rotation repeats its first writer once (A, B, A, C).
        let rot = w.writer_rotation(3);
        assert_eq!(rot.len(), w.contention_writers + 1);
        assert_eq!(rot[0], rot[2]);
        assert_ne!(rot[0], rot[1]);
    }

    #[test]
    fn handoff_signature_dominates() {
        let mut w = Dsmc::small();
        let t = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        let arcs = evaluate_cosmos(&t, 1, 0);
        // Figure 6's dsmc cache-side handoff: the producer's
        // get_rw_response is followed by the consumer-read-induced
        // inval_rw_request.
        let key = ArcKey {
            role: Role::Cache,
            prev: MsgType::GetRwResponse,
            next: MsgType::InvalRwRequest,
        };
        assert!(
            arcs.arc_share(key) > 0.05,
            "share was {}",
            arcs.arc_share(key)
        );
    }

    #[test]
    fn rare_blocks_touched_at_most_once() {
        let mut w = Dsmc::small();
        let t = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        // Every rare-region block generates at most one write+read handoff:
        // at the directory that is at most 4 messages.
        for b in t.blocks() {
            if b.number() >= RARE_REGION {
                let n = t.for_block(b).count();
                assert!(n <= 6, "rare block {b} saw {n} messages");
            }
        }
    }

    #[test]
    fn every_configured_rare_block_is_touched() {
        // Regression: the per-iteration slice used flooring division, so
        // with 10 rare blocks over 4 iterations only floor(10/4)*4 = 8
        // were ever touched — the last `rare % iterations` cells never
        // appeared in any plan.
        let mut w = Dsmc {
            rare_blocks: 10,
            iterations: 4,
            ..Dsmc::small()
        };
        let mut touched = std::collections::HashSet::new();
        for it in 0..w.iterations() {
            let plan = w.plan(it);
            for phase in &plan.phases {
                for accesses in &phase.per_node {
                    for a in accesses {
                        if a.block.number() >= RARE_REGION {
                            touched.insert(a.block.number() - RARE_REGION);
                        }
                    }
                }
            }
        }
        let expected: std::collections::HashSet<u64> = (0..10).collect();
        assert_eq!(touched, expected, "all configured rare blocks covered");
    }

    #[test]
    fn contended_blocks_quieten_after_stabilisation() {
        let w = Dsmc {
            iterations: 30,
            stabilize_by: 5,
            ..Dsmc::small()
        };
        let mut w2 = w.clone();
        let t = run_to_trace(&mut w2, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
        let contended_msgs = |lo: u32, hi: u32| {
            t.records()
                .iter()
                .filter(|r| {
                    r.block.number() >= CONTENDED_REGION
                        && r.block.number() < RARE_REGION
                        && (lo..hi).contains(&r.iteration)
                })
                .count()
        };
        let early = contended_msgs(0, 5);
        let late = contended_msgs(25, 30);
        assert!(
            late < early,
            "contended traffic should decay: early {early}, late {late}"
        );
    }
}
