//! `simcheck` — a bounded schedule-exploration model checker for the
//! Stache protocol.
//!
//! The concurrent engine is deterministic: given a plan, messages are
//! delivered in `(time, seq)` order and exactly one schedule runs. Real
//! machines are not so polite — the races the engine handles (upgrade
//! races, crossing writebacks, replacement races) only manifest under
//! *particular* delivery orders, and random testing samples those orders
//! thinly. This module explores them systematically, in the style of
//! stateless model checkers: a depth-first search over delivery orders
//! where each search node is a *schedule prefix* (a sequence of ranks
//! into the pending-event list) and each step re-runs the machine from
//! scratch under that prefix. Replay costs O(depth) per state but needs
//! no machine snapshotting, and a canonical
//! [state fingerprint](crate::ConcurrentMachine::state_fingerprint)
//! prunes schedules that converge on an already-visited protocol state.
//!
//! After every forced delivery the checker audits the invariants that
//! must hold mid-flight (SWMR over stable states, recovery-sequence
//! monotonicity), and at each quiescent point the full battery (full-map
//! directory agreement, no transients at rest, no stuck messages — see
//! [`stache::invariants`]). On a violation the failing schedule is
//! shrunk greedily ([`shrink`]) and can be serialised as a replayable
//! [`ScheduleArtifact`] that a regression test re-executes through the
//! ordinary [`ConcurrentMachine`](crate::ConcurrentMachine) stepping
//! API.
//!
//! The search is *bounded* — small configurations (2–4 nodes, 1–2
//! blocks), a depth budget per schedule, and a state budget overall — so
//! exhaustion proves the protocol correct only within those bounds (see
//! DESIGN.md §6e for exactly what that does and does not establish).
//!
//! ```
//! use simx::simcheck::{explore, CheckConfig};
//!
//! // Two nodes sharing one block: explored to exhaustion in well under
//! // a second, no violation.
//! let report = explore(&CheckConfig::small(2, 1));
//! assert!(report.stats.exhausted);
//! assert!(report.violation.is_none());
//! ```

mod artifact;
mod explore;
mod shrink;

pub use artifact::{ArtifactError, ScheduleArtifact};
pub use explore::{explore, Violation};
pub use shrink::shrink;

use crate::concurrent::ProtocolMutation;
use crate::driver::{Access, IterationPlan, Phase};
use crate::speculate::SpecActions;
use stache::{BlockAddr, NodeId, ProtocolConfig};

/// What to explore and how hard to try.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Protocol parameters (the node count). The machine runs the
    /// paper's Table 3 timing: forced stepping abstracts timing away, so
    /// it only shapes timestamps, never the state graph.
    pub proto: ProtocolConfig,
    /// The access plan whose delivery interleavings are explored.
    pub plan: IterationPlan,
    /// Seeded protocol bug, for checker self-validation.
    pub mutation: ProtocolMutation,
    /// Speculative actions to arm (via the always-fire
    /// [`EagerPolicy`](crate::speculate::EagerPolicy)); `None` explores
    /// the engine with no policy installed at all.
    pub speculation: Option<SpecActions>,
    /// Depth budget: the longest schedule (event count) explored.
    pub max_steps: usize,
    /// State budget: exploration stops after this many distinct states.
    pub max_states: usize,
}

impl CheckConfig {
    /// The canonical small configuration: `nodes` nodes contending for
    /// `blocks` blocks (each homed on its own node, round-robin) through
    /// a read-scatter phase followed by a write-contention phase — the
    /// shape that drives invalidations, upgrades, and the races between
    /// them.
    pub fn small(nodes: usize, blocks: usize) -> Self {
        CheckConfig {
            proto: ProtocolConfig { nodes },
            plan: contention_plan(nodes, blocks),
            mutation: ProtocolMutation::None,
            speculation: None,
            max_steps: 64,
            max_states: 200_000,
        }
    }

    /// [`small`](Self::small) with every speculative action armed: each
    /// explored schedule also interleaves early acks, voluntary
    /// writebacks, and speculative pushes (with their rollbacks) against
    /// the demand traffic.
    pub fn speculative(nodes: usize, blocks: usize) -> Self {
        CheckConfig {
            speculation: Some(SpecActions::all()),
            ..CheckConfig::small(nodes, blocks)
        }
    }
}

/// Builds the two-phase contention plan [`CheckConfig::small`] uses:
/// every node reads every block, then every node writes block
/// `node % blocks`.
pub fn contention_plan(nodes: usize, blocks: usize) -> IterationPlan {
    assert!(nodes > 0 && blocks > 0, "an empty machine explores nothing");
    let block = |j: usize| BlockAddr::new(j as u64 * 64); // page j, home j % nodes
    let mut plan = IterationPlan::new();
    let mut reads = Phase::new(nodes);
    for n in 0..nodes {
        for j in 0..blocks {
            reads.push(Access::read(NodeId::new(n), block(j)));
        }
    }
    plan.push(reads);
    let mut writes = Phase::new(nodes);
    for n in 0..nodes {
        writes.push(Access::write(NodeId::new(n), block(n % blocks)));
    }
    plan.push(writes);
    plan
}

/// Exploration statistics, exported under `simcheck.*`.
#[derive(Debug, Clone, Default)]
pub struct CheckStats {
    /// Distinct global states visited (terminal states included).
    pub states_visited: u64,
    /// Schedule prefixes abandoned because their state was already seen.
    pub states_pruned: u64,
    /// Quiescent plan-complete states reached.
    pub terminal_states: u64,
    /// Schedule prefixes replayed (the unit of work in a stateless
    /// checker — each costs one run from scratch).
    pub schedules: u64,
    /// Events delivered across every replay.
    pub steps_total: u64,
    /// Largest DFS frontier (pending schedule prefixes).
    pub max_frontier: usize,
    /// Schedules cut off by the depth budget.
    pub truncated: u64,
    /// Invariant violations found (exploration stops at the first).
    pub violations: u64,
    /// Candidate schedules replayed while shrinking a violation.
    pub shrink_attempts: u64,
    /// Whether the bounded state space was fully explored (no budget
    /// hit, no truncation, no violation short-circuit).
    pub exhausted: bool,
    /// Wall-clock time of the whole check, in ns.
    pub wall_ns: u64,
}

impl CheckStats {
    /// Folds another run's statistics into this one (for multi-config
    /// sweeps; `exhausted` ANDs, `max_frontier` takes the max).
    pub fn merge(&mut self, other: &CheckStats) {
        self.states_visited += other.states_visited;
        self.states_pruned += other.states_pruned;
        self.terminal_states += other.terminal_states;
        self.schedules += other.schedules;
        self.steps_total += other.steps_total;
        self.max_frontier = self.max_frontier.max(other.max_frontier);
        self.truncated += other.truncated;
        self.violations += other.violations;
        self.shrink_attempts += other.shrink_attempts;
        self.exhausted &= other.exhausted;
        self.wall_ns += other.wall_ns;
    }

    /// Exports the statistics under `simcheck.*`.
    pub fn export_obs(&self, snap: &mut obs::Snapshot) {
        snap.counter("simcheck.states_visited", self.states_visited);
        snap.counter("simcheck.states_pruned", self.states_pruned);
        snap.counter("simcheck.terminal_states", self.terminal_states);
        snap.counter("simcheck.schedules", self.schedules);
        snap.counter("simcheck.steps_total", self.steps_total);
        snap.counter("simcheck.max_frontier", self.max_frontier as u64);
        snap.counter("simcheck.truncated", self.truncated);
        snap.counter("simcheck.violations", self.violations);
        snap.counter("simcheck.shrink_attempts", self.shrink_attempts);
        snap.counter("simcheck.exhausted", u64::from(self.exhausted));
        snap.counter("simcheck.wall_ns", self.wall_ns);
    }
}

/// The result of one [`explore`] call.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Exploration statistics.
    pub stats: CheckStats,
    /// The first violation found, already shrunk — `None` when the
    /// bounded space is clean.
    pub violation: Option<Violation>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_plan_spreads_homes() {
        let plan = contention_plan(3, 2);
        assert_eq!(plan.phases.len(), 2);
        assert_eq!(plan.phases[0].per_node.iter().flatten().count(), 6);
        assert_eq!(plan.phases[1].per_node.iter().flatten().count(), 3);
    }

    #[test]
    fn stats_merge_and_export() {
        let mut a = CheckStats {
            states_visited: 10,
            max_frontier: 4,
            exhausted: true,
            ..CheckStats::default()
        };
        let b = CheckStats {
            states_visited: 5,
            max_frontier: 9,
            exhausted: false,
            ..CheckStats::default()
        };
        a.merge(&b);
        assert_eq!(a.states_visited, 15);
        assert_eq!(a.max_frontier, 9);
        assert!(!a.exhausted, "exhaustion only survives if both were");

        let mut snap = obs::Snapshot::new();
        a.export_obs(&mut snap);
        assert!(snap.names().iter().all(|n| n.starts_with("simcheck.")));
        assert!(matches!(
            snap.get("simcheck.states_visited"),
            Some(obs::MetricValue::Counter(15))
        ));
    }
}
