//! The DFS over delivery orders, with replay-based stepping and
//! fingerprint pruning.

use super::{CheckConfig, CheckReport, CheckStats};
use crate::concurrent::ConcurrentMachine;
use crate::config::SystemConfig;
use crate::machine::SimError;
use crate::speculate::EagerPolicy;
use stache::invariants::{check_swmr, check_watermark, InvariantViolation};
use std::collections::HashSet;
use std::time::Instant;

/// An invariant violation, with the schedule that reaches it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable kind key (an [`InvariantViolation::kind_name`] or an error
    /// class like `protocol_error`) — shrinking and replay match on this.
    pub kind: String,
    /// Human-readable description of what broke.
    pub detail: String,
    /// The rank chosen at each step, up to and including the violating
    /// delivery.
    pub schedule: Vec<usize>,
    /// A label for each chosen event, aligned with `schedule`.
    pub labels: Vec<String>,
}

/// Whether a replay is exploring (stop at the prefix end and report the
/// branch point) or reproducing (the prefix must force a violation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Explore,
    Replay,
}

/// The outcome of replaying one schedule prefix from scratch.
#[derive(Debug, Clone)]
pub(crate) enum RunOutcome {
    /// The prefix was consumed with events still pending (explore mode).
    /// `choices` are the ranks legal to force next.
    Ongoing {
        fingerprint: u64,
        choices: Vec<usize>,
    },
    /// The whole plan ran to quiescence under the prefix.
    Quiescent { fingerprint: u64 },
    /// An invariant broke.
    Violation(Violation),
    /// Replay mode only: the schedule ran out (or named an out-of-range
    /// rank) without reaching a violation.
    NotReproduced,
}

/// The stable kind key for any simulator error.
fn error_kind(e: &SimError) -> &'static str {
    match e {
        SimError::Invariant(v) => v.kind_name(),
        SimError::Protocol(_) => "protocol_error",
        SimError::StaleRead { .. } => "stale_read",
        SimError::NodeOutOfRange { .. } => "node_out_of_range",
        SimError::RetryExhausted { .. } => "retry_exhausted",
        SimError::OrphanedSpans { .. } => "orphaned_spans",
    }
}

/// The ranks legal to force next: every non-delivery event, plus the
/// *first* pending delivery on each `(sender, receiver)` channel. The
/// fabric is FIFO per ordered pair, so forcing a later delivery past an
/// earlier one on the same channel would explore an interleaving the
/// network cannot produce (and the protocol is entitled to assume away).
fn enabled_ranks(m: &ConcurrentMachine) -> Vec<usize> {
    let mut seen = HashSet::new();
    m.pending_channels()
        .into_iter()
        .enumerate()
        .filter_map(|(rank, channel)| match channel {
            Some(pair) => seen.insert(pair).then_some(rank),
            None => Some(rank),
        })
        .collect()
}

fn violation(e: SimError, schedule: Vec<usize>, labels: Vec<String>) -> RunOutcome {
    RunOutcome::Violation(Violation {
        kind: error_kind(&e).to_string(),
        detail: e.to_string(),
        schedule,
        labels,
    })
}

/// The per-delivery invariants: SWMR over every touched block, and
/// monotone delivery watermarks. `marks` carries the previous step's
/// watermarks and is updated in place.
fn step_invariants(m: &ConcurrentMachine, marks: &mut [u64]) -> Result<(), InvariantViolation> {
    for block in m.touched_blocks() {
        check_swmr(block, &m.cache_states_for(block))?;
    }
    let now = m.dedup_watermarks();
    for (i, (&before, &after)) in marks.iter().zip(now.iter()).enumerate() {
        check_watermark(stache::NodeId::new(i), before, after)?;
    }
    marks.copy_from_slice(&now);
    Ok(())
}

/// Replays `prefix` from a fresh machine, forcing the `prefix[i]`-th
/// pending event at each step and checking invariants after every one.
pub(crate) fn run_schedule(
    cfg: &CheckConfig,
    prefix: &[usize],
    mode: Mode,
    stats: &mut CheckStats,
) -> RunOutcome {
    stats.schedules += 1;
    let mut m = ConcurrentMachine::new(cfg.proto.clone(), SystemConfig::paper());
    m.set_mutation(cfg.mutation);
    if let Some(actions) = cfg.speculation {
        m.set_policy(Box::new(EagerPolicy::new(actions, cfg.proto.nodes)));
    }
    let mut marks = m.dedup_watermarks();
    let mut consumed = 0usize;
    let mut sched: Vec<usize> = Vec::new();
    let mut labels: Vec<String> = Vec::new();

    for phase in &cfg.plan.phases {
        m.begin_phase(phase);
        loop {
            let pending = m.pending_events();
            if pending == 0 {
                break;
            }
            if consumed == prefix.len() {
                return match mode {
                    Mode::Explore => RunOutcome::Ongoing {
                        fingerprint: m.state_fingerprint(),
                        choices: enabled_ranks(&m),
                    },
                    Mode::Replay => RunOutcome::NotReproduced,
                };
            }
            let rank = prefix[consumed];
            if rank >= pending || !enabled_ranks(&m).contains(&rank) {
                // Explore children are enabled by construction; only a
                // shrink candidate or a hand-edited artifact gets here,
                // by naming a rank out of range or a delivery that would
                // jump the FIFO queue of its channel.
                return RunOutcome::NotReproduced;
            }
            labels.push(m.pending_labels().swap_remove(rank));
            sched.push(rank);
            consumed += 1;
            stats.steps_total += 1;
            if let Err(e) = m.step_rank(rank) {
                return violation(e, sched, labels);
            }
            if let Err(v) = step_invariants(&m, &mut marks) {
                return violation(SimError::from(v), sched, labels);
            }
        }
        // Quiescent: the barrier refuses a stuck waiter or open
        // transaction, then audits.
        if let Err(e) = m.run_barrier() {
            return violation(e, sched, labels);
        }
    }
    if consumed < prefix.len() && mode == Mode::Replay {
        return RunOutcome::NotReproduced;
    }
    RunOutcome::Quiescent {
        fingerprint: m.state_fingerprint(),
    }
}

/// Explores every delivery order of `cfg.plan` within the configured
/// bounds, depth-first with fingerprint pruning, and shrinks the first
/// violation found.
pub fn explore(cfg: &CheckConfig) -> CheckReport {
    let t0 = Instant::now();
    let mut stats = CheckStats {
        exhausted: true,
        ..CheckStats::default()
    };
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    let mut found: Option<Violation> = None;

    while let Some(prefix) = stack.pop() {
        if stats.states_visited >= cfg.max_states as u64 {
            stats.exhausted = false;
            break;
        }
        match run_schedule(cfg, &prefix, Mode::Explore, &mut stats) {
            RunOutcome::Ongoing {
                fingerprint,
                choices,
            } => {
                if !seen.insert(fingerprint) {
                    stats.states_pruned += 1;
                    continue;
                }
                stats.states_visited += 1;
                if prefix.len() >= cfg.max_steps {
                    stats.truncated += 1;
                    stats.exhausted = false;
                    continue;
                }
                // Reverse order so the lowest rank — the unforced
                // scheduler's own choice — is explored first.
                for &c in choices.iter().rev() {
                    let mut child = Vec::with_capacity(prefix.len() + 1);
                    child.extend_from_slice(&prefix);
                    child.push(c);
                    stack.push(child);
                }
                stats.max_frontier = stats.max_frontier.max(stack.len());
            }
            RunOutcome::Quiescent { fingerprint } => {
                if !seen.insert(fingerprint) {
                    stats.states_pruned += 1;
                } else {
                    stats.states_visited += 1;
                    stats.terminal_states += 1;
                }
            }
            RunOutcome::Violation(v) => {
                stats.violations = 1;
                stats.exhausted = false;
                found = Some(v);
                break;
            }
            RunOutcome::NotReproduced => {
                debug_assert!(false, "explore children are always enabled");
            }
        }
    }
    let violation = found.map(|v| super::shrink(cfg, v, &mut stats));
    stats.wall_ns = t0.elapsed().as_nanos() as u64;
    CheckReport { stats, violation }
}
