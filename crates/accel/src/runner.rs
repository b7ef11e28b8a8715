//! Running workloads with and without speculation and comparing outcomes.

use crate::policy::CosmosPolicy;
use simx::{ConcurrentMachine, FaultPlan, SimError, SpeculationPolicy, SystemConfig};
use stache::{BlockAddr, MsgType, NodeId, ProtocolConfig, Role, RollbackTally};
use std::collections::HashSet;
use std::fmt;
use trace::TraceBundle;
use workloads::{drive, Workload};

/// The outcome of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Total coherence messages exchanged.
    pub messages: u64,
    /// Execution time (latest node clock) in ns.
    pub execution_time_ns: u64,
    /// Memory accesses that hit without coherence action.
    pub hits: u64,
    /// Total memory accesses executed (reads + writes).
    pub accesses: u64,
    /// Speculative exclusive grants the directory issued.
    pub exclusive_grants: u64,
    /// Voluntary replacements the caches issued.
    pub voluntary_replacements: u64,
    /// Speculative pushes, their outcomes, and early acks.
    pub rollback: RollbackTally,
}

impl RunSummary {
    /// The outcome of the run `machine` has finished.
    pub fn of(machine: &ConcurrentMachine) -> Self {
        let stats = machine.stats();
        RunSummary {
            messages: stats.messages_total(),
            execution_time_ns: machine.execution_time_ns(),
            hits: stats.hits,
            accesses: stats.accesses(),
            exclusive_grants: stats.exclusive_grants,
            voluntary_replacements: stats.voluntary_replacements,
            rollback: *machine.rollback_tally(),
        }
    }
}

/// Baseline vs. accelerated, on identical access streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Comparison {
    /// The run without speculation.
    pub baseline: RunSummary,
    /// The run with the policy installed.
    pub accelerated: RunSummary,
}

impl Comparison {
    /// Message reduction as a fraction of the baseline (negative when
    /// speculation *added* traffic).
    pub fn message_saving(&self) -> f64 {
        if self.baseline.messages == 0 {
            return 0.0;
        }
        1.0 - self.accelerated.messages as f64 / self.baseline.messages as f64
    }

    /// Execution-time speedup (baseline / accelerated).
    pub fn speedup(&self) -> f64 {
        if self.accelerated.execution_time_ns == 0 {
            return 1.0;
        }
        self.baseline.execution_time_ns as f64 / self.accelerated.execution_time_ns as f64
    }

    /// Exports the comparison into a metrics snapshot under `accel.` —
    /// message counts for both runs, the speedup and saving headline
    /// figures, and the policy-action counters.
    pub fn export_obs(&self, snap: &mut obs::Snapshot) {
        snap.counter("accel.baseline.messages", self.baseline.messages);
        snap.counter("accel.accelerated.messages", self.accelerated.messages);
        snap.counter(
            "accel.baseline.execution_time_ns",
            self.baseline.execution_time_ns,
        );
        snap.counter(
            "accel.accelerated.execution_time_ns",
            self.accelerated.execution_time_ns,
        );
        snap.gauge("accel.speedup", self.speedup());
        snap.gauge("accel.message_saving_pct", 100.0 * self.message_saving());
        snap.counter(
            "accel.policy.exclusive_grants",
            self.accelerated.exclusive_grants,
        );
        snap.counter(
            "accel.policy.voluntary_replacements",
            self.accelerated.voluntary_replacements,
        );
        // Mispredictions surface as extra coherence misses relative to the
        // baseline's identical access stream (a wrong grant or a premature
        // replacement must be re-fetched).
        let base_misses = self.baseline.accesses - self.baseline.hits;
        let accel_misses = self.accelerated.accesses - self.accelerated.hits;
        snap.counter(
            "accel.speculation.extra_misses",
            accel_misses.saturating_sub(base_misses),
        );
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "messages {} -> {} ({:+.1}%), time {} -> {} ns ({:.2}x), \
             {} grants, {} replacements",
            self.baseline.messages,
            self.accelerated.messages,
            -100.0 * self.message_saving(),
            self.baseline.execution_time_ns,
            self.accelerated.execution_time_ns,
            self.speedup(),
            self.accelerated.exclusive_grants,
            self.accelerated.voluntary_replacements,
        )
    }
}

/// Runs a workload to completion on the event engine — the paper's
/// machine (Table 3) — optionally speculating under `policy`, optionally
/// over the faulty fabric `plan` describes, recording causal spans when
/// `spans` is set (they are observational: the run is the same either
/// way), audits coherence, and returns the finished machine: its trace,
/// span log, statistics and tallies are the caller's to read. Every
/// event-engine run of a workload goes through here.
///
/// # Errors
///
/// Propagates any [`SimError`]: a retry budget exhausted by the plan, or
/// a run that ends incoherent.
pub fn run_machine<W: Workload + ?Sized>(
    workload: &mut W,
    policy: Option<Box<dyn SpeculationPolicy>>,
    plan: Option<FaultPlan>,
    spans: bool,
) -> Result<ConcurrentMachine, SimError> {
    let mut machine = ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
    if spans {
        machine.enable_tracing();
    }
    if let Some(p) = plan {
        machine.set_fault_plan(p);
    }
    if let Some(p) = policy {
        machine.set_policy(p);
    }
    drive(&mut machine, workload)?;
    Ok(machine)
}

/// Runs the same workload twice — bare, then with `make_policy()` — and
/// returns both summaries. The two workload instances must be
/// identically-constructed (plans are pure functions of parameters, so
/// the access streams match).
///
/// # Errors
///
/// Propagates any [`SimError`] from either run.
pub fn compare<W: Workload + ?Sized>(
    baseline_workload: &mut W,
    accelerated_workload: &mut W,
    make_policy: impl FnOnce() -> Box<dyn SpeculationPolicy>,
) -> Result<Comparison, SimError> {
    let baseline = run_machine(baseline_workload, None, None, false)?;
    let accelerated = run_machine(accelerated_workload, Some(make_policy()), None, false)?;
    Ok(Comparison {
        baseline: RunSummary::of(&baseline),
        accelerated: RunSummary::of(&accelerated),
    })
}

/// The speculative-action counts recovered by replaying a finished run's
/// trace (see [`audit_actions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActionAudit {
    /// Exclusive grants the live policy must have fired.
    pub exclusive_grants: u64,
    /// Voluntary (self-invalidation) replacements it must have fired.
    pub voluntary_replacements: u64,
}

/// Replays [`CosmosPolicy::new`]`(depth)` over a finished run's trace — the
/// same per-`(node, role)` agent layout [`cosmos::StreamEval`] replays
/// — and counts the actions the live policy fired, from the recorded
/// messages alone.
///
/// The live policy trains on exactly the receptions the trace records, in
/// record order, so a replayed fleet reaches the same table state at every
/// consult point and reproduces every decision:
///
/// * an **exclusive grant** fired at each directory `get_ro_request`
///   record after which the home's predictor names `(sender,
///   upgrade_request)`;
/// * a **voluntary replacement** fired at each exclusive fill — a
///   `get_rw_response`/`upgrade_response` answering a genuine write, *or*
///   answering a read the audit itself granted exclusively — after which
///   the holder's predictor names an `inval_rw_request`. (A granted read
///   consults self-invalidation at the predicted write, which *hits* in
///   cache and leaves no record; no message reaches that cache while it
///   stays exclusive, so the predictor state at the hit is the fill-time
///   state the audit checks. This assumes the read-modify-write idiom the
///   grant bet on — the write the predictor foresaw does arrive.)
///
/// This only holds on *clean* runs: under fault injection a retry
/// re-delivers a message the dedup layer may absorb after it was already
/// recorded, so the live observe stream and the trace diverge. The
/// regression tests pin the clean-run equality so any such drift in the
/// runner is caught.
pub fn audit_actions(bundle: &TraceBundle, depth: usize) -> ActionAudit {
    // The policy the run is replayed under; it applies the two action
    // rules and counts what fires.
    let mut policy = CosmosPolicy::new(depth);
    // Exclusive fills in flight, keyed (block, holder): genuine write
    // requests plus reads the audit granted exclusively. Each one's
    // arrival is a self-invalidation consult point.
    let mut fills: HashSet<(BlockAddr, NodeId)> = HashSet::new();
    for r in bundle.records() {
        // The machine records a reception (training the policy) before it
        // consults any action for it, so observe first.
        policy.observe(r);
        match (r.role, r.mtype) {
            (Role::Directory, MsgType::GetRoRequest)
                if policy.grant_exclusive(r.node, r.sender, r.block) =>
            {
                fills.insert((r.block, r.sender));
            }
            (Role::Directory, MsgType::GetRwRequest | MsgType::UpgradeRequest) => {
                fills.insert((r.block, r.sender));
            }
            (Role::Cache, MsgType::GetRwResponse | MsgType::UpgradeResponse)
                if fills.remove(&(r.block, r.node)) =>
            {
                policy.self_invalidate(r.node, r.block);
            }
            _ => {}
        }
    }
    ActionAudit {
        exclusive_grants: policy.grants,
        voluntary_replacements: policy.replacements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectedPolicy;
    use workloads::micro::{Migratory, ProducerConsumer};

    #[test]
    fn producer_consumer_gets_faster_with_cosmos() {
        let make = || ProducerConsumer {
            blocks: 2,
            iterations: 20,
            ..Default::default()
        };
        let c = compare(&mut make(), &mut make(), || Box::new(CosmosPolicy::new(2))).unwrap();
        assert!(c.accelerated.voluntary_replacements > 0, "{c}");
        assert!(c.accelerated.messages < c.baseline.messages, "{c}");
        assert!(c.speedup() > 1.0, "{c}");
    }

    #[test]
    fn migratory_grants_remove_upgrade_rounds() {
        let make = || Migratory {
            blocks: 2,
            iterations: 20,
            ..Default::default()
        };
        let c = compare(&mut make(), &mut make(), || Box::new(CosmosPolicy::new(2))).unwrap();
        assert!(c.accelerated.exclusive_grants > 0, "{c}");
        assert!(c.accelerated.messages < c.baseline.messages, "{c}");
    }

    #[test]
    fn directed_policy_also_accelerates_its_own_patterns() {
        let make = || ProducerConsumer {
            blocks: 2,
            iterations: 20,
            ..Default::default()
        };
        let c = compare(&mut make(), &mut make(), || Box::new(DirectedPolicy::new())).unwrap();
        assert!(c.accelerated.messages < c.baseline.messages, "{c}");
    }

    #[test]
    fn concurrent_engine_speculation_stays_coherent_and_saves_messages() {
        // `run_machine` hands back the event engine itself: the summary
        // `compare` condenses is read off a machine that still audits.
        let make = || ProducerConsumer {
            blocks: 2,
            iterations: 20,
            ..Default::default()
        };
        let base = run_machine(&mut make(), None, None, false).unwrap();
        let spec = run_machine(
            &mut make(),
            Some(Box::new(CosmosPolicy::new(2))),
            None,
            false,
        )
        .unwrap();
        spec.verify_coherence().unwrap();
        assert!(spec.stats().voluntary_replacements > 0);
        assert!(spec.stats().messages_total() < base.stats().messages_total());
        assert!(base.rollback_tally().is_quiet() && base.fault_tally().is_none());
    }

    #[test]
    fn concurrent_grants_fire_on_migratory() {
        // Clean, and with the fabric misbehaving under the policy: the
        // plan and the policy compose in the one runner.
        let make = || Migratory {
            blocks: 2,
            iterations: 20,
            ..Default::default()
        };
        let plan = FaultPlan::parse("drop=0.02,dup=0.01,reorder=2").unwrap();
        for plan in [None, Some(plan.with_seed(7))] {
            let faulted = plan.is_some();
            let policy: Box<dyn SpeculationPolicy> = Box::new(CosmosPolicy::new(2));
            let m = run_machine(&mut make(), Some(policy), plan, false).unwrap();
            assert!(m.stats().exclusive_grants > 0);
            assert_eq!(m.fault_tally().is_some(), faulted);
        }
    }

    #[test]
    fn export_obs_carries_the_headline_comparison() {
        let make = || ProducerConsumer {
            blocks: 2,
            iterations: 20,
            ..Default::default()
        };
        let c = compare(&mut make(), &mut make(), || Box::new(CosmosPolicy::new(2))).unwrap();
        let mut snap = obs::Snapshot::new();
        c.export_obs(&mut snap);
        assert!(snap.names().iter().all(|n| n.starts_with("accel.")));
        assert_eq!(
            snap.get("accel.baseline.messages"),
            Some(&obs::MetricValue::Counter(c.baseline.messages))
        );
        assert!(matches!(
            snap.get("accel.speedup"),
            Some(obs::MetricValue::Gauge(s)) if *s > 1.0
        ));
    }

    /// Runs `workload` with a policy installed and returns the live
    /// action counts plus the trace they came from.
    fn traced_run<W: workloads::Workload>(
        workload: &mut W,
        policy: Box<dyn SpeculationPolicy>,
    ) -> (u64, u64, trace::TraceBundle) {
        let machine = run_machine(workload, Some(policy), None, false).unwrap();
        let stats = machine.stats();
        let (grants, repls) = (stats.exclusive_grants, stats.voluntary_replacements);
        (grants, repls, machine.into_trace())
    }

    #[test]
    fn audit_reproduces_live_grant_counts() {
        let mut w = Migratory {
            blocks: 2,
            iterations: 20,
            ..Default::default()
        };
        let (grants, repls, bundle) = traced_run(&mut w, Box::new(CosmosPolicy::new(2)));
        assert!(grants > 0, "migratory must drive grants");
        let audit = audit_actions(&bundle, 2);
        assert_eq!(audit.exclusive_grants, grants);
        assert_eq!(audit.voluntary_replacements, repls);
    }

    #[test]
    fn audit_reproduces_live_replacement_counts() {
        let mut w = ProducerConsumer {
            blocks: 2,
            iterations: 20,
            ..Default::default()
        };
        let (grants, repls, bundle) = traced_run(&mut w, Box::new(CosmosPolicy::new(2)));
        assert!(repls > 0, "producer-consumer must drive replacements");
        let audit = audit_actions(&bundle, 2);
        assert_eq!(audit.voluntary_replacements, repls);
        assert_eq!(audit.exclusive_grants, grants);
    }

    #[test]
    fn audit_agrees_with_record_verdicts_on_a_baseline_trace() {
        // On a run with no policy installed, every replacement opportunity
        // the audit counts is a prediction the *actual* next message at
        // that cache confirms or refutes — exactly the verdict a replay
        // returns for that record. Producer-consumer recalls the producer
        // after every write, so each audited opportunity is the recall
        // record tagged Hit, and the two counts must agree exactly.
        let mut w = ProducerConsumer {
            blocks: 2,
            iterations: 20,
            ..Default::default()
        };
        let bundle = run_machine(&mut w, None, None, false).unwrap().into_trace();
        let audit = audit_actions(&bundle, 2);
        assert!(audit.voluntary_replacements > 0);
        let mut eval = cosmos::StreamEval::new(cosmos::EvalOptions::default(), |_, _| {
            Box::new(cosmos::CosmosPredictor::new(2, 1))
        });
        let verdicts: Vec<_> = bundle.records().iter().map(|r| eval.push(r)).collect();
        let recall_hits = bundle
            .records()
            .iter()
            .zip(&verdicts)
            .filter(|(r, v)| {
                r.role == Role::Cache
                    && r.mtype == MsgType::InvalRwRequest
                    && **v == cosmos::eval::Verdict::Hit
            })
            .count() as u64;
        assert_eq!(audit.voluntary_replacements, recall_hits);
    }

    #[test]
    fn no_policy_compare_is_identity() {
        let mut a = ProducerConsumer {
            blocks: 1,
            iterations: 5,
            ..Default::default()
        };
        let mut b = ProducerConsumer {
            blocks: 1,
            iterations: 5,
            ..Default::default()
        };
        let ra = RunSummary::of(&run_machine(&mut a, None, None, false).unwrap());
        let rb = RunSummary::of(&run_machine(&mut b, None, None, false).unwrap());
        assert_eq!(ra, rb);
        assert_eq!(ra.exclusive_grants, 0);
    }
}
