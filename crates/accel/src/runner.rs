//! Running workloads with and without speculation and comparing outcomes.

use simx::{ConcurrentMachine, FaultPlan, SimError, SpeculationPolicy, SystemConfig};
use stache::{ProtocolConfig, RollbackTally};
use std::fmt;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CosmosPolicy, DirectedPolicy, PredictorPolicy};
    use stache::{BlockAddr, NodeId};
    use std::sync::{Arc, Mutex};
    use trace::MsgRecord;
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

    /// A [`CosmosPolicy`] that also logs every record the engine has it
    /// `observe`.
    #[derive(Debug)]
    struct Logged {
        inner: PredictorPolicy,
        seen: Arc<Mutex<Vec<MsgRecord>>>,
    }

    impl SpeculationPolicy for Logged {
        fn grant_exclusive(&mut self, home: NodeId, requester: NodeId, block: BlockAddr) -> bool {
            self.inner.grant_exclusive(home, requester, block)
        }

        fn self_invalidate(&mut self, node: NodeId, block: BlockAddr) -> bool {
            self.inner.self_invalidate(node, block)
        }

        fn observe(&mut self, record: &MsgRecord) {
            self.seen.lock().unwrap().push(*record);
            self.inner.observe(record);
        }
    }

    #[test]
    fn a_clean_speculating_run_observes_exactly_its_trace() {
        // The policy trains on the receptions the trace records, in record
        // order, so replaying the trace reaches the policy's table state at
        // every consult point. The grant and replacement counts themselves
        // are pinned by `accel_small.csv`.
        let migratory = Migratory {
            blocks: 2,
            iterations: 20,
            ..Default::default()
        };
        let producer_consumer = ProducerConsumer {
            blocks: 2,
            iterations: 20,
            ..Default::default()
        };
        let workloads: [Box<dyn Workload>; 2] = [Box::new(migratory), Box::new(producer_consumer)];
        // Migratory drives the grants, producer-consumer the replacements.
        let (mut grants, mut replacements) = (0, 0);
        for mut w in workloads {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let policy = Logged {
                inner: CosmosPolicy::new(2),
                seen: Arc::clone(&seen),
            };
            let m = run_machine(w.as_mut(), Some(Box::new(policy)), None, false).unwrap();
            assert_eq!(*seen.lock().unwrap(), m.trace().records());
            grants += m.stats().exclusive_grants;
            replacements += m.stats().voluntary_replacements;
        }
        assert!(grants > 0 && replacements > 0);
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
