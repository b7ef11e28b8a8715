//! Machine statistics.

use stache::{MsgType, ProcOp};
use std::collections::BTreeMap;
use std::fmt;

/// Counters accumulated while the machine runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Loads executed.
    pub reads: u64,
    /// Stores executed.
    pub writes: u64,
    /// Accesses that hit without coherence action.
    pub hits: u64,
    /// Accesses that required a coherence transaction.
    pub misses: u64,
    /// Barrier synchronisations.
    pub barriers: u64,
    /// Speculative exclusive grants issued by the directory (§4
    /// integration, read-modify-write prediction).
    pub exclusive_grants: u64,
    /// Voluntary replacements of exclusive blocks (§4 integration,
    /// dynamic self-invalidation).
    pub voluntary_replacements: u64,
    /// Distribution of per-access latencies in ns (count, sum, and
    /// power-of-two percentiles — p50/p95/max replace the old bare sum).
    pub latency_ns: obs::Histogram,
    /// Distribution of one-way network hop latencies in ns, one sample
    /// per message actually sent.
    pub net_latency_ns: obs::Histogram,
    /// Messages sent, by type.
    pub messages: BTreeMap<MsgType, u64>,
}

impl MachineStats {
    pub(crate) fn count_access(&mut self, op: ProcOp, hit: bool, latency_ns: u64) {
        match op {
            ProcOp::Read => self.reads += 1,
            ProcOp::Write => self.writes += 1,
        }
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.latency_ns.record(latency_ns);
    }

    pub(crate) fn count_message(&mut self, mtype: MsgType) {
        *self.messages.entry(mtype).or_insert(0) += 1;
    }

    /// Total messages across all types.
    pub fn messages_total(&self) -> u64 {
        self.messages.values().sum()
    }

    /// Folds another machine's counters into this one. Every field is a
    /// sum, a histogram, or a per-type count — all commutative — so
    /// per-shard statistics merged in any order equal the single-machine
    /// statistics of the same run (the sharded engine's byte-identity
    /// tests pin this).
    pub fn merge(&mut self, other: &MachineStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.hits += other.hits;
        self.misses += other.misses;
        self.barriers += other.barriers;
        self.exclusive_grants += other.exclusive_grants;
        self.voluntary_replacements += other.voluntary_replacements;
        self.latency_ns.merge(&other.latency_ns);
        self.net_latency_ns.merge(&other.net_latency_ns);
        for (t, c) in &other.messages {
            *self.messages.entry(*t).or_insert(0) += c;
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Hit rate in [0, 1]; 0 for an idle machine.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            return 0.0;
        }
        self.hits as f64 / self.accesses() as f64
    }

    /// Mean access latency in ns; 0 for an idle machine.
    pub fn mean_latency_ns(&self) -> f64 {
        self.latency_ns.mean()
    }

    /// Exports into a metrics snapshot under the `simx.` prefix.
    pub fn export_obs(&self, snap: &mut obs::Snapshot) {
        snap.counter("simx.access.reads", self.reads);
        snap.counter("simx.access.writes", self.writes);
        snap.counter("simx.access.hits", self.hits);
        snap.counter("simx.access.misses", self.misses);
        snap.gauge("simx.access.hit_rate", self.hit_rate());
        snap.histogram("simx.access.latency_ns", &self.latency_ns);
        snap.histogram("simx.net.one_way_ns", &self.net_latency_ns);
        snap.counter("simx.barriers", self.barriers);
        snap.counter("simx.speculation.exclusive_grants", self.exclusive_grants);
        snap.counter(
            "simx.speculation.voluntary_replacements",
            self.voluntary_replacements,
        );
        snap.counter("simx.msg.total", self.messages_total());
        for (t, c) in &self.messages {
            snap.counter(&format!("simx.msg.sent.{}", t.paper_name()), *c);
        }
    }
}

impl fmt::Display for MachineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} accesses ({} reads, {} writes), hit rate {:.1}%, latency ns mean {:.0} p50 {} p95 {} max {}",
            self.accesses(),
            self.reads,
            self.writes,
            100.0 * self.hit_rate(),
            self.mean_latency_ns(),
            self.latency_ns.p50(),
            self.latency_ns.p95(),
            self.latency_ns.max(),
        )?;
        writeln!(
            f,
            "{} messages, {} barriers",
            self.messages_total(),
            self.barriers
        )?;
        for (t, c) in &self.messages {
            writeln!(f, "  {:<20} {:>10}", t.paper_name(), c)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_on_empty_stats_are_zero() {
        let s = MachineStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mean_latency_ns(), 0.0);
        assert_eq!(s.messages_total(), 0);
    }

    #[test]
    fn speculation_counters_default_to_zero() {
        let s = MachineStats::default();
        assert_eq!(s.exclusive_grants, 0);
        assert_eq!(s.voluntary_replacements, 0);
    }

    #[test]
    fn counting_accumulates() {
        let mut s = MachineStats::default();
        s.count_access(ProcOp::Read, true, 1);
        s.count_access(ProcOp::Write, false, 999);
        s.count_message(MsgType::GetRwRequest);
        s.count_message(MsgType::GetRwRequest);
        assert_eq!(s.accesses(), 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.latency_ns.sum(), 1000);
        assert_eq!(s.mean_latency_ns(), 500.0);
        assert_eq!(s.latency_ns.max(), 999);
        assert_eq!(s.messages[&MsgType::GetRwRequest], 2);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn export_names_span_the_simx_prefix() {
        let mut s = MachineStats::default();
        s.count_access(ProcOp::Read, false, 120);
        s.count_message(MsgType::GetRoRequest);
        let mut snap = obs::Snapshot::new();
        s.export_obs(&mut snap);
        assert!(snap.names().iter().all(|n| n.starts_with("simx.")));
        assert_eq!(
            snap.get("simx.msg.sent.get_ro_request"),
            Some(&obs::MetricValue::Counter(1))
        );
        assert!(matches!(
            snap.get("simx.access.latency_ns"),
            Some(obs::MetricValue::Histogram(h)) if h.count() == 1
        ));
    }
}
