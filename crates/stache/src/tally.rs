//! Per-state-transition tallies for the protocol FSMs.
//!
//! The state machines in this crate are pure functions, so they cannot
//! count their own invocations; a [`ProtocolTally`] is the mutable
//! companion a driver (the `simx` machine) holds to record every
//! transition it applies, plus how often the coherence invariants were
//! checked and how often they failed. The tally exports into an
//! [`obs::Snapshot`] under the `stache.` prefix.
//!
//! Counting is on every state write of every engine, so a transition is
//! one add into a `[from][to]` array indexed by state; the state *names*
//! appear only at export (where the snapshot sorts the metric paths).

use crate::cache::CacheState;
use crate::directory::DirState;
use std::cell::Cell;

/// The [`CacheState::short_name`]s, at the index of the discriminant.
const CACHE_NAMES: [&str; 6] = [
    "invalid",
    "shared",
    "exclusive",
    "i_to_s",
    "i_to_e",
    "s_to_e",
];

/// The [`DirState::kind_name`]s, at the index [`dir_kind`] gives them.
const DIR_KINDS: [&str; 3] = ["idle", "shared", "exclusive"];

/// `state`'s row and column in the directory table.
fn dir_kind(state: &DirState) -> usize {
    match state {
        DirState::Idle => 0,
        DirState::Shared(_) => 1,
        DirState::Exclusive(_) => 2,
    }
}

/// Counts of applied FSM transitions and invariant checks.
///
/// Transitions are exported under the lowercase state names
/// ([`CacheState::short_name`], [`DirState::kind_name`]); self-loops
/// (state unchanged) are counted too, since a re-grant to the same state
/// is still protocol work. Invariant counters are `Cell`s so the
/// `&self` verification paths can count without threading `&mut`.
#[derive(Debug, Clone, Default)]
pub struct ProtocolTally {
    /// `[from][to]`, each indexed by the state's discriminant.
    cache: [[u64; 6]; 6],
    /// `[from][to]`, each indexed by [`dir_kind`].
    dir: [[u64; 3]; 3],
    invariant_checks: Cell<u64>,
    invariant_failures: Cell<u64>,
}

impl ProtocolTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        ProtocolTally::default()
    }

    /// Records one applied cache-side transition.
    #[inline]
    pub fn cache_transition(&mut self, from: CacheState, to: CacheState) {
        self.cache[from as usize][to as usize] += 1;
    }

    /// Records one applied directory-side transition (by state kind).
    #[inline]
    pub fn dir_transition(&mut self, from: &DirState, to: &DirState) {
        self.dir[dir_kind(from)][dir_kind(to)] += 1;
    }

    /// Records one invariant check.
    #[inline]
    pub fn count_invariant_check(&self) {
        self.invariant_checks.set(self.invariant_checks.get() + 1);
    }

    /// Records one invariant failure.
    #[inline]
    pub fn count_invariant_failure(&self) {
        self.invariant_failures
            .set(self.invariant_failures.get() + 1);
    }

    /// Invariant checks recorded.
    pub fn invariant_checks(&self) -> u64 {
        self.invariant_checks.get()
    }

    /// Invariant failures recorded.
    pub fn invariant_failures(&self) -> u64 {
        self.invariant_failures.get()
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &ProtocolTally) {
        let sum = |mine: &mut [u64], theirs: &[u64]| {
            mine.iter_mut().zip(theirs).for_each(|(m, t)| *m += t);
        };
        sum(self.cache.as_flattened_mut(), other.cache.as_flattened());
        sum(self.dir.as_flattened_mut(), other.dir.as_flattened());
        self.invariant_checks
            .set(self.invariant_checks.get() + other.invariant_checks.get());
        self.invariant_failures
            .set(self.invariant_failures.get() + other.invariant_failures.get());
    }

    /// Exports into a metrics snapshot under the `stache.` prefix:
    /// `stache.cache.transition.<from>.<to>`,
    /// `stache.dir.transition.<from>.<to>` (for the transitions that
    /// occurred), and `stache.invariant.{checks,failures}`.
    pub fn export_obs(&self, snap: &mut obs::Snapshot) {
        let mut export = |side: &str, names: &[&str], counts: &[u64]| {
            for (i, &v) in counts.iter().enumerate().filter(|(_, v)| **v > 0) {
                let (from, to) = (names[i / names.len()], names[i % names.len()]);
                snap.counter(&format!("stache.{side}.transition.{from}.{to}"), v);
            }
        };
        export("cache", &CACHE_NAMES, self.cache.as_flattened());
        export("dir", &DIR_KINDS, self.dir.as_flattened());
        snap.counter("stache.invariant.checks", self.invariant_checks.get());
        snap.counter("stache.invariant.failures", self.invariant_failures.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, NodeSet};

    /// Every transition a table has recorded.
    fn total<const N: usize>(table: &[[u64; N]]) -> u64 {
        table.as_flattened().iter().sum()
    }

    #[test]
    fn transitions_accumulate_by_state_pair() {
        let mut t = ProtocolTally::new();
        t.cache_transition(CacheState::Invalid, CacheState::IToS);
        t.cache_transition(CacheState::Invalid, CacheState::IToS);
        t.cache_transition(CacheState::IToS, CacheState::Shared);
        t.dir_transition(&DirState::Idle, &DirState::Exclusive(NodeId::new(1)));
        assert_eq!(total(&t.cache), 3);
        assert_eq!(total(&t.dir), 1);
        let mut snap = obs::Snapshot::new();
        t.export_obs(&mut snap);
        assert_eq!(
            snap.get("stache.cache.transition.invalid.i_to_s"),
            Some(&obs::MetricValue::Counter(2))
        );
        assert_eq!(
            snap.get("stache.dir.transition.idle.exclusive"),
            Some(&obs::MetricValue::Counter(1))
        );
    }

    /// The arrays are indexed by state and named only at export: every
    /// transition must come out under the names the states give
    /// themselves, exactly once.
    #[test]
    fn every_transition_exports_under_its_states_own_names() {
        let dirs = [
            DirState::Idle,
            DirState::Shared(NodeSet::singleton(NodeId::new(2))),
            DirState::Exclusive(NodeId::new(2)),
        ];
        let mut t = ProtocolTally::new();
        let mut want = Vec::new();
        let mut count = 0;
        let states = [
            CacheState::Invalid,
            CacheState::Shared,
            CacheState::Exclusive,
            CacheState::IToS,
            CacheState::IToE,
            CacheState::SToE,
        ];
        for from in states {
            for to in states {
                count += 1;
                (0..count).for_each(|_| t.cache_transition(from, to));
                let (from, to) = (from.short_name(), to.short_name());
                want.push((format!("stache.cache.transition.{from}.{to}"), count));
            }
        }
        for from in &dirs {
            for to in &dirs {
                count += 1;
                (0..count).for_each(|_| t.dir_transition(from, to));
                let (from, to) = (from.kind_name(), to.kind_name());
                want.push((format!("stache.dir.transition.{from}.{to}"), count));
            }
        }
        let mut snap = obs::Snapshot::new();
        t.export_obs(&mut snap);
        for (name, count) in &want {
            assert_eq!(snap.get(name), Some(&obs::MetricValue::Counter(*count)));
        }
        assert_eq!(
            snap.names().len(),
            want.len() + 2,
            "plus the two invariant counters"
        );
    }

    #[test]
    fn invariant_counters_work_through_shared_ref() {
        let t = ProtocolTally::new();
        t.count_invariant_check();
        t.count_invariant_check();
        t.count_invariant_failure();
        assert_eq!(t.invariant_checks(), 2);
        assert_eq!(t.invariant_failures(), 1);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = ProtocolTally::new();
        a.cache_transition(CacheState::Shared, CacheState::Invalid);
        a.count_invariant_check();
        let mut b = ProtocolTally::new();
        b.cache_transition(CacheState::Shared, CacheState::Invalid);
        b.dir_transition(
            &DirState::Shared(NodeSet::singleton(NodeId::new(0))),
            &DirState::Idle,
        );
        b.count_invariant_failure();
        a.merge(&b);
        assert_eq!(total(&a.cache), 2);
        assert_eq!(total(&a.dir), 1);
        assert_eq!(a.invariant_checks(), 1);
        assert_eq!(a.invariant_failures(), 1);
    }
}
