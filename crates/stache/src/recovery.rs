//! The protocol recovery layer: timeout/retry, NAKs, and idempotent
//! delivery.
//!
//! The base Stache protocol assumes a perfect fabric — every message is
//! delivered exactly once, so the state machines in [`crate::cache`] and
//! [`crate::directory`] have no retry arcs. When the simulator's network
//! can drop, duplicate, or reorder messages (simx's fault-injection
//! layer), three recovery mechanisms close the gap:
//!
//! * **sender-side timeout/retry** ([`RetryPolicy`]) — a requester that
//!   has not been granted within a timeout retransmits its request, with
//!   capped exponential backoff between attempts;
//! * **directory NAKs** — a request that hits a busy block is bounced
//!   back with a negative acknowledgment instead of queueing without
//!   bound; the requester re-sends after a backoff. NAKs are
//!   recovery-layer *control* traffic, not part of the paper's Table 1
//!   message vocabulary, and are therefore excluded from the predictor-
//!   visible trace (the same convention §5.1 applies to barrier
//!   messages);
//! * **sequence-numbered idempotent delivery** ([`DedupFilter`]) — every
//!   transmission carries a sequence number; receivers absorb duplicates
//!   (same sequence seen twice) so a duplicated network packet or a
//!   crossed retransmission cannot double-apply a state transition.
//!
//! Everything the layer does is tallied in a [`RecoveryTally`] and
//! exported under `stache.recovery.*`. The coherence outcome is still
//! audited by the unchanged SWMR/full-map invariant checks
//! ([`crate::invariants`]) — recovery must converge to the same stable
//! states the perfect fabric reaches.

use std::collections::BTreeSet;

/// Sender-side retransmission policy: capped exponential backoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Timeout before the first retransmission, in ns.
    pub base_timeout_ns: u64,
    /// Ceiling on the per-attempt timeout, in ns.
    pub max_timeout_ns: u64,
    /// Attempts after the original transmission before giving up.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // The paper's round trip is ~2·(60+60+40) + 100 ≈ 420 ns
        // (NI in/out on both ends, one wire hop each way, one handler);
        // 4 µs is comfortably past any legitimate reply, so a timeout
        // almost always means a genuine loss rather than a slow grant.
        RetryPolicy {
            base_timeout_ns: 4_000,
            max_timeout_ns: 64_000,
            max_retries: 16,
        }
    }
}

impl RetryPolicy {
    /// The timeout armed for transmission attempt `attempt` (0 = the
    /// original send): `base · 2^attempt`, capped at `max_timeout_ns`.
    pub fn timeout_for(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.base_timeout_ns
            .saturating_mul(factor)
            .min(self.max_timeout_ns)
    }

    /// Whether another retransmission is allowed after `attempt` tries.
    pub fn can_retry(&self, attempt: u32) -> bool {
        attempt < self.max_retries
    }
}

/// A receiver-side duplicate filter over transmission sequence numbers.
///
/// Senders number every transmission from a monotone per-machine counter;
/// a receiver observes each arriving sequence and absorbs any it has seen
/// before. The seen-set is compacted to a low-water mark so memory stays
/// bounded no matter how long the run is: sequences below `low` are, by
/// construction, already seen.
#[derive(Debug, Clone, Default)]
pub struct DedupFilter {
    low: u64,
    seen: BTreeSet<u64>,
}

impl DedupFilter {
    /// Creates an empty filter.
    pub fn new() -> Self {
        DedupFilter::default()
    }

    /// Observes one arriving sequence number. Returns `true` when the
    /// sequence is fresh (deliver the message) and `false` when it is a
    /// duplicate (absorb it).
    pub fn observe(&mut self, seq: u64) -> bool {
        if seq < self.low || !self.seen.insert(seq) {
            return false;
        }
        // Advance the low-water mark over any now-contiguous prefix.
        while self.seen.remove(&self.low) {
            self.low += 1;
        }
        true
    }

    /// Sequences retained out-of-order (bounded by the network's reorder
    /// window; 0 once delivery has caught up).
    pub fn pending(&self) -> usize {
        self.seen.len()
    }

    /// The lowest sequence number not yet known to be delivered.
    pub fn low_watermark(&self) -> u64 {
        self.low
    }
}

/// Counters and latency for everything the recovery layer did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryTally {
    /// Request timeouts that fired (each is followed by a retransmission
    /// unless the retry budget was exhausted).
    pub timeouts: u64,
    /// Requests retransmitted by their sender.
    pub retries: u64,
    /// NAKs sent by directories for requests hitting a busy block.
    pub naks_sent: u64,
    /// NAKs received by caches (and turned into backoff + re-send).
    pub naks_received: u64,
    /// Duplicate transmissions absorbed by [`DedupFilter`]s.
    pub dups_absorbed: u64,
    /// Grants re-sent by a directory for a retransmitted request whose
    /// original grant was lost (the requester was already recorded as a
    /// holder — without the recovery layer this is a protocol error).
    pub regrants: u64,
    /// Stale grants absorbed by caches already in a stable state (the
    /// retransmission raced the original grant).
    pub stale_grants_absorbed: u64,
    /// End-to-end latency of accesses that needed at least one recovery
    /// action (timeout, NAK, or retransmission), in ns.
    pub recovery_latency_ns: obs::Histogram,
}

impl RecoveryTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        RecoveryTally::default()
    }

    /// Whether any recovery action was taken at all.
    pub fn is_quiet(&self) -> bool {
        self.timeouts == 0
            && self.retries == 0
            && self.naks_sent == 0
            && self.naks_received == 0
            && self.dups_absorbed == 0
            && self.regrants == 0
            && self.stale_grants_absorbed == 0
            && self.recovery_latency_ns.count() == 0
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &RecoveryTally) {
        self.timeouts = self.timeouts.saturating_add(other.timeouts);
        self.retries = self.retries.saturating_add(other.retries);
        self.naks_sent = self.naks_sent.saturating_add(other.naks_sent);
        self.naks_received = self.naks_received.saturating_add(other.naks_received);
        self.dups_absorbed = self.dups_absorbed.saturating_add(other.dups_absorbed);
        self.regrants = self.regrants.saturating_add(other.regrants);
        self.stale_grants_absorbed = self
            .stale_grants_absorbed
            .saturating_add(other.stale_grants_absorbed);
        self.recovery_latency_ns.merge(&other.recovery_latency_ns);
    }

    /// Exports the tally under `stache.recovery.*`.
    pub fn export_obs(&self, snap: &mut obs::Snapshot) {
        snap.counter("stache.recovery.timeouts", self.timeouts);
        snap.counter("stache.recovery.retries", self.retries);
        snap.counter("stache.recovery.naks_sent", self.naks_sent);
        snap.counter("stache.recovery.naks_received", self.naks_received);
        snap.counter("stache.recovery.dups_absorbed", self.dups_absorbed);
        snap.counter("stache.recovery.regrants", self.regrants);
        snap.counter(
            "stache.recovery.stale_grants_absorbed",
            self.stale_grants_absorbed,
        );
        snap.histogram(
            "stache.recovery.recovery_latency_ns",
            &self.recovery_latency_ns,
        );
    }
}

/// Counters for everything the *speculation* layer did: predictions
/// turned into protocol actions, and how each bet resolved.
///
/// Speculative pushes are the only speculative action that can be
/// "wrong" at delivery time (the target may have acquired the block
/// through a demand miss while the push was in flight); a rejected push
/// is NAK'd by the target and the directory rolls its entry back, so
/// `pushes == confirmed + rolled_back` once the fabric is quiescent.
/// Early acks and self-invalidations are always safe — a wrong bet only
/// costs the speculating cache a fresh miss.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RollbackTally {
    /// Speculative pushes (unsolicited grants) sent by a directory to a
    /// predicted next reader or writer.
    pub pushes: u64,
    /// Pushes accepted by the target cache (the bet paid off).
    pub confirmed: u64,
    /// Pushes rejected by the target and rolled back at the directory
    /// (the bet lost; the protocol state is as if nothing happened).
    pub rolled_back: u64,
    /// Early invalidation acknowledgments: shared copies voluntarily
    /// dropped ahead of a predicted invalidation.
    pub early_acks: u64,
}

impl RollbackTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        RollbackTally::default()
    }

    /// Whether any speculative action was taken at all.
    pub fn is_quiet(&self) -> bool {
        self.pushes == 0 && self.confirmed == 0 && self.rolled_back == 0 && self.early_acks == 0
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &RollbackTally) {
        self.pushes = self.pushes.saturating_add(other.pushes);
        self.confirmed = self.confirmed.saturating_add(other.confirmed);
        self.rolled_back = self.rolled_back.saturating_add(other.rolled_back);
        self.early_acks = self.early_acks.saturating_add(other.early_acks);
    }

    /// Exports the tally under `stache.rollback.*`.
    pub fn export_obs(&self, snap: &mut obs::Snapshot) {
        snap.counter("stache.rollback.pushes", self.pushes);
        snap.counter("stache.rollback.confirmed", self.confirmed);
        snap.counter("stache.rollback.rolled_back", self.rolled_back);
        snap.counter("stache.rollback.early_acks", self.early_acks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_tally_merges_and_exports() {
        let mut a = RollbackTally::new();
        assert!(a.is_quiet());
        a.pushes = 3;
        a.confirmed = 2;
        a.rolled_back = 1;
        let mut b = RollbackTally::new();
        b.early_acks = u64::MAX;
        b.merge(&a);
        assert_eq!(b.pushes, 3);
        assert_eq!(b.confirmed, 2);
        assert_eq!(b.rolled_back, 1);
        assert_eq!(b.early_acks, u64::MAX, "saturating merge");
        assert!(!b.is_quiet());

        let mut snap = obs::Snapshot::new();
        b.export_obs(&mut snap);
        assert!(snap
            .names()
            .iter()
            .all(|n| n.starts_with("stache.rollback.")));
        assert!(matches!(
            snap.get("stache.rollback.pushes"),
            Some(obs::MetricValue::Counter(3))
        ));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base_timeout_ns: 1_000,
            max_timeout_ns: 8_000,
            max_retries: 5,
        };
        assert_eq!(p.timeout_for(0), 1_000);
        assert_eq!(p.timeout_for(1), 2_000);
        assert_eq!(p.timeout_for(2), 4_000);
        assert_eq!(p.timeout_for(3), 8_000);
        assert_eq!(p.timeout_for(4), 8_000, "capped");
        assert_eq!(p.timeout_for(200), 8_000, "huge attempts stay capped");
        assert!(p.can_retry(4));
        assert!(!p.can_retry(5));
    }

    #[test]
    fn default_policy_outlasts_a_paper_round_trip() {
        let p = RetryPolicy::default();
        // One remote transaction with a full invalidation round trip is
        // well under 4 µs on the Table 3 machine; the base timeout must
        // not fire on a healthy fabric.
        assert!(p.base_timeout_ns >= 2_000);
        assert!(p.max_timeout_ns >= p.base_timeout_ns);
        assert!(p.max_retries >= 8);
    }

    #[test]
    fn dedup_filter_absorbs_duplicates_and_reorders() {
        let mut f = DedupFilter::new();
        assert!(f.observe(0));
        assert!(!f.observe(0), "exact duplicate absorbed");
        assert!(f.observe(2), "reordered ahead of 1");
        assert!(f.observe(1));
        assert!(!f.observe(1), "duplicate behind the watermark absorbed");
        assert!(!f.observe(2));
        assert_eq!(f.low_watermark(), 3);
        assert_eq!(f.pending(), 0, "contiguous prefix compacted");
    }

    #[test]
    fn dedup_filter_memory_stays_bounded_in_order() {
        let mut f = DedupFilter::new();
        for seq in 0..100_000u64 {
            assert!(f.observe(seq));
        }
        assert_eq!(f.pending(), 0);
        assert_eq!(f.low_watermark(), 100_000);
    }

    #[test]
    fn retry_budget_is_exhausted_exactly_at_max_retries() {
        let p = RetryPolicy {
            base_timeout_ns: 100,
            max_timeout_ns: 400,
            max_retries: 3,
        };
        // Attempt numbering: 0 is the original send; retries are allowed
        // strictly below max_retries, so the last permitted retransmission
        // is attempt max_retries - 1 and the caller gives up at max_retries.
        assert!(p.can_retry(0));
        assert!(p.can_retry(2));
        assert!(!p.can_retry(3), "boundary: attempt == max_retries");
        assert!(!p.can_retry(u32::MAX), "far past the budget");
        let zero = RetryPolicy {
            max_retries: 0,
            ..p.clone()
        };
        assert!(!zero.can_retry(0), "a zero budget permits no retries");
    }

    #[test]
    fn backoff_saturates_past_the_shift_width() {
        // 2^attempt overflows u64 for attempt >= 64: checked_shl must fall
        // back to u64::MAX, and the saturating multiply must still land on
        // the cap instead of wrapping to a tiny timeout.
        let p = RetryPolicy {
            base_timeout_ns: 3,
            max_timeout_ns: 1_000_000,
            max_retries: u32::MAX,
        };
        assert_eq!(p.timeout_for(63), 1_000_000, "last in-range shift, capped");
        assert_eq!(p.timeout_for(64), 1_000_000, "shift width boundary");
        assert_eq!(p.timeout_for(u32::MAX), 1_000_000);
        // With a cap above every representable product the multiply itself
        // must saturate rather than wrap.
        let wide = RetryPolicy {
            base_timeout_ns: u64::MAX / 2,
            max_timeout_ns: u64::MAX,
            max_retries: u32::MAX,
        };
        assert_eq!(wide.timeout_for(2), u64::MAX);
        assert_eq!(wide.timeout_for(100), u64::MAX);
    }

    #[test]
    fn dedup_filter_absorbs_duplicates_after_compaction() {
        // The "duplicate after ack" shape: the original delivery was
        // observed, the watermark compacted past it, and a crossed
        // retransmission of the same sequence arrives much later.
        let mut f = DedupFilter::new();
        for seq in 0..10u64 {
            assert!(f.observe(seq));
        }
        assert_eq!(f.low_watermark(), 10);
        assert_eq!(f.pending(), 0, "prefix fully compacted");
        for seq in 0..10u64 {
            assert!(!f.observe(seq), "seq {seq} is behind the watermark");
        }
        assert_eq!(f.low_watermark(), 10, "stale arrivals never move it");
    }

    #[test]
    fn dedup_filter_handles_the_top_of_the_sequence_space() {
        // Sequence numbers are u64 and never wrap in practice (a sender
        // would need 2^64 transmissions); the filter must still behave at
        // the very top of the space rather than overflow.
        let mut f = DedupFilter::new();
        assert!(f.observe(u64::MAX));
        assert!(!f.observe(u64::MAX), "duplicate at the top absorbed");
        assert!(f.observe(u64::MAX - 1));
        assert!(!f.observe(u64::MAX - 1));
        // Nothing contiguous from 0 arrived, so the watermark cannot
        // advance and both live in the out-of-order set.
        assert_eq!(f.low_watermark(), 0);
        assert_eq!(f.pending(), 2);
        // In-order traffic still flows underneath.
        assert!(f.observe(0));
        assert_eq!(f.low_watermark(), 1);
        assert_eq!(f.pending(), 2);
    }

    #[test]
    fn tally_merges_and_exports() {
        let mut a = RecoveryTally::new();
        assert!(a.is_quiet());
        a.retries = 3;
        a.naks_sent = 2;
        a.recovery_latency_ns.record(500);
        let mut b = RecoveryTally::new();
        b.retries = 1;
        b.dups_absorbed = u64::MAX;
        b.merge(&a);
        assert_eq!(b.retries, 4);
        assert_eq!(b.naks_sent, 2);
        assert_eq!(b.dups_absorbed, u64::MAX, "saturating merge");
        assert!(!b.is_quiet());

        let mut snap = obs::Snapshot::new();
        b.export_obs(&mut snap);
        assert!(snap
            .names()
            .iter()
            .all(|n| n.starts_with("stache.recovery.")));
        assert!(matches!(
            snap.get("stache.recovery.retries"),
            Some(obs::MetricValue::Counter(4))
        ));
    }
}
