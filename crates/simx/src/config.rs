//! System (timing) configuration — the paper's Table 3.
//!
//! §5 fixes every Table 3 timing and varies only the network latency
//! (40 ns against 1 µs), so the fixed timings are constants and
//! [`SystemConfig`] holds the one that varies.

/// Main memory access time in ns (Table 3: 120 ns).
pub const MEM_ACCESS_NS: u64 = 120;
/// Network-interface access time in ns (Table 3: 60 ns).
pub const NI_ACCESS_NS: u64 = 60;
/// Protocol-handler occupancy in ns per message handled. Stache runs its
/// handlers in software (§2.1/§5.1), so this dominates remote-miss
/// latency; 100 ns ≈ a hundred 1 GHz instructions.
pub const HANDLER_NS: u64 = 100;
/// Cache hit time in ns.
pub const CACHE_HIT_NS: u64 = 1;
/// Barrier cost in ns added when all processors synchronise.
pub const BARRIER_NS: u64 = 500;

/// Timing parameters of the simulated machine.
///
/// Defaults reproduce the paper's Table 3: a single-latency crossbar, on
/// which every pair of nodes — and a node to itself — is one hop apart.
/// The paper notes that Cosmos' prediction accuracy is largely insensitive
/// to network latency (changing 40 ns to 1 µs "hardly changes" the rates);
/// the sensitivity harness sweeps [`SystemConfig::network_latency_ns`] to
/// reproduce that claim.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// One-way network wire latency in ns (Table 3: 40 ns).
    pub network_latency_ns: u64,
}

impl SystemConfig {
    /// The paper's Table 3 machine.
    pub fn paper() -> Self {
        SystemConfig {
            network_latency_ns: 40,
        }
    }

    /// One-way message time between any two nodes: source NI + wire +
    /// destination NI.
    pub fn one_way_ns(&self) -> u64 {
        NI_ACCESS_NS + self.network_latency_ns + NI_ACCESS_NS
    }

    /// Variant with a different wire latency (for the sensitivity sweep).
    pub fn with_network_latency(mut self, latency_ns: u64) -> Self {
        self.network_latency_ns = latency_ns;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_three() {
        assert_eq!(MEM_ACCESS_NS, 120);
        assert_eq!(SystemConfig::paper().network_latency_ns, 40);
        assert_eq!(NI_ACCESS_NS, 60);
    }

    #[test]
    fn one_way_combines_ni_and_wire() {
        let c = SystemConfig::paper();
        assert_eq!(c.one_way_ns(), 160);
        assert_eq!(c.with_network_latency(1000).one_way_ns(), 1120);
    }
}
