//! System (timing) configuration — the paper's Table 3.

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
    /// Main memory access time in ns (Table 3: 120 ns).
    pub mem_access_ns: u64,
    /// One-way network wire latency in ns (Table 3: 40 ns).
    pub network_latency_ns: u64,
    /// Network-interface access time in ns (Table 3: 60 ns).
    pub ni_access_ns: u64,
    /// Protocol-handler occupancy in ns per message handled. Stache runs
    /// its handlers in software (§2.1/§5.1), so this dominates remote-miss
    /// latency; 100 ns ≈ a hundred 1 GHz instructions.
    pub handler_ns: u64,
    /// Cache hit time in ns.
    pub cache_hit_ns: u64,
    /// Barrier cost in ns added when all processors synchronise.
    pub barrier_ns: u64,
}

impl SystemConfig {
    /// The paper's Table 3 machine.
    pub fn paper() -> Self {
        SystemConfig {
            mem_access_ns: 120,
            network_latency_ns: 40,
            ni_access_ns: 60,
            handler_ns: 100,
            cache_hit_ns: 1,
            barrier_ns: 500,
        }
    }

    /// One-way message time between any two nodes: source NI + wire +
    /// destination NI.
    pub fn one_way_ns(&self) -> u64 {
        self.ni_access_ns + self.network_latency_ns + self.ni_access_ns
    }

    /// Variant with a different wire latency (for the sensitivity sweep).
    pub fn with_network_latency(mut self, latency_ns: u64) -> Self {
        self.network_latency_ns = latency_ns;
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_three() {
        let c = SystemConfig::paper();
        assert_eq!(c.mem_access_ns, 120);
        assert_eq!(c.network_latency_ns, 40);
        assert_eq!(c.ni_access_ns, 60);
    }

    #[test]
    fn one_way_combines_ni_and_wire() {
        let c = SystemConfig::paper();
        assert_eq!(c.one_way_ns(), 160);
        assert_eq!(c.with_network_latency(1000).one_way_ns(), 1120);
    }
}
