//! System (timing) configuration — the paper's Table 3.

use crate::network::Topology;

/// Timing and sizing parameters of the simulated machine.
///
/// Defaults reproduce the paper's Table 3. The paper notes that Cosmos'
/// prediction accuracy is largely insensitive to network latency (changing
/// 40 ns to 1 µs "hardly changes" the rates); the sensitivity harness
/// sweeps [`SystemConfig::network_latency_ns`] to reproduce that claim.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Processor clock in GHz (Table 3: 1 GHz).
    pub processor_ghz: f64,
    /// Cache size in bytes (Table 3: 1 MiB).
    pub cache_size: usize,
    /// Main memory access time in ns (Table 3: 120 ns).
    pub mem_access_ns: u64,
    /// Network message size in bytes (Table 3: 256 B).
    pub network_msg_bytes: usize,
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
    /// Network topology; the wire latency is paid once per hop.
    pub topology: Topology,
}

impl SystemConfig {
    /// The paper's Table 3 machine.
    pub fn paper() -> Self {
        SystemConfig {
            processor_ghz: 1.0,
            cache_size: 1 << 20,
            mem_access_ns: 120,
            network_msg_bytes: 256,
            network_latency_ns: 40,
            ni_access_ns: 60,
            handler_ns: 100,
            cache_hit_ns: 1,
            barrier_ns: 500,
            topology: Topology::Crossbar,
        }
    }

    /// One-way message time for a single hop: source NI + wire +
    /// destination NI. For topology-aware distances use
    /// [`one_way_between_ns`](SystemConfig::one_way_between_ns).
    pub fn one_way_ns(&self) -> u64 {
        self.ni_access_ns + self.network_latency_ns + self.ni_access_ns
    }

    /// One-way message time between two nodes under the configured
    /// topology: the NIs are paid once, the wire once per hop.
    pub fn one_way_between_ns(
        &self,
        from: stache::NodeId,
        to: stache::NodeId,
        nodes: usize,
    ) -> u64 {
        let hops = self.topology.hops(from, to, nodes).max(1);
        2 * self.ni_access_ns + hops * self.network_latency_ns
    }

    /// Variant with a different topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
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
        assert_eq!(c.network_msg_bytes, 256);
        assert_eq!(c.cache_size, 1048576);
    }

    #[test]
    fn one_way_combines_ni_and_wire() {
        let c = SystemConfig::paper();
        assert_eq!(c.one_way_ns(), 160);
        assert_eq!(c.with_network_latency(1000).one_way_ns(), 1120);
    }
}
