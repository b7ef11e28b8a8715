//! Protocol configuration.

/// Static configuration of the Stache protocol instance.
///
/// Defaults follow the paper: 16 nodes (Table 3). Blocks are always 64
/// bytes (Table 3) and pages 4 KiB, so a page holds
/// [`blocks_per_page`](Self::blocks_per_page) blocks. The directory is
/// always the paper's full-map, half-migratory one (§5.1); nothing here
/// selects another protocol.
///
/// ```
/// use stache::ProtocolConfig;
/// let cfg = ProtocolConfig::default();
/// assert_eq!(cfg.nodes, 16);
/// assert_eq!(cfg.blocks_per_page(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Number of single-processor nodes.
    pub nodes: usize,
}

impl ProtocolConfig {
    /// Configuration matching the paper's Table 3 machine.
    pub fn paper() -> Self {
        ProtocolConfig { nodes: 16 }
    }

    /// Blocks per page, the divisor used for home placement: 4 KiB pages
    /// of 64-byte blocks.
    #[inline]
    pub fn blocks_per_page(&self) -> u64 {
        64
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_three() {
        let cfg = ProtocolConfig::paper();
        assert_eq!(cfg.nodes, 16);
        assert_eq!(cfg.blocks_per_page(), 64);
    }
}
