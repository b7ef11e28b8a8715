//! Protocol configuration.

/// Static configuration of the Stache protocol instance.
///
/// Defaults follow the paper: 16 nodes (Table 3), 64-byte blocks (Table 3),
/// 4 KiB pages, and the half-migratory optimisation enabled (§5.1).
///
/// ```
/// use stache::ProtocolConfig;
/// let cfg = ProtocolConfig::default();
/// assert_eq!(cfg.nodes, 16);
/// assert_eq!(cfg.blocks_per_page(), 64);
/// assert!(cfg.half_migratory);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Number of single-processor nodes.
    pub nodes: usize,
    /// Cache block size in bytes.
    pub block_size: usize,
    /// Page size in bytes (the unit of home placement).
    pub page_size: usize,
    /// Whether the directory uses the half-migratory optimisation: on a
    /// read or write miss to a block held exclusive elsewhere, the owner is
    /// asked to *invalidate* its copy rather than downgrade it to shared
    /// (paper §5.1). Disabling it makes the protocol DASH-like: read misses
    /// downgrade the owner instead.
    pub half_migratory: bool,
    /// Limited-pointer directory organisation (Dir_i B, in the vein of the
    /// LimitLESS work the paper cites in §3.7): `Some(i)` tracks at most
    /// `i` sharers precisely; once a block's sharer count exceeds `i` the
    /// entry *overflows*, and the next write must broadcast invalidations
    /// to every node (each acknowledges, cached copy or not). `None` is
    /// the paper's full-map directory.
    pub limited_pointers: Option<usize>,
}

impl ProtocolConfig {
    /// Configuration matching the paper's Table 3 machine.
    pub fn paper() -> Self {
        ProtocolConfig {
            nodes: 16,
            block_size: 64,
            page_size: 4096,
            half_migratory: true,
            limited_pointers: None,
        }
    }

    /// Blocks per page, the divisor used for home placement.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or does not divide `page_size`.
    pub fn blocks_per_page(&self) -> u64 {
        assert!(self.block_size > 0, "block_size must be nonzero");
        assert!(
            self.page_size.is_multiple_of(self.block_size),
            "page_size must be a multiple of block_size"
        );
        (self.page_size / self.block_size) as u64
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
        assert_eq!(cfg.block_size, 64);
        assert_eq!(cfg.page_size, 4096);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn misaligned_page_size_rejected() {
        let cfg = ProtocolConfig {
            block_size: 48,
            ..ProtocolConfig::paper()
        };
        let _ = cfg.blocks_per_page();
    }
}
