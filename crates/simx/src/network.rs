//! Network topology models.
//!
//! The paper's Table 3 gives a single 40 ns network latency; its §5 notes
//! that prediction accuracy is insensitive to that number. This module
//! generalises the flat latency to distance-aware topologies so the
//! insensitivity claim can be tested against *structured* latency too:
//! in a mesh, the same producer-consumer pair always pays the same hop
//! count, so per-block message orders — the thing Cosmos learns — remain
//! stable even though absolute times shift.

use stache::NodeId;

/// How nodes are wired together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Topology {
    /// Full crossbar: every pair is one hop apart (the paper's model).
    #[default]
    Crossbar,
    /// A 2D mesh with the given number of columns; hop count is the
    /// Manhattan distance.
    Mesh2D {
        /// Columns in the mesh (rows follow from the node count).
        cols: usize,
    },
    /// A bidirectional ring; hop count is the shorter way around.
    Ring,
}

impl Topology {
    /// Network hops between two distinct nodes.
    ///
    /// # Panics
    ///
    /// Panics for a `Mesh2D` with zero columns.
    pub fn hops(&self, from: NodeId, to: NodeId, nodes: usize) -> u64 {
        if from == to {
            return 0;
        }
        match *self {
            Topology::Crossbar => 1,
            Topology::Mesh2D { cols } => {
                assert!(cols > 0, "a mesh needs at least one column");
                let (fr, fc) = (from.index() / cols, from.index() % cols);
                let (tr, tc) = (to.index() / cols, to.index() % cols);
                (fr.abs_diff(tr) + fc.abs_diff(tc)) as u64
            }
            Topology::Ring => {
                let d = from.index().abs_diff(to.index());
                d.min(nodes - d) as u64
            }
        }
    }

    /// Parses a topology spec: `crossbar`, `ring`, or `mesh:<cols>`
    /// (e.g. `mesh:4`). Used by CLI surfaces (the `simcheck` target's
    /// topology sweep) so specs live in one place.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names or a
    /// zero-column mesh.
    pub fn parse(spec: &str) -> Result<Topology, String> {
        match spec {
            "crossbar" => Ok(Topology::Crossbar),
            "ring" => Ok(Topology::Ring),
            _ => match spec.strip_prefix("mesh:") {
                Some(cols) => match cols.parse::<usize>() {
                    Ok(c) if c > 0 => Ok(Topology::Mesh2D { cols: c }),
                    Ok(_) => Err("mesh needs at least one column".to_string()),
                    Err(_) => Err(format!("`{cols}` is not a column count")),
                },
                None => Err(format!(
                    "unknown topology `{spec}`; one of: crossbar, ring, mesh:<cols>"
                )),
            },
        }
    }

    /// The largest hop count any pair pays (the network diameter).
    pub fn diameter(&self, nodes: usize) -> u64 {
        (0..nodes)
            .flat_map(|a| (0..nodes).map(move |b| (a, b)))
            .map(|(a, b)| self.hops(NodeId::new(a), NodeId::new(b), nodes))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn crossbar_is_always_one_hop() {
        let t = Topology::Crossbar;
        assert_eq!(t.hops(n(0), n(15), 16), 1);
        assert_eq!(t.hops(n(3), n(3), 16), 0);
        assert_eq!(t.diameter(16), 1);
    }

    #[test]
    fn mesh_uses_manhattan_distance() {
        let t = Topology::Mesh2D { cols: 4 };
        // 4x4 mesh: node 0 is (0,0), node 15 is (3,3).
        assert_eq!(t.hops(n(0), n(15), 16), 6);
        assert_eq!(t.hops(n(0), n(1), 16), 1);
        assert_eq!(t.hops(n(0), n(4), 16), 1);
        assert_eq!(t.hops(n(5), n(10), 16), 2);
        assert_eq!(t.diameter(16), 6);
    }

    #[test]
    fn ring_goes_the_short_way() {
        let t = Topology::Ring;
        assert_eq!(t.hops(n(0), n(1), 16), 1);
        assert_eq!(t.hops(n(0), n(15), 16), 1, "wraps around");
        assert_eq!(t.hops(n(0), n(8), 16), 8);
        assert_eq!(t.diameter(16), 8);
    }

    #[test]
    fn parse_round_trips_the_three_shapes() {
        assert_eq!(Topology::parse("crossbar"), Ok(Topology::Crossbar));
        assert_eq!(Topology::parse("ring"), Ok(Topology::Ring));
        assert_eq!(Topology::parse("mesh:4"), Ok(Topology::Mesh2D { cols: 4 }));
        assert!(Topology::parse("mesh:0").is_err());
        assert!(Topology::parse("mesh:four").is_err());
        assert!(Topology::parse("torus").unwrap_err().contains("unknown"));
    }

    #[test]
    fn hops_are_symmetric() {
        for t in [
            Topology::Crossbar,
            Topology::Mesh2D { cols: 4 },
            Topology::Ring,
        ] {
            for a in 0..16 {
                for b in 0..16 {
                    assert_eq!(t.hops(n(a), n(b), 16), t.hops(n(b), n(a), 16), "{t:?}");
                }
            }
        }
    }
}
