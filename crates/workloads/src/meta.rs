//! Benchmark metadata — the paper's Table 4.

/// A row of Table 4: what each benchmark is and how it is sized here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkMeta {
    /// Benchmark name.
    pub name: &'static str,
    /// One-line description (paper §5.2).
    pub description: &'static str,
    /// Origin noted in the paper's Table 4 caption.
    pub origin: &'static str,
    /// The dominant sharing patterns §6.1 attributes to it.
    pub patterns: &'static str,
    /// Default iterations in this reproduction's evaluation runs.
    pub iterations: u32,
}

/// Table 4, in the paper's row order.
pub fn table4() -> Vec<BenchmarkMeta> {
    vec![
        BenchmarkMeta {
            name: "appbt",
            description: "3D computational fluid dynamics; 3D arrays split into per-processor sub-blocks, boundary sharing with neighbours",
            origin: "NAS / NASA Ames, parallelised at Wisconsin",
            patterns: "producer-consumer (1 consumer); false sharing on two structures",
            iterations: 60,
        },
        BenchmarkMeta {
            name: "barnes",
            description: "Barnes-Hut hierarchical N-body; octree rebuilt and traversed per body each iteration",
            origin: "Stanford SPLASH-2",
            patterns: "irregular; logical patterns stable but octree addresses reassigned every iteration",
            iterations: 40,
        },
        BenchmarkMeta {
            name: "dsmc",
            description: "discrete simulation Monte Carlo of gas particles in a Cartesian cell grid; particles migrate between cells via shared buffers",
            origin: "Universities of Maryland and Wisconsin",
            patterns: "producer-consumer buffer handoffs (producer writes without reading); slow-stabilising contended buffers; rarely-touched cells",
            iterations: 400,
        },
        BenchmarkMeta {
            name: "moldyn",
            description: "molecular dynamics (CHARMM-like non-bonded force calculation); force array reduced in critical sections, coordinates broadcast",
            origin: "Universities of Maryland and Wisconsin",
            patterns: "migratory (force array) + producer-consumer with mean 4.9 consumers (coordinates); interaction list rebuilt every 20 iterations",
            iterations: 60,
        },
        BenchmarkMeta {
            name: "unstructured",
            description: "CFD over a static unstructured mesh partitioned by recursive coordinate bisection; loops over nodes, edges, faces",
            origin: "Universities of Maryland and Wisconsin",
            patterns: "oscillates per phase between migratory and producer-consumer (producer also consumes; mean 2.6 consumers)",
            iterations: 50,
        },
    ]
}

/// Looks a benchmark up by name.
pub fn by_name(name: &str) -> Option<BenchmarkMeta> {
    table4().into_iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_rows_in_paper_order() {
        let rows = table4();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].name, "appbt");
        assert_eq!(rows[4].name, "unstructured");
    }

    #[test]
    fn metadata_iterations_match_the_default_generators() {
        // Table 4's advertised sizes are the generators' actual defaults.
        use crate::paper_suite;
        for w in paper_suite() {
            let meta = by_name(w.name()).expect("metadata row exists");
            assert_eq!(
                meta.iterations,
                w.iterations(),
                "{}: Table 4 says {} iterations, generator runs {}",
                w.name(),
                meta.iterations,
                w.iterations()
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("dsmc").is_some());
        assert_eq!(by_name("dsmc").unwrap().iterations, 400);
        assert!(by_name("spice").is_none());
    }
}
