//! The `repro scale` target: sharded-engine node-count sweeps
//! (DESIGN.md §6h).
//!
//! Sweeps the streaming [`workloads::Scale`] generator over 64–1024
//! nodes × block-population sizes on the [`simx::ShardedMachine`].
//! Every reported column is simulation-deterministic (node count, block
//! population, accesses, messages, synchronisation windows, simulated
//! ns), and byte-identity of the sharded engine makes them independent
//! of the shard count, so `scale.csv` diffs cleanly against a golden on
//! any machine (`scale_small.csv` in CI). How fast the host gets there
//! is the pipeline benchmark's question (`benchmark/run.sh --workload
//! scale1024`), not this target's.

use crate::traces::Scale as RunScale;
use simx::SystemConfig;
use workloads::{run_sharded_streaming, Scale as ScaleWorkload};

/// One sweep cell: a machine size and a block-population shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleCell {
    /// Processors.
    pub nodes: usize,
    /// Fresh private blocks per node per iteration (the block-population
    /// knob: total blocks ≈ `nodes × iterations × (private + 1)`).
    pub private_per_node: usize,
    /// Iterations.
    pub iterations: u32,
}

/// A finished cell: the deterministic simulation outcome.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// The cell that ran.
    pub cell: ScaleCell,
    /// Distinct blocks the run touched.
    pub blocks: u64,
    /// Processor accesses executed.
    pub accesses: u64,
    /// Coherence messages delivered.
    pub msgs: u64,
    /// Conservative synchronisation windows executed (shard-count
    /// invariant: a property of the event timeline).
    pub windows: u64,
    /// Final simulated time in ns.
    pub exec_ns: u64,
}

/// The sweep grid. Paper scale covers the five node counts at two block
/// populations plus a millions-of-blocks flagship cell at 1024 nodes;
/// small is the two-cell CI smoke.
pub fn cells(scale: RunScale) -> Vec<ScaleCell> {
    match scale {
        RunScale::Small => [(64, 2, 3), (128, 2, 3)]
            .into_iter()
            .map(|(nodes, private_per_node, iterations)| ScaleCell {
                nodes,
                private_per_node,
                iterations,
            })
            .collect(),
        RunScale::Paper => {
            let mut grid: Vec<ScaleCell> = [64usize, 128, 256, 512, 1024]
                .into_iter()
                .flat_map(|nodes| {
                    [4usize, 16]
                        .into_iter()
                        .map(move |private_per_node| ScaleCell {
                            nodes,
                            private_per_node,
                            iterations: 48,
                        })
                })
                .collect();
            // The flagship: 1024 nodes, > 2M distinct blocks.
            grid.push(ScaleCell {
                nodes: 1024,
                private_per_node: 32,
                iterations: 64,
            });
            grid
        }
    }
}

/// Worker count for a cell on this machine: the available cores, never
/// more than one shard per 16 nodes (tiny shards synchronise more than
/// they simulate).
pub fn default_shards(nodes: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    cores.clamp(1, (nodes / 16).max(1))
}

/// Runs one cell on the sharded engine in streaming mode: each
/// iteration's records drained and dropped, barrier audits off, one
/// sampled coherence audit at the end.
pub fn run_cell(cell: ScaleCell, shards: usize) -> ScaleRow {
    let mut w = ScaleWorkload::new(cell.nodes, cell.private_per_node, cell.iterations);
    let proto = w.proto();
    let m = run_sharded_streaming(
        &mut w,
        proto,
        SystemConfig::paper(),
        shards,
        Some(4096),
        |m| m.set_audit_barriers(false),
        |_records| Ok::<(), std::convert::Infallible>(()),
    )
    .unwrap_or_else(|e| panic!("scale cell {cell:?} failed: {e}"));
    let stats = m.stats();
    ScaleRow {
        cell,
        blocks: w.total_blocks(),
        accesses: stats.accesses(),
        msgs: stats.messages_total(),
        windows: m.windows(),
        exec_ns: m.execution_time_ns(),
    }
}

/// Runs the whole sweep, narrating progress to stderr.
pub fn sweep(scale: RunScale) -> Vec<ScaleRow> {
    cells(scale)
        .into_iter()
        .map(|cell| {
            let shards = default_shards(cell.nodes);
            eprintln!(
                "  scale: {} nodes, {} blocks/node/iter x {} iters, {} shard(s)...",
                cell.nodes, cell.private_per_node, cell.iterations, shards
            );
            run_cell(cell, shards)
        })
        .collect()
}

/// Renders the sweep as a report table.
pub fn render_scale(rows: &[ScaleRow]) -> String {
    let mut out = String::new();
    out.push_str("Sharded-engine scale sweep (streaming workload)\n");
    out.push_str(
        "  nodes  blk/nd/it  iters     blocks   accesses       msgs  windows      sim_us\n",
    );
    for r in rows {
        out.push_str(&format!(
            "  {:>5}  {:>9}  {:>5}  {:>9}  {:>9}  {:>9}  {:>7}  {:>10.1}\n",
            r.cell.nodes,
            r.cell.private_per_node,
            r.cell.iterations,
            r.blocks,
            r.accesses,
            r.msgs,
            r.windows,
            r.exec_ns as f64 / 1e3,
        ));
    }
    out
}

/// The CSV artefact: simulation-defined columns only, so the small-scale
/// output is golden-diffable on any machine.
pub fn csv_scale(rows: &[ScaleRow]) -> String {
    let mut out =
        String::from("nodes,private_per_node,iterations,blocks,accesses,msgs,windows,exec_ns\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.cell.nodes,
            r.cell.private_per_node,
            r.cell.iterations,
            r.blocks,
            r.accesses,
            r.msgs,
            r.windows,
            r.exec_ns,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_deterministic_and_csv_stable() {
        let a = sweep(RunScale::Small);
        let b = sweep(RunScale::Small);
        assert_eq!(
            csv_scale(&a),
            csv_scale(&b),
            "CSV columns must be machine-deterministic"
        );
        assert_eq!(a.len(), 2);
        for r in &a {
            assert!(r.msgs > 0, "scale cells must generate coherence traffic");
            assert!(r.windows > 0);
            // The analytic access count: (private + handoff + migratory)
            // per node per iteration, plus ring reads after iteration 0.
            let c = r.cell;
            let expected = c.nodes as u64 * c.iterations as u64 * (c.private_per_node as u64 + 2)
                + c.nodes as u64 * (c.iterations as u64 - 1);
            assert_eq!(r.accesses, expected);
        }
    }
}
