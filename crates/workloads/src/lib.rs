#![warn(missing_docs)]

//! # workloads — synthetic access-stream generators for the paper's five
//! benchmarks
//!
//! The paper traces five parallel scientific applications (Table 4):
//! **appbt**, **barnes**, **dsmc**, **moldyn**, and **unstructured**. The
//! original binaries and the Wisconsin Wind Tunnel II are unavailable, so
//! this crate generates memory-access streams that reproduce the *sharing
//! patterns* §5.2/§6.1 document for each application — the property that
//! determines Cosmos' behaviour. Each generator is parameterised and
//! seeded, so runs are deterministic and scalable.
//!
//! | Workload | Dominant patterns modelled |
//! |---|---|
//! | [`appbt`] | 3D-stencil producer-consumer (producer reads, writes; one consumer reads), false sharing on two structures |
//! | [`barnes`] | octree rebuilt each iteration — stable logical patterns at *reassigned* block addresses; irregular reader sets |
//! | [`dsmc`] | buffer handoffs (write-without-read producer), slowly-stabilising contended buffers, rarely-touched cells |
//! | [`moldyn`] | migratory force-array reduction + producer-consumer coordinates (mean 4.9 consumers), interaction list rebuilt every 20 iterations |
//! | [`unstructured`] | per-phase oscillation between migratory and producer-consumer (producer also consumes; mean 2.6 consumers) |
//!
//! The [`Workload`] trait yields one [`IterationPlan`] per iteration;
//! [`drive`] is the one loop that runs a plan stream through any of the
//! three [`simx::Engine`]s, and [`run_to_trace`] wraps it around a fresh
//! [`simx::Machine`] to return the coherence message trace Cosmos is
//! evaluated on.
//!
//! ## Example
//!
//! ```
//! use workloads::{micro::ProducerConsumer, run_to_trace, Workload};
//! use stache::ProtocolConfig;
//! use simx::SystemConfig;
//!
//! let mut w = ProducerConsumer::default();
//! let trace = run_to_trace(&mut w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap();
//! assert!(!trace.is_empty());
//! assert_eq!(trace.meta().app, "producer-consumer");
//! ```

pub mod appbt;
pub mod barnes;
pub mod dsmc;
pub mod meta;
pub mod micro;
pub mod moldyn;
pub mod rng;
pub mod scale;
pub mod unstructured;

use simx::{Engine, IterationPlan, Machine, ShardedMachine, SimError, SystemConfig};
use stache::ProtocolConfig;
use trace::TraceBundle;

pub use appbt::Appbt;
pub use barnes::Barnes;
pub use dsmc::Dsmc;
pub use moldyn::Moldyn;
pub use scale::Scale;
pub use unstructured::Unstructured;

/// A benchmark: a named, deterministic stream of per-iteration access plans.
///
/// `Send` so suites of boxed workloads can be generated on worker threads.
pub trait Workload: Send {
    /// The workload's name (trace metadata / table row label).
    fn name(&self) -> &'static str;

    /// Number of processors the workload is written for.
    fn nodes(&self) -> usize;

    /// Number of iterations a full run executes.
    fn iterations(&self) -> u32;

    /// Builds the access plan for one iteration. Implementations must be
    /// deterministic: calling `plan(i)` twice on identically-constructed
    /// workloads yields identical plans.
    fn plan(&mut self, iteration: u32) -> IterationPlan;
}

/// Appends a phase touching a slice of the workload's *quiet* blocks —
/// data referenced once in the whole run (array interiors, unshared mesh
/// nodes). Each quiet block gets a single read by a fixed remote node,
/// costing two coherence messages. Quiet blocks dominate the MHR
/// population of real applications and never earn a PHT entry, which is
/// what keeps Table 7's PHT/MHR ratios near the paper's magnitudes.
///
/// Blocks are spread evenly across iterations so no single iteration's
/// accuracy craters from the cold misses.
pub fn push_quiet_phase(
    plan: &mut IterationPlan,
    region: u64,
    quiet_blocks: usize,
    nodes: usize,
    iteration: u32,
    iterations: u32,
) {
    if quiet_blocks == 0 {
        return;
    }
    let per_iter = (quiet_blocks as u32).div_ceil(iterations.max(1)) as usize;
    let base = iteration as usize * per_iter;
    let mut phase = simx::Phase::new(nodes);
    for idx in base..(base + per_iter).min(quiet_blocks) {
        let block = stache::BlockAddr::new(region + idx as u64);
        // A reader one node over from the block's position: remote from
        // the home for the overwhelming majority of blocks.
        let reader = stache::NodeId::new((idx + 1) % nodes);
        phase.push(simx::Access::read(reader, block));
    }
    if !phase.is_empty() {
        plan.push(phase);
    }
}

/// The one driver loop: names the run, then plans and executes every
/// iteration, handing the engine to `after_iteration` between them (the
/// streaming callers drain the trace there). No final audit — [`drive`]
/// and [`run_sharded_streaming`] each add theirs.
fn run_iterations<E: Engine, W: Workload + ?Sized, X: From<SimError>>(
    engine: &mut E,
    workload: &mut W,
    mut after_iteration: impl FnMut(&mut E) -> Result<(), X>,
) -> Result<(), X> {
    assert!(
        workload.nodes() <= engine.nodes(),
        "workload needs {} nodes but machine has {}",
        workload.nodes(),
        engine.nodes()
    );
    engine.set_app(workload.name(), workload.iterations());
    for it in 0..workload.iterations() {
        let plan = workload.plan(it);
        engine.run_plan(&plan, it)?;
        after_iteration(engine)?;
    }
    Ok(())
}

/// Runs a workload to completion on `engine` — any of the three
/// schedulers, configured by the caller (policy, fault plan, tracing)
/// beforehand — and audits coherence at the end.
///
/// # Errors
///
/// Propagates any [`SimError`] — with correct generators this indicates a
/// bug in the protocol substrate, so tests treat it as fatal.
///
/// # Panics
///
/// Panics if the workload is written for more processors than the engine
/// has.
pub fn drive<E: Engine, W: Workload + ?Sized>(
    engine: &mut E,
    workload: &mut W,
) -> Result<(), SimError> {
    run_iterations(engine, workload, |_| Ok::<(), SimError>(()))?;
    engine.verify_coherence()
}

/// Runs a workload to completion on a fresh machine and returns its
/// coherence-message trace.
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn run_to_trace<W: Workload + ?Sized>(
    workload: &mut W,
    proto: ProtocolConfig,
    sys: SystemConfig,
) -> Result<TraceBundle, SimError> {
    let (trace, _) = run_to_trace_with_stats(workload, proto, sys)?;
    Ok(trace)
}

/// Like [`run_to_trace`] but also returns the machine statistics.
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn run_to_trace_with_stats<W: Workload + ?Sized>(
    workload: &mut W,
    proto: ProtocolConfig,
    sys: SystemConfig,
) -> Result<(TraceBundle, simx::MachineStats), SimError> {
    let mut machine = Machine::new(proto, sys);
    drive(&mut machine, workload)?;
    let stats = machine.stats().clone();
    Ok((machine.into_trace(), stats))
}

/// Runs a workload on the *sharded* parallel engine ([`simx::shard`])
/// and returns the finished machine. Output — trace, statistics,
/// tallies, obs snapshot — is byte-identical to a `shards = 1` run for
/// every shard count (see `tests/shard_identity.rs`); `shards` only
/// changes how many threads execute each synchronisation window.
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn run_sharded<W: Workload + ?Sized>(
    workload: &mut W,
    proto: ProtocolConfig,
    sys: SystemConfig,
    shards: usize,
) -> Result<ShardedMachine, SimError> {
    let mut machine = ShardedMachine::new(proto, sys, shards);
    drive(&mut machine, workload)?;
    Ok(machine)
}

/// A failure inside [`run_sharded_streaming`]: either the simulation
/// itself, or the caller's record sink (e.g. a packed-trace writer
/// hitting a full disk).
#[derive(Debug)]
pub enum StreamingRunError<E> {
    /// The simulation failed.
    Sim(SimError),
    /// The record sink failed; the run stops at the failing iteration.
    Sink(E),
}

impl<E> From<SimError> for StreamingRunError<E> {
    fn from(e: SimError) -> Self {
        StreamingRunError::Sim(e)
    }
}

impl<E: std::fmt::Display> std::fmt::Display for StreamingRunError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamingRunError::Sim(e) => write!(f, "simulation failed: {e}"),
            StreamingRunError::Sink(e) => write!(f, "trace sink failed: {e}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for StreamingRunError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamingRunError::Sim(e) => Some(e),
            StreamingRunError::Sink(e) => Some(e),
        }
    }
}

/// Runs a workload on the sharded engine, draining the captured trace
/// into `sink` after every iteration instead of accumulating it — the
/// producer half of the packed-trace streaming pipeline. Peak memory is
/// one iteration's records, so runs whose full traces would never fit in
/// RAM (the ≥10⁸-message `scale` configurations) stream straight to
/// disk. Record order across drains is exactly the order
/// [`run_sharded`]'s accumulated bundle would hold.
///
/// `configure` runs once on the fresh machine before iteration 0 — scale
/// runs use it to disable per-barrier audits.
/// `verify_sample` bounds the end-of-run coherence audit (`None` = walk
/// every block, `Some(n)` = sample `n`), since a full walk at scale
/// costs more than the run.
///
/// # Errors
///
/// Propagates simulation errors and sink errors, tagged by origin.
pub fn run_sharded_streaming<W: Workload + ?Sized, E>(
    workload: &mut W,
    proto: ProtocolConfig,
    sys: SystemConfig,
    shards: usize,
    verify_sample: Option<usize>,
    configure: impl FnOnce(&mut ShardedMachine),
    mut sink: impl FnMut(Vec<trace::MsgRecord>) -> Result<(), E>,
) -> Result<ShardedMachine, StreamingRunError<E>> {
    let mut machine = ShardedMachine::new(proto, sys, shards);
    configure(&mut machine);
    run_iterations(&mut machine, workload, |m| {
        let records = m.drain_trace_records();
        if records.is_empty() {
            return Ok(());
        }
        sink(records).map_err(StreamingRunError::Sink)
    })?;
    machine.verify_coherence_sampled(verify_sample.unwrap_or(usize::MAX))?;
    Ok(machine)
}

/// The five paper benchmarks at evaluation scale, boxed behind the trait.
pub fn paper_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Appbt::default()),
        Box::new(Barnes::default()),
        Box::new(Dsmc::default()),
        Box::new(Moldyn::default()),
        Box::new(Unstructured::default()),
    ]
}

/// The five benchmarks at reduced scale, for fast tests.
pub fn small_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Appbt::small()),
        Box::new(Barnes::small()),
        Box::new(Dsmc::small()),
        Box::new(Moldyn::small()),
        Box::new(Unstructured::small()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_five_benchmarks() {
        assert_eq!(paper_suite().len(), 5);
        assert_eq!(small_suite().len(), 5);
        let names: Vec<&str> = paper_suite().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec!["appbt", "barnes", "dsmc", "moldyn", "unstructured"]
        );
    }

    #[test]
    fn small_suite_runs_clean() {
        for mut w in small_suite() {
            let trace = run_to_trace(w.as_mut(), ProtocolConfig::paper(), SystemConfig::paper())
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
            assert!(!trace.is_empty(), "{} produced no messages", w.name());
        }
    }

    #[test]
    fn streaming_drains_match_the_accumulated_bundle() {
        let make = || micro::ProducerConsumer {
            blocks: 3,
            iterations: 6,
            ..Default::default()
        };
        let whole = run_sharded(
            &mut make(),
            ProtocolConfig::paper(),
            SystemConfig::paper(),
            1,
        )
        .unwrap()
        .into_trace();
        let mut streamed: Vec<trace::MsgRecord> = Vec::new();
        let mut drains = 0usize;
        let machine = run_sharded_streaming(
            &mut make(),
            ProtocolConfig::paper(),
            SystemConfig::paper(),
            1,
            None,
            |_| {},
            |batch| {
                drains += 1;
                streamed.extend(batch);
                Ok::<(), std::convert::Infallible>(())
            },
        )
        .unwrap();
        assert_eq!(streamed, whole.records(), "same records, same order");
        assert!(drains > 1, "drained per iteration, not once at the end");
        assert!(
            machine.trace().is_empty(),
            "nothing left accumulated in the machine"
        );
    }

    #[test]
    fn streaming_sink_errors_stop_the_run() {
        let mut w = micro::ProducerConsumer {
            blocks: 2,
            iterations: 5,
            ..Default::default()
        };
        let err = run_sharded_streaming(
            &mut w,
            ProtocolConfig::paper(),
            SystemConfig::paper(),
            1,
            Some(16),
            |_| {},
            |_| Err("disk full"),
        )
        .unwrap_err();
        assert!(matches!(err, StreamingRunError::Sink("disk full")));
        assert!(err.to_string().contains("disk full"));
    }

    #[test]
    fn plans_are_deterministic() {
        for (mut a, mut b) in small_suite().into_iter().zip(small_suite()) {
            for it in 0..a.iterations().min(3) {
                assert_eq!(a.plan(it), b.plan(it), "{} not deterministic", a.name());
            }
        }
    }
}
