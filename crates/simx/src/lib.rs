#![warn(missing_docs)]

//! # simx — a discrete-event simulator of a directory-based shared-memory
//! machine
//!
//! This crate stands in for the Wisconsin Wind Tunnel II (paper §5): it
//! executes memory-access streams on a simulated *N*-node machine running
//! the paper's Stache protocol (full-map, half-migratory), timestamps
//! every coherence message on Table 3's single-latency crossbar, and
//! collects the per-node incoming-message traces that the Cosmos
//! predictor is evaluated on.
//!
//! The simulator serialises coherence transactions per block (Stache's
//! software handlers do the same), but interleaves *processors* by their
//! local clocks, so message arrival orders — e.g. which of two consumers'
//! `get_ro_request`s reaches the directory first — emerge from timing, as
//! they do on a real machine.
//!
//! Beyond tracing, the machine tracks data values (each write stamps the
//! block with a fresh token) and verifies on every read that the processor
//! observes the most recent write — an end-to-end coherence check — and can
//! audit the full-map/SWMR invariants after every transaction.
//!
//! ## Three schedulers, one core
//!
//! [`ConcurrentMachine`] owns the protocol store — cache and directory
//! state, clocks, handler horizons — and its instruments (trace, stats,
//! tallies, fault injector, span log, policy); every
//! state write and every recorded message in this crate goes through its
//! `set_dir`, `set_cache_state` and `record`. Three schedulers drive it:
//! its own event loop (one message, one event); [`shard`]'s conservative
//! time windows over per-shard cores running the same handlers; and
//! [`Machine`], which walks each transaction to completion in closed form
//! — on a perfect fabric, with no policy: fault recovery and speculation
//! are the event engines' — and adds the data-value oracle. `Machine`
//! shares the store but not the handlers — its timing model (each
//! holder's handler charged independently, no cache-side handler queue)
//! is what the Table 5–8 traces were calibrated on (DESIGN.md §6h).
//!
//! ## Example
//!
//! ```
//! use simx::{Machine, SystemConfig};
//! use stache::{BlockAddr, NodeId, ProcOp, ProtocolConfig};
//!
//! let mut m = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
//! // Node 1 writes a block homed on node 0, then node 2 reads it.
//! let b = BlockAddr::new(0);
//! m.access(NodeId::new(1), b, ProcOp::Write, 0).unwrap();
//! m.access(NodeId::new(2), b, ProcOp::Read, 0).unwrap();
//! // The write missed (2 messages) and the read missed, invalidating the
//! // owner under the half-migratory optimisation (4 messages).
//! assert_eq!(m.trace().len(), 6);
//! m.verify_coherence().unwrap();
//! ```

pub mod arena;
pub mod concurrent;
pub mod config;
pub mod driver;
pub mod event;
pub mod fault;
pub mod machine;
pub mod rng;
pub mod shard;
pub mod simcheck;
pub mod speculate;
pub mod stats;
mod store;

pub use arena::{Arena, ArenaId};
pub use concurrent::ConcurrentMachine;
pub use config::SystemConfig;
pub use driver::{Access, AccessOp, Engine, IterationPlan, Phase};
pub use event::EventQueue;
pub use fault::{FaultInjector, FaultPlan};
pub use machine::{AccessOutcome, Machine, SimError};
pub use shard::ShardedMachine;
pub use speculate::{EagerPolicy, ForwardKind, SpecActions, SpeculationPolicy};
pub use stats::MachineStats;
