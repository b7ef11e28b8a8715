#![warn(missing_docs)]

//! # accel — prediction-accelerated coherence
//!
//! The paper measures Cosmos' accuracy *in isolation* and leaves the
//! integration into a protocol as future work ("taking a branch predictor
//! with high prediction rates and integrating it into a
//! micro-architecture to see how much it affects the bottom line", §8).
//! This crate is that next step, on the simulated machine:
//!
//! * [`PredictorPolicy`] is the one [`simx::SpeculationPolicy`]: a fleet
//!   of per-agent predictors, the prediction→action rules, and the set of
//!   [`simx::SpecActions`] those rules may fire. The three names below
//!   are constructors of it.
//! * [`CosmosPolicy`] installs one Cosmos predictor per directory and per
//!   cache and arms the two speculative actions of the paper's Table 2
//!   that fit a trace-level protocol:
//!   - **exclusive grants** (read-modify-write prediction): when the
//!     directory predictor says a reader's next message will be an
//!     `upgrade_request`, the `get_ro_request` is answered exclusively —
//!     eliminating the upgrade round trip entirely;
//!   - **self-invalidation** (dynamic self-invalidation): when a cache
//!     predictor says the next incoming message for a freshly-written
//!     block is an `inval_rw_request`, the block is replaced to the
//!     directory immediately — turning the consumer's four-message
//!     owner-recall miss into a two-message idle-directory miss.
//! * [`DirectedPolicy`] arms the same two with the §7 directed
//!   predictors (read-modify-write at directories, dynamic
//!   self-invalidation at caches), for comparison.
//! * [`SpeculatePolicy`] closes the loop: a confidence-gated Cosmos fleet
//!   (for workloads where mispredicted speculation is costly) that
//!   additionally arms **early invalidation acks** and **speculative
//!   forwarding pushes** — the two §4 actions that *do* send extra
//!   protocol messages and need the engine's rollback machinery when
//!   wrong.
//! * [`runner`] executes a workload with and without a policy on the
//!   event engine ([`simx::ConcurrentMachine`], where actions contend
//!   with real races) and reports messages, execution time, and the
//!   speculation outcome counters.
//!
//! Mispredictions by the grant/self-invalidate actions need no protocol
//! recovery (both move the protocol between legal states — the first
//! category of §4.3); their *cost* is the extra misses they cause, which
//! the runner's execution-time comparison captures end to end. The
//! push/early-ack actions are the second §4.3 category: a wrong push is
//! rejected by its target and rolled back by the directory (counted in
//! [`stache::RollbackTally`]), so correctness never depends on the
//! predictor being right.
//!
//! ## Example
//!
//! ```
//! use accel::{runner, CosmosPolicy};
//! use workloads::micro::ProducerConsumer;
//!
//! let make = || ProducerConsumer { blocks: 2, iterations: 15, ..Default::default() };
//! let comparison = runner::compare(
//!     &mut make(),
//!     &mut make(),
//!     || Box::new(CosmosPolicy::new(2)),
//! ).unwrap();
//! // Producer-consumer is speculation's best case: fewer messages and a
//! // faster run.
//! assert!(comparison.accelerated.messages < comparison.baseline.messages);
//! ```

pub mod directed_policy;
pub mod policy;
pub mod runner;
pub mod speculate;

pub use directed_policy::DirectedPolicy;
pub use policy::{CosmosPolicy, PredictorPolicy};
pub use runner::{compare, run_machine, Comparison, RunSummary};
pub use speculate::SpeculatePolicy;
