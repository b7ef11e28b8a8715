#![warn(missing_docs)]

//! # cosmos-repro — reproduction of *Using Prediction to Accelerate
//! Coherence Protocols* (Mukherjee & Hill, ISCA 1998)
//!
//! This facade crate re-exports the workspace's crates so examples and
//! integration tests can reach everything through one dependency:
//!
//! * [`stache`] — the Wisconsin Stache directory protocol (message
//!   vocabulary, cache/directory state machines, placement, invariants);
//! * [`simx`] — the discrete-event 16-node machine simulator that stands in
//!   for the Wisconsin Wind Tunnel II;
//! * [`workloads`] — synthetic access-stream generators reproducing the
//!   sharing patterns of the paper's five benchmarks;
//! * [`trace`] — coherence message trace records, bundles, codecs, and
//!   signature extraction;
//! * [`cosmos`] — the Cosmos two-level adaptive coherence message
//!   predictor, directed baselines, evaluation, and the speedup model;
//! * [`accel`] — the §4/§8 integration: Cosmos-driven speculation policies
//!   (exclusive grants, self-invalidation) wired into the live machine.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`, or run:
//!
//! ```text
//! cargo run --example quickstart
//! cargo run -p bench-suite --bin repro -- table5
//! ```

pub use accel;
pub use cosmos;
pub use simx;
pub use stache;
pub use trace;
pub use workloads;
