#![warn(missing_docs)]

//! # stache — the Wisconsin Stache directory coherence protocol
//!
//! This crate implements the coherence-protocol substrate of the Cosmos
//! reproduction: the message vocabulary of the paper's Table 1 (plus the
//! `downgrade` pair described in Figure 8's caption), the cache-side and
//! directory-side finite state machines of a full-map, write-invalidate
//! directory protocol — the paper's, and the only one here — and the
//! Stache-specific policies the paper lists in §5.1:
//!
//! * the **half-migratory optimisation** — a directory asks an exclusive
//!   owner to *invalidate* (not downgrade) its copy when another cache
//!   read- or write-misses on the block;
//! * **round-robin page allocation** — page *X* is homed on node
//!   `X mod N`, and the home node doubles as the directory for the page
//!   (see [`placement`]);
//! * **no replacement** — cached pages are never evicted, so predictor
//!   history for a block persists for the whole run;
//! * **local directory optimisation** — accesses by the home node to its
//!   own pages generate no cache↔directory messages.
//!
//! The state machines here are *pure*: they map `(state, event)` to
//! `(new state, actions)` and never perform I/O, which makes them easy to
//! unit- and property-test. The discrete-event machinery that turns actions
//! into timestamped messages lives in the `simx` crate.
//!
//! ## Example
//!
//! ```
//! use stache::{CacheState, MsgType, ProcOp};
//! use stache::cache::{on_processor_op, CacheAction};
//!
//! // A store to an invalid block sends get_rw_request to the directory
//! // and leaves the block in the I->E transient state (paper Figure 1).
//! let (next, action) = on_processor_op(CacheState::Invalid, ProcOp::Write).unwrap();
//! assert_eq!(next, CacheState::IToE);
//! assert_eq!(action, CacheAction::Send(MsgType::GetRwRequest));
//! ```

pub mod cache;
pub mod config;
pub mod directory;
pub mod error;
pub mod fasthash;
pub mod fingerprint;
pub mod ids;
pub mod invariants;
pub mod msg;
pub mod placement;
pub mod recovery;
pub mod tally;

pub use cache::CacheState;
pub use config::ProtocolConfig;
pub use directory::{DirOutcome, DirState};
pub use error::ProtocolError;
pub use ids::{BlockAddr, NodeId, NodeSet, PageId};
pub use msg::{Msg, MsgType, ProcOp, Role};
pub use recovery::{DedupFilter, RecoveryTally, RetryPolicy, RollbackTally};
pub use tally::ProtocolTally;
