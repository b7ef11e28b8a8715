#![warn(missing_docs)]

//! # trace — coherence message traces
//!
//! The paper evaluates Cosmos on *traces of coherence messages* captured
//! from the Stache protocol (§5). This crate defines the trace format and
//! the tooling around it:
//!
//! * [`MsgRecord`] — one incoming-message observation: when, at which node
//!   and role (cache or directory), for which block, from whom, and what;
//! * [`TraceBundle`] — a full run's worth of records plus metadata, with
//!   iterators per receiver and per block;
//! * [`codec`] — the flat binary encoding (`CTR1`, 26 bytes a record) a
//!   whole bundle is written to disk in and read back from;
//! * [`pack`] — the chunked, compressed packed-trace format (`CPK1`):
//!   streaming writers, indexed readers, and independent per-chunk decode
//!   for parallel replay with bounded memory — the format for traces too
//!   large to hold;
//! * [`stats`] — message mix and volume statistics;
//! * [`signature`] — the key of a *message signature* arc (consecutive
//!   incoming-message pairs per block at one role), which the replay in
//!   `cosmos::eval` counts for Figures 6 and 7.
//!
//! ## Example
//!
//! ```
//! use stache::{BlockAddr, MsgType, NodeId, Role};
//! use trace::{MsgRecord, TraceBundle, TraceMeta};
//!
//! let mut bundle = TraceBundle::new(TraceMeta::new("example", 16, 10));
//! bundle.push(MsgRecord {
//!     time_ns: 100,
//!     node: NodeId::new(0),
//!     role: Role::Directory,
//!     block: BlockAddr::new(42),
//!     sender: NodeId::new(1),
//!     mtype: MsgType::GetRoRequest,
//!     iteration: 0,
//! });
//! assert_eq!(bundle.len(), 1);
//! assert_eq!(bundle.records()[0].mtype, MsgType::GetRoRequest);
//! ```

pub mod bundle;
pub mod codec;
pub mod pack;
pub mod record;
pub mod signature;
pub mod stats;

pub use bundle::{TraceBundle, TraceMeta};
pub use record::MsgRecord;
pub use signature::ArcKey;
pub use stats::TraceStats;
