#![warn(missing_docs)]

//! # obs — workspace-wide observability substrate
//!
//! The paper's entire evaluation is counting — prediction accuracy,
//! message mixes, predictor memory — and a production coherence system
//! needs the same visibility at run time. This crate is the common,
//! dependency-free substrate every other crate reports through:
//!
//! * **metric snapshots** ([`Snapshot`]): every crate keeps its own plain
//!   integer tallies and power-of-two-bucket latency [`Histogram`]s on its
//!   hot path and writes them into a snapshot under its own names at
//!   export time — there is no shared registry to go through;
//! * a **causal tracing layer** ([`SpanLog`]) — per-transaction span
//!   trees over simulated time with latency-attribution categories and a
//!   Chrome trace-event / Perfetto exporter ([`span::chrome_trace_json`]),
//!   off by default so untraced runs stay byte-identical;
//! * machine-readable **exporters** ([`Snapshot::to_json`],
//!   [`Snapshot::to_csv`]) and a shared text/CSV [`Table`] formatter. No
//!   serde: the snapshot *is* the serialisation layer.
//!
//! ## Metric naming
//!
//! Names are lowercase, dot-separated: `<crate>.<subsystem>.<metric>`,
//! with a unit suffix where one applies (`simx.access.latency_ns`).
//! Snapshots keep names sorted, so exports are deterministic byte-for-byte
//! for deterministic workloads.
//!
//! ## Example
//!
//! ```
//! use obs::{Histogram, Snapshot};
//!
//! let mut latency = Histogram::new();
//! latency.record(120);
//! let mut snap = Snapshot::new();
//! snap.counter("cache.hits", 1);
//! snap.histogram("cache.latency_ns", &latency);
//! assert!(snap.to_json().contains("\"cache.hits\":1"));
//! ```

pub mod hist;
pub mod json;
pub mod snapshot;
pub mod span;
pub mod table;

pub use hist::Histogram;
pub use snapshot::{MetricValue, Snapshot};
pub use span::{Span, SpanKind, SpanLog, TraceId};
pub use table::{Align, Table};
