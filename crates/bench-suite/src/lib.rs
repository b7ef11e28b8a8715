#![warn(missing_docs)]

//! # bench-suite — regenerating every table and figure of the paper
//!
//! Each evaluation artefact of *Using Prediction to Accelerate Coherence
//! Protocols* has a generator here that produces both structured data and
//! a rendered table in the paper's layout:
//!
//! | Artefact | Generator |
//! |---|---|
//! | Table 1 (message vocabulary) | [`tables::table1`] |
//! | Table 2 (prediction-action pairs) | [`tables::table2`] of [`::accel::action`], the table the policy fires |
//! | Table 3 (system parameters) | [`tables::table3`] |
//! | Table 4 (benchmarks) | [`tables::table4`] |
//! | Table 5 (accuracy vs MHR depth) | [`tables::table5`] of a [`contenders::Race`] |
//! | Table 6 (noise filters) | [`tables::table6`] of a [`contenders::Race`] |
//! | Table 7 (memory overhead) | [`tables::table7`] of a [`contenders::Race`] |
//! | Table 8 (dsmc adaptation) | [`tables::table8`] of a [`contenders::Race`] |
//! | Figure 5 (speedup model) | [`figures::figure5`] |
//! | Figures 6/7 (dominant signatures) | [`figures::render_figures_6_7`] of a [`contenders::Race`] |
//! | Figure 8 (directed trigger signatures) | [`figures::render_figure8`] |
//! | §5 latency-insensitivity claim | [`extras::latency_sensitivity`] |
//! | §6.2 time-to-adapt | [`extras::adaptation`] of a [`contenders::Race`] |
//! | §7 directed-predictor comparison | [`extras::comparison`] of a [`contenders::Race`] |
//! | §5 fault-sensitivity (clean vs perturbed traces) | [`faults::fault_report`] of the baseline set |
//! | Schedule-exploration model check | [`modelcheck::simcheck_report`] |
//! | §4/§8 acceleration: message reduction and speedup per action set | [`accel::accel`] against the baseline set |
//! | Packed-trace codec + streaming cell | [`tracepack::tracepack`] |
//!
//! Every accuracy view over the shared traces reads one
//! [`contenders::race`], which replays each (contender, trace) pair once;
//! every view of a bare event-engine run reads [`baseline::bare_runs`].
//! The `repro` binary drives them from the command line (wall-clock
//! measurement is the pipeline benchmark's job, under `benchmark/`). The
//! [`report::obs_report`] pipeline condenses one full run — machine,
//! protocol, predictor, and speculation metrics — into a single
//! machine-readable [`obs::Snapshot`] (`repro --obs-json`).

pub mod accel;
pub mod baseline;
pub mod contenders;
pub mod extras;
pub mod faults;
pub mod figures;
pub mod modelcheck;
pub mod par;
pub mod report;
pub mod scale;
pub mod spans;
pub mod tables;
pub mod tracepack;
pub mod traces;

pub use report::obs_report;
pub use traces::{Scale, TraceSet};
