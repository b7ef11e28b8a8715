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
//! | Table 3 (system parameters) | [`tables::table3`] |
//! | Table 4 (benchmarks) | [`tables::table4`] |
//! | Table 5 (accuracy vs MHR depth) | [`tables::table5`] |
//! | Table 6 (noise filters) | [`tables::table6`] |
//! | Table 7 (memory overhead) | [`tables::table7`] |
//! | Table 8 (dsmc adaptation) | [`tables::table8`] |
//! | Figure 5 (speedup model) | [`figures::figure5`] |
//! | Figures 6/7 (dominant signatures) | [`figures::render_figures_6_7`] |
//! | Figure 8 (directed trigger signatures) | [`figures::render_figure8`] |
//! | §5 latency-insensitivity claim | [`extras::latency_sensitivity`] |
//! | §6.2 time-to-adapt | [`extras::adaptation`] |
//! | §7 directed-predictor comparison | [`extras::comparison`] |
//! | §4/§8 live integration | [`integration::integration`] |
//! | §5 fault-sensitivity (clean vs perturbed traces) | [`faults::fault_report`] |
//! | Schedule-exploration model check | [`modelcheck::simcheck_report`] |
//! | Measured speculation speedup vs Figure 5 | [`speedup::speedup_report`] |
//! | Packed-trace codec + streaming cell | [`tracepack::tracepack`] |
//!
//! The `repro` binary drives them from the command line (wall-clock
//! measurement is the pipeline benchmark's job, under `benchmark/`). The
//! [`report::obs_report`] pipeline condenses one full run — machine,
//! protocol, predictor, and speculation metrics — into a single
//! machine-readable [`obs::Snapshot`] (`repro --obs-json`).

pub mod contenders;
pub mod extras;
pub mod faults;
pub mod figures;
pub mod integration;
pub mod modelcheck;
pub mod par;
pub mod report;
pub mod scale;
pub mod spans;
pub mod speedup;
pub mod tables;
pub mod tracepack;
pub mod traces;

pub use report::obs_report;
pub use traces::{Scale, TraceSet};
