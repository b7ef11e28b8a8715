//! Trace generation and caching for the evaluation runs.
//!
//! The accuracy views read several predictor configurations over the
//! *same* traces, so the suite generates each benchmark's trace once (in
//! parallel, one thread per benchmark) and races them all over it.

use simx::{SimError, SystemConfig};
use stache::ProtocolConfig;
use std::fmt;
use trace::TraceBundle;
use workloads::{paper_suite, run_to_trace, small_suite, Workload};

/// How big the evaluation runs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper-calibrated sizes (seconds to generate and evaluate).
    Paper,
    /// Reduced sizes for smoke tests and CI.
    Small,
}

impl Scale {
    /// Fresh instances of the five benchmarks at this scale, in Table 4
    /// row order. Plans are pure functions of the workload parameters, so
    /// every instance of a benchmark replays the same accesses.
    pub fn suite(self) -> Vec<Box<dyn Workload>> {
        match self {
            Scale::Paper => paper_suite(),
            Scale::Small => small_suite(),
        }
    }
}

/// The five benchmarks' traces for one machine configuration.
#[derive(Debug, Clone)]
pub struct TraceSet {
    traces: Vec<TraceBundle>,
}

impl TraceSet {
    /// Generates all five traces on the paper's machine (Table 3),
    /// running the benchmarks on the shared bounded worker pool
    /// ([`crate::par::sweep`]).
    pub fn generate(scale: Scale) -> Self {
        let traces = crate::par::sweep(scale.suite().len(), |i| {
            let mut w = scale.suite().swap_remove(i);
            run_to_trace(w.as_mut(), ProtocolConfig::paper(), SystemConfig::paper())
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()))
        });
        TraceSet { traces }
    }

    /// The traces, in Table 4 row order.
    pub fn traces(&self) -> &[TraceBundle] {
        &self.traces
    }
}

/// Why [`single_trace`] produced no trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The name is not one of the suite's benchmarks.
    UnknownBenchmark {
        /// The name asked for.
        name: String,
        /// The names the suite does have, in Table 4 row order.
        valid: Vec<String>,
    },
    /// The benchmark ran and the simulation failed.
    Run {
        /// The benchmark that failed.
        name: String,
        /// The simulator's error.
        source: SimError,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnknownBenchmark { name, valid } => {
                write!(f, "unknown benchmark {name} (valid: {})", valid.join(", "))
            }
            TraceError::Run { name, source } => write!(f, "{name} failed: {source}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::UnknownBenchmark { .. } => None,
            TraceError::Run { source, .. } => Some(source),
        }
    }
}

/// [`accel::run_machine`] with a failure tagged by the benchmark it
/// happened in — the one run function behind the baseline set and the
/// acceleration table.
pub(crate) fn run_machine(
    w: &mut dyn Workload,
    policy: Option<Box<dyn simx::SpeculationPolicy>>,
    plan: Option<simx::FaultPlan>,
    spans: bool,
) -> Result<simx::ConcurrentMachine, TraceError> {
    accel::run_machine(w, policy, plan, spans).map_err(|source| TraceError::Run {
        name: w.name().to_string(),
        source,
    })
}

/// Generates a single benchmark's trace by name on a custom configuration.
///
/// # Errors
///
/// [`TraceError::UnknownBenchmark`] if `name` is not one of the five
/// benchmarks, [`TraceError::Run`] if its simulation fails.
pub fn single_trace(
    name: &str,
    scale: Scale,
    proto: ProtocolConfig,
    sys: SystemConfig,
) -> Result<TraceBundle, TraceError> {
    let mut suite = scale.suite();
    let Some(w) = suite.iter_mut().find(|w| w.name() == name) else {
        return Err(TraceError::UnknownBenchmark {
            name: name.to_string(),
            valid: suite.iter().map(|w| w.name().to_string()).collect(),
        });
    };
    run_to_trace(w.as_mut(), proto, sys).map_err(|source| TraceError::Run {
        name: name.to_string(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_set_has_all_five() {
        let set = TraceSet::generate(Scale::Small);
        let names: Vec<&str> = set.traces().iter().map(|t| t.meta().app.as_str()).collect();
        assert_eq!(names, ["appbt", "barnes", "dsmc", "moldyn", "unstructured"]);
        for t in set.traces() {
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn single_trace_matches_set_member() {
        let set = TraceSet::generate(Scale::Small);
        let solo = single_trace(
            "appbt",
            Scale::Small,
            ProtocolConfig::paper(),
            SystemConfig::paper(),
        )
        .expect("appbt is in the suite");
        assert_eq!(&set.traces()[0], &solo);
    }

    #[test]
    fn an_unknown_benchmark_is_an_error_naming_the_valid_ones() {
        let err = single_trace(
            "spice",
            Scale::Small,
            ProtocolConfig::paper(),
            SystemConfig::paper(),
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown benchmark spice (valid: appbt, barnes, dsmc, moldyn, unstructured)"
        );
    }
}
