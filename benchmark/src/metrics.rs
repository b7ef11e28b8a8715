//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, simulated-result metrics, per-layer metrics. `BENCHMARK.json`
//! is generated from these tables (`pipebench --manifest`) and a unit
//! test keeps the committed file equal to them.

/// How long one driver run measures; also `run.sh`'s default `--seconds`.
pub const RUN_SECONDS: u64 = 30;

/// The four workloads. Names are checked once, where arguments enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    Suite16,
    Spec16,
    Stream64,
    Scale1024,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Suite16,
        Workload::Spec16,
        Workload::Stream64,
        Workload::Scale1024,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite16 => "suite16",
            Workload::Spec16 => "spec16",
            Workload::Stream64 => "stream64",
            Workload::Scale1024 => "scale1024",
        }
    }

    /// Why the workload exists, in one line (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Suite16 => "The paper's own pipeline on five 16-node traces: scoring ~50%, Machine ~25%, pack+decode ~16%; hot predictor tables. The balanced case EXPERIMENTS.md rests on.",
            Workload::Spec16 => "ConcurrentMachine plain and speculating: engine >= 99% of the pass, scoring < 1%. Must not move on a scoring change, must move on an engine change.",
            Workload::Stream64 => "Sharded engine streaming 1.5M records through a file into an evicting fleet: scoring ~80% on an all-cold stream, where the decode-vs-score gap lives.",
            Workload::Scale1024 => "1024 nodes, 1.67M blocks, mostly private writes: sharded engine ~75%, scoring 2%. A scoring change should not move it; a window/merge/arena change should.",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Host-time and memory metrics every workload reports: the
/// `end_to_end` list of `BENCHMARK.json`. A host time is the lower
/// quartile of the run's samples (see `stats::Summary::low`). The second
/// field is the bound: the share of the parent's median by which the
/// metric may worsen. Each is at least three times the widest spread of
/// ten runs per workload measured on the shared 2-core box, whose speed
/// drifts by several percent over minutes (numbers in README.md).
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (lower("setup_s", "s"), 0.25),
    (lower("wall_s", "s"), 0.25),
    (higher("msgs_per_s", "1/s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.2),
];

/// Simulated results: deterministic at a fixed seed, so two runs of the
/// same code - and a change meant only to speed the simulator up - must
/// reproduce them exactly. `--selfcheck` compares them with bound zero.
/// A workload reports 0 for one that does not apply to it.
pub const SIMULATED: [MetricDef; 5] = [
    lower("sim_exec_ms", "sim_ms"),
    higher("accuracy_pct", "%"),
    lower("paper_error_pp", "pp"),
    higher("sim_speedup", "ratio"),
    lower("packed_bytes_per_msg", "B/msg"),
];

/// Which workloads a simulated metric is defined on.
pub fn simulated_applies(metric: &str, workload: Workload) -> bool {
    match metric {
        "sim_exec_ms" => true,
        "accuracy_pct" => matches!(workload, Workload::Suite16 | Workload::Spec16),
        "paper_error_pp" => workload == Workload::Suite16,
        "sim_speedup" => workload == Workload::Spec16,
        "packed_bytes_per_msg" => workload != Workload::Spec16,
        _ => false,
    }
}

/// One metric per thing a layer does, taken in the traced run. `busy_s`
/// is the self time of the spans around the named public calls.
pub const PER_LAYER: [MetricDef; 54] = [
    lower("workloads.plan.busy_s", "s"),
    higher("workloads.plan.accesses", "count"),
    higher("workloads.plan.accesses_per_s", "1/s"),
    lower("simx.machine.busy_s", "s"),
    higher("simx.machine.msgs", "count"),
    higher("simx.machine.msgs_per_s", "1/s"),
    lower("simx.concurrent.busy_s", "s"),
    higher("simx.concurrent.msgs", "count"),
    higher("simx.concurrent.msgs_per_s", "1/s"),
    lower("simx.concurrent_spec.busy_s", "s"),
    higher("simx.concurrent_spec.msgs", "count"),
    higher("simx.concurrent_spec.msgs_per_s", "1/s"),
    lower("simx.shard.busy_s", "s"),
    higher("simx.shard.msgs", "count"),
    higher("simx.shard.msgs_per_s", "1/s"),
    higher("simx.shard.accesses_per_s", "1/s"),
    lower("simx.shard.windows", "count"),
    lower("simx.shard.par2_busy_s", "s"),
    higher("simx.shard.par2_efficiency", "ratio"),
    lower("simx.verify.busy_s", "s"),
    lower("simx.capture.busy_s", "s"),
    higher("simx.capture.records", "count"),
    lower("trace.flat_encode.busy_s", "s"),
    higher("trace.flat_encode.recs_per_s", "1/s"),
    lower("trace.flat_decode.busy_s", "s"),
    higher("trace.flat_decode.recs_per_s", "1/s"),
    lower("trace.pack_encode.busy_s", "s"),
    higher("trace.pack_encode.records", "count"),
    higher("trace.pack_encode.recs_per_s", "1/s"),
    lower("trace.pack_encode.bytes_out", "B"),
    lower("trace.pack_encode.chunks", "count"),
    lower("trace.pack_read.busy_s", "s"),
    lower("trace.pack_read.bytes_in", "B"),
    lower("trace.pack_decode.busy_s", "s"),
    higher("trace.pack_decode.records", "count"),
    higher("trace.pack_decode.recs_per_s", "1/s"),
    lower("cosmos.score.busy_s", "s"),
    higher("cosmos.score.records", "count"),
    higher("cosmos.score.recs_per_s", "1/s"),
    higher("cosmos.score.hits", "count"),
    higher("cosmos.score.hit_ratio", "ratio"),
    lower("cosmos.score.pht_probes", "count"),
    lower("cosmos.score.table_bytes", "B"),
    lower("cosmos.finish.busy_s", "s"),
    lower("cosmos.report.busy_s", "s"),
    lower("accel.overlay.busy_s", "s"),
    higher("accel.spec.pushes", "count"),
    lower("accel.spec.rolled_back", "count"),
    higher("accel.spec.early_acks", "count"),
    higher("accel.spec.commit_ratio", "ratio"),
    lower("obs.export.busy_s", "s"),
    lower("bench.residual_s", "s"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.spans", "count"),
];

/// Span names whose self time is a layer's `busy_s`.
pub fn layer_spans() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .filter_map(|m| m.name.strip_suffix(".busy_s"))
        .filter(|layer| *layer != "accel.overlay")
}

fn json_str(s: &str) -> String {
    debug_assert!(!s.contains(['"', '\\', '\n']));
    format!("\"{s}\"")
}

/// The text of `BENCHMARK.json`. The simulated metrics ride in
/// `per_layer`: `end_to_end` metrics must exist, be non-zero and vary on
/// every workload, and none of the five does.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|(m, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .chain(&SIMULATED)
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_limits_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all: Vec<&MetricDef> = END_TO_END
            .iter()
            .map(|(m, _)| m)
            .chain(&PER_LAYER)
            .chain(&SIMULATED)
            .collect();
        let mut seen = BTreeSet::new();
        for m in &all {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in Workload::ALL {
            assert!(ok_name(w.name()) && seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{w}");
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("suite"), None);
        for (m, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() + SIMULATED.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn every_busy_metric_but_the_overlay_is_a_span_layer() {
        let layers: Vec<_> = layer_spans().collect();
        assert_eq!(layers.len(), 16);
        assert!(layers.contains(&"simx.shard") && !layers.contains(&"accel.overlay"));
    }
}
