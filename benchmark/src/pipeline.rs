//! The four workloads: one function per pipeline shape, each driving the
//! layer crates through their public functions the way `repro` does.
//!
//! The per-iteration loops of `workloads::run_to_trace_with_stats`,
//! `bench-suite`'s `speedup::run_cell` and
//! `workloads::run_sharded_streaming` are written out here rather than
//! called, so that every call into a layer (`plan`, `run_iteration` /
//! `run_plan`, drain, `push_all`, ...) can carry its own span. Traced
//! and untraced passes run this same code; only the tracer differs.

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Cursor, Read, Seek, Write};
use std::path::Path;
use std::time::Instant;

use accel::SpeculatePolicy;
use cosmos::{
    AccuracyReport, CosmosPredictor, Counts, EvalOptions, EvictingCosmos, MessagePredictor,
    StreamEval,
};
use simx::{
    driver, ConcurrentMachine, Machine, ShardedMachine, SimError, SpeculationPolicy, SystemConfig,
};
use stache::{NodeId, ProtocolConfig, Role, RollbackTally};
use trace::pack::{PackStats, PackedTraceReader, PackedTraceWriter};
use trace::{codec, MsgRecord, TraceBundle, TraceMeta};
use workloads::{Appbt, Barnes, Dsmc, Moldyn, Scale, Unstructured, Workload};

use crate::span::{Tracer, CELL, CHECK};
use crate::stats::Digest;

/// Records per packed chunk: `repro tracepack`'s paper-scale value.
pub const CHUNK_RECORDS: u32 = 4096;
/// Chunks read and decoded per replay window (`tracepack::DECODE_WINDOW`).
pub const DECODE_WINDOW: usize = 64;
/// Per-agent MHT capacity of the streamed replay fleet
/// (`tracepack::REPLAY_MHT_CAPACITY`).
pub const REPLAY_MHT_CAPACITY: usize = 8192;
/// Blocks sampled by the end-of-run audit of the sharded cells.
pub const VERIFY_SAMPLE: usize = 4096;
/// Confidence threshold of the speculating cell (`speedup::SPEC_THRESHOLD`).
pub const SPEC_THRESHOLD: u8 = 2;

/// The paper's Table 5 "overall" column, copied from EXPERIMENTS.md:
/// one row per benchmark in Table 4 order, one column per MHR depth 1-4.
pub const PAPER_TABLE5_OVERALL: [[f64; 4]; 5] = [
    [84.0, 85.0, 85.0, 85.0], // appbt
    [62.0, 69.0, 69.0, 68.0], // barnes
    [84.0, 86.0, 93.0, 93.0], // dsmc
    [86.0, 86.0, 85.0, 84.0], // moldyn
    [74.0, 88.0, 89.0, 92.0], // unstructured
];

/// The five paper generators at their default (evaluation) size, with
/// `seed` XOR-ed into each generator's own seed: seed 0 is exactly
/// `workloads::paper_suite()`.
pub fn paper_generators(seed: u64) -> Vec<Box<dyn Workload>> {
    let mut appbt = Appbt::default();
    appbt.seed ^= seed;
    let mut barnes = Barnes::default();
    barnes.seed ^= seed;
    let mut dsmc = Dsmc::default();
    dsmc.seed ^= seed;
    let mut moldyn = Moldyn::default();
    moldyn.seed ^= seed;
    let mut unstructured = Unstructured::default();
    unstructured.seed ^= seed;
    vec![
        Box::new(appbt),
        Box::new(barnes),
        Box::new(dsmc),
        Box::new(moldyn),
        Box::new(unstructured),
    ]
}

/// Everything a pass produces that is a pure function of the seed. Every
/// pass of a run must reproduce pass 1's value exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassData {
    /// Coherence messages out of the engine, all cells.
    pub msgs: u64,
    /// Digest over every captured record stream, cell after cell.
    pub digest: Digest,
    /// Captured-stream digest of each cell, for the differential cells
    /// of the traced run.
    pub cell_digests: Vec<Digest>,
    /// Summed `execution_time_ns`, all cells.
    pub exec_ns: u64,
    /// Pooled depth-2 Cosmos accuracy.
    pub accuracy: Counts,
    /// Overall accuracy (percent) per benchmark x depth, `suite16` only.
    pub table5: Vec<f64>,
    /// Plain / speculating execution time per benchmark, `spec16` only.
    pub speedups: Vec<f64>,
    /// `CPK1` bytes written and the records they hold.
    pub packed_bytes: u64,
    pub packed_records: u64,
    /// Per-layer work counts, by per-layer metric name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl PassData {
    /// Mean |measured - paper| over Table 5's 20 overall cells.
    pub fn paper_error_pp(&self) -> f64 {
        let paper = PAPER_TABLE5_OVERALL.iter().flatten();
        let sum: f64 = self
            .table5
            .iter()
            .zip(paper)
            .map(|(m, p)| (m - p).abs())
            .sum();
        crate::stats::ratio(sum, self.table5.len() as f64)
    }

    /// Geometric mean of the per-benchmark speedups.
    pub fn sim_speedup(&self) -> f64 {
        if self.speedups.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = self.speedups.iter().map(|s| s.ln()).sum();
        (log_sum / self.speedups.len() as f64).exp()
    }
}

/// One pass in progress: the tracer, the deterministic outputs, and the
/// output checks behind `fail_ratio`.
#[derive(Debug)]
pub struct Pass {
    pub tr: Tracer,
    pub data: PassData,
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Pass {
    pub fn new(tr: Tracer) -> Self {
        Pass {
            tr,
            data: PassData::default(),
            checks: 0,
            failures: Vec::new(),
        }
    }

    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.data.counts.entry(name).or_default() += n;
    }

    /// Folds a captured batch into the running cell digest, inside a
    /// check span so its cost lands in the residual, not in a layer.
    fn digest(&mut self, into: &mut Digest, records: &[MsgRecord]) {
        let open = self.tr.begin(CHECK);
        into.records(records);
        self.tr.end(open);
    }

    /// Runs an engine call inside `layer`'s span. The traced run's extra
    /// cells pass `None`: they sit outside the pass, so their engine time
    /// is summed into `extra_s` instead of being recorded as a span.
    fn engine<R>(
        &mut self,
        layer: Option<&'static str>,
        extra_s: &mut f64,
        f: impl FnOnce() -> R,
    ) -> R {
        match layer {
            Some(layer) => self.tr.time(layer, f),
            None => {
                let t0 = Instant::now();
                let out = f();
                *extra_s += t0.elapsed().as_secs_f64();
                out
            }
        }
    }

    fn close_cell(&mut self, captured: Digest) {
        self.data.digest.chain(captured);
        self.data.cell_digests.push(captured);
    }
}

fn sim_err(app: &str, e: SimError) -> String {
    format!("{app}: simulation failed: {e}")
}

/// Replays a chunked record stream through a fleet, one `push_all` per
/// chunk, as `cosmos::eval::evaluate_chunks` does.
fn score<'a, F>(
    pass: &mut Pass,
    chunks: impl IntoIterator<Item = &'a [MsgRecord]>,
    factory: F,
) -> AccuracyReport
where
    F: FnMut(NodeId, Role) -> Box<dyn MessagePredictor>,
{
    let mut eval = pass.tr.time("cosmos.score", || {
        StreamEval::new(EvalOptions::default(), factory)
    });
    for chunk in chunks {
        pass.tr.time("cosmos.score", || eval.push_all(chunk));
    }
    finish(pass, eval)
}

/// Closes an evaluation and books the fleet's work counts.
fn finish<F>(pass: &mut Pass, eval: StreamEval<F>) -> AccuracyReport
where
    F: FnMut(NodeId, Role) -> Box<dyn MessagePredictor>,
{
    let report = pass.tr.time("cosmos.finish", || eval.finish());
    pass.count("cosmos.score.records", report.overall.total);
    pass.count("cosmos.score.hits", report.overall.hits);
    pass.count("cosmos.score.pht_probes", report.core.pht_probes);
    pass.count("cosmos.score.table_bytes", report.core.table_capacity_bytes);
    report
}

fn note_pack(pass: &mut Pass, stats: &PackStats) {
    pass.count("trace.pack_encode.records", stats.records);
    pass.count("trace.pack_encode.bytes_out", stats.packed_bytes);
    pass.count("trace.pack_encode.chunks", stats.chunks);
    pass.data.packed_bytes += stats.packed_bytes;
    pass.data.packed_records += stats.records;
}

// ---------------------------------------------------------------------
// suite16: plan -> Machine -> capture -> flat codec -> pack -> decode ->
// Cosmos at depths 1-4 -> report.
// ---------------------------------------------------------------------

pub fn suite16(pass: &mut Pass, seed: u64) -> Result<(), String> {
    for mut w in paper_generators(seed) {
        let cell = pass.tr.begin(CELL);
        let app = w.name();

        let mut machine = pass.tr.time("simx.machine", || {
            Machine::new(ProtocolConfig::paper(), SystemConfig::paper())
        });
        machine.set_app(app, w.iterations());
        for it in 0..w.iterations() {
            let plan = pass.tr.time("workloads.plan", || w.plan(it));
            pass.count("workloads.plan.accesses", plan.len() as u64);
            pass.tr
                .time("simx.machine", || {
                    driver::run_iteration(&mut machine, &plan, it)
                })
                .map_err(|e| sim_err(app, e))?;
        }
        let coherent = pass.tr.time("simx.verify", || machine.verify_coherence());
        pass.check(coherent.is_ok(), || format!("{app}: {coherent:?}"));
        let msgs = machine.stats().messages_total();
        pass.data.msgs += msgs;
        pass.count("simx.machine.msgs", msgs);
        pass.data.exec_ns += machine.execution_time_ns();
        let bundle = pass.tr.time("simx.capture", || machine.into_trace());
        let records = bundle.len() as u64;
        pass.count("simx.capture.records", records);
        let mut captured = Digest::default();
        pass.digest(&mut captured, bundle.records());

        let flat = pass
            .tr
            .time("trace.flat_encode", || codec::encode(&bundle))
            .map_err(|e| format!("{app}: flat encode: {e}"))?;
        let back = pass
            .tr
            .time("trace.flat_decode", || codec::decode(&flat))
            .map_err(|e| format!("{app}: flat decode: {e}"))?;
        pass.count("trace.flat_encode.records", records);
        pass.count("trace.flat_decode.records", records);
        let open = pass.tr.begin(CHECK);
        let same = back == bundle;
        pass.tr.end(open);
        pass.check(same, || format!("{app}: flat decode(encode) differs"));
        drop((flat, back));

        let (packed, stats) = pass
            .tr
            .time("trace.pack_encode", || pack_in_memory(&bundle))
            .map_err(|e| format!("{app}: pack: {e}"))?;
        note_pack(pass, &stats);
        drop(bundle);

        let reader = pass
            .tr
            .time("trace.pack_read", || {
                PackedTraceReader::new(Cursor::new(&packed[..]))
            })
            .map_err(|e| format!("{app}: packed trace unreadable: {e}"))?;
        let mut chunks: Vec<Vec<MsgRecord>> = Vec::with_capacity(reader.chunk_count());
        let decoded = read_windows(pass, reader, |_, window| chunks.extend(window))
            .map_err(|e| format!("{app}: {e}"))?;
        pass.check(decoded == (records, captured), || {
            format!("{app}: decoded stream differs from the captured one")
        });

        let mut snap = obs::Snapshot::new();
        pass.tr.time("obs.export", || stats.export_obs(&mut snap));
        for depth in 1..=4usize {
            let report = score(pass, chunks.iter().map(Vec::as_slice), |_, _| {
                Box::new(CosmosPredictor::new(depth, 0))
            });
            pass.check(report.overall.total == records, || {
                format!(
                    "{app}: depth {depth} scored {} of {records}",
                    report.overall.total
                )
            });
            pass.data.table5.push(report.overall.percent());
            if depth == 2 {
                pass.data.accuracy.merge(report.overall);
            }
            black_box(pass.tr.time("cosmos.report", || report.render_summary()));
            pass.tr
                .time("obs.export", || report.export_obs(depth, &mut snap));
        }
        black_box(pass.tr.time("obs.export", || snap.to_json()));

        pass.close_cell(captured);
        pass.tr.end(cell);
    }
    Ok(())
}

/// Cross-checks a `suite16` pass against the library's own one-call
/// paths, once per run and outside the timed passes (a depth-2 replay of
/// the whole suite is a tenth of a pass): `workloads::run_to_trace` must
/// capture the stream the written-out loop captured, and
/// `evaluate_cosmos` on that in-memory bundle must score what the
/// chunked replay of the packed stream scored at depth 2.
pub fn suite16_reference(pass: &mut Pass, seed: u64, first: &PassData) -> Result<(), String> {
    for (row, mut w) in paper_generators(seed).into_iter().enumerate() {
        let app = w.name();
        let bundle =
            workloads::run_to_trace(w.as_mut(), ProtocolConfig::paper(), SystemConfig::paper())
                .map_err(|e| sim_err(app, e))?;
        let mut digest = Digest::default();
        digest.records(bundle.records());
        pass.check(first.cell_digests.get(row) == Some(&digest), || {
            format!("{app}: run_to_trace captured another stream")
        });
        let whole = cosmos::eval::evaluate_cosmos(&bundle, 2, 0)
            .overall
            .percent();
        pass.check(first.table5.get(4 * row + 1) == Some(&whole), || {
            format!("{app}: chunked depth-2 accuracy differs from evaluate_cosmos ({whole})")
        });
    }
    Ok(())
}

fn pack_in_memory(bundle: &TraceBundle) -> Result<(Vec<u8>, PackStats), trace::pack::PackError> {
    let mut writer = PackedTraceWriter::new(Cursor::new(Vec::new()), bundle.meta(), CHUNK_RECORDS)?;
    writer.push_all(bundle.records())?;
    let (cursor, stats) = writer.finish()?;
    Ok((cursor.into_inner(), stats))
}

/// Reads a packed trace in sequential [`DECODE_WINDOW`]-chunk windows of
/// `read_chunk_raw` then `decode` (one reader, as `tracepack` does), and
/// hands each decoded window to `sink`. Returns the decoded record count
/// and digest.
fn read_windows<R: Read + Seek>(
    pass: &mut Pass,
    mut reader: PackedTraceReader<R>,
    mut sink: impl FnMut(&mut Pass, Vec<Vec<MsgRecord>>),
) -> Result<(u64, Digest), String> {
    let chunk_count = reader.chunk_count();
    let mut decoded = (0u64, Digest::default());
    let mut lo = 0;
    while lo < chunk_count {
        let hi = (lo + DECODE_WINDOW).min(chunk_count);
        let mut raw = Vec::with_capacity(hi - lo);
        for i in lo..hi {
            let chunk = pass
                .tr
                .time("trace.pack_read", || reader.read_chunk_raw(i))
                .map_err(|e| format!("chunk {i} unreadable: {e}"))?;
            pass.count("trace.pack_read.bytes_in", chunk.payload.len() as u64);
            raw.push(chunk);
        }
        let mut window = Vec::with_capacity(raw.len());
        for chunk in &raw {
            let records = pass
                .tr
                .time("trace.pack_decode", || chunk.decode())
                .map_err(|e| format!("chunk {} failed to decode: {e}", chunk.number))?;
            pass.count("trace.pack_decode.records", records.len() as u64);
            decoded.0 += records.len() as u64;
            pass.digest(&mut decoded.1, &records);
            window.push(records);
        }
        sink(pass, window);
        lo = hi;
    }
    Ok(decoded)
}

// ---------------------------------------------------------------------
// spec16: ConcurrentMachine plain, then speculating, then Cosmos on the
// plain trace, as `repro speedup` does per benchmark at depth 2.
// ---------------------------------------------------------------------

/// Depth of the speculating fleet and of the accuracy evaluation.
const SPEC_DEPTH: usize = 2;

struct ConcurrentCell {
    exec_ns: u64,
    msgs: u64,
    rollback: RollbackTally,
    trace: TraceBundle,
    engine_s: f64,
}

/// One benchmark on the message-level engine (`speedup::run_cell`).
/// `layer` names the span of the engine calls (see [`Pass::engine`]).
fn concurrent_cell(
    pass: &mut Pass,
    w: &mut dyn Workload,
    policy: Option<Box<dyn SpeculationPolicy>>,
    layer: Option<&'static str>,
) -> Result<ConcurrentCell, String> {
    let app = w.name();
    let mut engine_s = 0.0;
    let mut machine = pass.engine(layer, &mut engine_s, || {
        ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper())
    });
    machine.set_app(app, w.iterations());
    if let Some(p) = policy {
        machine.set_policy(p);
    }
    for it in 0..w.iterations() {
        let plan = pass.tr.time("workloads.plan", || w.plan(it));
        pass.count("workloads.plan.accesses", plan.len() as u64);
        pass.engine(layer, &mut engine_s, || machine.run_plan(&plan, it))
            .map_err(|e| sim_err(app, e))?;
    }
    let coherent = pass.tr.time("simx.verify", || machine.verify_coherence());
    pass.check(coherent.is_ok(), || format!("{app}: {coherent:?}"));
    let exec_ns = machine.execution_time_ns();
    let msgs = machine.stats().messages_total();
    let rollback = machine.rollback_tally().clone();
    let trace = pass.tr.time("simx.capture", || machine.into_trace());
    pass.count("simx.capture.records", trace.len() as u64);
    Ok(ConcurrentCell {
        exec_ns,
        msgs,
        rollback,
        trace,
        engine_s,
    })
}

/// A fresh instance of benchmark `i` (`speedup::fresh`): plans are pure
/// functions of the generator parameters.
fn fresh(seed: u64, i: usize) -> Box<dyn Workload> {
    paper_generators(seed).swap_remove(i)
}

pub fn spec16(pass: &mut Pass, seed: u64) -> Result<(), String> {
    for i in 0..paper_generators(seed).len() {
        let cell = pass.tr.begin(CELL);
        let mut w = fresh(seed, i);
        let app = w.name();

        let plain = concurrent_cell(pass, w.as_mut(), None, Some("simx.concurrent"))?;
        pass.count("simx.concurrent.msgs", plain.msgs);
        let mut captured = Digest::default();
        pass.digest(&mut captured, plain.trace.records());

        let policy = Box::new(SpeculatePolicy::new(SPEC_DEPTH, Some(SPEC_THRESHOLD)));
        let spec = concurrent_cell(
            pass,
            fresh(seed, i).as_mut(),
            Some(policy),
            Some("simx.concurrent_spec"),
        )?;
        pass.count("simx.concurrent_spec.msgs", spec.msgs);
        pass.count("accel.spec.pushes", spec.rollback.pushes);
        pass.count("accel.spec.confirmed", spec.rollback.confirmed);
        pass.count("accel.spec.rolled_back", spec.rollback.rolled_back);
        pass.count("accel.spec.early_acks", spec.rollback.early_acks);
        let mut spec_captured = Digest::default();
        pass.digest(&mut spec_captured, spec.trace.records());
        drop(spec.trace);

        let report = score(pass, [plain.trace.records()], |_, _| {
            Box::new(CosmosPredictor::new(SPEC_DEPTH, 1))
        });
        let records = plain.trace.len() as u64;
        pass.check(report.overall.total == records, || {
            format!("{app}: scored {} of {records}", report.overall.total)
        });
        pass.check(spec.exec_ns > 0, || {
            format!("{app}: speculating run took no time")
        });

        pass.data.msgs += plain.msgs + spec.msgs;
        pass.data.exec_ns += plain.exec_ns + spec.exec_ns;
        pass.data.accuracy.merge(report.overall);
        pass.data
            .speedups
            .push(plain.exec_ns as f64 / spec.exec_ns.max(1) as f64);
        pass.close_cell(captured);
        pass.data.digest.chain(spec_captured);
        pass.tr.end(cell);
    }
    Ok(())
}

/// The traced run's extra cell: the five benchmarks again under an
/// infinite-threshold policy, which trains on every message and never
/// fires. Returns the engine seconds it took; the caller subtracts the
/// plain cell's to get the cost of the overlay. Each trace must equal
/// the plain cell's (the PR 8 byte-identity differential).
pub fn spec16_overlay(pass: &mut Pass, seed: u64, plain: &[Digest]) -> Result<f64, String> {
    let mut engine_s = 0.0;
    for (i, want) in plain.iter().enumerate() {
        let policy = Box::new(SpeculatePolicy::new(SPEC_DEPTH, None));
        let mut w = fresh(seed, i);
        let app = w.name();
        let cell = concurrent_cell(pass, w.as_mut(), Some(policy), None)?;
        engine_s += cell.engine_s;
        let mut got = Digest::default();
        got.records(cell.trace.records());
        pass.check(got == *want, || {
            format!("{app}: never-firing policy changed the trace")
        });
    }
    Ok(engine_s)
}

// ---------------------------------------------------------------------
// stream64 / scale1024: Scale -> ShardedMachine -> per-iteration drain
// -> packed writer -> windowed read + decode -> bounded-memory fleet.
// ---------------------------------------------------------------------

/// Shape of a streaming cell.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    pub nodes: usize,
    pub private_per_node: usize,
    pub iterations: u32,
}

/// `tracepack`'s streaming cell at 64 nodes rather than 512, so the
/// table-eviction regime (12 000 records per agent against an 8192-entry
/// table) is reached in seconds.
pub const STREAM64: StreamShape = StreamShape {
    nodes: 64,
    private_per_node: 0,
    iterations: 12_000,
};

/// The wide, large-footprint engine cell: 1.67 M distinct blocks.
pub const SCALE1024: StreamShape = StreamShape {
    nodes: 1024,
    private_per_node: 16,
    iterations: 96,
};

struct Produced<W> {
    sink: W,
    stats: PackStats,
    captured: Digest,
    records: u64,
    engine_s: f64,
}

/// Runs the sharded engine, draining each iteration's records into
/// `sink` (`run_sharded_streaming` with `tracepack`'s configuration).
/// `layer` names the span of the engine calls (see [`Pass::engine`]);
/// only a spanned cell adds to the pass's deterministic outputs.
fn produce<W: Write + Seek>(
    pass: &mut Pass,
    shape: StreamShape,
    shards: usize,
    sink: W,
    layer: Option<&'static str>,
) -> Result<Produced<W>, String> {
    let mut w = Scale::new(shape.nodes, shape.private_per_node, shape.iterations);
    let proto = w.proto();
    let meta = TraceMeta::new(w.name(), proto.nodes, shape.iterations);
    let mut writer = pass
        .tr
        .time("trace.pack_encode", || {
            PackedTraceWriter::new(sink, &meta, CHUNK_RECORDS)
        })
        .map_err(|e| format!("stream writer: {e}"))?;

    let mut engine_s = 0.0;
    let mut machine = pass.engine(layer, &mut engine_s, || {
        ShardedMachine::new(proto, SystemConfig::paper(), shards)
    });
    machine.set_app(w.name(), shape.iterations);
    machine.set_ring_enabled(false);
    machine.set_audit_barriers(false);

    let mut captured = Digest::default();
    let mut records = 0u64;
    for it in 0..shape.iterations {
        let plan = pass.tr.time("workloads.plan", || w.plan(it));
        pass.count("workloads.plan.accesses", plan.len() as u64);
        pass.engine(layer, &mut engine_s, || machine.run_plan(&plan, it))
            .map_err(|e| sim_err("scale", e))?;
        let batch = pass
            .tr
            .time("simx.capture", || machine.drain_trace_records());
        if batch.is_empty() {
            continue;
        }
        records += batch.len() as u64;
        pass.digest(&mut captured, &batch);
        pass.tr
            .time("trace.pack_encode", || writer.push_all(&batch))
            .map_err(|e| format!("stream pack: {e}"))?;
    }
    let coherent = pass.tr.time("simx.verify", || {
        machine.verify_coherence_sampled(VERIFY_SAMPLE)
    });
    pass.check(coherent.is_ok(), || format!("scale: {coherent:?}"));
    if layer.is_some() {
        let stats = machine.stats();
        pass.data.msgs += stats.messages_total();
        pass.data.exec_ns += machine.execution_time_ns();
        pass.count("simx.shard.msgs", stats.messages_total());
        pass.count("simx.shard.accesses", stats.accesses());
        pass.count("simx.shard.windows", machine.windows());
        pass.count("simx.capture.records", records);
    }
    let (sink, stats) = pass
        .tr
        .time("trace.pack_encode", || writer.finish())
        .map_err(|e| format!("stream finish: {e}"))?;
    Ok(Produced {
        sink,
        stats,
        captured,
        records,
        engine_s,
    })
}

/// Replays a packed stream through the bounded-memory fleet and checks
/// it against what the engine captured.
fn consume<R: Read + Seek>(
    pass: &mut Pass,
    reader: PackedTraceReader<R>,
    captured: (u64, Digest),
) -> Result<(), String> {
    let mut eval = StreamEval::new(EvalOptions::default(), |_, _| {
        Box::new(EvictingCosmos::new(2, 0, REPLAY_MHT_CAPACITY)) as Box<dyn MessagePredictor>
    });
    let decoded = read_windows(pass, reader, |pass, window| {
        for chunk in &window {
            pass.tr.time("cosmos.score", || eval.push_all(chunk));
        }
    })?;
    let report = finish(pass, eval);
    pass.check(decoded == captured, || {
        "scale: decoded stream differs from the captured one".to_string()
    });
    // Scale traces score 0 % by construction (each handoff block reaches
    // an agent once), so the check is on coverage, not accuracy.
    pass.check(report.overall.total == captured.0, || {
        format!("scale: scored {} of {}", report.overall.total, captured.0)
    });
    pass.data.accuracy.merge(report.overall);
    Ok(())
}

/// `stream64`: the packed stream goes through a file at `path`.
pub fn stream_on_disk(pass: &mut Pass, shape: StreamShape, path: &Path) -> Result<(), String> {
    let cell = pass.tr.begin(CELL);
    let file = pass
        .tr
        .time("trace.pack_encode", || File::create(path))
        .map_err(|e| format!("creating {}: {e}", path.display()))?;
    let out = produce(pass, shape, 1, BufWriter::new(file), Some("simx.shard"))?;
    pass.tr
        .time("trace.pack_encode", || {
            let file = out.sink.into_inner().map_err(|e| e.into_error())?;
            file.sync_all()
        })
        .map_err(|e| format!("flushing {}: {e}", path.display()))?;
    note_pack(pass, &out.stats);

    let reader = pass
        .tr
        .time("trace.pack_read", || PackedTraceReader::open(path))
        .map_err(|e| format!("reopening {}: {e}", path.display()))?;
    consume(pass, reader, (out.records, out.captured))?;
    pass.close_cell(out.captured);
    pass.tr.end(cell);
    Ok(())
}

/// `scale1024`: the packed stream stays in memory.
pub fn stream_in_memory(pass: &mut Pass, shape: StreamShape) -> Result<(), String> {
    let cell = pass.tr.begin(CELL);
    let out = produce(pass, shape, 1, Cursor::new(Vec::new()), Some("simx.shard"))?;
    note_pack(pass, &out.stats);
    let packed = out.sink.into_inner();
    let reader = pass
        .tr
        .time("trace.pack_read", || {
            PackedTraceReader::new(Cursor::new(&packed[..]))
        })
        .map_err(|e| format!("packed stream unreadable: {e}"))?;
    consume(pass, reader, (out.records, out.captured))?;
    pass.close_cell(out.captured);
    pass.tr.end(cell);
    Ok(())
}

/// The traced run's extra cell: the engine half of `shape` again at
/// `shards` threads, packed stream discarded. Returns the engine seconds;
/// the records must equal the shards-1 capture (byte identity at any
/// shard count).
pub fn shard_cell(
    pass: &mut Pass,
    shape: StreamShape,
    shards: usize,
    want: Digest,
) -> Result<f64, String> {
    let out = produce(pass, shape, shards, Cursor::new(Vec::new()), None)?;
    pass.check(out.captured == want, || {
        format!("scale: shards {shards} changed the trace")
    });
    Ok(out.engine_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::paper_suite;

    #[test]
    fn seed_zero_is_the_committed_default_suite() {
        for (mut ours, mut theirs) in paper_generators(0).into_iter().zip(paper_suite()) {
            assert_eq!(ours.name(), theirs.name());
            assert_eq!(ours.iterations(), theirs.iterations());
            for it in 0..3 {
                assert_eq!(ours.plan(it), theirs.plan(it), "{} plan {it}", ours.name());
            }
        }
    }

    #[test]
    fn another_seed_gives_another_access_stream() {
        for (mut a, mut b) in paper_generators(0).into_iter().zip(paper_generators(1)) {
            assert!(
                (0..3).any(|it| a.plan(it) != b.plan(it)),
                "{} ignores the seed",
                a.name()
            );
        }
    }

    #[test]
    fn paper_error_is_the_mean_absolute_cell_difference() {
        let mut data = PassData::default();
        assert_eq!(data.paper_error_pp(), 0.0);
        data.table5 = PAPER_TABLE5_OVERALL
            .iter()
            .flatten()
            .map(|p| p + 2.0)
            .collect();
        data.table5[0] -= 4.0;
        assert!((data.paper_error_pp() - 2.0).abs() < 1e-12);
        data.speedups = vec![2.0, 0.5];
        assert!((data.sim_speedup() - 1.0).abs() < 1e-12);
    }
}
