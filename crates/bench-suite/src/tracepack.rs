//! The `repro tracepack` target: packed-trace codec compression and the
//! streaming cell (DESIGN.md §6j).
//!
//! Two questions, one report:
//!
//! 1. **How small** — each benchmark's trace is packed with the chunked
//!    columnar codec ([`trace::pack`]) and the byte totals are compared
//!    against the flat 26-byte record codec. The compression ratio is a
//!    pure function of the record stream, so it is CSV-golden material.
//! 2. **How bounded** — a streaming [`workloads::Scale`] cell runs on the
//!    sharded engine with its per-iteration trace drained straight into a
//!    [`trace::pack::PackedTraceWriter`] (the full record set is never
//!    materialised), then decoded chunk-parallel over [`crate::par::sweep`]
//!    and replayed chunk-by-chunk through a predictor fleet.
//!
//! Every column is simulation-deterministic (`tracepack.csv` is
//! golden-diffed in CI as `tracepack_small.csv`); encode / decode / replay
//! host throughput is the pipeline benchmark's to measure (`benchmark/run.sh
//! --workload stream64`, layers `trace.pack_*` and `cosmos.score`).

use crate::contenders::by_label;
use crate::traces::Scale as RunScale;
use crate::TraceSet;
use cosmos::StreamEval;
use simx::{SimError, SystemConfig};
use std::fmt;
use std::io::{Cursor, Read, Seek};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use trace::pack::{PackError, PackStats, PackedTraceReader, PackedTraceWriter};
use trace::MsgRecord;
use workloads::{run_sharded_streaming, Scale as ScaleWorkload, StreamingRunError, Workload};

/// Records per packed chunk. Sized for codec efficiency: dictionary and
/// LZ context amortise over the chunk.
pub fn chunk_records(scale: RunScale) -> u32 {
    match scale {
        RunScale::Small => 256,
        RunScale::Paper => 4096,
    }
}

/// One benchmark's packing outcome.
#[derive(Debug, Clone)]
pub struct PackRow {
    /// Benchmark name.
    pub app: String,
    /// Codec byte totals (records, chunks, flat vs packed bytes).
    pub stats: PackStats,
}

/// The streaming cell's outcome: stream and codec totals.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRow {
    /// Nodes in the streamed cell.
    pub nodes: usize,
    /// Workload iterations.
    pub iterations: u32,
    /// Codec totals for the streamed trace.
    pub stats: PackStats,
    /// Largest per-iteration drain handed to the writer — the actual
    /// peak record-buffer footprint of the streaming encode path.
    pub max_drain: usize,
    /// Records replayed through the predictor fleet chunk-by-chunk.
    pub replayed: u64,
    /// Replay accuracy (percent) of the bounded-memory fleet — pinned so
    /// the streaming path provably feeds real records, not padding.
    pub replay_pct: f64,
}

/// The whole `tracepack` report.
#[derive(Debug, Clone)]
pub struct TracepackReport {
    /// Per-benchmark packing rows, Table 4 order.
    pub pack: Vec<PackRow>,
    /// The streaming scale cell.
    pub stream: StreamRow,
}

/// Decodes every chunk of a packed trace; the chunks come back in stream
/// order.
pub fn decode_parallel(bytes: &[u8]) -> Vec<Vec<MsgRecord>> {
    let mut r = PackedTraceReader::new(Cursor::new(bytes))
        .unwrap_or_else(|e| panic!("packed trace unreadable: {e}"));
    let all = 0..r.chunk_count();
    decode_chunks(&mut r, all).unwrap_or_else(|e| panic!("{e}"))
}

/// Decodes a run of chunks, in order. The one reader pulls the raw
/// (still-compressed) chunks — sequential I/O plus an index lookup — and
/// only the LZ + column decode fans out over [`crate::par::sweep`]:
/// chunks decode independently (own dictionary, own CRC), which is the
/// format feature this path exists to exploit. Opening a reader per chunk
/// would re-parse the whole index each time: quadratic in chunk count,
/// ruinous at 10^8 records.
fn decode_chunks<R: Read + Seek>(
    reader: &mut PackedTraceReader<R>,
    chunks: std::ops::Range<usize>,
) -> Result<Vec<Vec<MsgRecord>>, StreamCellError> {
    let first = chunks.start;
    let raw = chunks
        .map(|i| {
            reader
                .read_chunk_raw(i)
                .map_err(|e| StreamCellError::ChunkRead(i, e))
        })
        .collect::<Result<Vec<_>, _>>()?;
    crate::par::sweep(raw.len(), |i| {
        raw[i]
            .decode()
            .map_err(|e| StreamCellError::Decode(first + i, e))
    })
    .into_iter()
    .collect()
}

/// The streaming cell per scale: small is the CI smoke (deterministic
/// golden columns); paper is the ≥10⁸-message cell that motivates the
/// format — its flat record set (~2.6 GB) is never materialised: records
/// stream from the engine into the packed writer per iteration, and the
/// replay decodes a bounded window of chunks at a time.
pub fn stream_cell(scale: RunScale) -> (usize, usize, u32) {
    match scale {
        RunScale::Small => (64, 2, 4),
        RunScale::Paper => (512, 0, 100_000),
    }
}

/// Chunks decoded per parallel window during the streamed replay. Bounds
/// replay memory at `window × chunk_records` records while still giving
/// [`crate::par::sweep`] a batch to fan out.
pub const DECODE_WINDOW: usize = 64;

/// The [contender](crate::contenders) the streamed cell replays through:
/// depth-2 Cosmos with each agent's MHT bounded to 8192 blocks. The cell
/// touches millions of distinct blocks; an unbounded fleet would grow a
/// table entry for every one of them, a bounded one keeps predictor
/// memory O(fleet × capacity) regardless of trace length.
pub const REPLAY_FLEET: &str = "evict 8192";

/// Why the streaming cell produced no row (or a packed trace did not
/// decode): the step that failed, on which file or chunk number. The
/// cell's temporary file is gone either way.
#[derive(Debug)]
pub enum StreamCellError {
    /// The temporary file could not be created.
    Create(PathBuf, std::io::Error),
    /// Writing the packed stream failed: header, a chunk, the index, the
    /// final flush or the sync.
    Write(PathBuf, PackError),
    /// The simulation itself failed.
    Sim(SimError),
    /// The finished file could not be reopened for the replay.
    Reopen(PathBuf, PackError),
    /// A chunk could not be read back from the file.
    ChunkRead(usize, PackError),
    /// A chunk read back but did not decode.
    Decode(usize, PackError),
}

impl fmt::Display for StreamCellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use StreamCellError::*;
        f.write_str("tracepack: ")?;
        match self {
            Create(path, e) => write!(f, "creating {}: {e}", path.display()),
            Write(path, e) => write!(f, "writing {}: {e}", path.display()),
            Sim(e) => write!(f, "simulation failed: {e}"),
            Reopen(path, e) => write!(f, "reopening {}: {e}", path.display()),
            ChunkRead(chunk, e) => write!(f, "chunk {chunk} unreadable: {e}"),
            Decode(chunk, e) => write!(f, "chunk {chunk} failed to decode: {e}"),
        }
    }
}

// The message already carries the failing step's own error.
impl std::error::Error for StreamCellError {}

/// Stream cells this process has started: with the pid, what keeps two
/// concurrent cells (or two test threads) off each other's file.
static STREAM_CELLS: AtomicU64 = AtomicU64::new(0);

/// Runs the streaming cell: simulate on the sharded engine, drain each
/// iteration's records straight into a packed writer over a temporary
/// file, then decode in chunk-parallel windows feeding a chunk-by-chunk
/// predictor replay. At no point does the full record set exist in
/// memory — the peaks are one iteration's drain (encode side) and
/// [`DECODE_WINDOW`] chunks (replay side).
///
/// # Errors
///
/// A [`StreamCellError`] naming the step that failed; the temporary file
/// is removed whether the cell succeeds or not.
pub fn run_stream_cell(scale: RunScale) -> Result<StreamRow, StreamCellError> {
    run_stream_cell_in(&std::env::temp_dir(), scale)
}

fn run_stream_cell_in(dir: &Path, scale: RunScale) -> Result<StreamRow, StreamCellError> {
    let path = dir.join(format!(
        "tracepack_stream_{}_{}.cpk",
        std::process::id(),
        STREAM_CELLS.fetch_add(1, Ordering::Relaxed)
    ));
    let row = stream_through(&path, scale);
    let _ = std::fs::remove_file(&path);
    row
}

fn stream_through(path: &Path, scale: RunScale) -> Result<StreamRow, StreamCellError> {
    let (nodes, private_per_node, iterations) = stream_cell(scale);
    let chunk = chunk_records(scale);
    let mut w = ScaleWorkload::new(nodes, private_per_node, iterations);
    let proto = w.proto();
    let meta = trace::TraceMeta::new(w.name(), proto.nodes, iterations);
    let shards = crate::scale::default_shards(nodes);
    let write_failed = |e: PackError| StreamCellError::Write(path.into(), e);

    let file = std::fs::File::create(path).map_err(|e| StreamCellError::Create(path.into(), e))?;
    let mut writer = PackedTraceWriter::new(std::io::BufWriter::new(file), &meta, chunk)
        .map_err(write_failed)?;
    let mut max_drain = 0usize;
    run_sharded_streaming(
        &mut w,
        proto,
        SystemConfig::paper(),
        shards,
        Some(4096),
        |m| m.set_audit_barriers(false),
        |batch| {
            max_drain = max_drain.max(batch.len());
            writer.push_all(&batch)
        },
    )
    .map_err(|e| match e {
        StreamingRunError::Sim(e) => StreamCellError::Sim(e),
        StreamingRunError::Sink(e) => write_failed(e),
    })?;
    let (buf, stats) = writer.finish().map_err(write_failed)?;
    let file = buf
        .into_inner()
        .map_err(|e| write_failed(PackError::Io(e.into_error())))?;
    file.sync_all()
        .map_err(|e| write_failed(PackError::Io(e)))?;

    // Windowed replay: a window of chunks is decoded, feeds the fleet in
    // stream order, is dropped, repeat.
    let mut reader =
        PackedTraceReader::open(path).map_err(|e| StreamCellError::Reopen(path.into(), e))?;
    let chunk_count = reader.chunk_count();
    let mut ev = StreamEval::new(Default::default(), by_label(REPLAY_FLEET));
    for lo in (0..chunk_count).step_by(DECODE_WINDOW) {
        let hi = (lo + DECODE_WINDOW).min(chunk_count);
        for chunk in decode_chunks(&mut reader, lo..hi)? {
            ev.push_all(&chunk);
        }
    }
    let report = ev.finish();

    Ok(StreamRow {
        nodes,
        iterations,
        stats,
        max_drain,
        replayed: report.overall.total,
        replay_pct: report.overall.percent(),
    })
}

/// Builds the full report from the shared trace set.
///
/// # Errors
///
/// The streaming cell's [`StreamCellError`].
pub fn tracepack(set: &TraceSet, scale: RunScale) -> Result<TracepackReport, StreamCellError> {
    let chunk = chunk_records(scale);
    let mut pack = Vec::new();
    for bundle in set.traces() {
        let app = bundle.meta().app.clone();
        eprintln!("  tracepack: packing {app}...");
        let (bytes, stats) = trace::pack::pack_bundle_with_stats(bundle, chunk)
            .unwrap_or_else(|e| panic!("{app}: pack failed: {e}"));
        let chunks = decode_parallel(&bytes);
        let decoded: usize = chunks.iter().map(Vec::len).sum();
        assert_eq!(decoded as u64, stats.records, "{app}: decode lost records");
        pack.push(PackRow { app, stats });
    }
    eprintln!(
        "  tracepack: streaming scale cell ({} nodes)...",
        stream_cell(scale).0
    );
    let stream = run_stream_cell(scale)?;
    Ok(TracepackReport { pack, stream })
}

/// Renders the report for humans.
pub fn render_tracepack(r: &TracepackReport) -> String {
    let mut out = String::new();
    out.push_str("Packed-trace codec (chunked columnar + LZ) vs flat 26-byte records\n");
    out.push_str("  app            records  chunks  flat_bytes  packed_bytes  ratio\n");
    for p in &r.pack {
        out.push_str(&format!(
            "  {:<12}  {:>8}  {:>6}  {:>10}  {:>12}  {:>5.2}\n",
            p.app,
            p.stats.records,
            p.stats.chunks,
            p.stats.flat_bytes,
            p.stats.packed_bytes,
            p.stats.ratio(),
        ));
    }
    let st = &r.stream;
    out.push_str("\nStreaming scale cell (per-iteration drain -> packed writer)\n");
    out.push_str(&format!(
        "  {} nodes x {} iters: {} records in {} chunks, {} -> {} bytes (ratio {:.2}), \
         peak drain {} records\n",
        st.nodes,
        st.iterations,
        st.stats.records,
        st.stats.chunks,
        st.stats.flat_bytes,
        st.stats.packed_bytes,
        st.stats.ratio(),
        st.max_drain,
    ));
    out.push_str(&format!(
        "  {} records replayed through `{REPLAY_FLEET}`, depth-2 accuracy {:.2}%\n",
        st.replayed, st.replay_pct,
    ));
    out
}

/// The CSV artefact (`tracepack.csv`): every column is a
/// pure function of workload parameters, so the small run golden-diffs.
pub fn csv_tracepack(r: &TracepackReport) -> String {
    let mut out = String::from("section,app,records,chunks,flat_bytes,packed_bytes,ratio\n");
    for p in &r.pack {
        out.push_str(&format!(
            "pack,{},{},{},{},{},{:.4}\n",
            p.app,
            p.stats.records,
            p.stats.chunks,
            p.stats.flat_bytes,
            p.stats.packed_bytes,
            p.stats.ratio(),
        ));
    }
    let st = &r.stream;
    out.push_str(&format!(
        "stream,scale_n{},{},{},{},{},{:.4}\n",
        st.nodes,
        st.stats.records,
        st.stats.chunks,
        st.stats.flat_bytes,
        st.stats.packed_bytes,
        st.stats.ratio(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_report_is_deterministic_and_accurate() {
        let set = TraceSet::generate(RunScale::Small);
        let a = tracepack(&set, RunScale::Small).unwrap();
        let b = tracepack(&set, RunScale::Small).unwrap();
        assert_eq!(
            csv_tracepack(&a),
            csv_tracepack(&b),
            "CSV columns must be machine-deterministic"
        );
        assert_eq!(a.pack.len(), 5);
        for p in &a.pack {
            assert!(
                p.stats.ratio() >= 2.0,
                "{}: ratio {:.2} below the 2x floor",
                p.app,
                p.stats.ratio()
            );
        }
    }

    #[test]
    fn stream_cell_stays_bounded_and_replays() {
        let row = run_stream_cell(RunScale::Small).unwrap();
        assert!(row.stats.records > 0);
        assert!(
            (row.max_drain as u64) < row.stats.records,
            "the streaming path must never hold the whole trace"
        );
        assert!(row.replayed > 0);
        assert!(row.stats.ratio() >= 2.0);
    }

    #[test]
    fn concurrent_stream_cells_agree_and_leave_nothing_behind() {
        let dir = std::env::temp_dir().join(format!("tracepack_cells_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The barrier puts all four inside the cell at once; at the
        // parent they shared one path and truncated each other's file.
        let start = std::sync::Barrier::new(4);
        let rows: Vec<StreamRow> = std::thread::scope(|s| {
            let cells: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        run_stream_cell_in(&dir, RunScale::Small)
                    })
                })
                .collect();
            cells
                .into_iter()
                .map(|cell| cell.join().expect("cell thread panicked").unwrap())
                .collect()
        });
        assert!(rows.windows(2).all(|w| w[0] == w[1]), "{rows:?}");
        assert_eq!(rows[0], run_stream_cell(RunScale::Small).unwrap());
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "a cell left its file"
        );
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn a_cell_that_cannot_create_its_file_says_so_and_leaves_nothing() {
        let dir = std::env::temp_dir().join(format!("tracepack_no_dir_{}", std::process::id()));
        let err = run_stream_cell_in(&dir, RunScale::Small).unwrap_err();
        assert!(
            matches!(&err, StreamCellError::Create(path, _) if path.starts_with(&dir)),
            "{err}"
        );
        assert!(err.to_string().starts_with("tracepack: creating "), "{err}");
        assert!(!dir.exists());
    }

    #[test]
    fn parallel_decode_matches_sequential() {
        let set = TraceSet::generate(RunScale::Small);
        let bundle = &set.traces()[2]; // dsmc
        let (bytes, stats) = trace::pack::pack_bundle_with_stats(bundle, 128).unwrap();
        assert_eq!(stats.records, bundle.records().len() as u64);
        let chunks = decode_parallel(&bytes);
        let flat: Vec<MsgRecord> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, bundle.records(), "parallel decode must be lossless");
    }
}
