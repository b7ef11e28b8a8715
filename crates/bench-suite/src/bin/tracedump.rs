//! Trace tooling for downstream users: generate, inspect, and evaluate
//! coherence-message traces as files.
//!
//! ```text
//! tracedump gen <benchmark> <out.trace> [--small]   generate a trace file
//! tracedump info <file.trace>                       header + volume stats
//! tracedump arcs <file.trace>                       dominant signatures
//! tracedump eval <file.trace> [depth] [filter]      Cosmos accuracy
//! tracedump obs <file.trace> [depth]                metrics as obs.v1 JSON
//! tracedump dump <file.trace> [limit]               records as text
//! tracedump seq <file.trace> <block> [limit]        sequence diagram
//! ```
//!
//! A trace file is exactly [`trace::codec`]'s `CTR1` bytes. A number that
//! does not parse, or a depth outside `1..=`[`MAX_DEPTH`], is a one-line
//! error and exit status 1; a reader that closes the pipe early (`dump … |
//! head`) is a clean exit.

use bench_suite::traces::single_trace;
use bench_suite::Scale;
use cosmos::eval::evaluate_cosmos;
use cosmos::packed::MAX_DEPTH;
use simx::SystemConfig;
use stache::{ProtocolConfig, Role};
use std::io::{self, Write};
use std::process::ExitCode;
use trace::{codec, TraceBundle, TraceStats};

const USAGE: &str = "usage:\n  tracedump gen <benchmark> <out.trace> [--small]\n  \
     tracedump info <file.trace>\n  tracedump arcs <file.trace>\n  \
     tracedump eval <file.trace> [depth] [filter]\n  \
     tracedump obs <file.trace> [depth]\n  \
     tracedump dump <file.trace> [limit]\n  \
     tracedump seq <file.trace> <block> [limit]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        // `dump … | head`: the reader has what it wanted.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Something to tell the user, travelling the same way a failing stdout
/// does.
fn failure(message: String) -> io::Error {
    io::Error::other(message)
}

/// The optional number at `args[i]`: `default` when absent, an error when
/// it does not parse.
fn number<T: std::str::FromStr>(
    args: &[String],
    i: usize,
    what: &str,
    default: T,
) -> io::Result<T> {
    args.get(i).map_or(Ok(default), |s| {
        s.parse()
            .map_err(|_| failure(format!("tracedump: {what} `{s}` is not a valid number")))
    })
}

/// The optional MHR depth at `args[i]` (default 1), checked against what
/// the packed history word holds.
fn depth_arg(args: &[String], i: usize) -> io::Result<usize> {
    let depth = number(args, i, "depth", 1)?;
    if !(1..=MAX_DEPTH).contains(&depth) {
        return Err(failure(format!(
            "tracedump: depth {depth} is outside 1..={MAX_DEPTH}"
        )));
    }
    Ok(depth)
}

fn load(path: &str) -> io::Result<TraceBundle> {
    let bytes = std::fs::read(path).map_err(|e| failure(format!("reading {path}: {e}")))?;
    codec::decode(&bytes).map_err(|e| failure(format!("reading {path}: {e}")))
}

fn run(args: &[String], out: &mut impl Write) -> io::Result<()> {
    let cmd = args.first().map(String::as_str);
    match (cmd.unwrap_or(""), args.len()) {
        ("gen", 3..=4) => {
            let scale = if args.get(3).is_some_and(|a| a == "--small") {
                Scale::Small
            } else {
                Scale::Paper
            };
            let proto = ProtocolConfig::paper();
            let bundle = single_trace(&args[1], scale, proto, SystemConfig::paper())
                .map_err(|e| failure(format!("tracedump gen: {e}")))?;
            let path = &args[2];
            let bytes =
                codec::encode(&bundle).map_err(|e| failure(format!("writing {path}: {e}")))?;
            std::fs::write(path, bytes).map_err(|e| failure(format!("writing {path}: {e}")))?;
            writeln!(out, "{path}: {} records written", bundle.len())?;
        }
        ("info", 2) => {
            let bundle = load(&args[1])?;
            let meta = bundle.meta();
            writeln!(
                out,
                "app={} nodes={} iterations={}",
                meta.app, meta.nodes, meta.iterations
            )?;
            write!(out, "{}", TraceStats::compute(&bundle))?;
        }
        ("arcs", 2) => {
            let report = evaluate_cosmos(&load(&args[1])?, 1, 0);
            for role in [Role::Cache, Role::Directory] {
                writeln!(out, "dominant arcs at the {role}:")?;
                for (key, _, share) in report.dominant_arcs(role, 8) {
                    writeln!(
                        out,
                        "  {:<22} -> {:<22} {:>8} refs ({:>4.1}%)",
                        key.prev.paper_name(),
                        key.next.paper_name(),
                        report.per_arc[&key].total,
                        share
                    )?;
                }
            }
        }
        ("eval", 2..=4) => {
            let depth = depth_arg(args, 2)?;
            let filter: u8 = number(args, 3, "filter", 0)?;
            let report = evaluate_cosmos(&load(&args[1])?, depth, filter);
            writeln!(out, "depth {depth}, filter {filter}")?;
            write!(out, "{}", report.render_summary())?;
        }
        ("obs", 2..=3) => {
            let depth = depth_arg(args, 2)?;
            let bundle = load(&args[1])?;
            let mut snap = obs::Snapshot::new();
            TraceStats::compute(&bundle).export_obs(&mut snap);
            evaluate_cosmos(&bundle, depth, 0).export_obs(depth, &mut snap);
            write!(out, "{}", snap.to_json())?;
        }
        ("seq", 3..=4) => {
            let block: u64 = number(args, 2, "block", 0)?;
            let limit = number(args, 3, "limit", 24)?;
            print_sequence(out, &load(&args[1])?, block, limit)?;
        }
        ("dump", 2..=3) => {
            let limit = number(args, 2, "limit", 20)?;
            let bundle = load(&args[1])?;
            for r in bundle.records().iter().take(limit) {
                writeln!(out, "{r}")?;
            }
            if bundle.len() > limit {
                writeln!(out, "... ({} more records)", bundle.len() - limit)?;
            }
        }
        _ => return Err(failure(USAGE.to_string())),
    }
    Ok(())
}

/// Prints a Figure 1-style message sequence diagram for one block: each
/// line is one message reception, drawn between the sender's and
/// receiver's columns.
fn print_sequence(
    out: &mut impl Write,
    bundle: &TraceBundle,
    block: u64,
    limit: usize,
) -> io::Result<()> {
    let block = stache::BlockAddr::new(block);
    let records: Vec<_> = bundle.for_block(block).collect();
    if records.is_empty() {
        return writeln!(out, "no messages for {block} in this trace");
    }
    // Columns: the nodes that participate, in index order.
    let mut nodes: Vec<usize> = records
        .iter()
        .flat_map(|r| [r.node.index(), r.sender.index()])
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    write!(out, "{:>10} ", "time(ns)")?;
    for n in &nodes {
        write!(out, "{:^12}", format!("P{n}"))?;
    }
    writeln!(out)?;
    for r in records.iter().take(limit) {
        write!(out, "{:>10} ", r.time_ns)?;
        let from = nodes.iter().position(|&n| n == r.sender.index()).unwrap();
        let to = nodes.iter().position(|&n| n == r.node.index()).unwrap();
        let (lo, hi) = (from.min(to), from.max(to));
        for (i, _) in nodes.iter().enumerate() {
            let mark = if i == from {
                "o"
            } else if i == to {
                if to > from {
                    ">"
                } else {
                    "<"
                }
            } else if i > lo && i < hi {
                "-"
            } else {
                "."
            };
            write!(out, "{mark:^12}")?;
        }
        writeln!(out, "  {}", r.mtype.paper_name())?;
    }
    if records.len() > limit {
        writeln!(
            out,
            "... ({} more messages for this block)",
            records.len() - limit
        )?;
    }
    Ok(())
}
