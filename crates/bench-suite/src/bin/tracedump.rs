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
//! Files use the `trace` crate's binary format (`CTR1`); `gen` writes with
//! the streaming writer, everything else reads with the streaming reader.

use bench_suite::traces::single_trace;
use bench_suite::Scale;
use cosmos::eval::evaluate_cosmos;
use simx::SystemConfig;
use stache::{ProtocolConfig, Role};
use std::process::ExitCode;
use trace::{io as trace_io, ArcTable, TraceStats};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  tracedump gen <benchmark> <out.trace> [--small]\n  \
         tracedump info <file.trace>\n  tracedump arcs <file.trace>\n  \
         tracedump eval <file.trace> [depth] [filter]\n  \
         tracedump obs <file.trace> [depth]\n  \
         tracedump dump <file.trace> [limit]\n  \
         tracedump seq <file.trace> <block> [limit]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match (cmd.as_str(), args.len()) {
        ("gen", 3..=4) => {
            let scale = if args.get(3).is_some_and(|a| a == "--small") {
                Scale::Small
            } else {
                Scale::Paper
            };
            let bundle = match single_trace(
                &args[1],
                scale,
                ProtocolConfig::paper(),
                SystemConfig::paper(),
            ) {
                Ok(bundle) => bundle,
                Err(e) => {
                    eprintln!("tracedump gen: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = trace_io::write_file(&args[2], &bundle) {
                eprintln!("writing {}: {e}", args[2]);
                return ExitCode::FAILURE;
            }
            println!("{}: {} records written", args[2], bundle.len());
            ExitCode::SUCCESS
        }
        ("info", 2) => with_bundle(&args[1], |bundle| {
            let stats = TraceStats::compute(bundle);
            println!(
                "app={} nodes={} iterations={}",
                bundle.meta().app,
                bundle.meta().nodes,
                bundle.meta().iterations
            );
            print!("{stats}");
        }),
        ("arcs", 2) => with_bundle(&args[1], |bundle| {
            let arcs = ArcTable::from_bundle(bundle);
            for role in [Role::Cache, Role::Directory] {
                println!("dominant arcs at the {role}:");
                for (key, count) in arcs.dominant(role).into_iter().take(8) {
                    println!(
                        "  {:<22} -> {:<22} {:>8} refs ({:>4.1}%)",
                        key.prev.paper_name(),
                        key.next.paper_name(),
                        count,
                        100.0 * arcs.share(key)
                    );
                }
            }
        }),
        ("eval", 2..=4) => {
            let depth: usize = args.get(2).map_or(Ok(1), |s| s.parse()).unwrap_or(1);
            let filter: u8 = args.get(3).map_or(Ok(0), |s| s.parse()).unwrap_or(0);
            with_bundle(&args[1], |bundle| {
                let r = evaluate_cosmos(bundle, depth.max(1), filter);
                println!("depth {depth}, filter {filter}");
                print!("{}", r.render_summary());
            })
        }
        ("obs", 2..=3) => {
            let depth: usize = args.get(2).map_or(Ok(1), |s| s.parse()).unwrap_or(1);
            with_bundle(&args[1], |bundle| {
                let mut snap = obs::Snapshot::new();
                TraceStats::compute(bundle).export_obs(&mut snap);
                evaluate_cosmos(bundle, depth.max(1), 0).export_obs(depth.max(1), &mut snap);
                print!("{}", snap.to_json());
            })
        }
        ("seq", 3..=4) => {
            let block: u64 = match args[2].parse() {
                Ok(b) => b,
                Err(_) => return usage(),
            };
            let limit: usize = args.get(3).map_or(Ok(24), |s| s.parse()).unwrap_or(24);
            with_bundle(&args[1], |bundle| print_sequence(bundle, block, limit))
        }
        ("dump", 2..=3) => {
            let limit: usize = args.get(2).map_or(Ok(20), |s| s.parse()).unwrap_or(20);
            with_bundle(&args[1], |bundle| {
                for r in bundle.records().iter().take(limit) {
                    println!("{r}");
                }
                if bundle.len() > limit {
                    println!("... ({} more records)", bundle.len() - limit);
                }
            })
        }
        _ => usage(),
    }
}

/// Prints a Figure 1-style message sequence diagram for one block: each
/// line is one message reception, drawn between the sender's and
/// receiver's columns.
fn print_sequence(bundle: &trace::TraceBundle, block: u64, limit: usize) {
    let block = stache::BlockAddr::new(block);
    let records: Vec<_> = bundle.for_block(block).collect();
    if records.is_empty() {
        println!("no messages for {block} in this trace");
        return;
    }
    // Columns: the nodes that participate, in index order.
    let mut nodes: Vec<usize> = records
        .iter()
        .flat_map(|r| [r.node.index(), r.sender.index()])
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    print!("{:>10} ", "time(ns)");
    for n in &nodes {
        print!("{:^12}", format!("P{n}"));
    }
    println!();
    for r in records.iter().take(limit) {
        print!("{:>10} ", r.time_ns);
        let from = nodes.iter().position(|&n| n == r.sender.index()).unwrap();
        let to = nodes.iter().position(|&n| n == r.node.index()).unwrap();
        let (lo, hi) = (from.min(to), from.max(to));
        for (i, _) in nodes.iter().enumerate() {
            if i == from {
                print!("{:^12}", "o");
            } else if i == to {
                print!("{:^12}", if to > from { ">" } else { "<" });
            } else if i > lo && i < hi {
                print!("{:^12}", "-");
            } else {
                print!("{:^12}", ".");
            }
        }
        println!("  {}", r.mtype.paper_name());
    }
    if records.len() > limit {
        println!(
            "... ({} more messages for this block)",
            records.len() - limit
        );
    }
}

fn with_bundle(path: &str, f: impl FnOnce(&trace::TraceBundle)) -> ExitCode {
    match trace_io::read_file(path) {
        Ok(bundle) => {
            f(&bundle);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("reading {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
