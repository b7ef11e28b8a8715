//! Integration: traces survive serialisation — a real workload's trace,
//! written and re-read through either format (flat `CTR1`, packed
//! `CPK1`), evaluates to bit-identical accuracy reports.

use cosmos_repro::cosmos::eval::evaluate_cosmos;
use cosmos_repro::simx::SystemConfig;
use cosmos_repro::stache::ProtocolConfig;
use cosmos_repro::trace::{codec, pack};
use cosmos_repro::workloads::{run_to_trace, small_suite, Appbt, Workload};

fn trace_of(w: &mut dyn Workload) -> cosmos_repro::trace::TraceBundle {
    run_to_trace(w, ProtocolConfig::paper(), SystemConfig::paper()).unwrap()
}

#[test]
fn binary_roundtrip_preserves_evaluation() {
    let mut w = Appbt::small();
    let original = trace_of(&mut w);
    let restored = codec::decode(&codec::encode(&original).unwrap()).unwrap();
    assert_eq!(original, restored);

    let a = evaluate_cosmos(&original, 2, 1);
    let b = evaluate_cosmos(&restored, 2, 1);
    assert_eq!(a.overall, b.overall);
    assert_eq!(a.cache, b.cache);
    assert_eq!(a.directory, b.directory);
    assert_eq!(a.memory, b.memory);
}

#[test]
fn packed_format_roundtrips_all_five_workloads_and_compresses() {
    // The ISSUE's acceptance bar for the chunked columnar format: for
    // every benchmark of the suite, pack → unpack is byte-identical and
    // the packed bytes undercut the flat 26-byte codec by at least 2x.
    for mut w in small_suite() {
        let original = trace_of(&mut *w);
        let (bytes, stats) = pack::pack_bundle_with_stats(&original, 256)
            .unwrap_or_else(|e| panic!("{}: pack failed: {e}", w.name()));
        let restored = pack::unpack_bundle(&bytes)
            .unwrap_or_else(|e| panic!("{}: unpack failed: {e}", w.name()));
        assert_eq!(
            original,
            restored,
            "{}: packed round-trip drifted",
            w.name()
        );
        assert_eq!(stats.records, original.len() as u64);
        assert!(
            stats.ratio() >= 2.0,
            "{}: ratio {:.2} under the 2x floor ({} -> {} bytes)",
            w.name(),
            stats.ratio(),
            stats.flat_bytes,
            stats.packed_bytes
        );
        // The evaluation a packed trace feeds is the same evaluation.
        assert_eq!(
            evaluate_cosmos(&original, 2, 0).overall,
            evaluate_cosmos(&restored, 2, 0).overall,
            "{}: packed trace evaluates differently",
            w.name()
        );
    }
}

#[test]
fn binary_encoding_is_compact() {
    let mut w = Appbt::small();
    let t = trace_of(&mut w);
    let binary = codec::encode(&t).unwrap();
    // 26 bytes per record plus a small header.
    assert!(binary.len() < 27 * t.len() + 64);
}
