//! Counterexamples proptest once found for the packed-trace format,
//! kept as named deterministic tests (the `promoted:` markers carry the
//! saved-seed hashes they were replayed from). The always-on random
//! cases live in `prop_pack.rs`.

use stache::{BlockAddr, MsgType, NodeId, Role};
use trace::pack;
use trace::{MsgRecord, TraceBundle, TraceMeta};

fn rec(
    time_ns: u64,
    node: usize,
    block: u64,
    sender: usize,
    code: u8,
    iteration: u32,
) -> MsgRecord {
    MsgRecord {
        time_ns,
        node: NodeId::new(node),
        role: if code < 6 {
            Role::Cache
        } else {
            Role::Directory
        },
        block: BlockAddr::new(block),
        sender: NodeId::new(sender),
        mtype: MsgType::from_code(code).unwrap(),
        iteration,
    }
}

fn bundle(records: Vec<MsgRecord>) -> TraceBundle {
    let mut b = TraceBundle::new(TraceMeta::new("seed", 4, 1));
    b.extend_records(records);
    b
}

fn roundtrip(b: &TraceBundle, chunk: u32) -> pack::PackStats {
    let (bytes, stats) = pack::pack_bundle_with_stats(b, chunk).expect("pack");
    let restored = pack::unpack_bundle(&bytes).expect("unpack");
    assert_eq!(b, &restored, "packed round-trip drifted");
    stats
}

/// promoted: db2f081adb6dbfaa4f5dae6b11542dc87bc8bb7bf4bb7ef7d129bcfefafbb83a
///
/// Record count an exact multiple of the chunk size (8 records, chunk
/// 4): the final chunk is full, so the writer must not emit an empty
/// tail chunk and the reader's index arithmetic must not expect one.
#[test]
fn seed_exact_chunk_multiple_has_no_phantom_tail() {
    let b = bundle(
        (0..8)
            .map(|i| rec(i * 10, 1, 0x40, 2, (i % 12) as u8, 0))
            .collect(),
    );
    let stats = roundtrip(&b, 4);
    assert_eq!(stats.records, 8);
    assert_eq!(stats.chunks, 2, "8 records / chunk 4 is exactly 2 chunks");
}

/// promoted: 4579ac1fa6722d1eae83756dc9f2d7e6a298147e77742344c3e7a1363a2b7b7d
///
/// Timestamps at `u64::MAX` then 0: the delta column's zigzag/varint
/// encoding sees the most negative and most positive deltas possible
/// in one chunk, so every continuation-byte path in the varint codec
/// runs — and a full chunk of such records must still round-trip.
#[test]
fn seed_extreme_timestamp_deltas_survive_varint_edges() {
    let mut records = vec![
        rec(u64::MAX, 0, u64::MAX, 4095, 11, u32::MAX),
        rec(0, 4095, 0, 0, 0, 0),
        rec(u64::MAX, 1, 1, 1, 5, 1),
    ];
    // Alternate the extremes across a whole chunk so carries propagate.
    for i in 0..64 {
        records.push(rec(
            if i % 2 == 0 { u64::MAX } else { 0 },
            i % 4096,
            u64::MAX - i as u64,
            (4095 - i) % 4096,
            (i % 12) as u8,
            i as u32,
        ));
    }
    roundtrip(&bundle(records), 299);
}

/// promoted: 3244c4b906f228ae783084ab0a844c50bb2cc5c17bcc4eac9fb09521dbdd8a31
///
/// A single-record bundle truncated at byte 0 (and every other prefix):
/// the smallest valid stream must round-trip, and no proper prefix of
/// it may decode as a different valid trace.
#[test]
fn seed_single_record_and_all_truncations_detected() {
    let b = bundle(vec![rec(7, 3, 0x80, 1, 2, 9)]);
    let bytes = pack::pack_bundle(&b, 1).expect("pack");
    assert_eq!(pack::unpack_bundle(&bytes).expect("unpack"), b);
    for cut in 0..bytes.len() {
        assert!(
            pack::unpack_bundle(&bytes[..cut]).is_err(),
            "truncation at byte {cut}/{} decoded silently",
            bytes.len()
        );
    }
}
