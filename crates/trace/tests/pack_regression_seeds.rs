//! Counterexamples found for the packed-trace format, kept as named
//! deterministic tests: three from the proptest era (their `promoted:`
//! markers carry the saved-seed hashes they were replayed from) and two
//! the seeded port of `prop_pack.rs` found, where the always-on random
//! cases live.

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

/// Ten records in chunks of four: three chunks, the last one partial.
fn three_chunks() -> (TraceBundle, Vec<u8>) {
    let b = bundle(
        (0..10)
            .map(|i| rec(1000 + i * 10, 1, 0x40 + i, 2, (i % 12) as u8, 0))
            .collect(),
    );
    let bytes = pack::pack_bundle(&b, 4).expect("pack");
    (b, bytes)
}

fn assert_corrupt(bytes: &[u8], field: &str, at: usize) {
    match pack::unpack_bundle(bytes) {
        Err(pack::PackError::Corrupt { what }) => assert_eq!(what, field, "byte {at}"),
        other => panic!("byte {at}: {:?}", other.map(|decoded| decoded.len())),
    }
}

/// promoted: prop_pack `flipped_chunk_size_or_seek_key_is_rejected`, seed 0
///
/// The header's `chunk_records` is covered by no checksum: a flipped byte
/// there used to open cleanly and report a wrong chunk size (the records
/// were never affected). Every chunk but the last must hold exactly that
/// many records and the last no more, so any flip is now caught — except
/// in a one-chunk file, where a *larger* chunk size describes the same
/// bytes and is accepted.
#[test]
fn seed_flipped_chunk_records_is_rejected() {
    let (b, bytes) = three_chunks();
    let field = 4 + 1 + 2 + b.meta().app.len() + 4 + 4;
    assert_eq!(bytes[field..field + 4], 4u32.to_be_bytes());
    for at in field..field + 4 {
        for flip in [0x01, 0x02, 0x04, 0x80, 0xff] {
            let mut bad = bytes.clone();
            bad[at] ^= flip;
            assert_corrupt(&bad, "chunk_records", at);
        }
    }
    let one_chunk = bundle((0..5).map(|i| rec(i, 1, 0x40, 2, 0, 0)).collect());
    let bytes = pack::pack_bundle(&one_chunk, 8).expect("pack");
    for (size, fits) in [(4u32, false), (5, true), (9, true)] {
        let mut other = bytes.clone();
        other[field..field + 4].copy_from_slice(&size.to_be_bytes());
        match (pack::unpack_bundle(&other), fits) {
            (Ok(decoded), true) => assert_eq!(decoded, one_chunk),
            (Err(pack::PackError::Corrupt { what }), false) => assert_eq!(what, "chunk_records"),
            (other, _) => panic!("chunk size {size}: {:?}", other.map(|d| d.len())),
        }
    }
}

/// promoted: prop_pack `corruption_never_passes_silently`, seed 84
///
/// An index entry's `first_time` — the key a reader seeks by — is covered
/// by no checksum either. A decoded chunk's first timestamp must equal
/// it, so a flipped byte in any entry is caught when that chunk decodes,
/// and the other chunks still read.
#[test]
fn seed_flipped_first_time_is_rejected() {
    let (b, bytes) = three_chunks();
    let index_end = bytes.len() - 20;
    for entry in 0..3 {
        let field = index_end - 28 * (3 - entry) + 20;
        let first = b.records()[4 * entry].time_ns;
        assert_eq!(bytes[field..field + 8], first.to_be_bytes());
        for at in field..field + 8 {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert_corrupt(&bad, "first_time", at);
            let mut r =
                pack::PackedTraceReader::new(std::io::Cursor::new(&bad[..])).expect("opens");
            for chunk in 0..3 {
                assert_eq!(r.read_chunk(chunk).is_ok(), chunk != entry, "chunk {chunk}");
            }
        }
    }
}
