//! Property tests for the chunked packed-trace format (`trace::pack`).
//!
//! Seeded cases on the in-house generator (`simx::rng::check`); the three
//! counterexamples the proptest era saved stay as named tests in
//! `pack_regression_seeds.rs`.

mod seeded;

use seeded::{bundle, noise};
use simx::rng::check;
use std::io::Cursor;
use trace::{pack, MsgRecord};

/// Pack/unpack is the identity for every chunk size, including chunk
/// sizes that divide the record count exactly (no partial tail) and
/// chunk 1 (one record per chunk).
#[test]
fn packed_roundtrip() {
    check(128, |rng| {
        let b = bundle(rng, 0, 200);
        let chunk = rng.gen_range(1..300) as u32;
        let bytes = pack::pack_bundle(&b, chunk).unwrap();
        assert_eq!(pack::unpack_bundle(&bytes).unwrap(), b, "chunk {chunk}");
    });
}

/// The stats agree with the stream: record count, chunk count, and
/// the flat baseline of 26 bytes per record.
#[test]
fn stats_are_consistent() {
    check(128, |rng| {
        let b = bundle(rng, 0, 200);
        let chunk = rng.gen_range(1..300) as u32;
        let (bytes, stats) = pack::pack_bundle_with_stats(&b, chunk).unwrap();
        assert_eq!(stats.records, b.len() as u64);
        assert_eq!(stats.flat_bytes, pack::FLAT_RECORD_BYTES * b.len() as u64);
        assert_eq!(stats.chunks, (b.len() as u64).div_ceil(u64::from(chunk)));
        assert_eq!(stats.packed_bytes, bytes.len() as u64);
    });
}

/// Chunks decode independently and in any order: reading them in
/// reverse reconstructs the same stream as reading forward.
#[test]
fn chunks_decode_independently() {
    check(128, |rng| {
        let b = bundle(rng, 1, 200);
        let bytes = pack::pack_bundle(&b, rng.gen_range(1..64) as u32).unwrap();
        let mut r = pack::PackedTraceReader::new(Cursor::new(&bytes[..])).unwrap();
        let mut rev: Vec<Vec<MsgRecord>> = (0..r.chunk_count())
            .rev()
            .map(|i| r.read_chunk(i).unwrap())
            .collect();
        rev.reverse();
        let flat: Vec<MsgRecord> = rev.into_iter().flatten().collect();
        assert_eq!(flat.as_slice(), b.records());
    });
}

/// Unpacking never panics on arbitrary bytes — it returns an error.
#[test]
fn unpack_is_total() {
    check(128, |rng| {
        let _ = pack::unpack_bundle(&noise(rng, b"CPK1", 400));
    });
}

/// Truncating a valid packed stream anywhere fails cleanly rather
/// than yielding a different valid trace: the footer and per-chunk
/// CRCs leave no window for a silent short read.
#[test]
fn truncation_detected() {
    check(128, |rng| {
        let b = bundle(rng, 1, 200);
        let bytes = pack::pack_bundle(&b, rng.gen_range(1..64) as u32).unwrap();
        let cut = rng.gen_range(0..bytes.len());
        assert!(
            pack::unpack_bundle(&bytes[..cut]).is_err(),
            "cut at {cut}/{} decoded",
            bytes.len()
        );
    });
}

/// Corrupting any single byte of the packed stream never changes a
/// record silently: the stream fails to open, fails a CRC, or — where the
/// flipped byte is redundant (an LZ token bit the decompressor ignores) or
/// only labels the stream (the header's name and counts, an index entry's
/// `first_time`; no checksum covers those) — still decodes to the records
/// that were packed.
#[test]
fn corruption_never_passes_silently() {
    check(128, |rng| {
        let b = bundle(rng, 1, 200);
        let mut bytes = pack::pack_bundle(&b, rng.gen_range(1..64) as u32).unwrap();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= rng.gen_range(1..=255) as u8;
        if let Ok(decoded) = pack::unpack_bundle(&bytes) {
            assert_eq!(decoded.records(), b.records(), "flipped byte {at}");
        }
    });
}
