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

/// Corrupting any single byte of the packed stream never passes
/// silently: the stream fails to open, a chunk fails its CRC or one of the
/// reader's cross-checks, or everything the reader returns about the
/// chunks is what was written — the records, each chunk's `first_time`,
/// and the chunk size wherever a second chunk pins it. (What may still
/// change unnoticed only labels the stream or is redundant: the header's
/// app name, node and iteration counts, the chunk size of a one-chunk
/// file when it grows, an LZ token bit the decompressor ignores.)
#[test]
fn corruption_never_passes_silently() {
    check(128, |rng| {
        let b = bundle(rng, 1, 200);
        let chunk = rng.gen_range(1..64) as u32;
        let mut bytes = pack::pack_bundle(&b, chunk).unwrap();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= rng.gen_range(1..=255) as u8;
        let Ok(mut r) = pack::PackedTraceReader::new(Cursor::new(&bytes[..])) else {
            return;
        };
        let decoded: Result<Vec<_>, _> = (0..r.chunk_count()).map(|i| r.read_chunk(i)).collect();
        let Ok(chunks) = decoded else { return };
        assert_eq!(chunks.concat(), b.records(), "flipped byte {at}");
        for (info, records) in r.index().iter().zip(&chunks) {
            assert_eq!(info.first_time, records[0].time_ns, "flipped byte {at}");
        }
        if chunks.len() > 1 {
            assert_eq!(r.chunk_records(), chunk, "flipped byte {at}");
        }
    });
}

/// The two fields no checksum covers are held against the chunks they
/// describe: with a second chunk to pin the chunk size, any flipped byte
/// of the header's `chunk_records` or of an index entry's `first_time`
/// is a typed error naming the field.
#[test]
fn flipped_chunk_size_or_seek_key_is_rejected() {
    check(128, |rng| {
        let b = bundle(rng, 2, 200);
        let chunk = rng.gen_range(1..b.len()) as u32;
        let bytes = pack::pack_bundle(&b, chunk).unwrap();
        let chunks = b.len().div_ceil(chunk as usize);
        // Header: magic, version, app_len, app, nodes, iterations, then
        // chunk_records. Index: 28-byte entries ending 20 bytes (the
        // footer) before the end, `first_time` the last 8 of each.
        let chunk_records = 4 + 1 + 2 + b.meta().app.len() + 4 + 4;
        let first_time = |i: usize| bytes.len() - 20 - 28 * (chunks - i) + 20;
        let (at, field) = if rng.gen_bool(0.5) {
            (chunk_records + rng.gen_range(0..4), "chunk_records")
        } else {
            let entry = rng.gen_range(0..chunks);
            (first_time(entry) + rng.gen_range(0..8), "first_time")
        };
        let mut bad = bytes.clone();
        bad[at] ^= rng.gen_range(1..=255) as u8;
        match pack::unpack_bundle(&bad) {
            Err(pack::PackError::Corrupt { what }) => assert_eq!(what, field, "byte {at}"),
            other => panic!(
                "flipped {field} byte {at}: {:?}",
                other.map(|decoded| decoded.len())
            ),
        }
    });
}
