//! Property tests for the flat trace codec.
//!
//! Seeded cases on the in-house generator (`simx::rng::check`).

mod seeded;

use seeded::{bundle, noise};
use simx::rng::check;
use stache::{BlockAddr, MsgType, NodeId, Role};
use trace::{codec, MsgRecord, TraceBundle, TraceMeta};

/// Binary encode/decode is the identity.
#[test]
fn binary_roundtrip() {
    check(128, |rng| {
        let b = bundle(rng, 0, 100);
        assert_eq!(codec::decode(&codec::encode(&b).unwrap()).unwrap(), b);
    });
}

/// A trace file is the codec's bytes and nothing else: what
/// `fs::write(p, encode(b))` stores, `decode(&fs::read(p))` returns — for
/// the empty bundle, a single record, and every field at its maximum.
#[test]
fn file_roundtrip() {
    let one = MsgRecord {
        time_ns: 7,
        node: NodeId::new(3),
        role: Role::Cache,
        block: BlockAddr::new(0x80),
        sender: NodeId::new(1),
        mtype: MsgType::GetRoRequest,
        iteration: 9,
    };
    let max = MsgRecord {
        time_ns: u64::MAX,
        node: NodeId::new(4095),
        role: Role::Directory,
        block: BlockAddr::new(u64::MAX),
        sender: NodeId::new(4095),
        mtype: MsgType::from_code(11).unwrap(),
        iteration: u32::MAX,
    };
    let dir = std::env::temp_dir().join(format!("trace-prop-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        ("empty", TraceMeta::new("empty", 2, 0), vec![]),
        ("one", TraceMeta::new("one", 16, 10), vec![one]),
        (
            "max",
            TraceMeta::new("m".repeat(u16::MAX as usize), u32::MAX as usize, u32::MAX),
            vec![max; 3],
        ),
    ];
    for (name, meta, records) in cases {
        let mut b = TraceBundle::new(meta);
        b.extend_records(records);
        let path = dir.join(format!("{name}.trace"));
        std::fs::write(&path, codec::encode(&b).unwrap()).unwrap();
        let restored = codec::decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(restored, b, "{name} bundle changed on disk");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Decoding never panics on arbitrary bytes — it returns an error.
#[test]
fn decode_is_total() {
    check(128, |rng| {
        let _ = codec::decode(&noise(rng, b"CTR1", 300));
    });
}

/// Truncating a valid encoding anywhere inside the payload fails
/// cleanly rather than yielding a different valid trace.
#[test]
fn truncation_detected() {
    check(128, |rng| {
        let b = bundle(rng, 1, 100);
        let encoded = codec::encode(&b).unwrap();
        let cut = rng.gen_range(0..encoded.len());
        if let Ok(decoded) = codec::decode(&encoded[..cut]) {
            assert!(decoded.len() < b.len(), "cut at {cut} kept every record");
        }
    });
}
