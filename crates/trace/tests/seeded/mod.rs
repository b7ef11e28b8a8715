//! Generators the seeded `prop_*` suites share; the runner is
//! [`simx::rng::check`].

use simx::rng::SmallRng;
use stache::{BlockAddr, MsgType, NodeId, Role};
use trace::{MsgRecord, TraceBundle, TraceMeta};

/// Any `u64`, with the values varint and delta columns trip over (0, 1,
/// the maximum) drawn one time in four.
pub fn word(rng: &mut SmallRng) -> u64 {
    match rng.gen_range(0..12) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        _ => rng.gen(),
    }
}

/// Any record the 12-bit node space and the 12 message types allow.
pub fn record(rng: &mut SmallRng) -> MsgRecord {
    MsgRecord {
        time_ns: word(rng),
        node: NodeId::new(rng.gen_range(0..4096)),
        role: if rng.gen_bool(0.5) {
            Role::Directory
        } else {
            Role::Cache
        },
        block: BlockAddr::new(word(rng)),
        sender: NodeId::new(rng.gen_range(0..4096)),
        mtype: MsgType::from_code(rng.gen_range(0..12) as u8).expect("codes 0..12 are types"),
        iteration: word(rng) as u32,
    }
}

/// A bundle of `min_len..=max_len` records under a 1–12 letter app name.
pub fn bundle(rng: &mut SmallRng, min_len: usize, max_len: usize) -> TraceBundle {
    let app: String = (0..rng.gen_range(1..=12))
        .map(|_| (b'a' + rng.gen_range(0..26) as u8) as char)
        .collect();
    let meta = TraceMeta::new(app, rng.gen_range(1..64), word(rng) as u32);
    let mut b = TraceBundle::new(meta);
    let len = rng.gen_range(min_len..=max_len);
    b.extend_records((0..len).map(|_| record(rng)));
    b
}

/// Up to `max_len` arbitrary bytes, behind `magic` every other case so the
/// decoder under test gets past its first check.
pub fn noise(rng: &mut SmallRng, magic: &[u8; 4], max_len: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    if rng.gen_bool(0.5) {
        bytes.extend_from_slice(magic);
    }
    bytes.extend((0..rng.gen_range(0..=max_len)).map(|_| rng.gen() as u8));
    bytes
}
