//! Generators the seeded `prop_*` suites share; the runner is
//! [`simx::rng::check`].

use cosmos::PredTuple;
use simx::rng::SmallRng;
use stache::{MsgType, NodeId};

/// Any `<sender, type>` of a 16-node machine.
pub fn tuple(rng: &mut SmallRng) -> PredTuple {
    let mtype = MsgType::from_code(rng.gen_range(0..12) as u8).expect("codes 0..12 are types");
    PredTuple::new(NodeId::new(rng.gen_range(0..16)), mtype)
}

/// Up to `max_len` `(block number, tuple)` arrivals over `blocks` blocks.
pub fn stream(rng: &mut SmallRng, blocks: usize, max_len: usize) -> Vec<(u64, PredTuple)> {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| (rng.gen_range(0..blocks) as u64, tuple(rng)))
        .collect()
}
