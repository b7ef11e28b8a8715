//! The seeded property runner the `prop_*` suites share: a fixed number
//! of cases, each on its own [`SmallRng`] stream, the failing seed in the
//! panic message, no shrinking — re-run the one seed to debug it.

use cosmos::PredTuple;
use simx::rng::SmallRng;
use stache::{MsgType, NodeId};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Runs `property` on generators seeded `0..cases`.
pub fn check(cases: u64, property: impl Fn(&mut SmallRng)) {
    for seed in 0..cases {
        let case = AssertUnwindSafe(|| property(&mut SmallRng::seed_from_u64(seed)));
        if let Err(cause) = catch_unwind(case) {
            let why = (cause.downcast_ref::<String>().map(String::as_str))
                .or_else(|| cause.downcast_ref::<&str>().copied());
            match why {
                Some(why) => panic!("property failed at seed {seed}: {why}"),
                None => resume_unwind(cause),
            }
        }
    }
}

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
