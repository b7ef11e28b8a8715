#[cfg(test)]
mod tests {
    use crate::{CosmosPredictor, MessagePredictor, PredTuple};
    use stache::BlockAddr;
    use stache::{MsgType, NodeId};

    fn t(n: usize, m: MsgType) -> PredTuple {
        PredTuple::new(NodeId::new(n), m)
    }

    #[test]
    fn shift_zero_matches_plain_cosmos() {
        let mut mb = CosmosPredictor::new(1, 0).macroblock(0);
        let mut plain = CosmosPredictor::new(1, 0);
        let stream = [
            (0u64, t(1, MsgType::GetRoRequest)),
            (1, t(2, MsgType::GetRwRequest)),
            (0, t(1, MsgType::UpgradeRequest)),
            (1, t(2, MsgType::InvalRwResponse)),
            (0, t(1, MsgType::GetRoRequest)),
        ];
        for (b, tuple) in stream {
            assert_eq!(
                mb.predict(BlockAddr::new(b)),
                plain.predict(BlockAddr::new(b))
            );
            mb.observe(BlockAddr::new(b), tuple);
            plain.observe(BlockAddr::new(b), tuple);
        }
        assert_eq!(mb.memory(), plain.memory());
    }

    #[test]
    fn adjacent_blocks_share_tables() {
        let mut mb = CosmosPredictor::new(1, 0).macroblock(1);
        // Train on block 0; block 1 shares the macroblock and inherits
        // the learned pattern (block 2, in the next group of two, does not).
        mb.observe(BlockAddr::new(0), t(1, MsgType::GetRoRequest));
        mb.observe(BlockAddr::new(0), t(1, MsgType::UpgradeRequest));
        mb.observe(BlockAddr::new(1), t(1, MsgType::GetRoRequest));
        assert_eq!(
            mb.predict(BlockAddr::new(1)),
            Some(t(1, MsgType::UpgradeRequest))
        );
        assert_eq!(mb.predict(BlockAddr::new(2)), None);
        // Only one MHR was allocated for the pair.
        assert_eq!(mb.memory().mhr_entries, 1);
    }

    #[test]
    fn unrelated_patterns_interfere() {
        // Block 0 cycles A->B; block 1 cycles A->C. Grouped, the PHT entry
        // for A keeps flipping: interference, the §7 caveat.
        let mut mb = CosmosPredictor::new(1, 0).macroblock(1);
        let a = t(1, MsgType::GetRoRequest);
        let b = t(2, MsgType::GetRwRequest);
        let c = t(3, MsgType::UpgradeRequest);
        mb.observe(BlockAddr::new(0), a);
        mb.observe(BlockAddr::new(0), b); // learned A -> B
        mb.observe(BlockAddr::new(1), a);
        mb.observe(BlockAddr::new(1), c); // overwritten: A -> C
        mb.observe(BlockAddr::new(0), a);
        assert_eq!(
            mb.predict(BlockAddr::new(0)),
            Some(c),
            "block 0 sees block 1's pattern"
        );
    }

    /// `block >> 64` panics in debug builds and is `block >> 0` in
    /// release ones, where shift 64 silently was plain Cosmos.
    #[test]
    #[should_panic(expected = "leaves no address bits")]
    fn a_shift_of_the_whole_address_is_rejected() {
        let _ = CosmosPredictor::new(1, 0).macroblock(64);
    }

    #[test]
    fn memory_shrinks_with_group_size() {
        let blocks = 64u64;
        let mut fine = CosmosPredictor::new(1, 0).macroblock(0);
        let mut coarse = CosmosPredictor::new(1, 0).macroblock(3);
        for round in 0..3 {
            for blk in 0..blocks {
                let tuple = t((round % 4) + 1, MsgType::GetRoRequest);
                fine.observe(BlockAddr::new(blk), tuple);
                coarse.observe(BlockAddr::new(blk), tuple);
            }
        }
        assert_eq!(fine.memory().mhr_entries, 64);
        assert_eq!(coarse.memory().mhr_entries, 8);
        assert!(coarse.memory().pht_entries <= fine.memory().pht_entries);
    }
}
