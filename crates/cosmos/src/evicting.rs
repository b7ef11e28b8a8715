#[cfg(test)]
mod tests {
    use crate::packed::pack_key;
    use crate::{CosmosPredictor, EvictingCosmos, MessagePredictor, Pht, PredTuple};
    use stache::BlockAddr;
    use stache::{MsgType, NodeId};

    fn t(n: usize, m: MsgType) -> PredTuple {
        PredTuple::new(NodeId::new(n), m)
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(i)
    }

    #[test]
    fn unbounded_capacity_matches_plain_cosmos() {
        let mut ev = EvictingCosmos::new(1, 0, 1000);
        let mut plain = CosmosPredictor::new(1, 0);
        for i in 0..60u64 {
            let blk = b(i % 5);
            let tuple = t(((i / 5) % 3) as usize, MsgType::GetRoRequest);
            assert_eq!(ev.predict(blk), plain.predict(blk));
            ev.observe(blk, tuple);
            plain.observe(blk, tuple);
        }
        assert_eq!(ev.memory(), plain.memory());
        assert_eq!(ev.evictions(), 0);
        // Same probe-counting rule; reserved bytes follow the blocks
        // seen, not the configured capacity.
        assert_eq!(ev.core_stats().pht_probes, plain.core_stats().pht_probes);
        assert!(ev.core_stats().pht_probes > 0);
        let reserved = ev.core_stats().table_capacity_bytes;
        assert!(reserved > 0);
        // (a key and two links per configured slot would already be more)
        assert!(reserved < 1000 * 16);
        let fresh = EvictingCosmos::new(1, 0, 1 << 20).core_stats();
        assert_eq!(fresh.table_capacity_bytes, 0, "nothing pre-sized");
        // At capacity: a 40-byte slot and two 8-byte index words a block,
        // and a boxed PHT's map header on top of its buckets.
        let mut full = EvictingCosmos::new(1, 0, 64);
        for i in 0..64u64 {
            full.observe(b(i), t(1, MsgType::GetRoRequest));
        }
        assert_eq!(full.core_stats().table_capacity_bytes, 64 * (40 + 2 * 8));
        full.observe(b(0), t(2, MsgType::GetRoRequest));
        let mut pht = Pht::new();
        pht.update(
            pack_key(&[t(1, MsgType::GetRoRequest)]),
            t(2, MsgType::GetRoRequest),
            0,
        );
        let pht = std::mem::size_of::<Pht>() + pht.capacity_bytes();
        assert_eq!(full.core_stats().table_capacity_bytes, 64 * 56 + pht as u64);
    }

    #[test]
    fn eviction_discards_learned_history() {
        let mut ev = EvictingCosmos::new(1, 0, 1);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        // Learn a->b on block 1.
        for _ in 0..3 {
            ev.observe(b(1), a);
            ev.observe(b(1), bb);
        }
        ev.observe(b(1), a);
        assert_eq!(ev.predict(b(1)), Some(bb));
        // Touching block 2 evicts block 1's state entirely.
        ev.observe(b(2), a);
        assert_eq!(ev.evictions(), 1);
        assert_eq!(ev.predict(b(1)), None, "history lost with the block");
        // And block 1 must relearn from scratch.
        ev.observe(b(1), a);
        assert_eq!(ev.predict(b(1)), None);
    }

    #[test]
    fn capacity_is_respected() {
        let mut ev = EvictingCosmos::new(1, 0, 4);
        for i in 0..100u64 {
            ev.observe(b(i), t(0, MsgType::GetRoRequest));
        }
        assert_eq!(ev.memory().mhr_entries, 4);
        assert_eq!(ev.evictions(), 96);
    }

    #[test]
    fn lru_keeps_the_hot_block() {
        let mut ev = EvictingCosmos::new(1, 0, 2);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        for _ in 0..3 {
            ev.observe(b(1), a);
            ev.observe(b(1), bb);
        }
        ev.observe(b(2), a); // table now {1, 2}
        ev.observe(b(1), a); // block 1 most recent
        ev.observe(b(3), a); // evicts block 2, not block 1
        assert_eq!(ev.predict(b(1)), Some(bb), "hot block survived");
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        let _ = EvictingCosmos::new(1, 0, 0);
    }
}
