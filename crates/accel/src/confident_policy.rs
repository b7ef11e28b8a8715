#[cfg(test)]
mod tests {
    use crate::runner::compare;
    use crate::{CosmosPolicy, SpeculatePolicy};
    use simx::SpeculationPolicy;
    use stache::{BlockAddr, MsgType, NodeId, Role};
    use trace::MsgRecord;
    use workloads::micro::ProducerConsumer;
    use workloads::Appbt;

    #[test]
    fn needs_confirmations_before_granting() {
        let mut p = SpeculatePolicy::new(1, Some(2));
        let rec = |mtype| MsgRecord {
            time_ns: 0,
            node: NodeId::new(0),
            role: Role::Directory,
            block: BlockAddr::new(5),
            sender: NodeId::new(1),
            mtype,
            iteration: 0,
        };
        // One sighting of the read->upgrade pattern: not confident yet.
        p.observe(&rec(MsgType::GetRoRequest));
        p.observe(&rec(MsgType::UpgradeRequest));
        p.observe(&rec(MsgType::GetRoRequest));
        assert!(!p.grant_exclusive(NodeId::new(0), NodeId::new(1), BlockAddr::new(5)));
        // Two confirmations later it fires.
        p.observe(&rec(MsgType::UpgradeRequest));
        p.observe(&rec(MsgType::GetRoRequest));
        p.observe(&rec(MsgType::UpgradeRequest));
        p.observe(&rec(MsgType::GetRoRequest));
        assert!(p.grant_exclusive(NodeId::new(0), NodeId::new(1), BlockAddr::new(5)));
    }

    #[test]
    fn gated_policy_still_accelerates_stable_patterns() {
        let make = || ProducerConsumer {
            blocks: 2,
            iterations: 25,
            ..Default::default()
        };
        let c = compare(&mut make(), &mut make(), || {
            Box::new(SpeculatePolicy::new(1, Some(2)))
        })
        .unwrap();
        assert!(c.accelerated.messages < c.baseline.messages, "{c}");
    }

    #[test]
    fn gating_reduces_speculation_volume_on_noisy_workloads() {
        // appbt's false sharing misleads an ungated policy; the gated one
        // fires less (and never blindly).
        let make = || Appbt::small();
        let eager = compare(&mut make(), &mut make(), || Box::new(CosmosPolicy::new(1))).unwrap();
        let gated = compare(&mut make(), &mut make(), || {
            Box::new(SpeculatePolicy::new(1, Some(2)))
        })
        .unwrap();
        let eager_fires =
            eager.accelerated.exclusive_grants + eager.accelerated.voluntary_replacements;
        let gated_fires =
            gated.accelerated.exclusive_grants + gated.accelerated.voluntary_replacements;
        assert!(
            gated_fires < eager_fires,
            "gated {gated_fires} vs eager {eager_fires}"
        );
        // And it still helps.
        assert!(
            gated.accelerated.messages <= gated.baseline.messages,
            "{gated}"
        );
    }
}
