//! Integration: the §4 prediction->action pipeline over real traces.

use cosmos_repro::cosmos::actions::{map_prediction, SpeculativeAction};
use cosmos_repro::cosmos::speedup::{speedup, SpeedupParams};
use cosmos_repro::cosmos::PredTuple;
use cosmos_repro::stache::{MsgType, NodeId, Role};

#[test]
fn action_mapping_respects_roles() {
    // A directory never self-invalidates; a cache never grants exclusive.
    for node in [0usize, 5] {
        let p = NodeId::new(node);
        for &m in &cosmos_repro::stache::msg::ALL_MSG_TYPES {
            let dir_action = map_prediction(Role::Directory, PredTuple::new(p, m));
            let cache_action = map_prediction(Role::Cache, PredTuple::new(p, m));
            assert!(!matches!(
                dir_action,
                Some(SpeculativeAction::SelfInvalidate)
            ));
            assert!(!matches!(
                cache_action,
                Some(SpeculativeAction::GrantExclusive { .. })
            ));
        }
    }
    // And the flagship pair of Table 2: read-modify-write at the directory.
    assert_eq!(
        map_prediction(
            Role::Directory,
            PredTuple::new(NodeId::new(3), MsgType::UpgradeRequest)
        ),
        Some(SpeculativeAction::GrantExclusive {
            writer: NodeId::new(3)
        })
    );
}

#[test]
fn figure5_model_matches_the_paper_formula() {
    // §4.4: a fraction p of messages keeps fraction f of its delay, the
    // rest pay penalty r.
    let p = 0.8;
    let (f, r) = (0.3, 1.0);
    let paper = speedup(SpeedupParams { p, f, r });
    let manual = 1.0 / (0.8 * f + 0.2 * (1.0 + r));
    assert!((paper - manual).abs() < 1e-12);
}
