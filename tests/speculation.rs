//! Integration: the §4 prediction->action table and the speedup model.

use cosmos_repro::accel::{action, Action, PredictorPolicy};
use cosmos_repro::cosmos::speedup::{speedup, SpeedupParams};
use cosmos_repro::cosmos::CosmosPredictor;
use cosmos_repro::simx::{ForwardKind, SpecActions, SpeculationPolicy};
use cosmos_repro::stache::msg::ALL_MSG_TYPES;
use cosmos_repro::stache::{BlockAddr, MsgType, NodeId, Role};
use cosmos_repro::trace::MsgRecord;

/// §4.1's Table 2 as the engine fires it, written out independently of
/// `accel::action`.
const ROWS: [(Role, MsgType, Action); 5] = [
    (
        Role::Directory,
        MsgType::UpgradeRequest,
        Action::GrantExclusive,
    ),
    (
        Role::Directory,
        MsgType::GetRoRequest,
        Action::Forward(ForwardKind::Shared),
    ),
    (
        Role::Directory,
        MsgType::GetRwRequest,
        Action::Forward(ForwardKind::Exclusive),
    ),
    (Role::Cache, MsgType::InvalRwRequest, Action::SelfInvalidate),
    (Role::Cache, MsgType::InvalRoRequest, Action::EarlyInvalAck),
];

#[test]
fn each_prediction_fires_exactly_its_table_row() {
    let (home, from, block) = (NodeId::new(0), NodeId::new(1), BlockAddr::new(7));
    for role in [Role::Directory, Role::Cache] {
        for &mtype in &ALL_MSG_TYPES {
            let row = ROWS
                .iter()
                .find(|&&(r, m, _)| (r, m) == (role, mtype))
                .map(|&(_, _, a)| a);
            assert_eq!(action(role, mtype), row, "{role} predicting {mtype:?}");

            // The agent at `home` in `role` learns that `from` sends `mtype`
            // next, whatever came before.
            let mut p =
                PredictorPolicy::new(SpecActions::all(), |_| Box::new(CosmosPredictor::new(1, 0)));
            for _ in 0..3 {
                p.observe(&MsgRecord {
                    time_ns: 0,
                    node: home,
                    role,
                    block,
                    sender: from,
                    mtype,
                    iteration: 0,
                });
            }
            let mut fired = Vec::new();
            if p.grant_exclusive(home, from, block) {
                fired.push(Action::GrantExclusive);
            }
            if let Some((to, kind)) = p.forward_candidate(home, block) {
                assert_eq!(to, from);
                fired.push(Action::Forward(kind));
            }
            if p.self_invalidate(home, block) {
                fired.push(Action::SelfInvalidate);
            }
            if p.early_inval_ack(home, block) {
                fired.push(Action::EarlyInvalAck);
            }
            assert_eq!(fired, Vec::from_iter(row), "{role} predicting {mtype:?}");
        }
    }
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
