//! The contender table: every predictor configuration the studies race,
//! declared once as `(label, factory)`.
//!
//! [`tournament`](crate::tournament), the [`extras`](crate::extras)
//! studies and the streamed [`tracepack`](crate::tracepack) replay each
//! pick their field from this table *by label*, so a label means one
//! configuration everywhere and a new contender is one line here plus its
//! label in the study that wants it. The Cosmos rows are one struct and
//! differ only in its arguments.

use cosmos::directed::{
    Composition, DsiPredictor, LastTuple, MigratoryPredictor, MostCommon, RmwPredictor,
};
use cosmos::{
    CosmosPredictor as Cosmos, CosmosTageHybrid, EvictingCosmos as Evicting, HybridCosmos,
    MessagePredictor, PreallocCosmos, SharedPhtCosmos, TageConfig, TagePredictor,
};
use stache::{NodeId, Role};

/// Builds one agent's predictor. A plain `fn` pointer (captures nothing),
/// so a contender list is `Sync` and a (benchmark × contender) grid can
/// fan out as one sweep cell per evaluation.
pub type Factory = fn(NodeId, Role) -> Box<dyn MessagePredictor>;

/// Every contender, by label. Filterless unless the label says otherwise.
pub const CONTENDERS: &[(&str, Factory)] = &[
    // Cosmos at MHR depths 1–4.
    ("cosmos-d1", |_, _| Box::new(Cosmos::new(1, 0))),
    ("cosmos-d2", |_, _| Box::new(Cosmos::new(2, 0))),
    ("cosmos-d3", |_, _| Box::new(Cosmos::new(3, 0))),
    ("cosmos-d4", |_, _| Box::new(Cosmos::new(4, 0))),
    // The §7 directed predictors and the two baselines.
    ("migratory", |_, role| {
        Box::new(MigratoryPredictor::new(role))
    }),
    ("self-inval", |_, role| Box::new(DsiPredictor::new(role))),
    ("rmw", |_, role| Box::new(RmwPredictor::new(role))),
    ("composition", |_, role| Box::new(Composition::new(role))),
    ("last-tuple", |_, _| Box::new(LastTuple::new())),
    ("most-common", |_, _| Box::new(MostCommon::new())),
    // TAGE-MP at three budget points, and the per-agent chooser.
    ("tage-small", |_, _| {
        Box::new(TagePredictor::new(TageConfig::small()))
    }),
    ("tage-mid", |_, _| {
        Box::new(TagePredictor::new(TageConfig::mid()))
    }),
    ("tage-large", |_, _| {
        Box::new(TagePredictor::new(TageConfig::large()))
    }),
    ("cosmos+tage", |_, _| {
        Box::new(CosmosTageHybrid::new(1, 0, TageConfig::mid()))
    }),
    // The paper-sketched Cosmos extensions, all at depth 2.
    ("macro x4", |_, _| Box::new(Cosmos::new(2, 0).macroblock(2))),
    ("macro x16", |_, _| {
        Box::new(Cosmos::new(2, 0).macroblock(4))
    }),
    ("conf>=2", |_, _| Box::new(Cosmos::new(2, 0).confident(2))),
    ("prealloc", |_, _| Box::new(PreallocCosmos::paper(2, 256))),
    ("shared 4k", |_, _| Box::new(SharedPhtCosmos::new(2, 1, 12))),
    ("hybrid 1+3", |_, _| Box::new(HybridCosmos::new(1, 3))),
    // §3.5 fn 3: the sender dropped (score it on the type only).
    ("type-only", |_, _| Box::new(Cosmos::new(1, 0).type_only())),
    // §3.7: the MHT bounded per agent, depth 2 (8192: the streamed replay).
    ("evict 8192", |_, _| Box::new(Evicting::new(2, 0, 8192))),
    ("evict 512", |_, _| Box::new(Evicting::new(2, 0, 512))),
    ("evict 128", |_, _| Box::new(Evicting::new(2, 0, 128))),
    ("evict 32", |_, _| Box::new(Evicting::new(2, 0, 32))),
    ("evict 8", |_, _| Box::new(Evicting::new(2, 0, 8))),
];

/// The factory registered under `label`.
///
/// # Panics
///
/// Panics on a label the table does not have — the callers' labels are
/// literals, so that is a typo in this crate.
pub fn by_label(label: &str) -> Factory {
    CONTENDERS
        .iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("no contender labelled {label}"))
        .1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_every_factory_builds() {
        for (i, (label, factory)) in CONTENDERS.iter().enumerate() {
            assert!(
                CONTENDERS[..i].iter().all(|(l, _)| l != label),
                "{label} listed twice"
            );
            for role in [Role::Cache, Role::Directory] {
                assert!(!factory(NodeId::new(0), role).name().is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "no contender labelled cosmos-d9")]
    fn an_unknown_label_is_a_loud_typo() {
        by_label("cosmos-d9");
    }
}
