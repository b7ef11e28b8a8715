//! The contender table: every predictor configuration the studies race,
//! declared once as `(label, factory)`.
//!
//! [`tournament`](crate::tournament), the [`extras`](crate::extras)
//! studies and the streamed [`tracepack`](crate::tracepack) replay each
//! pick their field from this table *by label*, so a label means one
//! configuration everywhere and a new contender is one line here plus its
//! label in the study that wants it. The Cosmos rows are one struct and
//! differ only in its arguments. The studies that replay the shared trace
//! set all do it through [`race`]: a study is a label list and a
//! projection of the reports that come back.

use crate::par;
use crate::traces::TraceSet;
use cosmos::directed::{
    Composition, DsiPredictor, LastTuple, MigratoryPredictor, MostCommon, RmwPredictor,
};
use cosmos::eval::{evaluate, AccuracyReport, EvalOptions};
use cosmos::{
    CosmosPredictor as Cosmos, EvictingCosmos as Evicting, HybridCosmos, MessagePredictor,
    PreallocCosmos, SharedPhtCosmos,
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

/// Races a field over every trace of the set: each `(label, options)`
/// entry replays each trace through [`evaluate`] with the fleet
/// [`by_label`] builds. One sweep cell per evaluation; the reports come
/// back label-major — entry `l` on trace `t` is element
/// `l * set.traces().len() + t` — whatever the worker count.
pub fn race(set: &TraceSet, field: &[(&str, EvalOptions)]) -> Vec<AccuracyReport> {
    let traces = set.traces();
    par::sweep(field.len() * traces.len(), |i| {
        let (label, opts) = &field[i / traces.len()];
        evaluate(&traces[i % traces.len()], opts, by_label(label))
    })
}

/// A field that scores every label under the default options.
pub(crate) fn plain<'a>(labels: &[&'a str]) -> Vec<(&'a str, EvalOptions)> {
    labels
        .iter()
        .map(|&label| (label, EvalOptions::default()))
        .collect()
}

/// [`race`]'s reports regrouped for a benchmark-per-row table: each
/// trace's app name with its reports in field order.
pub(crate) fn by_app<'a>(
    set: &'a TraceSet,
    reports: &'a [AccuracyReport],
) -> impl Iterator<Item = (&'a str, impl Iterator<Item = &'a AccuracyReport>)> {
    let traces = set.traces();
    traces.iter().enumerate().map(move |(t, trace)| {
        let row = reports.iter().skip(t).step_by(traces.len());
        (trace.meta().app.as_str(), row)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::Scale;
    use crate::{extras, tournament};

    #[test]
    fn every_study_label_is_in_the_table() {
        // `by_label` panics only when a study runs; this catches a typo in
        // a field nobody raced today.
        let fields: [&[&str]; 5] = [
            &tournament::FIELD,
            &extras::COMPARISON,
            &extras::VARIANTS,
            &extras::PERSISTENCE,
            &extras::SENDER_ABLATION,
        ];
        for label in fields.into_iter().flatten() {
            assert!(
                CONTENDERS.iter().any(|(l, _)| l == label),
                "no contender labelled {label}"
            );
        }
    }

    #[test]
    fn race_returns_its_field_label_major() {
        // Two labels (under different options) over the five traces.
        let set = TraceSet::generate(Scale::Small);
        let traces = set.traces();
        let type_only = EvalOptions {
            type_only: true,
            ..Default::default()
        };
        let field = [
            ("cosmos-d1", EvalOptions::default()),
            ("type-only", type_only),
        ];
        let reports = race(&set, &field);
        assert_eq!(reports.len(), 2 * traces.len());
        for (l, (label, opts)) in field.iter().enumerate() {
            for (t, trace) in traces.iter().enumerate() {
                let alone = evaluate(trace, opts, by_label(label));
                let raced = &reports[l * traces.len() + t];
                assert_eq!(raced.overall, alone.overall, "{label} on trace {t}");
                assert_eq!(raced.memory, alone.memory, "{label} on trace {t}");
            }
        }
        // The cells differ pairwise, so a transposed or shuffled result
        // could not have passed the loop above.
        for (i, a) in reports.iter().enumerate() {
            for b in &reports[..i] {
                assert_ne!((a.overall, a.memory), (b.overall, b.memory));
            }
        }
        // `by_app` is the transpose: one row per trace, in field order.
        for (t, (app, row)) in by_app(&set, &reports).enumerate() {
            assert_eq!(app, traces[t].meta().app);
            let row: Vec<_> = row.map(|r| r.overall).collect();
            assert_eq!(row, [reports[t].overall, reports[traces.len() + t].overall]);
        }
    }

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
