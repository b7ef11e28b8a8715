//! The contender table: every predictor configuration a study races,
//! declared once as `(label, factory)`.
//!
//! The §7 [`comparison`](crate::extras::comparison) and the streamed
//! [`tracepack`](crate::tracepack) replay each pick their field from this
//! table *by label*, so a label means one configuration everywhere and a
//! new contender is one line here plus its label in the study that wants
//! it. A study that replays the shared trace set does it through
//! [`race`]: a label list and a projection of the reports that come back.

use crate::par;
use crate::traces::TraceSet;
use cosmos::directed::{
    Composition, DsiPredictor, LastTuple, MigratoryPredictor, MostCommon, RmwPredictor,
};
use cosmos::eval::{evaluate, AccuracyReport, EvalOptions};
use cosmos::{CosmosPredictor as Cosmos, EvictingCosmos as Evicting, MessagePredictor};
use stache::{NodeId, Role};

/// Builds one agent's predictor. A plain `fn` pointer (captures nothing),
/// so a contender list is `Sync` and a (benchmark × contender) grid can
/// fan out as one sweep cell per evaluation.
pub type Factory = fn(NodeId, Role) -> Box<dyn MessagePredictor>;

/// Every contender, by label. Filterless unless the label says otherwise.
pub const CONTENDERS: &[(&str, Factory)] = &[
    // Cosmos at MHR depths 1 and 3.
    ("cosmos-d1", |_, _| Box::new(Cosmos::new(1, 0))),
    ("cosmos-d3", |_, _| Box::new(Cosmos::new(3, 0))),
    // The §7 directed predictors and the two baselines.
    ("migratory", |_, role| {
        Box::new(MigratoryPredictor::new(role))
    }),
    ("self-inval", |_, role| Box::new(DsiPredictor::new(role))),
    ("rmw", |_, role| Box::new(RmwPredictor::new(role))),
    ("composition", |_, role| Box::new(Composition::new(role))),
    ("last-tuple", |_, _| Box::new(LastTuple::new())),
    ("most-common", |_, _| Box::new(MostCommon::new())),
    // §3.7: the MHT bounded per agent, depth 2 — the streamed replay's fleet.
    ("evict 8192", |_, _| Box::new(Evicting::new(2, 0, 8192))),
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

/// Races a field over every trace of the set: each label replays each
/// trace through [`evaluate`] (default options) with the fleet
/// [`by_label`] builds. One sweep cell per evaluation; the reports come
/// back label-major — label `l` on trace `t` is element
/// `l * set.traces().len() + t` — whatever the worker count.
pub fn race(set: &TraceSet, field: &[&str]) -> Vec<AccuracyReport> {
    let traces = set.traces();
    par::sweep(field.len() * traces.len(), |i| {
        let label = field[i / traces.len()];
        evaluate(
            &traces[i % traces.len()],
            &EvalOptions::default(),
            by_label(label),
        )
    })
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
    use crate::{extras, tracepack};

    #[test]
    fn every_study_label_is_in_the_table() {
        // `by_label` panics only when a study runs; this catches a typo in
        // a field nobody raced today. And a row no surviving field races
        // is an orphan, kept alive by nothing but this table.
        let fields: [&[&str]; 2] = [&extras::COMPARISON, &[tracepack::REPLAY_FLEET]];
        let raced: Vec<&str> = fields.into_iter().flatten().copied().collect();
        for label in &raced {
            assert!(
                CONTENDERS.iter().any(|(l, _)| l == label),
                "no contender labelled {label}"
            );
        }
        for (label, _) in CONTENDERS {
            assert!(raced.contains(label), "no study races {label}");
        }
    }

    #[test]
    fn race_returns_its_field_label_major() {
        // Two labels over the five traces.
        let set = TraceSet::generate(Scale::Small);
        let traces = set.traces();
        let field = ["cosmos-d1", "cosmos-d3"];
        let reports = race(&set, &field);
        assert_eq!(reports.len(), 2 * traces.len());
        for (l, label) in field.iter().enumerate() {
            for (t, trace) in traces.iter().enumerate() {
                let alone = evaluate(trace, &EvalOptions::default(), by_label(label));
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
