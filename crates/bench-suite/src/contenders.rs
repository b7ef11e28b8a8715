//! The contender table: every predictor configuration a study races,
//! declared once as `(label, factory)`, and the [`race`] that replays a
//! field of them over the shared traces.
//!
//! Tables 5–8, Figures 6–7, the §6.2 time-to-adapt and the §7 comparison
//! are views of one [`Race`], and the streamed [`tracepack`](crate::tracepack)
//! replay picks its fleet here too: a label means one configuration
//! everywhere, and a new contender is one line here plus its label in the
//! study that wants it.

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
    // Cosmos at MHR depths 1–4.
    ("cosmos-d1", |_, _| Box::new(Cosmos::new(1, 0))),
    ("cosmos-d2", |_, _| Box::new(Cosmos::new(2, 0))),
    ("cosmos-d3", |_, _| Box::new(Cosmos::new(3, 0))),
    ("cosmos-d4", |_, _| Box::new(Cosmos::new(4, 0))),
    // Table 6: depths 1 and 2 behind a noise filter of max-count 1 or 2.
    ("cosmos-d1-f1", |_, _| Box::new(Cosmos::new(1, 1))),
    ("cosmos-d1-f2", |_, _| Box::new(Cosmos::new(1, 2))),
    ("cosmos-d2-f1", |_, _| Box::new(Cosmos::new(2, 1))),
    ("cosmos-d2-f2", |_, _| Box::new(Cosmos::new(2, 2))),
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

/// A field raced over a trace set: one [`AccuracyReport`] per (label,
/// trace), looked up by label and app name.
#[derive(Debug, Clone, Default)]
pub struct Race {
    labels: Vec<&'static str>,
    apps: Vec<String>,
    /// Label-major: label `l` on trace `t` is `l * apps.len() + t`.
    reports: Vec<AccuracyReport>,
}

impl Race {
    /// The raced traces' app names, in Table 4 row order.
    pub fn apps(&self) -> impl Iterator<Item = &str> {
        self.apps.iter().map(String::as_str)
    }

    /// Contender `label`'s report on the trace of `app`.
    ///
    /// # Panics
    ///
    /// Panics if the race did not replay that pair: a view read a label
    /// its target does not name.
    pub fn report(&self, label: &str, app: &str) -> &AccuracyReport {
        let l = self.labels.iter().position(|l| *l == label);
        let t = self.apps.iter().position(|a| a == app);
        match (l, t) {
            (Some(l), Some(t)) => &self.reports[l * self.apps.len() + t],
            _ => panic!("{label} on {app} was not raced"),
        }
    }
}

/// Races a field over every trace of the set: each label replays each
/// trace once through [`evaluate`] (default options) with the fleet
/// [`by_label`] builds, one sweep cell per replay; the reports do not
/// depend on the worker count.
pub fn race(set: &TraceSet, field: &[&'static str]) -> Race {
    let traces = set.traces();
    let reports = par::sweep(field.len() * traces.len(), |i| {
        let factory = by_label(field[i / traces.len()]);
        evaluate(&traces[i % traces.len()], &EvalOptions::default(), factory)
    });
    Race {
        labels: field.to_vec(),
        apps: traces.iter().map(|t| t.meta().app.clone()).collect(),
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::Scale;
    use crate::{extras, tables, tracepack};

    #[test]
    fn every_study_label_is_in_the_table() {
        // `by_label` panics only when a study runs; this catches a typo in
        // a field nobody raced today. And a row no surviving field races
        // is an orphan, kept alive by nothing but this table.
        let fields: [&[&str]; 5] = [
            &tables::BY_DEPTH,
            tables::TABLE6_FIELD.as_flattened(),
            &[tables::DEPTH1],
            &extras::COMPARISON,
            &[tracepack::REPLAY_FLEET],
        ];
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
    fn race_looks_up_each_report_by_label_and_app() {
        // Two labels over the five traces.
        let set = TraceSet::generate(Scale::Small);
        let field = ["cosmos-d1", "cosmos-d3"];
        let raced = race(&set, &field);
        assert!(raced
            .apps()
            .eq(set.traces().iter().map(|t| t.meta().app.as_str())));
        let mut cells = Vec::new();
        for label in field {
            for trace in set.traces() {
                let alone = evaluate(trace, &EvalOptions::default(), by_label(label));
                let r = raced.report(label, &trace.meta().app);
                assert_eq!(r.overall, alone.overall, "{label} on {}", trace.meta().app);
                assert_eq!(r.memory, alone.memory, "{label} on {}", trace.meta().app);
                cells.push((r.overall, r.memory));
            }
        }
        // The cells differ pairwise, so a transposed or shuffled lookup
        // could not have passed the loop above.
        for (i, a) in cells.iter().enumerate() {
            assert!(!cells[..i].contains(a));
        }
    }

    #[test]
    #[should_panic(expected = "cosmos-d2 on appbt was not raced")]
    fn reading_an_unraced_label_is_a_loud_bug() {
        let raced = Race {
            labels: vec!["cosmos-d1"],
            apps: vec!["appbt".into()],
            reports: Vec::new(),
        };
        raced.report("cosmos-d2", "appbt");
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
