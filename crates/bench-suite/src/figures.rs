//! The paper's figures, regenerated as text artefacts.

use crate::contenders::Race;
use crate::tables::DEPTH1;
use cosmos::directed::{DsiPredictor, MigratoryPredictor};
use cosmos::speedup::{figure5_sweep, SweepPoint};
use cosmos::MessagePredictor;
use cosmos::PredTuple;
use stache::{MsgType, NodeId, Role};
use std::fmt::Write as _;

/// Figure 5: the §4.4 speedup model at `p = 0.8`, `f` swept over `[0, 1]`
/// for penalties `r ∈ {0, 0.5, 1}`.
pub fn figure5() -> Vec<Vec<SweepPoint>> {
    figure5_sweep(0.8, &[0.0, 0.5, 1.0], 11)
}

/// Renders Figure 5 as the series the paper plots.
pub fn render_figure5(series: &[Vec<SweepPoint>]) -> String {
    let mut out = String::from("FIGURE 5. Speedup model, p = 0.8 (rows: f; columns: penalty r)\n");
    let _ = writeln!(
        out,
        "{:>5}  {:>9}  {:>9}  {:>9}",
        "f", "r=0", "r=0.5", "r=1"
    );
    let steps = series.first().map_or(0, Vec::len);
    for i in 0..steps {
        let f = series[0][i].params.f;
        let _ = write!(out, "{f:>5.1}");
        for s in series {
            let _ = write!(out, "  {:>8.3}x", s[i].speedup);
        }
        out.push('\n');
    }
    out.push_str("(paper headline: r=1, f=0.3 gives ~1.56x, i.e. 56% speedup)\n");
    out
}

/// CSV for Figure 5: `p,f,r,speedup`.
pub fn csv_figure5(series: &[Vec<SweepPoint>]) -> String {
    let mut out = String::from("p,f,r,speedup\n");
    for s in series {
        for pt in s {
            let _ = writeln!(
                out,
                "{:.2},{:.2},{:.2},{:.6}",
                pt.params.p, pt.params.f, pt.params.r, pt.speedup
            );
        }
    }
    out
}

/// Renders Figures 6 and 7: each benchmark's dominant incoming-message
/// signatures at the cache and the directory, labelled `X/Y` (X = arc
/// prediction accuracy %, Y = arc reference share %), read from a race of
/// [`DEPTH1`] — a depth-1 filterless Cosmos, as the paper's caption
/// states.
pub fn render_figures_6_7(race: &Race) -> String {
    let mut out = String::from(
        "FIGURES 6 & 7. Dominant incoming message signatures (depth-1 Cosmos)\n\
         Arc label X/Y: X = % predicted correctly, Y = % of references\n",
    );
    for app in race.apps() {
        let report = race.report(DEPTH1, app);
        let _ = writeln!(out, "\n== {app} ==");
        for role in [Role::Cache, Role::Directory] {
            let _ = writeln!(out, "  at the {role}:");
            for (arc, acc, share) in report.dominant_arcs(role, 6) {
                let _ = writeln!(
                    out,
                    "    {:<22} -> {:<22} {:>3.0}/{:<3.0}",
                    arc.prev.paper_name(),
                    arc.next.paper_name(),
                    acc,
                    share
                );
            }
        }
    }
    out
}

/// Figure 8: the trigger signatures of dynamic self-invalidation (a) and
/// the migratory protocol (b), demonstrated by driving the directed
/// predictors through their own signature and showing each step's
/// prediction.
pub fn render_figure8() -> String {
    let mut out = String::from(
        "FIGURE 8. Directed-optimisation trigger signatures, as tracked by\n\
         the directed predictors (cache side; sender is the directory)\n",
    );
    let home = NodeId::new(0);
    let block = stache::BlockAddr::new(1);

    let _ = writeln!(out, "\n(a) dynamic self-invalidation — producer loop");
    let mut dsi = DsiPredictor::new(Role::Cache);
    for m in [
        MsgType::GetRwResponse,
        MsgType::InvalRwRequest,
        MsgType::GetRwResponse,
        MsgType::InvalRwRequest,
    ] {
        dsi.observe(block, PredTuple::new(home, m));
        let pred = dsi
            .predict(block)
            .map(|p| p.mtype.paper_name().to_string())
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(out, "  saw {:<20} -> predicts {}", m.paper_name(), pred);
    }

    let _ = writeln!(out, "\n(b) migratory protocol — read, upgrade, invalidate");
    let mut mig = MigratoryPredictor::new(Role::Cache);
    for m in [
        MsgType::GetRoResponse,
        MsgType::UpgradeResponse,
        MsgType::InvalRwRequest,
        MsgType::GetRoResponse,
    ] {
        mig.observe(block, PredTuple::new(home, m));
        let pred = mig
            .predict(block)
            .map(|p| p.mtype.paper_name().to_string())
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(out, "  saw {:<20} -> predicts {}", m.paper_name(), pred);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::{Scale, TraceSet};

    #[test]
    fn figure5_matches_the_paper_headline() {
        let series = figure5();
        assert_eq!(series.len(), 3);
        // r = 1 series, f = 0.3 entry: speedup ~1.5625.
        let p = &series[2][3];
        assert!((p.params.f - 0.3).abs() < 1e-9);
        assert!((p.speedup - 1.5625).abs() < 1e-6);
        assert!(render_figure5(&series).contains("56%"));
    }

    #[test]
    fn figures_6_7_show_each_benchmark() {
        let set = TraceSet::generate(Scale::Small);
        let s = render_figures_6_7(&crate::contenders::race(&set, &[DEPTH1]));
        for app in ["appbt", "barnes", "dsmc", "moldyn", "unstructured"] {
            assert!(s.contains(app));
        }
        assert!(s.contains("get_ro_response"));
    }

    #[test]
    fn figure8_predictions_follow_the_loops() {
        let s = render_figure8();
        assert!(s.contains("self-invalidation"));
        assert!(s.contains("migratory"));
        // The DSI loop predicts the invalidation after a fill.
        assert!(s.contains("saw get_rw_response"));
        assert!(s.contains("predicts inval_rw_request"));
    }
}
