//! The predictor tournament: every family in the repo raced over the same
//! traces, with honest storage accounting — the accuracy-vs-bits frontier.
//!
//! The paper compares Cosmos against directed predictors on accuracy alone
//! (§7); Table 7 prices Cosmos's tables separately. The tournament joins
//! the two axes: each contender replays the identical trace set through
//! [`cosmos::eval::evaluate`] and reports both its accuracy *and* the
//! storage its fleet actually used, in bits, via
//! [`cosmos::MessagePredictor::storage_bits`]: every contender pays per
//! resident table entry.
//!
//! Contenders: Cosmos at MHR depths 1–4 (filterless) and the §7 directed
//! predictors and baselines — [`extras::comparison`](crate::extras::comparison)'s
//! field with two more depths and the bits column.

use crate::contenders;
use crate::traces::TraceSet;
use std::fmt::Write as _;

/// The field, in display order (labels of [`contenders::CONTENDERS`]).
pub(crate) const FIELD: [&str; 10] = [
    "cosmos-d1",
    "cosmos-d2",
    "cosmos-d3",
    "cosmos-d4",
    "migratory",
    "self-inval",
    "rmw",
    "composition",
    "last-tuple",
    "most-common",
];

/// One `(contender, benchmark)` cell of the tournament.
#[derive(Debug, Clone)]
pub struct TournamentCell {
    /// Benchmark name.
    pub app: String,
    /// Contender label (depth included, unlike `name()`).
    pub predictor: String,
    /// Correct predictions among scored messages.
    pub hits: u64,
    /// Messages scored.
    pub total: u64,
    /// Messages for which a prediction was offered at all.
    pub offered: u64,
    /// The fleet's storage cost after the replay, in bits.
    pub storage_bits: u64,
}

/// `part` of `whole` as a percentage; 0 of nothing.
fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        return 0.0;
    }
    100.0 * part as f64 / whole as f64
}

impl TournamentCell {
    /// Accuracy on all messages, as a percentage.
    pub fn accuracy_pct(&self) -> f64 {
        pct(self.hits, self.total)
    }

    /// Share of messages with a prediction offered, as a percentage.
    pub fn coverage_pct(&self) -> f64 {
        pct(self.offered, self.total)
    }
}

/// One contender's aggregate row: accuracy pooled over every benchmark
/// (messages-weighted, not a mean of means) and the per-benchmark mean
/// fleet storage.
#[derive(Debug, Clone)]
pub struct FrontierRow {
    /// Contender label.
    pub predictor: String,
    /// Correct predictions pooled over all benchmarks.
    pub hits: u64,
    /// Messages scored over all benchmarks.
    pub total: u64,
    /// Mean fleet storage per benchmark, in bits (rounded to nearest).
    pub storage_bits: u64,
    /// Whether no other contender has both fewer-or-equal bits and
    /// greater-or-equal accuracy (with one strict) — the Pareto frontier.
    pub pareto: bool,
}

impl FrontierRow {
    /// Pooled accuracy as a percentage.
    pub fn accuracy_pct(&self) -> f64 {
        pct(self.hits, self.total)
    }
}

/// Races every contender over every trace of the set. Cells come back in
/// deterministic contender-major order; the sweep itself is parallel.
pub fn tournament(set: &TraceSet) -> Vec<TournamentCell> {
    let traces = set.traces();
    contenders::race(set, &contenders::plain(&FIELD))
        .into_iter()
        .enumerate()
        .map(|(i, report)| TournamentCell {
            app: traces[i % traces.len()].meta().app.clone(),
            predictor: FIELD[i / traces.len()].to_string(),
            hits: report.overall.hits,
            total: report.overall.total,
            offered: report.coverage.hits,
            storage_bits: report.storage_bits,
        })
        .collect()
}

/// The cells of one contender at a time: [`tournament`] returns them
/// contender-major, each contender over the same benchmarks in the same
/// order, and the folds below rely on it.
fn by_contender(cells: &[TournamentCell]) -> impl Iterator<Item = &[TournamentCell]> {
    cells.chunk_by(|a, b| a.predictor == b.predictor)
}

/// Folds [`tournament`]'s cells into one frontier row per contender and
/// marks Pareto optimality. Rows keep the contender display order.
pub fn frontier(cells: &[TournamentCell]) -> Vec<FrontierRow> {
    let mut rows: Vec<FrontierRow> = by_contender(cells)
        .map(|mine| {
            let bits: u64 = mine.iter().map(|c| c.storage_bits).sum();
            let n = mine.len() as u64;
            FrontierRow {
                predictor: mine[0].predictor.clone(),
                hits: mine.iter().map(|c| c.hits).sum(),
                total: mine.iter().map(|c| c.total).sum(),
                storage_bits: (bits + n / 2) / n,
                pareto: false,
            }
        })
        .collect();
    let snapshot: Vec<(u64, f64)> = rows
        .iter()
        .map(|r| (r.storage_bits, r.accuracy_pct()))
        .collect();
    for (i, row) in rows.iter_mut().enumerate() {
        let (bits, acc) = snapshot[i];
        row.pareto = !snapshot
            .iter()
            .enumerate()
            .any(|(j, &(b, a))| j != i && b <= bits && a >= acc && (b < bits || a > acc));
    }
    rows
}

/// Renders [`tournament`]'s cells as the per-benchmark accuracy matrix.
pub fn render_tournament(cells: &[TournamentCell]) -> String {
    let mut out = String::from(
        "Tournament: overall accuracy (%) per contender and benchmark.\n\
         Every contender replays the identical traces; a message with no\n\
         prediction offered scores as a miss.\n",
    );
    let _ = write!(out, "{:<14}", "predictor");
    for c in by_contender(cells).next().unwrap_or_default() {
        let _ = write!(out, " {:>12}", c.app);
    }
    let _ = writeln!(out, " {:>8}", "cov%");
    for mine in by_contender(cells) {
        let _ = write!(out, "{:<14}", mine[0].predictor);
        for c in mine {
            let _ = write!(out, " {:>12.1}", c.accuracy_pct());
        }
        let offered: u64 = mine.iter().map(|c| c.offered).sum();
        let total: u64 = mine.iter().map(|c| c.total).sum();
        let _ = writeln!(out, " {:>8.1}", pct(offered, total));
    }
    out
}

/// Renders the accuracy-vs-bits frontier, cheapest first.
pub fn render_frontier(rows: &[FrontierRow]) -> String {
    let mut out = String::from(
        "Frontier: pooled accuracy vs mean fleet storage (bits/benchmark).\n\
         `*` marks the Pareto frontier — no contender is both cheaper and\n\
         more accurate.\n",
    );
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>10} {:>7}",
        "predictor", "bits", "acc%", "pareto"
    );
    let mut sorted: Vec<&FrontierRow> = rows.iter().collect();
    sorted.sort_by(|a, b| {
        a.storage_bits
            .cmp(&b.storage_bits)
            .then_with(|| a.predictor.cmp(&b.predictor))
    });
    for row in sorted {
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>10.1} {:>7}",
            row.predictor,
            row.storage_bits,
            row.accuracy_pct(),
            if row.pareto { "*" } else { "" }
        );
    }
    out
}

/// Machine-readable per-cell CSV.
pub fn csv_tournament(cells: &[TournamentCell]) -> String {
    let mut out = String::from("app,predictor,hits,total,accuracy_pct,coverage_pct,storage_bits\n");
    for c in cells {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.4},{:.4},{}",
            c.app,
            c.predictor,
            c.hits,
            c.total,
            c.accuracy_pct(),
            c.coverage_pct(),
            c.storage_bits
        );
    }
    out
}

/// Machine-readable frontier CSV, in contender display order.
pub fn csv_frontier(rows: &[FrontierRow]) -> String {
    let mut out = String::from("predictor,storage_bits,accuracy_pct,pareto\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{:.4},{}",
            r.predictor,
            r.storage_bits,
            r.accuracy_pct(),
            u64::from(r.pareto)
        );
    }
    out
}

/// Exports the frontier as a `tournament.*` obs snapshot.
pub fn export_obs(cells: &[TournamentCell], rows: &[FrontierRow]) -> obs::Snapshot {
    let mut snap = obs::Snapshot::new();
    snap.counter("tournament.cells", cells.len() as u64);
    snap.counter("tournament.contenders", rows.len() as u64);
    snap.counter(
        "tournament.pareto_count",
        rows.iter().filter(|r| r.pareto).count() as u64,
    );
    for r in rows {
        let key = &r.predictor;
        snap.gauge(&format!("tournament.{key}.accuracy_pct"), r.accuracy_pct());
        snap.counter(&format!("tournament.{key}.storage_bits"), r.storage_bits);
        snap.counter(&format!("tournament.{key}.pareto"), u64::from(r.pareto));
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::Scale;

    fn small_cells() -> Vec<TournamentCell> {
        let set = TraceSet::generate(Scale::Small);
        tournament(&set)
    }

    #[test]
    fn covers_every_contender_and_benchmark() {
        let cells = small_cells();
        assert_eq!(cells.len(), FIELD.len() * 5);
        for c in &cells {
            assert!(c.total > 0, "{}:{} scored nothing", c.app, c.predictor);
            assert!(c.hits <= c.total);
            assert!(c.offered <= c.total);
        }
        // Every contender carries a storage price on at least one
        // benchmark: 0 would mean unaccounted, which the frontier bans.
        for name in FIELD {
            let bits: u64 = cells
                .iter()
                .filter(|c| c.predictor == name)
                .map(|c| c.storage_bits)
                .sum();
            assert!(bits > 0, "{name} reports no storage");
        }
    }

    #[test]
    fn cosmos_depth_dominates_its_storage() {
        let cells = small_cells();
        // A Cosmos fleet's bits grow with its MHR depth on every
        // benchmark: each block's register holds one more 16-bit tuple and
        // every PHT entry is keyed by one more.
        for app in ["appbt", "barnes", "dsmc", "moldyn", "unstructured"] {
            let bits = |label: &str| {
                cells
                    .iter()
                    .find(|c| c.app == app && c.predictor == label)
                    .map(|c| c.storage_bits)
                    .expect("every contender ran every benchmark")
            };
            let depths = ["cosmos-d1", "cosmos-d2", "cosmos-d3", "cosmos-d4"].map(bits);
            assert!(depths[0] > 0, "{app}: depth 1 reports no storage");
            assert!(depths.windows(2).all(|w| w[0] < w[1]), "{app}: {depths:?}");
        }
    }

    #[test]
    fn frontier_pools_and_marks_pareto() {
        let cells = small_cells();
        let rows = frontier(&cells);
        assert_eq!(rows.len(), FIELD.len());
        // Totals pool: each row's total is the sum of its cells'.
        for row in &rows {
            let total: u64 = cells
                .iter()
                .filter(|c| c.predictor == row.predictor)
                .map(|c| c.total)
                .sum();
            assert_eq!(row.total, total, "{}", row.predictor);
        }
        // At least one Pareto point exists, and no Pareto point is
        // dominated by another row.
        let pareto: Vec<&FrontierRow> = rows.iter().filter(|r| r.pareto).collect();
        assert!(!pareto.is_empty());
        for p in &pareto {
            for other in &rows {
                if other.predictor == p.predictor {
                    continue;
                }
                let dominated = other.storage_bits <= p.storage_bits
                    && other.accuracy_pct() >= p.accuracy_pct()
                    && (other.storage_bits < p.storage_bits
                        || other.accuracy_pct() > p.accuracy_pct());
                assert!(
                    !dominated,
                    "{} dominated by {}",
                    p.predictor, other.predictor
                );
            }
        }
    }

    #[test]
    fn runs_are_byte_identical() {
        let set = TraceSet::generate(Scale::Small);
        let a = tournament(&set);
        let b = tournament(&set);
        assert_eq!(csv_tournament(&a), csv_tournament(&b));
        assert_eq!(csv_frontier(&frontier(&a)), csv_frontier(&frontier(&b)));
    }

    #[test]
    fn renders_and_exports() {
        let cells = small_cells();
        let rows = frontier(&cells);
        let t = render_tournament(&cells);
        assert!(t.contains("cosmos-d1") && t.contains("most-common"));
        let f = render_frontier(&rows);
        assert!(f.contains("pareto"));
        let snap = export_obs(&cells, &rows);
        assert!(snap.names().iter().all(|n| n.starts_with("tournament.")));
        assert!(matches!(
            snap.get("tournament.cells"),
            Some(obs::MetricValue::Counter(n)) if *n == cells.len() as u64
        ));
        assert!(matches!(
            snap.get("tournament.most-common.storage_bits"),
            Some(obs::MetricValue::Counter(n)) if *n > 0
        ));
    }
}
