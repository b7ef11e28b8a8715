//! Point-in-time metric snapshots and their JSON/CSV exports.
//!
//! A [`Snapshot`] is a sorted map from metric name to [`MetricValue`],
//! filled in directly by the subsystems that keep the tallies. Because
//! the map is a `BTreeMap` and all formatting is deterministic, exporting
//! the same run twice yields byte-identical output — which is what golden
//! tests and diff-based regression tooling need.
//!
//! ## JSON schema (`obs.v1`)
//!
//! ```json
//! {
//!   "schema": "obs.v1",
//!   "metrics": {
//!     "<name>": <u64>,                      // counter
//!     "<name>": <f64|null>,                 // gauge (null if non-finite)
//!     "<name>": {"count":u64,"sum":u64,"min":u64,"max":u64,
//!                 "mean":f64,"p50":u64,"p95":u64}   // histogram
//!   }
//! }
//! ```
//!
//! Metric names appear in sorted order. The CSV export flattens each
//! metric to `name,kind,value` rows (histograms become one row per
//! summary statistic: `name.count`, `name.p50`, …).

use crate::hist::Histogram;
use crate::json;
use crate::table::Table;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One exported metric value.
// Snapshots are built once per run at export time; the histogram variant's
// size is irrelevant there, and boxing it would force every consumer match
// through an indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonic count.
    Counter(u64),
    /// A point-in-time floating value.
    Gauge(f64),
    /// A full histogram (summarised on export).
    Histogram(Histogram),
}

/// A sorted, deterministic snapshot of named metrics.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Records a counter value.
    pub fn counter(&mut self, name: &str, v: u64) {
        self.metrics
            .insert(name.to_string(), MetricValue::Counter(v));
    }

    /// Records a gauge value.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), MetricValue::Gauge(v));
    }

    /// Records a histogram.
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        self.metrics
            .insert(name.to_string(), MetricValue::Histogram(*h));
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// All metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.metrics.keys().cloned().collect()
    }

    /// Iterates `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges `other` into `self`. Same-named counters add, gauges take
    /// the incoming value, histograms merge bucket-wise; a kind mismatch
    /// takes the incoming value (last writer wins).
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.metrics {
            match (self.metrics.get_mut(name), v) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => {
                    // Saturate: merging near-full counters must peg at
                    // u64::MAX, not wrap to a small value.
                    *a = a.saturating_add(*b);
                }
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => {
                    a.merge(b);
                }
                (Some(slot), incoming) => *slot = *incoming,
                (None, incoming) => {
                    self.metrics.insert(name.clone(), *incoming);
                }
            }
        }
    }

    /// Serialises to `obs.v1` JSON (see the module docs for the schema).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"obs.v1\",\"metrics\":{");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_literal(&mut out, name);
            out.push(':');
            match v {
                MetricValue::Counter(c) => {
                    let _ = write!(out, "{c}");
                }
                MetricValue::Gauge(g) => json::push_f64(&mut out, *g),
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max()
                    );
                    json::push_f64(&mut out, h.mean());
                    let _ = write!(out, ",\"p50\":{},\"p95\":{}}}", h.p50(), h.p95());
                }
            }
        }
        out.push_str("}}\n");
        out
    }

    /// Flattens into a `name,kind,value` [`Table`] (histograms expand to
    /// one row per summary statistic).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec!["metric", "kind", "value"]);
        for (name, v) in &self.metrics {
            match v {
                MetricValue::Counter(c) => {
                    t.push_row(vec![name.clone(), "counter".into(), c.to_string()]);
                }
                MetricValue::Gauge(g) => {
                    t.push_row(vec![name.clone(), "gauge".into(), format!("{g}")]);
                }
                MetricValue::Histogram(h) => {
                    let stats: [(&str, String); 7] = [
                        ("count", h.count().to_string()),
                        ("sum", h.sum().to_string()),
                        ("min", h.min().to_string()),
                        ("max", h.max().to_string()),
                        ("mean", format!("{}", h.mean())),
                        ("p50", h.p50().to_string()),
                        ("p95", h.p95().to_string()),
                    ];
                    for (stat, value) in stats {
                        t.push_row(vec![format!("{name}.{stat}"), "histogram".into(), value]);
                    }
                }
            }
        }
        t
    }

    /// Serialises to CSV via [`Snapshot::to_table`].
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.counter("b.count", 7);
        s.gauge("a.rate", 0.5);
        let mut h = Histogram::new();
        h.record(10);
        h.record(1000);
        s.histogram("c.lat_ns", &h);
        s
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let s = sample();
        let json = s.to_json();
        assert_eq!(json, s.to_json());
        let a = json.find("\"a.rate\"").unwrap();
        let b = json.find("\"b.count\"").unwrap();
        let c = json.find("\"c.lat_ns\"").unwrap();
        assert!(a < b && b < c);
        assert!(json.starts_with("{\"schema\":\"obs.v1\""));
        assert!(json.contains("\"b.count\":7"));
        assert!(json.contains("\"count\":2"));
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.get("b.count"), Some(&MetricValue::Counter(14)));
        match a.get("c.lat_ns") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 4),
            other => panic!("expected histogram, got {other:?}"),
        }
        // Gauges take the incoming value.
        assert_eq!(a.get("a.rate"), Some(&MetricValue::Gauge(0.5)));
    }

    #[test]
    fn merge_saturates_counters_at_the_top_of_the_range() {
        // Regression: merge used `wrapping_add`, so combining two
        // near-full counters produced a small wrapped value.
        let mut a = Snapshot::new();
        a.counter("edge", u64::MAX - 1);
        let mut b = Snapshot::new();
        b.counter("edge", 5);
        a.merge(&b);
        assert_eq!(a.get("edge"), Some(&MetricValue::Counter(u64::MAX)));
        a.merge(&b);
        assert_eq!(
            a.get("edge"),
            Some(&MetricValue::Counter(u64::MAX)),
            "repeated merges must stay pegged"
        );
    }

    #[test]
    fn csv_flattens_histograms() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("metric,kind,value\n"));
        assert!(csv.contains("b.count,counter,7\n"));
        assert!(csv.contains("c.lat_ns.count,histogram,2\n"));
        assert!(csv.contains("c.lat_ns.p95,histogram,1000\n"));
    }

    #[test]
    fn nan_gauge_exports_null_json() {
        let mut s = Snapshot::new();
        s.gauge("x", f64::NAN);
        assert!(s.to_json().contains("\"x\":null"));
    }
}
