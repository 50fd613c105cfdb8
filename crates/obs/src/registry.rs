//! Hierarchical metrics registry.
//!
//! A [`Registry`] maps dot-separated paths (`"noc.sched.full_cycles"`,
//! `"sweep.points.done"`) to [`Metric`] values. It is a plain sorted map —
//! no interior mutability, no global state — so components export into it
//! explicitly (see [`crate::Instrument`]) and shards merge explicitly.
//!
//! Merge semantics are chosen so aggregate telemetry is independent of
//! sharding:
//!
//! * **counters** add,
//! * **histograms** add bucket-wise ([`LogHistogram::merge`], exact),
//! * **gauges** are instantaneous readings, so merging keeps the maximum —
//!   a deterministic, order-independent choice that preserves the "peak
//!   in-flight" reading dashboards care about.

use std::collections::BTreeMap;
use std::fmt;

use crate::hist::LogHistogram;
use crate::json;

/// A single metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonically increasing count.
    Counter(u64),
    /// Instantaneous measurement (merge keeps the max).
    Gauge(f64),
    /// Log-bucketed sample distribution.
    Hist(Box<LogHistogram>),
}

/// A sorted, hierarchical collection of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the counter at `path`, creating it at zero if absent.
    /// Replaces a non-counter at the same path.
    pub fn counter_add(&mut self, path: &str, n: u64) {
        match self.metrics.get_mut(path) {
            Some(Metric::Counter(c)) => *c = c.saturating_add(n),
            _ => {
                self.metrics.insert(path.to_string(), Metric::Counter(n));
            }
        }
    }

    /// Set the counter at `path` to an absolute value.
    pub fn set_counter(&mut self, path: &str, v: u64) {
        self.metrics.insert(path.to_string(), Metric::Counter(v));
    }

    /// Set the gauge at `path`.
    pub fn set_gauge(&mut self, path: &str, v: f64) {
        self.metrics.insert(path.to_string(), Metric::Gauge(v));
    }

    /// Record one sample into the histogram at `path`, creating it if
    /// absent. Replaces a non-histogram at the same path.
    pub fn observe(&mut self, path: &str, value: u64) {
        match self.metrics.get_mut(path) {
            Some(Metric::Hist(h)) => h.record(value),
            _ => {
                let mut h = LogHistogram::new();
                h.record(value);
                self.metrics
                    .insert(path.to_string(), Metric::Hist(Box::new(h)));
            }
        }
    }

    /// Merge `h` into the histogram at `path`, creating it if absent.
    /// Replaces a non-histogram at the same path.
    pub fn merge_hist(&mut self, path: &str, h: &LogHistogram) {
        match self.metrics.get_mut(path) {
            Some(Metric::Hist(existing)) => existing.merge(h),
            _ => {
                self.metrics
                    .insert(path.to_string(), Metric::Hist(Box::new(h.clone())));
            }
        }
    }

    /// Counter value at `path` (0 if absent or not a counter).
    pub fn counter(&self, path: &str) -> u64 {
        match self.metrics.get(path) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Gauge value at `path`, if present.
    pub fn gauge(&self, path: &str) -> Option<f64> {
        match self.metrics.get(path) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Histogram at `path`, if present.
    pub fn hist(&self, path: &str) -> Option<&LogHistogram> {
        match self.metrics.get(path) {
            Some(Metric::Hist(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Raw metric at `path`, if present.
    pub fn get(&self, path: &str) -> Option<&Metric> {
        self.metrics.get(path)
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterate metrics in sorted path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Fold `other` into `self`: counters add, histograms merge bucket-wise,
    /// gauges keep the maximum. Metrics only present in `other` are copied.
    /// Mismatched kinds at the same path keep `self`'s entry (shards built
    /// by the same code never disagree on kind).
    pub fn merge(&mut self, other: &Registry) {
        for (path, m) in &other.metrics {
            match (self.metrics.get_mut(path), m) {
                (Some(Metric::Counter(a)), Metric::Counter(b)) => *a = a.saturating_add(*b),
                (Some(Metric::Gauge(a)), Metric::Gauge(b)) => *a = a.max(*b),
                (Some(Metric::Hist(a)), Metric::Hist(b)) => a.merge(b),
                (Some(_), _) => {}
                (None, m) => {
                    self.metrics.insert(path.clone(), m.clone());
                }
            }
        }
    }

    /// Counter deltas since `baseline`: every counter in `self` whose value
    /// grew, as `(path, increase)` in sorted order. Gauges and histograms
    /// are skipped (snapshots already carry their absolute values).
    pub fn counter_deltas(&self, baseline: &Registry) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (path, m) in &self.metrics {
            if let Metric::Counter(now) = m {
                let before = baseline.counter(path);
                if *now > before {
                    out.push((path.clone(), now - before));
                }
            }
        }
        out
    }

    /// Render as a single-line JSON object with dotted paths as keys:
    /// counters and gauges as numbers, histograms as summary objects.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.push_json(&mut out);
        out
    }

    pub(crate) fn push_json(&self, out: &mut String) {
        out.push('{');
        for (i, (path, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = json::write_str(out, path);
            out.push(':');
            match m {
                Metric::Counter(c) => out.push_str(&c.to_string()),
                Metric::Gauge(g) => {
                    let _ = json::write_f64(out, *g);
                }
                Metric::Hist(h) => h.push_json(out),
            }
        }
        out.push('}');
    }
}

impl fmt::Display for Registry {
    /// Human-readable sorted listing, one metric per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (path, m) in &self.metrics {
            match m {
                Metric::Counter(c) => writeln!(f, "{path:<44} {c}")?,
                Metric::Gauge(g) => writeln!(f, "{path:<44} {g:.3}")?,
                Metric::Hist(h) => writeln!(
                    f,
                    "{path:<44} n={} mean={:.1} p50<={} p99<={}",
                    h.count(),
                    h.mean(),
                    h.quantile_upper_bound(0.50),
                    h.quantile_upper_bound(0.99),
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut r = Registry::new();
        r.counter_add("a.b", 3);
        r.counter_add("a.b", 4);
        assert_eq!(r.counter("a.b"), 7);
        assert_eq!(r.counter("missing"), 0);
        r.set_counter("a.b", 1);
        assert_eq!(r.counter("a.b"), 1);
    }

    #[test]
    fn merge_semantics() {
        let mut a = Registry::new();
        a.counter_add("c", 5);
        a.set_gauge("g", 1.0);
        a.observe("h", 10);

        let mut b = Registry::new();
        b.counter_add("c", 7);
        b.set_gauge("g", 3.0);
        b.observe("h", 20);
        b.counter_add("only_b", 1);

        a.merge(&b);
        assert_eq!(a.counter("c"), 12);
        assert_eq!(a.gauge("g"), Some(3.0));
        assert_eq!(a.hist("h").unwrap().count(), 2);
        assert_eq!(a.counter("only_b"), 1);
    }

    #[test]
    fn deltas_only_report_growth() {
        let mut base = Registry::new();
        base.counter_add("x", 10);
        base.counter_add("y", 5);
        let mut now = base.clone();
        now.counter_add("x", 3);
        now.counter_add("z", 2);
        now.set_gauge("g", 1.0);
        let d = now.counter_deltas(&base);
        assert_eq!(
            d,
            vec![("x".to_string(), 3), ("z".to_string(), 2)],
            "y unchanged, gauge skipped"
        );
    }

    #[test]
    fn json_is_sorted_and_deterministic() {
        let mut r = Registry::new();
        r.set_gauge("b.gauge", 2.5);
        r.counter_add("a.count", 1);
        assert_eq!(r.to_json(), "{\"a.count\":1,\"b.gauge\":2.5}");
        assert_eq!(r.to_json(), r.clone().to_json());
    }

    #[test]
    fn display_lists_every_metric() {
        let mut r = Registry::new();
        r.counter_add("noc.sched.full_cycles", 9);
        r.observe("noc.latency", 33);
        let s = r.to_string();
        assert!(s.contains("noc.sched.full_cycles"));
        assert!(s.contains("p99<="));
    }
}
