//! `BENCHMARK.json`, the benchmark's declaration: workloads, run length,
//! and every metric with its unit, direction and regression bound. It is
//! compiled in, so the binary always reports against the declaration it
//! was built with.

use heteronoc_bench::json::{self, Json};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Bigger is better.
    Higher,
}

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl Metric {
    /// True when `a` is worse than `b` by more than `share` of `b`.
    pub fn worse_by_more_than(&self, a: f64, b: f64, share: f64) -> bool {
        match self.better {
            Better::Lower => a > b * (1.0 + share),
            Better::Higher => a < b * (1.0 - share),
        }
    }

    /// True when `a` reads strictly better than `b`.
    pub fn better_than(&self, a: f64, b: f64) -> bool {
        match self.better {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The parsed declaration.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics reported by untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Metrics reported by traced runs.
    pub per_layer: Vec<Metric>,
}

/// The declaration's text, as compiled in.
pub const TEXT: &str = include_str!("../../BENCHMARK.json");

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Errors
    /// A message naming the malformed member.
    pub fn load() -> Result<Spec, String> {
        Spec::parse(TEXT)
    }

    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    /// A message naming the malformed member.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("BENCHMARK.json: run_seconds")?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: workloads")?
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: workload name")?;
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics(&doc, "end_to_end", true)?,
            per_layer: metrics(&doc, "per_layer", false)?,
        })
    }

    /// Looks an end-to-end metric up by name.
    pub fn end_to_end(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

fn metrics(doc: &Json, key: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: {key}"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_owned);
            let name = field("name").ok_or_else(|| format!("BENCHMARK.json: {key} name"))?;
            let bad = || format!("BENCHMARK.json: {key} metric {name}");
            let better = match field("better").as_deref() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(bad()),
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            if bounded != bound.is_some() {
                return Err(bad());
            }
            Ok(Metric {
                unit: field("unit").ok_or_else(bad)?,
                name,
                better,
                bound,
            })
        })
        .collect()
}
