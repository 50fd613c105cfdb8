//! `compare PARENT_DIR CHANGE_DIR [--claim metric@workload]`: judges a
//! change against its parent from two sets of recorded untraced runs.
//!
//! Per workload and end-to-end metric it reports each side's median and
//! quartiles, flags a regression when the change's median is worse than
//! the parent's by more than the metric's bound, and calls the pair
//! unresolved when either side's spread (quartile distance over median)
//! exceeds the bound — unless every change run reads better than every
//! parent run. A claimed gain must win at least nine tenths of the
//! parent/change pairs (runs paired in recorded order, ties counting for
//! neither), by a median gap wider than the parent's quartile distance,
//! with no more failed operations than the parent.

use std::path::Path;

use heteronoc_bench::json::{self, Json};

use crate::spec::{Metric, Spec};
use crate::stats::quartiles;

/// File name of the untraced runs inside a record directory.
pub const UNTRACED: &str = "untraced.jsonl";
/// File name of the traced runs inside a record directory.
pub const TRACED: &str = "traced.jsonl";

/// One recorded run of one workload.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

impl RunRecord {
    /// Parses one JSONL line as written by `run`.
    ///
    /// # Errors
    /// A message naming the missing member.
    pub fn parse(line: &str) -> Result<RunRecord, String> {
        let doc = json::parse(line).map_err(|e| e.to_string())?;
        let metrics = match doc.get("metrics") {
            Some(Json::Obj(members)) => members
                .iter()
                .map(|(k, v)| {
                    v.get("value")
                        .and_then(Json::as_f64)
                        .map(|x| (k.clone(), x))
                        .ok_or_else(|| format!("metric {k} has no value"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("no metrics object".to_owned()),
        };
        Ok(RunRecord {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("no workload")?
                .to_owned(),
            correct: doc
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("no correct")?,
            attempted: doc
                .get("attempted")
                .and_then(Json::as_u64)
                .ok_or("no attempted")?,
            failed: doc
                .get("failed")
                .and_then(Json::as_u64)
                .ok_or("no failed")?,
            metrics,
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Reads every untraced run recorded in `dir`.
///
/// # Errors
/// I/O failures and malformed lines, as a message.
pub fn load(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let path = dir.join(UNTRACED);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| RunRecord::parse(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// A claimed gain: `metric` on `workload`.
#[derive(Clone, Debug)]
pub struct Claim {
    /// End-to-end metric name.
    pub metric: String,
    /// Workload name.
    pub workload: String,
}

impl Claim {
    /// Parses `metric@workload`.
    pub fn parse(s: &str) -> Option<Claim> {
        let (metric, workload) = s.split_once('@')?;
        Some(Claim {
            metric: metric.to_owned(),
            workload: workload.to_owned(),
        })
    }
}

/// What [`compare`] found.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// The report, one line per workload × metric plus summaries.
    pub lines: Vec<String>,
    /// Workload × metric pairs worse than their bound.
    pub regressions: usize,
    /// Workload × metric pairs whose spread hides the answer.
    pub unresolved: usize,
    /// Change runs that failed a correctness check.
    pub incorrect: usize,
    /// Whether the claim, if one was made, is met.
    pub claim_met: Option<bool>,
}

impl Verdict {
    /// True when nothing regressed, every change run was correct and the
    /// claim, if any, is met.
    pub fn passed(&self) -> bool {
        self.regressions == 0 && self.incorrect == 0 && self.claim_met != Some(false)
    }
}

fn runs_of<'a>(runs: &'a [RunRecord], workload: &str) -> Vec<&'a RunRecord> {
    runs.iter().filter(|r| r.workload == workload).collect()
}

fn spread((q1, med, q3): (f64, f64, f64)) -> f64 {
    (q3 - q1) / med.abs()
}

/// Compares `change` against `parent` under `spec`'s bounds.
pub fn compare(
    spec: &Spec,
    parent: &[RunRecord],
    change: &[RunRecord],
    claim: Option<&Claim>,
) -> Verdict {
    let mut v = Verdict {
        incorrect: change.iter().filter(|r| !r.correct).count(),
        ..Verdict::default()
    };
    v.lines.push(format!(
        "{:<15} {:<14} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta"
    ));
    for w in &spec.workloads {
        let (p, c) = (runs_of(parent, w), runs_of(change, w));
        for m in &spec.end_to_end {
            let values = |rs: &[&RunRecord]| {
                rs.iter()
                    .filter_map(|r| r.value(&m.name))
                    .collect::<Vec<f64>>()
            };
            let (pv, cv) = (values(&p), values(&c));
            if pv.is_empty() || cv.is_empty() {
                v.unresolved += 1;
                v.lines
                    .push(format!("{w:<15} {:<14} no runs on one side", m.name));
                continue;
            }
            let (pq, cq) = (quartiles(&pv), quartiles(&cv));
            let bound = m.bound.unwrap_or(0.0);
            let all_better = cv.iter().all(|&c| pv.iter().all(|&p| m.better_than(c, p)));
            let verdict = if m.worse_by_more_than(cq.1, pq.1, bound) {
                v.regressions += 1;
                "REGRESSION"
            } else if spread(pq).max(spread(cq)) > bound && !all_better {
                v.unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            let fmt = |(q1, med, q3): (f64, f64, f64)| format!("{med:.5} [{q1:.5}, {q3:.5}]");
            v.lines.push(format!(
                "{w:<15} {:<14} {:>30} {:>30} {:>+7.1}%  {verdict} (n={}/{}, bound {:.0}%)",
                m.name,
                fmt(pq),
                fmt(cq),
                100.0 * (cq.1 - pq.1) / pq.1,
                pv.len(),
                cv.len(),
                100.0 * bound,
            ));
        }
        let failed = |rs: &[&RunRecord]| {
            (
                rs.iter().map(|r| r.failed).sum::<u64>(),
                rs.iter().map(|r| r.attempted).sum::<u64>(),
            )
        };
        let ((pf, pa), (cf, ca)) = (failed(&p), failed(&c));
        v.lines.push(format!(
            "{w:<15} {:<14} {:>30} {:>30}",
            "ops failed",
            format!("{pf}/{pa}"),
            format!("{cf}/{ca}")
        ));
    }
    if let Some(claim) = claim {
        let met = judge_claim(spec, parent, change, claim, &mut v.lines);
        v.claim_met = Some(met);
    }
    v.lines.push(format!(
        "{} regression(s), {} unresolved, {} incorrect change run(s)",
        v.regressions, v.unresolved, v.incorrect
    ));
    v
}

fn judge_claim(
    spec: &Spec,
    parent: &[RunRecord],
    change: &[RunRecord],
    claim: &Claim,
    out: &mut Vec<String>,
) -> bool {
    let Some(m) = spec.end_to_end(&claim.metric) else {
        out.push(format!(
            "claim: {} is not an end-to-end metric",
            claim.metric
        ));
        return false;
    };
    let (p, c) = (
        runs_of(parent, &claim.workload),
        runs_of(change, &claim.workload),
    );
    let values = |rs: &[&RunRecord], m: &Metric| {
        rs.iter()
            .filter_map(|r| r.value(&m.name))
            .collect::<Vec<f64>>()
    };
    let (pv, cv) = (values(&p, m), values(&c, m));
    let pairs = pv.len().min(cv.len());
    let wins = pv
        .iter()
        .zip(&cv)
        .filter(|&(&p, &c)| m.better_than(c, p))
        .count();
    let (pq, cq) = (quartiles(&pv), quartiles(&cv));
    let gap = (cq.1 - pq.1).abs();
    let iqr = pq.2 - pq.0;
    let more_failures =
        c.iter().map(|r| r.failed).sum::<u64>() > p.iter().map(|r| r.failed).sum::<u64>();
    let met = pairs >= 10
        && wins * 10 >= pairs * 9
        && m.better_than(cq.1, pq.1)
        && gap > iqr
        && !more_failures;
    out.push(format!(
        "claim {}@{}: won {wins}/{pairs} pairs (need >= 9/10 of at least 10), median gap {gap:.5} vs parent IQR {iqr:.5}{} -> {}",
        claim.metric,
        claim.workload,
        if more_failures { ", more failed ops than the parent" } else { "" },
        if met { "MET" } else { "NOT MET" }
    ));
    met
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(workload: &str, wall: f64) -> RunRecord {
        RunRecord {
            workload: workload.to_owned(),
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![("wall_s".to_owned(), wall)],
        }
    }

    fn spec() -> Spec {
        Spec::parse(
            r#"{"run_seconds": 1, "workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap()
    }

    #[test]
    fn flags_a_regression_beyond_the_bound_only() {
        let parent: Vec<_> = (0..10)
            .map(|i| rec("w", 1.0 + 0.001 * f64::from(i)))
            .collect();
        let same: Vec<_> = (0..10)
            .map(|i| rec("w", 1.05 + 0.001 * f64::from(i)))
            .collect();
        let slow: Vec<_> = (0..10)
            .map(|i| rec("w", 1.2 + 0.001 * f64::from(i)))
            .collect();
        assert!(compare(&spec(), &parent, &same, None).passed());
        assert_eq!(compare(&spec(), &parent, &slow, None).regressions, 1);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let parent: Vec<_> = [1.0, 1.5, 0.8, 1.3].iter().map(|&x| rec("w", x)).collect();
        let change: Vec<_> = [1.1, 1.4, 0.9, 1.2].iter().map(|&x| rec("w", x)).collect();
        assert_eq!(compare(&spec(), &parent, &change, None).unresolved, 1);
        let faster: Vec<_> = [0.5, 0.7, 0.6, 0.4].iter().map(|&x| rec("w", x)).collect();
        assert_eq!(compare(&spec(), &parent, &faster, None).unresolved, 0);
    }

    #[test]
    fn claim_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_iqr() {
        let claim = Claim::parse("wall_s@w").unwrap();
        let parent: Vec<_> = (0..10)
            .map(|i| rec("w", 1.0 + 0.01 * f64::from(i)))
            .collect();
        let faster: Vec<_> = (0..10)
            .map(|i| rec("w", 0.8 + 0.01 * f64::from(i)))
            .collect();
        assert_eq!(
            compare(&spec(), &parent, &faster, Some(&claim)).claim_met,
            Some(true)
        );
        // Same medians shifted by less than the parent's spread.
        let marginal: Vec<_> = (0..10)
            .map(|i| rec("w", 0.99 + 0.01 * f64::from(i)))
            .collect();
        assert_eq!(
            compare(&spec(), &parent, &marginal, Some(&claim)).claim_met,
            Some(false)
        );
        // Too few pairs.
        assert_eq!(
            compare(&spec(), &parent[..5], &faster[..5], Some(&claim)).claim_met,
            Some(false)
        );
    }

    #[test]
    fn parses_a_recorded_line() {
        let r = RunRecord::parse(
            r#"{"workload":"w","seed":1,"trace":0,"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#,
        )
        .unwrap();
        assert_eq!(r.workload, "w");
        assert_eq!(r.value("wall_s"), Some(1.25));
        assert!(RunRecord::parse(r#"{"workload":"w"}"#).is_err());
    }
}
