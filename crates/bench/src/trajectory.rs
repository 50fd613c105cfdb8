//! Perf-trajectory bench harness (`heteronoc bench`).
//!
//! Runs a *pinned* micro-suite — the same workloads, seeds and scales on
//! every invocation — and writes a schema-versioned record to
//! `results/bench/BENCH_<git-sha>.json`. Committing one record per merge
//! gives the repo a perf trajectory: any two records compare with
//! [`compare`], which flags regressions beyond a relative threshold and
//! is wired into CI as a gate against accidental slowdowns.
//!
//! The suite covers the three paths whose performance the project has
//! deliberately engineered and must not silently lose:
//!
//! * **Engine** — open-loop wall time at three injection rates and on a
//!   near-idle mesh, and a quiet mesh (rate 0) that the quiet-gap fast
//!   path covers without visiting a router, gated against the same
//!   horizon walked one cycle at a time (`quiet.speedup`,
//!   `Higher`-is-better);
//! * **Engine work** — at the same three rates, the allocation work per
//!   flit committed (`work.r<rate>.*`: SA stage-1 VCs, RC/VA heads, VA
//!   bids, wheel events), read off the run's [`SchedReport`]. These are
//!   exact counts, so they repeat on any host and gate exactly
//!   ([`Better::Exact`]): any increase is a regression;
//! * **Checkpoint round-trip** — capture, serialize to disk, reload and
//!   resume a mid-run checkpoint;
//! * **Sweep cache hit path** — re-running an already-cached sweep must
//!   stay a cheap scan, not a re-simulation.
//!
//! Wall times are min-of-N (N=2) to damp scheduler noise; entries marked
//! [`Better::Info`] (counts, scales) are recorded for context and never
//! gate.

use std::path::{Path, PathBuf};
use std::time::Instant;

use heteronoc::noc::config::NetworkConfig;
use heteronoc::noc::network::Network;
use heteronoc::noc::sched::SchedReport;
use heteronoc::noc::sim::{InjectionProcess, SimParams, SimRun, Stepper, UniformRandom};
use heteronoc::noc::types::Rate;

use crate::json::{self, Json};
use crate::sweep::{run_sweep, PointKind, PointSpec, Sweep, SweepOptions, TrafficSpec};

/// Version of the `BENCH_*.json` record layout. Bump on any change to the
/// schema or when an existing entry is renamed or re-scaled (that makes
/// cross-version comparisons meaningless); new entries need no bump, since
/// [`compare`] reports one-sided entries without failing, and neither does
/// a new gate direction, which an older reader rejects by entry name.
pub const BENCH_SCHEMA: u32 = 2;

/// Default relative regression threshold for [`compare`]: 15%.
pub const DEFAULT_THRESHOLD: f64 = 0.15;

/// Direction in which an entry's value improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (wall times). Regresses when the new value
    /// exceeds the old by more than the threshold.
    Lower,
    /// Bigger is better (speedup ratios). Regresses when the new value
    /// falls short of the old by more than the threshold.
    Higher,
    /// Smaller is better, and the value is an exact count that repeats on
    /// any host (work per flit): any increase regresses, whatever the
    /// threshold.
    Exact,
    /// Context only (scales, counts): recorded, rendered, never gated.
    Info,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
            Better::Exact => "exact",
            Better::Info => "info",
        }
    }

    fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            "exact" => Some(Better::Exact),
            "info" => Some(Better::Info),
            _ => None,
        }
    }
}

/// One measurement of the pinned suite.
#[derive(Clone, Debug)]
pub struct BenchEntry {
    /// Dotted-path metric name, e.g. `open.r0.03.secs`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label (`secs`, `ratio`, `count`).
    pub unit: String,
    /// Gating direction.
    pub better: Better,
}

/// A full bench record: everything `BENCH_<sha>.json` holds.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Short git SHA of the measured tree (`unknown` outside a checkout).
    pub git_sha: String,
    /// True when produced by the reduced `--quick` suite. Quick and full
    /// records are not comparable; [`compare`] refuses mixed pairs.
    pub quick: bool,
    /// The measurements, in suite order.
    pub entries: Vec<BenchEntry>,
}

impl BenchRecord {
    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Serializes to the `BENCH_*.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Int(i64::from(BENCH_SCHEMA))),
            ("git_sha", Json::Str(self.git_sha.clone())),
            ("quick", Json::Bool(self.quick)),
            (
                "entries",
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("name", Json::Str(e.name.clone())),
                                ("value", Json::Num(e.value)),
                                ("unit", Json::Str(e.unit.clone())),
                                ("better", Json::Str(e.better.as_str().to_owned())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a `BENCH_*.json` document.
    ///
    /// # Errors
    /// A message naming the missing/invalid field, or a schema mismatch.
    pub fn from_json(doc: &Json) -> Result<BenchRecord, String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("bench record: missing schema")?;
        if schema != u64::from(BENCH_SCHEMA) {
            return Err(format!(
                "bench record: schema v{schema}, this binary reads v{BENCH_SCHEMA}"
            ));
        }
        let git_sha = doc
            .get("git_sha")
            .and_then(Json::as_str)
            .ok_or("bench record: missing git_sha")?
            .to_owned();
        let quick = doc
            .get("quick")
            .and_then(Json::as_bool)
            .ok_or("bench record: missing quick")?;
        let mut entries = Vec::new();
        for e in doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("bench record: missing entries")?
        {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or("bench entry: missing name")?
                .to_owned();
            let value = e
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("bench entry {name}: missing value"))?;
            let unit = e
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("bench entry {name}: missing unit"))?
                .to_owned();
            let better = e
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("bench entry {name}: bad better"))?;
            entries.push(BenchEntry {
                name,
                value,
                unit,
                better,
            });
        }
        Ok(BenchRecord {
            git_sha,
            quick,
            entries,
        })
    }

    /// Loads a record from a `BENCH_*.json` file.
    ///
    /// # Errors
    /// I/O and parse/validation failures, as a message.
    pub fn load(path: &Path) -> Result<BenchRecord, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchRecord::from_json(&doc)
    }

    /// Writes the record to `dir/BENCH_<sha>.json` and returns the path.
    ///
    /// # Errors
    /// File I/O failures, as a message.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("BENCH_{}.json", self.git_sha));
        std::fs::write(&path, self.to_json().pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Short git SHA of `HEAD`, or `"unknown"` outside a git checkout.
pub fn git_short_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Pinned injection rates of the open-loop timings (packets/node/cycle).
const RATES: [f64; 3] = [0.01, 0.03, 0.05];

/// Fixed seed: the suite measures wall time of *identical* work.
const SEED: u64 = 42;

fn suite_params(rate: f64, measure: u64) -> SimParams {
    SimParams {
        injection_rate: Rate::new(rate),
        warmup_packets: measure / 10,
        measure_packets: measure,
        max_cycles: 3_000_000,
        seed: SEED,
        process: InjectionProcess::Bernoulli,
        watchdog: None,
    }
}

/// Min-of-N wall time of `f` in seconds (damps scheduler noise without
/// inflating suite cost).
fn min_secs(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Min-of-`reps` wall time of one pinned run, with the
/// `(cycles, packets_retired)` it reached and its scheduler counters
/// (identical across reps).
fn timed_run(cfg: &NetworkConfig, params: SimParams, reps: u32) -> (f64, (u64, u64), SchedReport) {
    let mut reached = (0, 0);
    let mut sched = SchedReport::default();
    let secs = min_secs(reps, || {
        let net = Network::new(cfg.clone()).expect("pinned config is valid");
        let out = SimRun::new(net, params).run().expect("pinned suite run");
        reached = (out.cycles, out.stats.packets_retired);
        sched = out.sched;
    });
    (secs, reached, sched)
}

/// Runs the pinned micro-suite and returns the record (not yet written).
/// `quick` runs ~5x smaller measurement batches — fast enough for CI —
/// and marks the record as such; quick and full records never compare.
pub fn run_suite(quick: bool) -> BenchRecord {
    let measure: u64 = if quick { 2_000 } else { 10_000 };
    let reps: u32 = 2;
    let cfg = NetworkConfig::paper_baseline();
    let mut entries = Vec::new();
    let entry = |name: &str, value: f64, unit: &str, better: Better| BenchEntry {
        name: name.to_owned(),
        value,
        unit: unit.to_owned(),
        better,
    };
    entries.push(entry(
        "meta.measure_packets",
        measure as f64,
        "count",
        Better::Info,
    ));
    entries.push(entry("meta.reps", f64::from(reps), "count", Better::Info));

    // Open-loop engine cost at three loads, and the work behind it.
    let mut work = Vec::new();
    for rate in RATES {
        let (secs, (_, retired), sched) = timed_run(&cfg, suite_params(rate, measure), reps);
        assert!(retired > 0, "suite run retired nothing");
        entries.push(entry(
            &format!("open.r{rate}.secs"),
            secs,
            "secs",
            Better::Lower,
        ));
        for (name, count) in [
            ("sa_vcs", sched.sa_vcs),
            ("rcva_heads", sched.rcva_heads),
            ("va_bids", sched.va_bids),
            ("wheel_events", sched.wheel_events),
        ] {
            work.push(entry(
                &format!("work.r{rate}.{name}"),
                sched.per_flit(count),
                "/flit",
                Better::Exact,
            ));
        }
    }
    entries.append(&mut work);

    // Near-idle mesh: long stretches of quiet cycles, each advanced by
    // the idle fast path.
    let idle = SimParams {
        injection_rate: Rate::new(0.0005),
        warmup_packets: 10,
        measure_packets: measure / 10,
        max_cycles: 3_000_000,
        seed: SEED,
        process: InjectionProcess::Bernoulli,
        watchdog: None,
    };
    let (secs, (_, retired), _) = timed_run(&cfg, idle, reps);
    assert!(retired > 0, "suite run retired nothing");
    entries.push(entry("idle.secs", secs, "secs", Better::Lower));

    // Quiet mesh: rate 0 never completes its one-packet batch, so the run
    // covers the whole horizon, in quiet-gap jumps. The reference walks
    // the same horizon one cycle at a time (`Stepper::run_to(now + 1)`
    // never jumps). Nothing retires, so check the horizon was reached
    // instead.
    let horizon = if quick { 100_000 } else { 500_000 };
    let quiet = SimParams {
        injection_rate: Rate::ZERO,
        warmup_packets: 1,
        measure_packets: 1,
        max_cycles: horizon,
        seed: SEED,
        process: InjectionProcess::Bernoulli,
        watchdog: None,
    };
    let (jumped, (cycles, _), _) = timed_run(&cfg, quiet, reps);
    assert_eq!(cycles, horizon, "quiet run stopped short of its horizon");
    let walked = min_secs(reps, || {
        let net = Network::new(cfg.clone()).expect("pinned config is valid");
        let mut stepper = Stepper::fresh(net, quiet, Box::new(UniformRandom));
        while stepper.now() < horizon {
            stepper.run_to(stepper.now() + 1).expect("walked quiet run");
        }
    });
    entries.push(entry("quiet.secs", jumped, "secs", Better::Lower));
    entries.push(entry("quiet.walked.secs", walked, "secs", Better::Lower));
    entries.push(entry(
        "quiet.speedup",
        walked / jumped.max(1e-9),
        "ratio",
        Better::Higher,
    ));

    // Checkpoint round-trip: run to a boundary, capture, save, reload,
    // resume, advance. Measures the serialization path end to end.
    let ckpt_dir = std::env::temp_dir().join(format!("heteronoc-bench-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir).expect("bench scratch dir");
    let ckpt_path = ckpt_dir.join("roundtrip.ckpt");
    let params = suite_params(0.02, measure / 2);
    let secs = min_secs(reps, || {
        let net = Network::new(cfg.clone()).expect("pinned config is valid");
        let mut stepper = Stepper::fresh(net, params, Box::new(UniformRandom));
        stepper.run_to(500).expect("checkpoint warm run");
        stepper.checkpoint().save(&ckpt_path).expect("save");
        let ckpt = heteronoc::noc::checkpoint::Checkpoint::load(&ckpt_path).expect("load");
        let net = Network::new(cfg.clone()).expect("pinned config is valid");
        let mut resumed =
            Stepper::resumed(net, params, Box::new(UniformRandom), &ckpt).expect("resume");
        resumed.run_to(1_000).expect("resumed run");
    });
    entries.push(entry(
        "checkpoint.roundtrip.secs",
        secs,
        "secs",
        Better::Lower,
    ));

    // Sweep cache hit path: the first run populates a scratch cache, the
    // timed second run must resolve every point from it.
    let cache_dir = ckpt_dir.join("cache");
    let sweep = cache_probe_sweep(measure);
    let opts = SweepOptions {
        jobs: 1,
        use_cache: true,
        cache_dir: cache_dir.clone(),
        shutdown: None,
        checkpoint_every: None,
        progress: None,
    };
    let warm = run_sweep(&sweep, &opts).expect("cache warm sweep");
    assert_eq!(warm.cache_hits, 0, "scratch cache must start cold");
    let secs = min_secs(reps, || {
        let out = run_sweep(&sweep, &opts).expect("cache hit sweep");
        assert_eq!(
            out.cache_hits,
            out.points.len(),
            "re-run must be a pure cache scan"
        );
    });
    entries.push(entry("cache.hit_scan.secs", secs, "secs", Better::Lower));
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    BenchRecord {
        git_sha: git_short_sha(),
        quick,
        entries,
    }
}

fn cache_probe_sweep(measure: u64) -> Sweep {
    let mut sweep = Sweep::new("bench-cache-probe");
    for (i, rate) in [0.01, 0.02].into_iter().enumerate() {
        sweep.push(PointSpec {
            label: format!("bench|ur|s{SEED}|r{rate}|p{i}"),
            config: NetworkConfig::paper_baseline(),
            kind: PointKind::OpenLoop {
                params: suite_params(rate, measure / 4),
                traffic: TrafficSpec::Uniform,
                faults: None,
                epochs: None,
            },
        });
    }
    sweep
}

/// One row of a comparison: the entry as measured in both records.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Entry name.
    pub name: String,
    /// Unit label (from the new record).
    pub unit: String,
    /// Gating direction.
    pub better: Better,
    /// Old value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Relative change `(new - old) / old`.
    pub delta: f64,
    /// True when the change regresses beyond the threshold.
    pub regressed: bool,
}

/// Outcome of [`compare`].
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// Per-entry rows, in new-record order.
    pub rows: Vec<CompareRow>,
    /// Entries present in only one record (name, which side has it).
    pub missing: Vec<(String, &'static str)>,
    /// The threshold the rows were gated at.
    pub threshold: f64,
}

impl CompareReport {
    /// True when no gated entry regressed (missing entries are reported
    /// but do not fail — the suite may legitimately grow).
    pub fn passed(&self) -> bool {
        !self.rows.iter().any(|r| r.regressed)
    }

    /// The regressed rows.
    pub fn regressions(&self) -> Vec<&CompareRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }
}

/// Compares two bench records at `threshold` (relative). `Lower` entries
/// regress when `new > old * (1 + threshold)`, `Higher` entries when
/// `new < old * (1 - threshold)`, `Exact` entries when `new > old`;
/// [`Better::Info`] entries never gate. The new record's direction rules.
///
/// # Errors
/// A message when the records mix quick and full suites (their scales
/// differ, so wall times are not comparable).
pub fn compare(
    old: &BenchRecord,
    new: &BenchRecord,
    threshold: f64,
) -> Result<CompareReport, String> {
    if old.quick != new.quick {
        return Err(format!(
            "cannot compare a {} record against a {} one: suite scales differ",
            if old.quick { "quick" } else { "full" },
            if new.quick { "quick" } else { "full" },
        ));
    }
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for e in &new.entries {
        let Some(o) = old.get(&e.name) else {
            missing.push((e.name.clone(), "new only"));
            continue;
        };
        let delta = if o.value.abs() > f64::EPSILON {
            (e.value - o.value) / o.value
        } else {
            0.0
        };
        let regressed = match e.better {
            Better::Lower => e.value > o.value * (1.0 + threshold),
            Better::Higher => e.value < o.value * (1.0 - threshold),
            Better::Exact => e.value > o.value,
            Better::Info => false,
        };
        rows.push(CompareRow {
            name: e.name.clone(),
            unit: e.unit.clone(),
            better: e.better,
            old: o.value,
            new: e.value,
            delta,
            regressed,
        });
    }
    for o in &old.entries {
        if new.get(&o.name).is_none() {
            missing.push((o.name.clone(), "old only"));
        }
    }
    Ok(CompareReport {
        rows,
        missing,
        threshold,
    })
}

/// Renders a bench record as an aligned table.
pub fn render_record(rec: &BenchRecord) -> String {
    let mut out = format!(
        "bench record {} ({} suite)\n{:<32} {:>12}  {:<6} {}\n",
        rec.git_sha,
        if rec.quick { "quick" } else { "full" },
        "entry",
        "value",
        "unit",
        "gate"
    );
    for e in &rec.entries {
        out.push_str(&format!(
            "{:<32} {:>12.6}  {:<6} {}\n",
            e.name,
            e.value,
            e.unit,
            e.better.as_str()
        ));
    }
    out
}

/// Renders a comparison as an aligned table with a pass/fail trailer.
pub fn render_compare(report: &CompareReport) -> String {
    let mut out = format!(
        "{:<32} {:>12} {:>12} {:>9}  {}\n",
        "entry", "old", "new", "delta", "verdict"
    );
    for r in &report.rows {
        let verdict = if r.regressed {
            "REGRESSED"
        } else if r.better == Better::Info {
            "info"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "{:<32} {:>12.6} {:>12.6} {:>+8.1}%  {}\n",
            r.name,
            r.old,
            r.new,
            r.delta * 100.0,
            verdict
        ));
    }
    for (name, side) in &report.missing {
        out.push_str(&format!("{name:<32} ({side})\n"));
    }
    out.push_str(&format!(
        "{} at threshold {:.0}%\n",
        if report.passed() {
            "PASS: no gated entry regressed"
        } else {
            "FAIL: perf regression(s) detected"
        },
        report.threshold * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(entries: Vec<(&str, f64, Better)>) -> BenchRecord {
        BenchRecord {
            git_sha: "test".to_owned(),
            quick: true,
            entries: entries
                .into_iter()
                .map(|(n, v, b)| BenchEntry {
                    name: n.to_owned(),
                    value: v,
                    unit: "secs".to_owned(),
                    better: b,
                })
                .collect(),
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = rec(vec![
            ("a.secs", 1.25, Better::Lower),
            ("b.ratio", 3.5, Better::Higher),
            ("c.count", 42.0, Better::Info),
        ]);
        let back = BenchRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back.git_sha, "test");
        assert!(back.quick);
        assert_eq!(back.entries.len(), 3);
        assert_eq!(back.get("a.secs").unwrap().better, Better::Lower);
        assert_eq!(back.get("b.ratio").unwrap().value, 3.5);
    }

    #[test]
    fn self_compare_passes_and_2x_slowdown_fails() {
        let old = rec(vec![
            ("wall.secs", 1.0, Better::Lower),
            ("speedup", 4.0, Better::Higher),
        ]);
        let same = compare(&old, &old, DEFAULT_THRESHOLD).unwrap();
        assert!(same.passed(), "{}", render_compare(&same));

        let slow = rec(vec![
            ("wall.secs", 2.0, Better::Lower),
            ("speedup", 4.0, Better::Higher),
        ]);
        let report = compare(&old, &slow, DEFAULT_THRESHOLD).unwrap();
        assert!(!report.passed());
        assert_eq!(report.regressions().len(), 1);
        assert_eq!(report.regressions()[0].name, "wall.secs");
        assert!(render_compare(&report).contains("REGRESSED"));
    }

    #[test]
    fn higher_is_better_gates_on_shortfall_and_info_never_gates() {
        let old = rec(vec![
            ("speedup", 4.0, Better::Higher),
            ("meta.count", 10.0, Better::Info),
        ]);
        let new = rec(vec![
            ("speedup", 2.0, Better::Higher),
            ("meta.count", 99.0, Better::Info),
        ]);
        let report = compare(&old, &new, DEFAULT_THRESHOLD).unwrap();
        assert_eq!(report.regressions().len(), 1);
        assert_eq!(report.regressions()[0].name, "speedup");
        // An improvement on a Lower entry never gates either.
        let faster = rec(vec![("speedup", 8.0, Better::Higher)]);
        assert!(compare(&old, &faster, DEFAULT_THRESHOLD).unwrap().passed());
    }

    #[test]
    fn exact_work_counts_regress_on_any_increase() {
        let old = rec(vec![
            ("work.r0.03.sa_vcs", 1.25, Better::Exact),
            ("work.r0.03.va_bids", 0.5, Better::Exact),
        ]);
        // A doctored record with 1% more stage-1 work per flit.
        let mut more = old.clone();
        more.entries[0].value *= 1.01;
        for threshold in [DEFAULT_THRESHOLD, 1.0] {
            let report = compare(&old, &more, threshold).unwrap();
            assert_eq!(report.regressions().len(), 1, "{}", render_compare(&report));
            assert_eq!(report.regressions()[0].name, "work.r0.03.sa_vcs");
        }
        // Less work, or the same, never gates; the direction survives JSON.
        let mut less = old.clone();
        less.entries[1].value *= 0.5;
        assert!(compare(&old, &less, 0.0).unwrap().passed());
        let back = BenchRecord::from_json(&old.to_json()).unwrap();
        assert_eq!(back.entries[0].better, Better::Exact);
    }

    #[test]
    fn missing_entries_are_reported_but_do_not_fail() {
        let old = rec(vec![("gone.secs", 1.0, Better::Lower)]);
        let new = rec(vec![("fresh.secs", 1.0, Better::Lower)]);
        let report = compare(&old, &new, DEFAULT_THRESHOLD).unwrap();
        assert!(report.passed());
        assert_eq!(report.missing.len(), 2);
    }

    #[test]
    fn quick_and_full_records_refuse_to_compare() {
        let quick = rec(vec![]);
        let full = BenchRecord {
            quick: false,
            ..rec(vec![])
        };
        assert!(compare(&quick, &full, DEFAULT_THRESHOLD).is_err());
    }

    #[test]
    fn quick_suite_produces_a_writable_gated_record() {
        let record = run_suite(true);
        assert!(record.quick);
        // Every engineered path is represented and gated.
        for name in [
            "open.r0.01.secs",
            "open.r0.05.secs",
            "idle.secs",
            "quiet.walked.secs",
            "quiet.speedup",
            "checkpoint.roundtrip.secs",
            "cache.hit_scan.secs",
        ] {
            let e = record.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(e.value.is_finite() && e.value > 0.0, "{name} = {}", e.value);
            assert_ne!(e.better, Better::Info, "{name} must gate");
        }
        // The work counters are exact: every committed flit pushes its
        // credit and its arrival (or retirement) into the wheel.
        for rate in RATES {
            let get = |name: &str| {
                let e = record
                    .get(&format!("work.r{rate}.{name}"))
                    .unwrap_or_else(|| panic!("missing work.r{rate}.{name}"));
                assert_eq!(e.better, Better::Exact);
                e.value
            };
            assert!(get("sa_vcs") > 0.0 && get("rcva_heads") > 0.0 && get("va_bids") > 0.0);
            assert!(get("wheel_events") >= 2.0);
        }
        // Self-compare is the CI sanity gate: it must always pass.
        let report = compare(&record, &record, DEFAULT_THRESHOLD).unwrap();
        assert!(report.passed());
        // And the record survives a disk round-trip.
        let dir = std::env::temp_dir().join(format!("heteronoc-bench-rec-{}", std::process::id()));
        let path = record.write(&dir).unwrap();
        let back = BenchRecord::load(&path).unwrap();
        assert_eq!(back.entries.len(), record.entries.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
