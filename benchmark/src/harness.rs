//! The measurement loop shared by every workload: time its set-up several
//! times, repeat its unit of work for the run's duration, check every
//! repetition's outputs and the pinned-seed digest in `expected.json`, and
//! reduce the samples to the metrics `BENCHMARK.json` declares.

use std::time::Instant;

use heteronoc_bench::json::{self, Json};

use crate::spec::Metric;
use crate::stats::{median, peak_rss_mb};
use crate::{cmp, mc, ur};

/// The benchmark's workloads (`BENCHMARK.json` lists the same names).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 7 uniform-random grid on the sweep engine (open loop).
    UrSweep,
    /// One Fig. 11 point for canneal on the 64-tile CMP (closed loop).
    CmpCanneal,
    /// One Fig. 11 point for vips on the 64-tile CMP (closed loop).
    CmpVips,
    /// The Fig. 13 closed-loop memory-controller placements.
    McClosedLoop,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::UrSweep,
        Workload::CmpCanneal,
        Workload::CmpVips,
        Workload::McClosedLoop,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UrSweep => "ur_sweep",
            Workload::CmpCanneal => "cmp_canneal",
            Workload::CmpVips => "cmp_vips",
            Workload::McClosedLoop => "mc_closed_loop",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed of the paper experiment the workload is taken from; its
    /// result digest is pinned in `expected.json`.
    pub fn pinned_seed(self) -> u64 {
        match self {
            Workload::UrSweep => 0xF1607,
            Workload::CmpCanneal | Workload::CmpVips => 0xAB,
            Workload::McClosedLoop => 0x13,
        }
    }

    /// Host seconds of one set-up at `seed`: building and verifying the
    /// configurations, plus `Sweep::grid` or `CmpSystem::new` + `prewarm`.
    ///
    /// # Errors
    /// Why the set-up failed.
    pub fn setup_s(self, seed: u64, scale: Scale) -> Result<f64, String> {
        match self {
            Workload::UrSweep => ur::setup_s(seed, scale),
            Workload::CmpCanneal => cmp::setup_s(cmp::CANNEAL, seed, scale),
            Workload::CmpVips => cmp::setup_s(cmp::VIPS, seed, scale),
            Workload::McClosedLoop => mc::setup_s(),
        }
    }

    /// One untraced repetition at `seed`.
    pub fn unit(self, seed: u64, scale: Scale) -> Unit {
        match self {
            Workload::UrSweep => ur::unit(seed, scale),
            Workload::CmpCanneal => cmp::unit(cmp::CANNEAL, seed, scale),
            Workload::CmpVips => cmp::unit(cmp::VIPS, seed, scale),
            Workload::McClosedLoop => mc::unit(seed, scale),
        }
    }

    /// One traced repetition at `seed`: an untraced unit plus the traced
    /// re-run that yields the per-layer metrics and must reproduce it.
    pub fn traced(self, seed: u64, scale: Scale) -> Traced {
        match self {
            Workload::UrSweep => ur::traced(seed, scale),
            Workload::CmpCanneal => cmp::traced(cmp::CANNEAL, seed, scale),
            Workload::CmpVips => cmp::traced(cmp::VIPS, seed, scale),
            Workload::McClosedLoop => mc::traced(seed, scale),
        }
    }
}

/// Input size of the workloads. `Bench` is what the benchmark measures;
/// `Smoke` is a tiny size the self-tests run in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Bench,
    /// The self-test size.
    Smoke,
}

impl Scale {
    /// Key of this scale's digests in `expected.json`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Bench => "bench",
            Scale::Smoke => "smoke",
        }
    }
}

/// One untraced repetition of a workload's batch of runs.
#[derive(Clone, Debug, Default)]
pub struct Unit {
    /// Host seconds of the timed phase, set-up excluded.
    pub wall_s: f64,
    /// Packets the network retired.
    pub packets: u64,
    /// Simulated cycles (core cycles on the CMP, network cycles elsewhere).
    pub cycles: u64,
    /// Runs or sweep points attempted.
    pub attempted: u64,
    /// One message per failed run or point.
    pub failures: Vec<String>,
    /// FNV-1a digest over the simulated results.
    pub digest: u64,
}

/// One traced repetition.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// The untraced unit the traced path was checked against. Mismatches
    /// between the two are recorded in its `failures`.
    pub unit: Unit,
    /// Per-layer metrics measured by the traced path.
    pub layers: Vec<(String, f64)>,
}

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// True when every check passed.
    pub correct: bool,
    /// Runs or sweep points attempted.
    pub attempted: u64,
    /// Runs or sweep points that failed a check.
    pub failed: u64,
    /// Metric name and value, in no particular order.
    pub metrics: Vec<(String, f64)>,
    /// What failed, for the log.
    pub errors: Vec<String>,
}

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Runs `workload` at `seed` for `seconds` of repetitions (at least one)
/// and reduces the samples: the end-to-end metrics untraced, the
/// per-layer metrics (`per_layer` names every one) when `trace` is set.
/// An untraced run first times [`SETUPS`] set-ups on their own.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    per_layer: &[String],
) -> Outcome {
    let mut errors = Vec::new();
    let mut setups = Vec::new();
    if !trace {
        for _ in 0..SETUPS {
            match workload.setup_s(seed, scale) {
                Ok(s) => setups.push(s),
                Err(e) => errors.push(format!("set-up: {e}")),
            }
        }
    }
    let start = Instant::now();
    let mut units = Vec::new();
    let mut layers = Vec::new();
    loop {
        if trace {
            let t = workload.traced(seed, scale);
            units.push(t.unit);
            layers.push(t.layers);
        } else {
            units.push(workload.unit(seed, scale));
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    errors.extend(units.iter().flat_map(|u| u.failures.clone()));
    let mut attempted: u64 = units.iter().map(|u| u.attempted).sum();
    if let Some(u) = units.iter().find(|u| u.digest != units[0].digest) {
        errors.push(format!(
            "digest {:#018x} differs from the first repetition's {:#018x} at seed {seed:#x}",
            u.digest, units[0].digest
        ));
    }
    // The digest pinned in `expected.json` guards every simulated
    // statistic at any `--seed`; a change that only speeds the simulator
    // up leaves it alone. At another seed than the pinned one, one extra
    // repetition at the pinned seed is checked, at the smoke scale so it
    // does not double the run.
    let (digest, golden_scale) = if seed == workload.pinned_seed() {
        (units[0].digest, scale)
    } else {
        let golden = workload.unit(workload.pinned_seed(), Scale::Smoke);
        attempted += golden.attempted;
        errors.extend(golden.failures);
        (golden.digest, Scale::Smoke)
    };
    match expected_digest(workload, golden_scale) {
        Ok(d) if d == digest => {}
        Ok(d) => errors.push(format!(
            "digest {digest:#018x} at pinned seed {:#x} ({} scale), expected.json pins {d:#018x}",
            workload.pinned_seed(),
            golden_scale.name()
        )),
        Err(e) => errors.push(e),
    }

    let metrics = if trace {
        layer_medians(per_layer, &layers)
    } else {
        let per_unit = |f: &dyn Fn(&Unit) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            errors.push(e);
            f64::NAN
        });
        vec![
            ("wall_s".to_owned(), per_unit(&|u| u.wall_s)),
            ("setup_s".to_owned(), median(&setups)),
            (
                "packets_per_s".to_owned(),
                per_unit(&|u| u.packets as f64 / u.wall_s),
            ),
            (
                "cycles_per_s".to_owned(),
                per_unit(&|u| u.cycles as f64 / u.wall_s),
            ),
            ("peak_rss_mb".to_owned(), rss),
        ]
    };
    let failed = errors.len() as u64;
    Outcome {
        correct: failed == 0,
        attempted,
        failed: failed.min(attempted),
        metrics,
        errors,
    }
}

/// The result line of a run: `correct`, `attempted`, `failed` and every
/// `declared` metric with its unit, in declared order.
///
/// # Errors
/// When the outcome's metrics are not exactly the declared ones, or one is
/// not a finite number.
pub fn report(outcome: &Outcome, declared: &[Metric]) -> Result<Json, String> {
    let mut emitted: Vec<&str> = outcome.metrics.iter().map(|(n, _)| n.as_str()).collect();
    let mut names: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    emitted.sort_unstable();
    names.sort_unstable();
    if emitted != names {
        return Err(format!(
            "emitted metrics {emitted:?} differ from BENCHMARK.json's {names:?}"
        ));
    }
    let mut metrics = Vec::new();
    for m in declared {
        let &(_, value) = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .expect("names checked above");
        if !value.is_finite() {
            return Err(format!("{} is not a finite number: {value}", m.name));
        }
        metrics.push((
            m.name.clone(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.clone())),
            ]),
        ));
    }
    let count = |n: u64| Json::Int(i64::try_from(n).unwrap_or(i64::MAX));
    Ok(Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", count(outcome.attempted)),
        ("failed", count(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Median of each per-layer metric across the traced repetitions; a layer
/// the workload does not exercise reads 0.
fn layer_medians(names: &[String], layers: &[Vec<(String, f64)>]) -> Vec<(String, f64)> {
    names
        .iter()
        .map(|name| {
            let xs: Vec<f64> = layers
                .iter()
                .filter_map(|l| l.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
                .collect();
            (name.clone(), if xs.is_empty() { 0.0 } else { median(&xs) })
        })
        .collect()
}

/// The digest `expected.json` pins for `workload` at `scale`.
///
/// # Errors
/// When the file is malformed or has no entry.
pub fn expected_digest(workload: Workload, scale: Scale) -> Result<u64, String> {
    let doc =
        json::parse(include_str!("../expected.json")).map_err(|e| format!("expected.json: {e}"))?;
    let entry = doc
        .get(workload.name())
        .ok_or_else(|| format!("expected.json has no entry for {}", workload.name()))?;
    if entry.get("seed").and_then(Json::as_u64) != Some(workload.pinned_seed()) {
        return Err(format!(
            "expected.json pins {} at another seed than {:#x}",
            workload.name(),
            workload.pinned_seed()
        ));
    }
    entry
        .get(scale.name())
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
        .ok_or_else(|| {
            format!(
                "expected.json has no {} digest for {}",
                scale.name(),
                workload.name()
            )
        })
}
