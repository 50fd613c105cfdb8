//! Shared experiment harness for the HeteroNoC reproduction.
//!
//! Each table/figure of the paper is an experiment in [`experiments`]
//! (run by `heteronoc experiment <id>`) built on these utilities: load
//! sweeps over network layouts, saturation detection, power evaluation and
//! tabular output. Experiments print the figure's rows/series to stdout
//! and mirror them into `results/<name>.txt`.
//!
//! Runs default to a *quick* scale (fewer measured packets than the paper's
//! 100k) so the whole suite finishes in minutes on one core; set
//! `HETERONOC_FULL=1` for paper-scale measurement batches.

pub mod cache;
pub mod campaign;
pub mod experiments;
pub mod json;
pub mod plot;
pub mod report;
pub mod sweep;
pub mod tracecheck;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use heteronoc::noc::sim::{InjectionProcess, SimParams};
use heteronoc::noc::types::Rate;

use crate::sweep::PointMetrics;

/// True when `HETERONOC_FULL=1`: run paper-scale measurement batches.
pub fn full_scale() -> bool {
    std::env::var("HETERONOC_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Measurement batch size (packets): 100k at full scale (the paper's §4),
/// 15k quick.
pub fn measure_packets() -> u64 {
    if full_scale() {
        100_000
    } else {
        15_000
    }
}

/// Default simulation parameters at `rate` packets/node/cycle.
pub fn default_params(rate: f64, seed: u64) -> SimParams {
    SimParams {
        injection_rate: Rate::new(rate),
        warmup_packets: 1_000,
        measure_packets: measure_packets(),
        max_cycles: 3_000_000,
        seed,
        process: InjectionProcess::Bernoulli,
        watchdog: Some(100_000),
    }
}

/// Whether a point measured nothing usable: it saturated or failed.
fn unmeasured(p: &PointMetrics) -> bool {
    p.saturated || p.error.is_some()
}

/// Zero-load latency estimate: the latency of the lowest load point.
pub fn zero_load_latency_ns(points: &[PointMetrics]) -> f64 {
    points
        .iter()
        .filter(|p| !unmeasured(p))
        .map(|p| p.latency_ns)
        .fold(f64::INFINITY, f64::min)
}

/// Saturation throughput: the highest accepted throughput among points whose
/// latency stays below `3x` the zero-load latency (a standard operational
/// definition of the saturation point).
pub fn saturation_throughput(points: &[PointMetrics]) -> f64 {
    let zl = zero_load_latency_ns(points);
    points
        .iter()
        .filter(|p| !unmeasured(p) && p.latency_ns <= 3.0 * zl)
        .map(|p| p.throughput)
        .fold(0.0, f64::max)
}

/// Mean latency over the unsaturated region (the "average latency" the
/// paper summarizes per configuration in Figs. 7b/9b).
pub fn mean_unsaturated_latency_ns(points: &[PointMetrics]) -> f64 {
    let zl = zero_load_latency_ns(points);
    let sel: Vec<f64> = points
        .iter()
        .filter(|p| !unmeasured(p) && p.latency_ns <= 3.0 * zl)
        .map(|p| p.latency_ns)
        .collect();
    if sel.is_empty() {
        f64::NAN
    } else {
        sel.iter().sum::<f64>() / sel.len() as f64
    }
}

/// Mean power over the unsaturated region.
pub fn mean_unsaturated_power_w(points: &[PointMetrics]) -> f64 {
    let zl = zero_load_latency_ns(points);
    let sel: Vec<f64> = points
        .iter()
        .filter(|p| !unmeasured(p) && p.latency_ns <= 3.0 * zl)
        .map(|p| p.power_w)
        .collect();
    if sel.is_empty() {
        f64::NAN
    } else {
        sel.iter().sum::<f64>() / sel.len() as f64
    }
}

/// Percentage improvement of `new` over `base` where smaller is better.
pub fn pct_reduction(base: f64, new: f64) -> f64 {
    100.0 * (base - new) / base
}

/// Percentage improvement of `new` over `base` where bigger is better.
pub fn pct_gain(base: f64, new: f64) -> f64 {
    100.0 * (new - base) / base
}

std::thread_local! {
    /// When set, [`Report::line`] appends here instead of printing — so
    /// experiments running concurrently on worker threads
    /// ([`experiments::run_blocks`]) produce contiguous per-experiment
    /// output blocks instead of interleaved lines.
    static CAPTURE: std::cell::RefCell<Option<String>> = const { std::cell::RefCell::new(None) };
}

/// Runs `f` with this thread's [`Report`] stdout output captured; returns
/// `f`'s result and the captured text. Report files are still written.
pub fn capture_output<R>(f: impl FnOnce() -> R) -> (R, String) {
    CAPTURE.with(|c| *c.borrow_mut() = Some(String::new()));
    let r = f();
    let text = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
    (r, text)
}

/// Output sink that tees stdout into `results/<name>.txt`.
#[derive(Debug)]
pub struct Report {
    file: fs::File,
}

impl Report {
    /// Creates `results/<name>.txt` (directory created on demand).
    pub fn new(name: &str) -> Report {
        let dir = results_dir();
        fs::create_dir_all(&dir).expect("create results dir");
        let file = fs::File::create(dir.join(format!("{name}.txt"))).expect("create report");
        Report { file }
    }

    /// Writes a line to stdout (or this thread's capture buffer) and the
    /// report file.
    pub fn line(&mut self, s: impl AsRef<str>) {
        let captured = CAPTURE.with(|c| {
            let mut b = c.borrow_mut();
            match b.as_mut() {
                Some(buf) => {
                    buf.push_str(s.as_ref());
                    buf.push('\n');
                    true
                }
                None => false,
            }
        });
        if !captured {
            println!("{}", s.as_ref());
        }
        writeln!(self.file, "{}", s.as_ref()).expect("write report");
    }
}

/// The `results/` directory at the workspace root (or cwd fallback).
pub fn results_dir() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    // Walk up to the workspace root (the directory containing Cargo.toml
    // with [workspace]).
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(s) = fs::read_to_string(&manifest) {
                if s.contains("[workspace]") {
                    return dir.join("results");
                }
            }
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_helpers() {
        assert!((pct_reduction(10.0, 8.0) - 20.0).abs() < 1e-9);
        assert!((pct_gain(10.0, 12.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_produces_points() {
        use crate::sweep::{run_point, Sweep, TrafficSpec};
        use heteronoc::{mesh_config, Layout};

        let configs = [("Baseline".to_owned(), mesh_config(&Layout::Baseline))];
        let sweep = Sweep::grid(
            "smoke",
            &configs,
            &[TrafficSpec::Uniform],
            &[1],
            &[0.004],
            default_params,
        );
        // Quick smoke test only (full sweeps run in the binaries).
        assert_eq!(sweep.points.len(), 1);
        let p = run_point(&sweep.points[0]);
        assert!(p.error.is_none(), "{:?}", p.error);
        assert!(p.latency_ns > 0.0);
        assert!(p.power_w > 0.0);
    }

    #[test]
    fn saturation_metrics_on_synthetic_points() {
        let mk = |rate: f64, lat: f64, thr: f64, sat: bool| PointMetrics {
            rate,
            latency_ns: lat,
            throughput: thr,
            power_w: 10.0,
            saturated: sat,
            ..PointMetrics::default()
        };
        let pts = vec![
            mk(0.01, 10.0, 0.01, false),
            mk(0.02, 12.0, 0.02, false),
            mk(0.04, 25.0, 0.04, false),
            mk(0.06, 80.0, 0.05, false),
            mk(0.08, 500.0, 0.05, true),
        ];
        assert!((zero_load_latency_ns(&pts) - 10.0).abs() < 1e-9);
        // 3x zero-load = 30ns: the 0.04 point is the saturation point.
        assert!((saturation_throughput(&pts) - 0.04).abs() < 1e-9);
    }
}
