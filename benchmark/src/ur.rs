//! `ur_sweep`: the Fig. 7 grid — 7 layouts × 10 uniform-random injection
//! rates from near-idle to past saturation — through `Sweep::grid` and
//! `run_sweep`, open loop with Bernoulli injection.

use std::hint::black_box;

use heteronoc::noc::checkpoint::fnv1a64;
use heteronoc::noc::config::NetworkConfig;
use heteronoc::noc::network::Network;
use heteronoc::noc::profile::{ProfileReport, STAGES};
use heteronoc::noc::sched::SchedReport;
use heteronoc::noc::sim::{SimParams, SimRun, UniformRandom};
use heteronoc::power::NetworkPower;
use heteronoc::{mesh_config, Layout};
use heteronoc_bench::default_params;
use heteronoc_bench::sweep::{
    run_sweep, PointKind, Sweep, SweepOptions, SweepOutcome, TrafficSpec,
};
use heteronoc_verify::{lint_config, verify_config, LintOptions};

use crate::harness::{Scale, Traced, Unit};
use crate::stats::timed;

/// Sweep worker threads: never more than the 2 cores the benchmark is
/// sized for.
const JOBS: usize = 2;

/// Measured packets per point: `default_params`' quick-scale batch,
/// pinned here so `HETERONOC_FULL` cannot change the workload.
fn measure_packets(scale: Scale) -> u64 {
    match scale {
        Scale::Bench => 15_000,
        Scale::Smoke => 100,
    }
}

struct Setup {
    configs: Vec<(String, NetworkConfig)>,
    sweep: Sweep,
}

/// The seven configurations, each proven deadlock-free, and the grid.
fn setup(seed: u64, scale: Scale) -> Result<Setup, String> {
    let configs: Vec<(String, NetworkConfig)> = Layout::all_seven()
        .iter()
        .map(|l| (l.name().to_owned(), mesh_config(l)))
        .collect();
    for (name, cfg) in &configs {
        verify_config(name, cfg).map_err(|e| format!("{name}: {e}"))?;
    }
    let rates: Vec<f64> = (1..=10).map(|i| 0.008 * f64::from(i)).collect();
    let sweep = Sweep::grid(
        "ur_sweep",
        &configs,
        &[TrafficSpec::Uniform],
        &[seed],
        &rates,
        |rate, seed| SimParams {
            measure_packets: measure_packets(scale),
            ..default_params(rate, seed)
        },
    );
    Ok(Setup { configs, sweep })
}

/// Host seconds of one [`setup`].
pub fn setup_s(seed: u64, scale: Scale) -> Result<f64, String> {
    let (secs, s) = timed(|| setup(seed, scale));
    s.map(|_| secs)
}

fn untraced(seed: u64, scale: Scale) -> (Unit, Option<(Setup, SweepOutcome)>) {
    let mut unit = Unit::default();
    let s = match setup(seed, scale) {
        Ok(s) => s,
        Err(e) => {
            unit.failures.push(format!("ur_sweep set-up: {e}"));
            return (unit, None);
        }
    };
    let opts = SweepOptions {
        jobs: JOBS,
        use_cache: false,
        ..SweepOptions::default()
    };
    let (wall_s, out) = timed(|| run_sweep(&s.sweep, &opts));
    unit.wall_s = wall_s;
    unit.attempted = s.sweep.points.len() as u64;
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            unit.failures.push(format!("ur_sweep: {e}"));
            return (unit, None);
        }
    };
    let measure = measure_packets(scale);
    for p in &out.points {
        if let Some(e) = &p.error {
            unit.failures.push(format!("{}: {e}", p.label));
        } else if !p.saturated && p.delivered < measure {
            unit.failures.push(format!(
                "{}: retired {} of {measure} measured packets",
                p.label, p.delivered
            ));
        }
        unit.packets += p.delivered;
        unit.cycles += p.cycles;
    }
    unit.digest = fnv1a64(out.points_json().to_string().as_bytes());
    (unit, Some((s, out)))
}

/// One untraced repetition: the timed phase is `run_sweep`.
pub fn unit(seed: u64, scale: Scale) -> Unit {
    untraced(seed, scale).0
}

/// One traced repetition: the untraced sweep (its per-point wall times
/// give the `sweep.*` metrics), the lint gate timed on its own, and a
/// serial re-run of every point with the engine's stage profiler on. The
/// profiled re-run must reproduce each point's packets, cycles and
/// scheduler counters.
pub fn traced(seed: u64, scale: Scale) -> Traced {
    let (mut unit, ran) = untraced(seed, scale);
    let Some((s, out)) = ran else {
        return Traced {
            unit,
            layers: Vec::new(),
        };
    };
    let point_s: Vec<f64> = out.points.iter().map(|p| p.wall_secs).collect();
    let point_s_sum: f64 = point_s.iter().sum();

    let gate = LintOptions {
        rates: Vec::new(),
        ..LintOptions::default()
    };
    let (lint_s, ()) = timed(|| {
        for (name, cfg) in &s.configs {
            black_box(lint_config(name, cfg, &gate));
        }
    });

    let power = NetworkPower::paper_calibrated();
    let mut profile = ProfileReport::default();
    let mut sched = SchedReport::default();
    let (mut profiled_s, mut power_s) = (0.0, 0.0);
    let (mut retired, mut latency_sum) = (0u64, 0.0);
    for (spec, point) in s.sweep.points.iter().zip(&out.points) {
        let PointKind::OpenLoop { params, .. } = &spec.kind else {
            unreachable!("Sweep::grid builds open-loop points")
        };
        let net = match Network::new(spec.config.clone()) {
            Ok(net) => net,
            Err(e) => {
                unit.failures.push(format!("{}: {e}", spec.label));
                continue;
            }
        };
        let mut traffic = UniformRandom;
        let (secs, run) = timed(|| {
            SimRun::new(net, *params)
                .traffic(&mut traffic)
                .profile(true)
                .run()
        });
        profiled_s += secs;
        let o = match run {
            Ok(o) => o,
            Err(e) => {
                unit.failures
                    .push(format!("{} (profiled): {e}", spec.label));
                continue;
            }
        };
        if o.stats.packets_retired != point.delivered
            || o.cycles != point.cycles
            || Some(o.sched) != point.sched
        {
            unit.failures.push(format!(
                "{}: profiled re-run diverged from the sweep point",
                spec.label
            ));
        }
        if let Some(p) = &o.profile {
            profile.merge(p);
        }
        sched.merge(&o.sched);
        retired += o.stats.packets_retired;
        latency_sum += o.stats.latency.mean_total() * o.stats.packets_retired as f64;
        let graph = spec.config.build_graph();
        let (secs, report) = timed(|| power.evaluate(&spec.config, &graph, &o.stats));
        black_box(report);
        power_s += secs;
    }

    let mut layers: Vec<(String, f64)> = STAGES
        .iter()
        .map(|&st| {
            (
                format!("noc.stage.{}_s", st.label().to_lowercase()),
                profile.nanos(st) as f64 * 1e-9,
            )
        })
        .collect();
    layers.extend(crate::noc_layers(&sched, retired, latency_sum));
    layers.extend([
        (
            "noc.ns_per_router_visit".to_owned(),
            profile.total_nanos() as f64 / sched.router_visits.max(1) as f64,
        ),
        ("sweep.points".to_owned(), out.points.len() as f64),
        ("sweep.point_s_sum".to_owned(), point_s_sum),
        (
            "sweep.point_s_max".to_owned(),
            point_s.iter().copied().fold(0.0, f64::max),
        ),
        (
            "sweep.parallel_eff".to_owned(),
            point_s_sum / (JOBS as f64 * unit.wall_s),
        ),
        ("verify.lint_s".to_owned(), lint_s),
        ("power.evaluate_s".to_owned(), power_s),
        (
            "trace.overhead_frac".to_owned(),
            profiled_s / point_s_sum - 1.0,
        ),
    ]);
    Traced { unit, layers }
}
