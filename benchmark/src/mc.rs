//! `mc_closed_loop`: the Fig. 13 closed-loop request/response study —
//! every non-controller node keeps 16 requests outstanding to uniformly
//! chosen memory controllers, for the four controller placements, with no
//! DRAM delay. No cores or caches: hotspot traffic on the NoC alone.

use std::time::Instant;

use heteronoc::noc::checkpoint::fnv1a64;
use heteronoc::noc::config::NetworkConfig;
use heteronoc::noc::types::NodeId;
use heteronoc::{mesh_config, Layout};
use heteronoc_cmp::memctrl::ClosedLoopStats;
use heteronoc_cmp::{corners4, diagonal16, diamond16, run_closed_loop};
use heteronoc_verify::verify_config;

use crate::harness::{Scale, Traced, Unit};
use crate::stats::timed;

const MSHRS: usize = 16;
const DRAM_LATENCY: u64 = 0;

fn measure(scale: Scale) -> u64 {
    match scale {
        Scale::Bench => 100_000,
        Scale::Smoke => 200,
    }
}

type Placement = (&'static str, NetworkConfig, Vec<NodeId>);

/// The four placements of Fig. 13, in its order, once both configurations
/// they use are proven deadlock-free.
fn placements() -> Result<Vec<Placement>, String> {
    let [homo, hetero] = [Layout::Baseline, Layout::DiagonalBL].map(|l| {
        let cfg = mesh_config(&l);
        verify_config(l.name(), &cfg)
            .map(|_| cfg)
            .map_err(|e| format!("{}: {e}", l.name()))
    });
    let (homo, hetero) = (homo?, hetero?);
    Ok(vec![
        ("corners4", homo.clone(), corners4(8, 8)),
        ("diamond16-homo", homo, diamond16(8, 8)),
        ("diamond16-hetero", hetero.clone(), diamond16(8, 8)),
        ("diagonal16-hetero", hetero, diagonal16(8)),
    ])
}

/// Host seconds of one set-up: building and verifying the placements.
pub fn setup_s() -> Result<f64, String> {
    let (secs, p) = timed(placements);
    p.map(|_| secs)
}

/// Checks one placement's run and folds it into the unit and the digest.
fn record(name: &str, measure: u64, s: &ClosedLoopStats, text: &mut String, unit: &mut Unit) {
    if s.completed < measure {
        unit.failures.push(format!(
            "{name}: completed {} of {measure} requests in {} cycles",
            s.completed, s.cycles
        ));
    }
    text.push_str(&format!(
        "{name}|{}|{}|{}|{:x}|{:x}|{}|{:x}|{:x};",
        s.completed,
        s.cycles,
        s.round_trip.count(),
        s.round_trip.mean().to_bits(),
        s.round_trip.stddev().to_bits(),
        s.request_leg.count(),
        s.request_leg.mean().to_bits(),
        s.request_leg.stddev().to_bits(),
    ));
    // Every round trip is a request and a response packet, warm-up
    // included.
    unit.packets += 2 * (s.completed + measure / 4);
    unit.cycles += s.cycles;
}

/// One untraced repetition: the timed phase is `run_closed_loop` for each
/// placement; building their network configurations is set-up.
pub fn unit(seed: u64, scale: Scale) -> Unit {
    let measure = measure(scale);
    let mut unit = Unit::default();
    let runs = match placements() {
        Ok(runs) => runs,
        Err(e) => {
            unit.failures.push(e);
            return unit;
        }
    };
    unit.attempted = runs.len() as u64;
    let (wall_s, stats) = timed(|| {
        runs.into_iter()
            .map(|(name, cfg, mcs)| {
                (
                    name,
                    run_closed_loop(cfg, &mcs, MSHRS, DRAM_LATENCY, measure, seed),
                )
            })
            .collect::<Vec<_>>()
    });
    unit.wall_s = wall_s;
    let mut text = String::new();
    for (name, s) in &stats {
        record(name, measure, s, &mut text, &mut unit);
    }
    unit.digest = fnv1a64(text.as_bytes());
    unit
}

/// One traced repetition: an untraced unit, then each placement re-run
/// under its own timer. `run_closed_loop` keeps its network private, so
/// the layer is seen only through its results and host time.
pub fn traced(seed: u64, scale: Scale) -> Traced {
    let mut unit = unit(seed, scale);
    let measure = measure(scale);
    let mut check = Unit::default();
    let mut text = String::new();
    let (mut round_trip, mut request_leg, mut wall_s) = (0.0, 0.0, 0.0);
    let (mut completed, mut rt_count, mut leg_count) = (0u64, 0u64, 0u64);
    // A failed verification is already among the unit's failures.
    for (name, cfg, mcs) in placements().unwrap_or_default() {
        let t0 = Instant::now();
        let s = run_closed_loop(cfg, &mcs, MSHRS, DRAM_LATENCY, measure, seed);
        wall_s += t0.elapsed().as_secs_f64();
        record(name, measure, &s, &mut text, &mut check);
        completed += s.completed;
        round_trip += s.round_trip.mean() * s.round_trip.count() as f64;
        rt_count += s.round_trip.count();
        request_leg += s.request_leg.mean() * s.request_leg.count() as f64;
        leg_count += s.request_leg.count();
    }
    unit.failures.extend(check.failures);
    if fnv1a64(text.as_bytes()) != unit.digest {
        unit.failures
            .push("traced closed-loop runs diverged from the untraced digest".to_owned());
    }
    let layers = vec![
        ("mc.completed".to_owned(), completed as f64),
        ("mc.net_cycles".to_owned(), check.cycles as f64),
        (
            "mc.round_trip_cycles".to_owned(),
            round_trip / rt_count.max(1) as f64,
        ),
        (
            "mc.request_leg_cycles".to_owned(),
            request_leg / leg_count.max(1) as f64,
        ),
        (
            "mc.ns_per_net_cycle".to_owned(),
            wall_s * 1e9 / check.cycles.max(1) as f64,
        ),
        ("trace.overhead_frac".to_owned(), wall_s / unit.wall_s - 1.0),
    ];
    Traced { unit, layers }
}
