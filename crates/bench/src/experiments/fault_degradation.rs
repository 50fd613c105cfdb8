//! Fault-degradation sweep: how gracefully do the homogeneous baseline and
//! HeteroNoC (Diagonal+BL) degrade under faults?
//!
//! Two campaigns, both written to `results/fault_degradation.txt` (and as
//! machine-readable sweep JSON under `results/`):
//!
//! 1. **Transient faults** — uniform per-link bit-error rate swept over
//!    decades; every corrupted flit is CRC-detected and retransmitted by
//!    the link-level go-back-N protocol, so the cost shows up as latency
//!    and retransmission bandwidth, not loss. This asks the PR's motivating
//!    question: do the big routers' extra VCs absorb the replay traffic
//!    better than the homogeneous mesh?
//! 2. **Hard faults** — an increasing number of link kills applied mid-run
//!    to an all-pairs campaign; after each kill the route table is
//!    regenerated around the dead channels and *proved* deadlock-free
//!    (channel-dependency-graph check) before installation. Reported as
//!    delivered/dropped counts and mean latency per kill count.
//!
//! Both campaigns run on the sweep engine: the (layout × BER) and
//! (layout × kill-count) grids are sharded across worker threads and
//! memoized in `results/cache/`.

use crate::experiments::run_facts;
use crate::sweep::{run_sweep, PointKind, PointSpec, Sweep, SweepOptions, TrafficSpec};
use crate::{default_params, Report};
use heteronoc::noc::fault::{FaultKind, FaultPlan, HardFault};
use heteronoc::noc::sim::SimParams;
use heteronoc::noc::types::{Cycle, RouterId};
use heteronoc::{mesh_config, Layout};

const RATE: f64 = 0.03;
const BERS: [f64; 5] = [0.0, 1e-8, 1e-7, 1e-6, 1e-5];
const LAYOUTS: [Layout; 2] = [Layout::Baseline, Layout::DiagonalBL];
const KILLS: [usize; 4] = [0, 1, 2, 4];

/// Central east-bound links, killed one per kilocycle starting at 2000.
fn kill_schedule(cfg: &heteronoc::noc::config::NetworkConfig, n: usize) -> Vec<HardFault> {
    let g = cfg.build_graph();
    [(27, 28), (35, 36), (11, 12), (51, 52)]
        .iter()
        .take(n)
        .enumerate()
        .map(|(i, &(a, b))| {
            let l = g
                .links()
                .iter()
                .position(|l| l.src == RouterId(a) && l.dst == RouterId(b))
                .expect("mesh east link exists");
            HardFault {
                cycle: 2_000 + 1_000 * i as Cycle,
                kind: FaultKind::Link(heteronoc::noc::types::LinkId(l)),
            }
        })
        .collect()
}

pub fn run() {
    let mut rep = Report::new("fault_degradation");
    rep.line("# Fault degradation — homogeneous baseline vs HeteroNoC (Diagonal+BL)");
    rep.line("");
    rep.line(format!(
        "## Transient faults: UR @ {RATE} packets/node/cycle, link-level go-back-N retransmission"
    ));

    let mut transient = Sweep::new("fault_degradation_transient");
    for layout in &LAYOUTS {
        for &ber in &BERS {
            transient.push(PointSpec {
                label: format!("{}|ber{ber:e}", layout.name()),
                config: mesh_config(layout),
                kind: PointKind::OpenLoop {
                    params: SimParams {
                        measure_packets: 8_000,
                        ..default_params(RATE, 0xFA17)
                    },
                    traffic: TrafficSpec::Uniform,
                    faults: Some(FaultPlan::transient(ber, 0xFA17)),
                    epochs: None,
                },
            });
        }
    }
    let t_out = run_sweep(&transient, &SweepOptions::default()).expect("transient sweep");
    t_out.write_json().expect("write transient json");
    run_facts(&t_out);

    rep.line(format!(
        "{:<14}{:>10}{:>12}{:>13}{:>14}{:>12}",
        "layout", "ber", "lat (ns)", "thru (ppc)", "retransmits", "corrupted"
    ));
    let mut rows = t_out.points.iter();
    for layout in &LAYOUTS {
        for &ber in &BERS {
            let p = rows.next().expect("one row per (layout, ber)");
            match &p.error {
                None => rep.line(format!(
                    "{:<14}{:>10.0e}{:>12.2}{:>13.4}{:>14}{:>12}",
                    layout.name(),
                    ber,
                    p.latency_ns,
                    p.throughput,
                    p.retransmissions,
                    p.flits_corrupted,
                )),
                Some(e) => rep.line(format!("{:<14}{ber:>10.0e}  error: {e}", layout.name())),
            }
        }
    }

    rep.line("");
    rep.line("## Hard faults: all-pairs campaign, CDG-verified reroute after each link kill");

    let mut hard = Sweep::new("fault_degradation_hard");
    for layout in &LAYOUTS {
        for &kills in &KILLS {
            let cfg = mesh_config(layout);
            let plan = FaultPlan {
                hard: kill_schedule(&cfg, kills),
                ..FaultPlan::default()
            };
            hard.push(PointSpec {
                label: format!("{}|kills{kills}", layout.name()),
                config: cfg,
                kind: PointKind::Degradation {
                    plan,
                    bursts: 2,
                    spacing: 1,
                    stall_limit: 100_000,
                },
            });
        }
    }
    let h_out = run_sweep(&hard, &SweepOptions::default()).expect("hard-fault sweep");
    h_out.write_json().expect("write hard-fault json");
    run_facts(&h_out);

    rep.line(format!(
        "{:<14}{:>8}{:>12}{:>10}{:>12}{:>16}{:>12}",
        "layout", "kills", "delivered", "dropped", "reroutes", "latency (cyc)", "drained"
    ));
    let mut rows = h_out.points.iter();
    for layout in &LAYOUTS {
        for &kills in &KILLS {
            let p = rows.next().expect("one row per (layout, kills)");
            match &p.error {
                None => {
                    let mean = if p.latency_cycles.is_nan() {
                        0.0
                    } else {
                        p.latency_cycles
                    };
                    rep.line(format!(
                        "{:<14}{:>8}{:>12}{:>10}{:>12}{:>16.1}{:>12}",
                        layout.name(),
                        kills,
                        p.delivered,
                        p.dropped,
                        p.reroutes,
                        mean,
                        p.cycles,
                    ));
                }
                Some(e) => rep.line(format!("{:<14}{kills:>8}  error: {e}", layout.name())),
            }
        }
    }
}
