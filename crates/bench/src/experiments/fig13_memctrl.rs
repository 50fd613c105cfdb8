//! Figure 13: co-evaluation with memory-controller placement (Abts et al.).
//!
//! Three configurations, each with 16 memory controllers:
//! * `Diamond_homoNoC`  — diamond MC placement on the homogeneous network,
//! * `Diamond_heteroNoC` — diamond MCs on Diagonal+BL,
//! * `Diagonal_heteroNoC` — diagonal MCs on Diagonal+BL (MCs at big routers).
//!
//! Reported against the *baseline* (4 corner controllers on the homogeneous
//! network): (a) reduction in memory request-response latency for the
//! closed-loop UR mode and the ten application workloads; (b) request
//! latency vs its variability.

use crate::experiments::{cmp_benchmarks, run_grid, system};
use crate::sweep::{CmpSpec, PointKind, PointSpec, Sweep};
use crate::{full_scale, pct_reduction, Report};
use heteronoc::noc::types::NodeId;
use heteronoc::{mesh_config, Layout};
use heteronoc_cmp::{corners4, diagonal16, diamond16};

struct Config {
    name: &'static str,
    layout: Layout,
    mcs: Vec<NodeId>,
}

fn configs() -> Vec<Config> {
    vec![
        Config {
            name: "Baseline4corner",
            layout: Layout::Baseline,
            mcs: corners4(8, 8),
        },
        Config {
            name: "Diamond_homoNoC",
            layout: Layout::Baseline,
            mcs: diamond16(8, 8),
        },
        Config {
            name: "Diamond_heteroNoC",
            layout: Layout::DiagonalBL,
            mcs: diamond16(8, 8),
        },
        Config {
            name: "Diagonal_heteroNoC",
            layout: Layout::DiagonalBL,
            mcs: diagonal16(8),
        },
    ]
}

fn trace_len() -> u64 {
    if full_scale() {
        15_000
    } else {
        1_000
    }
}

pub fn run() {
    let mut rep = Report::new("fig13_memctrl");
    rep.line("# Figure 13 — memory-controller placement co-evaluation");
    let measure = if full_scale() { 20_000 } else { 4_000 };

    // --- Closed-loop UR mode (network-only round trips). ---------------
    rep.line("");
    rep.line("## Closed-loop UR (16 MSHRs/node, DRAM excluded from latency)");
    rep.line(format!(
        "{:<20}{:>14}{:>14}{:>12}",
        "config", "round trip", "request leg", "leg CoV"
    ));
    let cs = configs();
    let benches = cmp_benchmarks();
    // The four closed-loop points first, then benchmark-major app points.
    let mut sweep = Sweep::new("fig13_memctrl");
    for c in &cs {
        sweep.push(PointSpec {
            label: format!("closed-loop|{}", c.name),
            config: mesh_config(&c.layout),
            kind: PointKind::ClosedLoop {
                mcs: c.mcs.clone(),
                measure,
                seed: 0x13,
            },
        });
    }
    for &bench in &benches {
        for c in &cs {
            // No prewarm: Fig. 13 studies memory traffic, so cold misses
            // are the signal here, not noise.
            sweep.push(PointSpec {
                label: format!("{bench}|{}", c.name),
                config: mesh_config(&c.layout),
                kind: PointKind::Cmp(CmpSpec {
                    mcs: c.mcs.clone(),
                    prewarm: false,
                    ..CmpSpec::uniform(bench, trace_len(), 0xF1613)
                }),
            });
        }
    }
    let outcome = run_grid(&sweep);
    let (ur_points, app_points) = outcome.points.split_at(cs.len());

    let mut ur_base = 0.0;
    let mut ur_rows = Vec::new();
    for (c, p) in cs.iter().zip(ur_points) {
        let s = system(p);
        let rt = s.round_trip_mean;
        if c.name == "Baseline4corner" {
            ur_base = rt;
        }
        rep.line(format!(
            "{:<20}{:>11.1}cyc{:>11.1}cyc{:>12.3}",
            c.name, rt, s.request_leg_mean, s.request_leg_cov
        ));
        ur_rows.push((c.name, rt));
    }

    // --- Application workloads. -----------------------------------------
    rep.line("");
    rep.line("## (a) Request-response latency reduction over the 4-corner baseline [%]");
    let mut head = format!("{:<10}", "workload");
    for c in cs.iter().skip(1) {
        head.push_str(&format!("{:>20}", c.name));
    }
    rep.line(head);

    // (bench, row of one point per configuration), benchmark-major.
    let rows: Vec<_> = benches.iter().zip(app_points.chunks(cs.len())).collect();
    let mut sums = vec![0.0; cs.len()];
    for (bench, row_points) in &rows {
        let mut row = format!("{:<10}", bench.to_string());
        let base = system(&row_points[0]).round_trip_mean;
        for (i, p) in row_points.iter().enumerate() {
            let rt = system(p).round_trip_mean;
            sums[i] += rt;
            if i > 0 {
                row.push_str(&format!("{:>+19.1}%", pct_reduction(base, rt)));
            }
        }
        rep.line(row);
    }
    rep.line("");
    let n = benches.len() as f64;
    rep.line("mean round-trip latency [core cycles]:");
    for (i, c) in cs.iter().enumerate() {
        rep.line(format!("  {:<20}{:>10.1}", c.name, sums[i] / n));
    }
    rep.line("");
    rep.line(format!(
        "closed-loop UR reductions over 4-corner baseline: {}",
        ur_rows
            .iter()
            .skip(1)
            .map(|(n2, rt)| format!("{n2} {:+.1}%", pct_reduction(ur_base, *rt)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    rep.line("(paper: Diamond_homoNoC -8%, Diamond_heteroNoC -22%, Diagonal_heteroNoC -28%)");

    rep.line("");
    rep.line("## (b) Request latency vs variability (per workload)");
    rep.line(format!(
        "{:<10}{:<20}{:>14}{:>10}",
        "workload", "config", "req latency", "CoV"
    ));
    for (bench, row_points) in &rows {
        for (c, p) in cs.iter().zip(*row_points) {
            let s = system(p);
            rep.line(format!(
                "{:<10}{:<20}{:>11.1}cyc{:>10.3}",
                bench.to_string(),
                c.name,
                s.request_leg_mean,
                s.request_leg_cov
            ));
        }
    }
    rep.line("(paper: Diagonal_heteroNoC lowers both the mean and the spread: 0.66 -> 0.46)");
}
