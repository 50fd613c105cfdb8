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

use crate::{full_scale, pct_reduction, Report};
use heteronoc::noc::types::NodeId;
use heteronoc::traffic::workloads::{Benchmark, SyntheticWorkload};
use heteronoc::traffic::TraceSource;
use heteronoc::{mesh_config, Layout};
use heteronoc_cmp::{
    corners4, diagonal16, diamond16, run_closed_loop, CmpConfig, CmpSystem, CoreParams, MemParams,
};

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

/// Full scale covers all ten benchmarks; quick mode a representative five.
fn benchmarks() -> Vec<Benchmark> {
    if full_scale() {
        Benchmark::ALL.to_vec()
    } else {
        vec![
            Benchmark::Sap,
            Benchmark::SpecJbb,
            Benchmark::Vips,
            Benchmark::Canneal,
            Benchmark::StreamCluster,
        ]
    }
}

/// Application run: returns (round-trip mean, request-leg mean, request-leg
/// coefficient of variation), in core cycles.
fn run_app(c: &Config, bench: Benchmark) -> (f64, f64, f64) {
    let net_cfg = mesh_config(&c.layout);
    let mut cfg = CmpConfig::paper_defaults(net_cfg);
    cfg.mc_nodes = c.mcs.clone();
    cfg.mem = MemParams::default();
    let mk = || -> Vec<Box<dyn TraceSource + Send>> {
        (0..64)
            .map(|t| {
                Box::new(SyntheticWorkload::new(bench, t, 0xF1613, trace_len()))
                    as Box<dyn TraceSource + Send>
            })
            .collect()
    };
    let mut sys = CmpSystem::new(cfg, vec![CoreParams::OUT_OF_ORDER; 64], mk());
    // No prewarm: Fig. 13 studies memory traffic, so cold misses are the
    // signal here, not noise.
    sys.run(30_000_000);
    assert!(sys.finished(), "{}/{bench}: {}", c.name, sys.drain_report());
    let s = sys.stats();
    (
        s.mem_round_trip.mean(),
        s.mem_request_leg.mean(),
        s.mem_request_leg.cov(),
    )
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
    let mut ur_base = 0.0;
    let mut ur_rows = Vec::new();
    for c in configs() {
        let stats = run_closed_loop(mesh_config(&c.layout), &c.mcs, 16, 0, measure, 0x13);
        let rt = stats.round_trip.mean();
        if c.name == "Baseline4corner" {
            ur_base = rt;
        }
        rep.line(format!(
            "{:<20}{:>11.1}cyc{:>11.1}cyc{:>12.3}",
            c.name,
            rt,
            stats.request_leg.mean(),
            stats.request_leg.cov()
        ));
        ur_rows.push((c.name, rt));
    }

    // --- Application workloads. -----------------------------------------
    rep.line("");
    rep.line("## (a) Request-response latency reduction over the 4-corner baseline [%]");
    let mut head = format!("{:<10}", "workload");
    for c in configs().iter().skip(1) {
        head.push_str(&format!("{:>20}", c.name));
    }
    rep.line(head);

    let cs = configs();
    let benches = benchmarks();
    let mut sums = vec![0.0; cs.len()];
    let mut fig_b: Vec<(String, &'static str, f64, f64)> = Vec::new();
    for &bench in &benches {
        let mut row = format!("{:<10}", bench.to_string());
        let base = run_app(&cs[0], bench);
        sums[0] += base.0;
        fig_b.push((bench.to_string(), cs[0].name, base.1, base.2));
        for (i, c) in cs.iter().enumerate().skip(1) {
            let (rt, leg, cov) = run_app(c, bench);
            sums[i] += rt;
            row.push_str(&format!("{:>+19.1}%", pct_reduction(base.0, rt)));
            fig_b.push((bench.to_string(), c.name, leg, cov));
        }
        rep.line(row);
        eprintln!("done: {bench}");
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
    for (bench, cfg_name, leg, cov) in &fig_b {
        rep.line(format!(
            "{:<10}{:<20}{:>11.1}cyc{:>10.3}",
            bench, cfg_name, leg, cov
        ));
    }
    rep.line("(paper: Diagonal_heteroNoC lowers both the mean and the spread: 0.66 -> 0.46)");
}
