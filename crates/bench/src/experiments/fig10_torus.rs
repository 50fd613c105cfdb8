//! Figure 10: heterogeneity in a mesh vs an edge-symmetric torus. For each
//! application workload we measure the network-latency reduction of the
//! Diagonal+BL heterogeneous layout over the homogeneous baseline, on both
//! topologies. The paper finds the torus benefit ~44% smaller on average:
//! torus wrap-around paths bypass the centrally-provisioned big routers.
//!
//! The workload × layout × topology grid runs on the sweep engine as CMP
//! points: the four system simulations behind each table row execute in
//! parallel and are memoized in `results/cache/`.

use crate::experiments::{cmp_benchmarks, run_facts, run_grid};
use crate::sweep::{CmpSpec, PointKind, PointSpec, Sweep};
use crate::{full_scale, pct_reduction, Report};
use heteronoc::noc::topology::TopologyKind;
use heteronoc::{network_config, Layout};

const SEED: u64 = 0xF1610;

fn trace_len() -> u64 {
    if full_scale() {
        15_000
    } else {
        1_000
    }
}

pub fn run() {
    let mut rep = Report::new("fig10_torus");
    rep.line("# Figure 10 — heterogeneity benefit: 8x8 mesh vs 8x8 torus");
    rep.line(format!(
        "# Diagonal+BL latency reduction over baseline per workload; {} refs/core",
        trace_len()
    ));

    let mesh = TopologyKind::Mesh {
        width: 8,
        height: 8,
    };
    let torus = TopologyKind::Torus {
        width: 8,
        height: 8,
    };
    let benches = cmp_benchmarks();

    // Four CMP points per workload: (mesh, torus) × (base, het),
    // in that order — the extraction below relies on it.
    let cells = [
        ("mesh", mesh, Layout::Baseline),
        ("mesh", mesh, Layout::DiagonalBL),
        ("torus", torus, Layout::Baseline),
        ("torus", torus, Layout::DiagonalBL),
    ];
    let mut sweep = Sweep::new("fig10_torus");
    for &bench in &benches {
        for (topo_name, topo, ref layout) in &cells {
            sweep.push(PointSpec {
                label: format!("{bench}|{topo_name}|{}", layout.name()),
                config: network_config(layout, *topo),
                kind: PointKind::Cmp(CmpSpec::uniform(bench, trace_len(), SEED)),
            });
        }
    }
    let outcome = run_grid(&sweep);
    outcome.write_json().expect("write fig10 json");
    run_facts(&outcome);
    rep.line("");
    rep.line(format!("{:<12}{:>14}{:>14}", "workload", "mesh", "torus"));

    let mut mesh_sum = 0.0;
    let mut torus_sum = 0.0;
    for (bench, row) in benches.iter().zip(outcome.points.chunks(cells.len())) {
        let m = pct_reduction(row[0].latency_ns, row[1].latency_ns);
        let t = pct_reduction(row[2].latency_ns, row[3].latency_ns);
        mesh_sum += m;
        torus_sum += t;
        rep.line(format!(
            "{:<12}{:>+13.1}%{:>+13.1}%",
            bench.to_string(),
            m,
            t
        ));
    }
    let n = benches.len() as f64;
    rep.line(format!(
        "{:<12}{:>+13.1}%{:>+13.1}%",
        "mean",
        mesh_sum / n,
        torus_sum / n
    ));
    rep.line("");
    rep.line(format!(
        "relative: torus benefit is {:.0}% of the mesh benefit (paper: ~56%, i.e. 44% smaller)",
        100.0 * (torus_sum / mesh_sum)
    ));
}
