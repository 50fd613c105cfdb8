//! Figure 1: buffer and link utilization across all routers of an 8x8 mesh
//! under uniform-random traffic near saturation (0.06 packets/node/cycle),
//! on a heat-map scale. The paper reports ~75% utilization at the centre
//! and ~35% at the periphery.

use crate::{default_params, Report};
use heteronoc::mesh_config;
use heteronoc::noc::network::Network;
use heteronoc::noc::sim::SimRun;
use heteronoc::noc::topology::PortKind;
use heteronoc::Layout;

pub fn run() {
    let mut rep = Report::new("fig01_mesh_utilization");
    rep.line("# Figure 1 — buffer & link utilization, 8x8 mesh, UR @ 0.06 pkt/node/cycle");

    let cfg = mesh_config(&Layout::Baseline);
    let graph = cfg.build_graph();
    let net = Network::new(cfg).expect("baseline config");
    let out = SimRun::new(net, default_params(0.06, 0xF1601))
        .run()
        .expect("simulation run");
    let stats = &out.stats;

    rep.line("");
    rep.line("## (a) Buffer utilization [%] (fraction of busy VCs; router grid, row-major)");
    for y in 0..8 {
        let row: Vec<String> = (0..8)
            .map(|x| format!("{:5.1}", 100.0 * stats.vc_utilization(y * 8 + x)))
            .collect();
        rep.line(row.join(" "));
    }
    rep.line("");
    rep.line("## (a') Buffer slot occupancy [%] (alternative metric)");
    for y in 0..8 {
        let row: Vec<String> = (0..8)
            .map(|x| format!("{:5.1}", 100.0 * stats.buffer_utilization(y * 8 + x)))
            .collect();
        rep.line(row.join(" "));
    }

    // Per-router mean utilization of its incident links, for the table
    // and the heat-map.
    let link_means: Vec<f64> = (0..64)
        .map(|r| {
            let mut sum = 0.0;
            let mut n = 0;
            for p in &graph.routers()[r].ports {
                if let PortKind::Link { out, into, .. } = p.kind {
                    sum += stats.link_utilization(out.index(), 1)
                        + stats.link_utilization(into.index(), 1);
                    n += 2;
                }
            }
            100.0 * sum / n as f64
        })
        .collect();
    rep.line("");
    rep.line("## (b) Link utilization [%] (mean over links incident to each router)");
    for row in link_means.chunks(8) {
        let row: Vec<String> = row.iter().map(|v| format!("{v:5.1}")).collect();
        rep.line(row.join(" "));
    }

    // Summary statistics the paper quotes.
    let center: f64 = [27usize, 28, 35, 36]
        .iter()
        .map(|&r| stats.vc_utilization(r))
        .sum::<f64>()
        / 4.0;
    let corners: f64 = [0usize, 7, 56, 63]
        .iter()
        .map(|&r| stats.vc_utilization(r))
        .sum::<f64>()
        / 4.0;
    let edges: f64 = (1..7)
        .flat_map(|i| [i, 56 + i, i * 8, i * 8 + 7])
        .map(|r| stats.vc_utilization(r))
        .sum::<f64>()
        / 24.0;
    // SVG heat-maps.
    let dir = crate::results_dir();
    crate::plot::HeatMap::new(
        "Fig 1a — buffer (VC) utilization [%]",
        8,
        (0..64).map(|r| 100.0 * stats.vc_utilization(r)).collect(),
    )
    .write(dir.join("fig01_buffer_util.svg"));
    crate::plot::HeatMap::new("Fig 1b — link utilization [%]", 8, link_means)
        .write(dir.join("fig01_link_util.svg"));
    rep.line("");
    rep.line("(SVG: results/fig01_buffer_util.svg, results/fig01_link_util.svg)");

    rep.line("");
    rep.line(format!(
        "center 2x2 mean {:.1}%  edge (non-corner) mean {:.1}%  corner mean {:.1}%",
        100.0 * center,
        100.0 * edges,
        100.0 * corners
    ));
    rep.line("paper: center ~75%, periphery ~35%; corners slightly above their rows/columns");
}
