//! Figure 14: asymmetric CMP evaluation (§7). Four large out-of-order cores
//! at the mesh corners run `libquantum`; sixty small in-order cores run
//! SPECjbb threads. Three network configurations:
//!
//! * `HomoNoC-XY` — homogeneous baseline, X-Y routing;
//! * `HeteroNoC-XY` — Diagonal+BL, X-Y routing;
//! * `HeteroNoC-Table+XY` — Diagonal+BL with table-based (zig-zag through
//!   the diagonal big routers) routing for large-core traffic, escape VCs
//!   reserved for deadlock freedom.
//!
//! Reported: weighted and harmonic speedup over per-thread alone-IPCs
//! (measured on the homogeneous reference system).

use crate::experiments::{run_grid, system};
use crate::sweep::{CmpSpec, PointKind, PointSpec, Sweep};
use crate::{full_scale, Report};
use heteronoc::noc::types::NodeId;
use heteronoc::noc::NetworkConfig;
use heteronoc::traffic::workloads::Benchmark;
use heteronoc::{mesh_config, mesh_config_with_table, Layout};
use heteronoc_cmp::{harmonic_speedup, weighted_speedup, CoreParams};

const LARGE_NODES: [usize; 4] = [0, 7, 56, 63];

fn trace_len() -> u64 {
    if full_scale() {
        12_000
    } else {
        1_000
    }
}

/// The asymmetric system with only the `active` cores running (large
/// cores libquantum, small cores SPECjbb), large-core traffic expedited
/// when `expedited`.
fn point(label: &str, config: NetworkConfig, active: &[usize], expedited: bool) -> PointSpec {
    let mut spec = CmpSpec::uniform(Benchmark::SpecJbb, trace_len(), 0xF1614, 40_000_000);
    for (i, (w, core)) in spec.workloads.iter_mut().zip(&mut spec.cores).enumerate() {
        let large = LARGE_NODES.contains(&i);
        *w = active.contains(&i).then_some(if large {
            Benchmark::Libquantum
        } else {
            Benchmark::SpecJbb
        });
        if !large {
            *core = CoreParams::IN_ORDER;
        }
    }
    if expedited {
        spec.expedited = LARGE_NODES.map(NodeId).to_vec();
    }
    PointSpec {
        label: label.to_owned(),
        config,
        kind: PointKind::Cmp(spec),
    }
}

pub fn run() {
    let mut rep = Report::new("fig14_asymmetric");
    rep.line("# Figure 14 — asymmetric CMP (4 large corner cores + 60 small cores)");
    rep.line(format!(
        "# libquantum on large cores, SPECjbb on small cores; {} refs/core",
        trace_len()
    ));

    let all: Vec<usize> = (0..64).collect();
    let configs: Vec<(&str, NetworkConfig, bool)> = vec![
        ("HomoNoC-XY", mesh_config(&Layout::Baseline), false),
        ("HeteroNoC-XY", mesh_config(&Layout::DiagonalBL), false),
        (
            "HeteroNoC-Table+XY",
            mesh_config_with_table(
                &Layout::DiagonalBL,
                &LARGE_NODES.map(heteronoc::noc::RouterId),
            ),
            true,
        ),
    ];

    // Alone IPCs on the homogeneous reference: each thread with the rest of
    // the system idle. Running each of 64 threads alone is costly; the
    // system is symmetric for small cores, so we sample one representative
    // small core per distinct distance class and reuse by symmetry — here
    // simply: one large core alone and one central small core alone.
    let mut sweep = Sweep::new("fig14_asymmetric");
    let homo = mesh_config(&Layout::Baseline);
    sweep.push(point("alone-large", homo.clone(), &[0], false));
    sweep.push(point("alone-small", homo, &[27], false));
    for (name, net_cfg, expedited) in &configs {
        sweep.push(point(name, net_cfg.clone(), &all, *expedited));
    }
    let outcome = run_grid(&sweep);
    let alone_large = system(&outcome.points[0]).ipcs[0];
    let alone_small = system(&outcome.points[1]).ipcs[27];
    rep.line(format!(
        "alone IPC: libquantum(large) {:.3}, SPECjbb(small) {:.3}",
        alone_large, alone_small
    ));
    let alone: Vec<f64> = (0..64)
        .map(|i| {
            if LARGE_NODES.contains(&i) {
                alone_large
            } else {
                alone_small
            }
        })
        .collect();

    rep.line("");
    rep.line(format!(
        "{:<22}{:>18}{:>18}{:>14}{:>14}",
        "config", "weighted speedup", "harmonic speedup", "large IPC", "small IPC"
    ));
    for ((name, _, _), p) in configs.iter().zip(&outcome.points[2..]) {
        let ipcs = &system(p).ipcs;
        let ws = weighted_speedup(ipcs, &alone);
        let hs = harmonic_speedup(ipcs, &alone);
        let large_ipc: f64 =
            LARGE_NODES.iter().map(|&i| ipcs[i]).sum::<f64>() / LARGE_NODES.len() as f64;
        let small_ipc: f64 = (0..64)
            .filter(|i| !LARGE_NODES.contains(i))
            .map(|i| ipcs[i])
            .sum::<f64>()
            / 60.0;
        rep.line(format!(
            "{:<22}{:>18.3}{:>18.3}{:>14.3}{:>14.3}",
            name, ws, hs, large_ipc, small_ipc
        ));
    }
    rep.line("");
    rep.line("paper: HeteroNoC-XY +6% and HeteroNoC-Table+XY +11% weighted speedup over");
    rep.line("HomoNoC-XY; +11.5% harmonic speedup with table routing.");
}
