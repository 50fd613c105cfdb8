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

use crate::{full_scale, Report};
use heteronoc::noc::types::NodeId;
use heteronoc::traffic::trace::VecTrace;
use heteronoc::traffic::workloads::{Benchmark, SyntheticWorkload};
use heteronoc::traffic::TraceSource;
use heteronoc::{mesh_config, mesh_config_with_table, Layout};
use heteronoc_cmp::{harmonic_speedup, weighted_speedup, CmpConfig, CmpSystem, CoreParams};

const LARGE_NODES: [usize; 4] = [0, 7, 56, 63];

fn trace_len() -> u64 {
    if full_scale() {
        12_000
    } else {
        1_000
    }
}

fn core_params() -> Vec<CoreParams> {
    (0..64)
        .map(|i| {
            if LARGE_NODES.contains(&i) {
                CoreParams::OUT_OF_ORDER
            } else {
                CoreParams::IN_ORDER
            }
        })
        .collect()
}

fn traces(active: &[usize]) -> Vec<Box<dyn TraceSource + Send>> {
    (0..64)
        .map(|i| {
            if !active.contains(&i) {
                return Box::new(VecTrace::default()) as Box<dyn TraceSource + Send>;
            }
            let bench = if LARGE_NODES.contains(&i) {
                Benchmark::Libquantum
            } else {
                Benchmark::SpecJbb
            };
            Box::new(SyntheticWorkload::new(bench, i, 0xF1614, trace_len()))
                as Box<dyn TraceSource + Send>
        })
        .collect()
}

fn run_one(net_cfg: heteronoc::noc::NetworkConfig, active: &[usize], expedited: bool) -> Vec<f64> {
    let mut cfg = CmpConfig::paper_defaults(net_cfg);
    if expedited {
        cfg.expedited_nodes = LARGE_NODES.iter().map(|&n| NodeId(n)).collect();
    }
    let mut sys = CmpSystem::new(cfg, core_params(), traces(active));
    sys.prewarm(traces(active));
    sys.run(40_000_000);
    assert!(sys.finished(), "asymmetric system: {}", sys.drain_report());
    sys.ipcs()
}

pub fn run() {
    let mut rep = Report::new("fig14_asymmetric");
    rep.line("# Figure 14 — asymmetric CMP (4 large corner cores + 60 small cores)");
    rep.line(format!(
        "# libquantum on large cores, SPECjbb on small cores; {} refs/core",
        trace_len()
    ));

    let all: Vec<usize> = (0..64).collect();

    // Alone IPCs on the homogeneous reference: each thread with the rest of
    // the system idle. Running each of 64 threads alone is costly; the
    // system is symmetric for small cores, so we sample one representative
    // small core per distinct distance class and reuse by symmetry — here
    // simply: one large core alone and one central small core alone.
    let alone_large = run_one(mesh_config(&Layout::Baseline), &[0], false)[0];
    let alone_small = run_one(mesh_config(&Layout::Baseline), &[27], false)[27];
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
    let configs: Vec<(&str, heteronoc::noc::NetworkConfig, bool)> = vec![
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
    for (name, net_cfg, expedited) in configs {
        let ipcs = run_one(net_cfg, &all, expedited);
        let ws = weighted_speedup(&ipcs, &alone);
        let hs = harmonic_speedup(&ipcs, &alone);
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
        eprintln!("done: {name}");
    }
    rep.line("");
    rep.line("paper: HeteroNoC-XY +6% and HeteroNoC-Table+XY +11% weighted speedup over");
    rep.line("HomoNoC-XY; +11.5% harmonic speedup with table routing.");
}
