//! The network engine's runtime invariants under CMP traffic.
//!
//! This crate's dev-dependency on `heteronoc-noc/verify` compiles the
//! checker in, and the driver then runs `Network::check_invariants` after
//! every network step of a CMP run, panicking on the first violation.
//! These runs carry coherence traffic through it until the system drains.

use heteronoc::{mesh_config, Layout};
use heteronoc_cmp::{corners4, CmpConfig, CmpSystem, CoreParams, MemParams};
use heteronoc_noc::config::{NetworkConfig, RouterCfg};
use heteronoc_noc::routing::{RouteTable, RoutingKind};
use heteronoc_noc::topology::TopologyKind;
use heteronoc_noc::types::{Bits, Cycle, NodeId, RouterId};
use heteronoc_traffic::trace::{MemOp, TraceRecord, TraceSource, VecTrace};
use heteronoc_traffic::workloads::{Benchmark, SyntheticWorkload};

/// Runs `sys` under the checker until it drains.
fn drain_checked(mut sys: CmpSystem) {
    sys.run(Cycle::MAX);
    assert!(sys.finished(), "did not drain: {}", sys.drain_report());
}

#[test]
fn canneal_keeps_engine_invariants_on_baseline_and_diagonal_bl() {
    let traces = || -> Vec<Box<dyn TraceSource + Send>> {
        (0..64)
            .map(|t| {
                Box::new(SyntheticWorkload::new(Benchmark::Canneal, t, 0xAB, 400))
                    as Box<dyn TraceSource + Send>
            })
            .collect()
    };
    for layout in [Layout::Baseline, Layout::DiagonalBL] {
        let mut sys = CmpSystem::new(
            CmpConfig::paper_defaults(mesh_config(&layout)),
            vec![CoreParams::OUT_OF_ORDER; 64],
            traces(),
        );
        sys.prewarm(traces());
        drain_checked(sys);
    }
}

/// The trace of core `c` in `pinned_stats.rs`: a deterministic mix of
/// private and shared blocks, loads and stores, with short gaps.
fn sharing_trace(c: u64, n: u64) -> Box<dyn TraceSource + Send> {
    let recs: Vec<TraceRecord> = (0..n)
        .map(|k| {
            let h = (c * 7919 + k * 104_729) ^ (k * k * 31);
            let addr = if h.is_multiple_of(3) {
                0x8_0000 + (h % 48) * 128 // shared pool
            } else {
                0x100_0000 + (c * 4096 + h % 600) * 128 // private
            };
            TraceRecord {
                gap: (h % 7) as u32,
                op: if h.is_multiple_of(5) {
                    MemOp::Store
                } else {
                    MemOp::Load
                },
                addr,
            }
        })
        .collect();
    Box::new(VecTrace::new(recs))
}

#[test]
fn mixed_cores_with_expedited_table_routing_keep_engine_invariants() {
    // The asymmetric run pinned in `pinned_stats.rs`: out-of-order cores
    // at the two expedited hub nodes, in-order cores elsewhere, Table+XY
    // routing with escape diversion on a 4x4 mesh.
    let mut net = NetworkConfig::homogeneous(
        TopologyKind::Mesh {
            width: 4,
            height: 4,
        },
        RouterCfg::BASELINE,
        Bits(192),
        2.2,
    );
    let graph = net.build_graph();
    net.routing = RoutingKind::TableXy(RouteTable::for_hubs(&graph, &[RouterId(0), RouterId(15)]));
    let cfg = CmpConfig {
        net,
        mem: MemParams {
            dram_latency: 30,
            l1_mshrs: 8,
            ..MemParams::default()
        },
        mc_nodes: corners4(4, 4),
        core_clock_ghz: 2.2,
        expedited_nodes: vec![NodeId(0), NodeId(15)],
    };
    let params = (0..16)
        .map(|i| {
            if i == 0 || i == 15 {
                CoreParams::OUT_OF_ORDER
            } else {
                CoreParams::IN_ORDER
            }
        })
        .collect();
    let traces = (0..16).map(|c| sharing_trace(c, 120)).collect();
    drain_checked(CmpSystem::new(cfg, params, traces));
}
