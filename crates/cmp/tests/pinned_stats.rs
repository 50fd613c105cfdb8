//! Pins every `CmpStats` field, the per-core commit counts, the cycle count
//! and the network totals of two small CMP runs to digests, so a change to
//! the substrate's bookkeeping cannot move a simulated result unnoticed.
//! The benchmark digests cover neither `mem_request_leg` (printed by
//! Fig. 13) nor `l1_miss_latency`; these do.

use heteronoc_cmp::{corners4, CmpConfig, CmpSystem, CoreParams, MemParams, Welford};
use heteronoc_noc::checkpoint::fnv1a64;
use heteronoc_noc::config::{NetworkConfig, RouterCfg};
use heteronoc_noc::routing::{RouteTable, RoutingKind};
use heteronoc_noc::topology::TopologyKind;
use heteronoc_noc::types::{Bits, NodeId, RouterId};
use heteronoc_traffic::trace::{MemOp, TraceRecord, TraceSource, VecTrace};

fn net4() -> NetworkConfig {
    NetworkConfig::homogeneous(
        TopologyKind::Mesh {
            width: 4,
            height: 4,
        },
        RouterCfg::BASELINE,
        Bits(192),
        2.2,
    )
}

fn welford(w: &Welford) -> String {
    format!(
        "{}/{:x}/{:x}",
        w.count(),
        w.mean().to_bits(),
        w.stddev().to_bits()
    )
}

/// Everything a run reports, as text, and its FNV-1a digest.
fn digest(sys: &CmpSystem) -> (u64, String) {
    let st = sys.stats();
    let net = sys.network().stats();
    let text = format!(
        "now={} committed={:?} rt={} leg={} l1lat={} hits={} misses={} reads={} writes={} \
         packets={} latency={:x}",
        sys.now(),
        sys.committed(),
        welford(&st.mem_round_trip),
        welford(&st.mem_request_leg),
        welford(&st.l1_miss_latency),
        st.l1_hits,
        st.l1_misses,
        st.mem_reads,
        st.mem_writes,
        net.packets_retired,
        net.latency.mean_total().to_bits(),
    );
    (fnv1a64(text.as_bytes()), text)
}

fn boxed(recs: Vec<TraceRecord>) -> Box<dyn TraceSource + Send> {
    Box::new(VecTrace::new(recs))
}

/// Core `c`'s trace: a deterministic mix of private and shared blocks,
/// loads and stores, with short gaps.
fn sharing_trace(c: u64, n: u64) -> Vec<TraceRecord> {
    (0..n)
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
        .collect()
}

#[test]
fn multi_core_sharing_run_is_pinned() {
    let cfg = CmpConfig {
        net: net4(),
        mem: MemParams {
            dram_latency: 60,
            // Small caches so L1 and L2 evictions (and with them dirty
            // writebacks to memory) happen within a short run.
            l1_bytes: 8 * 1024,
            l2_bytes: 16 * 1024,
            ..MemParams::default()
        },
        mc_nodes: corners4(4, 4),
        core_clock_ghz: 2.2,
        expedited_nodes: Vec::new(),
    };
    let traces = (0..16).map(|c| boxed(sharing_trace(c, 400))).collect();
    let mut sys = CmpSystem::new(cfg, vec![CoreParams::OUT_OF_ORDER; 16], traces);
    sys.run(5_000_000);
    assert!(sys.finished(), "run must drain");
    let (d, text) = digest(&sys);
    assert_eq!(d, 0x2c3c_1206_fc55_a77f, "{text}");
}

#[test]
fn asymmetric_expedited_run_is_pinned() {
    let mut net = net4();
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
    let traces = (0..16).map(|c| boxed(sharing_trace(c, 120))).collect();
    let mut sys = CmpSystem::new(cfg, params, traces);
    sys.run(5_000_000);
    assert!(sys.finished(), "run must drain");
    let (d, text) = digest(&sys);
    assert_eq!(d, 0x85df_078d_314b_430b, "{text}");
}
