//! Runtime invariant checking under load (cargo feature `verify`).
//!
//! Runs full open-loop simulations with [`StrictInvariants`] active every
//! cycle — homogeneous, heterogeneous and table-routed configurations —
//! and closed-loop request/reply traffic checked after every step, so any
//! flit-conservation, credit or FIFO-order slip in the engine aborts the
//! run at the cycle it happens. Run with
//! `cargo test -p heteronoc-noc --features verify`.

#![cfg(feature = "verify")]

use heteronoc_noc::config::{LinkWidths, NetworkConfig, NetworkConfigBuilder, RouterCfg};
use heteronoc_noc::network::Network;
use heteronoc_noc::packet::PacketClass;
use heteronoc_noc::routing::{RouteTable, RoutingKind};
use heteronoc_noc::sim::{InvariantObserver, SimParams, SimRun};
use heteronoc_noc::topology::TopologyKind;
use heteronoc_noc::types::{Bits, NodeId, Rate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn params(rate: f64) -> SimParams {
    SimParams {
        injection_rate: Rate::new(rate),
        warmup_packets: 50,
        measure_packets: 500,
        max_cycles: 100_000,
        seed: 11,
        process: heteronoc_noc::sim::InjectionProcess::Bernoulli,
        watchdog: Some(100_000),
    }
}

#[test]
fn homogeneous_mesh_holds_invariants_under_load() {
    let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
    let out = SimRun::new(net, params(0.03)).run().unwrap();
    assert!(out.stats.packets_retired >= 500);
}

#[test]
fn heterogeneous_routers_hold_invariants_under_load() {
    // Four 6-VC big routers in the center of a 4x4 mesh, 2-VC elsewhere —
    // the Center+B shape at small scale.
    let mut b = NetworkConfigBuilder::mesh(4, 4).router_default(RouterCfg::SMALL);
    for r in [5usize, 6, 9, 10] {
        b = b.router(r, RouterCfg::BIG);
    }
    let net = Network::new(b.build().expect("valid config")).unwrap();
    let out = SimRun::new(net, params(0.03)).run().unwrap();
    assert!(out.stats.packets_retired >= 500);
}

#[test]
fn torus_dateline_routing_holds_invariants_under_load() {
    let cfg = NetworkConfig::homogeneous(
        TopologyKind::Torus {
            width: 4,
            height: 4,
        },
        RouterCfg::BASELINE,
        Bits(192),
        2.2,
    );
    let net = Network::new(cfg).unwrap();
    let out = SimRun::new(net, params(0.03)).run().unwrap();
    assert!(out.stats.packets_retired >= 500);
}

#[test]
fn table_routing_with_escape_holds_invariants_under_load() {
    let base = NetworkConfigBuilder::mesh(4, 4)
        .build()
        .expect("valid config");
    let graph = base.build_graph();
    let hubs: Vec<_> = [0usize, 3, 12, 15]
        .into_iter()
        .map(heteronoc_noc::types::RouterId)
        .collect();
    let cfg = NetworkConfigBuilder::mesh(4, 4)
        .routing(RoutingKind::TableXy(RouteTable::for_hubs(&graph, &hubs)))
        .build()
        .expect("valid config");
    let net = Network::new(cfg).unwrap();
    let out = SimRun::new(net, params(0.03)).run().unwrap();
    assert!(out.stats.packets_retired >= 500);
}

#[test]
fn custom_observer_sees_every_cycle() {
    struct Counting {
        cycles: u64,
    }
    impl InvariantObserver for Counting {
        fn after_cycle(&mut self, net: &Network) {
            self.cycles += 1;
            net.check_invariants().unwrap();
        }
    }
    let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
    let mut obs = Counting { cycles: 0 };
    let out = SimRun::new(net, params(0.02))
        .observer(&mut obs)
        .run()
        .unwrap();
    assert_eq!(obs.cycles, out.cycles, "one observer call per cycle");
}

/// The paper's 8x8 Diagonal+BL network: 6-VC routers on both diagonals,
/// 2-VC routers elsewhere, 128-bit flits, and 256-bit links (two flit
/// lanes) wherever a big router sits at either end.
fn diagonal_bl() -> NetworkConfig {
    let big: Vec<bool> = (0..64)
        .map(|r| r % 8 == r / 8 || r % 8 + r / 8 == 7)
        .collect();
    let mut b = NetworkConfigBuilder::mesh(8, 8)
        .router_default(RouterCfg::SMALL)
        .flit_width(Bits(128))
        .link_widths(LinkWidths::ByBigRouters {
            big: big.clone(),
            narrow: Bits(128),
            wide: Bits(256),
        })
        .frequency_ghz(2.07);
    for r in (0..64).filter(|&r| big[r]) {
        b = b.router(r, RouterCfg::BIG);
    }
    b.build().expect("valid config")
}

#[test]
fn request_reply_traffic_holds_invariants_on_diagonal_bl() {
    // The closed-loop memory-controller shape: every other node keeps 16
    // one-flit requests outstanding to the four corner nodes, and each
    // request delivered to a corner is answered with a 1024-bit reply.
    let mut net = Network::new(diagonal_bl()).unwrap();
    let corners = [NodeId(0), NodeId(7), NodeId(56), NodeId(63)];
    let n = net.graph().num_nodes();
    let mut outstanding = vec![0usize; n];
    let mut rng = StdRng::seed_from_u64(13);
    let mut round_trips = 0u64;
    for _ in 0..4_000 {
        for node in (0..n).map(NodeId).filter(|m| !corners.contains(m)) {
            while outstanding[node.index()] < 16 {
                let mc = corners[rng.random_range(0..corners.len())];
                net.enqueue(node, mc, Bits(64), PacketClass::Control, 0);
                outstanding[node.index()] += 1;
            }
        }
        net.step();
        if let Err(e) = net.check_invariants() {
            panic!("cycle {}: {e}", net.now());
        }
        for d in net.drain_delivered() {
            let (src, dst) = (d.packet.src, d.packet.dst);
            if corners.contains(&dst) {
                net.enqueue(dst, src, Bits(1024), PacketClass::Data, 0);
            } else {
                outstanding[dst.index()] -= 1;
                round_trips += 1;
            }
        }
    }
    assert!(round_trips > 1_000, "only {round_trips} round trips");
}
