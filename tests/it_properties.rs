//! Property-based integration tests (proptest): conservation and protocol
//! invariants that must hold for *any* traffic, placement or configuration
//! in range.

use proptest::prelude::*;

use heteronoc::noc::config::{LinkWidths, NetworkConfig, RouterCfg};
use heteronoc::noc::network::Network;
use heteronoc::noc::packet::PacketClass;
use heteronoc::noc::routing::RoutingKind;
use heteronoc::noc::topology::TopologyKind;
use heteronoc::noc::types::{Bits, NodeId, RouterId};
use heteronoc::{mesh_config, Layout, Placement};

/// Drains a network, asserting progress.
fn drain(net: &mut Network, max: u64) {
    let mut steps = 0;
    while net.in_flight() > 0 {
        net.step();
        steps += 1;
        assert!(steps < max, "network failed to drain in {max} cycles");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every packet injected into any paper layout is delivered exactly
    /// once, with all its flits, for arbitrary source/destination batches.
    #[test]
    fn packets_always_delivered(
        pairs in prop::collection::vec((0usize..64, 0usize..64), 1..60),
        layout_idx in 0usize..7,
        data in prop::collection::vec(any::<bool>(), 60),
    ) {
        let layout = &Layout::all_seven()[layout_idx];
        let cfg = mesh_config(layout);
        let flit_width = cfg.flit_width;
        let mut net = Network::new(cfg).expect("valid layout");
        net.start_measuring();
        let mut expect_flits = 0u64;
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let size = if data[i % data.len()] { Bits(1024) } else { Bits(64) };
            expect_flits += u64::from(size.flits(flit_width));
            net.enqueue(NodeId(s), NodeId(d), size, PacketClass::Data, i as u64);
        }
        drain(&mut net, 200_000);
        prop_assert_eq!(net.stats().packets_retired, pairs.len() as u64);
        prop_assert_eq!(net.stats().flits_retired, expect_flits);
        // Delivered set matches the enqueued multiset of tags.
        let mut tags: Vec<u64> = net.drain_delivered().iter().map(|d| d.packet.tag).collect();
        tags.sort_unstable();
        let expect: Vec<u64> = (0..pairs.len() as u64).collect();
        prop_assert_eq!(tags, expect);
    }

    /// Network latency is never below the contention-free ideal.
    #[test]
    fn latency_never_beats_ideal(
        pairs in prop::collection::vec((0usize..64, 0usize..64), 1..40),
    ) {
        let mut net = Network::new(mesh_config(&Layout::DiagonalBL)).expect("valid");
        let flits = Bits(1024).flits(net.config().flit_width);
        for (i, &(s, d)) in pairs.iter().enumerate() {
            net.enqueue(NodeId(s), NodeId(d), Bits(1024), PacketClass::Data, i as u64);
        }
        drain(&mut net, 200_000);
        for d in net.drain_delivered() {
            let (src, dst) = (d.packet.src, d.packet.dst);
            let ideal = net.ideal_latency(src, dst, flits);
            prop_assert!(
                d.retire - d.inject >= ideal,
                "packet {}->{} took {} cycles, ideal {}",
                src, dst, d.retire - d.inject, ideal
            );
        }
    }

    /// Arbitrary big-router placements (with the +BL link rule) always form
    /// valid, deadlock-free networks under random traffic.
    #[test]
    fn arbitrary_placements_build_and_drain(
        big_indices in prop::collection::btree_set(0usize..16, 0..=16),
        pairs in prop::collection::vec((0usize..16, 0usize..16), 1..30),
    ) {
        let big: Vec<RouterId> = big_indices.iter().map(|&i| RouterId(i)).collect();
        let placement = Placement::from_big_routers(4, 4, &big);
        let cfg = NetworkConfig {
            topology: TopologyKind::Mesh { width: 4, height: 4 },
            flit_width: Bits(128),
            routers: placement
                .mask()
                .iter()
                .map(|&b| if b { RouterCfg::BIG } else { RouterCfg::SMALL })
                .collect(),
            link_widths: LinkWidths::ByBigRouters {
                big: placement.mask().to_vec(),
                narrow: Bits(128),
                wide: Bits(256),
            },
            routing: RoutingKind::DimensionOrder,
            frequency_ghz: 2.07,
            escape_timeout: 16,
        };
        let mut net = Network::new(cfg).expect("placement config must be valid");
        for (i, &(s, d)) in pairs.iter().enumerate() {
            net.enqueue(NodeId(s), NodeId(d), Bits(1024), PacketClass::Data, i as u64);
        }
        drain(&mut net, 100_000);
    }

    /// Any random heterogeneous placement that passes the static verifier
    /// (`heteronoc-verify` CDG + lint analysis) survives 10k cycles of
    /// high uniform-random load with no deadlock and exact flit
    /// conservation: every injected packet retires with all of its flits
    /// and the network drains completely.
    #[test]
    fn verified_random_layouts_conserve_flits_under_load(
        big_indices in prop::collection::btree_set(0usize..64, 0..=8),
        eight in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let w = if eight { 8 } else { 4 };
        let n = w * w;
        let big: Vec<RouterId> = big_indices.iter().filter(|&&i| i < n).map(|&i| RouterId(i)).collect();
        let placement = Placement::from_big_routers(w, w, &big);
        let cfg = NetworkConfig {
            topology: TopologyKind::Mesh { width: w, height: w },
            flit_width: Bits(128),
            routers: placement
                .mask()
                .iter()
                .map(|&b| if b { RouterCfg::BIG } else { RouterCfg::SMALL })
                .collect(),
            link_widths: LinkWidths::ByBigRouters {
                big: placement.mask().to_vec(),
                narrow: Bits(128),
                wide: Bits(256),
            },
            routing: RoutingKind::DimensionOrder,
            frequency_ghz: 2.07,
            escape_timeout: 16,
        };
        // The static proof gates the dynamic run: only verified layouts
        // are exercised (and every X-Y mesh layout must verify).
        heteronoc_verify::verify_config("random placement", &cfg)
            .expect("every X-Y-routed mesh placement is deadlock-free");

        let mut net = Network::new(cfg).expect("verified config must build");
        net.start_measuring();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut packets = 0u64;
        let mut expect_flits = 0u64;
        for _ in 0..10_000u32 {
            for src in 0..n {
                if rng.random::<f64>() < 0.1 {
                    let dst = (src + rng.random_range(1..n)) % n;
                    let size = if rng.random::<f64>() < 0.2 { Bits(1024) } else { Bits(128) };
                    expect_flits += u64::from(size.flits(Bits(128)));
                    packets += 1;
                    net.enqueue(NodeId(src), NodeId(dst), size, PacketClass::Data, packets);
                }
            }
            net.step();
        }
        drain(&mut net, 400_000);
        prop_assert_eq!(net.stats().packets_retired, packets);
        prop_assert_eq!(net.stats().flits_retired, expect_flits);
        prop_assert_eq!(net.diagnostics().buffered_flits, 0);
    }

    /// The torus dateline scheme never deadlocks for any batch.
    #[test]
    fn torus_drains_any_batch(
        pairs in prop::collection::vec((0usize..64, 0usize..64), 1..50),
    ) {
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Torus { width: 8, height: 8 },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        let mut net = Network::new(cfg).expect("valid torus");
        for (i, &(s, d)) in pairs.iter().enumerate() {
            net.enqueue(NodeId(s), NodeId(d), Bits(1024), PacketClass::Data, i as u64);
        }
        drain(&mut net, 200_000);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The CMP drains and commits exactly the trace contents for arbitrary
    /// tiny workloads (random sharing patterns).
    #[test]
    fn cmp_commits_exactly_the_trace(
        ops in prop::collection::vec((0usize..16, 0u8..2, 0u64..64), 1..80),
    ) {
        use heteronoc::traffic::trace::{MemOp, TraceRecord, VecTrace};
        use heteronoc_cmp::{CmpConfig, CmpSystem, CoreParams};

        let mut per_core: Vec<Vec<TraceRecord>> = vec![Vec::new(); 16];
        for &(core, op, blk) in &ops {
            per_core[core].push(TraceRecord {
                gap: 1,
                op: if op == 0 { MemOp::Load } else { MemOp::Store },
                addr: 0x1_0000 + blk * 128,
            });
        }
        let expected: Vec<u64> = per_core.iter().map(|v| 2 * v.len() as u64).collect();
        let net = NetworkConfig::homogeneous(
            TopologyKind::Mesh { width: 4, height: 4 },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        let mut cfg = CmpConfig::paper_defaults(net);
        cfg.mc_nodes = heteronoc_cmp::corners4(4, 4);
        let traces: Vec<Box<dyn heteronoc::traffic::TraceSource + Send>> = per_core
            .into_iter()
            .map(|v| Box::new(VecTrace::new(v)) as _)
            .collect();
        let mut sys = CmpSystem::new(cfg, vec![CoreParams::OUT_OF_ORDER; 16], traces);
        sys.run(2_000_000);
        prop_assert!(sys.finished(), "CMP must drain");
        prop_assert_eq!(sys.committed(), expected);
    }
}
