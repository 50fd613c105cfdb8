//! Property-based tests of the network-simulator building blocks.

use proptest::prelude::*;

use heteronoc_noc::config::{NetworkConfig, RouterCfg};
use heteronoc_noc::network::Network;
use heteronoc_noc::packet::{Flit, FlitKind, Packet, PacketClass};
use heteronoc_noc::router::arbiter::RrArbiter;
use heteronoc_noc::routing::{RoutingKind, VcClass};
use heteronoc_noc::topology::{PortKind, TopologyKind};
use heteronoc_noc::types::{Bits, NodeId, PacketId};

proptest! {
    /// Fragmentation produces exactly ceil(size/width) flits with coherent
    /// head/body/tail markers and sequence numbers.
    #[test]
    fn fragmentation_is_well_formed(size in 1u32..4096, width in 32u32..512) {
        let p = Packet {
            id: PacketId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size: Bits(size),
            class: PacketClass::Data,
            tag: 0,
            birth: 0,
        };
        let flits = Flit::fragment(&p, Bits(width), 7);
        let expect = size.div_ceil(width) as usize;
        prop_assert_eq!(flits.len(), expect);
        prop_assert!(flits[0].kind.is_head());
        prop_assert!(flits[expect - 1].kind.is_tail());
        for (i, f) in flits.iter().enumerate() {
            prop_assert_eq!(f.seq as usize, i);
            prop_assert_eq!(f.total as usize, expect);
            let head = i == 0;
            let tail = i == expect - 1;
            match f.kind {
                FlitKind::HeadTail => prop_assert!(head && tail),
                FlitKind::Head => prop_assert!(head && !tail),
                FlitKind::Tail => prop_assert!(tail && !head),
                FlitKind::Body => prop_assert!(!head && !tail),
            }
        }
    }

    /// Round-robin arbitration is work-conserving and fair: over any
    /// eligibility mask with k set bits, n grants cycle through all of them.
    #[test]
    fn arbiter_grants_all_eligible(mask in prop::collection::vec(any::<bool>(), 1..16)) {
        prop_assume!(mask.iter().any(|&b| b));
        let mut arb = RrArbiter::new();
        let n = mask.len();
        let eligible: Vec<usize> =
            mask.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        let requests = eligible.iter().fold(0u128, |m, &i| m | 1 << i);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let w = arb.grant_mask(n, requests).expect("some requester");
            prop_assert!(mask[w]);
            seen.insert(w);
        }
        prop_assert_eq!(seen.len(), eligible.len(), "every requester served within n grants");
    }

    /// Dimension-order routing reaches the destination in exactly
    /// `route_hops` steps on every topology, from any source.
    #[test]
    fn routing_reaches_destination(
        kind_idx in 0usize..4,
        s in 0usize..64,
        d in 0usize..64,
    ) {
        let kind = [
            TopologyKind::Mesh { width: 8, height: 8 },
            TopologyKind::Torus { width: 8, height: 8 },
            TopologyKind::CMesh { width: 4, height: 4, concentration: 4 },
            TopologyKind::FlattenedButterfly { width: 4, height: 4, concentration: 4 },
        ][kind_idx];
        let g = kind.build();
        let routing = RoutingKind::DimensionOrder;
        let (src, dst) = (NodeId(s), NodeId(d));
        let mut cur = g.attachment(src).router;
        let mut hops = 0usize;
        while let Some(rc) = routing.route(&g, cur, src, dst, false, false) {
            match g.router(cur).ports[rc.port.index()].kind {
                PortKind::Link { to, .. } => cur = to,
                PortKind::Local { .. } => prop_assert!(false, "route returned local port"),
            }
            hops += 1;
            prop_assert!(hops <= 20, "route must terminate");
        }
        prop_assert_eq!(cur, g.attachment(dst).router);
        prop_assert_eq!(hops, g.route_hops(src, dst));
    }

    /// VcClass ranges always form valid non-empty windows within the VC
    /// count, and dateline classes partition it.
    #[test]
    fn vc_class_ranges_are_valid(vcs in 2usize..12) {
        for class in [
            VcClass::Any,
            VcClass::Dateline0,
            VcClass::Dateline1,
            VcClass::NonEscape,
            VcClass::Escape,
        ] {
            let (lo, hi) = class.range(vcs);
            prop_assert!(lo < hi && hi <= vcs, "{class:?}: [{lo},{hi}) of {vcs}");
        }
        let (l0, h0) = VcClass::Dateline0.range(vcs);
        let (l1, h1) = VcClass::Dateline1.range(vcs);
        prop_assert_eq!((l0, h0), (0, vcs / 2));
        prop_assert_eq!((l1, h1), (vcs / 2, vcs));
    }

    /// The ideal-latency formula is monotone in flit count and consistent
    /// with measured zero-load latency for random pairs.
    #[test]
    fn measured_zero_load_equals_ideal_single_lane(s in 0usize..16, d in 0usize..16) {
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Mesh { width: 4, height: 4 },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        let mut net = Network::new(cfg).expect("valid");
        net.enqueue(NodeId(s), NodeId(d), Bits(1024), PacketClass::Data, 0);
        let mut steps = 0;
        while net.in_flight() > 0 {
            net.step();
            steps += 1;
            prop_assert!(steps < 1_000);
        }
        let del = net.drain_delivered();
        let lat = del[0].retire - del[0].inject;
        prop_assert_eq!(lat, net.ideal_latency(NodeId(s), NodeId(d), 6));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end recovery never ejects the same packet twice: under any
    /// schedule of random link kills, every enqueued tag is delivered at
    /// most once — a retained copy racing its own ack is suppressed at
    /// the destination, never double-counted.
    #[test]
    fn recovery_never_ejects_duplicates(
        kills in prop::collection::vec((0usize..48, 1u64..300), 0..4),
        pairs in prop::collection::vec((0usize..16, 0usize..16), 8..24),
        seed in 0u64..1024,
    ) {
        use heteronoc_noc::fault::{
            FaultKind, FaultPlan, HardFault, RecoveryPolicy, RetryPolicy,
        };
        use heteronoc_noc::types::LinkId;

        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Mesh { width: 4, height: 4 },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        let mut plan = FaultPlan {
            seed,
            recovery: Some(RecoveryPolicy {
                retry: RetryPolicy { max_attempts: 3, timeout: 64 },
                retention: 8,
            }),
            ..FaultPlan::default()
        };
        for &(link, cycle) in &kills {
            // Duplicate links in the sample are harmless (the second kill
            // of a dead link is a no-op), so no dedup is needed.
            plan.hard.push(HardFault { cycle, kind: FaultKind::Link(LinkId(link)) });
        }
        let mut net = Network::with_faults(cfg, plan).expect("valid plan");
        let mut offered = 0u64;
        for (i, &(s, d)) in pairs.iter().enumerate() {
            if s == d {
                continue;
            }
            net.enqueue(NodeId(s), NodeId(d), Bits(512), PacketClass::Data, i as u64);
            offered += 1;
        }
        let mut seen = std::collections::HashSet::new();
        let mut delivered = 0u64;
        let mut steps = 0u64;
        while net.in_flight() > 0 || net.recovery_pending() > 0 {
            net.step();
            // Reroute around the dead equipment like the degradation
            // runner does (without it, flits aimed at a dead link wedge
            // forever and the drain cannot terminate).
            if net.take_routing_stale() {
                let dr = heteronoc_noc::routing::degraded::degraded_routing(
                    net.graph(),
                    net.dead_links(),
                    net.dead_routers(),
                );
                net.install_routing(heteronoc_noc::routing::RoutingKind::FullTable(dr.table));
            }
            for del in net.drain_delivered() {
                delivered += 1;
                prop_assert!(
                    seen.insert(del.packet.tag),
                    "tag {} ejected twice (src n{} dst n{})",
                    del.packet.tag,
                    del.packet.src.index(),
                    del.packet.dst.index()
                );
            }
            steps += 1;
            prop_assert!(steps < 200_000, "drain did not terminate");
        }
        let rec = net.recovery_counters();
        // Full ledger: every offered packet is delivered once or recorded
        // permanently lost; suppressed duplicates are never in either set.
        prop_assert_eq!(delivered + rec.lost, offered);
    }
}
