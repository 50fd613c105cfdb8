//! Integration: layout generation, resource conservation and the paper's
//! §2/§3 constraints, checked through the full configuration pipeline.

use heteronoc::noc::config::LinkWidths;
use heteronoc::noc::network::Network;
use heteronoc::noc::types::{Bits, RouterId};
use heteronoc::{audit_mesh_layout, mesh_config, mesh_config_with_table, Layout, Placement};

#[test]
fn all_layouts_conserve_total_vcs() {
    for layout in Layout::all_seven() {
        let a = audit_mesh_layout(&layout);
        assert_eq!(a.total_vcs, 192, "{layout}");
    }
}

#[test]
fn bl_layouts_reduce_buffer_bits_by_a_third() {
    for layout in [Layout::CenterBL, Layout::Row25BL, Layout::DiagonalBL] {
        let a = audit_mesh_layout(&layout);
        assert!((a.buffer_reduction() - 1.0 / 3.0).abs() < 1e-9, "{layout}");
    }
}

#[test]
fn all_layouts_respect_the_power_budget() {
    for layout in Layout::all_seven() {
        assert!(audit_mesh_layout(&layout).power_budget_ok, "{layout}");
    }
}

#[test]
fn hetero_area_is_below_homogeneous() {
    for layout in Layout::all_heterogeneous() {
        let a = audit_mesh_layout(&layout);
        assert!(a.router_area_mm2 < a.baseline_area_mm2, "{layout}");
    }
}

#[test]
fn bl_wide_links_touch_only_big_routers() {
    let layout = Layout::DiagonalBL;
    let cfg = mesh_config(&layout);
    let graph = cfg.build_graph();
    let placement = layout.placement(8, 8);
    let widths = cfg.link_widths.resolve(&graph);
    for (i, l) in graph.links().iter().enumerate() {
        let touches_big = placement.is_big(l.src) || placement.is_big(l.dst);
        let expect = if touches_big { Bits(256) } else { Bits(128) };
        assert_eq!(widths[i], expect, "link {i}");
    }
}

#[test]
fn network_lanes_follow_link_widths() {
    let cfg = mesh_config(&Layout::DiagonalBL);
    let net = Network::new(cfg.clone()).expect("valid");
    let widths = match &cfg.link_widths {
        LinkWidths::ByBigRouters { .. } => cfg.link_widths.resolve(net.graph()),
        _ => panic!("Diagonal+BL must use ByBigRouters"),
    };
    for (i, &wide) in net.wide_links().iter().enumerate() {
        assert_eq!(wide, widths[i] == Bits(256), "link {i}");
        assert_eq!(net.link_lanes()[i], if wide { 2 } else { 1 });
    }
}

#[test]
fn custom_placement_round_trips_through_config() {
    let placement = Placement::from_big_routers(8, 8, &[RouterId(9), RouterId(54)]);
    let layout = Layout::Custom {
        placement: placement.clone(),
        links: true,
        name: "two-big".into(),
    };
    let cfg = mesh_config(&layout);
    assert_eq!(
        cfg.routers.iter().filter(|r| r.vcs_per_port == 6).count(),
        2
    );
    Network::new(cfg).expect("custom layout builds");
}

#[test]
fn table_routed_network_delivers_expedited_traffic() {
    use heteronoc::noc::packet::PacketClass;
    use heteronoc::noc::types::NodeId;
    let corners = [RouterId(0), RouterId(7), RouterId(56), RouterId(63)];
    let cfg = mesh_config_with_table(&Layout::DiagonalBL, &corners);
    let mut net = Network::new(cfg).expect("valid table config");
    net.start_measuring();
    // Expedited corner-to-corner packets plus background data packets.
    for i in 0..4usize {
        net.enqueue(
            NodeId([0, 7, 56, 63][i]),
            NodeId([63, 56, 7, 0][i]),
            Bits(1024),
            PacketClass::Expedited,
            i as u64,
        );
    }
    for s in 8..24 {
        net.enqueue(NodeId(s), NodeId(63 - s), Bits(1024), PacketClass::Data, 99);
    }
    let mut steps = 0;
    while net.in_flight() > 0 {
        net.step();
        steps += 1;
        assert!(steps < 100_000, "table-routed network must drain");
    }
    assert_eq!(net.stats().packets_retired, 20);
    assert_eq!(net.stats().latency_by_class[2].count, 4, "expedited class");
}

#[test]
fn row25_exceeds_horizontal_bisection_budget_and_is_flagged() {
    let a = audit_mesh_layout(&Layout::Row25BL);
    assert!(!a.bisection_within_budget());
    let a = audit_mesh_layout(&Layout::CenterBL);
    assert!(a.bisection_within_budget());
}
