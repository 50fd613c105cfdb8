//! Turns a [`Layout`] into a simulator [`NetworkConfig`] (§2-§3).
//!
//! * Baseline: homogeneous 3 VCs / 192b / 2.20 GHz.
//! * `+B` layouts: buffer-only redistribution — small (2 VCs) and big
//!   (6 VCs) routers, everything still 192b wide.
//! * `+BL` layouts: combined buffer + link redistribution — 128b flits,
//!   128b links between small routers, 256b links touching a big router
//!   (which then carry two combined flits per cycle).
//!
//! All heterogeneous networks run at the worst-case (big-router) frequency
//! of 2.07 GHz (§3.4).

use heteronoc_noc::config::{LinkWidths, NetworkConfig, RouterCfg};
use heteronoc_noc::routing::{RouteTable, RoutingKind};
use heteronoc_noc::topology::TopologyKind;
use heteronoc_noc::types::{Bits, RouterId};

use crate::layout::Layout;
use crate::router_class::{heteronoc_frequency_ghz, RouterClass};

/// Builds the network configuration for `layout` on a `width x height`
/// grid of the given `topology` family (mesh for the main evaluation,
/// torus for §5.1.1).
///
/// # Panics
/// Panics if `topology`'s dimensions disagree with `width`/`height`, or for
/// a custom placement built for a different grid.
pub fn network_config(layout: &Layout, topology: TopologyKind) -> NetworkConfig {
    let (width, height) = match topology {
        TopologyKind::Mesh { width, height }
        | TopologyKind::Torus { width, height }
        | TopologyKind::CMesh { width, height, .. }
        | TopologyKind::FlattenedButterfly { width, height, .. } => (width, height),
    };
    match layout {
        Layout::Baseline => NetworkConfig::homogeneous(
            topology,
            RouterClass::Baseline.router_cfg(),
            RouterClass::Baseline.width(),
            RouterClass::Baseline.freq_ghz(),
        ),
        _ => {
            let placement = layout.placement(width, height);
            let routers = placement
                .mask()
                .iter()
                .map(|&b| {
                    if b {
                        RouterClass::Big.router_cfg()
                    } else {
                        RouterClass::Small.router_cfg()
                    }
                })
                .collect();
            let (flit_width, link_widths) = if layout.redistributes_links() {
                (
                    RouterClass::Small.width(),
                    LinkWidths::ByBigRouters {
                        big: placement.mask().to_vec(),
                        narrow: RouterClass::Small.width(),
                        wide: RouterClass::Big.width(),
                    },
                )
            } else {
                (
                    RouterClass::Baseline.width(),
                    LinkWidths::Uniform(RouterClass::Baseline.width()),
                )
            };
            NetworkConfig {
                topology,
                flit_width,
                routers,
                link_widths,
                routing: RoutingKind::DimensionOrder,
                frequency_ghz: heteronoc_frequency_ghz(),
                escape_timeout: 16,
            }
        }
    }
}

/// Convenience: `layout` on the paper's 8x8 mesh.
pub fn mesh_config(layout: &Layout) -> NetworkConfig {
    network_config(
        layout,
        TopologyKind::Mesh {
            width: 8,
            height: 8,
        },
    )
}

/// Like [`mesh_config`] but with table-based routing for expedited flows
/// between the given hub routers and everywhere else (§7's
/// HeteroNoC-Table+XY). The top VC of every port becomes the reserved
/// escape VC.
pub fn mesh_config_with_table(layout: &Layout, hubs: &[RouterId]) -> NetworkConfig {
    let mut cfg = mesh_config(layout);
    let graph = cfg.build_graph();
    cfg.routing = RoutingKind::TableXy(RouteTable::for_hubs(&graph, hubs));
    cfg
}

/// The configurations `heteronoc lint` checks by default: the paper's seven
/// mesh layouts, Diagonal+BL with a route table over `hubs`, and three
/// homogeneous networks of other topologies. The flag marks the paper mesh
/// layouts, the ones `lint --baseline` holds to the baseline mesh's VC and
/// bisection budget.
pub fn shipped_configs(hubs: &[RouterId]) -> Vec<(String, NetworkConfig, bool)> {
    let mut out: Vec<(String, NetworkConfig, bool)> = Layout::all_seven()
        .into_iter()
        .map(|l| (l.name().to_owned(), mesh_config(&l), true))
        .collect();
    out.push((
        format!("{} (table)", Layout::DiagonalBL.name()),
        mesh_config_with_table(&Layout::DiagonalBL, hubs),
        true,
    ));
    for (name, kind) in [
        (
            "torus-8x8",
            TopologyKind::Torus {
                width: 8,
                height: 8,
            },
        ),
        (
            "cmesh-4x4x4",
            TopologyKind::CMesh {
                width: 4,
                height: 4,
                concentration: 4,
            },
        ),
        (
            "fbfly-4x4x4",
            TopologyKind::FlattenedButterfly {
                width: 4,
                height: 4,
                concentration: 4,
            },
        ),
    ] {
        let cfg = NetworkConfig::homogeneous(kind, RouterCfg::BASELINE, Bits(192), 2.2);
        out.push((name.to_owned(), cfg, false));
    }
    out
}

/// One flit per paper packet kind, in flits, for a given configuration:
/// `(data_flits, address_flits)` — 1024b data and 1-flit address packets
/// (§4).
pub fn packet_flits(cfg: &NetworkConfig) -> (u32, u32) {
    (Bits(1024).flits(cfg.flit_width), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc_noc::network::Network;
    use heteronoc_noc::types::RouterId;

    #[test]
    fn baseline_config_matches_paper() {
        let cfg = mesh_config(&Layout::Baseline);
        assert_eq!(cfg.flit_width, Bits(192));
        assert_eq!(cfg.frequency_ghz, 2.20);
        assert!(cfg.routers.iter().all(|r| r.vcs_per_port == 3));
        assert_eq!(packet_flits(&cfg), (6, 1));
        assert!(cfg.validate(&cfg.build_graph()).is_ok());
    }

    #[test]
    fn plus_b_keeps_192b_links() {
        let cfg = mesh_config(&Layout::DiagonalB);
        assert_eq!(cfg.flit_width, Bits(192));
        assert_eq!(cfg.frequency_ghz, 2.07);
        assert!(matches!(cfg.link_widths, LinkWidths::Uniform(Bits(192))));
        assert_eq!(packet_flits(&cfg), (6, 1));
        let big = cfg.routers.iter().filter(|r| r.vcs_per_port == 6).count();
        let small = cfg.routers.iter().filter(|r| r.vcs_per_port == 2).count();
        assert_eq!((big, small), (16, 48));
    }

    #[test]
    fn plus_bl_redistributes_links() {
        let cfg = mesh_config(&Layout::DiagonalBL);
        assert_eq!(cfg.flit_width, Bits(128));
        assert_eq!(packet_flits(&cfg), (8, 1));
        match &cfg.link_widths {
            LinkWidths::ByBigRouters { narrow, wide, big } => {
                assert_eq!(*narrow, Bits(128));
                assert_eq!(*wide, Bits(256));
                assert_eq!(big.iter().filter(|&&b| b).count(), 16);
            }
            other => panic!("expected ByBigRouters, got {other:?}"),
        }
        assert!(cfg.validate(&cfg.build_graph()).is_ok());
    }

    #[test]
    fn vc_conservation_across_all_layouts() {
        // Total VCs per port summed over routers is constant: 64*3 = 192.
        let baseline: usize = mesh_config(&Layout::Baseline)
            .routers
            .iter()
            .map(|r| r.vcs_per_port)
            .sum();
        for l in Layout::all_heterogeneous() {
            let total: usize = mesh_config(&l).routers.iter().map(|r| r.vcs_per_port).sum();
            assert_eq!(total, baseline, "{l}");
        }
    }

    #[test]
    fn all_seven_configs_build_networks() {
        for l in Layout::all_seven() {
            let cfg = mesh_config(&l);
            Network::new(cfg).unwrap_or_else(|e| panic!("{l}: {e}"));
        }
    }

    #[test]
    fn torus_configs_build() {
        for l in [Layout::Baseline, Layout::DiagonalBL] {
            let cfg = network_config(
                &l,
                TopologyKind::Torus {
                    width: 8,
                    height: 8,
                },
            );
            Network::new(cfg).unwrap_or_else(|e| panic!("{l}: {e}"));
        }
    }

    #[test]
    fn table_config_reserves_escape() {
        let cfg = mesh_config_with_table(&Layout::DiagonalBL, &[RouterId(0), RouterId(63)]);
        assert!(cfg.routing.reserves_escape_vc());
        Network::new(cfg).expect("valid table config");
    }
}
