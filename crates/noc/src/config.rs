//! Network configuration: per-router buffer organization, per-link widths,
//! routing and clocking.
//!
//! The same simulator runs the homogeneous baseline and every HeteroNoC
//! layout — heterogeneity is purely configuration: each router gets its own
//! VC count and each link its own width.

use serde::{Deserialize, Serialize};

use crate::error::ConfigError;
use crate::router::arbiter::MAX_REQUESTERS;
use crate::routing::RoutingKind;
use crate::topology::{TopologyGraph, TopologyKind};
use crate::types::Bits;

/// Most ports one router may have: switch allocation keeps a `u64` mask of
/// input ports per output.
pub const MAX_ROUTER_PORTS: usize = 64;

/// Most input VCs (ports × VCs per port) one router may have: VC
/// allocation keeps a `u128` mask of flat input-VC indices per output.
pub const MAX_ROUTER_VCS: usize = MAX_REQUESTERS;

/// Buffer organization of one router.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RouterCfg {
    /// Virtual channels per physical channel (port).
    pub vcs_per_port: usize,
    /// FIFO depth of each VC, in flits.
    pub buffer_depth: usize,
}

impl RouterCfg {
    /// The paper's baseline router: 3 VCs/PC, 5-flit deep.
    pub const BASELINE: RouterCfg = RouterCfg {
        vcs_per_port: 3,
        buffer_depth: 5,
    };
    /// The paper's small router: 2 VCs/PC, 5-flit deep.
    pub const SMALL: RouterCfg = RouterCfg {
        vcs_per_port: 2,
        buffer_depth: 5,
    };
    /// The paper's big router: 6 VCs/PC, 5-flit deep.
    pub const BIG: RouterCfg = RouterCfg {
        vcs_per_port: 6,
        buffer_depth: 5,
    };
}

/// How link widths are assigned.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum LinkWidths {
    /// Every link has the same width (homogeneous networks and the
    /// buffer-only `+B` HeteroNoC layouts).
    Uniform(Bits),
    /// A link incident to at least one *big* router is `wide`; all other
    /// links are `narrow` (the `+BL` layouts: "a 256b link exists between a
    /// small router and a big router, and between two big routers", §3.2).
    ByBigRouters {
        /// `big[r]` marks router `r` as big.
        big: Vec<bool>,
        /// Width of small-to-small links.
        narrow: Bits,
        /// Width of links touching a big router.
        wide: Bits,
    },
    /// Fully explicit per-link widths (indexed by `LinkId`).
    Explicit(Vec<Bits>),
}

impl LinkWidths {
    /// Resolves to one width per link of `graph`.
    ///
    /// # Panics
    /// Panics if an explicit or by-class vector length does not match the
    /// graph (use [`NetworkConfig::validate`] for a `Result`-returning
    /// check first).
    pub fn resolve(&self, graph: &TopologyGraph) -> Vec<Bits> {
        match self {
            LinkWidths::Uniform(w) => vec![*w; graph.num_links()],
            LinkWidths::ByBigRouters { big, narrow, wide } => {
                assert_eq!(big.len(), graph.num_routers(), "big-router mask length");
                graph
                    .links()
                    .iter()
                    .map(|l| {
                        if big[l.src.index()] || big[l.dst.index()] {
                            *wide
                        } else {
                            *narrow
                        }
                    })
                    .collect()
            }
            LinkWidths::Explicit(v) => {
                assert_eq!(v.len(), graph.num_links(), "explicit width vector length");
                v.clone()
            }
        }
    }
}

/// Complete description of a network to simulate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Topology family and size.
    pub topology: TopologyKind,
    /// Global flit width (192b baseline, 128b in the `+BL` layouts).
    pub flit_width: Bits,
    /// Per-router buffer organization (one entry per router).
    pub routers: Vec<RouterCfg>,
    /// Link width assignment.
    pub link_widths: LinkWidths,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// Router clock in GHz (2.20 homogeneous, 2.07 HeteroNoC worst case).
    pub frequency_ghz: f64,
    /// Cycles a blocked expedited head flit waits before requesting the
    /// escape VC (only meaningful with [`RoutingKind::TableXy`]).
    pub escape_timeout: u32,
}

impl NetworkConfig {
    /// A homogeneous network: every router identical, every link `width`
    /// bits wide (which is also the flit width), dimension-order routed.
    ///
    /// # Examples
    /// ```
    /// use heteronoc_noc::config::{NetworkConfig, RouterCfg};
    /// use heteronoc_noc::topology::TopologyKind;
    /// use heteronoc_noc::types::Bits;
    /// let cfg = NetworkConfig::homogeneous(
    ///     TopologyKind::Mesh { width: 8, height: 8 },
    ///     RouterCfg::BASELINE,
    ///     Bits(192),
    ///     2.2,
    /// );
    /// assert!(cfg.validate(&cfg.topology.build()).is_ok());
    /// ```
    pub fn homogeneous(
        topology: TopologyKind,
        router: RouterCfg,
        width: Bits,
        frequency_ghz: f64,
    ) -> Self {
        let n = match topology {
            TopologyKind::Mesh { width, height } | TopologyKind::Torus { width, height } => {
                width * height
            }
            TopologyKind::CMesh { width, height, .. }
            | TopologyKind::FlattenedButterfly { width, height, .. } => width * height,
        };
        Self {
            topology,
            flit_width: width,
            routers: vec![router; n],
            link_widths: LinkWidths::Uniform(width),
            routing: RoutingKind::DimensionOrder,
            frequency_ghz,
            escape_timeout: 16,
        }
    }

    /// The paper's baseline: 8x8 mesh, 3 VCs/PC, 5-flit buffers, 192b
    /// flits/links, 2.2 GHz.
    pub fn paper_baseline() -> Self {
        Self::homogeneous(
            TopologyKind::Mesh {
                width: 8,
                height: 8,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        )
    }

    /// Validates the configuration against the elaborated `graph`.
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] found: count mismatches, zero
    /// widths/depths/VCs, non-multiple link widths, too few VCs for the
    /// dateline/escape classes the routing needs, or a router wider than
    /// the allocators' masks ([`MAX_ROUTER_PORTS`], [`MAX_ROUTER_VCS`]).
    pub fn validate(&self, graph: &TopologyGraph) -> Result<(), ConfigError> {
        if self.routers.len() != graph.num_routers() {
            return Err(ConfigError::RouterCountMismatch {
                expected: graph.num_routers(),
                got: self.routers.len(),
            });
        }
        if self.flit_width.get() == 0 {
            return Err(ConfigError::ZeroFlitWidth);
        }
        if !(self.frequency_ghz.is_finite() && self.frequency_ghz > 0.0) {
            return Err(ConfigError::BadFrequency {
                ghz: self.frequency_ghz,
            });
        }
        for (i, rc) in self.routers.iter().enumerate() {
            if rc.vcs_per_port == 0 {
                return Err(ConfigError::ZeroVcs { router: i });
            }
            if rc.buffer_depth == 0 {
                return Err(ConfigError::ZeroBufferDepth { router: i });
            }
            let ports = graph.routers()[i].ports.len();
            if ports > MAX_ROUTER_PORTS {
                return Err(ConfigError::TooManyPorts {
                    router: i,
                    ports,
                    max: MAX_ROUTER_PORTS,
                });
            }
            if ports * rc.vcs_per_port > MAX_ROUTER_VCS {
                return Err(ConfigError::TooManyInputVcs {
                    router: i,
                    vcs: ports * rc.vcs_per_port,
                    max: MAX_ROUTER_VCS,
                });
            }
            if matches!(self.topology, TopologyKind::Torus { .. }) && rc.vcs_per_port < 2 {
                return Err(ConfigError::TorusNeedsTwoVcs { router: i });
            }
            if self.routing.reserves_escape_vc() && rc.vcs_per_port < 2 {
                return Err(ConfigError::TableNeedsEscapeVc { router: i });
            }
        }
        match &self.link_widths {
            LinkWidths::ByBigRouters { big, .. } if big.len() != graph.num_routers() => {
                return Err(ConfigError::RouterCountMismatch {
                    expected: graph.num_routers(),
                    got: big.len(),
                });
            }
            LinkWidths::Explicit(v) if v.len() != graph.num_links() => {
                return Err(ConfigError::BadLinkWidth {
                    link: v.len().min(graph.num_links()),
                    width: 0,
                    flit_width: self.flit_width.get(),
                });
            }
            _ => {}
        }
        for (i, w) in self.link_widths.resolve(graph).iter().enumerate() {
            if w.get() == 0 || w.get() % self.flit_width.get() != 0 {
                return Err(ConfigError::BadLinkWidth {
                    link: i,
                    width: w.get(),
                    flit_width: self.flit_width.get(),
                });
            }
        }
        Ok(())
    }

    /// Builds the topology graph for this configuration.
    pub fn build_graph(&self) -> TopologyGraph {
        self.topology.build()
    }

    /// Total buffer storage across the network in bits
    /// (`Σ ports · VCs · depth · flit_width`), the quantity Table 1 accounts.
    pub fn total_buffer_bits(&self, graph: &TopologyGraph) -> u64 {
        graph
            .routers()
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let rc = &self.routers[i];
                (r.ports.len() * rc.vcs_per_port * rc.buffer_depth) as u64
                    * u64::from(self.flit_width.get())
            })
            .sum()
    }

    /// Sum of link-port widths crossing the horizontal bisection of a grid
    /// network in one direction (the paper's bisection-bandwidth audit).
    pub fn bisection_bits(&self, graph: &TopologyGraph) -> u64 {
        let (_, h) = graph.grid_dims();
        let cut = h / 2;
        let widths = self.link_widths.resolve(graph);
        graph
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                let a = graph.coord(l.src);
                let b = graph.coord(l.dst);
                // Count each physical channel once (directed src->dst with
                // src above the cut), ignoring wrap links' long way round.
                a.y < cut && b.y >= cut
            })
            .map(|(i, _)| u64::from(widths[i].get()))
            .sum()
    }

    /// Convenience: VC count of router `r`.
    pub fn vcs(&self, r: usize) -> usize {
        self.routers[r].vcs_per_port
    }

    /// Width of router `r`'s local (injection/ejection) port: uniform
    /// networks use the uniform width, `ByBigRouters` networks give big
    /// routers the wide PE port of Fig. 4(e), and `Explicit` networks fall
    /// back to one flit lane.
    pub fn local_width(&self, r: usize) -> Bits {
        match &self.link_widths {
            LinkWidths::Uniform(w) => *w,
            LinkWidths::ByBigRouters { big, narrow, wide } => {
                if big[r] {
                    *wide
                } else {
                    *narrow
                }
            }
            LinkWidths::Explicit(_) => self.flit_width,
        }
    }
}

/// Incremental builder for [`NetworkConfig`] (useful when a configuration
/// deviates from a homogeneous template in a few places).
///
/// # Examples
/// ```
/// use heteronoc_noc::config::{NetworkConfigBuilder, RouterCfg};
/// use heteronoc_noc::topology::TopologyKind;
/// use heteronoc_noc::types::Bits;
///
/// let cfg = NetworkConfigBuilder::mesh(8, 8)
///     .router_default(RouterCfg::SMALL)
///     .router(27, RouterCfg::BIG)
///     .flit_width(Bits(128))
///     .frequency_ghz(2.07)
///     .build()
///     .expect("a valid configuration");
/// assert_eq!(cfg.routers[27].vcs_per_port, 6);
/// ```
#[derive(Clone, Debug)]
pub struct NetworkConfigBuilder {
    cfg: NetworkConfig,
    /// Per-router overrides, applied (and range-checked) at `build()` so
    /// the chained setters never panic — errors surface once, typed, at
    /// the end of the chain like every other configuration problem.
    overrides: Vec<(usize, RouterCfg)>,
}

impl NetworkConfigBuilder {
    /// Starts from a homogeneous baseline-router mesh.
    pub fn mesh(width: usize, height: usize) -> Self {
        Self {
            cfg: NetworkConfig::homogeneous(
                TopologyKind::Mesh { width, height },
                RouterCfg::BASELINE,
                Bits(192),
                2.2,
            ),
            overrides: Vec::new(),
        }
    }

    /// Starts from an arbitrary topology with baseline routers.
    pub fn topology(kind: TopologyKind) -> Self {
        Self {
            cfg: NetworkConfig::homogeneous(kind, RouterCfg::BASELINE, Bits(192), 2.2),
            overrides: Vec::new(),
        }
    }

    /// Sets every router's buffer organization.
    pub fn router_default(mut self, rc: RouterCfg) -> Self {
        for r in &mut self.cfg.routers {
            *r = rc;
        }
        self
    }

    /// Overrides one router's buffer organization. An out-of-range
    /// `index` is reported by [`NetworkConfigBuilder::build`] as
    /// [`ConfigError::RouterIndexOutOfRange`] — the setter itself never
    /// panics.
    pub fn router(mut self, index: usize, rc: RouterCfg) -> Self {
        self.overrides.push((index, rc));
        self
    }

    /// Sets the global flit width.
    pub fn flit_width(mut self, w: Bits) -> Self {
        self.cfg.flit_width = w;
        self
    }

    /// Sets the link-width assignment.
    pub fn link_widths(mut self, lw: LinkWidths) -> Self {
        self.cfg.link_widths = lw;
        self
    }

    /// Sets the routing algorithm.
    pub fn routing(mut self, routing: crate::routing::RoutingKind) -> Self {
        self.cfg.routing = routing;
        self
    }

    /// Sets the network clock in GHz.
    pub fn frequency_ghz(mut self, f: f64) -> Self {
        self.cfg.frequency_ghz = f;
        self
    }

    /// Finishes the build, validating the assembled configuration against
    /// its elaborated topology so invalid configurations fail here — before
    /// a [`crate::network::Network`] is constructed or a sweep point is
    /// scheduled onto a worker — rather than deep inside `Network::new`.
    /// When the flit width changed but the link widths are still the
    /// uniform default, the links follow the flit width.
    ///
    /// # Errors
    /// The first [`ConfigError`] found by [`NetworkConfig::validate`].
    pub fn build(mut self) -> Result<NetworkConfig, ConfigError> {
        for (index, rc) in self.overrides.drain(..) {
            match self.cfg.routers.get_mut(index) {
                Some(slot) => *slot = rc,
                None => {
                    return Err(ConfigError::RouterIndexOutOfRange {
                        router: index,
                        routers: self.cfg.routers.len(),
                    })
                }
            }
        }
        if let LinkWidths::Uniform(w) = self.cfg.link_widths {
            if w != self.cfg.flit_width && w == Bits(192) {
                self.cfg.link_widths = LinkWidths::Uniform(self.cfg.flit_width);
            }
        }
        self.cfg.validate(&self.cfg.build_graph())?;
        Ok(self.cfg)
    }
}

/// Number of flit lanes a link provides (`width / flit_width`): a 256b link
/// carries two 128b flits per cycle (§3.2 flit combining).
pub fn lanes(link_width: Bits, flit_width: Bits) -> usize {
    debug_assert_eq!(link_width.get() % flit_width.get(), 0);
    (link_width.get() / flit_width.get()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RouterId;

    #[test]
    fn baseline_validates() {
        let cfg = NetworkConfig::paper_baseline();
        let g = cfg.build_graph();
        assert!(cfg.validate(&g).is_ok());
        // Table 1: 64 routers * 3 VCs * 5 ports * 5 depth * 192b = 921,600.
        // Our meshes depopulate edge ports, so the *interior* routers match
        // the paper's 5-port accounting; verify the 5-port formula directly.
        let r = RouterCfg::BASELINE;
        assert_eq!(64 * r.vcs_per_port * 5 * r.buffer_depth * 192, 921_600);
    }

    #[test]
    fn bisection_baseline_is_eight_links() {
        let cfg = NetworkConfig::paper_baseline();
        let g = cfg.build_graph();
        assert_eq!(cfg.bisection_bits(&g), 8 * 192);
    }

    #[test]
    fn validate_rejects_bad_link_width() {
        let mut cfg = NetworkConfig::paper_baseline();
        cfg.link_widths = LinkWidths::Uniform(Bits(100));
        let g = cfg.build_graph();
        assert!(matches!(
            cfg.validate(&g),
            Err(ConfigError::BadLinkWidth { .. })
        ));
    }

    #[test]
    fn validate_rejects_routers_wider_than_the_allocator_masks() {
        // 64 routers in a row: 63 row links + 2 local ports = 65 ports.
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::FlattenedButterfly {
                width: 64,
                height: 1,
                concentration: 2,
            },
            RouterCfg {
                vcs_per_port: 1,
                buffer_depth: 5,
            },
            Bits(192),
            2.2,
        );
        assert!(matches!(
            cfg.validate(&cfg.build_graph()),
            Err(ConfigError::TooManyPorts {
                ports: 65,
                max: 64,
                ..
            })
        ));

        // An interior mesh router has 5 ports; 5 × 26 = 130 input VCs.
        let mut cfg = NetworkConfig::paper_baseline();
        cfg.routers[9].vcs_per_port = 26;
        let err = cfg.validate(&cfg.build_graph()).unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyInputVcs {
                router: 9,
                vcs: 130,
                max: 128,
            }
        );
        assert!(err.to_string().contains("130 input VCs"));

        // Exactly at the limit is fine: 4 × 32 on a corner router.
        let mut cfg = NetworkConfig::paper_baseline();
        cfg.routers[0].vcs_per_port = 32;
        assert!(cfg.validate(&cfg.build_graph()).is_ok());
    }

    #[test]
    fn validate_rejects_count_mismatch() {
        let mut cfg = NetworkConfig::paper_baseline();
        cfg.routers.pop();
        let g = cfg.build_graph();
        assert!(matches!(
            cfg.validate(&g),
            Err(ConfigError::RouterCountMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_torus_single_vc() {
        let mut cfg = NetworkConfig::homogeneous(
            TopologyKind::Torus {
                width: 4,
                height: 4,
            },
            RouterCfg {
                vcs_per_port: 1,
                buffer_depth: 5,
            },
            Bits(192),
            2.2,
        );
        cfg.flit_width = Bits(192);
        let g = cfg.build_graph();
        assert!(matches!(
            cfg.validate(&g),
            Err(ConfigError::TorusNeedsTwoVcs { .. })
        ));
    }

    #[test]
    fn by_big_routers_widens_incident_links() {
        let cfg = NetworkConfig::paper_baseline();
        let g = cfg.build_graph();
        let mut big = vec![false; 64];
        big[0] = true; // router (0,0)
        let lw = LinkWidths::ByBigRouters {
            big,
            narrow: Bits(128),
            wide: Bits(256),
        };
        let widths = lw.resolve(&g);
        for (i, l) in g.links().iter().enumerate() {
            let touches_big = l.src == RouterId(0) || l.dst == RouterId(0);
            assert_eq!(widths[i], if touches_big { Bits(256) } else { Bits(128) });
        }
    }

    #[test]
    fn builder_composes() {
        let cfg = NetworkConfigBuilder::mesh(4, 4)
            .router_default(RouterCfg::SMALL)
            .router(5, RouterCfg::BIG)
            .flit_width(Bits(128))
            .frequency_ghz(2.07)
            .build()
            .expect("valid");
        assert_eq!(cfg.routers[5].vcs_per_port, 6);
        assert_eq!(cfg.routers[0].vcs_per_port, 2);
        // Uniform default links followed the flit width.
        assert!(matches!(cfg.link_widths, LinkWidths::Uniform(Bits(128))));
        assert!(cfg.validate(&cfg.build_graph()).is_ok());
    }

    #[test]
    fn builder_defers_out_of_range_override_to_build() {
        // The setter itself must not panic; the error surfaces typed at
        // the end of the chain.
        let err = NetworkConfigBuilder::mesh(4, 4)
            .router(16, RouterCfg::BIG)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::RouterIndexOutOfRange {
                router: 16,
                routers: 16
            }
        );
    }

    #[test]
    fn builder_respects_explicit_links() {
        let cfg = NetworkConfigBuilder::topology(TopologyKind::Torus {
            width: 4,
            height: 4,
        })
        .flit_width(Bits(128))
        .link_widths(LinkWidths::Uniform(Bits(256)))
        .build()
        .expect("valid");
        assert!(matches!(cfg.link_widths, LinkWidths::Uniform(Bits(256))));
        assert!(cfg.validate(&cfg.build_graph()).is_ok());
    }

    #[test]
    fn builder_rejects_invalid_configuration_at_build_time() {
        // A torus with single-VC routers is rejected by build(), not
        // deferred to Network::new.
        let err = NetworkConfigBuilder::topology(TopologyKind::Torus {
            width: 4,
            height: 4,
        })
        .router_default(RouterCfg {
            vcs_per_port: 1,
            buffer_depth: 5,
        })
        .build()
        .unwrap_err();
        assert!(matches!(err, ConfigError::TorusNeedsTwoVcs { .. }));
    }

    #[test]
    fn lanes_computation() {
        assert_eq!(lanes(Bits(256), Bits(128)), 2);
        assert_eq!(lanes(Bits(128), Bits(128)), 1);
        assert_eq!(lanes(Bits(192), Bits(192)), 1);
    }

    #[test]
    fn total_buffer_bits_counts_depopulated_ports() {
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 2,
                height: 1,
            },
            RouterCfg {
                vcs_per_port: 2,
                buffer_depth: 3,
            },
            Bits(64),
            1.0,
        );
        let g = cfg.build_graph();
        // Each router: local + 1 neighbour = 2 ports; 2 VCs * 3 deep * 64b.
        assert_eq!(cfg.total_buffer_bits(&g), 2 * (2 * 2 * 3 * 64));
    }
}
