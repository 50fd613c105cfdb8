//! The two structural passes: a configuration's own structure, and its
//! iso-resource budgets against a baseline.
//!
//! HeteroNoC's argument is *redistribution, not addition* (§2-§3): a
//! heterogeneous layout must hold the total VC budget and the bisection
//! bandwidth of the homogeneous baseline while moving buffers and link
//! width toward the big routers. These checks make that claim machine-
//! verified instead of implicit:
//!
//! * **Flit combining** (the structure pass) — at a big-to-small
//!   boundary the wide link must carry a whole number of narrow-link flits
//!   (§3.2), and lane counts the switch allocator cannot drive are flagged.
//! * **Table coverage** (the structure pass) — every table path must
//!   follow topology links and have a reverse-direction entry (§7 hub
//!   routing is bidirectional).
//! * **VC budget** ([`lint_budget`]) — `Σ vcs_per_port` must equal the
//!   baseline's (an error; a violating layout breaks the iso-resource
//!   comparison, and the other budgets are not checked).
//! * **Bisection bandwidth** ([`lint_budget`]) — the horizontal-cut width
//!   must not exceed the baseline's. Exceeding it is a warning rather than
//!   an error because the paper's own Row2_5+BL layout trades bisection
//!   for hop distance (all eight cut channels touch row 4's big routers);
//!   see `heteronoc::resources` and DESIGN.md.

use heteronoc_noc::config::{lanes, LinkWidths, NetworkConfig};
use heteronoc_noc::routing::RoutingKind;
use heteronoc_noc::topology::TopologyGraph;
use heteronoc_noc::types::LinkId;

use crate::diag::{Code, Diagnostic, Span};

/// Structural lint of a single configuration (no baseline needed): link
/// width compatibility (`HN-E007`, `HN-E008`, `HN-W001`) and route-table
/// coverage (`HN-E009`, `HN-E011`). Reports every finding, in the order
/// found; a table's findings follow `RouteTable::pairs()`, whose order is
/// unspecified.
pub(crate) fn structure_diagnostics(cfg: &NetworkConfig, graph: &TopologyGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    if let LinkWidths::ByBigRouters { narrow, wide, .. } = &cfg.link_widths {
        if wide.get() < narrow.get() {
            out.push(Diagnostic::new(
                Code::LinkWidthInversion,
                Span::Config,
                format!(
                    "big-router links ({}b) are narrower than small-router \
                     links ({}b)",
                    wide.get(),
                    narrow.get()
                ),
            ));
        } else if narrow.get() > 0 && wide.get() % narrow.get() != 0 {
            out.push(Diagnostic::new(
                Code::CombiningIncompatible,
                Span::Config,
                format!(
                    "wide links ({}b) are not a whole multiple of narrow \
                     links ({}b); flit combining cannot pack them",
                    wide.get(),
                    narrow.get()
                ),
            ));
        }
    }
    for (i, w) in cfg.link_widths.resolve(graph).iter().enumerate() {
        let l = lanes(*w, cfg.flit_width);
        if l > 2 {
            out.push(Diagnostic::new(
                Code::UnderusedLanes,
                Span::Link(LinkId(i)),
                format!(
                    "link carries {l} flit lanes but the allocator drives at \
                     most 2 per cycle"
                ),
            ));
        }
    }
    if let RoutingKind::TableXy(tbl) = &cfg.routing {
        for ((src, dst), path) in tbl.pairs() {
            for hop in path.windows(2) {
                if graph.port_towards(hop[0], hop[1]).is_none() {
                    out.push(Diagnostic::new(
                        Code::TablePathBrokenLink,
                        Span::Router(hop[0]),
                        format!(
                            "table path {src}->{dst} hops {}->{} which is \
                             not a topology link",
                            hop[0], hop[1]
                        ),
                    ));
                }
            }
            if tbl.path(dst, src).is_none() {
                out.push(Diagnostic::new(
                    Code::TableCoverageGap,
                    Span::Config,
                    format!(
                        "table routes {src}->{dst} but has no reverse \
                         {dst}->{src} entry (hub routing is bidirectional)"
                    ),
                ));
            }
        }
    }
    out
}

/// Iso-resource lint of `cfg` against `baseline` (both on `graph`):
/// VC-budget conservation (`HN-E006`), then the bisection (`HN-W002`) and
/// buffer-bit (`HN-W003`) budgets. A VC-budget mismatch is the only
/// finding: the other two budgets assume the same VC count.
pub fn lint_budget(
    cfg: &NetworkConfig,
    graph: &TopologyGraph,
    baseline: &NetworkConfig,
) -> Vec<Diagnostic> {
    let total: usize = cfg.routers.iter().map(|r| r.vcs_per_port).sum();
    let budget: usize = baseline.routers.iter().map(|r| r.vcs_per_port).sum();
    if total != budget {
        return vec![Diagnostic::new(
            Code::VcBudgetMismatch,
            Span::Config,
            format!("total VC budget {total} differs from the baseline budget {budget}"),
        )];
    }

    let mut out = Vec::new();
    let bisection = cfg.bisection_bits(graph);
    let bisection_budget = baseline.bisection_bits(graph);
    if bisection > bisection_budget {
        out.push(Diagnostic::new(
            Code::BisectionExceedsBudget,
            Span::Config,
            format!("bisection {bisection}b exceeds the baseline budget {bisection_budget}b"),
        ));
    }

    // Table 1 counts buffer storage per *port*, independent of the port
    // count (our meshes depopulate edge ports, so graph-level totals shift
    // with where the big routers land). The conserved quantity is
    // Σ vcs · depth · flit_width.
    let buffers = per_port_buffer_bits(cfg);
    let buffer_budget = per_port_buffer_bits(baseline);
    if buffers > buffer_budget {
        out.push(Diagnostic::new(
            Code::BufferBitsExceedBudget,
            Span::Config,
            format!("buffer storage {buffers}b exceeds the baseline budget {buffer_budget}b"),
        ));
    }
    out
}

/// Per-port buffer storage `Σ vcs · depth · flit_width` over all routers —
/// the quantity Table 1 conserves across layouts.
fn per_port_buffer_bits(cfg: &NetworkConfig) -> u64 {
    cfg.routers
        .iter()
        .map(|r| (r.vcs_per_port * r.buffer_depth) as u64 * u64::from(cfg.flit_width.get()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc_noc::config::{NetworkConfigBuilder, RouterCfg};
    use heteronoc_noc::routing::RouteTable;
    use heteronoc_noc::types::{Bits, RouterId};

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn homogeneous_mesh_lints_clean() {
        let cfg = NetworkConfig::paper_baseline();
        let g = cfg.build_graph();
        assert!(structure_diagnostics(&cfg, &g).is_empty());
        assert!(lint_budget(&cfg, &g, &cfg).is_empty());
    }

    #[test]
    fn vc_budget_violation_is_rejected() {
        let baseline = NetworkConfig::paper_baseline();
        // One extra VC on one router: 193 != 192. Its extra buffers would
        // also exceed the buffer budget, but the mismatch is reported alone.
        let cfg = NetworkConfigBuilder::mesh(8, 8)
            .router(
                0,
                RouterCfg {
                    vcs_per_port: 4,
                    buffer_depth: 5,
                },
            )
            .build()
            .expect("valid config");
        let g = cfg.build_graph();
        assert_eq!(
            lint_budget(&cfg, &g, &baseline),
            vec![Diagnostic::new(
                Code::VcBudgetMismatch,
                Span::Config,
                "total VC budget 193 differs from the baseline budget 192"
            )]
        );
    }

    #[test]
    fn width_inversion_and_bad_combining_are_rejected() {
        let mut cfg = NetworkConfig::paper_baseline();
        cfg.flit_width = Bits(64);
        cfg.link_widths = LinkWidths::ByBigRouters {
            big: vec![false; 64],
            narrow: Bits(256),
            wide: Bits(128),
        };
        let g = cfg.build_graph();
        let diags = structure_diagnostics(&cfg, &g);
        assert_eq!(diags[0].code, Code::LinkWidthInversion);
        // The 256b narrow links carry four 64b lanes each.
        assert!(diags[1..].iter().all(|d| d.code == Code::UnderusedLanes));
        cfg.link_widths = LinkWidths::ByBigRouters {
            big: vec![false; 64],
            narrow: Bits(128),
            wide: Bits(192),
        };
        assert_eq!(
            codes(&structure_diagnostics(&cfg, &g)),
            [Code::CombiningIncompatible]
        );
    }

    #[test]
    fn one_way_table_is_a_coverage_gap() {
        let mut tbl = RouteTable::new();
        tbl.insert(
            RouterId(0),
            RouterId(2),
            vec![RouterId(0), RouterId(1), RouterId(2)],
        );
        let cfg = NetworkConfigBuilder::mesh(8, 8)
            .routing(RoutingKind::TableXy(tbl))
            .build()
            .expect("valid config");
        let g = cfg.build_graph();
        let diags = structure_diagnostics(&cfg, &g);
        assert_eq!(codes(&diags), [Code::TableCoverageGap]);
        assert!(diags[0].message.contains("r0->r2"), "{}", diags[0]);
    }

    #[test]
    fn off_topology_table_path_is_rejected() {
        let mut tbl = RouteTable::new();
        // 0 -> 9 is a diagonal step on the 8x8 mesh: not a link.
        tbl.insert(RouterId(0), RouterId(9), vec![RouterId(0), RouterId(9)]);
        tbl.insert(RouterId(9), RouterId(0), vec![RouterId(9), RouterId(0)]);
        let cfg = NetworkConfigBuilder::mesh(8, 8)
            .routing(RoutingKind::TableXy(tbl))
            .build()
            .expect("valid config");
        let g = cfg.build_graph();
        // Both directions are broken, each anchored at its first router;
        // `pairs()` iteration order is unspecified, so sort the spans.
        let diags = structure_diagnostics(&cfg, &g);
        assert!(diags.iter().all(|d| d.code == Code::TablePathBrokenLink));
        let mut spans: Vec<Span> = diags.iter().map(|d| d.span).collect();
        spans.sort_by_key(|s| format!("{s}"));
        assert_eq!(
            spans,
            [Span::Router(RouterId(0)), Span::Router(RouterId(9))]
        );
    }
}
