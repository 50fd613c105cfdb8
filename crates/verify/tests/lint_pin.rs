//! Pins the exact text of `lint_config`'s reports, human and JSON, so a
//! change to where a finding is built cannot change what it says.
//!
//! The fixture holds two sets: the shipped configurations as
//! `heteronoc lint --baseline` checks them (the budget lint on the paper's
//! mesh layouts only), and one seeded configuration per diagnostic whose
//! message the structure, budget and channel-dependency passes build. A
//! VC-budget mismatch ends the budget lint, so its configuration, which
//! would also exceed the bisection and buffer budgets, reports `HN-E006`
//! alone. `HN-E005` cannot be reached through `lint_config`: `validate`
//! rejects a table-routed router with one VC first, as `HN-E001`, so the
//! `cdg` unit tests check its message.

mod common;

use common::shipped_set;
use heteronoc::noc::config::{LinkWidths, NetworkConfig, RouterCfg};
use heteronoc::noc::routing::{RouteTable, RoutingKind};
use heteronoc::noc::topology::TopologyKind;
use heteronoc::noc::types::{Bits, RouterId};
use heteronoc::{mesh_config, Layout};
use heteronoc_verify::{lint_config, LintOptions};

const FIXTURE: &str = include_str!("fixtures/lint_pin.txt");

fn table(paths: &[&[usize]]) -> RouteTable {
    let mut tbl = RouteTable::new();
    for p in paths {
        let p: Vec<RouterId> = p.iter().map(|&r| RouterId(r)).collect();
        tbl.insert(p[0], p[p.len() - 1], p);
    }
    tbl
}

fn with_routing(mut cfg: NetworkConfig, routing: RoutingKind) -> NetworkConfig {
    cfg.routing = routing;
    cfg
}

fn with_widths(mut cfg: NetworkConfig, flit: u32, link_widths: LinkWidths) -> NetworkConfig {
    cfg.flit_width = Bits(flit);
    cfg.link_widths = link_widths;
    cfg
}

/// One configuration per diagnostic, and whether it is linted against the
/// Fig. 3 baseline.
fn seeded() -> Vec<(&'static str, NetworkConfig, bool)> {
    let baseline = NetworkConfig::paper_baseline();
    let mut zero_flit = baseline.clone();
    zero_flit.flit_width = Bits(0);
    let mut thin_table = with_routing(
        baseline.clone(),
        RoutingKind::TableXy(table(&[&[0, 1, 2], &[2, 1, 0]])),
    );
    thin_table.routers[5].vcs_per_port = 1;
    // The 2x2 mesh as a ring 0 -> 1 -> 3 -> 2 -> 0, every route clockwise.
    let ring = [0, 1, 3, 2];
    let clockwise: Vec<Vec<usize>> = (0..4)
        .flat_map(|i| (1..4).map(move |n| (0..=n).map(|k| ring[(i + k) % 4]).collect()))
        .collect();
    let clockwise: Vec<&[usize]> = clockwise.iter().map(Vec::as_slice).collect();
    let mesh2 = NetworkConfig::homogeneous(
        TopologyKind::Mesh {
            width: 2,
            height: 2,
        },
        RouterCfg::BASELINE,
        Bits(192),
        2.2,
    );
    let torus = NetworkConfig::homogeneous(
        TopologyKind::Torus {
            width: 4,
            height: 4,
        },
        RouterCfg::BASELINE,
        Bits(192),
        2.2,
    );
    // The single escape VC re-creates the ring cycle the datelines break.
    let torus_hub = RouteTable::for_hubs(&torus.build_graph(), &[RouterId(0)]);
    let mut over_budget = with_widths(baseline.clone(), 192, LinkWidths::Uniform(Bits(384)));
    over_budget.routers[0].vcs_per_port = 4;
    let mut deep = baseline.clone();
    for r in &mut deep.routers {
        r.buffer_depth = 6;
    }
    let one_big: Vec<bool> = (0..64).map(|r| r == 0).collect();
    vec![
        ("HN-E001 zero flit width", zero_flit, false),
        ("HN-E001 table with a 1-VC router", thin_table, false),
        (
            "HN-E002 clockwise ring table",
            with_routing(mesh2.clone(), RoutingKind::FullTable(table(&clockwise))),
            false,
        ),
        (
            "HN-E004 table that loops r0 -> r1 -> r0",
            with_routing(
                mesh2,
                RoutingKind::FullTable(table(&[&[0, 1, 3], &[1, 0, 2, 3]])),
            ),
            false,
        ),
        (
            "HN-E003 hub table on a torus",
            with_routing(torus, RoutingKind::TableXy(torus_hub)),
            false,
        ),
        ("HN-E006 VC budget 193 of 192", over_budget, true),
        (
            "HN-E007 wide links narrower",
            with_widths(
                baseline.clone(),
                64,
                LinkWidths::ByBigRouters {
                    big: vec![false; 64],
                    narrow: Bits(128),
                    wide: Bits(64),
                },
            ),
            false,
        ),
        (
            "HN-E008 192b over 128b",
            with_widths(
                baseline.clone(),
                64,
                LinkWidths::ByBigRouters {
                    big: vec![false; 64],
                    narrow: Bits(128),
                    wide: Bits(192),
                },
            ),
            false,
        ),
        (
            "HN-E009 diagonal table hop",
            with_routing(
                baseline.clone(),
                RoutingKind::TableXy(table(&[&[0, 9], &[9, 0]])),
            ),
            false,
        ),
        (
            "HN-E011 one-way table",
            with_routing(baseline.clone(), RoutingKind::TableXy(table(&[&[0, 1, 2]]))),
            false,
        ),
        (
            "HN-W001 three lanes at router 0",
            with_widths(
                baseline.clone(),
                64,
                LinkWidths::ByBigRouters {
                    big: one_big,
                    narrow: Bits(64),
                    wide: Bits(192),
                },
            ),
            false,
        ),
        (
            "HN-W002 384b links",
            with_widths(baseline.clone(), 192, LinkWidths::Uniform(Bits(384))),
            true,
        ),
        ("HN-W003 depth-6 buffers", deep, true),
    ]
}

/// Every report of the pin, rendered in order: human lines, then JSON.
fn render() -> String {
    let with_baseline = LintOptions {
        baseline: Some(mesh_config(&Layout::Baseline)),
        ..LintOptions::default()
    };
    let shipped = shipped_set().into_iter().map(|(name, cfg)| {
        let mesh = matches!(cfg.topology, TopologyKind::Mesh { .. });
        (name, cfg, mesh)
    });
    let seeded = seeded()
        .into_iter()
        .map(|(name, cfg, budget)| (name.to_owned(), cfg, budget));
    let mut out = String::new();
    for (name, cfg, budget) in shipped.chain(seeded) {
        let opts = if budget {
            with_baseline.clone()
        } else {
            LintOptions::default()
        };
        let report = lint_config(&name, &cfg, &opts);
        out.push_str(&report.render_human());
        out.push_str(&report.to_json());
        out.push_str("\n\n");
    }
    out
}

#[test]
fn lint_reports_match_the_pinned_fixture() {
    let actual = render();
    for (i, (want, got)) in FIXTURE.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {} differs", i + 1);
    }
    assert_eq!(actual.lines().count(), FIXTURE.lines().count());
}
