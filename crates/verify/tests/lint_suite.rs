//! Integration tests for the `heteronoc lint` diagnostic engine: every
//! shipped paper configuration must lint clean, and one seeded-broken
//! fixture per analysis must be caught with its stable code.

use heteronoc::noc::config::{NetworkConfig, RouterCfg};
use heteronoc::noc::fault::{FaultKind, FaultPlan, HardFault};
use heteronoc::noc::topology::{TopologyGraph, TopologyKind};
use heteronoc::noc::types::{Bits, LinkId, RouterId};
use heteronoc::{mesh_config, shipped_configs, Layout};
use heteronoc_verify::{
    analyze_protocol, analyze_starvation, lint_config, ArbiterModel, Code, Diagnostic, LintOptions,
    ProtocolModel, Severity,
};

fn codes(diags: &[Diagnostic]) -> Vec<Code> {
    diags.iter().map(|d| d.code).collect()
}

/// A model pass's findings on one paper layout.
fn analyze(
    layout: Layout,
    pass: impl Fn(&NetworkConfig, &TopologyGraph) -> Vec<Diagnostic>,
) -> Vec<Diagnostic> {
    let cfg = mesh_config(&layout);
    pass(&cfg, &cfg.build_graph())
}

#[test]
fn all_shipped_configurations_lint_clean() {
    let opts = LintOptions::default();
    for (name, cfg, _) in shipped_configs(&[0, 7, 56, 63].map(RouterId)) {
        let report = lint_config(&name, &cfg, &opts);
        assert!(
            report.diagnostics.is_empty(),
            "{name} should lint clean:\n{}",
            report.render_human()
        );
    }
}

#[test]
fn broken_fixture_protocol_cycle_is_caught() {
    // Seeding a Response -> Request blocking edge closes the class DAG
    // into a cycle no VC layout can break.
    let model = ProtocolModel::mesi_directory().with_edge(2, 0);
    let diags = analyze(Layout::Baseline, |cfg, g| analyze_protocol(cfg, g, &model));
    assert!(
        codes(&diags).contains(&Code::ProtocolCycle),
        "expected HN-E010: {diags:?}"
    );
}

#[test]
fn broken_fixture_blocking_endpoints_need_class_separation() {
    // With blocking endpoints the 2-VC small routers of Center+B cannot
    // give each of the three message classes its own VC slice.
    let model = ProtocolModel::mesi_directory().with_blocking_endpoints();
    let diags = analyze(Layout::CenterB, |cfg, g| analyze_protocol(cfg, g, &model));
    assert!(
        codes(&diags).contains(&Code::MissingClassSeparation),
        "expected HN-W004: {diags:?}"
    );
}

#[test]
fn broken_fixture_undersized_credit_loop_is_caught() {
    // 1 VC x 1 slot caps each channel at 0.25 flits/cycle over the 4-cycle
    // credit loop — far below the busiest mesh link's demand at 0.05
    // packets/node/cycle.
    let cfg = NetworkConfig::homogeneous(
        TopologyKind::Mesh {
            width: 8,
            height: 8,
        },
        RouterCfg {
            vcs_per_port: 1,
            buffer_depth: 1,
        },
        Bits(192),
        2.2,
    );
    let report = lint_config("broken-credit", &cfg, &LintOptions::default());
    let diags = codes(&report.diagnostics);
    assert!(
        diags.contains(&Code::CreditLimitedLink),
        "expected HN-W005:\n{}",
        report.render_human()
    );
    // Warning-severity: the sweep gate must not fail such points.
    assert!(!report.has_errors());
}

#[test]
fn broken_fixture_fixed_priority_arbiter_starves_an_input() {
    let diags = analyze(Layout::Baseline, |cfg, g| {
        analyze_starvation(cfg, g, ArbiterModel::FixedPriority)
    });
    assert!(
        codes(&diags).contains(&Code::StarvablePort),
        "expected HN-E012: {diags:?}"
    );
    // The shipped rotating arbiter proves the same network fair.
    let clean = lint_config(
        "fair-arbiter",
        &mesh_config(&Layout::Baseline),
        &LintOptions::default(),
    );
    assert!(clean.diagnostics.is_empty());
}

#[test]
fn broken_fixture_partitioning_fault_plan_is_caught() {
    // Links l0 (r0->r1) and l2 (r0->r8) are router 0's only physical
    // channels; killing both isolates its node.
    let plan = FaultPlan {
        hard: vec![
            HardFault {
                cycle: 100,
                kind: FaultKind::Link(LinkId(0)),
            },
            HardFault {
                cycle: 100,
                kind: FaultKind::Link(LinkId(2)),
            },
        ],
        ..FaultPlan::default()
    };
    let opts = LintOptions {
        fault_plan: Some(plan),
        ..LintOptions::default()
    };
    let report = lint_config("broken-plan", &mesh_config(&Layout::Baseline), &opts);
    let partition: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::FaultPartition)
        .collect();
    assert_eq!(
        partition.len(),
        1,
        "expected exactly one HN-E013:\n{}",
        report.render_human()
    );
    assert!(partition[0].message.contains("cycle 100"));
}

#[test]
fn partition_plan_fixture_file_matches_in_tree_copy() {
    // The CI lint-smoke job feeds this file to `heteronoc lint --plan`;
    // prove the shipped text still parses and still partitions the mesh.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/partition.plan"
    );
    let text = std::fs::read_to_string(path).expect("fixture file exists");
    let plan = FaultPlan::from_text(&text).expect("fixture parses");
    let opts = LintOptions {
        fault_plan: Some(plan),
        ..LintOptions::default()
    };
    let report = lint_config("fixture", &mesh_config(&Layout::Baseline), &opts);
    assert!(
        codes(&report.diagnostics).contains(&Code::FaultPartition),
        "fixture must trip HN-E013:\n{}",
        report.render_human()
    );
}

#[test]
fn diagnostics_are_deterministic_and_sorted() {
    let opts = LintOptions {
        fault_plan: Some(FaultPlan {
            hard: vec![
                HardFault {
                    cycle: 100,
                    kind: FaultKind::Link(LinkId(0)),
                },
                HardFault {
                    cycle: 100,
                    kind: FaultKind::Link(LinkId(2)),
                },
            ],
            ..FaultPlan::default()
        }),
        checkpoint_every: Some(250_000),
        watchdog: Some(100_000),
        ..LintOptions::default()
    };
    let cfg = mesh_config(&Layout::CenterBL);
    let a = lint_config("multi", &cfg, &opts);
    let b = lint_config("multi", &cfg, &opts);
    assert_eq!(a.to_json(), b.to_json(), "repeated runs must agree");
    // Errors strictly precede warnings.
    let sevs: Vec<Severity> = a.diagnostics.iter().map(|d| d.severity()).collect();
    assert!(
        sevs.contains(&Severity::Error) && sevs.contains(&Severity::Warning),
        "{}",
        a.render_human()
    );
    let mut sorted = sevs.clone();
    sorted.sort_by_key(|s| std::cmp::Reverse(*s));
    assert_eq!(sevs, sorted, "errors must sort before warnings");
    // No duplicate findings survive.
    let mut keys: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    let before = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), before, "diagnostics must be de-duplicated");
}

#[test]
fn code_registry_round_trips_and_is_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for c in Code::ALL {
        assert_eq!(Code::parse(c.as_str()), Some(c), "{}", c.as_str());
        assert_eq!(Code::parse(c.name()), Some(c), "{}", c.name());
        assert!(seen.insert(c.as_str()), "duplicate code {}", c.as_str());
        assert!(!c.summary().is_empty());
        assert!(!c.explanation().is_empty());
    }
    assert_eq!(Code::parse("HN-X999"), None);
}
