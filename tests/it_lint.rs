//! Property-based tests for the static-analysis suite: for arbitrary
//! router provisioning, layouts and fault plans the lint engine must be
//! deterministic, emit registry-stable codes and produce parseable JSON,
//! and `verify_config` must return the first error of its report.

use proptest::prelude::*;

use heteronoc::noc::config::{NetworkConfig, RouterCfg};
use heteronoc::noc::fault::{FaultKind, FaultPlan, HardFault};
use heteronoc::noc::topology::TopologyKind;
use heteronoc::noc::types::{Bits, LinkId, RouterId};
use heteronoc::{mesh_config, Layout};
use heteronoc_bench::json;
use heteronoc_verify::{lint_config, verify_config, Code, LintOptions};

/// A homogeneous 8x8 network with arbitrary (possibly degenerate) router
/// provisioning on a mesh or torus.
fn random_cfg(vcs: usize, depth: usize, torus: bool) -> NetworkConfig {
    let kind = if torus {
        TopologyKind::Torus {
            width: 8,
            height: 8,
        }
    } else {
        TopologyKind::Mesh {
            width: 8,
            height: 8,
        }
    };
    NetworkConfig::homogeneous(
        kind,
        RouterCfg {
            vcs_per_port: vcs,
            buffer_depth: depth,
        },
        Bits(192),
        2.2,
    )
}

/// Default options without the credit-sizing pass.
fn no_rates() -> LintOptions {
    LintOptions {
        rates: Vec::new(),
        ..LintOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine never panics on arbitrary provisioning, is
    /// deterministic, and every emitted code round-trips through the
    /// registry.
    #[test]
    fn lint_is_total_and_deterministic(
        vcs in 1usize..=6,
        depth in 1usize..=8,
        torus in any::<bool>(),
    ) {
        let cfg = random_cfg(vcs, depth, torus);
        let a = lint_config("p", &cfg, &LintOptions::default());
        let b = lint_config("p", &cfg, &LintOptions::default());
        prop_assert_eq!(a.to_json(), b.to_json());
        for d in &a.diagnostics {
            prop_assert_eq!(Code::parse(d.code.as_str()), Some(d.code));
            prop_assert_eq!(d.severity(), d.code.severity());
        }
    }

    /// `LintReport::to_json` is valid JSON with the documented shape.
    #[test]
    fn lint_json_round_trips(
        vcs in 1usize..=6,
        depth in 1usize..=8,
        layout_idx in 0usize..7,
    ) {
        // Mix paper layouts with degenerate homogeneous meshes so both
        // clean and diagnostic-bearing reports are parsed.
        let cfg = if depth % 2 == 0 {
            mesh_config(&Layout::all_seven()[layout_idx])
        } else {
            random_cfg(vcs, depth, false)
        };
        let report = lint_config("json \"case\"", &cfg, &LintOptions::default());
        let v = json::parse(&report.to_json()).expect("report JSON parses");
        prop_assert_eq!(
            v.get("name").and_then(|n| n.as_str()),
            Some("json \"case\"")
        );
        let diags = v.get("diagnostics").and_then(|d| d.as_arr()).expect("array");
        prop_assert_eq!(diags.len(), report.diagnostics.len());
        for (j, d) in diags.iter().zip(&report.diagnostics) {
            prop_assert_eq!(j.get("code").and_then(|c| c.as_str()), Some(d.code.as_str()));
            let sev = j.get("severity").and_then(|s| s.as_str()).expect("severity");
            prop_assert_eq!(sev, d.severity().to_string());
        }
    }

    /// `verify_config` runs `lint_config`'s validation, structure and CDG
    /// passes, and the other passes add no errors here, so it fails with
    /// exactly the report's first error, and passes when there is none.
    #[test]
    fn verify_config_returns_the_first_lint_error(
        vcs in 1usize..=6,
        depth in 1usize..=8,
        torus in any::<bool>(),
    ) {
        let cfg = random_cfg(vcs, depth, torus);
        let report = lint_config("p", &cfg, &no_rates());
        prop_assert_eq!(verify_config("p", &cfg).err(), report.errors().next().cloned());
    }

    /// Arbitrary in-range fault plans never panic the reachability pass,
    /// yield deterministic diagnostics, and a benign plan yields none.
    #[test]
    fn fault_plans_lint_deterministically(
        kills in prop::collection::vec((0usize..224, 0u64..1000, any::<bool>()), 0..6),
        layout_idx in 0usize..7,
    ) {
        let cfg = mesh_config(&Layout::all_seven()[layout_idx]);
        // The 8x8 mesh has 224 directed links and 64 routers.
        let hard: Vec<HardFault> = kills
            .iter()
            .map(|&(id, cycle, router)| HardFault {
                cycle,
                kind: if router {
                    FaultKind::Router(RouterId(id % 64))
                } else {
                    FaultKind::Link(LinkId(id))
                },
            })
            .collect();
        let opts = LintOptions {
            fault_plan: Some(FaultPlan {
                hard,
                ..FaultPlan::default()
            }),
            ..no_rates()
        };
        let a = lint_config("f", &cfg, &opts);
        let b = lint_config("f", &cfg, &opts);
        prop_assert_eq!(a.to_json(), b.to_json());
        for d in &a.diagnostics {
            prop_assert_eq!(Code::parse(d.code.as_str()), Some(d.code));
        }

        let benign = LintOptions {
            fault_plan: Some(FaultPlan::default()),
            ..no_rates()
        };
        let clean = lint_config("f", &cfg, &benign);
        prop_assert!(
            !clean.diagnostics.iter().any(|d| d.code == Code::FaultPartition),
            "benign plan must not partition"
        );
    }
}
