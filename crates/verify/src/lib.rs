//! Static deadlock and invariant analysis for HeteroNoC configurations.
//!
//! This crate proves, at configuration time, the two properties the whole
//! reproduction rests on:
//!
//! 1. **Deadlock freedom** — the VC-level channel-dependency graph of every
//!    `(topology, routing, VC-count)` combination is acyclic once dateline
//!    classes and escape-VC relief are modelled ([`cdg`]). Failures name
//!    the offending cycle channel by channel.
//! 2. **Iso-resource redistribution** — heterogeneous layouts conserve the
//!    VC budget and respect the bisection/buffer budgets of the homogeneous
//!    baseline ([`lint`]).
//!
//! Every finding is a [`Diagnostic`]: a registry-stable [`Code`], the
//! [`Span`] it anchors to and a message naming the concrete artifact.
//!
//! Entry points: [`lint_config`] runs every analysis over one
//! configuration and reports all findings; `heteronoc lint`, the sweep
//! gate and CI run it over every shipped configuration, and
//! [`LintOptions::baseline`] adds the iso-resource lint against the
//! Fig. 3 baseline. [`verify_config`] runs the same validation, structure
//! and deadlock passes and returns the first error, for callers that only
//! need a configuration proven before they simulate it.
//!
//! The complementary *runtime* invariant checker (flit conservation, credit
//! bounds, per-VC FIFO order) lives in `heteronoc-noc` behind its `verify`
//! cargo feature; see DESIGN.md's "Verification layer".

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cdg;
pub mod credit;
pub mod degraded;
pub mod diag;
pub mod engine;
pub mod faultplan;
pub mod lint;
pub mod protocol;
pub mod starvation;

pub use cdg::{Cdg, EscapeModel};
pub use credit::{analyze_credit, credit_ceiling, CREDIT_RTT};
pub use degraded::{
    run_with_degradation, verify_degraded_routing, DegradedRunError, DegradedRunReport, Injection,
    PhaseStats, VerifiedDegradedRouting,
};
pub use diag::{Code, Diagnostic, Severity, Span};
pub use engine::{lint_config, verify_config, LintOptions, LintReport};
pub use faultplan::analyze_fault_plan;
pub use protocol::{analyze_protocol, ProtocolModel};
pub use starvation::{analyze_starvation, ArbiterModel};

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc::{mesh_config, mesh_config_with_table, Layout};
    use heteronoc_noc::config::{NetworkConfig, RouterCfg};
    use heteronoc_noc::topology::TopologyKind;
    use heteronoc_noc::types::{Bits, RouterId};

    /// The paper layouts lint against the Fig. 3 baseline with no errors;
    /// Row2_5+BL's documented bisection exceedance (HN-W002) is the only
    /// finding.
    #[test]
    fn all_seven_paper_layouts_verify() {
        let opts = LintOptions {
            baseline: Some(mesh_config(&Layout::Baseline)),
            ..LintOptions::default()
        };
        for layout in Layout::all_seven() {
            let report = lint_config(layout.name(), &mesh_config(&layout), &opts);
            let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
            let expected = if layout == Layout::Row25BL {
                vec![Code::BisectionExceedsBudget]
            } else {
                Vec::new()
            };
            assert_eq!(codes, expected, "{}", report.render_human());
        }
    }

    /// The §7 case study (Diagonal+BL, table routing through the corner
    /// hubs) lints clean, and its table dependencies are relieved by the
    /// escape VC.
    #[test]
    fn table_case_study_verifies_with_escape_relief() {
        let corners = [RouterId(0), RouterId(7), RouterId(56), RouterId(63)];
        let cfg = mesh_config_with_table(&Layout::DiagonalBL, &corners);
        let opts = LintOptions {
            baseline: Some(mesh_config(&Layout::Baseline)),
            ..LintOptions::default()
        };
        let report = lint_config("table", &cfg, &opts);
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
        verify_config("table", &cfg).unwrap();
        let graph = cfg.build_graph();
        let vcs: Vec<usize> = cfg.routers.iter().map(|r| r.vcs_per_port).collect();
        let cdg = Cdg::build(&graph, &cfg.routing, &vcs, EscapeModel::ReservedTop).unwrap();
        assert!(cdg.num_relieved() > 0, "table deps must be escape-relieved");
    }

    #[test]
    fn homogeneous_torus_verifies() {
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Torus {
                width: 8,
                height: 8,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        verify_config("torus-8x8", &cfg).unwrap();
    }

    #[test]
    fn concentrated_topologies_verify() {
        for kind in [
            TopologyKind::CMesh {
                width: 4,
                height: 4,
                concentration: 4,
            },
            TopologyKind::FlattenedButterfly {
                width: 4,
                height: 4,
                concentration: 4,
            },
        ] {
            let cfg = NetworkConfig::homogeneous(kind, RouterCfg::BASELINE, Bits(192), 2.2);
            verify_config("concentrated", &cfg).unwrap();
        }
    }

    #[test]
    fn invalid_config_is_rejected_before_analysis() {
        let mut cfg = NetworkConfig::paper_baseline();
        cfg.flit_width = Bits(0);
        let err = verify_config("broken", &cfg).unwrap_err();
        assert_eq!(err.code, Code::InvalidConfig, "{err}");
    }
}
