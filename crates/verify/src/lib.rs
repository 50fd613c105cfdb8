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
//! Entry points: [`lint_config`] runs every analysis over one
//! configuration and reports all findings; `heteronoc lint`, the sweep
//! gate and CI run it over every shipped configuration, and
//! [`LintOptions::baseline`] adds the iso-resource lint against the
//! Fig. 3 baseline. [`verify_config`] is the first-error form of the
//! structure and deadlock checks, which the benchmark's set-up calls.
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
pub mod error;
pub mod faultplan;
pub mod lint;
pub mod protocol;
pub mod starvation;

use heteronoc_noc::config::NetworkConfig;

pub use cdg::{Cdg, EscapeModel};
pub use credit::{analyze_credit, credit_ceiling, CREDIT_RTT};
pub use degraded::{
    run_with_degradation, verify_degraded_routing, DegradedRunError, DegradedRunReport, Injection,
    PhaseStats, VerifiedDegradedRouting,
};
pub use diag::{Code, Diagnostic, Severity, Span};
pub use engine::{lint_config, LintOptions, LintReport};
pub use error::{CdgChannel, LintWarning, VerifyError};
pub use faultplan::analyze_fault_plan;
pub use protocol::{analyze_protocol, ProtocolModel};
pub use starvation::{analyze_starvation, ArbiterModel};

/// Summary of a successful verification.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Human-readable name of the verified configuration.
    pub name: String,
    /// VC-level channels in the dependency graph.
    pub channels: usize,
    /// Distinct channel dependencies.
    pub dependencies: usize,
    /// Dependencies relieved by escape diversion (table routing only).
    pub relieved: usize,
    /// Σ VCs per port over all routers.
    pub total_vcs: usize,
    /// Horizontal-cut bisection width in bits.
    pub bisection_bits: u64,
    /// Non-fatal findings (documented deviations, see [`LintWarning`]).
    pub warnings: Vec<LintWarning>,
}

/// Verifies one configuration: validity, structural lint and CDG
/// acyclicity (with escape relief when the routing reserves escape VCs).
///
/// # Errors
/// The first [`VerifyError`] found; deadlock cycles are named channel by
/// channel.
pub fn verify_config(name: &str, cfg: &NetworkConfig) -> Result<VerifyReport, VerifyError> {
    let graph = cfg.build_graph();
    cfg.validate(&graph)?;
    let warnings = lint::lint_structure(cfg, &graph)?;

    let vcs: Vec<usize> = cfg.routers.iter().map(|r| r.vcs_per_port).collect();
    let escape = if cfg.routing.reserves_escape_vc() {
        EscapeModel::ReservedTop
    } else {
        EscapeModel::None
    };
    let cdg = Cdg::build(&graph, &cfg.routing, &vcs, escape)?;
    cdg.check_acyclic()?;

    Ok(VerifyReport {
        name: name.to_owned(),
        channels: cdg.num_channels(),
        dependencies: cdg.num_dependencies(),
        relieved: cdg.num_relieved(),
        total_vcs: vcs.iter().sum(),
        bisection_bits: cfg.bisection_bits(&graph),
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc::{mesh_config, mesh_config_with_table, Layout};
    use heteronoc_noc::config::RouterCfg;
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
        let report = verify_config("table", &cfg).unwrap();
        assert!(report.relieved > 0, "table deps must be escape-relieved");
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
        assert!(matches!(
            verify_config("broken", &cfg),
            Err(VerifyError::Config(_))
        ));
    }
}
