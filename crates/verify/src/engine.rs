//! The two entry points over one configuration, both built on the passes
//! of [`crate::lint`] and [`crate::cdg`].
//!
//! [`lint_config`] never fails: it runs as many passes as remain
//! meaningful and returns every [`Diagnostic`] it found in a
//! [`LintReport`], sorted (errors first, then code/span/message) and
//! de-duplicated, so two runs over the same configuration render
//! byte-identical output. Pass order:
//!
//! 1. `NetworkConfig::validate` — on failure, `HN-E001` and stop (nothing
//!    else is well-defined).
//! 2. Structure — width inversion/combining, underused lanes, table
//!    coverage.
//! 3. Budget (opt-in via [`LintOptions::baseline`]) — the iso-resource
//!    lint of [`crate::lint::lint_budget`].
//! 4. Proof passes, skipped when structure found errors (a broken table
//!    makes the walks meaningless): CDG acyclicity, protocol deadlock of
//!    the shipped MESI model, credit sizing, and starvation under the
//!    shipped rotating-priority allocator.
//! 5. Fault-plan reachability (opt-in via [`LintOptions::fault_plan`]).
//! 6. Crash safety (opt-in via [`LintOptions::checkpoint_every`] and
//!    [`LintOptions::watchdog`]).
//!
//! [`verify_config`] runs steps 1, 2 and the CDG proof, the passes a
//! configuration must pass before it is simulated, and returns the first
//! error the report would list.

use heteronoc_noc::config::NetworkConfig;
use heteronoc_noc::fault::FaultPlan;
use heteronoc_noc::topology::TopologyGraph;

use crate::cdg::{Cdg, EscapeModel};
use crate::credit::analyze_credit;
use crate::diag::{json_escape, Code, Diagnostic, Severity, Span};
use crate::faultplan::analyze_fault_plan;
use crate::lint::{lint_budget, structure_diagnostics};
use crate::protocol::{analyze_protocol, ProtocolModel};
use crate::starvation::{analyze_starvation, ArbiterModel};

/// What to lint a configuration against.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Iso-resource baseline for the budget lint (`None` skips it;
    /// `heteronoc lint --baseline` checks against Fig. 3's homogeneous
    /// mesh).
    pub baseline: Option<NetworkConfig>,
    /// Injection rates (packets/node/cycle) the credit-sizing pass checks
    /// against; empty skips the pass.
    pub rates: Vec<f64>,
    /// Fault plan for the reachability pass (`None` skips).
    pub fault_plan: Option<FaultPlan>,
    /// Checkpoint interval of the run being gated, in cycles (`None` means
    /// the run does not checkpoint and the crash-safety pass is skipped).
    pub checkpoint_every: Option<u64>,
    /// Progress-watchdog window of the run being gated, in retire-free
    /// cycles (`None` means the watchdog is disabled).
    pub watchdog: Option<u64>,
}

impl Default for LintOptions {
    /// The defaults the CLI and the sweep gate use: the sweeps' canonical
    /// pre-saturation rates, no baseline, no fault plan.
    fn default() -> LintOptions {
        LintOptions {
            baseline: None,
            rates: vec![0.01, 0.02, 0.03, 0.04, 0.05],
            fault_plan: None,
            checkpoint_every: None,
            watchdog: None,
        }
    }
}

/// All diagnostics of one configuration, deterministically ordered.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Human-readable name of the linted configuration.
    pub name: String,
    /// Sorted, de-duplicated findings (errors first).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    /// True when any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Renders the report as `rustc`-style lines (one per diagnostic,
    /// prefixed by the configuration name; clean reports render a single
    /// `ok` line).
    pub fn render_human(&self) -> String {
        if self.diagnostics.is_empty() {
            return format!("{}: ok\n", self.name);
        }
        let mut s = String::new();
        for d in &self.diagnostics {
            s.push_str(&format!("{}: {d}\n", self.name));
        }
        s
    }

    /// Renders the report as one JSON object:
    /// `{"name": ..., "diagnostics": [...]}`.
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!(
            "{{\"name\":\"{}\",\"diagnostics\":[{}]}}",
            json_escape(&self.name),
            diags.join(",")
        )
    }
}

/// `NetworkConfig::validate` as a finding: `HN-E001`.
fn validate(cfg: &NetworkConfig, graph: &TopologyGraph) -> Result<(), Diagnostic> {
    cfg.validate(graph)
        .map_err(|e| Diagnostic::new(Code::InvalidConfig, Span::Config, e.to_string()))
}

/// CDG acyclicity of `cfg`'s routing, with escape relief when the routing
/// reserves escape VCs.
fn prove_deadlock_free(cfg: &NetworkConfig, graph: &TopologyGraph) -> Result<(), Diagnostic> {
    let vcs: Vec<usize> = cfg.routers.iter().map(|r| r.vcs_per_port).collect();
    let escape = if cfg.routing.reserves_escape_vc() {
        EscapeModel::ReservedTop
    } else {
        EscapeModel::None
    };
    Cdg::build(graph, &cfg.routing, &vcs, escape)?.check_acyclic()
}

/// Verifies one configuration: validity, the structure pass and CDG
/// acyclicity. `name` is not used; callers label the error themselves.
///
/// # Errors
/// The first error-severity finding, as [`lint_config`]'s report would
/// list it: `HN-E001`, else the first structure error, else the CDG
/// proof's (a deadlock cycle is named channel by channel).
pub fn verify_config(_name: &str, cfg: &NetworkConfig) -> Result<(), Diagnostic> {
    let graph = cfg.build_graph();
    validate(cfg, &graph)?;
    let first_error = structure_diagnostics(cfg, &graph)
        .into_iter()
        .filter(|d| d.severity() == Severity::Error)
        .min_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    match first_error {
        Some(d) => Err(d),
        None => prove_deadlock_free(cfg, &graph),
    }
}

/// Lints one configuration with every applicable pass; never fails.
pub fn lint_config(name: &str, cfg: &NetworkConfig, opts: &LintOptions) -> LintReport {
    let graph = cfg.build_graph();
    if let Err(d) = validate(cfg, &graph) {
        return finish(name, vec![d]);
    }

    let mut diags = structure_diagnostics(cfg, &graph);
    if let Some(baseline) = &opts.baseline {
        diags.extend(lint_budget(cfg, &graph, baseline));
    }

    let structurally_sound = !diags.iter().any(|d| d.severity() == Severity::Error);
    if structurally_sound {
        // Proof passes; a broken table would make every walk meaningless.
        if let Err(d) = prove_deadlock_free(cfg, &graph) {
            diags.push(d);
        }
        diags.extend(analyze_protocol(
            cfg,
            &graph,
            &ProtocolModel::mesi_directory(),
        ));
        diags.extend(analyze_credit(cfg, &graph, &opts.rates));
        diags.extend(analyze_starvation(
            cfg,
            &graph,
            ArbiterModel::RotatingPriority,
        ));
    }
    if let Some(plan) = &opts.fault_plan {
        diags.extend(analyze_fault_plan(cfg, &graph, plan));
    }
    if let (Some(every), Some(window)) = (opts.checkpoint_every, opts.watchdog) {
        if every > window {
            diags.push(Diagnostic::new(
                Code::CheckpointExceedsWatchdog,
                Span::Config,
                format!(
                    "checkpoint interval ({every} cycles) exceeds the progress-watchdog \
                     window ({window} cycles); a watchdog abort can discard up to \
                     {every} cycles of work with no checkpoint to resume"
                ),
            ));
        }
    }
    finish(name, diags)
}

/// Sorts and de-duplicates into the final report. Several passes iterate
/// `RouteTable::pairs()` (unspecified order), so this is what makes the
/// output deterministic.
fn finish(name: &str, mut diags: Vec<Diagnostic>) -> LintReport {
    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    diags.dedup();
    LintReport {
        name: name.to_owned(),
        diagnostics: diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc_noc::types::Bits;

    #[test]
    fn baseline_lints_clean_with_defaults() {
        let cfg = NetworkConfig::paper_baseline();
        let report = lint_config("baseline", &cfg, &LintOptions::default());
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.render_human(), "baseline: ok\n");
        assert_eq!(
            report.to_json(),
            "{\"name\":\"baseline\",\"diagnostics\":[]}"
        );
    }

    #[test]
    fn invalid_config_short_circuits_to_e001() {
        let mut cfg = NetworkConfig::paper_baseline();
        cfg.flit_width = Bits(0);
        let report = lint_config("broken", &cfg, &LintOptions::default());
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, Code::InvalidConfig);
        assert!(report.has_errors());
    }

    #[test]
    fn checkpoint_interval_past_the_watchdog_is_w008() {
        let cfg = NetworkConfig::paper_baseline();
        let mut opts = LintOptions {
            checkpoint_every: Some(250_000),
            watchdog: Some(100_000),
            ..LintOptions::default()
        };
        let report = lint_config("slow-ckpt", &cfg, &opts);
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, Code::CheckpointExceedsWatchdog);
        assert_eq!(d.code.as_str(), "HN-W008");
        assert_eq!(d.severity(), Severity::Warning);
        assert!(d.message.contains("250000"), "{}", d.message);

        // Interval within the window (or either side unset): clean.
        opts.checkpoint_every = Some(50_000);
        assert!(lint_config("ok", &cfg, &opts).diagnostics.is_empty());
        opts.watchdog = None;
        opts.checkpoint_every = Some(250_000);
        assert!(lint_config("nowd", &cfg, &opts).diagnostics.is_empty());
    }

    #[test]
    fn reports_are_deterministic() {
        let cfg = NetworkConfig::paper_baseline();
        let opts = LintOptions::default();
        let a = lint_config("x", &cfg, &opts);
        let b = lint_config("x", &cfg, &opts);
        assert_eq!(a.diagnostics, b.diagnostics);
        assert_eq!(a.to_json(), b.to_json());
    }
}
