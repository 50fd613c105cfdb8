//! The lint engine: runs every analysis pass over one configuration and
//! collects [`Diagnostic`]s into a deterministic [`LintReport`].
//!
//! Unlike [`crate::verify_config`] (first-error, `Result`-shaped, kept for
//! API stability and the benchmark's set-up), [`lint_config`]
//! never fails: it runs as many passes as remain meaningful and returns
//! everything it found, sorted (errors first, then code/span/message) and
//! de-duplicated, so two runs over the same configuration render
//! byte-identical output. Pass order:
//!
//! 1. `NetworkConfig::validate` — on failure, `HN-E001` and stop (nothing
//!    else is well-defined).
//! 2. Structure — the collect-all port of [`crate::lint::lint_structure`]:
//!    width inversion/combining, underused lanes, table coverage.
//! 3. Budget (opt-in via [`LintOptions::baseline`]) — the iso-resource
//!    lint of [`crate::lint::lint_budget`].
//! 4. Proof passes, skipped when structure found errors (a broken table
//!    makes the walks meaningless): CDG acyclicity, protocol deadlock,
//!    credit sizing, starvation.
//! 5. Fault-plan reachability (opt-in via [`LintOptions::fault_plan`]).

use heteronoc_noc::config::{lanes, LinkWidths, NetworkConfig};
use heteronoc_noc::fault::FaultPlan;
use heteronoc_noc::routing::RoutingKind;
use heteronoc_noc::topology::TopologyGraph;
use heteronoc_noc::types::LinkId;

use crate::cdg::{Cdg, EscapeModel};
use crate::credit::analyze_credit;
use crate::diag::{json_escape, Code, Diagnostic, Severity, Span};
use crate::faultplan::analyze_fault_plan;
use crate::lint::lint_budget;
use crate::protocol::{analyze_protocol, ProtocolModel};
use crate::starvation::{analyze_starvation, ArbiterModel};

/// What to lint a configuration against.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Iso-resource baseline for the budget lint (`None` skips it;
    /// `heteronoc lint --baseline` checks against Fig. 3's homogeneous
    /// mesh).
    pub baseline: Option<NetworkConfig>,
    /// Protocol model for the message-class deadlock pass (`None` skips).
    pub protocol: Option<ProtocolModel>,
    /// Injection rates (packets/node/cycle) the credit-sizing pass checks
    /// against; empty skips the pass.
    pub rates: Vec<f64>,
    /// Switch-allocator arbitration model for the starvation pass.
    pub arbiter: ArbiterModel,
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
    /// The defaults the CLI and the sweep gate use: shipped MESI protocol,
    /// the sweeps' canonical pre-saturation rates, the shipped rotating
    /// arbiter, no baseline, no fault plan.
    fn default() -> LintOptions {
        LintOptions {
            baseline: None,
            protocol: Some(ProtocolModel::mesi_directory()),
            rates: vec![0.01, 0.02, 0.03, 0.04, 0.05],
            arbiter: ArbiterModel::RotatingPriority,
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

/// Collect-all port of [`crate::lint::lint_structure`]: same findings,
/// but every one of them instead of the first error.
fn structure_diagnostics(cfg: &NetworkConfig, graph: &TopologyGraph) -> Vec<Diagnostic> {
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

/// Lints one configuration with every applicable pass; never fails.
pub fn lint_config(name: &str, cfg: &NetworkConfig, opts: &LintOptions) -> LintReport {
    let mut diags = Vec::new();
    let graph = cfg.build_graph();

    if let Err(e) = cfg.validate(&graph) {
        diags.push(Diagnostic::new(
            Code::InvalidConfig,
            Span::Config,
            e.to_string(),
        ));
        return finish(name, diags);
    }

    diags.extend(structure_diagnostics(cfg, &graph));
    if let Some(baseline) = &opts.baseline {
        match lint_budget(cfg, &graph, baseline) {
            Ok(warnings) => diags.extend(warnings.iter().map(Diagnostic::from_warning)),
            Err(e) => diags.push(Diagnostic::from_error(&e)),
        }
    }

    let structurally_sound = !diags.iter().any(|d| d.severity() == Severity::Error);
    if structurally_sound {
        // Proof passes; a broken table would make every walk meaningless.
        let vcs: Vec<usize> = cfg.routers.iter().map(|r| r.vcs_per_port).collect();
        let escape = if cfg.routing.reserves_escape_vc() {
            EscapeModel::ReservedTop
        } else {
            EscapeModel::None
        };
        let verdict =
            Cdg::build(&graph, &cfg.routing, &vcs, escape).and_then(|cdg| cdg.check_acyclic());
        if let Err(e) = verdict {
            diags.push(Diagnostic::from_error(&e));
        }
        if let Some(model) = &opts.protocol {
            diags.extend(analyze_protocol(cfg, &graph, model));
        }
        diags.extend(analyze_credit(cfg, &graph, &opts.rates));
        diags.extend(analyze_starvation(cfg, &graph, opts.arbiter));
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
