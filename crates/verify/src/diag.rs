//! Clippy-style diagnostics: stable codes, severities, spans and renderers.
//!
//! Every finding of the static-analysis suite is a [`Diagnostic`]: a stable
//! [`Code`] (e.g. `HN-E010`), a [`Span`] naming the artifact it anchors to
//! (the whole layout, a router, a link, a VC-level channel, or an endpoint
//! pair) and a human message. Codes never change meaning once shipped, so
//! scripts and CI can grep for them; `heteronoc lint --explain HN-E010`
//! prints the registry entry. Severity is a property of the code — `HN-E*`
//! codes are errors (the configuration is broken or unprovable), `HN-W*`
//! codes are warnings (legal but suspicious or documented deviations).

use std::fmt;

use heteronoc_noc::types::{LinkId, NodeId, RouterId};

/// How bad a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Legal but suspicious, or a documented deviation.
    Warning,
    /// The configuration is broken or a required proof fails.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The numeric part never changes meaning; new
/// diagnostics get new numbers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Code {
    /// `HN-E001` — the configuration failed basic validation.
    InvalidConfig,
    /// `HN-E002` — the channel-dependency graph has an unrelieved cycle.
    CyclicDependency,
    /// `HN-E003` — the escape (X-Y) subnetwork itself is cyclic.
    CyclicEscape,
    /// `HN-E004` — a routing walk failed to terminate (routing livelock).
    RouteDiverges,
    /// `HN-E005` — escape analysis needs >= 2 VCs at every port.
    MissingEscapeVc,
    /// `HN-E006` — the VC budget differs from the iso-resource baseline.
    VcBudgetMismatch,
    /// `HN-E007` — `ByBigRouters` wide links narrower than narrow links.
    LinkWidthInversion,
    /// `HN-E008` — wide links cannot combine narrow-link flits.
    CombiningIncompatible,
    /// `HN-E009` — a table path contains a hop that is not a topology link.
    TablePathBrokenLink,
    /// `HN-E010` — the message-class dependency graph is cyclic, or a
    /// per-class subnetwork has a channel-dependency cycle.
    ProtocolCycle,
    /// `HN-E011` — a table covers one direction of a pair but not the other.
    TableCoverageGap,
    /// `HN-E012` — an input port can starve under the modelled allocator.
    StarvablePort,
    /// `HN-E013` — a fault plan's kill schedule partitions the network.
    FaultPartition,
    /// `HN-W001` — a link has more flit lanes than the allocator can drive.
    UnderusedLanes,
    /// `HN-W002` — bisection bandwidth exceeds the baseline budget.
    BisectionExceedsBudget,
    /// `HN-W003` — buffer storage exceeds the baseline budget.
    BufferBitsExceedBudget,
    /// `HN-W004` — blocking endpoints without per-class VC separation.
    MissingClassSeparation,
    /// `HN-W005` — a VC buffer's credit loop caps link utilization below
    /// the demanded injection rate.
    CreditLimitedLink,
    /// `HN-W006` — a fault plan strands a route-table path on dead
    /// equipment (degraded rerouting must regenerate it).
    StrandedTablePath,
    /// `HN-W007` — a fault plan cuts live sources from live destinations
    /// while end-to-end recovery is disabled (losses go unaccounted).
    PartitionWithoutRecovery,
    /// `HN-W008` — the checkpoint interval exceeds the progress-watchdog
    /// window, so a watchdog abort can land with no checkpoint to resume.
    CheckpointExceedsWatchdog,
}

impl Code {
    /// Every shipped code, in code order (the `--explain` registry).
    pub const ALL: [Code; 21] = [
        Code::InvalidConfig,
        Code::CyclicDependency,
        Code::CyclicEscape,
        Code::RouteDiverges,
        Code::MissingEscapeVc,
        Code::VcBudgetMismatch,
        Code::LinkWidthInversion,
        Code::CombiningIncompatible,
        Code::TablePathBrokenLink,
        Code::ProtocolCycle,
        Code::TableCoverageGap,
        Code::StarvablePort,
        Code::FaultPartition,
        Code::UnderusedLanes,
        Code::BisectionExceedsBudget,
        Code::BufferBitsExceedBudget,
        Code::MissingClassSeparation,
        Code::CreditLimitedLink,
        Code::StrandedTablePath,
        Code::PartitionWithoutRecovery,
        Code::CheckpointExceedsWatchdog,
    ];

    /// The stable code string, e.g. `"HN-E010"`.
    pub const fn as_str(self) -> &'static str {
        match self {
            Code::InvalidConfig => "HN-E001",
            Code::CyclicDependency => "HN-E002",
            Code::CyclicEscape => "HN-E003",
            Code::RouteDiverges => "HN-E004",
            Code::MissingEscapeVc => "HN-E005",
            Code::VcBudgetMismatch => "HN-E006",
            Code::LinkWidthInversion => "HN-E007",
            Code::CombiningIncompatible => "HN-E008",
            Code::TablePathBrokenLink => "HN-E009",
            Code::ProtocolCycle => "HN-E010",
            Code::TableCoverageGap => "HN-E011",
            Code::StarvablePort => "HN-E012",
            Code::FaultPartition => "HN-E013",
            Code::UnderusedLanes => "HN-W001",
            Code::BisectionExceedsBudget => "HN-W002",
            Code::BufferBitsExceedBudget => "HN-W003",
            Code::MissingClassSeparation => "HN-W004",
            Code::CreditLimitedLink => "HN-W005",
            Code::StrandedTablePath => "HN-W006",
            Code::PartitionWithoutRecovery => "HN-W007",
            Code::CheckpointExceedsWatchdog => "HN-W008",
        }
    }

    /// The diagnostic's CamelCase name, e.g. `"ProtocolCycle"`.
    pub const fn name(self) -> &'static str {
        match self {
            Code::InvalidConfig => "InvalidConfig",
            Code::CyclicDependency => "CyclicDependency",
            Code::CyclicEscape => "CyclicEscape",
            Code::RouteDiverges => "RouteDiverges",
            Code::MissingEscapeVc => "MissingEscapeVc",
            Code::VcBudgetMismatch => "VcBudgetMismatch",
            Code::LinkWidthInversion => "LinkWidthInversion",
            Code::CombiningIncompatible => "CombiningIncompatible",
            Code::TablePathBrokenLink => "TablePathBrokenLink",
            Code::ProtocolCycle => "ProtocolCycle",
            Code::TableCoverageGap => "TableCoverageGap",
            Code::StarvablePort => "StarvablePort",
            Code::FaultPartition => "FaultPartition",
            Code::UnderusedLanes => "UnderusedLanes",
            Code::BisectionExceedsBudget => "BisectionExceedsBudget",
            Code::BufferBitsExceedBudget => "BufferBitsExceedBudget",
            Code::MissingClassSeparation => "MissingClassSeparation",
            Code::CreditLimitedLink => "CreditLimitedLink",
            Code::StrandedTablePath => "StrandedTablePath",
            Code::PartitionWithoutRecovery => "PartitionWithoutRecovery",
            Code::CheckpointExceedsWatchdog => "CheckpointExceedsWatchdog",
        }
    }

    /// Severity is a property of the code, not the site.
    pub const fn severity(self) -> Severity {
        match self {
            Code::UnderusedLanes
            | Code::BisectionExceedsBudget
            | Code::BufferBitsExceedBudget
            | Code::MissingClassSeparation
            | Code::CreditLimitedLink
            | Code::StrandedTablePath
            | Code::PartitionWithoutRecovery
            | Code::CheckpointExceedsWatchdog => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line summary for the registry listing.
    pub const fn summary(self) -> &'static str {
        match self {
            Code::InvalidConfig => "the configuration failed basic validation",
            Code::CyclicDependency => {
                "the channel-dependency graph has a cycle with no escape relief"
            }
            Code::CyclicEscape => "the escape (X-Y) subnetwork itself is cyclic",
            Code::RouteDiverges => "a routing walk failed to terminate within the hop bound",
            Code::MissingEscapeVc => "a router cannot reserve an escape VC (< 2 VCs per port)",
            Code::VcBudgetMismatch => "the total VC budget differs from the iso-resource baseline",
            Code::LinkWidthInversion => "wide links are narrower than the narrow links",
            Code::CombiningIncompatible => {
                "wide links cannot combine narrow-link flits (non-integral width ratio)"
            }
            Code::TablePathBrokenLink => "a table path contains a hop that is not a topology link",
            Code::ProtocolCycle => {
                "the message-class dependency graph or a per-class subnetwork is cyclic"
            }
            Code::TableCoverageGap => "a table covers one direction of a pair but not the reverse",
            Code::StarvablePort => {
                "an input port can be starved forever under the modelled allocator"
            }
            Code::FaultPartition => "the fault plan's kill schedule partitions the network",
            Code::UnderusedLanes => "a link has more flit lanes than the allocator can drive",
            Code::BisectionExceedsBudget => "bisection bandwidth exceeds the baseline budget",
            Code::BufferBitsExceedBudget => "buffer storage exceeds the baseline budget",
            Code::MissingClassSeparation => {
                "blocking endpoints without per-message-class VC separation"
            }
            Code::CreditLimitedLink => {
                "a VC buffer's credit loop caps utilization below the demanded rate"
            }
            Code::StrandedTablePath => {
                "the fault plan strands a route-table path on dead equipment"
            }
            Code::PartitionWithoutRecovery => {
                "the plan cuts live node pairs while end-to-end recovery is disabled"
            }
            Code::CheckpointExceedsWatchdog => {
                "the checkpoint interval exceeds the progress-watchdog window"
            }
        }
    }

    /// The full registry explanation (`heteronoc lint --explain CODE`).
    pub const fn explanation(self) -> &'static str {
        match self {
            Code::InvalidConfig => {
                "The configuration was rejected by NetworkConfig::validate before any \
                 analysis ran: a zero flit width, a router/link count mismatch, an \
                 out-of-range fault-plan id, or similar. Fix the named field; no other \
                 diagnostic from this configuration is meaningful until it validates."
            }
            Code::CyclicDependency => {
                "The VC-level channel-dependency graph (Dally & Towles ch. 14) contains a \
                 cycle that no escape VC relieves. A set of packets can each hold a \
                 channel on the cycle while waiting for the next, and none can ever \
                 advance: a routing deadlock. The message names every channel on the \
                 cycle in dependency order. Break it with a turn restriction, dateline \
                 VC classes (torus), or a reserved escape VC."
            }
            Code::CyclicEscape => {
                "Escape-VC relief only works if the escape subnetwork itself always \
                 drains. Here the reserved escape channels form their own dependency \
                 cycle (e.g. table routing on a torus, where the single escape VC \
                 re-creates the ring cycle the datelines otherwise break), so diversion \
                 cannot guarantee progress."
            }
            Code::RouteDiverges => {
                "Walking the routing function from the named source to the named \
                 destination did not reach the destination within the hop bound. The \
                 route is livelocked (or the table loops); such a walk can never be \
                 proved deadlock-free and would never deliver in simulation either."
            }
            Code::MissingEscapeVc => {
                "The routing mode reserves the highest VC of every port as an X-Y escape \
                 VC, but the named router has fewer than two VCs per port, so there is \
                 nothing left for regular traffic after the reservation."
            }
            Code::VcBudgetMismatch => {
                "HeteroNoC's claim is redistribution, not addition (paper SS2): a \
                 heterogeneous layout must hold the same total VC budget as the \
                 homogeneous baseline. This layout's sum of per-port VC counts differs, \
                 so any comparison against the baseline is no longer iso-resource."
            }
            Code::LinkWidthInversion => {
                "A ByBigRouters width assignment declares its big-router links narrower \
                 than its small-router links, inverting the redistribution it is \
                 supposed to express. Swap the widths."
            }
            Code::CombiningIncompatible => {
                "Flit combining (paper SS3.2) packs narrow-link flits onto wide links, so \
                 the wide width must be a whole multiple of the narrow width. A \
                 non-integral ratio leaves a lane fragment no flit can fill."
            }
            Code::TablePathBrokenLink => {
                "A route-table path takes a hop between routers that are not connected \
                 in the topology. The packet would have no output port to request at the \
                 named router. Regenerate the table against the topology actually built."
            }
            Code::ProtocolCycle => {
                "Protocol (message-class) deadlock: the classes messages travel in must \
                 form an acyclic blocks-on graph — an endpoint processing a request may \
                 wait on forwards and responses, a forward on responses, and responses \
                 must sink unconditionally. A cycle among classes means endpoints can \
                 wait on each other through full VC buffers no matter how the network \
                 routes. When endpoints can block, each class additionally needs its own \
                 VC partition whose channel-dependency subgraph is acyclic; this code \
                 also fires when a per-class subnetwork (e.g. a torus class stripped of \
                 its dateline pair) has a cycle."
            }
            Code::TableCoverageGap => {
                "Hub routing is bidirectional (paper SS7): every table pair must exist in \
                 both directions. Traffic for the missing direction would silently fall \
                 back to X-Y, skewing the case study."
            }
            Code::StarvablePort => {
                "Under the modelled arbitration order, the named input port can lose \
                 every allocation round forever while competing requesters persist. The \
                 shipped switch allocator uses rotating-priority round-robin, which \
                 grants every persistent requester within one rotation; this code fires \
                 for allocator models without that guarantee (e.g. fixed priority), \
                 naming the port that static analysis cannot prove live."
            }
            Code::FaultPartition => {
                "Applying the fault plan's hard kills cumulatively, at the named cycle \
                 the surviving routers with attached nodes split into more than one \
                 connected component. No rerouting can deliver across the cut; the \
                 campaign is guaranteed to drop every cross-partition packet."
            }
            Code::UnderusedLanes => {
                "The link is wide enough for more than two flit lanes, but the switch \
                 allocator issues at most a primary and a secondary grant per output per \
                 cycle, so lanes beyond the second can never be driven."
            }
            Code::BisectionExceedsBudget => {
                "The layout's horizontal-cut bisection width exceeds the homogeneous \
                 baseline's. The paper's own Row2_5+BL does this by design (every cut \
                 channel touches row 4's big routers), which is why this is a warning: \
                 audit the deviation, or rearrange the big routers."
            }
            Code::BufferBitsExceedBudget => {
                "Total per-port buffer storage (sum of VCs x depth x flit width) exceeds \
                 the baseline's, so the layout quietly adds buffering the iso-resource \
                 argument says it redistributes."
            }
            Code::MissingClassSeparation => {
                "The protocol model says endpoints can block (no guaranteed-sink \
                 responses), which makes per-message-class virtual networks mandatory: \
                 every router needs at least one VC per class so a blocked class cannot \
                 back up into another. The named router has fewer VCs than there are \
                 classes. Either provision more VCs or make response sinking \
                 unconditional (reserved MSHRs), which is what the shipped engine does."
            }
            Code::CreditLimitedLink => {
                "Credit-based flow control bounds a VC's throughput by buffer_depth / \
                 credit_round_trip: a slot's credit returns only 4 cycles after the flit \
                 that freed it won switch allocation (grant, +2 downstream buffer write, \
                 +1 earliest downstream grant, +1 credit return). The named link's total \
                 VC buffering sustains less than its wire bandwidth, and the statically \
                 computed channel load at a requested injection rate exceeds that cap — \
                 the sweep would measure buffer starvation, not link contention. Deepen \
                 the buffers or lower the rate."
            }
            Code::StrandedTablePath => {
                "After the fault plan's kills, a route-table path crosses a dead router \
                 or link. The network stays connected (otherwise HN-E013 fires), but \
                 packets on this path stall until graceful degradation regenerates the \
                 table — expect a rerouting transient at the named cycle."
            }
            Code::PartitionWithoutRecovery => {
                "The kill schedule separates at least one pair of alive attached nodes \
                 (HN-E013 names the cut) and the plan does not enable end-to-end \
                 recovery (`recover attempts timeout retention`). Without it, flits \
                 caught in flight at the cut wedge in dead equipment and the campaign's \
                 delivery ledger cannot attribute them: losses show up as missing \
                 packets, not as accounted permanent drops. With recovery enabled the \
                 source retains every unacknowledged packet, retries across the \
                 reconfigured network, and records a RecoveryExhausted drop when the \
                 destination is truly unreachable — so delivered + permanent always \
                 equals offered. Enable recovery, or expect an open ledger."
            }
            Code::CheckpointExceedsWatchdog => {
                "The run checkpoints every N cycles but its progress watchdog aborts \
                 after a smaller window of retire-free cycles. A saturated or wedged \
                 run therefore dies *between* checkpoints: in the worst case the \
                 watchdog fires one cycle before the next save, discarding almost a \
                 full interval of work — and a run wedged from cycle 0 leaves no \
                 checkpoint at all, so `--resume` has nothing to pick up. Choose a \
                 checkpoint interval no larger than the watchdog window (a few \
                 checkpoints per window is a good default), or widen the watchdog."
            }
        }
    }

    /// Looks a code up by its stable string, e.g. `"HN-E010"`
    /// (case-insensitive; the CamelCase name is accepted too).
    pub fn parse(s: &str) -> Option<Code> {
        let s = s.trim();
        Code::ALL
            .into_iter()
            .find(|c| c.as_str().eq_ignore_ascii_case(s) || c.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// What a diagnostic anchors to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    /// The configuration/layout as a whole.
    Config,
    /// One router.
    Router(RouterId),
    /// One unidirectional link.
    Link(LinkId),
    /// One VC-level channel of a link.
    Channel {
        /// The link.
        link: LinkId,
        /// VC index at the receiving input port.
        vc: usize,
    },
    /// An endpoint pair (a routing walk).
    Route {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
}

impl Span {
    /// Deterministic ordering key (variant rank, then ids).
    fn sort_key(self) -> (u8, usize, usize) {
        match self {
            Span::Config => (0, 0, 0),
            Span::Router(r) => (1, r.index(), 0),
            Span::Link(l) => (2, l.index(), 0),
            Span::Channel { link, vc } => (3, link.index(), vc),
            Span::Route { src, dst } => (4, src.index(), dst.index()),
        }
    }

    /// JSON object fragment for this span.
    fn to_json(self) -> String {
        match self {
            Span::Config => "{\"kind\":\"config\"}".to_owned(),
            Span::Router(r) => format!("{{\"kind\":\"router\",\"router\":{}}}", r.index()),
            Span::Link(l) => format!("{{\"kind\":\"link\",\"link\":{}}}", l.index()),
            Span::Channel { link, vc } => format!(
                "{{\"kind\":\"channel\",\"link\":{},\"vc\":{vc}}}",
                link.index()
            ),
            Span::Route { src, dst } => format!(
                "{{\"kind\":\"route\",\"src\":{},\"dst\":{}}}",
                src.index(),
                dst.index()
            ),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Config => write!(f, "config"),
            Span::Router(r) => write!(f, "{r}"),
            Span::Link(l) => write!(f, "{l}"),
            Span::Channel { link, vc } => write!(f, "{link}.vc{vc}"),
            Span::Route { src, dst } => write!(f, "{src}->{dst}"),
        }
    }
}

/// One finding of the static-analysis suite.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable code (determines severity and registry entry).
    pub code: Code,
    /// The artifact the finding anchors to.
    pub span: Span,
    /// Human message with the concrete numbers/names.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            span,
            message: message.into(),
        }
    }

    /// The code's severity.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Deterministic ordering: errors before warnings, then code, span,
    /// message.
    pub fn sort_key(&self) -> impl Ord + '_ {
        (
            std::cmp::Reverse(self.severity()),
            self.code,
            self.span.sort_key(),
            &self.message,
        )
    }

    /// One JSON object (hand-rolled; the workspace is offline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"span\":{},\"message\":\"{}\"}}",
            self.code.as_str(),
            self.code.name(),
            self.severity(),
            self.span.to_json(),
            json_escape(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity(),
            self.code.as_str(),
            self.span,
            self.message
        )
    }
}

/// Escapes a string for embedding in a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_parse_back() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert_eq!(Code::parse(c.as_str()), Some(c));
            assert_eq!(Code::parse(&c.as_str().to_lowercase()), Some(c));
            assert_eq!(Code::parse(c.name()), Some(c));
            assert!(!c.summary().is_empty());
            assert!(c.explanation().len() > 80, "{c} explanation too thin");
            // The letter encodes the severity.
            let is_err = c.as_str().as_bytes()[3] == b'E';
            assert_eq!(is_err, c.severity() == Severity::Error, "{c}");
        }
        assert_eq!(Code::parse("HN-X999"), None);
    }

    #[test]
    fn issue_mandated_codes_are_pinned() {
        // ISSUE 6 names these two explicitly; they must never renumber.
        assert_eq!(Code::UnderusedLanes.as_str(), "HN-W001");
        assert_eq!(Code::ProtocolCycle.as_str(), "HN-E010");
    }

    #[test]
    fn json_rendering_escapes_and_names_the_span() {
        let d = Diagnostic::new(
            Code::CreditLimitedLink,
            Span::Link(LinkId(7)),
            "cap 0.25 \"flits\"/cycle\nline two",
        );
        let j = d.to_json();
        assert!(j.contains("\"code\":\"HN-W005\""), "{j}");
        assert!(j.contains("\"link\":7"), "{j}");
        assert!(j.contains("\\\"flits\\\""), "{j}");
        assert!(j.contains("\\n"), "{j}");
        assert!(!j.contains('\n'), "single line: {j}");
    }
}
