//! Graceful-degradation rerouting with the deadlock proof in the loop.
//!
//! When a hard fault kills a link or router mid-run, the engine marks the
//! installed routing stale ([`Network::take_routing_stale`]) and the control
//! layer must regenerate a table around the dead equipment. This module is
//! that control layer: [`verify_degraded_routing`] builds the up*/down*
//! table ([`degraded_routing`]) and *proves it deadlock-free* on the
//! surviving channel-dependency graph before anyone installs it, and
//! [`run_with_degradation`] drives a whole fault campaign — inject, step,
//! reroute on every hard fault, and report per-phase statistics — with the
//! proof gating every reroute.
//!
//! The gate matters: an unproven reroute that happens to close a dependency
//! cycle would wedge the network silently. Here a cyclic regenerated table
//! is a typed [`DegradedRunError::Deadlock`] naming the cycle, never a hang.

use heteronoc_noc::config::NetworkConfig;
use heteronoc_noc::fault::{
    DroppedPacket, FaultCounters, FaultPlan, RecoveryCounters, UnrecoverableFault,
};
use heteronoc_noc::network::{Network, StallReport};
use heteronoc_noc::packet::PacketClass;
use heteronoc_noc::routing::degraded::degraded_routing;
use heteronoc_noc::routing::RoutingKind;
use heteronoc_noc::sim::{drive, Clock, Hooks, SimError, Workload};
use heteronoc_noc::types::{Bits, Cycle, LinkId, NodeId, RouterId};

use crate::cdg::{Cdg, EscapeModel};
use crate::error::VerifyError;

/// A degraded routing that passed the CDG acyclicity proof.
#[derive(Clone, Debug)]
pub struct VerifiedDegradedRouting {
    /// The proven table, ready for [`Network::install_routing`].
    pub routing: RoutingKind,
    /// Live router pairs the degraded table cannot connect.
    pub unreachable: Vec<(RouterId, RouterId)>,
    /// Routers cut off from the surviving connected component.
    pub isolated: Vec<RouterId>,
    /// VC-level channels in the verified dependency graph.
    pub channels: usize,
    /// Dependencies proven acyclic.
    pub dependencies: usize,
}

/// Builds an up*/down* routing table for `cfg`'s topology minus the dead
/// equipment and proves it deadlock-free before returning it.
///
/// Unreachable pairs and isolated routers are *not* errors — the engine
/// absorbs and drops their traffic with typed reasons — but they are
/// reported so callers can account for the lost coverage.
///
/// # Errors
/// [`VerifyError::CyclicDependency`] (naming the cycle) if the regenerated
/// table's dependency graph is cyclic; [`VerifyError::Config`] if `cfg`
/// itself is invalid.
pub fn verify_degraded_routing(
    cfg: &NetworkConfig,
    dead_links: &[LinkId],
    dead_routers: &[RouterId],
) -> Result<VerifiedDegradedRouting, VerifyError> {
    let graph = cfg.build_graph();
    let dr = degraded_routing(&graph, dead_links, dead_routers);
    let routing = RoutingKind::FullTable(dr.table);
    let vcs: Vec<usize> = cfg.routers.iter().map(|r| r.vcs_per_port).collect();
    // The degraded table claims whole ports (VcClass::Any, no escape
    // reservation): the proof must hold with every dependency hard.
    let cdg = Cdg::build(&graph, &routing, &vcs, EscapeModel::None)?;
    cdg.check_acyclic()?;
    Ok(VerifiedDegradedRouting {
        routing,
        unreachable: dr.unreachable,
        isolated: dr.isolated,
        channels: cdg.num_channels(),
        dependencies: cdg.num_dependencies(),
    })
}

/// One injected packet of a degradation campaign.
#[derive(Clone, Copy, Debug)]
pub struct Injection {
    /// Cycle the packet enters the source queue.
    pub cycle: Cycle,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Payload size.
    pub size: Bits,
}

/// Statistics of one routing phase (the interval between two reroutes).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStats {
    /// First cycle of the phase.
    pub from_cycle: Cycle,
    /// Cycle the phase ended (a reroute, or end of run).
    pub to_cycle: Cycle,
    /// Packets retired during the phase.
    pub delivered: u64,
    /// Packets dropped during the phase.
    pub dropped: u64,
    /// Of those drops, how many were permanent (no retained copy left to
    /// reinject). `dropped - permanent` losses were recovered by the
    /// end-to-end layer in a later phase.
    pub permanent: u64,
    /// Σ (retire − inject) over the phase's deliveries.
    pub latency_cycles: u64,
}

impl PhaseStats {
    /// Mean packet latency of the phase in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.latency_cycles as f64 / self.delivered as f64
            }
        }
    }
}

/// Outcome of a completed degradation campaign.
#[derive(Clone, Debug, Default)]
pub struct DegradedRunReport {
    /// Per-routing-phase statistics, in time order. One entry when no hard
    /// fault fired, one extra entry per reroute.
    pub phases: Vec<PhaseStats>,
    /// Total packets retired.
    pub delivered: u64,
    /// Every packet dropped, with its typed reason. With end-to-end
    /// recovery enabled, entries with `recoverable: true` are transient
    /// (a reinjected copy delivered or will be accounted separately).
    pub dropped: Vec<DroppedPacket>,
    /// Fault-campaign counters from the engine.
    pub counters: FaultCounters,
    /// End-to-end recovery counters (all zero when recovery is disabled).
    pub recovery: RecoveryCounters,
    /// Number of CDG-verified reroutes performed.
    pub reroutes: u32,
    /// Cycle the last packet left the network.
    pub finished_at: Cycle,
    /// Per-delivery latencies in cycles, sorted ascending (so percentile
    /// queries are a direct index). One entry per retired packet.
    pub latencies: Vec<Cycle>,
}

impl DegradedRunReport {
    /// Packets permanently lost (no retained copy could or can deliver
    /// them). Without recovery every drop is permanent.
    pub fn permanent_losses(&self) -> u64 {
        self.dropped.iter().filter(|d| !d.recoverable).count() as u64
    }

    /// Delivered fraction of all packets that reached a final outcome:
    /// `delivered / (delivered + permanent losses)`. 1.0 when nothing was
    /// permanently lost.
    pub fn delivery_ratio(&self) -> f64 {
        let lost = self.permanent_losses();
        if self.delivered + lost == 0 {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.delivered as f64 / (self.delivered + lost) as f64
        }
    }

    /// The `p`-th latency percentile in cycles (nearest-rank; `p` in
    /// 0.0..=1.0). 0 when nothing delivered.
    pub fn latency_percentile(&self, p: f64) -> Cycle {
        if self.latencies.is_empty() {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let idx = ((self.latencies.len() as f64 * p).ceil() as usize)
            .saturating_sub(1)
            .min(self.latencies.len() - 1);
        self.latencies[idx]
    }
}

/// Why a degradation campaign could not complete.
#[derive(Clone, Debug)]
pub enum DegradedRunError {
    /// The configuration was rejected by the engine.
    Config(heteronoc_noc::error::ConfigError),
    /// A regenerated routing failed the deadlock proof (cycle named) —
    /// nothing was installed.
    Deadlock(VerifyError),
    /// A link exhausted its retransmission attempts.
    Unrecoverable(UnrecoverableFault),
    /// No forward progress for longer than the stall limit.
    Stalled {
        /// Engine stall report naming the stuck packets.
        report: Box<StallReport>,
        /// Routing phase (reroutes completed so far) in which progress
        /// stopped — phase 0 is the pre-fault table; a stall in phase
        /// `n > 0` happened inside the `n`-th reconfiguration window.
        phase: u32,
        /// First cycle of that phase.
        phase_start: Cycle,
    },
}

impl std::fmt::Display for DegradedRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedRunError::Config(e) => write!(f, "invalid configuration: {e}"),
            DegradedRunError::Deadlock(e) => {
                write!(f, "regenerated routing failed the deadlock proof: {e}")
            }
            DegradedRunError::Unrecoverable(e) => write!(f, "unrecoverable fault: {e}"),
            DegradedRunError::Stalled {
                report,
                phase,
                phase_start,
            } => write!(
                f,
                "campaign stalled in routing phase {phase} (since cycle {phase_start}): {report}"
            ),
        }
    }
}

impl std::error::Error for DegradedRunError {}

/// Runs a full degradation campaign: injects `injections` (any order; they
/// are sorted by cycle), steps the engine, and on every hard fault
/// regenerates, *proves* and installs a degraded table. Returns per-phase
/// statistics plus the engine's drop/fault accounting.
///
/// `stall_limit` bounds the cycles the run may go without a delivery or a
/// drop while packets are in flight (the drain watchdog).
///
/// # Errors
/// See [`DegradedRunError`]; a cyclic regenerated table, exhausted link
/// retries and a stalled drain all surface as typed errors, never hangs.
///
/// # Panics
/// Panics if an injection names an endpoint outside the topology.
pub fn run_with_degradation(
    cfg: NetworkConfig,
    plan: FaultPlan,
    injections: &[Injection],
    stall_limit: Cycle,
) -> Result<DegradedRunReport, DegradedRunError> {
    let net = Network::with_faults(cfg, plan).map_err(DegradedRunError::Config)?;
    let mut pending: Vec<Injection> = injections.to_vec();
    pending.sort_by_key(|i| i.cycle);
    let mut c = Campaign {
        net,
        clock: Clock::new(1.0),
        pending,
        next: 0,
        phase: PhaseStats::default(),
        report: DegradedRunReport::default(),
        moved: false,
        deadlock: None,
    };
    // A campaign has no shutdown flag or checkpoint, so only the watchdog
    // and the engine's fault check can stop it early.
    match drive(&mut c, Hooks::new(Some(stall_limit))) {
        Err(SimError::Stalled(report)) => {
            return Err(DegradedRunError::Stalled {
                report,
                phase: c.report.reroutes,
                phase_start: c.phase.from_cycle,
            })
        }
        Err(SimError::Unrecoverable(e)) => return Err(DegradedRunError::Unrecoverable(e)),
        Err(e) => unreachable!("a campaign without hooks cannot end in {e}"),
        Ok(()) => {}
    }
    if let Some(e) = c.deadlock {
        return Err(DegradedRunError::Deadlock(e));
    }
    let mut report = c.report;
    report.phases.push(PhaseStats {
        to_cycle: c.net.now(),
        ..c.phase
    });
    report.counters = c.net.fault_counters();
    report.recovery = c.net.recovery_counters();
    report.latencies.sort_unstable();
    Ok(report)
}

/// A degradation campaign as a driver workload. Per cycle: the injections
/// that are due, a step, the fault check, deliveries and drops, then a
/// reroute if the routing went stale.
struct Campaign {
    net: Network,
    clock: Clock,
    pending: Vec<Injection>,
    next: usize,
    /// The routing phase in progress.
    phase: PhaseStats,
    /// Everything but the current phase, the engine counters and the
    /// latency order, which the end of the run fills in.
    report: DegradedRunReport,
    moved: bool,
    /// A regenerated table that failed the proof; it ends the run.
    deadlock: Option<VerifyError>,
}

impl Workload for Campaign {
    fn net(&mut self) -> &mut Network {
        &mut self.net
    }

    fn clock(&mut self) -> &mut Clock {
        &mut self.clock
    }

    fn done(&self) -> bool {
        self.deadlock.is_some()
            || (self.next == self.pending.len()
                && self.net.in_flight() == 0
                && self.net.recovery_pending() == 0)
    }

    fn inject(&mut self) {
        let now = self.net.now();
        while let Some(inj) = self.pending.get(self.next).filter(|i| i.cycle <= now) {
            self.net.enqueue(
                inj.src,
                inj.dst,
                inj.size,
                PacketClass::Data,
                self.next as u64,
            );
            self.next += 1;
        }
    }

    fn deliver(&mut self) -> Result<(), SimError> {
        if let Some(e) = self.net.fault_error() {
            return Err(SimError::Unrecoverable(e));
        }
        let now = self.net.now();
        let delivered = self.net.drain_delivered();
        let dropped = self.net.drain_dropped();
        let r = &mut self.report;
        if !delivered.is_empty() || !dropped.is_empty() {
            r.finished_at = now;
        }
        // Recovery activity (acks arriving, copies reinjected) is forward
        // progress even when nothing retired this cycle; so is an empty
        // network waiting out an ack-timeout backoff.
        let recovery = self.net.recovery_counters();
        self.moved = !delivered.is_empty()
            || !dropped.is_empty()
            || recovery != r.recovery
            || self.net.in_flight() == 0;
        r.recovery = recovery;
        for d in &delivered {
            self.phase.delivered += 1;
            self.phase.latency_cycles += d.retire.saturating_sub(d.inject);
            r.latencies.push(d.retire.saturating_sub(d.inject));
        }
        r.delivered += delivered.len() as u64;
        self.phase.dropped += dropped.len() as u64;
        self.phase.permanent += dropped.iter().filter(|d| !d.recoverable).count() as u64;
        r.dropped.extend(dropped);

        if self.net.take_routing_stale() {
            let net = &self.net;
            match verify_degraded_routing(net.config(), net.dead_links(), net.dead_routers()) {
                Ok(verified) => self.net.install_routing(verified.routing),
                Err(e) => self.deadlock = Some(e),
            }
            r.reroutes += 1;
            r.phases.push(PhaseStats {
                to_cycle: now,
                ..self.phase
            });
            self.phase = PhaseStats {
                from_cycle: now,
                ..PhaseStats::default()
            };
            // A reroute is progress too.
            self.moved = true;
        }
        Ok(())
    }

    fn progressed(&mut self) -> bool {
        self.moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc_noc::config::RouterCfg;
    use heteronoc_noc::fault::{DropReason, FaultKind, HardFault, RetryPolicy};
    use heteronoc_noc::topology::TopologyKind;

    fn mesh8() -> NetworkConfig {
        NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 8,
                height: 8,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        )
    }

    fn all_pairs_burst(n: usize, spacing: Cycle) -> Vec<Injection> {
        let mut inj = Vec::new();
        let mut k = 0u64;
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                inj.push(Injection {
                    cycle: k * spacing,
                    src: NodeId(s),
                    dst: NodeId(d),
                    size: Bits(512),
                });
                k += 1;
            }
        }
        inj
    }

    #[test]
    fn healthy_degraded_table_verifies() {
        let cfg = mesh8();
        let v = verify_degraded_routing(&cfg, &[], &[]).unwrap();
        assert!(v.unreachable.is_empty() && v.isolated.is_empty());
        assert!(v.dependencies > 0);
    }

    #[test]
    fn degraded_table_around_dead_router_verifies() {
        let cfg = mesh8();
        let v = verify_degraded_routing(&cfg, &[], &[RouterId(27)]).unwrap();
        assert_eq!(v.isolated, vec![RouterId(27)]);
        assert!(
            v.unreachable.is_empty(),
            "mesh minus one router stays connected"
        );
    }

    #[test]
    fn campaign_survives_mid_run_link_fault() {
        // Kill one physical channel of the 8x8 mesh mid-burst: every packet
        // must still deliver, over a CDG-proven regenerated table, and the
        // report must show both routing phases.
        let g = mesh8().build_graph();
        let l = g
            .links()
            .iter()
            .position(|l| l.src == RouterId(27) && l.dst == RouterId(28))
            .expect("east link 27->28 exists");
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 120,
            kind: FaultKind::Link(heteronoc_noc::types::LinkId(l)),
        });
        let inj = all_pairs_burst(64, 1);
        let total = inj.len() as u64;
        let report = run_with_degradation(mesh8(), plan, &inj, 50_000).unwrap();
        assert_eq!(report.delivered, total, "{:?}", report.counters);
        assert!(report.dropped.is_empty());
        assert_eq!(report.reroutes, 1);
        assert_eq!(report.phases.len(), 2);
        assert!(report.phases[0].delivered > 0, "pre-fault phase delivers");
        assert!(report.phases[1].delivered > 0, "post-fault phase delivers");
        assert_eq!(report.counters.links_dead, 2, "both directions die");
    }

    #[test]
    fn campaign_drops_dead_router_traffic_with_reasons() {
        // Router 36 dies before any wormhole is granted through it: its
        // endpoints' traffic drops with typed reasons, everything else
        // delivers over the regenerated table.
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 0,
            kind: FaultKind::Router(RouterId(36)),
        });
        let inj = all_pairs_burst(64, 1);
        let total = inj.len() as u64;
        let report = run_with_degradation(mesh8(), plan, &inj, 50_000).unwrap();
        assert_eq!(report.reroutes, 1);
        assert!(!report.dropped.is_empty(), "router 36's traffic is lost");
        assert!(report.dropped.iter().all(|d| matches!(
            d.reason,
            DropReason::SourceDead | DropReason::DestinationDead | DropReason::Unreachable
        )));
        assert_eq!(report.delivered + report.dropped.len() as u64, total);
        assert_eq!(report.dropped.len(), 126, "63 sourced + 63 destined at n36");
    }

    #[test]
    fn straddled_router_kill_is_a_typed_error_not_a_hang() {
        // A router that dies with wormholes mid-flight through it black-
        // holes their flits (fail-stop): the sender's bounded retries must
        // surface a typed error — never an endless spin.
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 200,
            kind: FaultKind::Router(RouterId(36)),
        });
        let inj = all_pairs_burst(64, 1);
        let err = run_with_degradation(mesh8(), plan, &inj, 20_000).unwrap_err();
        assert!(
            matches!(
                err,
                DegradedRunError::Unrecoverable(_) | DegradedRunError::Stalled { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn straddled_router_kill_recovers_with_e2e_enabled() {
        // The same mid-flight router kill as above, but with end-to-end
        // recovery: every wedged wormhole is reinjected by its source over
        // the proven degraded table. Delivery must reach 100% of the pairs
        // whose endpoints survive; only node 36's own traffic is lost.
        use heteronoc_noc::fault::RecoveryPolicy;
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 200,
            kind: FaultKind::Router(RouterId(36)),
        });
        plan.recovery = Some(RecoveryPolicy::default());
        let inj = all_pairs_burst(64, 1);
        let total = inj.len() as u64;
        let report = run_with_degradation(mesh8(), plan, &inj, 50_000).unwrap();
        assert_eq!(report.reroutes, 1);
        let permanent = report.permanent_losses();
        assert_eq!(
            report.delivered + permanent,
            total,
            "every packet reaches a final outcome"
        );
        assert!(
            permanent <= 126,
            "at most n36's own traffic may be lost, got {permanent}"
        );
        assert!(
            report
                .dropped
                .iter()
                .filter(|d| !d.recoverable)
                .all(|d| d.packet.src == NodeId(36) || d.packet.dst == NodeId(36)),
            "every permanent loss must name a dead endpoint"
        );
        assert!(
            report.recovery.reinjections > 0,
            "the kill wedged wormholes"
        );
        let expected_ratio = (total - permanent) as f64 / total as f64;
        assert!((report.delivery_ratio() - expected_ratio).abs() < 1e-9);
    }

    #[test]
    fn reconfiguration_window_stall_carries_phase_context() {
        // Wedge wormholes in a dead router with a retry budget too large to
        // exhaust and no recovery: the watchdog must fire *inside* the
        // post-kill reconfiguration window and say so.
        let mut plan = FaultPlan {
            retry: RetryPolicy {
                max_attempts: 1_000,
                timeout: 8,
            },
            ..FaultPlan::default()
        };
        plan.hard.push(HardFault {
            cycle: 200,
            kind: FaultKind::Router(RouterId(36)),
        });
        let inj = all_pairs_burst(64, 1);
        let err = run_with_degradation(mesh8(), plan, &inj, 3_000).unwrap_err();
        match &err {
            DegradedRunError::Stalled {
                report,
                phase,
                phase_start,
            } => {
                assert_eq!(*phase, 1, "stall happens after the one reroute");
                assert!(*phase_start >= 200, "phase started at the kill");
                assert!(!report.stuck.is_empty());
                let text = err.to_string();
                assert!(text.contains("phase 1"), "{text}");
            }
            other => panic!("expected a stall with phase context, got {other}"),
        }
    }

    #[test]
    fn campaign_surfaces_retry_exhaustion_as_typed_error() {
        let mut plan = FaultPlan::transient(1.0, 7);
        plan.retry = RetryPolicy {
            max_attempts: 2,
            timeout: 4,
        };
        let inj = all_pairs_burst(8, 3);
        let err = run_with_degradation(mesh8(), plan, &inj, 50_000).unwrap_err();
        assert!(matches!(err, DegradedRunError::Unrecoverable(_)), "{err}");
    }
}
