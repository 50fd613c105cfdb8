//! The cycle-accurate network simulation engine.
//!
//! [`Network`] owns the elaborated topology, all router and source-queue
//! state, and advances in lock-step cycles via [`Network::step`]. Clients
//! inject packets with [`Network::enqueue`] and collect completions with
//! [`Network::drain_delivered`]; the open-loop synthetic-traffic driver in
//! [`crate::sim`] and the CMP simulator are both built on this interface.
//!
//! # Timing model
//!
//! Two-stage router pipeline plus one cycle of link traversal:
//!
//! * cycle *t*: flit written into an input VC (buffer write; head flits do
//!   route computation and bid for VC allocation the same cycle),
//! * cycle *t+1* (earliest): two-phase switch allocation and switch
//!   traversal,
//! * cycle *t+2*: link traversal; the flit is written into the downstream
//!   buffer at *t+3* relative to its own buffer write... measured from the
//!   winning SA cycle `c`, the downstream buffer write happens at `c+2` and
//!   the credit returns upstream at `c+1`.
//!
//! A contention-free hop therefore costs 3 cycles buffer-to-buffer, which is
//! the reference used by [`Network::ideal_latency`].

mod fault_state;
pub mod snapshot;

#[cfg(feature = "verify")]
pub mod invariant;
#[cfg(feature = "verify")]
pub use invariant::InvariantViolation;

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use rand::Rng;

use crate::config::{lanes, NetworkConfig};
use crate::error::ConfigError;
use crate::fault::{
    DropReason, DroppedPacket, FaultCounters, FaultKind, FaultPlan, RecoveryCounters,
    UnrecoverableFault,
};
use crate::packet::{Flit, Packet, PacketClass};
use crate::profile::{maybe_now, ProfileReport, Stage, StageProfiler};
use crate::router::arbiter::RrArbiter;
use crate::router::{OutputPort, OutputTarget, OutputVc, RouterState};
use crate::routing::{RoutingKind, VcClass};
use crate::sched::{SchedReport, WakeReason};
use crate::stats::{NetStats, PacketRecord};
use crate::topology::{PortKind, TopologyGraph};
use crate::trace::{FaultUnit, TraceEvent, TraceSink};
use crate::types::{Bits, Cycle, LinkId, NodeId, PacketId, PortId, RouterId, VcId};

use fault_state::{E2eState, FarEvent, FaultState, ReplayEntry, Retained};

/// Point-in-time liveness snapshot (see [`Network::diagnostics`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Diagnostics {
    /// Packets queued or flying.
    pub in_flight: usize,
    /// Packets still waiting in source queues.
    pub source_queued: usize,
    /// Flits resident in router buffers.
    pub buffered_flits: u32,
    /// Age (cycles) of the oldest unfinished packet.
    pub oldest_packet_age: Cycle,
    /// Longest time any head flit has been waiting without moving —
    /// a growing value across successive snapshots indicates a stall.
    pub max_head_wait: u32,
}

/// Diagnostic produced when a run stops making progress (see
/// [`Network::stall_report`] and the watchdog in [`crate::sim`]): the oldest
/// unfinished packets, where each one is stuck, and the input VCs whose head
/// flits have waited longest without moving.
#[derive(Clone, Debug)]
pub struct StallReport {
    /// Cycle the report was taken.
    pub cycle: Cycle,
    /// Unfinished packets at that point.
    pub in_flight: usize,
    /// The oldest unfinished packets (up to 8), oldest first.
    pub stuck: Vec<StuckPacket>,
    /// Input VCs with the longest-waiting head flits (up to 8).
    pub blocked: Vec<BlockedChannel>,
    /// What the stalled workload says about its own state, one line per
    /// item (a CMP's stuck cores and busy banks); empty for open-loop
    /// traffic.
    pub workload: Vec<String>,
}

/// One stuck packet in a [`StallReport`].
#[derive(Clone, Debug)]
pub struct StuckPacket {
    /// The packet.
    pub packet: PacketId,
    /// Source and destination nodes.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Cycles since the packet was enqueued.
    pub age: Cycle,
    /// Where its flits sit, e.g. `"r3.p1.v0"` or `"queued at n5"`.
    pub location: String,
}

/// One blocked input VC in a [`StallReport`].
#[derive(Clone, Copy, Debug)]
pub struct BlockedChannel {
    /// Router owning the input VC.
    pub router: RouterId,
    /// The input port.
    pub port: PortId,
    /// The VC index.
    pub vc: VcId,
    /// Cycles its head flit has waited without moving.
    pub head_wait: u32,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "no progress at cycle {}: {} packets in flight",
            self.cycle, self.in_flight
        )?;
        for s in &self.stuck {
            writeln!(
                f,
                "  {} ({} -> {}) stuck for {} cycles at {}",
                s.packet, s.src, s.dst, s.age, s.location
            )?;
        }
        for b in &self.blocked {
            writeln!(
                f,
                "  {}.{}.{} head blocked for {} cycles",
                b.router, b.port, b.vc, b.head_wait
            )?;
        }
        for line in &self.workload {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// A packet that completed delivery (tail flit ejected).
#[derive(Clone, Copy, Debug)]
pub struct Delivered {
    /// The original packet (including the client `tag`).
    pub packet: Packet,
    /// Cycle the head flit left the source node.
    pub inject: Cycle,
    /// Cycle the tail flit was ejected at the destination.
    pub retire: Cycle,
}

#[derive(Clone, Copy, Debug)]
enum Upstream {
    Router(RouterId, PortId),
    Node(NodeId),
}

#[derive(Clone, Debug)]
enum Event {
    FlitArrive {
        router: RouterId,
        port: PortId,
        vc: VcId,
        flit: Flit,
    },
    Credit {
        up: Upstream,
        vc: VcId,
    },
    Retire {
        flit: Flit,
    },
    /// Fault mode only: a flit transmission reaching the far end of a link.
    /// Unlike `FlitArrive` it may be corrupted (detected by the modeled CRC)
    /// or a stale go-back-N copy, and is acknowledged either way.
    LinkArrive {
        link: LinkId,
        seq: u64,
        corrupted: bool,
        router: RouterId,
        port: PortId,
        vc: VcId,
        flit: Flit,
    },
    /// Fault mode only: receiver accepted sequence `seq` on `link`.
    Ack {
        link: LinkId,
        seq: u64,
    },
    /// Fault mode only: receiver saw a corrupted flit with sequence `seq`.
    Nack {
        link: LinkId,
        seq: u64,
    },
}

#[derive(Clone, Debug)]
struct PacketMeta {
    packet: Packet,
    inject: Cycle,
    received: u32,
    total: u32,
    measured: bool,
}

#[derive(Clone, Debug)]
struct Sending {
    vc: VcId,
    flits: VecDeque<Flit>,
}

#[derive(Clone, Debug)]
struct NodeState {
    router: RouterId,
    port: PortId,
    lanes: usize,
    queue: VecDeque<Packet>,
    sending: Option<Sending>,
    /// Node-side view of the router's local-input VCs.
    vcs: Vec<OutputVc>,
    rr_vc: RrArbiter,
}

/// Maximum event-schedule horizon (flit arrivals at +2 are the farthest).
const WHEEL: usize = 3;

/// A port's stage-1 switch-allocation nomination.
#[derive(Clone, Copy, Debug, Default)]
struct Nomination {
    /// The nominated input VC.
    vc: usize,
    /// The VC can also supply its next same-packet flit (wide output).
    pair: bool,
    /// Another VC of the port eligible for the same wide output.
    alt: Option<usize>,
}

/// Input ports that have sent one / two flits through the switch this
/// cycle (a port's split datapath supplies at most two).
#[derive(Clone, Copy, Debug, Default)]
struct PortSends {
    once: u64,
    twice: u64,
}

impl PortSends {
    fn send(&mut self, p: usize) {
        let bit = 1u64 << p;
        self.twice |= self.once & bit;
        self.once |= bit;
    }
}

/// Bitmask allocation state of the router being visited, reused across
/// visits so the allocators allocate nothing. Sized once, in
/// [`Network::new`], for the widest router; a visit uses the leading
/// entries. Flat input-VC index is `port * vcs_per_port + vc`;
/// [`NetworkConfig::validate`] bounds it below 128 and ports below 64, so
/// the masks always fit.
#[derive(Debug)]
struct AllocScratch {
    /// VA, per output: flat input VCs whose ungranted head flit bids for
    /// a downstream VC there. All zero between visits: VA takes each
    /// entry RC set.
    va_req: Vec<u128>,
    /// SA, per flat input VC: the output its front flit can take this
    /// cycle. Valid only for the VCs of the visit's `eligible` masks.
    sa_out: Vec<u8>,
    /// SA, per input port: its VCs that can send this cycle, as a mask
    /// over the port's VCs. Valid only for ports holding one.
    eligible: Vec<u128>,
    /// SA, per output: input ports holding a VC eligible for it.
    sa_reach: Vec<u64>,
    /// SA, per output: input ports whose stage-1 nominee targets it.
    sa_nom: Vec<u64>,
    /// SA, per input port: its stage-1 nomination (valid where `sa_nom`
    /// has the port's bit).
    nominee: Vec<Nomination>,
}

impl AllocScratch {
    /// Scratch for routers of up to `ports` ports and `vcs` input VCs.
    fn new(ports: usize, vcs: usize) -> Self {
        Self {
            va_req: vec![0; ports],
            sa_out: vec![0; vcs],
            eligible: vec![0; ports],
            sa_reach: vec![0; ports],
            sa_nom: vec![0; ports],
            nominee: vec![Nomination::default(); ports],
        }
    }
}

/// Hasher for the engine's own packet ids: one multiply by the 64-bit
/// golden ratio (Fibonacci hashing). The ids are a sequential counter, so
/// SipHash's defence against chosen keys buys nothing, and the table's
/// iteration order is never observed (see `in_flight`).
#[derive(Clone, Copy, Debug, Default)]
struct PacketIdHasher(u64);

impl Hasher for PacketIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b) ^ self.0.rotate_left(8));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Packet-keyed map of the engine's packets.
type PacketMap<V> = HashMap<PacketId, V, BuildHasherDefault<PacketIdHasher>>;

/// The simulated network.
pub struct Network {
    cfg: NetworkConfig,
    graph: TopologyGraph,
    link_lanes: Vec<usize>,
    link_wide: Vec<bool>,
    routers: Vec<RouterState>,
    /// Who feeds each input port (`upstream[router][port]`): where a flit
    /// leaving that port's buffer returns its credit.
    upstream: Vec<Vec<Upstream>>,
    nodes: Vec<NodeState>,
    now: Cycle,
    wheel: [Vec<Event>; WHEEL],
    /// Packets from enqueue to retirement. Only point lookups and
    /// order-free scans read it (a checkpoint sorts it by id, diagnostics
    /// take a maximum, the stall report sorts), so its hasher is free to
    /// be fast.
    in_flight: PacketMap<PacketMeta>,
    next_packet: usize,
    stats: NetStats,
    delivered: Vec<Delivered>,
    /// Fault-injection state; `None` keeps the engine on its exact
    /// fault-free fast path (no per-cycle overhead, identical schedules).
    faults: Option<Box<FaultState>>,
    /// Flit-level event sink; `None` means each emission site costs one
    /// `is_some()` branch and builds no event value.
    tracer: Option<Box<dyn TraceSink>>,
    /// Per-stage wall-time profiler; `None` means [`std::time::Instant`]
    /// is never consulted on the hot path.
    profiler: Option<Box<StageProfiler>>,
    /// Scheduler and work counters (see [`crate::sched`]): observability
    /// only, never in a checkpoint and never read back by the engine. The
    /// sweep JSON publishes the cycle, visit and wake fields, so the
    /// benchmark's `ur_sweep` digest hashes them.
    sched: SchedReport,
    // Scratch buffers reused across cycles to avoid per-cycle allocation.
    scratch_events: Vec<Event>,
    alloc: AllocScratch,
    /// Spare wheel-slot storage so the per-cycle `mem::take` of the due
    /// slot does not discard its capacity.
    wheel_spare: Vec<Event>,
}

impl Network {
    /// Builds a network from `cfg`.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] when the configuration fails
    /// [`NetworkConfig::validate`].
    pub fn new(cfg: NetworkConfig) -> Result<Self, ConfigError> {
        let graph = cfg.build_graph();
        cfg.validate(&graph)?;
        let widths = cfg.link_widths.resolve(&graph);
        let link_lanes: Vec<usize> = widths.iter().map(|w| lanes(*w, cfg.flit_width)).collect();
        let link_wide: Vec<bool> = link_lanes.iter().map(|&l| l > 1).collect();

        let mut routers = Vec::with_capacity(graph.num_routers());
        for (r, rd) in graph.routers().iter().enumerate() {
            let rc = cfg.routers[r];
            let local_lanes = lanes(cfg.local_width(r), cfg.flit_width);
            let outputs: Vec<OutputPort> = rd
                .ports
                .iter()
                .map(|p| match p.kind {
                    PortKind::Local { node } => OutputPort {
                        target: OutputTarget::Sink { node },
                        lanes: local_lanes,
                        vcs: Vec::new(),
                        va_arb: RrArbiter::new(),
                        sa_primary: RrArbiter::new(),
                        sa_secondary: RrArbiter::new(),
                    },
                    PortKind::Link { to, out, .. } => {
                        let down = cfg.routers[to.index()];
                        let dl = graph.links()[out.index()];
                        OutputPort {
                            target: OutputTarget::Channel {
                                link: out,
                                dst: to,
                                dst_port: dl.dst_port,
                            },
                            lanes: link_lanes[out.index()],
                            vcs: vec![
                                OutputVc {
                                    owner: None,
                                    credits: down.buffer_depth as u32,
                                };
                                down.vcs_per_port
                            ],
                            va_arb: RrArbiter::new(),
                            sa_primary: RrArbiter::new(),
                            sa_secondary: RrArbiter::new(),
                        }
                    }
                })
                .collect();
            routers.push(RouterState::new(outputs, rc.vcs_per_port, rc.buffer_depth));
        }
        let upstream = graph
            .routers()
            .iter()
            .map(|rd| {
                rd.ports
                    .iter()
                    .map(|port| match port.kind {
                        PortKind::Local { node } => Upstream::Node(node),
                        PortKind::Link { into, .. } => {
                            let l = graph.links()[into.index()];
                            Upstream::Router(l.src, l.src_port)
                        }
                    })
                    .collect()
            })
            .collect();

        let nodes: Vec<NodeState> = graph
            .nodes()
            .iter()
            .map(|at| {
                let r = at.router.index();
                NodeState {
                    router: at.router,
                    port: at.port,
                    lanes: lanes(cfg.local_width(r), cfg.flit_width),
                    queue: VecDeque::new(),
                    sending: None,
                    vcs: vec![
                        OutputVc {
                            owner: None,
                            credits: cfg.routers[r].buffer_depth as u32,
                        };
                        cfg.routers[r].vcs_per_port
                    ],
                    rr_vc: RrArbiter::new(),
                }
            })
            .collect();

        let slots: Vec<u32> = routers.iter().map(|r| r.capacity).collect();
        let vc_counts: Vec<u32> = routers.iter().map(|r| r.inputs.len() as u32).collect();
        let widest = routers.iter().map(|r| r.outputs.len()).max().unwrap_or(0);
        let alloc = AllocScratch::new(widest, vc_counts.iter().max().map_or(0, |&v| v as usize));
        let stats = NetStats::new(graph.num_routers(), graph.num_links(), slots, vc_counts);
        Ok(Self {
            cfg,
            graph,
            link_lanes,
            link_wide,
            routers,
            upstream,
            nodes,
            now: 0,
            wheel: [Vec::new(), Vec::new(), Vec::new()],
            in_flight: PacketMap::default(),
            next_packet: 0,
            stats,
            delivered: Vec::new(),
            faults: None,
            tracer: None,
            profiler: None,
            sched: SchedReport::default(),
            scratch_events: Vec::with_capacity(4),
            alloc,
            wheel_spare: Vec::new(),
        })
    }

    /// Builds a network with the fault-injection layer attached.
    ///
    /// A benign plan (zero error rates, no hard faults) produces runs
    /// cycle-identical to [`Network::new`]: the fault layer draws from its
    /// own RNG and only perturbs schedules when a fault actually fires.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] when the configuration is invalid or the
    /// plan references links/routers outside the topology (or has an
    /// out-of-range probability / zero retry limit).
    pub fn with_faults(cfg: NetworkConfig, plan: FaultPlan) -> Result<Self, ConfigError> {
        let mut net = Self::new(cfg)?;
        plan.validate(net.graph.num_links(), net.graph.num_routers())?;
        net.faults = Some(Box::new(net.fault_state(plan)));
        Ok(net)
    }

    /// Fresh fault state for `plan`, which must be valid for this network.
    fn fault_state(&self, plan: FaultPlan) -> FaultState {
        let vcs: Vec<usize> = (0..self.graph.num_routers())
            .map(|r| self.cfg.routers[r].vcs_per_port)
            .collect();
        FaultState::new(plan, &self.graph, self.cfg.flit_width, &vcs)
    }

    /// Current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The elaborated topology.
    pub fn graph(&self) -> &TopologyGraph {
        &self.graph
    }

    /// The configuration the network was built from.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Which links are wide (more than one flit lane).
    pub fn wide_links(&self) -> &[bool] {
        &self.link_wide
    }

    /// Lanes of each link.
    pub fn link_lanes(&self) -> &[usize] {
        &self.link_lanes
    }

    /// Opens the measured window: [`NetStats`]' window readings count from
    /// here on, and packets enqueued from here on are latency-tracked.
    /// Only the first call takes the baseline; later calls change nothing.
    pub fn start_measuring(&mut self) {
        self.stats.start_measuring();
    }

    /// Scheduler statistics accumulated so far (cycles skipped, router
    /// visits avoided, wake-set size histogram). Available without
    /// enabling profiling; also embedded in [`ProfileReport::sched`].
    pub fn sched_report(&self) -> SchedReport {
        self.sched
    }

    /// True when the network can make no progress on its own: no fault
    /// layer (whose far-event timers could fire), no packet in flight and
    /// no event in the wheel. A packet is in flight from enqueue to
    /// retirement, so with none every source is idle and every router
    /// empty, and stepping the network runs the whole pipeline to no
    /// effect — the basis for the quiet-gap fast path.
    pub fn quiescent(&self) -> bool {
        self.faults.is_none() && self.in_flight.is_empty() && self.wheel.iter().all(Vec::is_empty)
    }

    /// Advances one globally-quiet cycle without running the pipeline.
    /// Byte-identical to [`Network::step`] on a [`Network::quiescent`]
    /// network: the only observable effects of a full step in that state
    /// are the cycle counter (the integrals accumulate zeros) and the
    /// profiler step count — both replicated here.
    pub(crate) fn idle_step(&mut self) {
        debug_assert!(self.quiescent(), "idle_step on a non-quiescent network");
        self.stats.counts.cycles += 1;
        if let Some(p) = self.profiler.as_deref_mut() {
            p.note_step();
        }
        self.sched.note_idle_cycle(self.routers.len());
        self.now += 1;
    }

    /// True when a bulk quiet-gap jump would be observationally identical
    /// to walking the gap cycle by cycle: no trace sink attached.
    pub(crate) fn can_skip_quiet(&self) -> bool {
        self.tracer.is_none()
    }

    /// Fast-forwards `delta` globally-quiet cycles in one jump. Callers
    /// must ensure the network is [`Network::quiescent`] and stays that
    /// way for the whole gap (no injection can fire, no epoch boundary or
    /// trace output falls inside it — the driver in [`crate::sim`] checks
    /// all of this and also replays the per-cycle RNG draws).
    pub(crate) fn skip_quiet(&mut self, delta: Cycle) {
        debug_assert!(self.quiescent(), "skip_quiet on a non-quiescent network");
        debug_assert!(self.tracer.is_none());
        self.stats.counts.cycles += delta;
        if let Some(p) = self.profiler.as_deref_mut() {
            p.note_steps(delta);
        }
        self.sched.note_jump(delta, self.routers.len());
        self.now += delta;
    }

    /// Installs a flit-level [`TraceSink`]; every lifecycle event from the
    /// next [`Network::step`] on is delivered to it. Tracing observes the
    /// engine without touching schedules or RNG draws, so a traced run is
    /// cycle-identical to an untraced one.
    pub(crate) fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer = Some(sink);
    }

    /// Finalizes and drops the installed trace sink (calls
    /// [`TraceSink::finish`] exactly once). No-op without a sink.
    pub(crate) fn finish_trace(&mut self) {
        if let Some(mut sink) = self.tracer.take() {
            sink.finish();
        }
    }

    /// Starts accumulating per-pipeline-stage wall time (see
    /// [`crate::profile`]). Idempotent; the existing counters are kept.
    pub(crate) fn enable_profiling(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(Box::new(StageProfiler::new()));
        }
    }

    /// Stops profiling and returns the accumulated breakdown (with the
    /// scheduler counters embedded), or `None` when profiling was never
    /// enabled.
    pub(crate) fn take_profile(&mut self) -> Option<ProfileReport> {
        self.profiler.take().map(|p| {
            let mut report = p.report();
            report.sched = self.sched;
            report
        })
    }

    /// Delivers `ev` to the installed sink. Call sites guard with
    /// `self.tracer.is_some()` so the event value is never built when
    /// tracing is off.
    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.event(&ev);
        }
    }

    /// Starts a stage timer iff profiling is on (no `Instant::now` otherwise).
    #[inline]
    fn prof_start(&self) -> Option<std::time::Instant> {
        maybe_now(self.profiler.is_some())
    }

    /// Charges the time since `since` to `stage` and restarts the timer.
    #[inline]
    fn prof_lap(
        &mut self,
        since: Option<std::time::Instant>,
        stage: Stage,
    ) -> Option<std::time::Instant> {
        let t0 = since?;
        let now = std::time::Instant::now();
        if let Some(p) = self.profiler.as_deref_mut() {
            p.add(stage, now.duration_since(t0));
        }
        Some(now)
    }

    /// Statistics: counters kept from cycle 0, read over the measured
    /// window (see [`Network::start_measuring`]).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// End-to-end recovery state, if the plan enables it.
    #[inline]
    fn e2e(&self) -> Option<&E2eState> {
        self.faults.as_ref().and_then(|f| f.e2e.as_deref())
    }

    /// True when `id` was abandoned to dead equipment: its frozen flits keep
    /// the tracking entry alive, but the packet can make no progress and a
    /// fresh copy is (or was) the source's responsibility.
    #[inline]
    fn is_zombie(&self, id: PacketId) -> bool {
        self.e2e()
            .is_some_and(|e| !e.zombies.is_empty() && e.zombies.contains(&id))
    }

    /// Packets currently queued or flying. Packets abandoned to dead
    /// equipment under end-to-end recovery are excluded: they can never
    /// finish and their fate is accounted through the recovery layer.
    pub fn in_flight(&self) -> usize {
        let zombies = self.e2e().map_or(0, |e| e.zombies.len());
        self.in_flight.len() - zombies
    }

    /// Packets retained at their sources awaiting an end-to-end ack (zero
    /// without recovery). A run has fully settled only when both this and
    /// [`Network::in_flight`] reach zero.
    pub fn recovery_pending(&self) -> usize {
        self.e2e().map_or(0, E2eState::pending)
    }

    /// End-to-end recovery counters (all zero without recovery).
    pub fn recovery_counters(&self) -> RecoveryCounters {
        self.e2e().map(|e| e.counters).unwrap_or_default()
    }

    /// Takes all completions since the previous call.
    pub fn drain_delivered(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered)
    }

    /// Takes all packets dropped by the fault layer since the previous call
    /// (unreachable destinations, dead endpoints). Empty without faults.
    pub fn drain_dropped(&mut self) -> Vec<DroppedPacket> {
        self.faults
            .as_mut()
            .map_or_else(Vec::new, |f| std::mem::take(&mut f.dropped))
    }

    /// The fault plan this network runs under, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| &f.plan)
    }

    /// Fault-campaign counters (all zero without faults).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults.as_ref().map(|f| f.counters).unwrap_or_default()
    }

    /// The first unrecoverable fault hit, if any. Once set, the affected
    /// link has given up retrying and the run should be aborted.
    pub fn fault_error(&self) -> Option<UnrecoverableFault> {
        self.faults.as_ref().and_then(|f| f.error)
    }

    /// Links killed by hard faults so far (both directions of each failed
    /// physical channel).
    pub fn dead_links(&self) -> &[LinkId] {
        self.faults.as_ref().map_or(&[], |f| &f.dead_links)
    }

    /// Routers killed by hard faults so far.
    pub fn dead_routers(&self) -> &[RouterId] {
        self.faults.as_ref().map_or(&[], |f| &f.dead_routers)
    }

    /// True once a hard fault has invalidated the installed routing;
    /// reading it clears the flag. Clients regenerate a table around
    /// [`Network::dead_links`] / [`Network::dead_routers`] (see
    /// [`crate::routing::degraded::degraded_routing`]), verify it, and
    /// hand it to [`Network::install_routing`].
    pub fn take_routing_stale(&mut self) -> bool {
        self.faults
            .as_mut()
            .is_some_and(|f| std::mem::take(&mut f.routing_stale))
    }

    /// Replaces the routing algorithm mid-run (graceful degradation).
    ///
    /// Heads that computed a route under the old algorithm but have not won
    /// a downstream VC yet are re-routed; granted packets finish on their
    /// old paths (wormhole grants cannot be revoked mid-packet). Packets
    /// being absorbed as unreachable get one more routing attempt if their
    /// head flit is still intact.
    pub fn install_routing(&mut self, routing: RoutingKind) {
        self.cfg.routing = routing;
        for router in &mut self.routers {
            for i in 0..router.inputs.len() {
                let vc = &router.inputs[i];
                if vc.route().is_some() && vc.out_vc().is_none() {
                    router.forget_route(i);
                }
            }
        }
        let routers = &self.routers;
        if let Some(fs) = self.faults.as_mut() {
            // Only VCs whose head flit is still at the front can change
            // their mind; mid-absorb packets must finish draining.
            fs.absorbing.retain(|&(r, p, v)| {
                let router = &routers[r.index()];
                router.head_front() & (1 << router.flat(p, v)) == 0
            });
        }
    }

    /// Liveness/debug snapshot of the network state: useful as a watchdog
    /// when a client loop suspects a stall ("is the network making
    /// progress, and where is it stuck?").
    pub fn diagnostics(&self) -> Diagnostics {
        let queued: usize = self.nodes.iter().map(|n| n.queue.len()).sum();
        let occupancy: u32 = self.routers.iter().map(RouterState::occupancy).sum();
        let oldest_packet_age = self
            .in_flight
            .values()
            .filter(|m| !self.is_zombie(m.packet.id))
            .map(|m| self.now.saturating_sub(m.packet.birth))
            .max()
            .unwrap_or(0);
        let max_head_wait = self
            .routers
            .iter()
            .flat_map(|r| &r.inputs)
            .map(|vc| vc.head_wait)
            .max()
            .unwrap_or(0);
        Diagnostics {
            in_flight: self.in_flight(),
            source_queued: queued,
            buffered_flits: occupancy,
            oldest_packet_age,
            max_head_wait,
        }
    }

    /// Snapshot of *where* the network is stuck: the oldest unfinished
    /// packets with their current locations, plus the input VCs whose head
    /// flits have waited longest. Used by the simulation watchdog to turn
    /// "no forward progress" into an actionable diagnostic instead of a
    /// hang.
    pub fn stall_report(&self) -> StallReport {
        let mut metas: Vec<_> = self
            .in_flight
            .values()
            .filter(|m| !self.is_zombie(m.packet.id))
            .collect();
        metas.sort_by_key(|m| (m.packet.birth, m.packet.id));
        let stuck = metas
            .iter()
            .take(8)
            .map(|m| StuckPacket {
                packet: m.packet.id,
                src: m.packet.src,
                dst: m.packet.dst,
                age: self.now.saturating_sub(m.packet.birth),
                location: self.locate_packet(m.packet.id, m.packet.src),
            })
            .collect();
        let mut blocked: Vec<BlockedChannel> = Vec::new();
        for (r, router) in self.routers.iter().enumerate() {
            for (i, vc) in router.inputs.iter().enumerate() {
                if vc.head_wait > 0 && !vc.fifo().is_empty() {
                    let (port, vc_id) = router.port_vc(i);
                    blocked.push(BlockedChannel {
                        router: RouterId(r),
                        port,
                        vc: vc_id,
                        head_wait: vc.head_wait,
                    });
                }
            }
        }
        blocked.sort_by_key(|b| std::cmp::Reverse(b.head_wait));
        blocked.truncate(8);
        StallReport {
            cycle: self.now,
            in_flight: self.in_flight(),
            stuck,
            blocked,
            workload: Vec::new(),
        }
    }

    fn locate_packet(&self, id: PacketId, src: NodeId) -> String {
        for (r, router) in self.routers.iter().enumerate() {
            for (i, vc) in router.inputs.iter().enumerate() {
                if vc.fifo().iter().any(|f| f.packet == id) {
                    let (p, v) = router.port_vc(i);
                    return format!("r{r}.p{}.v{}", p.index(), v.index());
                }
            }
        }
        let n = &self.nodes[src.index()];
        let queued = n.queue.iter().any(|pk| pk.id == id)
            || n.sending
                .as_ref()
                .is_some_and(|s| s.flits.front().is_some_and(|f| f.packet == id));
        if queued {
            return format!("queued at {src}");
        }
        if let Some(fs) = self.faults.as_ref() {
            for (l, lt) in fs.links.iter().enumerate() {
                if lt.replay.iter().any(|e| e.flit.packet == id) {
                    return format!("replay buffer of l{l}");
                }
            }
        }
        "on a link".to_string()
    }

    /// Enqueues a packet at `src`'s source queue; returns its id.
    ///
    /// The source queue is unbounded (clients model finite request windows
    /// themselves, e.g. via MSHR counts).
    ///
    /// # Panics
    /// Panics if `src` or `dst` is out of range or `size` is zero.
    pub fn enqueue(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size: Bits,
        class: PacketClass,
        tag: u64,
    ) -> PacketId {
        assert!(src.index() < self.nodes.len(), "src out of range");
        assert!(dst.index() < self.nodes.len(), "dst out of range");
        assert!(size.get() > 0, "packet size must be non-zero");
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        let packet = Packet {
            id,
            src,
            dst,
            size,
            class,
            tag,
            birth: self.now,
        };
        let total = size.flits(self.cfg.flit_width);
        self.in_flight.insert(
            id,
            PacketMeta {
                packet,
                inject: self.now,
                received: 0,
                total,
                measured: self.stats.measuring(),
            },
        );
        self.stats.counts.packets_offered += 1;
        self.nodes[src.index()].queue.push_back(packet);
        id
    }

    /// Contention-free reference latency in cycles for a `flits`-flit packet
    /// from `src` to `dst`: `3·hops + 4 + ceil((flits-1)/b)` where `b` is
    /// the bottleneck lane count along the dimension-order path (including
    /// the injection and ejection ports).
    pub fn ideal_latency(&self, src: NodeId, dst: NodeId, flits: u32) -> u64 {
        let hops = self.graph.route_hops(src, dst) as u64;
        let b = self.path_min_lanes(src, dst).max(1) as u64;
        3 * hops + 4 + (u64::from(flits) - 1).div_ceil(b)
    }

    fn path_min_lanes(&self, src: NodeId, dst: NodeId) -> usize {
        let src_at = self.graph.attachment(src);
        let dst_at = self.graph.attachment(dst);
        let mut min = self.nodes[src.index()]
            .lanes
            .min(self.routers[dst_at.router.index()].outputs[dst_at.port.index()].lanes);
        let mut cur = src_at.router;
        let routing = RoutingKind::DimensionOrder;
        while cur != dst_at.router {
            let rc = routing
                .route(&self.graph, cur, src, dst, false, false)
                .expect("not at destination");
            let out = self.graph.out_link(cur, rc.port).expect("channel port");
            min = min.min(self.link_lanes[out.index()]);
            cur = match self.graph.router(cur).ports[rc.port.index()].kind {
                PortKind::Link { to, .. } => to,
                PortKind::Local { .. } => unreachable!("route() returns link ports"),
            };
        }
        min
    }

    fn schedule(&mut self, delay: u64, ev: Event) {
        debug_assert!(delay >= 1 && (delay as usize) < WHEEL + 1);
        let idx = ((self.now + delay) % WHEEL as u64) as usize;
        self.wheel[idx].push(ev);
        self.sched.wheel_events += 1;
    }

    /// Advances the simulation by one cycle.
    ///
    /// The allocation phases visit routers in ascending index order and
    /// skip those that hold no flit (see [`crate::sched`] for why that is
    /// a no-op). Within a visit they touch only the VCs and outputs that
    /// hold work (see `rc_and_va` and `switch_alloc`).
    pub fn step(&mut self) {
        let t = self.prof_start();
        if self.faults.is_some() {
            self.apply_hard_faults();
            self.drain_far_events();
        }
        let t = self.prof_lap(t, Stage::LinkTraverse);
        let idx = (self.now % WHEEL as u64) as usize;
        // Swap the due slot against the spare vec so its capacity is kept.
        let mut events =
            std::mem::replace(&mut self.wheel[idx], std::mem::take(&mut self.wheel_spare));
        for ev in events.drain(..) {
            self.deliver(ev);
        }
        self.wheel_spare = events;
        let t = self.prof_lap(t, Stage::BufferWrite);
        if self.faults.is_some() {
            self.process_absorbing();
        }
        let t = self.prof_lap(t, Stage::LinkTraverse);
        for n in 0..self.nodes.len() {
            self.node_inject(n);
        }
        let _ = self.prof_lap(t, Stage::Inject);
        // Every flit of this cycle has been written. Empty routers have
        // nothing to route, allocate or traverse, and dead routers are
        // frozen (fail-stop), so the walk skips both. Switch allocation
        // only removes flits, so an empty router also adds nothing to the
        // occupancy integrals: the second walk accumulates them for every
        // router that holds flits after its traversals, frozen ones too.
        let total = self.routers.len();
        let mut visits = 0usize;
        for r in 0..total {
            if self.routers[r].occupancy() > 0 && !self.router_dead(r) {
                visits += 1;
                self.rc_and_va(r);
            }
        }
        for r in 0..total {
            if self.routers[r].occupancy() == 0 {
                continue;
            }
            if !self.router_dead(r) {
                self.switch_alloc(r);
            }
            let t = self.prof_start();
            let router = &self.routers[r];
            let c = &mut self.stats.counts;
            c.buffer_occ[r] += u64::from(router.occupancy());
            c.vc_busy[r] += u64::from(router.busy_vcs());
            let _ = self.prof_lap(t, Stage::Stats);
        }
        self.sched.note_full_cycle(visits, total);
        // rc_and_va / switch_alloc charge RC/VA/SA/ST internally.
        self.stats.counts.cycles += 1;
        if let Some(p) = self.profiler.as_deref_mut() {
            p.note_step();
        }
        self.now += 1;
    }

    fn deliver(&mut self, ev: Event) {
        match ev {
            Event::FlitArrive {
                router,
                port,
                vc,
                flit,
            } => {
                // A flit of an abandoned packet arriving at a live router is
                // squashed on arrival: counted as absorbed, its buffer slot
                // credited straight back. (At a dead router it freezes in
                // the buffer like everything else there.) Under recovery,
                // `FlitArrive` only carries node-injected flits —
                // router-to-router traffic travels as `LinkArrive`.
                if !self.router_dead(router.index()) && self.is_zombie(flit.packet) {
                    let up = self.upstream[router.index()][port.index()];
                    let fs = self.faults.as_mut().expect("zombies imply fault mode");
                    *fs.absorbed.entry(flit.packet).or_insert(0) += 1;
                    self.schedule(1, Event::Credit { up, vc });
                    return;
                }
                self.buffer_write(router, port, vc, flit, WakeReason::FlitArrive);
            }
            Event::Credit { up, vc } => match up {
                Upstream::Router(r, p) => {
                    self.routers[r.index()].return_credit(p.index(), vc.index());
                }
                Upstream::Node(n) => {
                    self.nodes[n.index()].vcs[vc.index()].credits += 1;
                }
            },
            Event::Retire { flit } => self.retire_flit(flit),
            Event::LinkArrive {
                link,
                seq,
                corrupted,
                router,
                port,
                vc,
                flit,
            } => self.link_arrive(link, seq, corrupted, router, port, vc, flit),
            Event::Ack { link, seq } => self.link_ack(link, seq),
            Event::Nack { link, seq } => self.link_nack(link, seq),
        }
    }

    /// Stage-1 buffer write: `flit` enters input VC `(port, vc)` of
    /// `router`, which wakes for `reason` if it was empty.
    fn buffer_write(
        &mut self,
        router: RouterId,
        port: PortId,
        vc: VcId,
        mut flit: Flit,
        reason: WakeReason,
    ) {
        flit.buffered = self.now;
        let r = &mut self.routers[router.index()];
        if r.occupancy() == 0 {
            self.sched.note_wake(reason);
        }
        let i = r.flat(port, vc);
        r.push(i, flit);
        debug_assert!(
            r.inputs[i].fifo().len() <= self.cfg.routers[router.index()].buffer_depth,
            "buffer overflow at {router} {port} {vc}: credit protocol violated"
        );
        self.stats.counts.routers[router.index()].buffer_writes += 1;
        if self.tracer.is_some() {
            self.emit(TraceEvent::BufferWrite {
                cycle: self.now,
                router,
                port,
                vc,
                packet: flit.packet,
                seq: flit.seq,
            });
        }
    }

    fn router_dead(&self, r: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| f.router_dead[r])
    }

    /// Sends `flit` over `link` under the fault model: assign a sequence
    /// number, keep a replay copy, draw the corruption coin, and arm the
    /// retry timeout if the replay window was empty.
    fn fault_send(&mut self, link: LinkId, dst: RouterId, dst_port: PortId, vc: VcId, flit: Flit) {
        let now = self.now;
        let fs = self.faults.as_mut().expect("fault-mode send");
        let li = link.index();
        let seq = fs.links[li].tx_seq;
        fs.links[li].tx_seq += 1;
        let was_empty = fs.links[li].replay.is_empty();
        fs.links[li].replay.push_back(ReplayEntry { seq, vc, flit });
        fs.links[li].in_transit[vc.index()] += 1;
        let p = fs.p_flit[li];
        let corrupted = p > 0.0 && fs.rng.random::<f64>() < p;
        if was_empty {
            fs.links[li].attempts = 1;
            let epoch = fs.links[li].epoch;
            let timeout = fs.plan.retry.timeout;
            fs.schedule_far(now + timeout, FarEvent::Timeout { link, epoch });
        }
        self.schedule(
            2,
            Event::LinkArrive {
                link,
                seq,
                corrupted,
                router: dst,
                port: dst_port,
                vc,
                flit,
            },
        );
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Event::LinkArrive payload
    fn link_arrive(
        &mut self,
        link: LinkId,
        seq: u64,
        corrupted: bool,
        router: RouterId,
        port: PortId,
        vc: VcId,
        flit: Flit,
    ) {
        enum Verdict {
            Drop,
            Nack,
            Accept,
        }
        let squash = self.is_zombie(flit.packet);
        let verdict = {
            let fs = self.faults.as_mut().expect("fault event without faults");
            let li = link.index();
            if fs.router_dead[router.index()] {
                // Fail-stop receiver: everything vanishes (no ack, no nack);
                // the sender times out and eventually exhausts its retries.
                fs.counters.flits_lost_dead_router += 1;
                Verdict::Drop
            } else if seq != fs.links[li].rx_expected {
                // Go-back-N: a copy behind a corrupted flit, discarded.
                Verdict::Drop
            } else if corrupted {
                fs.counters.flits_corrupted += 1;
                Verdict::Nack
            } else {
                fs.links[li].rx_expected += 1;
                let it = &mut fs.links[li].in_transit[vc.index()];
                debug_assert!(*it > 0, "accepted flit was never counted in transit");
                *it -= 1;
                Verdict::Accept
            }
        };
        match verdict {
            Verdict::Drop => {}
            Verdict::Nack => {
                self.schedule(1, Event::Nack { link, seq });
                if self.tracer.is_some() {
                    self.emit(TraceEvent::Fault {
                        cycle: self.now,
                        unit: FaultUnit::Corrupt { link },
                    });
                }
            }
            Verdict::Accept => {
                self.schedule(1, Event::Ack { link, seq });
                // An accepted flit of an abandoned packet is squashed
                // instead of buffered: the link protocol advances normally
                // (ack sent, sequence consumed) but the flit is counted as
                // absorbed and its reserved buffer slot credited back.
                if squash {
                    let up = self.upstream[router.index()][port.index()];
                    let fs = self.faults.as_mut().expect("fault event without faults");
                    *fs.absorbed.entry(flit.packet).or_insert(0) += 1;
                    self.schedule(1, Event::Credit { up, vc });
                    return;
                }
                self.buffer_write(router, port, vc, flit, WakeReason::LinkArrive);
            }
        }
    }

    fn link_ack(&mut self, link: LinkId, seq: u64) {
        let now = self.now;
        let fs = self.faults.as_mut().expect("fault event without faults");
        let li = link.index();
        if fs.links[li].replay.front().map(|e| e.seq) != Some(seq) {
            return; // stale ack of an already-popped retransmission
        }
        fs.links[li].replay.pop_front();
        fs.links[li].epoch += 1;
        fs.links[li].attempts = 1;
        fs.links[li].backoff_until = 0;
        if !fs.links[li].replay.is_empty() {
            let epoch = fs.links[li].epoch;
            let timeout = fs.plan.retry.timeout;
            fs.schedule_far(now + timeout, FarEvent::Timeout { link, epoch });
        }
    }

    fn link_nack(&mut self, link: LinkId, seq: u64) {
        let now = self.now;
        let fire = {
            let fs = self.faults.as_mut().expect("fault event without faults");
            let li = link.index();
            if fs.links[li].replay.front().map(|e| e.seq) != Some(seq)
                || now < fs.links[li].backoff_until
            {
                false // duplicate of a failure already being retried
            } else {
                fs.counters.retries += 1;
                true
            }
        };
        if fire {
            self.link_retry(link);
        }
    }

    /// Shared retry path for nacks and timeouts: either give up with a
    /// typed [`UnrecoverableFault`], or schedule a backoff-delayed resend
    /// of the replay window.
    fn link_retry(&mut self, link: LinkId) {
        let now = self.now;
        let li = link.index();
        let exhausted = {
            let fs = self.faults.as_ref().expect("fault mode");
            fs.links[li].attempts >= fs.plan.retry.max_attempts
        };
        if exhausted {
            let l = self.graph.links()[li];
            let fs = self.faults.as_mut().expect("fault mode");
            if fs.error.is_none() {
                fs.error = Some(UnrecoverableFault {
                    link,
                    src: l.src,
                    dst: l.dst,
                    attempts: fs.links[li].attempts,
                    cycle: now,
                    packet: fs.links[li].replay.front().map(|e| e.flit.packet),
                });
            }
            return;
        }
        let fs = self.faults.as_mut().expect("fault mode");
        fs.links[li].attempts += 1;
        fs.links[li].epoch += 1;
        let delay = fs.plan.retry.backoff(fs.links[li].attempts - 1);
        let epoch = fs.links[li].epoch;
        fs.links[li].backoff_until = now + delay;
        fs.schedule_far(now + delay, FarEvent::Resend { link, epoch });
    }

    /// Retransmits `link`'s whole replay window (go-back-N) with the
    /// original sequence numbers, then re-arms the retry timeout. A no-op
    /// when `epoch` is stale (an ack made progress after the resend was
    /// scheduled).
    fn link_resend(&mut self, link: LinkId, epoch: u64) {
        let now = self.now;
        let li = link.index();
        let entries: Vec<ReplayEntry> = {
            let fs = self.faults.as_mut().expect("fault mode");
            if fs.links[li].epoch != epoch || fs.links[li].replay.is_empty() {
                return;
            }
            fs.links[li].replay.iter().cloned().collect()
        };
        let l = self.graph.links()[li];
        for e in entries {
            let corrupted = {
                let fs = self.faults.as_mut().expect("fault mode");
                fs.counters.retransmissions += 1;
                let p = fs.p_flit[li];
                p > 0.0 && fs.rng.random::<f64>() < p
            };
            if self.tracer.is_some() {
                self.emit(TraceEvent::Retransmit {
                    cycle: self.now,
                    link,
                    seq: e.seq,
                });
            }
            self.schedule(
                2,
                Event::LinkArrive {
                    link,
                    seq: e.seq,
                    corrupted,
                    router: l.dst,
                    port: l.dst_port,
                    vc: e.vc,
                    flit: e.flit,
                },
            );
        }
        let fs = self.faults.as_mut().expect("fault mode");
        let timeout = fs.plan.retry.timeout;
        let cur_epoch = fs.links[li].epoch;
        fs.schedule_far(
            now + timeout,
            FarEvent::Timeout {
                link,
                epoch: cur_epoch,
            },
        );
    }

    fn drain_far_events(&mut self) {
        let due = {
            let fs = self.faults.as_mut().expect("fault mode");
            if fs.far.first_key_value().is_none_or(|(&c, _)| c > self.now) {
                return;
            }
            fs.due_far(self.now)
        };
        for ev in due {
            match ev {
                FarEvent::Timeout { link, epoch } => {
                    let fire = {
                        let fs = self.faults.as_mut().expect("fault mode");
                        let lt = &fs.links[link.index()];
                        if lt.epoch == epoch && !lt.replay.is_empty() {
                            fs.counters.timeouts += 1;
                            true
                        } else {
                            false
                        }
                    };
                    if fire {
                        self.link_retry(link);
                    }
                }
                FarEvent::Resend { link, epoch } => self.link_resend(link, epoch),
                FarEvent::E2eAck { node, seq } => self.e2e_ack(node, seq),
                FarEvent::E2eTimeout { node, seq, attempt } => self.e2e_timeout(node, seq, attempt),
            }
        }
    }

    /// Delivery ack reaching the source NI: the retained copy is freed.
    fn e2e_ack(&mut self, node: NodeId, seq: u64) {
        let fs = self.faults.as_mut().expect("fault mode");
        let e2e = fs.e2e.as_deref_mut().expect("e2e event without recovery");
        let src = &mut e2e.sources[node.index()];
        if let Some(r) = src.retained.remove(&seq) {
            e2e.counters.acks += 1;
            if r.attempts > 1 {
                e2e.counters.recovered += 1;
            }
        }
    }

    /// Ack-timeout firing at the source NI for retained sequence `seq`.
    /// Stale stamps (a reinjection already re-armed with a higher attempt
    /// count) and already-resolved sequences are no-ops; an alive copy
    /// re-arms (it may be stalled behind backpressure, not lost); a dead
    /// copy is reinjected until the attempt budget runs out.
    fn e2e_timeout(&mut self, node: NodeId, seq: u64, attempt: u32) {
        enum Action {
            Nothing,
            Rearm(u32),
            Reinject,
            GiveUp,
        }
        let Some(policy) = self.e2e().map(|e| e.policy) else {
            return;
        };
        let action = {
            let fs = self.faults.as_mut().expect("fault mode");
            let e2e = fs.e2e.as_deref_mut().expect("e2e event without recovery");
            let src = &mut e2e.sources[node.index()];
            match src.retained.get(&seq) {
                None => Action::Nothing,
                Some(r) if r.attempts != attempt => Action::Nothing,
                Some(r) if r.current_alive => Action::Rearm(r.attempts),
                _ if src.is_resolved(seq) => Action::Nothing,
                Some(r) if r.attempts >= policy.retry.max_attempts => Action::GiveUp,
                Some(_) => Action::Reinject,
            }
        };
        match action {
            Action::Nothing => {}
            Action::Rearm(attempts) => {
                let at = self.now + policy.retry.backoff(attempts);
                let fs = self.faults.as_mut().expect("fault mode");
                fs.schedule_far(
                    at,
                    FarEvent::E2eTimeout {
                        node,
                        seq,
                        attempt: attempts,
                    },
                );
            }
            Action::Reinject => self.e2e_reinject(node, seq),
            Action::GiveUp => {
                let fs = self.faults.as_mut().expect("fault mode");
                let e2e = fs.e2e.as_deref_mut().expect("e2e event without recovery");
                let src = &mut e2e.sources[node.index()];
                let r = src.retained.remove(&seq).expect("checked above");
                src.resolve(seq);
                e2e.counters.lost += 1;
                e2e.by_packet.remove(&r.current);
                let packet = Packet {
                    id: r.current,
                    src: node,
                    dst: r.dst,
                    size: r.size,
                    class: r.class,
                    tag: r.tag,
                    birth: r.first_birth,
                };
                fs.record_drop(DroppedPacket {
                    packet,
                    cycle: self.now,
                    reason: DropReason::RecoveryExhausted,
                    recoverable: false,
                });
            }
        }
    }

    /// Injects a fresh copy of retained sequence `seq` at `node` and arms
    /// its (backed-off) ack timeout.
    fn e2e_reinject(&mut self, node: NodeId, seq: u64) {
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        let (packet, total, measured, attempts) = {
            let flit_width = self.cfg.flit_width;
            let fs = self.faults.as_mut().expect("fault mode");
            let e2e = fs.e2e.as_deref_mut().expect("e2e event without recovery");
            let src = &mut e2e.sources[node.index()];
            let r = src.retained.get_mut(&seq).expect("reinject of retained");
            r.attempts += 1;
            r.current = id;
            r.current_alive = true;
            let packet = Packet {
                id,
                src: node,
                dst: r.dst,
                size: r.size,
                class: r.class,
                tag: r.tag,
                birth: r.first_birth,
            };
            let total = r.size.flits(flit_width);
            e2e.by_packet.insert(id, (node, seq));
            e2e.counters.reinjections += 1;
            e2e.counters.reinjected_flits += u64::from(total);
            (packet, total, r.measured, r.attempts)
        };
        let at = self.now
            + self
                .e2e()
                .expect("still enabled")
                .policy
                .retry
                .backoff(attempts);
        let fs = self.faults.as_mut().expect("fault mode");
        fs.schedule_far(
            at,
            FarEvent::E2eTimeout {
                node,
                seq,
                attempt: attempts,
            },
        );
        self.in_flight.insert(
            id,
            PacketMeta {
                packet,
                inject: self.now,
                received: 0,
                total,
                measured,
            },
        );
        // Reinjections go to the queue *front*: they already own a retention
        // slot, so they must not starve behind a new packet that a full
        // retention buffer is gating.
        self.nodes[node.index()].queue.push_front(packet);
    }

    fn apply_hard_faults(&mut self) {
        loop {
            let kind = {
                let fs = self.faults.as_mut().expect("fault mode");
                match fs.hard.get(fs.next_hard) {
                    Some(h) if h.cycle <= self.now => {
                        fs.next_hard += 1;
                        fs.routing_stale = true;
                        Some(h.kind)
                    }
                    _ => None,
                }
            };
            match kind {
                Some(FaultKind::Link(l)) => self.kill_link(l),
                Some(FaultKind::Router(r)) => self.kill_router(r),
                None => return,
            }
        }
    }

    /// Kills both directions of the physical channel containing `link`.
    fn kill_link(&mut self, link: LinkId) {
        let l = self.graph.links()[link.index()];
        let reverse = self
            .graph
            .links()
            .iter()
            .enumerate()
            .find(|(_, r)| {
                r.src == l.dst
                    && r.dst == l.src
                    && r.src_port == l.dst_port
                    && r.dst_port == l.src_port
            })
            .map(|(i, _)| LinkId(i));
        self.kill_one_direction(link);
        if let Some(rev) = reverse {
            self.kill_one_direction(rev);
        }
    }

    fn kill_one_direction(&mut self, link: LinkId) {
        {
            let fs = self.faults.as_mut().expect("fault mode");
            if fs.links[link.index()].dead {
                return;
            }
            fs.links[link.index()].dead = true;
            fs.dead_links.push(link);
            fs.counters.links_dead += 1;
        }
        if self.tracer.is_some() {
            self.emit(TraceEvent::Fault {
                cycle: self.now,
                unit: FaultUnit::LinkDead { link },
            });
        }
        let l = self.graph.links()[link.index()];
        if !self.router_dead(l.src.index()) {
            self.rescind_routes_to(l.src, l.src_port);
        }
    }

    /// Rescinds computed-but-unused routes at `router` that target output
    /// port `out_port` (now dead): packets that have not moved a single flit
    /// on their grant re-enter route computation; mid-wormhole packets keep
    /// their grant and drain.
    fn rescind_routes_to(&mut self, router: RouterId, out_port: PortId) {
        let router = &mut self.routers[router.index()];
        for i in 0..router.inputs.len() {
            let vc = &router.inputs[i];
            if vc.sent_on_grant == 0 && vc.route().is_some_and(|rt| rt.port == out_port) {
                router.forget_route(i);
            }
        }
    }

    /// Fail-stop kill of a whole router: freezes its pipeline and kills
    /// every incident link (in both directions).
    fn kill_router(&mut self, router: RouterId) {
        {
            let fs = self.faults.as_mut().expect("fault mode");
            if fs.router_dead[router.index()] {
                return;
            }
            fs.router_dead[router.index()] = true;
            fs.dead_routers.push(router);
            fs.counters.routers_dead += 1;
        }
        if self.tracer.is_some() {
            self.emit(TraceEvent::Fault {
                cycle: self.now,
                unit: FaultUnit::RouterDead { router },
            });
        }
        let incident: Vec<LinkId> = self
            .graph
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.src == router || l.dst == router)
            .map(|(i, _)| LinkId(i))
            .collect();
        for l in incident {
            self.kill_one_direction(l);
        }
        self.abandon_router_traffic(router);
    }

    /// Abandons every packet with flits wedged in a freshly killed router so
    /// end-to-end recovery can reinject it. The packet becomes a *zombie*:
    /// its frozen flits stay resident forever (flit conservation keeps
    /// holding), progress accounting ignores it, and its flits elsewhere in
    /// the network are scrubbed so the grants they hold cannot wedge live
    /// traffic. No-op unless the plan enables [`RecoveryPolicy`].
    fn abandon_router_traffic(&mut self, router: RouterId) {
        if self.e2e().is_none() {
            return;
        }
        // 1. Packets frozen inside the dead router or caught in the replay
        //    window of an inbound link. Inbound link epochs are bumped so
        //    pending retry timeouts go stale: the receiver is gone, and the
        //    link layer must not count to retry exhaustion on its behalf.
        let mut frozen: Vec<PacketId> = Vec::new();
        for vc in &self.routers[router.index()].inputs {
            frozen.extend(vc.fifo().iter().map(|f| f.packet));
        }
        {
            let fs = self.faults.as_mut().expect("fault mode");
            for (li, l) in self.graph.links().iter().enumerate() {
                if l.dst != router {
                    continue;
                }
                let lt = &mut fs.links[li];
                frozen.extend(lt.replay.iter().map(|e| e.flit.packet));
                lt.epoch += 1;
            }
        }
        frozen.sort_unstable();
        frozen.dedup();
        for pid in frozen {
            self.abandon_packet(pid, DropReason::Wedged);
        }
        // 2. Nodes attached to the dead router: a mid-injection packet can
        //    never finish sending. Its unsent flits are charged to the
        //    absorbed ledger (conservation slack for flits that never enter
        //    the network) and the packet abandoned as source-dead.
        for n in 0..self.nodes.len() {
            if self.nodes[n].router != router {
                continue;
            }
            let Some(s) = self.nodes[n].sending.take() else {
                continue;
            };
            let pid = s.flits.front().expect("in-progress send has flits").packet;
            {
                let fs = self.faults.as_mut().expect("fault mode");
                *fs.absorbed.entry(pid).or_insert(0) += s.flits.len() as u32;
            }
            self.nodes[n].vcs[s.vc.index()].owner = None;
            self.abandon_packet(pid, DropReason::SourceDead);
        }
        // 3. Scrub every live router: zombie flits parked anywhere are
        //    removed (their buffer slots credited back upstream) and any
        //    input VC whose grant a zombie holds is released so the output
        //    VC frees for live traffic.
        let zombies = self.e2e().expect("checked above").zombies.clone();
        if zombies.is_empty() {
            return;
        }
        for ri in 0..self.routers.len() {
            if self.router_dead(ri) {
                continue;
            }
            for i in 0..self.routers[ri].inputs.len() {
                let (p, v) = self.routers[ri].port_vc(i);
                let mut scrubbed: Vec<PacketId> = Vec::new();
                self.routers[ri].retain(i, |f| {
                    if zombies.contains(&f.packet) {
                        scrubbed.push(f.packet);
                        false
                    } else {
                        true
                    }
                });
                if !scrubbed.is_empty() {
                    let up = self.upstream[ri][p.index()];
                    for _ in 0..scrubbed.len() {
                        self.schedule(1, Event::Credit { up, vc: v });
                    }
                    let fs = self.faults.as_mut().expect("fault mode");
                    for pid in scrubbed {
                        *fs.absorbed.entry(pid).or_insert(0) += 1;
                    }
                }
                let holder = self.routers[ri].inputs[i].holder;
                if holder.is_some_and(|h| zombies.contains(&h)) {
                    let fs = self.faults.as_mut().expect("fault mode");
                    fs.absorbing.remove(&(RouterId(ri), p, v));
                    self.routers[ri].release(i);
                }
            }
        }
    }

    /// Marks one in-flight packet as permanently wedged in dead equipment.
    /// It joins the zombie set (its engine metadata stays so conservation
    /// invariants hold) and the drop is recorded with its recoverability
    /// under the end-to-end layer.
    fn abandon_packet(&mut self, pid: PacketId, reason: DropReason) {
        let Some(meta) = self.in_flight.get(&pid) else {
            return;
        };
        let packet = meta.packet;
        let fs = self.faults.as_mut().expect("fault mode");
        let recoverable = {
            let e2e = fs.e2e.as_deref_mut().expect("abandon requires recovery");
            if !e2e.zombies.insert(pid) {
                return; // already abandoned by an earlier kill
            }
            e2e.note_drop(pid, reason)
        };
        fs.record_drop(DroppedPacket {
            packet,
            cycle: self.now,
            reason,
            recoverable,
        });
    }

    /// Drains flits of unroutable packets from their input VCs: buffer
    /// slots are freed (credits flow back upstream) and the packet is
    /// reported dropped once its tail is consumed. This is what turns "no
    /// route to destination" into a typed result instead of tree-saturating
    /// backpressure.
    fn process_absorbing(&mut self) {
        let entries: Vec<(RouterId, PortId, VcId)> = {
            let fs = self.faults.as_ref().expect("fault mode");
            if fs.absorbing.is_empty() {
                return;
            }
            fs.absorbing.iter().copied().collect()
        };
        for (router, port, vc) in entries {
            let r = router.index();
            let i = self.routers[r].flat(port, vc);
            let up = self.upstream[r][port.index()];
            // An empty FIFO mid-absorb means the rest of the packet is still
            // in flight; it will be consumed on a later cycle.
            while let Some(flit) = self.routers[r].pop(i) {
                self.schedule(1, Event::Credit { up, vc });
                let fs = self.faults.as_mut().expect("fault mode");
                *fs.absorbed.entry(flit.packet).or_insert(0) += 1;
                if flit.kind.is_tail() {
                    // A zombie reaching absorption was already recorded
                    // dropped at kill time; just free the VC.
                    if self.is_zombie(flit.packet) {
                        let fs = self.faults.as_mut().expect("fault mode");
                        fs.absorbing.remove(&(router, port, vc));
                        self.routers[r].release(i);
                        break;
                    }
                    let (packet, received, total) = {
                        let meta = self
                            .in_flight
                            .get(&flit.packet)
                            .expect("absorbed packet is tracked");
                        (meta.packet, meta.received, meta.total)
                    };
                    let dst_router = self.graph.attachment(packet.dst).router;
                    let fs = self.faults.as_mut().expect("fault mode");
                    let reason = if fs.router_dead[dst_router.index()] {
                        DropReason::DestinationDead
                    } else {
                        DropReason::Unreachable
                    };
                    let absorbed = fs.absorbed.get(&flit.packet).copied().unwrap_or(0);
                    // Flits of this packet frozen in dead equipment keep the
                    // packet resident: it becomes a zombie instead of being
                    // fully retired from the ledger.
                    let keep_zombie = received + absorbed != total && fs.e2e.is_some();
                    let recoverable = match fs.e2e.as_deref_mut() {
                        Some(e2e) => e2e.note_drop(flit.packet, reason),
                        None => false,
                    };
                    let fs = self.faults.as_mut().expect("fault mode");
                    if keep_zombie {
                        fs.e2e
                            .as_deref_mut()
                            .expect("zombies only under recovery")
                            .zombies
                            .insert(flit.packet);
                    } else {
                        self.in_flight.remove(&flit.packet);
                        let fs = self.faults.as_mut().expect("fault mode");
                        fs.absorbed.remove(&flit.packet);
                    }
                    let fs = self.faults.as_mut().expect("fault mode");
                    fs.absorbing.remove(&(router, port, vc));
                    fs.record_drop(DroppedPacket {
                        packet,
                        cycle: self.now,
                        reason,
                        recoverable,
                    });
                    self.routers[r].release(i);
                    break;
                }
            }
        }
    }

    fn retire_flit(&mut self, flit: Flit) {
        let meta = self
            .in_flight
            .get_mut(&flit.packet)
            .expect("retired flit of unknown packet");
        meta.received += 1;
        debug_assert!(meta.received <= meta.total);
        let done = meta.received == meta.total;
        if meta.measured {
            self.stats.flits_retired += 1;
        }
        if self.tracer.is_some() {
            self.emit(TraceEvent::Eject {
                cycle: self.now,
                node: flit.dst,
                packet: flit.packet,
                seq: flit.seq,
                done,
            });
        }
        if done {
            let meta = self.in_flight.remove(&flit.packet).expect("present");
            // End-to-end accounting: mark the sequence resolved and send the
            // ack back to the source NI. A copy of an already-resolved
            // sequence (the reinjection raced the original's delivery) is
            // suppressed — consumed silently, invisible to the client layer.
            let mut suppress = false;
            let mut ack: Option<(NodeId, u64)> = None;
            if let Some(fs) = self.faults.as_mut() {
                if let Some(e2e) = fs.e2e.as_deref_mut() {
                    if let Some((node, seq)) = e2e.by_packet.remove(&flit.packet) {
                        let src = &mut e2e.sources[node.index()];
                        if let Some(r) = src.retained.get_mut(&seq) {
                            if r.current == flit.packet {
                                r.current_alive = false;
                            }
                        }
                        if src.is_resolved(seq) {
                            suppress = true;
                            e2e.counters.duplicates_suppressed += 1;
                        } else {
                            src.resolve(seq);
                            ack = Some((node, seq));
                        }
                    }
                }
            }
            if let Some((node, seq)) = ack {
                let at = self.now + self.ideal_latency(flit.dst, flit.src, 1);
                let fs = self.faults.as_mut().expect("fault mode");
                fs.schedule_far(at, FarEvent::E2eAck { node, seq });
            }
            if suppress {
                return;
            }
            let rec = PacketRecord {
                birth: meta.packet.birth,
                inject: meta.inject,
                retire: self.now,
                ideal: self.ideal_latency(meta.packet.src, meta.packet.dst, meta.total),
                class: meta.packet.class,
            };
            let s = &mut self.stats;
            s.counts.retired.add(&rec);
            if meta.measured {
                s.packets_retired += 1;
                s.latency.add(&rec);
                s.latency_by_class[NetStats::class_index(rec.class)].add(&rec);
                s.latency_dist.add(&rec);
            }
            self.delivered.push(Delivered {
                packet: meta.packet,
                inject: meta.inject,
                retire: self.now,
            });
        }
    }

    /// Class a packet may occupy at its source router's local input port.
    fn injection_class(&self, class: PacketClass) -> VcClass {
        if self.cfg.routing.reserves_escape_vc() {
            VcClass::NonEscape
        } else {
            let _ = class;
            VcClass::Any
        }
    }

    fn node_inject(&mut self, n: usize) {
        // Fault mode: packets to or from a dead router can never be
        // delivered — drop them at the source instead of wedging the queue.
        if self.faults.is_some() && self.nodes[n].sending.is_none() {
            while let Some(front) = self.nodes[n].queue.front() {
                let Some(fs) = self.faults.as_ref() else {
                    break;
                };
                let src_dead = fs.router_dead[self.nodes[n].router.index()];
                let dst_dead = fs.router_dead[self.graph.attachment(front.dst).router.index()];
                if !src_dead && !dst_dead {
                    break;
                }
                let packet = self.nodes[n].queue.pop_front().expect("non-empty");
                self.in_flight.remove(&packet.id);
                let reason = if src_dead {
                    DropReason::SourceDead
                } else {
                    DropReason::DestinationDead
                };
                if let Some(fs) = self.faults.as_mut() {
                    let recoverable = match fs.e2e.as_deref_mut() {
                        Some(e2e) => e2e.note_drop(packet.id, reason),
                        None => false,
                    };
                    fs.record_drop(DroppedPacket {
                        packet,
                        cycle: self.now,
                        reason,
                        recoverable,
                    });
                }
            }
        }
        // A full retention buffer blocks *new* packets only; a reinjection
        // at the queue front carries its original retention slot through.
        let mut gated = false;
        if self.nodes[n].sending.is_none() {
            if let Some(front) = self.nodes[n].queue.front().map(|p| p.id) {
                if let Some(e2e) = self.faults.as_mut().and_then(|fs| fs.e2e.as_deref_mut()) {
                    if !e2e.by_packet.contains_key(&front)
                        && e2e.sources[n].retained.len() >= e2e.policy.retention
                    {
                        e2e.counters.retention_stalls += 1;
                        gated = true;
                    }
                }
            }
        }
        // Start a new packet if idle.
        if !gated && self.nodes[n].sending.is_none() && !self.nodes[n].queue.is_empty() {
            let class = self.injection_class(self.nodes[n].queue[0].class);
            let node = &mut self.nodes[n];
            let vccount = node.vcs.len();
            let (lo, hi) = class.range(vccount);
            let free = (lo..hi)
                .filter(|&v| node.vcs[v].owner.is_none() && node.vcs[v].credits > 0)
                .fold(0u128, |m, v| m | 1 << v);
            let pick = node.rr_vc.grant_mask(vccount, free);
            if let Some(v) = pick {
                let packet = node.queue.pop_front().expect("non-empty");
                node.vcs[v].owner = Some((PortId(0), VcId(0))); // occupied marker
                let flits = Flit::fragment(&packet, self.cfg.flit_width, self.now);
                let total = flits.len() as u32;
                node.sending = Some(Sending {
                    vc: VcId(v),
                    flits: flits.into(),
                });
                if let Some(meta) = self.in_flight.get_mut(&packet.id) {
                    meta.inject = self.now;
                }
                self.stats.counts.heads_injected += 1;
                if self.tracer.is_some() {
                    self.emit(TraceEvent::Inject {
                        cycle: self.now,
                        node: NodeId(n),
                        packet: packet.id,
                        flits: total,
                    });
                }
                // End-to-end: the first injection of a new packet assigns
                // its sequence number, retains a copy at the NI until the
                // destination's ack arrives, and arms the ack timeout.
                // Reinjections already own a slot and re-use it.
                if self.faults.as_ref().is_some_and(|fs| fs.e2e.is_some()) {
                    let measured = self.in_flight.get(&packet.id).is_some_and(|m| m.measured);
                    let fs = self.faults.as_mut().expect("checked above");
                    let arm = {
                        let e2e = fs.e2e.as_deref_mut().expect("checked above");
                        if e2e.by_packet.contains_key(&packet.id) {
                            None
                        } else {
                            let src = &mut e2e.sources[n];
                            let seq = src.next_seq;
                            src.next_seq += 1;
                            src.retained.insert(
                                seq,
                                Retained {
                                    dst: packet.dst,
                                    size: packet.size,
                                    class: packet.class,
                                    tag: packet.tag,
                                    measured,
                                    first_birth: packet.birth,
                                    attempts: 1,
                                    current: packet.id,
                                    current_alive: true,
                                },
                            );
                            e2e.by_packet.insert(packet.id, (NodeId(n), seq));
                            e2e.counters.retention_peak =
                                e2e.counters.retention_peak.max(src.retained.len() as u64);
                            Some((e2e.policy.retry.timeout, seq))
                        }
                    };
                    if let Some((timeout, seq)) = arm {
                        let at = self.now + timeout;
                        fs.schedule_far(
                            at,
                            FarEvent::E2eTimeout {
                                node: NodeId(n),
                                seq,
                                attempt: 1,
                            },
                        );
                    }
                }
            }
        }
        // Send flits of the in-progress packet.
        if self.nodes[n].sending.is_none() {
            return;
        }
        let mut events = std::mem::take(&mut self.scratch_events);
        let node = &mut self.nodes[n];
        let sending = node.sending.as_mut().expect("checked above");
        let vc = sending.vc;
        let mut sent = 0;
        while sent < node.lanes && !sending.flits.is_empty() && node.vcs[vc.index()].credits > 0 {
            let flit = sending.flits.pop_front().expect("non-empty");
            node.vcs[vc.index()].credits -= 1;
            events.push(Event::FlitArrive {
                router: node.router,
                port: node.port,
                vc,
                flit,
            });
            sent += 1;
        }
        let done = sending.flits.is_empty();
        if done {
            node.vcs[vc.index()].owner = None;
            node.sending = None;
        }
        for ev in events.drain(..) {
            self.schedule(1, ev);
        }
        self.scratch_events = events;
    }

    /// Route computation, escape diversion and VC allocation at router `r`.
    ///
    /// Only a VC with a head flit at its front has work here (a body or
    /// tail front travels on its packet's route and grant), so the walk
    /// visits exactly the set bits of the head-front mask, ascending — the
    /// order of a nested port/VC loop. Nothing here edits a FIFO, so the
    /// mask cannot change during the walk.
    fn rc_and_va(&mut self, r: usize) {
        let mut heads = self.routers[r].head_front();
        if heads == 0 {
            return;
        }
        let t = self.prof_start();
        let router_id = RouterId(r);
        let vcs_per_port = self.cfg.routers[r].vcs_per_port;
        let reserves_escape = self.cfg.routing.reserves_escape_vc();
        let escape_timeout = self.cfg.escape_timeout;
        self.sched.rcva_heads += u64::from(heads.count_ones());

        // --- Route computation & escape diversion -----------------------
        // Each VC's final RC state sets its bit in the requester mask of
        // the output it bids for, and the output's bit in `requested`; VA
        // below reads only those masks and leaves them zero again.
        let mut requested = 0u64;
        while heads != 0 {
            let i = heads.trailing_zeros() as usize;
            heads &= heads - 1;
            let v = i % vcs_per_port;
            let in_escape = reserves_escape && v == vcs_per_port - 1;
            let (route, sent, wait) = {
                let vc = &self.routers[r].inputs[i];
                (vc.route(), vc.sent_on_grant, vc.head_wait)
            };
            // A routed head needs its flit only for the escape timeout,
            // which applies to expedited packets under escape routing.
            if route.is_none() || reserves_escape {
                let (pkt, src, dst, class) = {
                    let f = self.routers[r].inputs[i]
                        .fifo()
                        .front()
                        .expect("head-front VC holds a flit");
                    (f.packet, f.src, f.dst, f.class)
                };
                let expedited = class == PacketClass::Expedited;
                if route.is_none() {
                    match self.cfg.routing.route(
                        &self.graph,
                        router_id,
                        src,
                        dst,
                        expedited,
                        in_escape,
                    ) {
                        Some(rc) => self.routers[r].route_head(i, rc, pkt),
                        None => {
                            let at = self.graph.attachment(dst);
                            if at.router != router_id {
                                // `None` away from the destination means the
                                // routing table has no surviving path: mark
                                // the VC for absorption (route stays `None`,
                                // so allocation ignores it).
                                debug_assert!(
                                    self.faults.is_some(),
                                    "unroutable packet without fault layer"
                                );
                                if let Some(fs) = self.faults.as_mut() {
                                    fs.absorbing.insert((
                                        router_id,
                                        PortId(i / vcs_per_port),
                                        VcId(v),
                                    ));
                                }
                                self.routers[r].inputs[i].holder = Some(pkt);
                                continue;
                            }
                            // At destination router: eject through the local
                            // port of dst. No downstream VC needed.
                            self.routers[r].grant_sink(i, at.port, pkt);
                        }
                    }
                } else if expedited && !in_escape && wait > escape_timeout && sent == 0 {
                    // Divert a stuck expedited head to the escape network,
                    // rescinding any unused normal grant.
                    if let Some(esc) =
                        self.cfg
                            .routing
                            .escape_route(&self.graph, router_id, src, dst)
                    {
                        self.routers[r].divert(i, esc);
                    }
                }
            }
            // Age heads that have not moved yet.
            let vc = &mut self.routers[r].inputs[i];
            if vc.sent_on_grant == 0 {
                vc.head_wait = vc.head_wait.saturating_add(1);
            }
            // Final requester state for the VA phase: an ungranted head
            // with a computed route bids for its route's output port.
            if vc.out_vc().is_none() {
                if let Some(rt) = vc.route() {
                    let o = rt.port.index();
                    self.alloc.va_req[o] |= 1u128 << i;
                    requested |= 1 << o;
                }
            }
        }

        // --- VC allocation ----------------------------------------------
        // Separable output-side allocation: each output port grants free
        // downstream VCs to requesting heads in round-robin order. A grant
        // changes only the granted VC and one downstream VC's owner, so
        // the other requesters' bits stay exact through the loop.
        let t = self.prof_lap(t, Stage::RouteCompute);
        let flat = self.routers[r].inputs.len();
        while requested != 0 {
            let o = requested.trailing_zeros() as usize;
            requested &= requested - 1;
            let mut req = std::mem::take(&mut self.alloc.va_req[o]);
            self.sched.va_bids += u64::from(req.count_ones());
            if self.routers[r].outputs[o].vcs.is_empty() {
                continue; // a sink (no VA needed)
            }
            // Dead links take no new wormholes (granted packets drain).
            if let OutputTarget::Channel { link, .. } = self.routers[r].outputs[o].target {
                if self
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.links[link.index()].dead)
                {
                    continue;
                }
            }
            while let Some(i) = self.routers[r].outputs[o].va_arb.peek_mask(flat, req) {
                // Served or passed over: either way `i` bids no more this
                // cycle. A requester whose class has no free VC is passed
                // over (pointer not advanced) so that requesters of other
                // classes behind it are still served.
                req &= !(1u128 << i);
                let class = self.routers[r].inputs[i]
                    .route()
                    .expect("requester has route")
                    .class;
                let down_vcs = self.routers[r].outputs[o].vcs.len();
                let (lo, hi) = class.range(down_vcs);
                let free = (lo..hi).find(|&dv| self.routers[r].outputs[o].vcs[dv].owner.is_none());
                let Some(dv) = free else { continue };
                {
                    let router = &mut self.routers[r];
                    router.grant(i, o, dv);
                    router.outputs[o].va_arb.advance_past(i, flat);
                }
                self.stats.counts.routers[r].va_grants += 1;
                if self.tracer.is_some() {
                    let (p, v) = self.routers[r].port_vc(i);
                    let packet = self.routers[r].inputs[i]
                        .fifo()
                        .front()
                        .expect("requester has a head flit")
                        .packet;
                    self.emit(TraceEvent::VcAlloc {
                        cycle: self.now,
                        router: router_id,
                        in_port: p,
                        in_vc: v,
                        out_port: PortId(o),
                        out_vc: VcId(dv),
                        packet,
                    });
                }
            }
        }
        let _ = self.prof_lap(t, Stage::VcAlloc);
    }

    /// Two-phase switch allocation and traversal at router `r`.
    ///
    /// Stage 1 inspects only the VCs that can send now, read off the
    /// router's masks (`RouterState::sa_candidates`), and only the input
    /// ports holding one. Stage 2 visits only outputs that got a stage-1
    /// nomination (an output without one never grants, and its secondary
    /// arbiter runs only after a primary grant). Both walk set bits in
    /// ascending order, the order of full port/VC and output loops, so
    /// arbitration is unchanged.
    fn switch_alloc(&mut self, r: usize) {
        let mut t = self.prof_start();
        let now = self.now;
        let vcs_per_port = self.cfg.routers[r].vcs_per_port;
        let router = &mut self.routers[r];
        // Input and output ports pair up, so one count sizes both.
        let nports = router.outputs.len();
        let s = &mut self.alloc;
        s.sa_reach[..nports].fill(0);
        s.sa_nom[..nports].fill(0);
        // Outputs holding at least one stage-1 nominee.
        let mut nominated = 0u64;

        // Eligibility table, taken once at SA start. A commit at output `o`
        // pops only VCs routed to `o` (releasing them on a tail) and spends
        // only the credits of `o`'s downstream VCs, and each output commits
        // once, so no commit changes what the table says about any output
        // still to be visited: reading it later equals re-evaluating
        // `sa_eligible` live. `sa_out` and `eligible` are written for the
        // ports and VCs that can send and read only there.
        //
        // Stage 1: one nomination per input port (plus a possible pair or
        // a second VC for the same wide output).
        let mut cand = router.sa_candidates(now);
        debug_assert_eq!(
            cand,
            (0..router.inputs.len())
                .filter(|&i| router.sa_eligible(i, now).is_some())
                .fold(0u128, |m, i| m | 1 << i),
            "r{r}: SA candidate mask differs from sa_eligible at cycle {now}"
        );
        self.sched.sa_vcs += u64::from(cand.count_ones());
        while cand != 0 {
            let p = cand.trailing_zeros() as usize / vcs_per_port;
            let row = p * vcs_per_port;
            let eligible = router.port_bits(cand, p);
            cand &= !(eligible << row);
            s.eligible[p] = eligible;
            let mut bits = eligible;
            while bits != 0 {
                let v = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let out = router.inputs[row + v]
                    .route()
                    .expect("ready VC is routed")
                    .port;
                s.sa_out[row + v] = out.index() as u8;
                s.sa_reach[out.index()] |= 1 << p;
            }
            let v = router.sa_stage1[p]
                .peek_mask(vcs_per_port, eligible)
                .expect("the port has a candidate");
            let out = usize::from(s.sa_out[row + v]);
            s.sa_nom[out] |= 1 << p;
            nominated |= 1 << out;
            let wide = router.outputs[out].lanes > 1;
            let pair = wide && router.sa_pair_eligible(row + v, now);
            // Another VC of the same input port heading to the same output
            // (the paper's case (a)/(c) combining).
            let alt = if wide && !pair {
                first_to(&s.sa_out[row..], eligible & !(1 << v), out)
            } else {
                None
            };
            s.nominee[p] = Nomination { vc: v, pair, alt };
            self.stats.counts.routers[r].sa1_arbs += 1;
        }

        // Stage 2: per output port, primary + (for wide outputs) secondary.
        let mut sent = PortSends::default();
        while nominated != 0 {
            let o = nominated.trailing_zeros() as usize;
            nominated &= nominated - 1;
            // The winners are copied out so the commits below may take
            // `&mut self` while the scratch stays in place.
            let (winners, count) = {
                let router = &mut self.routers[r];
                let s = &self.alloc;
                let nominees = s.sa_nom[o] & !sent.twice;
                let w1 = router.outputs[o]
                    .sa_primary
                    .grant_mask(nports, u128::from(nominees));
                let Some(p1) = w1 else { continue };
                let Nomination { vc: v1, pair, alt } = s.nominee[p1];
                router.sa_stage1[p1].advance_past(v1, vcs_per_port);
                let mut winners = [(PortId(p1), VcId(v1)); 2];
                let mut count = 1;

                sent.send(p1);
                if router.outputs[o].lanes > 1 {
                    let p1_full = sent.twice & (1 << p1) != 0;
                    if pair && !p1_full {
                        // Same VC, next flit of the same packet (DSET pair).
                        winners[1] = (PortId(p1), VcId(v1));
                        count = 2;
                        sent.send(p1);
                    } else if let Some(v2) = alt.filter(|_| !p1_full) {
                        winners[1] = (PortId(p1), VcId(v2));
                        count = 2;
                        sent.send(p1);
                    } else {
                        // Different input port (the paper's case (b)/(f)): the
                        // second parallel p:1 arbiter takes any other port with
                        // *any* eligible VC heading to this output, not just
                        // the stage-1 nominee.
                        let others = s.sa_reach[o] & !(1 << p1) & !sent.twice;
                        let w2 = router.outputs[o]
                            .sa_secondary
                            .grant_mask(nports, u128::from(others));
                        if let Some(p2) = w2 {
                            let row = p2 * vcs_per_port;
                            let v2 = first_to(&s.sa_out[row..], s.eligible[p2], o)
                                .expect("port reaches this output");
                            if s.sa_nom[o] & (1 << p2) != 0 && s.nominee[p2].vc == v2 {
                                // Its stage-1 nomination is being consumed here.
                                router.sa_stage1[p2].advance_past(v2, vcs_per_port);
                            }
                            winners[1] = (PortId(p2), VcId(v2));
                            count = 2;
                            sent.send(p2);
                        }
                    }
                }
                (winners, count)
            };

            t = self.prof_lap(t, Stage::SwitchAlloc);
            for &(wp, wv) in &winners[..count] {
                self.commit_flit(r, wp, wv, PortId(o));
            }
            t = self.prof_lap(t, Stage::SwitchTraverse);
            // Link busy/dual accounting (one flit per busy cycle, two per
            // dual one).
            if let OutputTarget::Channel { link, .. } = self.routers[r].outputs[o].target {
                let le = &mut self.stats.counts.links[link.index()];
                le.busy_cycles += 1;
                if count == 2 {
                    le.dual_cycles += 1;
                }
            }
        }
        let _ = self.prof_lap(t, Stage::SwitchAlloc);
    }

    /// Moves one flit from input VC `(p, v)` through output port `o`:
    /// switch traversal now, link traversal next cycle, downstream buffer
    /// write (or retirement) at `now + 2`; credit upstream at `now + 1`.
    fn commit_flit(&mut self, r: usize, p: PortId, v: VcId, o: PortId) {
        let i = self.routers[r].flat(p, v);
        let (flit, out_vc) = self.routers[r].traverse(i, o.index());
        self.sched.flits_committed += 1;
        self.stats.counts.routers[r].buffer_reads += 1;
        if self.tracer.is_some() {
            self.emit(TraceEvent::SaGrant {
                cycle: self.now,
                router: RouterId(r),
                in_port: p,
                in_vc: v,
                out_port: o,
                packet: flit.packet,
                seq: flit.seq,
            });
            self.emit(TraceEvent::BufferRead {
                cycle: self.now,
                router: RouterId(r),
                port: p,
                vc: v,
                packet: flit.packet,
                seq: flit.seq,
            });
        }

        // Credit to whoever feeds input port `p`.
        let up = self.upstream[r][p.index()];
        self.schedule(1, Event::Credit { up, vc: v });

        match self.routers[r].outputs[o.index()].target {
            OutputTarget::Sink { .. } => {
                self.schedule(2, Event::Retire { flit });
            }
            OutputTarget::Channel {
                link,
                dst,
                dst_port,
            } => {
                if self.tracer.is_some() {
                    self.emit(TraceEvent::LinkTraverse {
                        cycle: self.now,
                        link,
                        packet: flit.packet,
                        seq: flit.seq,
                    });
                }
                if self.faults.is_some() {
                    self.fault_send(link, dst, dst_port, out_vc, flit);
                } else {
                    self.schedule(
                        2,
                        Event::FlitArrive {
                            router: dst,
                            port: dst_port,
                            vc: out_vc,
                            flit,
                        },
                    );
                }
            }
        }
    }
}

/// The first VC among the set bits of `eligible` whose entry in a port's
/// row of `AllocScratch::sa_out` is output `o`.
fn first_to(row: &[u8], mut eligible: u128, o: usize) -> Option<usize> {
    while eligible != 0 {
        let v = eligible.trailing_zeros() as usize;
        if usize::from(row[v]) == o {
            return Some(v);
        }
        eligible &= eligible - 1;
    }
    None
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topology", &self.cfg.topology)
            .field("now", &self.now)
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LinkWidths, RouterCfg};
    use crate::topology::TopologyKind;

    fn small_mesh() -> Network {
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 4,
                height: 4,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        Network::new(cfg).expect("valid config")
    }

    fn run_until_drained(net: &mut Network, max: u64) {
        let mut cycles = 0;
        while net.in_flight() > 0 {
            net.step();
            cycles += 1;
            assert!(cycles < max, "network failed to drain within {max} cycles");
        }
    }

    #[test]
    fn single_packet_zero_load_latency_matches_ideal() {
        let mut net = small_mesh();
        net.start_measuring();
        // Node 0 (0,0) to node 15 (3,3): 6 hops.
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        run_until_drained(&mut net, 200);
        let d = net.drain_delivered();
        assert_eq!(d.len(), 1);
        let lat = d[0].retire - d[0].inject;
        // ideal = 3*6 + 4 + 5 = 27 with 6 flits, single lane.
        assert_eq!(net.ideal_latency(NodeId(0), NodeId(15), 6), 27);
        assert_eq!(lat, 27, "zero-load latency must equal the ideal");
    }

    #[test]
    fn one_flit_packet_latency() {
        let mut net = small_mesh();
        net.start_measuring();
        net.enqueue(NodeId(0), NodeId(1), Bits(64), PacketClass::Control, 0);
        run_until_drained(&mut net, 100);
        let d = net.drain_delivered();
        // 1 hop: 3*1 + 4 = 7 cycles.
        assert_eq!(d[0].retire - d[0].inject, 7);
    }

    #[test]
    fn self_delivery_works() {
        let mut net = small_mesh();
        net.enqueue(NodeId(5), NodeId(5), Bits(192), PacketClass::Data, 9);
        run_until_drained(&mut net, 100);
        let d = net.drain_delivered();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.tag, 9);
        assert_eq!(d[0].retire - d[0].inject, 4); // 0 hops: 3*0 + 4.
    }

    #[test]
    fn all_packets_delivered_under_load() {
        let mut net = small_mesh();
        net.start_measuring();
        // Saturating burst: every node sends to every other node.
        for s in 0..16 {
            for d in 0..16 {
                if s != d {
                    net.enqueue(NodeId(s), NodeId(d), Bits(1024), PacketClass::Data, 0);
                }
            }
        }
        run_until_drained(&mut net, 20_000);
        assert_eq!(net.stats().packets_retired, 16 * 15);
        assert_eq!(net.stats().flits_retired, 16 * 15 * 6);
    }

    #[test]
    fn flit_conservation_under_load() {
        let mut net = small_mesh();
        net.start_measuring();
        for s in 0..16 {
            net.enqueue(NodeId(s), NodeId(15 - s), Bits(1024), PacketClass::Data, 0);
        }
        run_until_drained(&mut net, 5_000);
        // After draining, every router must be empty.
        for r in &net.routers {
            assert_eq!(r.occupancy(), 0);
            assert_eq!((r.nonempty(), r.head_front()), (0, 0));
            for vc in &r.inputs {
                assert!(vc.fifo().is_empty());
                assert!(vc.route().is_none());
                assert!(vc.out_vc().is_none());
            }
            // All output VCs released and credits restored.
            for out in &r.outputs {
                for ovc in &out.vcs {
                    assert!(ovc.owner.is_none());
                    assert_eq!(ovc.credits, 5);
                }
            }
        }
    }

    #[test]
    fn wide_links_combine_flits() {
        // All-big network: every link 256b, flit 128b.
        let mut cfg = NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 4,
                height: 4,
            },
            RouterCfg::BIG,
            Bits(256),
            2.07,
        );
        cfg.flit_width = Bits(128);
        cfg.link_widths = LinkWidths::Uniform(Bits(256));
        let mut net = Network::new(cfg).expect("valid");
        net.start_measuring();
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        run_until_drained(&mut net, 500);
        let d = net.drain_delivered();
        // 8 flits over 2 lanes: ideal = 3*6 + 4 + ceil(7/2) = 26. The
        // measured latency is 27: with 5-flit buffers the 4-cycle credit
        // round-trip cannot sustain 2 flits/cycle indefinitely, costing one
        // stall — still better than the single-lane serialization (29) and
        // far better than 8 flits at 192b would allow.
        assert_eq!(net.ideal_latency(NodeId(0), NodeId(15), 8), 26);
        let lat = d[0].retire - d[0].inject;
        assert_eq!(lat, 27);
        assert!(lat < 3 * 6 + 4 + 7, "dual-lane transfer beats single-lane");
        // Dual transmission must actually have happened.
        let wide = net.wide_links().to_vec();
        assert!(net.stats().combining_rate(&wide) > 0.0);
    }

    #[test]
    fn per_class_latency_accounting() {
        let mut net = small_mesh();
        net.start_measuring();
        net.enqueue(NodeId(0), NodeId(3), Bits(1024), PacketClass::Data, 0);
        net.enqueue(NodeId(4), NodeId(7), Bits(64), PacketClass::Control, 0);
        run_until_drained(&mut net, 500);
        let s = net.stats();
        assert_eq!(s.latency_by_class[0].count, 1);
        assert_eq!(s.latency_by_class[1].count, 1);
        assert_eq!(s.latency.count, 2);
    }

    #[test]
    fn measuring_gate_excludes_warmup_packets() {
        let mut net = small_mesh();
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        run_until_drained(&mut net, 500);
        net.start_measuring();
        for _ in 0..10 {
            net.step();
        }
        let s = net.stats();
        assert_eq!(s.packets_retired, 0);
        assert_eq!(s.packets_offered(), 0);
        assert_eq!(s.cycles(), 10);
    }

    #[test]
    fn torus_traffic_drains() {
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Torus {
                width: 4,
                height: 4,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        let mut net = Network::new(cfg).expect("valid");
        for s in 0..16 {
            for d in 0..16 {
                if s != d {
                    net.enqueue(NodeId(s), NodeId(d), Bits(1024), PacketClass::Data, 0);
                }
            }
        }
        run_until_drained(&mut net, 30_000);
        assert_eq!(net.drain_delivered().len(), 16 * 15);
    }

    #[test]
    fn cmesh_and_fbfly_deliver() {
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
            let mut net = Network::new(cfg).expect("valid");
            for s in 0..64 {
                net.enqueue(NodeId(s), NodeId(63 - s), Bits(1024), PacketClass::Data, 0);
            }
            run_until_drained(&mut net, 30_000);
            assert_eq!(net.drain_delivered().len(), 64);
        }
    }

    #[test]
    fn buffer_utilization_is_positive_under_traffic() {
        let mut net = small_mesh();
        net.start_measuring();
        for s in 0..16 {
            for d in 0..16 {
                if s != d {
                    net.enqueue(NodeId(s), NodeId(d), Bits(1024), PacketClass::Data, 0);
                }
            }
        }
        run_until_drained(&mut net, 30_000);
        let s = net.stats();
        let total: f64 = (0..16).map(|r| s.buffer_utilization(r)).sum();
        assert!(total > 0.0);
        for r in 0..16 {
            assert!(s.buffer_utilization(r) <= 1.0);
        }
    }

    #[test]
    fn diagnostics_track_progress() {
        let mut net = small_mesh();
        let d0 = net.diagnostics();
        assert_eq!(d0, Diagnostics::default());
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        let d1 = net.diagnostics();
        assert_eq!(d1.in_flight, 1);
        assert_eq!(d1.source_queued, 1);
        for _ in 0..5 {
            net.step();
        }
        let d2 = net.diagnostics();
        assert!(d2.buffered_flits > 0, "flits must be in the network");
        assert!(d2.oldest_packet_age >= 5);
        run_until_drained(&mut net, 200);
        assert_eq!(net.diagnostics().in_flight, 0);
        assert_eq!(net.diagnostics().buffered_flits, 0);
    }

    #[test]
    #[should_panic(expected = "size must be non-zero")]
    fn zero_size_packet_rejected() {
        let mut net = small_mesh();
        net.enqueue(NodeId(0), NodeId(1), Bits(0), PacketClass::Data, 0);
    }

    // --- fault layer ----------------------------------------------------

    use crate::fault::{HardFault, RetryPolicy};
    use crate::routing::degraded::degraded_routing;

    fn small_mesh_with(plan: FaultPlan) -> Network {
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 4,
                height: 4,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        Network::with_faults(cfg, plan).expect("valid config and plan")
    }

    fn all_pairs_burst(net: &mut Network) {
        for s in 0..16 {
            for d in 0..16 {
                if s != d {
                    net.enqueue(NodeId(s), NodeId(d), Bits(1024), PacketClass::Data, 0);
                }
            }
        }
    }

    fn link_between(net: &Network, a: RouterId, b: RouterId) -> LinkId {
        net.graph
            .links()
            .iter()
            .enumerate()
            .find(|(_, l)| (l.src, l.dst) == (a, b))
            .map(|(i, _)| LinkId(i))
            .expect("adjacent routers")
    }

    /// Regenerates, proves connected and installs a degraded table whenever
    /// a hard fault invalidated the routing (the runner loop clients use).
    fn reroute_if_stale(net: &mut Network) {
        if net.take_routing_stale() {
            let d = degraded_routing(net.graph(), net.dead_links(), net.dead_routers());
            net.install_routing(RoutingKind::FullTable(d.table));
        }
    }

    #[test]
    fn benign_fault_plan_is_cycle_identical() {
        let mut plain = small_mesh();
        let mut faulted = small_mesh_with(FaultPlan::default());
        all_pairs_burst(&mut plain);
        all_pairs_burst(&mut faulted);
        let mut got_plain = Vec::new();
        let mut got_faulted = Vec::new();
        let mut cycles = 0;
        while plain.in_flight() > 0 || faulted.in_flight() > 0 {
            plain.step();
            faulted.step();
            got_plain.extend(
                plain
                    .drain_delivered()
                    .iter()
                    .map(|d| (d.packet.id, d.retire)),
            );
            got_faulted.extend(
                faulted
                    .drain_delivered()
                    .iter()
                    .map(|d| (d.packet.id, d.retire)),
            );
            cycles += 1;
            assert!(cycles < 20_000);
        }
        assert_eq!(got_plain.len(), 16 * 15);
        assert_eq!(
            got_plain, got_faulted,
            "a benign fault plan must not perturb delivery schedules"
        );
        assert_eq!(faulted.fault_counters(), FaultCounters::default());
    }

    #[test]
    fn transient_faults_retransmit_and_deliver_everything() {
        let mut net = small_mesh_with(FaultPlan::transient(2e-4, 42));
        net.start_measuring();
        all_pairs_burst(&mut net);
        run_until_drained(&mut net, 60_000);
        assert_eq!(net.drain_delivered().len(), 16 * 15);
        let c = net.fault_counters();
        assert!(
            c.flits_corrupted > 0,
            "ber 2e-4 over 192b flits must corrupt"
        );
        assert!(
            c.retransmissions >= c.retries && c.retries > 0,
            "every corruption triggers a go-back-N resend: {c:?}"
        );
        assert!(net.fault_error().is_none());
        assert!(net.drain_dropped().is_empty());
    }

    #[test]
    fn hopeless_link_reports_typed_unrecoverable_fault() {
        let mut plan = FaultPlan::transient(1.0, 3);
        plan.retry = RetryPolicy {
            max_attempts: 3,
            timeout: 8,
        };
        let mut net = small_mesh_with(plan);
        net.enqueue(NodeId(0), NodeId(15), Bits(192), PacketClass::Data, 0);
        let mut cycles = 0;
        while net.fault_error().is_none() {
            net.step();
            cycles += 1;
            assert!(cycles < 10_000, "retry exhaustion must surface, not hang");
        }
        let err = net.fault_error().expect("checked");
        assert_eq!(err.attempts, 3);
        assert!(err.packet.is_some());
        let s = err.to_string();
        assert!(s.contains("exhausted 3 transmission attempts"), "{s}");
    }

    #[test]
    fn hard_link_fault_reroutes_and_still_delivers() {
        let probe = small_mesh();
        let link = link_between(&probe, RouterId(5), RouterId(6));
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 60,
            kind: FaultKind::Link(link),
        });
        let mut net = small_mesh_with(plan);
        all_pairs_burst(&mut net);
        let mut cycles = 0u64;
        while net.in_flight() > 0 {
            net.step();
            reroute_if_stale(&mut net);
            cycles += 1;
            assert!(cycles < 60_000, "degraded run must drain");
        }
        assert_eq!(net.drain_delivered().len(), 16 * 15);
        assert!(net.drain_dropped().is_empty(), "mesh stays connected");
        assert_eq!(net.fault_counters().links_dead, 2, "both directions die");
        assert_eq!(net.dead_links().len(), 2);
    }

    #[test]
    fn dead_router_drops_its_traffic_and_spares_the_rest() {
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 0,
            kind: FaultKind::Router(RouterId(5)),
        });
        let mut net = small_mesh_with(plan);
        net.step();
        reroute_if_stale(&mut net);
        net.enqueue(NodeId(0), NodeId(5), Bits(1024), PacketClass::Data, 0);
        net.enqueue(NodeId(5), NodeId(0), Bits(1024), PacketClass::Data, 0);
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        run_until_drained(&mut net, 5_000);
        assert_eq!(net.drain_delivered().len(), 1, "unaffected pair delivers");
        let dropped = net.drain_dropped();
        assert_eq!(dropped.len(), 2);
        let reasons: Vec<_> = dropped.iter().map(|d| d.reason).collect();
        assert!(reasons.contains(&DropReason::DestinationDead));
        assert!(reasons.contains(&DropReason::SourceDead));
        assert_eq!(net.fault_counters().routers_dead, 1);
    }

    #[test]
    fn unreachable_in_flight_packet_is_absorbed_not_hung() {
        // Cut the 2x2 mesh into {0,2} | {1,3} while a packet from n0 to n1
        // is in flight: it must come back as a typed drop, with every
        // buffer slot it held returned.
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 2,
                height: 2,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        let probe = Network::new(cfg.clone()).expect("valid");
        let mut plan = FaultPlan::default();
        for (a, b) in [(RouterId(0), RouterId(1)), (RouterId(2), RouterId(3))] {
            plan.hard.push(HardFault {
                cycle: 2,
                kind: FaultKind::Link(link_between(&probe, a, b)),
            });
        }
        let mut net = Network::with_faults(cfg, plan).expect("valid");
        net.enqueue(NodeId(0), NodeId(1), Bits(1024), PacketClass::Data, 7);
        let mut cycles = 0;
        while net.in_flight() > 0 {
            net.step();
            reroute_if_stale(&mut net);
            cycles += 1;
            assert!(cycles < 2_000, "unreachable packet must be absorbed");
        }
        let dropped = net.drain_dropped();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].packet.tag, 7);
        assert_eq!(dropped[0].reason, DropReason::Unreachable);
        assert!(net.drain_delivered().is_empty());
        // Absorption must have restored every credit.
        for r in &net.routers {
            assert_eq!(r.occupancy(), 0);
        }
    }

    #[test]
    fn stall_report_names_stuck_packets() {
        // A packet wedged against a dead destination router (mid-stream, so
        // it is not droppable at injection) shows up in the report.
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 3,
            kind: FaultKind::Router(RouterId(15)),
        });
        let mut net = small_mesh_with(plan);
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        for _ in 0..200 {
            net.step();
        }
        assert_eq!(net.in_flight(), 1, "packet is wedged, not delivered");
        let report = net.stall_report();
        assert_eq!(report.in_flight, 1);
        assert_eq!(report.stuck.len(), 1);
        assert_eq!(report.stuck[0].dst, NodeId(15));
        assert!(report.stuck[0].age > 100);
        let text = report.to_string();
        assert!(text.contains("no progress"), "{text}");
        assert!(text.contains("n15"), "{text}");
    }

    // --- end-to-end recovery --------------------------------------------

    use crate::fault::RecoveryPolicy;

    /// Steps until both the network and the retention buffers drain.
    fn run_until_recovered(net: &mut Network, max: u64) -> Vec<Delivered> {
        let mut delivered = Vec::new();
        let mut cycles = 0;
        while net.in_flight() > 0 || net.recovery_pending() > 0 {
            net.step();
            reroute_if_stale(net);
            delivered.extend(net.drain_delivered());
            cycles += 1;
            assert!(cycles < max, "recovery failed to converge within {max}");
        }
        delivered
    }

    #[test]
    fn recovery_reinjects_wedged_packets_after_router_kill() {
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 40,
            kind: FaultKind::Router(RouterId(5)),
        });
        plan.recovery = Some(RecoveryPolicy::default());
        let mut net = small_mesh_with(plan);
        all_pairs_burst(&mut net);
        let delivered = run_until_recovered(&mut net, 60_000);
        // Every pair whose source and destination survive delivers exactly
        // once (pairs touching node 5 may have delivered before the kill).
        let mut pairs: Vec<(NodeId, NodeId)> = delivered
            .iter()
            .map(|d| (d.packet.src, d.packet.dst))
            .collect();
        pairs.sort_unstable();
        let before = pairs.len();
        pairs.dedup();
        assert_eq!(before, pairs.len(), "duplicate delivery reached a client");
        for s in 0..16 {
            for d in 0..16 {
                if s != d && s != 5 && d != 5 {
                    assert!(
                        pairs.contains(&(NodeId(s), NodeId(d))),
                        "surviving pair n{s}->n{d} was never delivered"
                    );
                }
            }
        }
        // Every permanent loss names a dead endpoint; surviving-pair drops
        // are transient (recovered by reinjection) — never silently lost.
        let dropped = net.drain_dropped();
        for d in &dropped {
            let touches_dead = d.packet.src == NodeId(5) || d.packet.dst == NodeId(5);
            assert!(
                d.recoverable || touches_dead,
                "permanent loss on a surviving pair: {d:?}"
            );
        }
        // Full ledger: every offered packet either delivered or was
        // recorded as a permanent loss.
        let permanent = dropped.iter().filter(|d| !d.recoverable).count();
        assert_eq!(delivered.len() + permanent, 16 * 15);
        let counters = net.recovery_counters();
        assert!(counters.reinjections > 0, "the kill must wedge something");
        assert_eq!(
            counters.acks,
            delivered.len() as u64,
            "one ack per delivery"
        );
    }

    #[test]
    fn recovery_keeps_benign_plans_cycle_identical() {
        let plan = FaultPlan {
            recovery: Some(RecoveryPolicy::default()),
            ..FaultPlan::default()
        };
        let mut plain = small_mesh();
        let mut recovering = small_mesh_with(plan);
        all_pairs_burst(&mut plain);
        all_pairs_burst(&mut recovering);
        let mut got_plain = Vec::new();
        let mut got_rec = Vec::new();
        let mut cycles = 0;
        while plain.in_flight() > 0 || recovering.in_flight() > 0 {
            plain.step();
            recovering.step();
            got_plain.extend(
                plain
                    .drain_delivered()
                    .iter()
                    .map(|d| (d.packet.id, d.retire)),
            );
            got_rec.extend(
                recovering
                    .drain_delivered()
                    .iter()
                    .map(|d| (d.packet.id, d.retire)),
            );
            cycles += 1;
            assert!(cycles < 20_000);
        }
        assert_eq!(
            got_plain, got_rec,
            "an idle recovery layer must not perturb delivery schedules"
        );
        let counters = recovering.recovery_counters();
        assert_eq!(counters.reinjections, 0);
        assert_eq!(counters.duplicates_suppressed, 0);
        assert_eq!(counters.retention_stalls, 0);
        assert_eq!(counters.lost, 0);
    }

    #[test]
    fn recovery_gives_up_across_a_partition() {
        // Cut the 2x2 mesh into {0,2} | {1,3}: a packet from n0 to n1 is
        // reinjected until the budget runs out, then reported permanently
        // lost — bounded, typed, and drained.
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 2,
                height: 2,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        let probe = Network::new(cfg.clone()).expect("valid");
        let mut plan = FaultPlan::default();
        for (a, b) in [(RouterId(0), RouterId(1)), (RouterId(2), RouterId(3))] {
            plan.hard.push(HardFault {
                cycle: 2,
                kind: FaultKind::Link(link_between(&probe, a, b)),
            });
        }
        plan.recovery = Some(RecoveryPolicy {
            retry: RetryPolicy {
                max_attempts: 3,
                timeout: 64,
            },
            retention: 4,
        });
        let mut net = Network::with_faults(cfg, plan).expect("valid");
        net.enqueue(NodeId(0), NodeId(1), Bits(1024), PacketClass::Data, 7);
        let delivered = run_until_recovered(&mut net, 10_000);
        assert!(delivered.is_empty());
        let dropped = net.drain_dropped();
        let exhausted: Vec<_> = dropped
            .iter()
            .filter(|d| d.reason == DropReason::RecoveryExhausted)
            .collect();
        assert_eq!(exhausted.len(), 1, "{dropped:?}");
        assert!(!exhausted[0].recoverable);
        assert!(dropped
            .iter()
            .filter(|d| d.reason == DropReason::Unreachable)
            .all(|d| d.recoverable));
        let counters = net.recovery_counters();
        assert_eq!(counters.reinjections, 2, "attempts 2 and 3");
        assert_eq!(counters.lost, 1);
        assert_eq!(net.recovery_pending(), 0);
    }
}
