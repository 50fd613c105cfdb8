//! Lossless capture and restore of the engine's complete dynamic state.
//!
//! This module is the network half of the checkpoint body (the driver-loop
//! half lives in [`crate::sim`]): every router buffer, VC allocation,
//! credit counter, arbiter pointer, source queue, wheel event, in-flight
//! packet, statistic and fault-layer structure is
//! written by [`Network::encode_state`] and read back by
//! [`Network::decode_state`] onto a freshly built network of the same
//! configuration. Restore is exact: the restored network produces the same
//! cycle-by-cycle schedules, the same trace events and the same final
//! statistics as the original would have.
//!
//! Each type's wire layout is declared once, as its [`Codec`]. Code is
//! written by hand only where decode checks the stream against the freshly
//! built network or rebuilds state from it: router FIFOs refill through
//! `push`, counts must match the configuration, and fault state is rebuilt
//! from its plan.
//!
//! Hash-map shaped state (`in_flight`, the e2e `by_packet` map, zombie
//! sets, absorbed counts) is serialized **sorted by key**. The engine only
//! ever uses these maps for point lookups — never iterates them in a way
//! that affects schedules — so the restored maps' different internal order
//! is unobservable.
//!
//! [`Network::state_digest`] hashes the encoded state, giving replay
//! tooling a cheap per-cycle trajectory fingerprint, and
//! [`Network::divergences`] walks two networks field by field to explain
//! *where* two supposedly identical states differ (router, VC, field,
//! expected vs actual) — the payload of `heteronoc replay`'s report.

use std::collections::BTreeMap;

use heteronoc_obs::LogHistogram;

use crate::checkpoint::{codec_enum, codec_struct, fnv1a64, CheckpointError, Codec, Dec, Enc};
use crate::fault::{
    DropReason, DroppedPacket, FaultCounters, FaultPlan, RecoveryCounters, UnrecoverableFault,
};
use crate::metrics::{EpochSample, EpochSeries};
use crate::packet::{Flit, FlitKind, Packet, PacketClass};
use crate::router::arbiter::RrArbiter;
use crate::router::{InputVc, OutputVc};
use crate::routing::{RouteChoice, RouteTable, RoutingKind, VcClass};
use crate::sched::WakeReason;
use crate::stats::{
    Counters, LatencyAgg, LatencyDist, LatencyPctls, LinkEvents, NetStats, Pctls, RouterEvents,
};
use crate::trace::TraceSink;
use crate::types::RouterId;

use super::fault_state::{
    E2eState, FarEvent, FaultState, LinkTx, ReplayEntry, Retained, SourceE2e,
};
use super::{Delivered, Event, Network, NodeState, PacketMeta, Sending, Upstream};

/// One field-level difference between two network states (see
/// [`Network::divergences`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Where the difference sits, e.g. `"r3.p1.v0"`, `"n5"`, `"wheel[2]"`
    /// or `"global"`.
    pub location: String,
    /// Name of the differing field, e.g. `"credits"` or `"fifo"`.
    pub field: String,
    /// Value in the reference (`self`) network.
    pub expected: String,
    /// Value in the compared (`other`) network.
    pub actual: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}.{}: expected {}, got {}",
            self.location, self.field, self.expected, self.actual
        )
    }
}

// --------------------------------------------------------------------------
// Section tags (checked on decode; a mismatch names the section)
// --------------------------------------------------------------------------

const SEC_GLOBALS: u8 = 1;
const SEC_ROUTERS: u8 = 2;
const SEC_NODES: u8 = 3;
const SEC_WHEEL: u8 = 4;
const SEC_IN_FLIGHT: u8 = 5;
const SEC_DELIVERED: u8 = 6;
const SEC_STATS: u8 = 7;
const SEC_ROUTING: u8 = 8;
const SEC_FAULTS: u8 = 9;

// --------------------------------------------------------------------------
// Wire layouts
// --------------------------------------------------------------------------

codec_struct! {
    Flit { packet, kind, seq, total, src, dst, class, inject, buffered }
    Packet { id, src, dst, size, class, tag, birth }
    RouteChoice { port, class }
    OutputVc { owner, credits }
    Sending { vc, flits }
    NodeState { queue, sending, vcs, rr_vc; router, port, lanes }
    PacketMeta { packet, inject, received, total, measured }
    Delivered { packet, inject, retire }

    NetStats {
        packets_retired, flits_retired, latency, latency_by_class, latency_dist, counts,
        baseline; vc_counts, buffer_slots
    }
    Counters {
        cycles, packets_offered, heads_injected, retired, buffer_occ, vc_busy, routers, links
    }
    LatencyAgg { count, total, queuing, blocking, transfer }
    LatencyDist { total, queuing, blocking, transfer }
    LinkEvents { busy_cycles, dual_cycles }
    RouterEvents { buffer_writes, buffer_reads, sa1_arbs, va_grants }

    FaultState {
        plan, rng, links, next_hard, far, router_dead, dead_links, dead_routers, absorbing,
        absorbed, dropped, counters, error, routing_stale, e2e; p_flit, hard
    }
    LinkTx { replay, tx_seq, rx_expected, attempts, epoch, backoff_until, dead, in_transit }
    ReplayEntry { seq, vc, flit }
    DroppedPacket { packet, cycle, reason, recoverable }
    UnrecoverableFault { link, src, dst, attempts, cycle, packet }
    FaultCounters {
        flits_corrupted, retransmissions, retries, timeouts, flits_lost_dead_router,
        packets_dropped, links_dead, routers_dead
    }
    E2eState { sources, by_packet, zombies, counters; policy }
    SourceE2e { next_seq, retained, contig, sparse }
    Retained { dst, size, class, tag, measured, first_birth, attempts, current, current_alive }
    RecoveryCounters {
        acks, reinjections, reinjected_flits, duplicates_suppressed, recovered, lost,
        retention_peak, retention_stalls
    }

    EpochSeries { every, mark, samples }
    EpochSample { start, end, injected, ejected, buffer_occ, vc_busy, link_util, latency }
    LatencyPctls { total, queuing, blocking, transfer }
    Pctls { p50, p95, p99 }
}

codec_enum! {
    PacketClass, "packet class" { 0 => Data, 1 => Control, 2 => Expedited }
    FlitKind, "flit kind" { 0 => Head, 1 => Body, 2 => Tail, 3 => HeadTail }
    VcClass, "vc class" { 0 => Any, 1 => Dateline0, 2 => Dateline1, 3 => NonEscape, 4 => Escape }
    Upstream, "upstream" { 0 => Router(router, port), 1 => Node(node) }
    Event, "event tag" {
        0 => FlitArrive { router, port, vc, flit },
        1 => Credit { up, vc },
        2 => Retire { flit },
        3 => LinkArrive { link, seq, corrupted, router, port, vc, flit },
        4 => Ack { link, seq },
        5 => Nack { link, seq },
    }
    RoutingKind, "routing kind" { 0 => DimensionOrder, 1 => TableXy(t), 2 => FullTable(t) }
    DropReason, "drop reason" {
        0 => SourceDead, 1 => DestinationDead, 2 => Unreachable, 3 => Wedged,
        4 => RecoveryExhausted,
    }
    FarEvent, "far event" {
        0 => Resend { link, epoch },
        1 => Timeout { link, epoch },
        2 => E2eAck { node, seq },
        3 => E2eTimeout { node, seq, attempt },
    }
}

/// An arbiter is its rotating-pointer position.
impl Codec for RrArbiter {
    const MIN: usize = 8;
    fn enc(&self, e: &mut Enc) {
        self.pointer().enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
        Codec::dec(d).map(RrArbiter::from_pointer)
    }
}

/// A histogram is its buckets up to the last non-zero one, then its sum;
/// decode derives the count from the buckets.
impl Codec for LogHistogram {
    const MIN: usize = 16;
    fn enc(&self, e: &mut Enc) {
        let used = self
            .buckets()
            .iter()
            .rposition(|&b| b > 0)
            .map_or(0, |i| i + 1);
        e.items(self.buckets()[..used].iter());
        self.sum().enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
        let (buckets, sum): (Vec<u64>, u64) = Codec::dec(d)?;
        LogHistogram::from_parts(&buckets, sum)
            .ok_or(CheckpointError::Malformed("histogram buckets"))
    }
}

/// A route table is its paths keyed by `(src, dst)`; each path must run
/// from its `src` to its `dst`.
impl Codec for RouteTable {
    fn enc(&self, e: &mut Enc) {
        let paths: BTreeMap<_, _> = self.pairs().map(|(k, path)| (k, path.to_vec())).collect();
        paths.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
        let paths: BTreeMap<(RouterId, RouterId), Vec<RouterId>> = Codec::dec(d)?;
        let mut t = RouteTable::new();
        for ((src, dst), path) in paths {
            if path.first() != Some(&src) || path.last() != Some(&dst) {
                return Err(CheckpointError::Malformed("route table path"));
            }
            t.insert(src, dst, path);
        }
        Ok(t)
    }
}

/// A fault plan is its text form.
impl Codec for FaultPlan {
    fn enc(&self, e: &mut Enc) {
        self.to_text().enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
        FaultPlan::from_text(&String::dec(d)?).map_err(|_| CheckpointError::Malformed("fault plan"))
    }
}

// --------------------------------------------------------------------------
// Network state capture / restore
// --------------------------------------------------------------------------

impl Network {
    /// Appends the engine's complete dynamic state to `e`.
    ///
    /// Structural state derivable from the configuration (topology graph,
    /// link lane counts, buffer capacities) is *not* written; the restoring
    /// side rebuilds it via [`Network::new`] and
    /// [`Network::decode_state`] overwrites only what evolves.
    pub(crate) fn encode_state(&self, e: &mut Enc) {
        e.sec(SEC_GLOBALS);
        (self.now, self.next_packet).enc(e);

        e.sec(SEC_ROUTERS);
        e.usize(self.routers.len());
        for r in &self.routers {
            for vc in &r.inputs {
                vc.fifo().enc(e);
                vc.enc(e);
            }
            for out in &r.outputs {
                out.vcs.enc(e);
                for a in [&out.va_arb, &out.sa_primary, &out.sa_secondary] {
                    a.enc(e);
                }
            }
            for a in &r.sa_stage1 {
                a.enc(e);
            }
            (r.occupancy(), r.busy_vcs()).enc(e);
        }

        e.sec(SEC_NODES);
        self.nodes.enc(e);
        e.sec(SEC_WHEEL);
        self.wheel.enc(e);
        e.sec(SEC_IN_FLIGHT);
        let mut in_flight: Vec<&PacketMeta> = self.in_flight.values().collect();
        in_flight.sort_unstable_by_key(|m| m.packet.id);
        e.items(in_flight.into_iter());
        e.sec(SEC_DELIVERED);
        self.delivered.enc(e);
        e.sec(SEC_STATS);
        self.stats.enc(e);
        e.sec(SEC_ROUTING);
        self.cfg.routing.enc(e);
        e.sec(SEC_FAULTS);
        self.faults.enc(e);
    }

    /// Overwrites this network's dynamic state from a stream written by
    /// [`Network::encode_state`]. The network must have been freshly built
    /// via [`Network::new`] from the same configuration the checkpoint was
    /// taken under (the checkpoint header's config hash enforces this at
    /// the file level); fault state and routing tables are reconstructed
    /// entirely from the stream.
    ///
    /// # Errors
    /// [`CheckpointError::Malformed`] naming the failing section, or
    /// [`CheckpointError::Truncated`] when the stream ends early. The
    /// network is left in an unspecified (but memory-safe) state on error;
    /// discard it.
    pub(crate) fn decode_state(&mut self, d: &mut Dec) -> Result<(), CheckpointError> {
        use CheckpointError::Malformed;

        d.sec(SEC_GLOBALS, "globals")?;
        (self.now, self.next_packet) = Codec::dec(d)?;

        d.sec(SEC_ROUTERS, "routers")?;
        if d.len(1)? != self.routers.len() {
            return Err(Malformed("router count"));
        }
        for (r, rc) in self.routers.iter_mut().zip(&self.cfg.routers) {
            // Flits go in through `push`, so the occupancy counter and the
            // FIFO masks are derived from the decoded FIFOs, never read.
            for i in 0..r.inputs.len() {
                let fifo: Vec<Flit> = Codec::dec(d)?;
                if fifo.len() > rc.buffer_depth {
                    return Err(Malformed("fifo depth"));
                }
                r.inputs[i] = InputVc::dec(d)?;
                for f in fifo {
                    r.push(i, f);
                }
            }
            for out in &mut r.outputs {
                let vcs: Vec<OutputVc> = Codec::dec(d)?;
                if vcs.len() != out.vcs.len() {
                    return Err(Malformed("output vc count"));
                }
                out.vcs = vcs;
                for a in [&mut out.va_arb, &mut out.sa_primary, &mut out.sa_secondary] {
                    *a = Codec::dec(d)?;
                }
            }
            for a in &mut r.sa_stage1 {
                *a = Codec::dec(d)?;
            }
            // The ready mask follows from the decoded grants and credits.
            r.derive_ready();
            // The stored counters only cross-check the FIFOs: a restore that
            // trusted a stale occupancy could leave a router asleep over
            // its flits.
            if <(u32, u32)>::dec(d)? != (r.occupancy(), r.busy_vcs()) {
                return Err(Malformed("router occupancy"));
            }
        }

        d.sec(SEC_NODES, "nodes")?;
        let nodes: Vec<NodeState> = Codec::dec(d)?;
        if nodes.len() != self.nodes.len() {
            return Err(Malformed("node count"));
        }
        for (fresh, n) in self.nodes.iter_mut().zip(nodes) {
            if n.vcs.len() != fresh.vcs.len() {
                return Err(Malformed("node vc count"));
            }
            *fresh = NodeState {
                router: fresh.router,
                port: fresh.port,
                lanes: fresh.lanes,
                ..n
            };
        }

        d.sec(SEC_WHEEL, "wheel")?;
        self.wheel = Codec::dec(d)?;
        d.sec(SEC_IN_FLIGHT, "in_flight")?;
        let in_flight: Vec<PacketMeta> = Codec::dec(d)?;
        self.in_flight = in_flight.into_iter().map(|m| (m.packet.id, m)).collect();
        d.sec(SEC_DELIVERED, "delivered")?;
        self.delivered = Codec::dec(d)?;

        d.sec(SEC_STATS, "stats")?;
        let stats = NetStats::dec(d)?;
        let s = &mut self.stats;
        if !stats.counts.same_shape(&s.counts)
            || (stats.baseline.as_ref()).is_some_and(|b| !b.same_shape(&s.counts))
        {
            return Err(Malformed("stats counters"));
        }
        *s = NetStats {
            vc_counts: std::mem::take(&mut s.vc_counts),
            buffer_slots: std::mem::take(&mut s.buffer_slots),
            ..stats
        };

        d.sec(SEC_ROUTING, "routing")?;
        self.cfg.routing = Codec::dec(d)?;

        d.sec(SEC_FAULTS, "faults")?;
        let faults: Option<Box<FaultState>> = Codec::dec(d)?;
        self.faults = faults.map(|fs| self.rebuild_faults(fs)).transpose()?;

        // The restore refilled every router that held flits at the
        // checkpoint: count each as woken.
        for router in &self.routers {
            if router.occupancy() > 0 {
                self.sched.note_wake(WakeReason::Restore);
            }
        }

        Ok(())
    }

    /// Checks decoded fault state against this network and rebuilds what
    /// the stream leaves out (`p_flit`, the sorted hard-fault list, the
    /// e2e policy) from its plan.
    fn rebuild_faults(&self, mut fs: Box<FaultState>) -> Result<Box<FaultState>, CheckpointError> {
        use CheckpointError::Malformed;

        fs.plan
            .validate(self.graph.num_links(), self.graph.num_routers())
            .map_err(|_| Malformed("fault plan bounds"))?;
        let fresh = self.fault_state(fs.plan.clone());
        if fs.links.len() != fresh.links.len() {
            return Err(Malformed("link count"));
        }
        if fs
            .links
            .iter()
            .zip(&fresh.links)
            .any(|(l, f)| l.in_transit.len() != f.in_transit.len())
        {
            return Err(Malformed("in_transit count"));
        }
        if fs.next_hard > fresh.hard.len() {
            return Err(Malformed("next_hard"));
        }
        if fs.router_dead.len() != fresh.router_dead.len() {
            return Err(Malformed("router_dead count"));
        }
        match (&mut fs.e2e, fresh.e2e) {
            (None, None) => {}
            (Some(e2e), Some(f)) => {
                if e2e.sources.len() != f.sources.len() {
                    return Err(Malformed("e2e source count"));
                }
                e2e.policy = f.policy;
            }
            _ => return Err(Malformed("e2e presence")),
        }
        fs.p_flit = fresh.p_flit;
        fs.hard = fresh.hard;
        Ok(fs)
    }

    /// FNV-1a-64 fingerprint of the encoded engine state — the per-cycle
    /// trajectory hash the divergence bisector compares.
    pub(crate) fn state_digest(&self) -> u64 {
        let mut e = Enc::new();
        self.encode_state(&mut e);
        fnv1a64(&e.into_bytes())
    }

    /// Bytes the installed trace sink has emitted so far (`None` without a
    /// sink, or when the sink does not count — see
    /// [`crate::trace::TraceSink::bytes_written`]).
    pub(crate) fn trace_bytes_written(&self) -> Option<u64> {
        self.tracer.as_deref().and_then(TraceSink::bytes_written)
    }

    /// Walks two networks field by field and reports up to `limit` places
    /// where their dynamic state differs. `self` is treated as the
    /// reference ("expected"), `other` as the candidate ("actual").
    ///
    /// An empty result means the states are behaviourally identical (their
    /// [`Network::state_digest`]s agree up to hash collisions).
    pub(crate) fn divergences(&self, other: &Network, limit: usize) -> Vec<Divergence> {
        let mut out = Vec::new();
        let mut push = |loc: String, field: &str, exp: String, act: String| {
            if out.len() < limit && exp != act {
                out.push(Divergence {
                    location: loc,
                    field: field.to_owned(),
                    expected: exp,
                    actual: act,
                });
            }
        };

        push(
            "global".into(),
            "now",
            self.now.to_string(),
            other.now.to_string(),
        );
        push(
            "global".into(),
            "next_packet",
            self.next_packet.to_string(),
            other.next_packet.to_string(),
        );
        push(
            "global".into(),
            "measuring",
            self.stats.measuring().to_string(),
            other.stats.measuring().to_string(),
        );
        push(
            "global".into(),
            "in_flight",
            self.in_flight.len().to_string(),
            other.in_flight.len().to_string(),
        );

        for (ri, (a, b)) in self.routers.iter().zip(&other.routers).enumerate() {
            for (i, (va, vb)) in a.inputs.iter().zip(&b.inputs).enumerate() {
                let (p, v) = a.port_vc(i);
                let loc = format!("r{ri}.p{}.v{}", p.index(), v.index());
                let fifo = |vc: &InputVc| {
                    vc.fifo()
                        .iter()
                        .map(|f| format!("{}#{}", f.packet, f.seq))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                push(loc.clone(), "fifo", fifo(va), fifo(vb));
                push(
                    loc.clone(),
                    "route",
                    format!("{:?}", va.route()),
                    format!("{:?}", vb.route()),
                );
                push(
                    loc.clone(),
                    "out_vc",
                    format!("{:?}", va.out_vc()),
                    format!("{:?}", vb.out_vc()),
                );
                push(
                    loc.clone(),
                    "holder",
                    format!("{:?}", va.holder),
                    format!("{:?}", vb.holder),
                );
                push(
                    loc.clone(),
                    "head_wait",
                    va.head_wait.to_string(),
                    vb.head_wait.to_string(),
                );
                push(
                    loc,
                    "sent_on_grant",
                    va.sent_on_grant.to_string(),
                    vb.sent_on_grant.to_string(),
                );
            }
            for (pi, (oa, ob)) in a.outputs.iter().zip(&b.outputs).enumerate() {
                for (vi, (va, vb)) in oa.vcs.iter().zip(&ob.vcs).enumerate() {
                    let loc = format!("r{ri}.out{pi}.v{vi}");
                    push(
                        loc.clone(),
                        "owner",
                        format!("{:?}", va.owner),
                        format!("{:?}", vb.owner),
                    );
                    push(
                        loc,
                        "credits",
                        va.credits.to_string(),
                        vb.credits.to_string(),
                    );
                }
                let loc = format!("r{ri}.out{pi}");
                push(
                    loc.clone(),
                    "va_arb",
                    oa.va_arb.pointer().to_string(),
                    ob.va_arb.pointer().to_string(),
                );
                push(
                    loc,
                    "sa_arb",
                    format!("{}/{}", oa.sa_primary.pointer(), oa.sa_secondary.pointer()),
                    format!("{}/{}", ob.sa_primary.pointer(), ob.sa_secondary.pointer()),
                );
            }
            push(
                format!("r{ri}"),
                "occupancy",
                a.occupancy().to_string(),
                b.occupancy().to_string(),
            );
        }

        for (ni, (a, b)) in self.nodes.iter().zip(&other.nodes).enumerate() {
            let loc = format!("n{ni}");
            push(
                loc.clone(),
                "queue",
                a.queue.len().to_string(),
                b.queue.len().to_string(),
            );
            let send = |n: &NodeState| match &n.sending {
                None => "idle".to_owned(),
                Some(s) => format!("vc{} x{}", s.vc.index(), s.flits.len()),
            };
            push(loc.clone(), "sending", send(a), send(b));
            let credits = |n: &NodeState| {
                n.vcs
                    .iter()
                    .map(|v| v.credits.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            push(loc, "credits", credits(a), credits(b));
        }

        for (wi, (a, b)) in self.wheel.iter().zip(&other.wheel).enumerate() {
            let digest = |slot: &[Event]| {
                let mut e = Enc::new();
                for ev in slot {
                    ev.enc(&mut e);
                }
                format!("{} events ({:016x})", slot.len(), fnv1a64(&e.into_bytes()))
            };
            push(format!("wheel[{wi}]"), "events", digest(a), digest(b));
        }

        push(
            "stats".into(),
            "packets_retired",
            self.stats.packets_retired.to_string(),
            other.stats.packets_retired.to_string(),
        );
        push(
            "stats".into(),
            "flits_retired",
            self.stats.flits_retired.to_string(),
            other.stats.flits_retired.to_string(),
        );
        push(
            "stats".into(),
            "latency_total",
            self.stats.latency.total.to_string(),
            other.stats.latency.total.to_string(),
        );

        let fault_digest = |n: &Network| match &n.faults {
            None => "none".to_owned(),
            Some(fs) => {
                let mut e = Enc::new();
                fs.enc(&mut e);
                format!("{:016x}", fnv1a64(&e.into_bytes()))
            }
        };
        push(
            "faults".into(),
            "state",
            fault_digest(self),
            fault_digest(other),
        );

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::fault::{FaultKind, HardFault, RecoveryPolicy, RetryPolicy};
    use crate::topology::TopologyKind;
    use crate::types::{Bits, LinkId, NodeId};

    fn mesh4() -> NetworkConfig {
        NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 4,
                height: 4,
            },
            crate::config::RouterCfg::BASELINE,
            Bits(192),
            2.2,
        )
    }

    fn stepped(cycles: u64) -> Network {
        let mut net = Network::new(mesh4()).unwrap();
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        net.enqueue(NodeId(5), NodeId(10), Bits(1024), PacketClass::Control, 1);
        for _ in 0..cycles {
            net.step();
        }
        net
    }

    fn roundtrip(net: &Network, cfg: NetworkConfig) -> Network {
        let mut e = Enc::new();
        net.encode_state(&mut e);
        let bytes = e.into_bytes();
        let mut fresh = Network::new(cfg).unwrap();
        let mut d = Dec::new(&bytes);
        fresh.decode_state(&mut d).unwrap();
        assert!(d.is_done(), "decoder must consume the whole stream");
        fresh
    }

    /// Encodes `net` and decodes it into a fresh network, expecting the
    /// restore to fail.
    fn restore_error(net: &Network) -> CheckpointError {
        let mut e = Enc::new();
        net.encode_state(&mut e);
        let bytes = e.into_bytes();
        let mut fresh = Network::new(mesh4()).unwrap();
        fresh
            .decode_state(&mut Dec::new(&bytes))
            .expect_err("restore must reject the stream")
    }

    #[test]
    fn restore_rejects_an_occupancy_that_disagrees_with_the_fifos() {
        let mut net = stepped(5);
        let rt = net
            .routers
            .iter_mut()
            .find(|rt| rt.occupancy() > 0)
            .expect("flits are buffered mid-flight");
        rt.set_derived(
            rt.occupancy() + 1,
            rt.nonempty(),
            rt.head_front(),
            rt.ready(),
        );
        let err = restore_error(&net);
        assert!(
            matches!(err, CheckpointError::Malformed("router occupancy")),
            "{err:?}"
        );
    }

    #[test]
    fn restore_rejects_a_fifo_deeper_than_the_buffer() {
        let mut net = stepped(5);
        let (r, i, f) = net
            .routers
            .iter()
            .enumerate()
            .find_map(|(r, rt)| {
                rt.inputs
                    .iter()
                    .enumerate()
                    .find_map(|(i, vc)| vc.fifo().front().map(|&f| (r, i, f)))
            })
            .expect("flits are buffered mid-flight");
        while net.routers[r].inputs[i].fifo().len() <= net.cfg.routers[r].buffer_depth {
            net.routers[r].push(i, f);
        }
        let err = restore_error(&net);
        assert!(
            matches!(err, CheckpointError::Malformed("fifo depth")),
            "{err:?}"
        );
    }

    #[test]
    fn histogram_roundtrips_and_more_than_64_buckets_is_malformed() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 7, 7, 300] {
            h.record(v);
        }
        let mut e = Enc::new();
        h.enc(&mut e);
        vec![1u64; 65].enc(&mut e);
        e.u64(65);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(LogHistogram::dec(&mut d).unwrap(), h);
        let err = LogHistogram::dec(&mut d).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Malformed("histogram buckets")),
            "{err:?}"
        );
    }

    #[test]
    fn mid_flight_state_roundtrips_exactly() {
        let net = stepped(5);
        assert!(net.in_flight() > 0, "packets must be mid-flight");
        let restored = roundtrip(&net, mesh4());
        assert_eq!(net.state_digest(), restored.state_digest());
        assert!(net.divergences(&restored, 64).is_empty());
    }

    #[test]
    fn restored_network_continues_identically() {
        let mut a = stepped(4);
        let mut b = roundtrip(&a, mesh4());
        for _ in 0..200 {
            a.step();
            b.step();
            assert_eq!(a.state_digest(), b.state_digest(), "cycle {}", a.now());
        }
        assert_eq!(
            a.drain_delivered().len(),
            b.drain_delivered().len(),
            "same deliveries"
        );
    }

    #[test]
    fn faulted_network_roundtrips_with_recovery_state() {
        let cfg = mesh4();
        let mut plan = FaultPlan::transient(1e-4, 99);
        plan.retry = RetryPolicy {
            max_attempts: 8,
            timeout: 32,
        };
        plan.hard.push(HardFault {
            cycle: 6,
            kind: FaultKind::Router(RouterId(15)),
        });
        plan.recovery = Some(RecoveryPolicy::default());
        let mut net = Network::with_faults(cfg.clone(), plan).unwrap();
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        net.enqueue(NodeId(3), NodeId(12), Bits(1024), PacketClass::Data, 1);
        for _ in 0..12 {
            net.step();
        }
        let mut restored = roundtrip(&net, cfg);
        assert_eq!(net.state_digest(), restored.state_digest());
        for _ in 0..50 {
            net.step();
            restored.step();
            assert_eq!(net.state_digest(), restored.state_digest());
        }
    }

    #[test]
    fn divergence_names_the_perturbed_field() {
        let net = stepped(5);
        let mut other = roundtrip(&net, mesh4());
        // Perturb one credit counter on the restored copy.
        'outer: for r in &mut other.routers {
            for out in &mut r.outputs {
                if let Some(ov) = out.vcs.first_mut() {
                    ov.credits += 1;
                    break 'outer;
                }
            }
        }
        let divs = net.divergences(&other, 16);
        assert!(!divs.is_empty());
        assert!(
            divs.iter().any(|dv| dv.field == "credits"),
            "credit perturbation must be named: {divs:?}"
        );
        assert_ne!(net.state_digest(), other.state_digest());
    }

    // The pinned digests below are schema 3's; a roundtrip test passes
    // under any symmetric format change, these fail on the first byte that
    // moves.

    #[test]
    fn checkpoint_bytes_are_pinned_for_a_mid_flight_mesh_mid_window() {
        let mut net = Network::new(mesh4()).unwrap();
        let classes = [
            PacketClass::Data,
            PacketClass::Control,
            PacketClass::Expedited,
        ];
        for (i, (src, dst)) in [(0, 15), (5, 10), (12, 3), (6, 9), (1, 2)]
            .into_iter()
            .enumerate()
        {
            let class = classes[i % 3];
            net.enqueue(NodeId(src), NodeId(dst), Bits(1024), class, i as u64);
        }
        for _ in 0..12 {
            net.step();
        }
        net.start_measuring();
        for _ in 0..12 {
            net.step();
        }
        net.enqueue(NodeId(15), NodeId(0), Bits(512), PacketClass::Data, 9);
        net.enqueue(NodeId(3), NodeId(12), Bits(1024), PacketClass::Control, 10);
        for _ in 0..6 {
            net.step();
        }
        assert!(net.in_flight() > 0 && !net.delivered.is_empty());
        let base = net.stats.baseline.as_ref().expect("window open");
        assert!(base.cycles == 12 && base.routers.iter().any(|r| r.buffer_reads > 0));
        assert_eq!(net.state_digest(), 0xe993_44d5_d5fa_4b5c);
    }

    #[test]
    fn checkpoint_bytes_are_pinned_for_a_faulted_mesh_mid_recovery() {
        let mut plan = FaultPlan::transient(2e-3, 41);
        plan.retry = RetryPolicy {
            max_attempts: 8,
            timeout: 32,
        };
        plan.hard.push(HardFault {
            cycle: 9,
            kind: FaultKind::Link(LinkId(4)),
        });
        plan.recovery = Some(RecoveryPolicy {
            retry: RetryPolicy {
                max_attempts: 4,
                timeout: 200,
            },
            retention: 8,
        });
        let mut net = Network::with_faults(mesh4(), plan).unwrap();
        net.start_measuring();
        for i in 0..16 {
            net.enqueue(NodeId(i), NodeId(15 - i), Bits(1024), PacketClass::Data, 0);
        }
        for _ in 0..20 {
            net.step();
        }
        let fs = net.faults.as_ref().unwrap();
        assert!(!fs.far.is_empty(), "far events pending");
        assert!(!fs.dead_links.is_empty(), "link killed");
        assert!(fs.counters.flits_corrupted > 0, "BER corrupted flits");
        assert!(fs.e2e.as_ref().unwrap().pending() > 0, "packets retained");
        assert_eq!(net.state_digest(), 0x35dd_a150_f3bb_99b8);
    }

    #[test]
    fn checkpoint_bytes_are_pinned_for_table_routing() {
        let mut cfg = mesh4();
        let graph = cfg.build_graph();
        cfg.routing =
            RoutingKind::TableXy(RouteTable::for_hubs(&graph, &[RouterId(0), RouterId(15)]));
        let mut net = Network::new(cfg).unwrap();
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Expedited, 0);
        net.enqueue(NodeId(10), NodeId(0), Bits(1024), PacketClass::Expedited, 1);
        net.enqueue(NodeId(4), NodeId(11), Bits(1024), PacketClass::Data, 2);
        for _ in 0..6 {
            net.step();
        }
        assert!(net.in_flight() > 0);
        assert_eq!(net.state_digest(), 0x0ed1_bce4_b15f_ed1c);
    }

    #[test]
    fn window_counters_roundtrip() {
        let mut net = Network::new(mesh4()).unwrap();
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        for _ in 0..10 {
            net.step();
        }
        net.start_measuring();
        net.enqueue(NodeId(3), NodeId(12), Bits(1024), PacketClass::Control, 1);
        for _ in 0..20 {
            net.step();
        }
        let mut restored = roundtrip(&net, mesh4());
        assert_eq!(net.stats, restored.stats);
        for _ in 0..30 {
            net.step();
            restored.step();
        }
        assert_eq!(net.stats, restored.stats);
        assert_eq!(restored.stats.cycles(), 50);
        assert_eq!(
            restored.stats.packets_retired, 1,
            "the warm-up packet is not measured"
        );
    }
}
