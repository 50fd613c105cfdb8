//! Lossless capture and restore of the engine's complete dynamic state.
//!
//! This module is the network half of the checkpoint body (the driver-loop
//! half lives in [`crate::sim`]): every router buffer, VC allocation,
//! credit counter, arbiter pointer, source queue, wheel event, in-flight
//! packet, statistic, fault-layer structure and epoch accumulator is
//! written by [`Network::encode_state`] and read back by
//! [`Network::decode_state`] onto a freshly built network of the same
//! configuration. Restore is exact: the restored network produces the same
//! cycle-by-cycle schedules, the same trace events and the same final
//! statistics as the original would have.
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

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use heteronoc_obs::LogHistogram;
use rand::rngs::StdRng;

use crate::checkpoint::{fnv1a64, CheckpointError, Dec, Enc};
use crate::fault::{
    DropReason, DroppedPacket, FaultCounters, FaultPlan, RecoveryCounters, UnrecoverableFault,
};
use crate::metrics::EpochRecorder;
use crate::packet::{Flit, FlitKind, Packet, PacketClass};
use crate::router::arbiter::RrArbiter;
use crate::router::InputVc;
use crate::routing::{RouteChoice, RouteTable, RoutingKind, VcClass};
use crate::sched::WakeReason;
use crate::stats::{
    LatencyAgg, LatencyDist, LatencyPctls, LinkEvents, PacketRecord, Pctls, RouterEvents,
};
use crate::types::{Bits, LinkId, NodeId, PacketId, PortId, RouterId, VcId};

use super::fault_state::{FarEvent, FaultState, ReplayEntry, Retained, SourceE2e};
use super::{Delivered, Event, Network, NodeState, PacketMeta, Sending, Upstream, WHEEL};

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
const SEC_EPOCHS: u8 = 10;

// --------------------------------------------------------------------------
// Primitive codecs
// --------------------------------------------------------------------------

fn enc_class(e: &mut Enc, c: PacketClass) {
    e.u8(match c {
        PacketClass::Data => 0,
        PacketClass::Control => 1,
        PacketClass::Expedited => 2,
    });
}

fn dec_class(d: &mut Dec) -> Result<PacketClass, CheckpointError> {
    Ok(match d.u8()? {
        0 => PacketClass::Data,
        1 => PacketClass::Control,
        2 => PacketClass::Expedited,
        _ => return Err(CheckpointError::Malformed("packet class")),
    })
}

fn enc_flit(e: &mut Enc, f: &Flit) {
    e.u64(f.packet.index() as u64);
    e.u8(match f.kind {
        FlitKind::Head => 0,
        FlitKind::Body => 1,
        FlitKind::Tail => 2,
        FlitKind::HeadTail => 3,
    });
    e.u32(f.seq);
    e.u32(f.total);
    e.usize(f.src.index());
    e.usize(f.dst.index());
    enc_class(e, f.class);
    e.u64(f.inject);
    e.u64(f.buffered);
}

fn dec_flit(d: &mut Dec) -> Result<Flit, CheckpointError> {
    Ok(Flit {
        packet: PacketId(d.usize()?),
        kind: match d.u8()? {
            0 => FlitKind::Head,
            1 => FlitKind::Body,
            2 => FlitKind::Tail,
            3 => FlitKind::HeadTail,
            _ => return Err(CheckpointError::Malformed("flit kind")),
        },
        seq: d.u32()?,
        total: d.u32()?,
        src: NodeId(d.usize()?),
        dst: NodeId(d.usize()?),
        class: dec_class(d)?,
        inject: d.u64()?,
        buffered: d.u64()?,
    })
}

fn enc_packet(e: &mut Enc, p: &Packet) {
    e.usize(p.id.index());
    e.usize(p.src.index());
    e.usize(p.dst.index());
    e.u32(p.size.get());
    enc_class(e, p.class);
    e.u64(p.tag);
    e.u64(p.birth);
}

fn dec_packet(d: &mut Dec) -> Result<Packet, CheckpointError> {
    Ok(Packet {
        id: PacketId(d.usize()?),
        src: NodeId(d.usize()?),
        dst: NodeId(d.usize()?),
        size: Bits(d.u32()?),
        class: dec_class(d)?,
        tag: d.u64()?,
        birth: d.u64()?,
    })
}

fn enc_route(e: &mut Enc, r: &Option<RouteChoice>) {
    match r {
        None => e.bool(false),
        Some(rc) => {
            e.bool(true);
            e.usize(rc.port.index());
            e.u8(match rc.class {
                VcClass::Any => 0,
                VcClass::Dateline0 => 1,
                VcClass::Dateline1 => 2,
                VcClass::NonEscape => 3,
                VcClass::Escape => 4,
            });
        }
    }
}

fn dec_route(d: &mut Dec) -> Result<Option<RouteChoice>, CheckpointError> {
    if !d.bool()? {
        return Ok(None);
    }
    Ok(Some(RouteChoice {
        port: PortId(d.usize()?),
        class: match d.u8()? {
            0 => VcClass::Any,
            1 => VcClass::Dateline0,
            2 => VcClass::Dateline1,
            3 => VcClass::NonEscape,
            4 => VcClass::Escape,
            _ => return Err(CheckpointError::Malformed("vc class")),
        },
    }))
}

fn enc_arb(e: &mut Enc, a: &RrArbiter) {
    e.usize(a.pointer());
}

fn dec_arb(d: &mut Dec) -> Result<RrArbiter, CheckpointError> {
    Ok(RrArbiter::from_pointer(d.usize()?))
}

fn enc_opt_usize(e: &mut Enc, v: Option<usize>) {
    match v {
        None => e.bool(false),
        Some(x) => {
            e.bool(true);
            e.usize(x);
        }
    }
}

fn dec_opt_usize(d: &mut Dec) -> Result<Option<usize>, CheckpointError> {
    Ok(if d.bool()? { Some(d.usize()?) } else { None })
}

/// A histogram is stored as its buckets up to the last non-zero one, then
/// its sum; the count is derived from the buckets on decode.
fn enc_hist(e: &mut Enc, h: &LogHistogram) {
    let used = h
        .buckets()
        .iter()
        .rposition(|&b| b > 0)
        .map_or(0, |i| i + 1);
    e.u64s(&h.buckets()[..used]);
    e.u64(h.sum());
}

fn dec_hist(d: &mut Dec) -> Result<LogHistogram, CheckpointError> {
    let buckets = d.u64s()?;
    let sum = d.u64()?;
    LogHistogram::from_parts(&buckets, sum).ok_or(CheckpointError::Malformed("histogram buckets"))
}

fn enc_dist(e: &mut Enc, dist: &LatencyDist) {
    enc_hist(e, &dist.total);
    enc_hist(e, &dist.queuing);
    enc_hist(e, &dist.blocking);
    enc_hist(e, &dist.transfer);
}

fn dec_dist(d: &mut Dec) -> Result<LatencyDist, CheckpointError> {
    Ok(LatencyDist {
        total: dec_hist(d)?,
        queuing: dec_hist(d)?,
        blocking: dec_hist(d)?,
        transfer: dec_hist(d)?,
    })
}

fn enc_agg(e: &mut Enc, a: &LatencyAgg) {
    e.u64(a.count);
    e.u64(a.total);
    e.u64(a.queuing);
    e.u64(a.blocking);
    e.u64(a.transfer);
}

fn dec_agg(d: &mut Dec) -> Result<LatencyAgg, CheckpointError> {
    Ok(LatencyAgg {
        count: d.u64()?,
        total: d.u64()?,
        queuing: d.u64()?,
        blocking: d.u64()?,
        transfer: d.u64()?,
    })
}

fn enc_record(e: &mut Enc, r: &PacketRecord) {
    e.usize(r.src.index());
    e.usize(r.dst.index());
    e.u64(r.birth);
    e.u64(r.inject);
    e.u64(r.retire);
    e.u32(r.flits);
    e.u64(r.ideal);
    enc_class(e, r.class);
}

fn dec_record(d: &mut Dec) -> Result<PacketRecord, CheckpointError> {
    Ok(PacketRecord {
        src: NodeId(d.usize()?),
        dst: NodeId(d.usize()?),
        birth: d.u64()?,
        inject: d.u64()?,
        retire: d.u64()?,
        flits: d.u32()?,
        ideal: d.u64()?,
        class: dec_class(d)?,
    })
}

fn enc_event(e: &mut Enc, ev: &Event) {
    match ev {
        Event::FlitArrive {
            router,
            port,
            vc,
            flit,
        } => {
            e.u8(0);
            e.usize(router.index());
            e.usize(port.index());
            e.usize(vc.index());
            enc_flit(e, flit);
        }
        Event::Credit { up, vc } => {
            e.u8(1);
            match up {
                Upstream::Router(r, p) => {
                    e.u8(0);
                    e.usize(r.index());
                    e.usize(p.index());
                }
                Upstream::Node(n) => {
                    e.u8(1);
                    e.usize(n.index());
                }
            }
            e.usize(vc.index());
        }
        Event::Retire { flit } => {
            e.u8(2);
            enc_flit(e, flit);
        }
        Event::LinkArrive {
            link,
            seq,
            corrupted,
            router,
            port,
            vc,
            flit,
        } => {
            e.u8(3);
            e.usize(link.index());
            e.u64(*seq);
            e.bool(*corrupted);
            e.usize(router.index());
            e.usize(port.index());
            e.usize(vc.index());
            enc_flit(e, flit);
        }
        Event::Ack { link, seq } => {
            e.u8(4);
            e.usize(link.index());
            e.u64(*seq);
        }
        Event::Nack { link, seq } => {
            e.u8(5);
            e.usize(link.index());
            e.u64(*seq);
        }
    }
}

fn dec_event(d: &mut Dec) -> Result<Event, CheckpointError> {
    Ok(match d.u8()? {
        0 => Event::FlitArrive {
            router: RouterId(d.usize()?),
            port: PortId(d.usize()?),
            vc: VcId(d.usize()?),
            flit: dec_flit(d)?,
        },
        1 => Event::Credit {
            up: match d.u8()? {
                0 => Upstream::Router(RouterId(d.usize()?), PortId(d.usize()?)),
                1 => Upstream::Node(NodeId(d.usize()?)),
                _ => return Err(CheckpointError::Malformed("upstream")),
            },
            vc: VcId(d.usize()?),
        },
        2 => Event::Retire { flit: dec_flit(d)? },
        3 => Event::LinkArrive {
            link: LinkId(d.usize()?),
            seq: d.u64()?,
            corrupted: d.bool()?,
            router: RouterId(d.usize()?),
            port: PortId(d.usize()?),
            vc: VcId(d.usize()?),
            flit: dec_flit(d)?,
        },
        4 => Event::Ack {
            link: LinkId(d.usize()?),
            seq: d.u64()?,
        },
        5 => Event::Nack {
            link: LinkId(d.usize()?),
            seq: d.u64()?,
        },
        _ => return Err(CheckpointError::Malformed("event tag")),
    })
}

fn enc_routing(e: &mut Enc, routing: &RoutingKind) {
    let enc_table = |e: &mut Enc, t: &RouteTable| {
        let mut pairs: Vec<((RouterId, RouterId), &[RouterId])> = t.pairs().collect();
        pairs.sort_by_key(|&(k, _)| k);
        e.usize(pairs.len());
        for ((src, dst), path) in pairs {
            e.usize(src.index());
            e.usize(dst.index());
            e.usize(path.len());
            for r in path {
                e.usize(r.index());
            }
        }
    };
    match routing {
        RoutingKind::DimensionOrder => e.u8(0),
        RoutingKind::TableXy(t) => {
            e.u8(1);
            enc_table(e, t);
        }
        RoutingKind::FullTable(t) => {
            e.u8(2);
            enc_table(e, t);
        }
    }
}

fn dec_routing(d: &mut Dec) -> Result<RoutingKind, CheckpointError> {
    let dec_table = |d: &mut Dec| -> Result<RouteTable, CheckpointError> {
        let n = d.len(24)?;
        let mut t = RouteTable::new();
        for _ in 0..n {
            let src = RouterId(d.usize()?);
            let dst = RouterId(d.usize()?);
            let len = d.len(8)?;
            let mut path = Vec::with_capacity(len);
            for _ in 0..len {
                path.push(RouterId(d.usize()?));
            }
            if path.first() != Some(&src) || path.last() != Some(&dst) {
                return Err(CheckpointError::Malformed("route table path"));
            }
            t.insert(src, dst, path);
        }
        Ok(t)
    };
    Ok(match d.u8()? {
        0 => RoutingKind::DimensionOrder,
        1 => RoutingKind::TableXy(dec_table(d)?),
        2 => RoutingKind::FullTable(dec_table(d)?),
        _ => return Err(CheckpointError::Malformed("routing kind")),
    })
}

fn enc_fault_counters(e: &mut Enc, c: &FaultCounters) {
    for v in [
        c.flits_corrupted,
        c.retransmissions,
        c.retries,
        c.timeouts,
        c.flits_lost_dead_router,
        c.packets_dropped,
        c.links_dead,
        c.routers_dead,
    ] {
        e.u64(v);
    }
}

fn dec_fault_counters(d: &mut Dec) -> Result<FaultCounters, CheckpointError> {
    Ok(FaultCounters {
        flits_corrupted: d.u64()?,
        retransmissions: d.u64()?,
        retries: d.u64()?,
        timeouts: d.u64()?,
        flits_lost_dead_router: d.u64()?,
        packets_dropped: d.u64()?,
        links_dead: d.u64()?,
        routers_dead: d.u64()?,
    })
}

fn enc_recovery_counters(e: &mut Enc, c: &RecoveryCounters) {
    for v in [
        c.acks,
        c.reinjections,
        c.reinjected_flits,
        c.duplicates_suppressed,
        c.recovered,
        c.lost,
        c.retention_peak,
        c.retention_stalls,
    ] {
        e.u64(v);
    }
}

fn dec_recovery_counters(d: &mut Dec) -> Result<RecoveryCounters, CheckpointError> {
    Ok(RecoveryCounters {
        acks: d.u64()?,
        reinjections: d.u64()?,
        reinjected_flits: d.u64()?,
        duplicates_suppressed: d.u64()?,
        recovered: d.u64()?,
        lost: d.u64()?,
        retention_peak: d.u64()?,
        retention_stalls: d.u64()?,
    })
}

fn enc_drop_reason(e: &mut Enc, r: DropReason) {
    e.u8(match r {
        DropReason::SourceDead => 0,
        DropReason::DestinationDead => 1,
        DropReason::Unreachable => 2,
        DropReason::Wedged => 3,
        DropReason::RecoveryExhausted => 4,
    });
}

fn dec_drop_reason(d: &mut Dec) -> Result<DropReason, CheckpointError> {
    Ok(match d.u8()? {
        0 => DropReason::SourceDead,
        1 => DropReason::DestinationDead,
        2 => DropReason::Unreachable,
        3 => DropReason::Wedged,
        4 => DropReason::RecoveryExhausted,
        _ => return Err(CheckpointError::Malformed("drop reason")),
    })
}

fn enc_far_event(e: &mut Enc, ev: &FarEvent) {
    match *ev {
        FarEvent::Resend { link, epoch } => {
            e.u8(0);
            e.usize(link.index());
            e.u64(epoch);
        }
        FarEvent::Timeout { link, epoch } => {
            e.u8(1);
            e.usize(link.index());
            e.u64(epoch);
        }
        FarEvent::E2eAck { node, seq } => {
            e.u8(2);
            e.usize(node.index());
            e.u64(seq);
        }
        FarEvent::E2eTimeout { node, seq, attempt } => {
            e.u8(3);
            e.usize(node.index());
            e.u64(seq);
            e.u32(attempt);
        }
    }
}

fn dec_far_event(d: &mut Dec) -> Result<FarEvent, CheckpointError> {
    Ok(match d.u8()? {
        0 => FarEvent::Resend {
            link: LinkId(d.usize()?),
            epoch: d.u64()?,
        },
        1 => FarEvent::Timeout {
            link: LinkId(d.usize()?),
            epoch: d.u64()?,
        },
        2 => FarEvent::E2eAck {
            node: NodeId(d.usize()?),
            seq: d.u64()?,
        },
        3 => FarEvent::E2eTimeout {
            node: NodeId(d.usize()?),
            seq: d.u64()?,
            attempt: d.u32()?,
        },
        _ => return Err(CheckpointError::Malformed("far event")),
    })
}

fn enc_rng(e: &mut Enc, rng: &StdRng) {
    for w in rng.state() {
        e.u64(w);
    }
}

fn dec_rng(d: &mut Dec) -> Result<StdRng, CheckpointError> {
    Ok(StdRng::from_state([d.u64()?, d.u64()?, d.u64()?, d.u64()?]))
}

// --------------------------------------------------------------------------
// Fault-state codec
// --------------------------------------------------------------------------

fn enc_faults(e: &mut Enc, fs: &FaultState) {
    e.str(&fs.plan.to_text());
    enc_rng(e, &fs.rng);
    e.usize(fs.links.len());
    for l in &fs.links {
        e.usize(l.replay.len());
        for r in &l.replay {
            e.u64(r.seq);
            e.usize(r.vc.index());
            enc_flit(e, &r.flit);
        }
        e.u64(l.tx_seq);
        e.u64(l.rx_expected);
        e.u32(l.attempts);
        e.u64(l.epoch);
        e.u64(l.backoff_until);
        e.bool(l.dead);
        e.usize(l.in_transit.len());
        for &t in &l.in_transit {
            e.u32(t);
        }
    }
    e.usize(fs.next_hard);
    e.usize(fs.far.len());
    for (&cycle, evs) in &fs.far {
        e.u64(cycle);
        e.usize(evs.len());
        for ev in evs {
            enc_far_event(e, ev);
        }
    }
    e.usize(fs.router_dead.len());
    for &d in &fs.router_dead {
        e.bool(d);
    }
    e.usize(fs.dead_links.len());
    for l in &fs.dead_links {
        e.usize(l.index());
    }
    e.usize(fs.dead_routers.len());
    for r in &fs.dead_routers {
        e.usize(r.index());
    }
    e.usize(fs.absorbing.len());
    for &(r, p, v) in &fs.absorbing {
        e.usize(r.index());
        e.usize(p.index());
        e.usize(v.index());
    }
    let mut absorbed: Vec<(PacketId, u32)> = fs.absorbed.iter().map(|(&k, &v)| (k, v)).collect();
    absorbed.sort_by_key(|&(k, _)| k);
    e.usize(absorbed.len());
    for (k, v) in absorbed {
        e.usize(k.index());
        e.u32(v);
    }
    e.usize(fs.dropped.len());
    for dp in &fs.dropped {
        enc_packet(e, &dp.packet);
        e.u64(dp.cycle);
        enc_drop_reason(e, dp.reason);
        e.bool(dp.recoverable);
    }
    enc_fault_counters(e, &fs.counters);
    match &fs.error {
        None => e.bool(false),
        Some(err) => {
            e.bool(true);
            e.usize(err.link.index());
            e.usize(err.src.index());
            e.usize(err.dst.index());
            e.u32(err.attempts);
            e.u64(err.cycle);
            enc_opt_usize(e, err.packet.map(PacketId::index));
        }
    }
    e.bool(fs.routing_stale);
    match &fs.e2e {
        None => e.bool(false),
        Some(e2e) => {
            e.bool(true);
            e.usize(e2e.sources.len());
            for s in &e2e.sources {
                e.u64(s.next_seq);
                e.usize(s.retained.len());
                for (&seq, r) in &s.retained {
                    e.u64(seq);
                    e.usize(r.dst.index());
                    e.u32(r.size.get());
                    enc_class(e, r.class);
                    e.u64(r.tag);
                    e.bool(r.measured);
                    e.u64(r.first_birth);
                    e.u32(r.attempts);
                    e.usize(r.current.index());
                    e.bool(r.current_alive);
                }
                e.u64(s.contig);
                e.usize(s.sparse.len());
                for &x in &s.sparse {
                    e.u64(x);
                }
            }
            let mut by_packet: Vec<(PacketId, (NodeId, u64))> =
                e2e.by_packet.iter().map(|(&k, &v)| (k, v)).collect();
            by_packet.sort_by_key(|&(k, _)| k);
            e.usize(by_packet.len());
            for (k, (n, seq)) in by_packet {
                e.usize(k.index());
                e.usize(n.index());
                e.u64(seq);
            }
            let mut zombies: Vec<PacketId> = e2e.zombies.iter().copied().collect();
            zombies.sort();
            e.usize(zombies.len());
            for z in zombies {
                e.usize(z.index());
            }
            enc_recovery_counters(e, &e2e.counters);
        }
    }
}

/// Rebuilds a [`FaultState`] from the stream. Structural members
/// (`p_flit`, the sorted hard-fault list, the e2e policy) are re-derived
/// from the embedded plan via [`FaultState::new`]; everything dynamic is
/// then overwritten from the stream.
fn dec_faults(d: &mut Dec, net: &Network) -> Result<FaultState, CheckpointError> {
    let plan_text = d.str()?;
    let plan =
        FaultPlan::from_text(&plan_text).map_err(|_| CheckpointError::Malformed("fault plan"))?;
    plan.validate(net.graph.num_links(), net.graph.num_routers())
        .map_err(|_| CheckpointError::Malformed("fault plan bounds"))?;
    let vcs: Vec<usize> = (0..net.graph.num_routers())
        .map(|r| net.cfg.routers[r].vcs_per_port)
        .collect();
    let mut fs = FaultState::new(plan, &net.graph, net.cfg.flit_width, &vcs);
    fs.rng = dec_rng(d)?;
    let nl = d.len(8)?;
    if nl != fs.links.len() {
        return Err(CheckpointError::Malformed("link count"));
    }
    for l in &mut fs.links {
        let nr = d.len(8)?;
        let mut replay = VecDeque::with_capacity(nr);
        for _ in 0..nr {
            replay.push_back(ReplayEntry {
                seq: d.u64()?,
                vc: VcId(d.usize()?),
                flit: dec_flit(d)?,
            });
        }
        l.replay = replay;
        l.tx_seq = d.u64()?;
        l.rx_expected = d.u64()?;
        l.attempts = d.u32()?;
        l.epoch = d.u64()?;
        l.backoff_until = d.u64()?;
        l.dead = d.bool()?;
        let nt = d.len(4)?;
        if nt != l.in_transit.len() {
            return Err(CheckpointError::Malformed("in_transit count"));
        }
        for t in &mut l.in_transit {
            *t = d.u32()?;
        }
    }
    fs.next_hard = d.usize()?;
    if fs.next_hard > fs.hard.len() {
        return Err(CheckpointError::Malformed("next_hard"));
    }
    let nf = d.len(8)?;
    let mut far = BTreeMap::new();
    for _ in 0..nf {
        let cycle = d.u64()?;
        let ne = d.len(1)?;
        let mut evs = Vec::with_capacity(ne);
        for _ in 0..ne {
            evs.push(dec_far_event(d)?);
        }
        far.insert(cycle, evs);
    }
    fs.far = far;
    let nrd = d.len(1)?;
    if nrd != fs.router_dead.len() {
        return Err(CheckpointError::Malformed("router_dead count"));
    }
    for rd in &mut fs.router_dead {
        *rd = d.bool()?;
    }
    let ndl = d.len(8)?;
    fs.dead_links = (0..ndl)
        .map(|_| d.usize().map(LinkId))
        .collect::<Result<_, _>>()?;
    let ndr = d.len(8)?;
    fs.dead_routers = (0..ndr)
        .map(|_| d.usize().map(RouterId))
        .collect::<Result<_, _>>()?;
    let na = d.len(24)?;
    let mut absorbing = BTreeSet::new();
    for _ in 0..na {
        absorbing.insert((RouterId(d.usize()?), PortId(d.usize()?), VcId(d.usize()?)));
    }
    fs.absorbing = absorbing;
    let nab = d.len(12)?;
    let mut absorbed = HashMap::with_capacity(nab);
    for _ in 0..nab {
        let k = PacketId(d.usize()?);
        let v = d.u32()?;
        absorbed.insert(k, v);
    }
    fs.absorbed = absorbed;
    let ndp = d.len(8)?;
    let mut dropped = Vec::with_capacity(ndp);
    for _ in 0..ndp {
        dropped.push(DroppedPacket {
            packet: dec_packet(d)?,
            cycle: d.u64()?,
            reason: dec_drop_reason(d)?,
            recoverable: d.bool()?,
        });
    }
    fs.dropped = dropped;
    fs.counters = dec_fault_counters(d)?;
    fs.error = if d.bool()? {
        Some(UnrecoverableFault {
            link: LinkId(d.usize()?),
            src: RouterId(d.usize()?),
            dst: RouterId(d.usize()?),
            attempts: d.u32()?,
            cycle: d.u64()?,
            packet: dec_opt_usize(d)?.map(PacketId),
        })
    } else {
        None
    };
    fs.routing_stale = d.bool()?;
    let has_e2e = d.bool()?;
    match (&mut fs.e2e, has_e2e) {
        (None, false) => {}
        (Some(_), false) | (None, true) => {
            return Err(CheckpointError::Malformed("e2e presence"));
        }
        (Some(e2e), true) => {
            let ns = d.len(8)?;
            if ns != e2e.sources.len() {
                return Err(CheckpointError::Malformed("e2e source count"));
            }
            for s in &mut e2e.sources {
                let next_seq = d.u64()?;
                let nr = d.len(16)?;
                let mut retained = BTreeMap::new();
                for _ in 0..nr {
                    let seq = d.u64()?;
                    retained.insert(
                        seq,
                        Retained {
                            dst: NodeId(d.usize()?),
                            size: Bits(d.u32()?),
                            class: dec_class(d)?,
                            tag: d.u64()?,
                            measured: d.bool()?,
                            first_birth: d.u64()?,
                            attempts: d.u32()?,
                            current: PacketId(d.usize()?),
                            current_alive: d.bool()?,
                        },
                    );
                }
                let contig = d.u64()?;
                let nsp = d.len(8)?;
                let mut sparse = BTreeSet::new();
                for _ in 0..nsp {
                    sparse.insert(d.u64()?);
                }
                *s = SourceE2e {
                    next_seq,
                    retained,
                    contig,
                    sparse,
                };
            }
            let nbp = d.len(24)?;
            let mut by_packet = HashMap::with_capacity(nbp);
            for _ in 0..nbp {
                let k = PacketId(d.usize()?);
                let n = NodeId(d.usize()?);
                let seq = d.u64()?;
                by_packet.insert(k, (n, seq));
            }
            e2e.by_packet = by_packet;
            let nz = d.len(8)?;
            let mut zombies = HashSet::with_capacity(nz);
            for _ in 0..nz {
                zombies.insert(PacketId(d.usize()?));
            }
            e2e.zombies = zombies;
            e2e.counters = dec_recovery_counters(d)?;
        }
    }
    Ok(fs)
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
        e.u64(self.now);
        e.usize(self.next_packet);
        e.bool(self.measuring);
        e.bool(self.record_packets);

        e.sec(SEC_ROUTERS);
        e.usize(self.routers.len());
        for r in &self.routers {
            for vc in &r.inputs {
                e.usize(vc.fifo().len());
                for f in vc.fifo() {
                    enc_flit(e, f);
                }
                enc_route(e, &vc.route);
                enc_opt_usize(e, vc.out_vc.map(VcId::index));
                e.bool(vc.in_escape_grant);
                e.u32(vc.sent_on_grant);
                e.u32(vc.head_wait);
                enc_opt_usize(e, vc.holder.map(PacketId::index));
            }
            for out in &r.outputs {
                e.usize(out.vcs.len());
                for ov in &out.vcs {
                    match ov.owner {
                        None => e.bool(false),
                        Some((p, v)) => {
                            e.bool(true);
                            e.usize(p.index());
                            e.usize(v.index());
                        }
                    }
                    e.u32(ov.credits);
                }
                enc_arb(e, &out.va_arb);
                enc_arb(e, &out.sa_primary);
                enc_arb(e, &out.sa_secondary);
            }
            for a in &r.sa_stage1 {
                enc_arb(e, a);
            }
            e.u32(r.occupancy());
            e.u32(r.busy_vcs());
        }

        e.sec(SEC_NODES);
        e.usize(self.nodes.len());
        for n in &self.nodes {
            e.usize(n.queue.len());
            for p in &n.queue {
                enc_packet(e, p);
            }
            match &n.sending {
                None => e.bool(false),
                Some(s) => {
                    e.bool(true);
                    e.usize(s.vc.index());
                    e.usize(s.flits.len());
                    for f in &s.flits {
                        enc_flit(e, f);
                    }
                }
            }
            e.usize(n.vcs.len());
            for ov in &n.vcs {
                match ov.owner {
                    None => e.bool(false),
                    Some((p, v)) => {
                        e.bool(true);
                        e.usize(p.index());
                        e.usize(v.index());
                    }
                }
                e.u32(ov.credits);
            }
            enc_arb(e, &n.rr_vc);
        }

        e.sec(SEC_WHEEL);
        for slot in &self.wheel {
            e.usize(slot.len());
            for ev in slot {
                enc_event(e, ev);
            }
        }

        e.sec(SEC_IN_FLIGHT);
        let mut in_flight: Vec<(&PacketId, &PacketMeta)> = self.in_flight.iter().collect();
        in_flight.sort_by_key(|&(k, _)| k);
        e.usize(in_flight.len());
        for (_, m) in in_flight {
            enc_packet(e, &m.packet);
            e.u64(m.inject);
            e.u32(m.received);
            e.u32(m.total);
            e.bool(m.measured);
        }

        e.sec(SEC_DELIVERED);
        e.usize(self.delivered.len());
        for dlv in &self.delivered {
            enc_packet(e, &dlv.packet);
            e.u64(dlv.inject);
            e.u64(dlv.retire);
        }

        e.sec(SEC_STATS);
        let s = &self.stats;
        e.u64(s.cycles);
        e.u64(s.packets_offered);
        e.u64(s.packets_retired);
        e.u64(s.flits_retired);
        enc_agg(e, &s.latency);
        for a in &s.latency_by_class {
            enc_agg(e, a);
        }
        enc_dist(e, &s.latency_dist);
        for dist in &s.dist_by_class {
            enc_dist(e, dist);
        }
        e.u64s(&s.buffer_occ_integral);
        e.u64s(&s.vc_busy_integral);
        e.usize(s.records.len());
        for r in &s.records {
            enc_record(e, r);
        }
        e.usize(s.links.len());
        for l in &s.links {
            e.u64(l.flits);
            e.u64(l.busy_cycles);
            e.u64(l.dual_cycles);
        }
        e.usize(s.routers.len());
        for r in &s.routers {
            e.u64(r.buffer_writes);
            e.u64(r.buffer_reads);
            e.u64(r.xbar_flits);
            e.u64(r.sa1_arbs);
            e.u64(r.sa2_arbs);
            e.u64(r.va_grants);
        }

        e.sec(SEC_ROUTING);
        enc_routing(e, &self.cfg.routing);

        e.sec(SEC_FAULTS);
        match &self.faults {
            None => e.bool(false),
            Some(fs) => {
                e.bool(true);
                enc_faults(e, fs);
            }
        }

        e.sec(SEC_EPOCHS);
        match &self.epochs {
            None => e.bool(false),
            Some(rec) => {
                e.bool(true);
                e.u64(rec.every);
                e.u64(rec.epoch_start);
                e.u64s(&rec.occ_integral);
                e.u64s(&rec.busy_integral);
                e.u64s(&rec.link_flits);
                e.u64(rec.injected);
                e.u64(rec.ejected);
                enc_dist(e, &rec.dist);
                e.usize(rec.samples.len());
                for smp in &rec.samples {
                    e.u64(smp.start);
                    e.u64(smp.end);
                    e.u64(smp.injected);
                    e.u64(smp.ejected);
                    for v in [&smp.buffer_occ, &smp.vc_busy, &smp.link_util] {
                        e.usize(v.len());
                        for &x in v.iter() {
                            e.f64(x);
                        }
                    }
                    for p in [
                        &smp.latency.total,
                        &smp.latency.queuing,
                        &smp.latency.blocking,
                        &smp.latency.transfer,
                    ] {
                        e.u64(p.p50);
                        e.u64(p.p95);
                        e.u64(p.p99);
                    }
                }
            }
        }
    }

    /// Overwrites this network's dynamic state from a stream written by
    /// [`Network::encode_state`]. The network must have been freshly built
    /// via [`Network::new`] from the same configuration the checkpoint was
    /// taken under (the checkpoint header's config hash enforces this at
    /// the file level); fault state, routing tables and epoch recorders are
    /// reconstructed entirely from the stream.
    ///
    /// # Errors
    /// [`CheckpointError::Malformed`] naming the failing section, or
    /// [`CheckpointError::Truncated`] when the stream ends early. The
    /// network is left in an unspecified (but memory-safe) state on error;
    /// discard it.
    pub(crate) fn decode_state(&mut self, d: &mut Dec) -> Result<(), CheckpointError> {
        d.sec(SEC_GLOBALS, "globals")?;
        self.now = d.u64()?;
        self.next_packet = d.usize()?;
        self.measuring = d.bool()?;
        self.record_packets = d.bool()?;

        d.sec(SEC_ROUTERS, "routers")?;
        let nr = d.len(1)?;
        if nr != self.routers.len() {
            return Err(CheckpointError::Malformed("router count"));
        }
        for (r, rc) in self.routers.iter_mut().zip(&self.cfg.routers) {
            // Flits go in through `push`, so the occupancy counter and the
            // VC masks are derived from the decoded FIFOs, never read.
            for i in 0..r.inputs.len() {
                let nf = d.len(8)?;
                if nf > rc.buffer_depth {
                    return Err(CheckpointError::Malformed("fifo depth"));
                }
                for _ in 0..nf {
                    r.push(i, dec_flit(d)?);
                }
                let vc = &mut r.inputs[i];
                vc.route = dec_route(d)?;
                vc.out_vc = dec_opt_usize(d)?.map(VcId);
                vc.in_escape_grant = d.bool()?;
                vc.sent_on_grant = d.u32()?;
                vc.head_wait = d.u32()?;
                vc.holder = dec_opt_usize(d)?.map(PacketId);
            }
            for out in &mut r.outputs {
                let nv = d.len(1)?;
                if nv != out.vcs.len() {
                    return Err(CheckpointError::Malformed("output vc count"));
                }
                for ov in &mut out.vcs {
                    ov.owner = if d.bool()? {
                        Some((PortId(d.usize()?), VcId(d.usize()?)))
                    } else {
                        None
                    };
                    ov.credits = d.u32()?;
                }
                out.va_arb = dec_arb(d)?;
                out.sa_primary = dec_arb(d)?;
                out.sa_secondary = dec_arb(d)?;
            }
            for a in &mut r.sa_stage1 {
                *a = dec_arb(d)?;
            }
            // The stored counters only cross-check the FIFOs: a restore that
            // trusted a stale occupancy could leave a router asleep over
            // its flits.
            let (occupancy, busy_vcs) = (d.u32()?, d.u32()?);
            if (occupancy, busy_vcs) != (r.occupancy(), r.busy_vcs()) {
                return Err(CheckpointError::Malformed("router occupancy"));
            }
        }

        d.sec(SEC_NODES, "nodes")?;
        let nn = d.len(1)?;
        if nn != self.nodes.len() {
            return Err(CheckpointError::Malformed("node count"));
        }
        for n in &mut self.nodes {
            let nq = d.len(8)?;
            let mut queue = VecDeque::with_capacity(nq);
            for _ in 0..nq {
                queue.push_back(dec_packet(d)?);
            }
            n.queue = queue;
            n.sending = if d.bool()? {
                let vc = VcId(d.usize()?);
                let nf = d.len(8)?;
                let mut flits = VecDeque::with_capacity(nf);
                for _ in 0..nf {
                    flits.push_back(dec_flit(d)?);
                }
                Some(Sending { vc, flits })
            } else {
                None
            };
            let nv = d.len(1)?;
            if nv != n.vcs.len() {
                return Err(CheckpointError::Malformed("node vc count"));
            }
            for ov in &mut n.vcs {
                ov.owner = if d.bool()? {
                    Some((PortId(d.usize()?), VcId(d.usize()?)))
                } else {
                    None
                };
                ov.credits = d.u32()?;
            }
            n.rr_vc = dec_arb(d)?;
        }

        d.sec(SEC_WHEEL, "wheel")?;
        for slot in &mut self.wheel {
            let ne = d.len(1)?;
            let mut evs = Vec::with_capacity(ne);
            for _ in 0..ne {
                evs.push(dec_event(d)?);
            }
            *slot = evs;
        }
        debug_assert_eq!(self.wheel.len(), WHEEL);

        d.sec(SEC_IN_FLIGHT, "in_flight")?;
        let nif = d.len(8)?;
        let mut in_flight = HashMap::with_capacity(nif);
        for _ in 0..nif {
            let packet = dec_packet(d)?;
            let meta = PacketMeta {
                packet,
                inject: d.u64()?,
                received: d.u32()?,
                total: d.u32()?,
                measured: d.bool()?,
            };
            in_flight.insert(packet.id, meta);
        }
        self.in_flight = in_flight;

        d.sec(SEC_DELIVERED, "delivered")?;
        let ndl = d.len(8)?;
        let mut delivered = Vec::with_capacity(ndl);
        for _ in 0..ndl {
            delivered.push(Delivered {
                packet: dec_packet(d)?,
                inject: d.u64()?,
                retire: d.u64()?,
            });
        }
        self.delivered = delivered;

        d.sec(SEC_STATS, "stats")?;
        let s = &mut self.stats;
        s.cycles = d.u64()?;
        s.packets_offered = d.u64()?;
        s.packets_retired = d.u64()?;
        s.flits_retired = d.u64()?;
        s.latency = dec_agg(d)?;
        for a in &mut s.latency_by_class {
            *a = dec_agg(d)?;
        }
        s.latency_dist = dec_dist(d)?;
        for dist in &mut s.dist_by_class {
            *dist = dec_dist(d)?;
        }
        let occ = d.u64s()?;
        let busy = d.u64s()?;
        if occ.len() != s.buffer_occ_integral.len() || busy.len() != s.vc_busy_integral.len() {
            return Err(CheckpointError::Malformed("stats integrals"));
        }
        s.buffer_occ_integral = occ;
        s.vc_busy_integral = busy;
        let nrec = d.len(8)?;
        let mut records = Vec::with_capacity(nrec);
        for _ in 0..nrec {
            records.push(dec_record(d)?);
        }
        s.records = records;
        let nl = d.len(24)?;
        if nl != s.links.len() {
            return Err(CheckpointError::Malformed("stats link count"));
        }
        for l in &mut s.links {
            *l = LinkEvents {
                flits: d.u64()?,
                busy_cycles: d.u64()?,
                dual_cycles: d.u64()?,
            };
        }
        let nre = d.len(48)?;
        if nre != s.routers.len() {
            return Err(CheckpointError::Malformed("stats router count"));
        }
        for r in &mut s.routers {
            *r = RouterEvents {
                buffer_writes: d.u64()?,
                buffer_reads: d.u64()?,
                xbar_flits: d.u64()?,
                sa1_arbs: d.u64()?,
                sa2_arbs: d.u64()?,
                va_grants: d.u64()?,
            };
        }

        d.sec(SEC_ROUTING, "routing")?;
        self.cfg.routing = dec_routing(d)?;

        d.sec(SEC_FAULTS, "faults")?;
        self.faults = if d.bool()? {
            Some(Box::new(dec_faults(d, self)?))
        } else {
            None
        };

        d.sec(SEC_EPOCHS, "epochs")?;
        self.epochs = if d.bool()? {
            let every = d.u64()?;
            if every == 0 {
                return Err(CheckpointError::Malformed("epoch length"));
            }
            let caps = self.routers.iter().map(|r| u64::from(r.capacity)).collect();
            let vcs = self.routers.iter().map(|r| r.inputs.len() as u64).collect();
            let lanes = self.link_lanes.iter().map(|&l| l as u64).collect();
            let mut rec = EpochRecorder::new(every, caps, vcs, lanes);
            rec.epoch_start = d.u64()?;
            let occ = d.u64s()?;
            let busy = d.u64s()?;
            let flits = d.u64s()?;
            if occ.len() != rec.occ_integral.len()
                || busy.len() != rec.busy_integral.len()
                || flits.len() != rec.link_flits.len()
            {
                return Err(CheckpointError::Malformed("epoch integrals"));
            }
            rec.occ_integral = occ;
            rec.busy_integral = busy;
            rec.link_flits = flits;
            rec.injected = d.u64()?;
            rec.ejected = d.u64()?;
            rec.dist = dec_dist(d)?;
            let nsmp = d.len(32)?;
            let mut samples = Vec::with_capacity(nsmp);
            for _ in 0..nsmp {
                let start = d.u64()?;
                let end = d.u64()?;
                let injected = d.u64()?;
                let ejected = d.u64()?;
                let mut vecs: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
                for v in &mut vecs {
                    let n = d.len(8)?;
                    for _ in 0..n {
                        v.push(d.f64()?);
                    }
                }
                let [buffer_occ, vc_busy, link_util] = vecs;
                let mut pctls: [Pctls; 4] = [Pctls::default(); 4];
                for p in &mut pctls {
                    *p = Pctls {
                        p50: d.u64()?,
                        p95: d.u64()?,
                        p99: d.u64()?,
                    };
                }
                let [total, queuing, blocking, transfer] = pctls;
                samples.push(crate::metrics::EpochSample {
                    start,
                    end,
                    injected,
                    ejected,
                    buffer_occ,
                    vc_busy,
                    link_util,
                    latency: LatencyPctls {
                        total,
                        queuing,
                        blocking,
                        transfer,
                    },
                });
            }
            rec.samples = samples;
            Some(Box::new(rec))
        } else {
            None
        };

        // The restore refilled every router that held flits at the
        // checkpoint: count each as woken.
        for router in &self.routers {
            if router.occupancy() > 0 {
                self.sched.note_wake(WakeReason::Restore);
            }
        }

        Ok(())
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
            self.measuring.to_string(),
            other.measuring.to_string(),
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
                    format!("{:?}", va.route),
                    format!("{:?}", vb.route),
                );
                push(
                    loc.clone(),
                    "out_vc",
                    format!("{:?}", va.out_vc),
                    format!("{:?}", vb.out_vc),
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
                    enc_event(&mut e, ev);
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
                enc_faults(&mut e, fs);
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

use crate::trace::TraceSink;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::fault::{FaultKind, HardFault, RecoveryPolicy, RetryPolicy};
    use crate::topology::TopologyKind;

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
        rt.set_derived(rt.occupancy() + 1, rt.nonempty(), rt.head_front());
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
        enc_hist(&mut e, &h);
        e.u64s(&[1; 65]);
        e.u64(65);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(dec_hist(&mut d).unwrap(), h);
        let err = dec_hist(&mut d).unwrap_err();
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

    #[test]
    fn epoch_recorder_roundtrips() {
        let mut net = Network::new(mesh4()).unwrap();
        net.enable_epochs(8);
        net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        for _ in 0..30 {
            net.step();
        }
        let mut restored = roundtrip(&net, mesh4());
        for _ in 0..30 {
            net.step();
            restored.step();
        }
        assert_eq!(net.take_epochs(), restored.take_epochs());
    }
}
