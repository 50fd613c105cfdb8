//! Runtime invariant checking for the simulation engine (cargo feature
//! `verify`).
//!
//! Complements the static channel-dependency analysis in `heteronoc-verify`:
//! the CDG proof establishes that deadlock *cannot* occur for a
//! configuration; these checks assert, on the live engine state, that the
//! bookkeeping the proof relies on stays exact — every flit is conserved,
//! credits account for every buffer slot of every channel, and each VC
//! delivers a packet's flits in order. None of this code is compiled when
//! the `verify` feature is off.
//!
//! The accounting works because the event wheel is the only place state is
//! "in flight": for any channel, the upstream credit counter, the credits
//! and flits travelling in the wheel, and the downstream FIFO occupancy
//! must always sum to the downstream buffer depth.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use crate::router::OutputTarget;
use crate::types::{NodeId, PacketId, PortId, RouterId, VcId};

use super::{Event, Network, Upstream};

/// A broken engine invariant, naming the exact state that disagrees.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InvariantViolation {
    /// An input VC holds more flits than its buffer depth.
    BufferOverflow {
        /// Router owning the over-full input VC.
        router: RouterId,
        /// Input port of the VC.
        port: PortId,
        /// The VC index.
        vc: VcId,
        /// Buffered flit count.
        len: usize,
        /// Configured buffer depth.
        depth: usize,
    },
    /// Two flits of one packet sit in one VC FIFO out of sequence
    /// (wormhole switching must deliver a packet's flits in order).
    FifoOrder {
        /// Router owning the FIFO.
        router: RouterId,
        /// Input port of the FIFO.
        port: PortId,
        /// The VC index.
        vc: VcId,
        /// The packet whose flits are out of order.
        packet: PacketId,
        /// Sequence number of the earlier (closer to head) flit.
        prev_seq: u32,
        /// Sequence number of the later flit (must exceed `prev_seq`).
        seq: u32,
    },
    /// Credits + wheel events + downstream occupancy of a router-to-router
    /// channel do not sum to the downstream buffer depth. (Credit counters
    /// are unsigned, so an underflow also lands here.)
    CreditLeak {
        /// Upstream router of the channel.
        router: RouterId,
        /// Upstream output port.
        port: PortId,
        /// The VC index.
        vc: VcId,
        /// What the credit conservation sum came to.
        accounted: u32,
        /// The downstream buffer depth it must equal.
        depth: u32,
    },
    /// The same accounting failure on a node-to-router injection channel.
    NodeCreditLeak {
        /// The injecting node.
        node: NodeId,
        /// The VC index at the router's local input port.
        vc: VcId,
        /// What the credit conservation sum came to.
        accounted: u32,
        /// The buffer depth it must equal.
        depth: u32,
    },
    /// A flit references a packet the engine is not tracking.
    OrphanFlit {
        /// The unknown packet id.
        packet: PacketId,
    },
    /// Retired + resident flits of a tracked packet do not sum to what the
    /// packet should currently have in the engine (0 while still
    /// source-queued, its flit total otherwise).
    FlitLeak {
        /// The leaking packet.
        packet: PacketId,
        /// Retired + resident flits found.
        accounted: u32,
        /// What the sum must equal.
        expected: u32,
    },
    /// A router's incremental occupancy counter drifted from its buffers.
    OccupancyDrift {
        /// The drifting router.
        router: RouterId,
        /// Flits actually present in its input FIFOs.
        counted: u32,
        /// The incremental counter's value.
        cached: u32,
    },
    /// A bit of a router's VC masks (the allocation phases' work lists)
    /// disagrees with its FIFO: the non-empty bit with whether the VC
    /// holds a flit, or the head-front bit with whether its front flit is
    /// a head.
    VcMaskDrift {
        /// The drifting router.
        router: RouterId,
        /// Input port of the VC.
        port: PortId,
        /// The VC index.
        vc: VcId,
    },
    /// A bit of a router's ready mask disagrees with whether the VC holds
    /// a route and a downstream VC that can take a flit, or the VC's bit
    /// of switch allocation's stage-1 candidate mask disagrees with
    /// `RouterState::sa_eligible`.
    ReadyMaskDrift {
        /// The drifting router.
        router: RouterId,
        /// Input port of the VC.
        port: PortId,
        /// The VC index.
        vc: VcId,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::BufferOverflow {
                router,
                port,
                vc,
                len,
                depth,
            } => write!(
                f,
                "{router}.{port}.{vc} holds {len} flits, buffer depth is {depth}"
            ),
            InvariantViolation::FifoOrder {
                router,
                port,
                vc,
                packet,
                prev_seq,
                seq,
            } => write!(
                f,
                "{router}.{port}.{vc}: packet {packet} flit seq {seq} \
                 queued behind seq {prev_seq}"
            ),
            InvariantViolation::CreditLeak {
                router,
                port,
                vc,
                accounted,
                depth,
            } => write!(
                f,
                "channel {router}.{port}.{vc}: credits+in-flight+buffered = \
                 {accounted}, buffer depth is {depth}"
            ),
            InvariantViolation::NodeCreditLeak {
                node,
                vc,
                accounted,
                depth,
            } => write!(
                f,
                "injection channel {node}.{vc}: credits+in-flight+buffered = \
                 {accounted}, buffer depth is {depth}"
            ),
            InvariantViolation::OrphanFlit { packet } => {
                write!(f, "flit of untracked packet {packet} found in the engine")
            }
            InvariantViolation::FlitLeak {
                packet,
                accounted,
                expected,
            } => write!(
                f,
                "packet {packet}: retired+resident flits = {accounted}, \
                 expected {expected}"
            ),
            InvariantViolation::OccupancyDrift {
                router,
                counted,
                cached,
            } => write!(
                f,
                "{router}: occupancy counter says {cached}, buffers hold {counted}"
            ),
            InvariantViolation::VcMaskDrift { router, port, vc } => write!(
                f,
                "{router}.{port}.{vc}: VC mask bits disagree with the FIFO"
            ),
            InvariantViolation::ReadyMaskDrift { router, port, vc } => write!(
                f,
                "{router}.{port}.{vc}: ready or switch-allocation candidate bit \
                 disagrees with the grant and credit state"
            ),
        }
    }
}

impl Error for InvariantViolation {}

impl Network {
    /// Checks every engine invariant against the current cycle's state:
    /// buffer bounds, per-VC FIFO order, exact credit conservation on every
    /// router-to-router and node-to-router channel, per-router occupancy
    /// counters, VC masks and ready masks (with switch allocation's
    /// candidate mask against `sa_eligible`), and exact per-packet flit
    /// conservation.
    ///
    /// Intended to run between [`Network::step`] calls (the
    /// `sim::StrictInvariants` observer does this every cycle); the cost is
    /// a full scan of the engine state, so it exists only under the
    /// `verify` cargo feature.
    ///
    /// # Errors
    /// The first [`InvariantViolation`] found.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        // Resident flit count per packet, accumulated over FIFOs, the event
        // wheel and source send queues.
        let mut seen: HashMap<PacketId, u32> = HashMap::new();
        // In-flight wheel events, keyed per channel endpoint.
        let mut arrivals: HashMap<(usize, usize, usize), u32> = HashMap::new();
        let mut router_credits: HashMap<(usize, usize, usize), u32> = HashMap::new();
        let mut node_credits: HashMap<(usize, usize), u32> = HashMap::new();

        for slot in &self.wheel {
            for ev in slot {
                match ev {
                    Event::FlitArrive {
                        router,
                        port,
                        vc,
                        flit,
                    } => {
                        *arrivals
                            .entry((router.index(), port.index(), vc.index()))
                            .or_insert(0) += 1;
                        *seen.entry(flit.packet).or_insert(0) += 1;
                    }
                    Event::Credit { up, vc } => match up {
                        Upstream::Router(r, p) => {
                            *router_credits
                                .entry((r.index(), p.index(), vc.index()))
                                .or_insert(0) += 1;
                        }
                        Upstream::Node(n) => {
                            *node_credits.entry((n.index(), vc.index())).or_insert(0) += 1;
                        }
                    },
                    Event::Retire { flit } => {
                        *seen.entry(flit.packet).or_insert(0) += 1;
                    }
                    // Fault-mode link traffic is accounted through the
                    // replay buffers below: a `LinkArrive` is only a *copy*
                    // of a replay entry (and may be a stale go-back-N
                    // duplicate), and acks/nacks carry no flits or credits.
                    Event::LinkArrive { .. } | Event::Ack { .. } | Event::Nack { .. } => {}
                }
            }
        }

        // Fault mode: the canonical copy of a flit between leaving the
        // upstream buffer and landing downstream is its replay entry —
        // exactly while `seq >= rx_expected` (once accepted, the FIFO scan
        // below counts it and the entry merely awaits its ack).
        if let Some(fs) = self.faults.as_ref() {
            for lt in &fs.links {
                for e in &lt.replay {
                    if e.seq >= lt.rx_expected {
                        *seen.entry(e.flit.packet).or_insert(0) += 1;
                    }
                }
            }
        }

        // Buffer bounds, FIFO order, occupancy counters and VC masks.
        for (r, router) in self.routers.iter().enumerate() {
            let depth = self.cfg.routers[r].buffer_depth;
            let candidates = router.sa_candidates(self.now);
            let mut counted = 0u32;
            for (i, ivc) in router.inputs.iter().enumerate() {
                let (port, vc) = router.port_vc(i);
                let fifo = ivc.fifo();
                if fifo.len() > depth {
                    return Err(InvariantViolation::BufferOverflow {
                        router: RouterId(r),
                        port,
                        vc,
                        len: fifo.len(),
                        depth,
                    });
                }
                counted += fifo.len() as u32;
                let bit = 1u128 << i;
                let nonempty = router.nonempty() & bit != 0;
                let head_front = router.head_front() & bit != 0;
                if nonempty == fifo.is_empty()
                    || head_front != fifo.front().is_some_and(|f| f.kind.is_head())
                {
                    return Err(InvariantViolation::VcMaskDrift {
                        router: RouterId(r),
                        port,
                        vc,
                    });
                }
                if (router.ready() & bit != 0) != router.can_send(i)
                    || (candidates & bit != 0) != router.sa_eligible(i, self.now).is_some()
                {
                    return Err(InvariantViolation::ReadyMaskDrift {
                        router: RouterId(r),
                        port,
                        vc,
                    });
                }
                let mut last: HashMap<PacketId, u32> = HashMap::new();
                for flit in fifo {
                    *seen.entry(flit.packet).or_insert(0) += 1;
                    if let Some(&prev) = last.get(&flit.packet) {
                        if flit.seq <= prev {
                            return Err(InvariantViolation::FifoOrder {
                                router: RouterId(r),
                                port,
                                vc,
                                packet: flit.packet,
                                prev_seq: prev,
                                seq: flit.seq,
                            });
                        }
                    }
                    last.insert(flit.packet, flit.seq);
                }
            }
            if counted != router.occupancy() {
                return Err(InvariantViolation::OccupancyDrift {
                    router: RouterId(r),
                    counted,
                    cached: router.occupancy(),
                });
            }
        }

        for node in &self.nodes {
            if let Some(s) = &node.sending {
                for flit in &s.flits {
                    *seen.entry(flit.packet).or_insert(0) += 1;
                }
            }
        }

        // Per-packet flit conservation. A packet still waiting in a source
        // queue has no flits anywhere; once fragmented, its retired and
        // resident flits must sum to its total at every cycle.
        let queued: HashSet<PacketId> = self
            .nodes
            .iter()
            .flat_map(|n| n.queue.iter().map(|p| p.id))
            .collect();
        for &pid in seen.keys() {
            if !self.in_flight.contains_key(&pid) {
                return Err(InvariantViolation::OrphanFlit { packet: pid });
            }
        }
        for (&pid, meta) in &self.in_flight {
            let resident = seen.get(&pid).copied().unwrap_or(0);
            let absorbed = self
                .faults
                .as_ref()
                .and_then(|f| f.absorbed.get(&pid).copied())
                .unwrap_or(0);
            let expected = if queued.contains(&pid) { 0 } else { meta.total };
            if resident + meta.received + absorbed != expected {
                return Err(InvariantViolation::FlitLeak {
                    packet: pid,
                    accounted: resident + meta.received + absorbed,
                    expected,
                });
            }
        }

        // Credit conservation on router-to-router channels: upstream
        // credits + credits returning in the wheel + flits on the link (in
        // the wheel) + flits buffered downstream == downstream depth.
        for (r, router) in self.routers.iter().enumerate() {
            for (p, out) in router.outputs.iter().enumerate() {
                let OutputTarget::Channel {
                    link,
                    dst,
                    dst_port,
                } = out.target
                else {
                    continue;
                };
                let depth = self.cfg.routers[dst.index()].buffer_depth as u32;
                let down = &self.routers[dst.index()];
                for (v, ovc) in out.vcs.iter().enumerate() {
                    let buffered = down.inputs[down.flat(dst_port, VcId(v))].fifo().len() as u32;
                    // Fault mode replaces wheel arrivals with the link's
                    // in-transit count: a flit holds its downstream slot
                    // from the credit decrement until it is accepted, no
                    // matter how many retransmissions that takes.
                    let in_transit = self
                        .faults
                        .as_ref()
                        .map_or(0, |f| f.links[link.index()].in_transit[v]);
                    let accounted = ovc.credits
                        + router_credits.get(&(r, p, v)).copied().unwrap_or(0)
                        + arrivals
                            .get(&(dst.index(), dst_port.index(), v))
                            .copied()
                            .unwrap_or(0)
                        + in_transit
                        + buffered;
                    if accounted != depth {
                        return Err(InvariantViolation::CreditLeak {
                            router: RouterId(r),
                            port: PortId(p),
                            vc: VcId(v),
                            accounted,
                            depth,
                        });
                    }
                }
            }
        }

        // The same conservation on node-to-router injection channels.
        for (n, node) in self.nodes.iter().enumerate() {
            let depth = self.cfg.routers[node.router.index()].buffer_depth as u32;
            let router = &self.routers[node.router.index()];
            for (v, nvc) in node.vcs.iter().enumerate() {
                let buffered = router.inputs[router.flat(node.port, VcId(v))].fifo().len() as u32;
                let accounted = nvc.credits
                    + node_credits.get(&(n, v)).copied().unwrap_or(0)
                    + arrivals
                        .get(&(node.router.index(), node.port.index(), v))
                        .copied()
                        .unwrap_or(0)
                    + buffered;
                if accounted != depth {
                    return Err(InvariantViolation::NodeCreditLeak {
                        node: NodeId(n),
                        vc: VcId(v),
                        accounted,
                        depth,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::packet::{Flit, Packet, PacketClass};
    use crate::types::{Bits, NodeId};

    fn fresh() -> Network {
        Network::new(NetworkConfig::paper_baseline()).unwrap()
    }

    /// Drives `net` for `cycles` with uniform traffic at roughly 5%
    /// injection (deterministic pattern, no RNG needed).
    fn load(net: &mut Network, cycles: usize) {
        let n = net.graph().num_nodes();
        for c in 0..cycles {
            if c % 4 == 0 {
                for node in 0..n {
                    let dst = (node + 1 + c / 4) % n;
                    if dst != node {
                        net.enqueue(NodeId(node), NodeId(dst), Bits(1024), PacketClass::Data, 0);
                    }
                }
            }
            net.step();
        }
    }

    #[test]
    fn fresh_network_checks_clean() {
        fresh().check_invariants().unwrap();
    }

    #[test]
    fn loaded_network_checks_clean_every_cycle() {
        let mut net = fresh();
        let n = net.graph().num_nodes();
        for c in 0..400 {
            if c % 4 == 0 {
                for node in 0..n {
                    let dst = (node + 7) % n;
                    net.enqueue(NodeId(node), NodeId(dst), Bits(1024), PacketClass::Data, 0);
                }
            }
            net.step();
            net.check_invariants()
                .unwrap_or_else(|e| panic!("cycle {c}: {e}"));
        }
    }

    #[test]
    fn stolen_router_credit_is_detected() {
        let mut net = fresh();
        let (r, p) = net
            .routers
            .iter()
            .enumerate()
            .find_map(|(r, rt)| {
                rt.outputs.iter().enumerate().find_map(|(p, o)| {
                    matches!(o.target, OutputTarget::Channel { .. }).then_some((r, p))
                })
            })
            .expect("mesh has at least one channel");
        net.routers[r].outputs[p].vcs[0].credits -= 1;
        assert!(matches!(
            net.check_invariants(),
            Err(InvariantViolation::CreditLeak { .. })
        ));
    }

    #[test]
    fn stolen_node_credit_is_detected() {
        let mut net = fresh();
        net.nodes[3].vcs[0].credits -= 1;
        assert!(matches!(
            net.check_invariants(),
            Err(InvariantViolation::NodeCreditLeak { .. })
        ));
    }

    #[test]
    fn orphan_flit_is_detected() {
        let mut net = fresh();
        let ghost = Packet {
            id: crate::types::PacketId(usize::MAX),
            src: NodeId(0),
            dst: NodeId(1),
            size: Bits(192),
            class: PacketClass::Data,
            tag: 0,
            birth: 0,
        };
        let flit = Flit::fragment(&ghost, Bits(192), 0).remove(0);
        net.routers[0].push(0, flit);
        assert!(matches!(
            net.check_invariants(),
            Err(InvariantViolation::OrphanFlit { .. })
        ));
    }

    #[test]
    fn occupancy_drift_is_detected() {
        let mut net = fresh();
        let rt = &mut net.routers[5];
        rt.set_derived(
            rt.occupancy() + 1,
            rt.nonempty(),
            rt.head_front(),
            rt.ready(),
        );
        assert!(matches!(
            net.check_invariants(),
            Err(InvariantViolation::OccupancyDrift { .. })
        ));
    }

    #[test]
    fn vc_mask_drift_is_detected() {
        // A non-empty bit over an empty FIFO.
        let mut net = fresh();
        let rt = &mut net.routers[5];
        let i = rt.flat(PortId(2), VcId(1));
        rt.set_derived(
            rt.occupancy(),
            rt.nonempty() ^ (1 << i),
            rt.head_front(),
            rt.ready(),
        );
        assert_eq!(
            net.check_invariants(),
            Err(InvariantViolation::VcMaskDrift {
                router: RouterId(5),
                port: PortId(2),
                vc: VcId(1),
            })
        );
        // A missing head-front bit over a buffered head flit.
        let mut net = fresh();
        load(&mut net, 40);
        let r = net
            .routers
            .iter()
            .position(|rt| rt.head_front() != 0)
            .expect("a 40-cycle loaded run leaves a head flit buffered");
        let rt = &mut net.routers[r];
        let i = rt.head_front().trailing_zeros() as usize;
        rt.set_derived(
            rt.occupancy(),
            rt.nonempty(),
            rt.head_front() ^ (1 << i),
            rt.ready(),
        );
        let (port, vc) = net.routers[r].port_vc(i);
        assert_eq!(
            net.check_invariants(),
            Err(InvariantViolation::VcMaskDrift {
                router: RouterId(r),
                port,
                vc,
            })
        );
    }

    #[test]
    fn ready_mask_drift_is_an_invariant_violation() {
        let mut net = fresh();
        load(&mut net, 40);
        let r = net
            .routers
            .iter()
            .position(|rt| rt.ready() != 0)
            .expect("a 40-cycle loaded run leaves a granted VC with a credit");
        let ready = net.routers[r].ready();
        let drift = |net: &mut Network, mask: u128| {
            let rt = &mut net.routers[r];
            rt.set_derived(rt.occupancy(), rt.nonempty(), rt.head_front(), mask);
            let i = (mask ^ ready).trailing_zeros() as usize;
            let (port, vc) = net.routers[r].port_vc(i);
            assert_eq!(
                net.check_invariants(),
                Err(InvariantViolation::ReadyMaskDrift {
                    router: RouterId(r),
                    port,
                    vc,
                })
            );
        };
        // A granted VC that lost its ready bit would never be offered to
        // switch allocation; an ungranted one with the bit would be
        // offered without a downstream VC.
        drift(&mut net, ready & (ready - 1));
        drift(&mut net, ready | ((ready + 1) & !ready));
    }

    #[test]
    fn duplicated_flit_is_detected() {
        let mut net = fresh();
        load(&mut net, 40);
        // Find a buffered flit and queue a copy behind it: breaks FIFO
        // order (same seq) and flit conservation at once.
        let found = net.routers.iter().enumerate().find_map(|(r, rt)| {
            rt.inputs
                .iter()
                .enumerate()
                .find_map(|(i, ivc)| ivc.fifo().front().copied().map(|f| (r, i, f)))
        });
        let (r, i, f) = found.expect("a 40-cycle loaded run leaves flits buffered");
        net.routers[r].push(i, f);
        assert!(matches!(
            net.check_invariants(),
            Err(InvariantViolation::FifoOrder { .. })
        ));
    }

    #[test]
    fn invariants_hold_under_transient_faults() {
        use crate::fault::FaultPlan;
        let cfg = NetworkConfig::paper_baseline();
        let mut net = Network::with_faults(cfg, FaultPlan::transient(3e-4, 9)).unwrap();
        let n = net.graph().num_nodes();
        for c in 0..600 {
            if c % 4 == 0 {
                for node in 0..n {
                    let dst = (node + 7) % n;
                    net.enqueue(NodeId(node), NodeId(dst), Bits(1024), PacketClass::Data, 0);
                }
            }
            net.step();
            net.check_invariants()
                .unwrap_or_else(|e| panic!("cycle {c}: {e}"));
        }
        assert!(
            net.fault_counters().flits_corrupted > 0,
            "the run must actually exercise retransmission"
        );
    }

    #[test]
    fn invariants_hold_across_hard_fault_and_reroute() {
        use crate::fault::{FaultKind, FaultPlan, HardFault};
        use crate::routing::degraded::degraded_routing;
        use crate::routing::RoutingKind;
        use crate::types::LinkId;

        let cfg = NetworkConfig::paper_baseline();
        let probe = Network::new(cfg.clone()).unwrap();
        let link = probe
            .graph()
            .links()
            .iter()
            .enumerate()
            .find(|(_, l)| (l.src.index(), l.dst.index()) == (27, 28))
            .map(|(i, _)| LinkId(i))
            .expect("8x8 mesh has the 27-28 link");
        let mut plan = FaultPlan::transient(1e-4, 5);
        plan.hard.push(HardFault {
            cycle: 100,
            kind: FaultKind::Link(link),
        });
        let mut net = Network::with_faults(cfg, plan).unwrap();
        let n = net.graph().num_nodes();
        for c in 0..800 {
            if c % 4 == 0 && c < 400 {
                for node in 0..n {
                    let dst = (node + 9) % n;
                    net.enqueue(NodeId(node), NodeId(dst), Bits(1024), PacketClass::Data, 0);
                }
            }
            net.step();
            if net.take_routing_stale() {
                let d = degraded_routing(net.graph(), net.dead_links(), net.dead_routers());
                assert!(d.fully_connected());
                net.install_routing(RoutingKind::FullTable(d.table));
            }
            net.check_invariants()
                .unwrap_or_else(|e| panic!("cycle {c}: {e}"));
        }
        assert_eq!(net.fault_counters().links_dead, 2);
    }

    #[test]
    fn invariants_hold_through_router_kill_with_recovery() {
        use crate::fault::{FaultKind, FaultPlan, HardFault, RecoveryPolicy};
        use crate::routing::degraded::degraded_routing;
        use crate::routing::RoutingKind;
        use crate::types::RouterId;

        // A mid-burst router kill with end-to-end recovery enabled: zombie
        // packets frozen in the dead router, scrubbed wormhole fragments,
        // and reinjected copies must all keep the conservation ledgers
        // exact, every cycle.
        let cfg = NetworkConfig::paper_baseline();
        let mut plan = FaultPlan::default();
        plan.hard.push(HardFault {
            cycle: 60,
            kind: FaultKind::Router(RouterId(27)),
        });
        plan.recovery = Some(RecoveryPolicy::default());
        let mut net = Network::with_faults(cfg, plan).unwrap();
        let n = net.graph().num_nodes();
        for c in 0..3_000u64 {
            if c % 4 == 0 && c < 200 {
                for node in 0..n {
                    let dst = (node + 9) % n;
                    net.enqueue(NodeId(node), NodeId(dst), Bits(1024), PacketClass::Data, 0);
                }
            }
            net.step();
            if net.take_routing_stale() {
                let d = degraded_routing(net.graph(), net.dead_links(), net.dead_routers());
                net.install_routing(RoutingKind::FullTable(d.table));
            }
            net.check_invariants()
                .unwrap_or_else(|e| panic!("cycle {c}: {e}"));
            if net.in_flight() == 0 && net.recovery_pending() == 0 {
                break;
            }
        }
        assert_eq!(net.in_flight(), 0, "recovery must drain");
        assert_eq!(net.recovery_pending(), 0, "retention must drain");
        assert!(net.recovery_counters().reinjections > 0);
    }

    #[test]
    fn violation_display_names_the_state() {
        let v = InvariantViolation::CreditLeak {
            router: RouterId(3),
            port: PortId(1),
            vc: VcId(0),
            accounted: 4,
            depth: 5,
        };
        let s = v.to_string();
        assert!(s.contains("r3"), "{s}");
        assert!(s.contains('4') && s.contains('5'), "{s}");
    }
}
