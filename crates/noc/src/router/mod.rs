//! Router microarchitecture state.
//!
//! Each router is an input-queued virtual-channel router with the paper's
//! two-stage pipeline: stage 1 performs buffer write, route computation and
//! VC allocation; stage 2 performs the two-phase switch allocation and
//! switch traversal, followed by one cycle of link traversal. A flit written
//! into an input buffer at cycle *t* can therefore traverse the switch at
//! *t+1* at the earliest and be written into the next router at *t+3*.
//!
//! HeteroNoC additions (§3): when the output link is wide (two flit lanes),
//! the switch allocator runs a second parallel p:1 arbiter per output port
//! so two flits — from two VCs of one input port, from one VC (two
//! back-to-back flits of the same packet, stored as the two DSET halves), or
//! from two different input ports — cross together.

pub mod arbiter;

use std::collections::VecDeque;

use crate::packet::Flit;
use crate::routing::RouteChoice;
use crate::types::{Cycle, LinkId, NodeId, PacketId, PortId, RouterId, VcId};

use arbiter::RrArbiter;

/// State of one input virtual channel.
#[derive(Clone, Debug, Default)]
pub struct InputVc {
    /// Buffered flits, front = oldest. Edited only through the
    /// [`RouterState`] FIFO methods, which keep the router's occupancy and
    /// VC masks in step with it.
    fifo: VecDeque<Flit>,
    /// Routing decision for the packet currently occupying the VC
    /// (`None` until route computation for the head at the FIFO front).
    /// Edited, like `out_vc`, only through [`RouterState`] methods, which
    /// keep the router's ready mask in step with the grant.
    route: Option<RouteChoice>,
    /// Granted downstream VC (`None` until VC allocation succeeds).
    /// For ejection (local output) this is a dummy grant.
    out_vc: Option<VcId>,
    /// True when the granted route is the X-Y escape route.
    pub in_escape_grant: bool,
    /// Flits already sent under the current grant (used to decide whether a
    /// stale grant may still be rescinded for escape diversion).
    pub sent_on_grant: u32,
    /// Cycles the head flit has been waiting for/with a grant without
    /// sending (escape-diversion timeout).
    pub head_wait: u32,
    /// Packet that owns the VC's current route/grant (set at route
    /// computation, cleared on release). Lets the fault layer identify the
    /// occupant of a granted VC even while its FIFO is momentarily empty
    /// (flits in flight between routers).
    pub holder: Option<PacketId>,
}

// The checkpoint layout of an input VC. It leaves out the FIFO: a restore
// refills that through `RouterState::push`, so the occupancy and VC masks
// follow from the flits.
crate::checkpoint::codec_struct! {
    InputVc { route, out_vc, in_escape_grant, sent_on_grant, head_wait, holder; fifo }
}

impl InputVc {
    /// Buffered flits, front = oldest.
    pub(crate) fn fifo(&self) -> &VecDeque<Flit> {
        &self.fifo
    }

    /// Routing decision for the packet occupying the VC.
    pub fn route(&self) -> Option<RouteChoice> {
        self.route
    }

    /// Granted downstream VC (a dummy grant for ejection).
    pub fn out_vc(&self) -> Option<VcId> {
        self.out_vc
    }

    /// Resets allocation state after the tail flit leaves.
    fn release(&mut self) {
        self.route = None;
        self.out_vc = None;
        self.in_escape_grant = false;
        self.sent_on_grant = 0;
        self.head_wait = 0;
        self.holder = None;
    }
}

/// Allocation state of one downstream (output-side) virtual channel.
#[derive(Clone, Copy, Debug)]
pub struct OutputVc {
    /// Input VC (port, vc) of the packet holding this output VC.
    pub owner: Option<(PortId, VcId)>,
    /// Credits = free flit slots in the downstream input VC buffer.
    pub credits: u32,
}

/// What an output port drives.
#[derive(Clone, Copy, Debug)]
pub enum OutputTarget {
    /// Ejection to the attached node (an ideal sink).
    Sink {
        /// Destination node.
        node: NodeId,
    },
    /// A channel to a neighbouring router.
    Channel {
        /// The outgoing link.
        link: LinkId,
        /// Downstream router.
        dst: RouterId,
        /// Input port at the downstream router.
        dst_port: PortId,
    },
}

/// State of one output port.
#[derive(Clone, Debug)]
pub struct OutputPort {
    /// What the port drives.
    pub target: OutputTarget,
    /// Flit lanes (link width / flit width); local sinks use the router's
    /// local-port width.
    pub lanes: usize,
    /// Downstream VC allocation state (empty for sinks).
    pub vcs: Vec<OutputVc>,
    /// VC-allocation arbiter (over flat input VC indices).
    pub va_arb: RrArbiter,
    /// Switch-allocation stage-2 primary arbiter (over input ports).
    pub sa_primary: RrArbiter,
    /// Switch-allocation stage-2 secondary arbiter (over input ports),
    /// present conceptually only when `lanes > 1` (Fig. 6b).
    pub sa_secondary: RrArbiter,
}

/// Complete per-router simulation state.
///
/// Input VCs sit in one flat table indexed `port * vcs_per_port + vc`, the
/// index VC allocation arbitrates over. Four `u128` masks over that index
/// (bit `i` for `inputs[i]`) are derived state, never stored in a
/// checkpoint:
///
/// * `nonempty`, `head_front` and `fresh` (with `occupancy`) follow the
///   FIFOs and are kept in step by the FIFO methods (`push`, `pop`,
///   `retain`), the only way to edit a FIFO;
/// * `ready` follows each VC's grant and its downstream VC's credits and
///   is kept in step by the grant and credit methods (`route_head`,
///   `grant`, `grant_sink`, `divert`, `forget_route`,
///   `release`, `traverse`, `return_credit`), the only way to edit a
///   route, a grant or a credit.
///
/// [`crate::config::NetworkConfig::validate`] keeps the flat index below
/// 128.
#[derive(Clone, Debug)]
pub struct RouterState {
    /// Input VCs, flat: VC `v` of input port `p` is
    /// `inputs[p * vcs_per_port + v]`.
    pub inputs: Vec<InputVc>,
    /// Output port state, parallel to the topology port list.
    pub outputs: Vec<OutputPort>,
    /// Stage-1 (v:1 per input port) arbiters.
    pub sa_stage1: Vec<RrArbiter>,
    /// Total flit slots across all input VCs.
    pub capacity: u32,
    /// VCs per input port (the stride of the flat index).
    vcs_per_port: usize,
    /// Occupied flit slots across all input VCs.
    occupancy: u32,
    /// Flat input VCs holding at least one flit.
    nonempty: u128,
    /// Flat input VCs whose front flit is a head.
    head_front: u128,
    /// Flat input VCs whose front flit was buffered at cycle `fresh_at`.
    /// Read only when `fresh_at` is the current cycle: those fronts are
    /// still in their stage-1 cycle and cannot cross the switch yet.
    fresh: u128,
    /// The cycle `fresh` describes: the latest `buffered` stamp pushed.
    fresh_at: Cycle,
    /// Flat input VCs that hold a route and a downstream VC that can take
    /// a flit now: a sink, or a downstream VC with at least one credit.
    /// Independent of the FIFO (a granted VC may be momentarily empty).
    ready: u128,
}

impl RouterState {
    /// An empty router: one input port per output port, each with
    /// `vcs_per_port` VCs of `buffer_depth` flits.
    pub(crate) fn new(outputs: Vec<OutputPort>, vcs_per_port: usize, buffer_depth: usize) -> Self {
        let ports = outputs.len();
        Self {
            inputs: vec![InputVc::default(); ports * vcs_per_port],
            sa_stage1: vec![RrArbiter::new(); ports],
            outputs,
            capacity: (ports * vcs_per_port * buffer_depth) as u32,
            vcs_per_port,
            occupancy: 0,
            nonempty: 0,
            head_front: 0,
            fresh: 0,
            fresh_at: 0,
            ready: 0,
        }
    }

    /// Flat index of VC `vc` at input port `port`.
    pub(crate) fn flat(&self, port: PortId, vc: VcId) -> usize {
        port.index() * self.vcs_per_port + vc.index()
    }

    /// Input port and VC of flat index `i`.
    pub(crate) fn port_vc(&self, i: usize) -> (PortId, VcId) {
        (PortId(i / self.vcs_per_port), VcId(i % self.vcs_per_port))
    }

    /// Occupied flit slots across all input VCs.
    pub(crate) fn occupancy(&self) -> u32 {
        self.occupancy
    }

    /// Input VCs holding at least one flit.
    pub(crate) fn busy_vcs(&self) -> u32 {
        self.nonempty.count_ones()
    }

    /// Flat input VCs holding at least one flit.
    #[cfg(any(test, feature = "verify"))]
    pub(crate) fn nonempty(&self) -> u128 {
        self.nonempty
    }

    /// Flat input VCs whose front flit is a head.
    pub(crate) fn head_front(&self) -> u128 {
        self.head_front
    }

    /// The bits of input port `port` in the flat mask `mask`, shifted down
    /// so VC `v` is bit `v`.
    pub(crate) fn port_bits(&self, mask: u128, port: usize) -> u128 {
        // A single-port router may have 128 VCs, so the row mask is built
        // without a 128-bit shift.
        (mask >> (port * self.vcs_per_port)) & (u128::MAX >> (128 - self.vcs_per_port))
    }

    /// Appends `flit` to input VC `i`.
    pub(crate) fn push(&mut self, i: usize, flit: Flit) {
        // Buffer writes stamp the current cycle, so the first one of a
        // cycle retires the previous cycle's fresh bits. (A restore pushes
        // older stamps; the masks it leaves describe a past cycle.)
        if flit.buffered > self.fresh_at {
            self.fresh = 0;
            self.fresh_at = flit.buffered;
        }
        self.inputs[i].fifo.push_back(flit);
        self.occupancy += 1;
        if self.inputs[i].fifo.len() == 1 {
            self.sync(i);
        }
    }

    /// Removes and returns the front flit of input VC `i`.
    pub(crate) fn pop(&mut self, i: usize) -> Option<Flit> {
        let flit = self.inputs[i].fifo.pop_front()?;
        self.occupancy -= 1;
        self.sync(i);
        Some(flit)
    }

    /// Keeps only the flits of input VC `i` for which `keep` holds.
    pub(crate) fn retain(&mut self, i: usize, keep: impl FnMut(&Flit) -> bool) {
        let before = self.inputs[i].fifo.len();
        self.inputs[i].fifo.retain(keep);
        self.occupancy -= (before - self.inputs[i].fifo.len()) as u32;
        self.sync(i);
    }

    /// Re-derives the FIFO mask bits of input VC `i` from its front.
    fn sync(&mut self, i: usize) {
        let bit = 1u128 << i;
        let front = self.inputs[i].fifo.front();
        set_bit(&mut self.nonempty, bit, front.is_some());
        set_bit(
            &mut self.head_front,
            bit,
            front.is_some_and(|f| f.kind.is_head()),
        );
        set_bit(
            &mut self.fresh,
            bit,
            front.is_some_and(|f| f.buffered == self.fresh_at),
        );
    }

    /// Flat input VCs whose front flit is still in its stage-1 cycle at
    /// `now` (buffered at `now`).
    fn fresh(&self, now: Cycle) -> u128 {
        if self.fresh_at == now {
            self.fresh
        } else {
            0
        }
    }

    /// Flat input VCs that hold a grant whose downstream VC can take a
    /// flit now.
    #[cfg(any(test, feature = "verify"))]
    pub(crate) fn ready(&self) -> u128 {
        self.ready
    }

    /// SA stage 1's candidates at `now`: VCs with a flit past its stage-1
    /// cycle and a grant that can send it. Equals the VCs for which
    /// [`RouterState::sa_eligible`] holds.
    pub(crate) fn sa_candidates(&self, now: Cycle) -> u128 {
        self.nonempty & self.ready & !self.fresh(now)
    }

    /// Whether input VC `i` holds a route and a downstream VC that can
    /// take a flit now: the state its `ready` bit mirrors.
    pub(crate) fn can_send(&self, i: usize) -> bool {
        let vc = &self.inputs[i];
        let (Some(route), Some(ovc)) = (vc.route, vc.out_vc) else {
            return false;
        };
        let out = &self.outputs[route.port.index()];
        match out.target {
            OutputTarget::Sink { .. } => true,
            OutputTarget::Channel { .. } => out.vcs[ovc.index()].credits >= 1,
        }
    }

    /// Re-derives the ready bit of input VC `i` from its grant.
    fn sync_ready(&mut self, i: usize) {
        let can = self.can_send(i);
        set_bit(&mut self.ready, 1u128 << i, can);
    }

    /// Re-derives the ready mask of every input VC: a restore writes the
    /// grants and credits wholesale.
    pub(crate) fn derive_ready(&mut self) {
        for i in 0..self.inputs.len() {
            self.sync_ready(i);
        }
    }

    /// Records route computation's choice `route` for the head of input
    /// VC `i`, owned by `packet`. No downstream VC is held yet.
    pub(crate) fn route_head(&mut self, i: usize, route: RouteChoice, packet: PacketId) {
        let vc = &mut self.inputs[i];
        vc.route = Some(route);
        vc.holder = Some(packet);
    }

    /// Routes the head of input VC `i`, owned by `packet`, to the local
    /// sink `port` with the sink's dummy grant: ejection needs no
    /// downstream VC, so the VC is ready at once.
    pub(crate) fn grant_sink(&mut self, i: usize, port: PortId, packet: PacketId) {
        let vc = &mut self.inputs[i];
        vc.route = Some(RouteChoice {
            port,
            class: crate::routing::VcClass::Any,
        });
        vc.out_vc = Some(VcId(0));
        vc.holder = Some(packet);
        self.ready |= 1u128 << i;
    }

    /// VC allocation: input VC `i` wins downstream VC `dv` of output `o`.
    pub(crate) fn grant(&mut self, i: usize, o: usize, dv: usize) {
        self.outputs[o].vcs[dv].owner = Some(self.port_vc(i));
        self.inputs[i].out_vc = Some(VcId(dv));
        self.sync_ready(i);
    }

    /// Frees the downstream VC input VC `i` holds, if it holds one on a
    /// channel (a sink's dummy grant owns nothing). Every method that
    /// drops a grant calls it first.
    fn free_out_vc(&mut self, i: usize) {
        let vc = &self.inputs[i];
        let (Some(route), Some(ovc)) = (vc.route, vc.out_vc) else {
            return;
        };
        let me = self.port_vc(i);
        let ovcs = &mut self.outputs[route.port.index()].vcs;
        if !ovcs.is_empty() && ovcs[ovc.index()].owner == Some(me) {
            ovcs[ovc.index()].owner = None;
        }
    }

    /// Escape diversion: the head of input VC `i` gives up its unused
    /// grant and re-requests on the escape route.
    pub(crate) fn divert(&mut self, i: usize, escape: RouteChoice) {
        self.free_out_vc(i);
        let vc = &mut self.inputs[i];
        vc.route = Some(escape);
        vc.out_vc = None;
        vc.in_escape_grant = true;
        vc.head_wait = 0;
        self.ready &= !(1u128 << i);
    }

    /// Sends the head of input VC `i` back to route computation: its
    /// route and any grant are dropped, its packet stays the holder.
    pub(crate) fn forget_route(&mut self, i: usize) {
        self.free_out_vc(i);
        let vc = &mut self.inputs[i];
        vc.route = None;
        vc.out_vc = None;
        vc.in_escape_grant = false;
        vc.head_wait = 0;
        self.ready &= !(1u128 << i);
    }

    /// Resets the allocation state of input VC `i`, freeing its
    /// downstream VC, after its packet left (tail sent or absorbed) or was
    /// abandoned.
    pub(crate) fn release(&mut self, i: usize) {
        self.free_out_vc(i);
        self.inputs[i].release();
        self.ready &= !(1u128 << i);
    }

    /// Switch traversal of the front flit of input VC `i` to output `o`:
    /// pops it, spends a credit of its downstream VC (none at a sink) and,
    /// after a tail, releases `i` and that VC. Returns the flit and its
    /// downstream VC.
    pub(crate) fn traverse(&mut self, i: usize, o: usize) -> (Flit, VcId) {
        let flit = self.pop(i).expect("winner has a flit");
        let tail = flit.kind.is_tail();
        let vc = &mut self.inputs[i];
        let out_vc = vc.out_vc.expect("winner has a grant");
        vc.sent_on_grant += 1;
        vc.head_wait = 0;
        if tail {
            self.release(i);
        }
        let out = &mut self.outputs[o];
        if let OutputTarget::Channel { .. } = out.target {
            let ovc = &mut out.vcs[out_vc.index()];
            debug_assert!(ovc.credits >= 1, "SA must check credits");
            ovc.credits -= 1;
            if ovc.credits == 0 {
                self.ready &= !(1u128 << i);
            }
        }
        (flit, out_vc)
    }

    /// A credit for downstream VC `dv` of output `o` came back; its owner
    /// can send again if it had run out.
    pub(crate) fn return_credit(&mut self, o: usize, dv: usize) {
        let ovc = &mut self.outputs[o].vcs[dv];
        ovc.credits += 1;
        if ovc.credits == 1 {
            if let Some((p, v)) = ovc.owner {
                let i = self.flat(p, v);
                self.sync_ready(i);
            }
        }
    }

    /// Output port the front flit of input VC `i` can cross to at `now`:
    /// it finished its stage-1 cycle (buffered strictly before `now`),
    /// holds a route and a downstream VC, and that VC has a credit (a sink
    /// always accepts). The reference that `sa_candidates` is checked
    /// against.
    pub(crate) fn sa_eligible(&self, i: usize, now: Cycle) -> Option<PortId> {
        let f = self.inputs[i].fifo.front()?;
        if f.buffered >= now {
            return None; // still in stage 1
        }
        self.can_send(i)
            .then(|| self.inputs[i].route.expect("a ready VC has a route").port)
    }

    /// Whether input VC `i` can supply a *second* flit at `now`
    /// (same-packet back-to-back pair over a wide link; needs two credits).
    pub(crate) fn sa_pair_eligible(&self, i: usize, now: Cycle) -> bool {
        let vc = &self.inputs[i];
        let (Some(f0), Some(f1)) = (vc.fifo.front(), vc.fifo.get(1)) else {
            return false;
        };
        if f0.kind.is_tail() || f1.packet != f0.packet || f1.buffered >= now {
            return false;
        }
        let Some(route) = vc.route else { return false };
        let Some(ovc) = vc.out_vc else { return false };
        let out = &self.outputs[route.port.index()];
        match out.target {
            OutputTarget::Sink { .. } => true,
            OutputTarget::Channel { .. } => out.vcs[ovc.index()].credits >= 2,
        }
    }

    /// Overwrites the occupancy counter and the non-empty, head-front and
    /// ready masks without touching the FIFOs or grants, so tests can
    /// plant the drift that the invariant checker and checkpoint restore
    /// must catch.
    #[cfg(test)]
    pub(crate) fn set_derived(
        &mut self,
        occupancy: u32,
        nonempty: u128,
        head_front: u128,
        ready: u128,
    ) {
        self.occupancy = occupancy;
        self.nonempty = nonempty;
        self.head_front = head_front;
        self.ready = ready;
    }
}

/// Sets or clears `bit` of `mask`.
#[inline]
fn set_bit(mask: &mut u128, bit: u128, on: bool) {
    if on {
        *mask |= bit;
    } else {
        *mask &= !bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlitKind, PacketClass};

    fn flit(kind: FlitKind) -> Flit {
        Flit {
            packet: PacketId(0),
            kind,
            seq: 0,
            total: 1,
            src: NodeId(0),
            dst: NodeId(1),
            class: PacketClass::Data,
            inject: 0,
            buffered: 0,
        }
    }

    fn router(ports: usize, vcs_per_port: usize) -> RouterState {
        let sink = OutputPort {
            target: OutputTarget::Sink { node: NodeId(0) },
            lanes: 1,
            vcs: Vec::new(),
            va_arb: RrArbiter::new(),
            sa_primary: RrArbiter::new(),
            sa_secondary: RrArbiter::new(),
        };
        RouterState::new(vec![sink; ports], vcs_per_port, 4)
    }

    #[test]
    fn fifo_edits_keep_occupancy_and_masks_in_step() {
        let mut r = router(3, 4);
        let i = r.flat(PortId(1), VcId(2));
        assert_eq!(i, 6);
        assert_eq!(r.port_vc(i), (PortId(1), VcId(2)));
        r.push(i, flit(FlitKind::Head));
        r.push(i, flit(FlitKind::Body));
        r.push(i, flit(FlitKind::Tail));
        assert_eq!((r.occupancy(), r.busy_vcs()), (3, 1));
        assert_eq!((r.nonempty(), r.head_front()), (1 << i, 1 << i));
        assert_eq!(r.port_bits(r.nonempty(), 1), 1 << 2);
        assert_eq!(r.port_bits(r.nonempty(), 0), 0);
        assert!(r.pop(i).is_some_and(|f| f.kind == FlitKind::Head));
        assert_eq!((r.nonempty(), r.head_front()), (1 << i, 0));
        r.retain(i, |f| f.kind != FlitKind::Body);
        assert_eq!(r.occupancy(), 1);
        assert_eq!((r.nonempty(), r.head_front()), (1 << i, 0));
        r.push(i, flit(FlitKind::HeadTail));
        assert!(r.pop(i).is_some_and(|f| f.kind == FlitKind::Tail));
        assert_eq!((r.nonempty(), r.head_front()), (1 << i, 1 << i));
        assert!(r.pop(i).is_some());
        assert!(r.pop(i).is_none());
        assert_eq!((r.occupancy(), r.nonempty(), r.head_front()), (0, 0, 0));
    }

    #[test]
    fn a_single_port_with_128_vcs_uses_every_mask_bit() {
        let mut r = router(1, 128);
        r.push(127, flit(FlitKind::HeadTail));
        r.push(0, flit(FlitKind::Body));
        assert_eq!(r.port_bits(r.nonempty(), 0), (1 << 127) | 1);
        assert_eq!(r.port_bits(r.head_front(), 0), 1 << 127);
        assert_eq!(r.busy_vcs(), 2);
    }

    #[test]
    fn sa_eligible_respects_pipeline_stage() {
        let mut r = router(1, 1);
        r.push(
            0,
            Flit {
                buffered: 5,
                ..flit(FlitKind::HeadTail)
            },
        );
        r.inputs[0].route = Some(RouteChoice {
            port: PortId(0),
            class: crate::routing::VcClass::Any,
        });
        r.inputs[0].out_vc = Some(VcId(0));
        assert_eq!(r.sa_eligible(0, 5), None);
        assert_eq!(r.sa_eligible(0, 6), Some(PortId(0)));
    }

    #[test]
    fn ready_and_fresh_masks_follow_grants_credits_and_stage() {
        let channel = OutputPort {
            target: OutputTarget::Channel {
                link: LinkId(0),
                dst: RouterId(1),
                dst_port: PortId(0),
            },
            vcs: vec![OutputVc {
                owner: None,
                credits: 1,
            }],
            ..router(1, 1).outputs[0].clone()
        };
        let mut r = RouterState::new(vec![channel], 2, 4);
        let at = |kind, buffered| Flit {
            buffered,
            ..flit(kind)
        };
        r.push(0, at(FlitKind::Head, 5));
        r.push(0, at(FlitKind::Tail, 5));
        let route = RouteChoice {
            port: PortId(0),
            class: crate::routing::VcClass::Any,
        };
        r.route_head(0, route, PacketId(0));
        assert_eq!(r.ready(), 0, "routed but not granted");
        r.grant(0, 0, 0);
        assert_eq!(r.outputs[0].vcs[0].owner, Some((PortId(0), VcId(0))));
        assert_eq!(r.ready(), 1);
        assert_eq!(r.sa_candidates(5), 0, "buffered this cycle: stage 1");
        assert_eq!(r.sa_candidates(6), 1);
        // The head spends the only credit; its return makes the VC ready.
        let (f, dv) = r.traverse(0, 0);
        assert_eq!((f.kind, dv, r.ready()), (FlitKind::Head, VcId(0), 0));
        r.return_credit(0, 0);
        assert_eq!(r.ready(), 1);
        // The tail releases the VC and its downstream VC.
        let (f, _) = r.traverse(0, 0);
        assert_eq!((f.kind, r.ready()), (FlitKind::Tail, 0));
        assert_eq!(r.outputs[0].vcs[0].owner, None);
        assert!(r.inputs[0].route().is_none());
        // A flit entering an empty VC is fresh in its own cycle only.
        r.push(1, at(FlitKind::HeadTail, 7));
        assert_eq!((r.fresh(7), r.fresh(8)), (0b10, 0));
    }

    #[test]
    fn release_clears_grant_state() {
        let mut vc = InputVc {
            route: None,
            out_vc: Some(VcId(2)),
            in_escape_grant: true,
            sent_on_grant: 3,
            head_wait: 9,
            holder: Some(PacketId(7)),
            ..Default::default()
        };
        vc.release();
        assert!(vc.out_vc.is_none());
        assert!(vc.holder.is_none());
        assert!(!vc.in_escape_grant);
        assert_eq!(vc.sent_on_grant, 0);
        assert_eq!(vc.head_wait, 0);
    }
}
