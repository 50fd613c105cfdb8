//! Memory controllers: placements (baseline corners, and the diamond /
//! diagonal layouts of Abts et al. co-evaluated in §6), the DRAM timing
//! model, and the closed-loop uniform-random request-response experiment of
//! Fig. 13.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use heteronoc_noc::config::NetworkConfig;
use heteronoc_noc::network::Network;
use heteronoc_noc::packet::PacketClass;
use heteronoc_noc::sim::{drive, Clock, Hooks, SimError, Workload, WATCHDOG_CYCLES};
use heteronoc_noc::types::{Cycle, NodeId};

use crate::metrics::Welford;
use crate::msg::{CONTROL_BITS, DATA_BITS};

/// The baseline placement: 4 controllers at the mesh corners (Table 2).
pub fn corners4(width: usize, height: usize) -> Vec<NodeId> {
    vec![
        NodeId(0),
        NodeId(width - 1),
        NodeId((height - 1) * width),
        NodeId(height * width - 1),
    ]
}

/// The diamond placement of Abts et al. (16 controllers on 8x8): diagonal
/// stripes `(x + y) % 4 == 3`, giving two controllers per row and per
/// column, uniformly and symmetrically distributed.
pub fn diamond16(width: usize, height: usize) -> Vec<NodeId> {
    (0..height)
        .flat_map(|y| (0..width).map(move |x| (x, y)))
        .filter(|&(x, y)| (x + y) % 4 == 3)
        .map(|(x, y)| NodeId(y * width + x))
        .collect()
}

/// The diagonal placement: 16 controllers on both grid diagonals —
/// co-located with the Diagonal+BL big routers (§6: "the memory controllers
/// are attached to big routers").
pub fn diagonal16(side: usize) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = (0..side)
        .flat_map(|i| [NodeId(i * side + i), NodeId(i * side + side - 1 - i)])
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// DRAM + controller timing model: fixed access latency with a bounded
/// number of in-service requests (extra requests queue).
#[derive(Clone, Debug)]
pub struct MemCtrl {
    latency: Cycle,
    concurrent: usize,
    active: Vec<(Cycle, u64)>,
    queue: VecDeque<u64>,
}

impl MemCtrl {
    /// Controller with the given DRAM `latency` and in-service capacity.
    pub fn new(latency: Cycle, concurrent: usize) -> Self {
        Self {
            latency,
            concurrent: concurrent.max(1),
            active: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// Accepts a request identified by the opaque `token`.
    pub fn request(&mut self, now: Cycle, token: u64) {
        if self.active.len() < self.concurrent {
            self.active.push((now + self.latency, token));
        } else {
            self.queue.push_back(token);
        }
    }

    /// Appends to `done` the tokens whose service completes at or before
    /// `now`, then starts queued requests in the freed slots.
    pub fn completed(&mut self, now: Cycle, done: &mut Vec<u64>) {
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].0 <= now {
                done.push(self.active.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        while self.active.len() < self.concurrent {
            match self.queue.pop_front() {
                Some(tok) => self.active.push((now + self.latency, tok)),
                None => break,
            }
        }
    }

    /// Requests currently queued or in service.
    pub fn pending(&self) -> usize {
        self.active.len() + self.queue.len()
    }
}

/// Result of the closed-loop request-response experiment.
#[derive(Clone, Debug, Default)]
pub struct ClosedLoopStats {
    /// Round-trip latency (request generation to response ejection) in
    /// network cycles.
    pub round_trip: Welford,
    /// One-way request latency (generation to controller ejection).
    pub request_leg: Welford,
    /// Requests completed.
    pub completed: u64,
    /// Cycles simulated.
    pub cycles: Cycle,
}

/// Runs the §6 closed-loop uniform-random experiment ([`ClosedLoop`]) to
/// completion. A run the watchdog stops short comes back with fewer than
/// `measure` requests completed.
///
/// # Panics
/// Panics if `cfg` is not a valid network configuration.
pub fn run_closed_loop(
    cfg: NetworkConfig,
    mcs: &[NodeId],
    mshrs: usize,
    dram_latency: Cycle,
    measure: u64,
    seed: u64,
) -> ClosedLoopStats {
    let mut run = ClosedLoop::new(cfg, mcs, mshrs, dram_latency, measure, seed);
    let _stalled = run.run(None);
    run.stats()
}

/// The §6 closed-loop uniform-random experiment: every non-controller
/// node keeps up to `mshrs` requests outstanding to uniformly chosen
/// memory controllers; controllers reply with a cache-line data packet
/// after `dram_latency` network cycles. Measures round-trip and
/// request-leg latency over `measure` completed requests (after warming
/// up with a quarter as many).
///
/// Per network cycle: inject, step, controller completions, deliveries.
#[derive(Debug)]
pub struct ClosedLoop {
    net: Network,
    clock: Clock,
    mcs: Vec<NodeId>,
    mshrs: usize,
    rng: StdRng,
    /// Each node's outstanding requests: tag -> issue cycle.
    birth: Vec<HashMap<u64, Cycle>>,
    /// The controller at each controller node.
    ctrls: Vec<Option<MemCtrl>>,
    /// The measurements, with `completed` counting the warm-up too.
    stats: ClosedLoopStats,
    warmup: u64,
    measure: u64,
    req_id: u64,
    done: Vec<u64>,
    delivered: bool,
}

impl ClosedLoop {
    /// Sets the experiment up on a fresh network built from `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg` is not a valid network configuration.
    pub fn new(
        cfg: NetworkConfig,
        mcs: &[NodeId],
        mshrs: usize,
        dram_latency: Cycle,
        measure: u64,
        seed: u64,
    ) -> ClosedLoop {
        let net = Network::new(cfg).expect("valid network config");
        let n = net.graph().num_nodes();
        let mut ctrls = vec![None; n];
        for m in mcs {
            ctrls[m.index()] = Some(MemCtrl::new(dram_latency, 16));
        }
        ClosedLoop {
            net,
            clock: Clock::new(1.0),
            mcs: mcs.to_vec(),
            mshrs,
            rng: StdRng::seed_from_u64(seed),
            birth: vec![HashMap::new(); n],
            ctrls,
            stats: ClosedLoopStats::default(),
            warmup: measure / 4,
            measure,
            req_id: 0,
            done: Vec::new(),
            delivered: false,
        }
    }

    /// Runs until `measure` requests complete after the warm-up.
    ///
    /// # Errors
    /// [`SimError::Stalled`] when nothing is delivered for
    /// [`WATCHDOG_CYCLES`] cycles; [`SimError::Interrupted`] once
    /// `shutdown` is raised.
    pub fn run(&mut self, shutdown: Option<Arc<AtomicBool>>) -> Result<(), SimError> {
        let mut hooks = Hooks::new(Some(WATCHDOG_CYCLES));
        hooks.shutdown = shutdown;
        drive(self, hooks)
    }

    /// The measurements so far.
    pub fn stats(&self) -> ClosedLoopStats {
        ClosedLoopStats {
            completed: self.stats.completed.saturating_sub(self.warmup),
            cycles: self.net.now(),
            ..self.stats.clone()
        }
    }
}

impl Workload for ClosedLoop {
    fn net(&mut self) -> &mut Network {
        &mut self.net
    }

    fn clock(&mut self) -> &mut Clock {
        &mut self.clock
    }

    fn done(&self) -> bool {
        self.stats.completed >= self.warmup + self.measure
    }

    /// New requests, greedily up to the MSHR limit.
    fn inject(&mut self) {
        let now = self.net.now();
        for node in 0..self.ctrls.len() {
            if self.ctrls[node].is_some() {
                continue;
            }
            while self.birth[node].len() < self.mshrs {
                let mc = self.mcs[self.rng.random_range(0..self.mcs.len())];
                let tag = self.req_id;
                self.req_id += 1;
                self.net
                    .enqueue(NodeId(node), mc, CONTROL_BITS, PacketClass::Control, tag);
                self.birth[node].insert(tag, now);
            }
        }
    }

    /// Controller completions become responses; then requests reach
    /// their controllers and responses their cores.
    fn deliver(&mut self) -> Result<(), SimError> {
        let now = self.net.now();
        for (m, ctrl) in self.ctrls.iter_mut().enumerate() {
            let Some(ctrl) = ctrl else { continue };
            ctrl.completed(now, &mut self.done);
            for token in self.done.drain(..) {
                let node = (token >> 40) as usize;
                let tag = token & ((1 << 40) - 1);
                self.net
                    .enqueue(NodeId(m), NodeId(node), DATA_BITS, PacketClass::Data, tag);
            }
        }
        let delivered = self.net.drain_delivered();
        self.delivered = !delivered.is_empty();
        for d in delivered {
            let dst = d.packet.dst.index();
            let measuring = self.stats.completed >= self.warmup;
            if let Some(ctrl) = &mut self.ctrls[dst] {
                let src = d.packet.src.index();
                if measuring {
                    self.stats
                        .request_leg
                        .add((d.retire - d.packet.birth) as f64);
                }
                ctrl.request(d.retire, ((src as u64) << 40) | d.packet.tag);
            } else {
                let t0 = self.birth[dst]
                    .remove(&d.packet.tag)
                    .expect("known request");
                if measuring {
                    self.stats.round_trip.add((d.retire - t0) as f64);
                }
                self.stats.completed += 1;
            }
        }
        Ok(())
    }

    /// Any delivery is progress: every request is answered, so a loop
    /// that delivers nothing has wedged.
    fn progressed(&mut self) -> bool {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc_noc::config::{NetworkConfig, RouterCfg};
    use heteronoc_noc::topology::TopologyKind;
    use heteronoc_noc::types::Bits;

    #[test]
    fn placements_have_expected_sizes() {
        assert_eq!(
            corners4(8, 8),
            vec![NodeId(0), NodeId(7), NodeId(56), NodeId(63)]
        );
        let d = diamond16(8, 8);
        assert_eq!(d.len(), 16);
        // Two per row and per column.
        for k in 0..8 {
            assert_eq!(
                d.iter().filter(|n| n.index() / 8 == k).count(),
                2,
                "row {k}"
            );
            assert_eq!(
                d.iter().filter(|n| n.index() % 8 == k).count(),
                2,
                "col {k}"
            );
        }
        let g = diagonal16(8);
        assert_eq!(g.len(), 16);
        assert!(g.contains(&NodeId(0)) && g.contains(&NodeId(63)));
    }

    #[test]
    fn memctrl_respects_concurrency_and_latency() {
        let mut mc = MemCtrl::new(100, 2);
        mc.request(0, 1);
        mc.request(0, 2);
        mc.request(0, 3); // queued
        assert_eq!(mc.pending(), 3);
        let mut done = Vec::new();
        mc.completed(99, &mut done);
        assert!(done.is_empty());
        mc.completed(100, &mut done);
        done.sort_unstable();
        assert_eq!(done, vec![1, 2]);
        // Token 3 started service at 100; completions append.
        mc.completed(150, &mut done);
        assert_eq!(done.len(), 2);
        mc.completed(200, &mut done);
        assert_eq!(done, vec![1, 2, 3]);
        assert_eq!(mc.pending(), 0);
    }

    #[test]
    fn closed_loop_completes_and_measures() {
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 4,
                height: 4,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        let stats = run_closed_loop(cfg, &corners4(4, 4), 4, 50, 500, 1);
        assert!(stats.completed >= 500);
        assert!(stats.round_trip.mean() > 50.0, "round trip includes DRAM");
        assert!(stats.request_leg.mean() > 4.0);
        assert!(stats.request_leg.mean() < stats.round_trip.mean());
        assert!(stats.round_trip.stddev() >= 0.0);
    }

    #[test]
    fn closed_loop_is_deterministic() {
        let cfg = || {
            NetworkConfig::homogeneous(
                TopologyKind::Mesh {
                    width: 4,
                    height: 4,
                },
                RouterCfg::BASELINE,
                Bits(192),
                2.2,
            )
        };
        let a = run_closed_loop(cfg(), &corners4(4, 4), 2, 10, 200, 7);
        let b = run_closed_loop(cfg(), &corners4(4, 4), 2, 10, 200, 7);
        assert_eq!(a.round_trip.mean(), b.round_trip.mean());
        assert_eq!(a.cycles, b.cycles);
    }
}
