//! The full trace-driven 64-tile CMP (§5.2, Table 2): per-tile core +
//! private L1 + shared L2 bank with a two-level directory MESI protocol,
//! memory controllers with a fixed-latency DRAM, all communicating through
//! the cycle-accurate NoC.
//!
//! Clock domains: cores, caches and DRAM run at the nominal core clock
//! (2.2 GHz); the network runs at its own configured clock (2.2 GHz
//! homogeneous, 2.07 GHz HeteroNoC). The system is a
//! [`heteronoc_noc::sim::Workload`] whose cycle is the core cycle, and
//! the driver's [`Clock`] accumulates the fractional network steps.
//! All latencies reported by this module are in core cycles.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use heteronoc_noc::config::NetworkConfig;
use heteronoc_noc::network::{Network, StallReport};
use heteronoc_noc::packet::PacketClass;
use heteronoc_noc::sim::{drive, Clock, Hooks, SimError, Workload, WATCHDOG_CYCLES};
use heteronoc_noc::types::NodeId;
use heteronoc_traffic::trace::{MemOp, TraceSource};

use crate::cache::Cache;
use crate::core::{Core, CoreParams, Cycle, MemResult, RobEntry, TxnId};
use crate::memctrl::MemCtrl;
use crate::metrics::Welford;
use crate::msg::{Msg, MsgKind};

/// Cache hierarchy and memory parameters (defaults = Table 2).
#[derive(Clone, Copy, Debug)]
pub struct MemParams {
    /// Private L1 capacity in bytes (32 KB).
    pub l1_bytes: usize,
    /// L1 associativity (4).
    pub l1_ways: usize,
    /// Shared L2 bank capacity in bytes (1 MB per tile).
    pub l2_bytes: usize,
    /// L2 associativity (16).
    pub l2_ways: usize,
    /// Cache block size in bytes (128).
    pub block_bytes: usize,
    /// L1 hit latency in core cycles (2).
    pub l1_latency: Cycle,
    /// L2 bank access latency (6).
    pub bank_latency: Cycle,
    /// DRAM access latency (400).
    pub dram_latency: Cycle,
    /// Outstanding misses per core (16).
    pub l1_mshrs: usize,
    /// In-service requests per memory controller (16).
    pub mc_concurrent: usize,
}

impl Default for MemParams {
    fn default() -> Self {
        Self {
            l1_bytes: 32 * 1024,
            l1_ways: 4,
            l2_bytes: 1024 * 1024,
            l2_ways: 16,
            block_bytes: 128,
            l1_latency: 2,
            bank_latency: 6,
            dram_latency: 400,
            l1_mshrs: 16,
            mc_concurrent: 16,
        }
    }
}

/// Full system configuration.
#[derive(Debug)]
pub struct CmpConfig {
    /// Network configuration (from a `heteronoc::Layout` via
    /// `heteronoc::mesh_config`, or hand-built).
    pub net: NetworkConfig,
    /// Cache/memory parameters.
    pub mem: MemParams,
    /// Memory controller nodes (see [`crate::memctrl`]).
    pub mc_nodes: Vec<NodeId>,
    /// Core clock in GHz (2.2).
    pub core_clock_ghz: f64,
    /// Nodes whose traffic is expedited (§7 large cores); empty for
    /// symmetric CMPs.
    pub expedited_nodes: Vec<NodeId>,
}

impl CmpConfig {
    /// Table 2 defaults on the given network: 4 corner memory controllers,
    /// 2.2 GHz cores.
    pub fn paper_defaults(net: NetworkConfig) -> Self {
        Self {
            net,
            mem: MemParams::default(),
            mc_nodes: crate::memctrl::corners4(8, 8),
            core_clock_ghz: 2.2,
            expedited_nodes: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// L1
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum L1State {
    S,
    E,
    M,
}

#[derive(Clone, Debug)]
struct Mshr {
    txns: Vec<TxnId>,
    is_store: bool,
    start: Cycle,
}

#[derive(Debug)]
struct L1 {
    cache: Cache<L1State>,
    mshrs: HashMap<u64, Mshr>,
    /// Resolved transactions the core has not committed yet (txn ->
    /// completion cycle). The core's commit removes them, so the map never
    /// outgrows the reorder window.
    done: HashMap<TxnId, Cycle>,
    limit: usize,
    hits: u64,
    misses: u64,
}

// ---------------------------------------------------------------------
// L2 bank + directory
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
struct L2Line {
    dirty: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct DirEntry {
    sharers: u64,
    owner: Option<u16>,
}

impl DirEntry {
    fn is_idle(&self) -> bool {
        self.sharers == 0 && self.owner.is_none()
    }
}

#[derive(Clone, Copy, Debug)]
#[allow(clippy::enum_variant_names)] // protocol states read best as Wait*
enum Busy {
    /// Waiting for MemData from a controller.
    WaitMem { requester: u16, store: bool },
    /// Waiting for a writeback from the current owner.
    WaitWb { requester: u16, store: bool },
    /// Waiting for invalidation acks from sharers.
    WaitAcks { requester: u16, pending: u32 },
}

#[derive(Debug)]
struct Bank {
    cache: Cache<L2Line>,
    dir: HashMap<u64, DirEntry>,
    busy: HashMap<u64, Busy>,
    deferred: HashMap<u64, VecDeque<Msg>>,
    /// Messages delayed by the bank access latency: (ready, msg).
    inbox: VecDeque<(Cycle, Msg)>,
}

// ---------------------------------------------------------------------
// System
// ---------------------------------------------------------------------

/// System-level statistics.
#[derive(Clone, Debug, Default)]
pub struct CmpStats {
    /// Memory round trips (core request to data back at the core) for
    /// L2-miss transactions, in core cycles (Fig. 13).
    pub mem_round_trip: Welford,
    /// Request leg: core request generation to arrival at the memory
    /// controller, in core cycles (Fig. 13b).
    pub mem_request_leg: Welford,
    /// All L1-miss round trips (any data source).
    pub l1_miss_latency: Welford,
    /// Total L1 hits across cores.
    pub l1_hits: u64,
    /// Total L1 misses.
    pub l1_misses: u64,
    /// Memory reads issued.
    pub mem_reads: u64,
    /// Memory writebacks issued (dirty L2 evictions).
    pub mem_writes: u64,
}

/// The simulated CMP.
pub struct CmpSystem {
    mem: MemParams,
    net: Network,
    clock: Clock,
    cores: Vec<Core>,
    l1s: Vec<L1>,
    banks: Vec<Bank>,
    /// Controller nodes, sorted and deduplicated.
    mc_list: Vec<usize>,
    /// One controller per `mc_list` entry, in the same order.
    mcs: Vec<MemCtrl>,
    expedited: Vec<bool>,
    now: Cycle,
    txn_counter: TxnId,
    stats: CmpStats,
    /// Reused per tick: controller tokens completed this cycle.
    mc_done: Vec<u64>,
    /// Reused per tick: (core, block, store) misses issued this cycle.
    issues: Vec<(usize, u64, bool)>,
    /// Instructions committed when the watchdog last asked.
    committed_seen: u64,
}

impl std::fmt::Debug for CmpSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CmpSystem")
            .field("now", &self.now)
            .field("cores", &self.cores.len())
            .finish_non_exhaustive()
    }
}

impl CmpSystem {
    /// Builds a CMP running one trace per core. `traces[i]` drives core `i`
    /// (pass empty traces for inactive cores).
    ///
    /// # Panics
    /// Panics if the trace/core-parameter counts do not match the network's
    /// node count or the network config is invalid.
    pub fn new(
        cfg: CmpConfig,
        core_params: Vec<CoreParams>,
        traces: Vec<Box<dyn TraceSource + Send>>,
    ) -> Self {
        let net = Network::new(cfg.net).expect("valid network config");
        let n = net.graph().num_nodes();
        assert_eq!(traces.len(), n, "one trace per node");
        assert_eq!(core_params.len(), n, "one core parameter set per node");
        let mem = cfg.mem;
        let l1s = (0..n)
            .map(|_| L1 {
                cache: Cache::with_geometry(mem.l1_bytes, mem.block_bytes, mem.l1_ways),
                mshrs: HashMap::new(),
                done: HashMap::new(),
                limit: mem.l1_mshrs,
                hits: 0,
                misses: 0,
            })
            .collect();
        let banks = (0..n)
            .map(|_| Bank {
                cache: Cache::with_geometry(mem.l2_bytes, mem.block_bytes, mem.l2_ways),
                dir: HashMap::new(),
                busy: HashMap::new(),
                deferred: HashMap::new(),
                inbox: VecDeque::new(),
            })
            .collect();
        let mut expedited = vec![false; n];
        for e in &cfg.expedited_nodes {
            expedited[e.index()] = true;
        }
        let mut mc_list: Vec<usize> = cfg.mc_nodes.iter().map(|m| m.index()).collect();
        mc_list.sort_unstable();
        mc_list.dedup();
        let mcs = mc_list
            .iter()
            .map(|_| MemCtrl::new(mem.dram_latency, mem.mc_concurrent))
            .collect();
        let net_ratio = net.config().frequency_ghz / cfg.core_clock_ghz;
        let cores = core_params
            .into_iter()
            .zip(traces)
            .map(|(p, t)| Core::new(p, t))
            .collect();
        Self {
            mem,
            net,
            clock: Clock::new(net_ratio),
            cores,
            l1s,
            banks,
            mc_list,
            mcs,
            expedited,
            now: 0,
            txn_counter: 0,
            stats: CmpStats::default(),
            mc_done: Vec::new(),
            issues: Vec::new(),
            committed_seen: 0,
        }
    }

    /// Current core cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The underlying network (for latency/power statistics).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// System statistics.
    pub fn stats(&self) -> &CmpStats {
        &self.stats
    }

    /// Per-core IPCs.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cores.iter().map(Core::ipc).collect()
    }

    /// Instructions committed per core.
    pub fn committed(&self) -> Vec<u64> {
        self.cores.iter().map(Core::committed).collect()
    }

    /// True when every core has drained its trace.
    pub fn finished(&self) -> bool {
        self.cores.iter().all(Core::finished)
            && self.net.in_flight() == 0
            && self
                .banks
                .iter()
                .all(|b| b.busy.is_empty() && b.inbox.is_empty())
    }

    /// Says why the run has not drained: every unfinished core with its
    /// committed count, the reorder-window head it waits on and the MSHRs
    /// it uses; every bank still holding busy or deferred blocks or delayed
    /// messages; and the packets in flight. Meant for "did not drain"
    /// messages.
    pub fn drain_report(&self) -> String {
        let mut lines = self.stuck_parts();
        let in_flight = self.net.in_flight();
        if in_flight > 0 {
            lines.push(format!("{in_flight} packets in flight"));
        }
        if lines.is_empty() {
            return format!("drained at cycle {}", self.now);
        }
        format!(
            "not drained at cycle {}:\n  {}",
            self.now,
            lines.join("\n  ")
        )
    }

    /// One line per unfinished core and per bank with work left.
    fn stuck_parts(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (c, core) in self.cores.iter().enumerate() {
            if core.finished() {
                continue;
            }
            let l1 = &self.l1s[c];
            let head = match core.rob_head() {
                Some(RobEntry::Waiting(t)) => match l1.done.get(&t) {
                    Some(cyc) => format!("head txn {t} resolves at cycle {cyc}"),
                    None => format!("head waits on txn {t}"),
                },
                Some(RobEntry::Done(cyc)) => format!("head completes at cycle {cyc}"),
                None => "window empty".to_owned(),
            };
            lines.push(format!(
                "core {c}: {} committed, {head}, {}/{} MSHRs",
                core.committed(),
                l1.mshrs.len(),
                l1.limit
            ));
        }
        for (b, bank) in self.banks.iter().enumerate() {
            if !bank.busy.is_empty() || !bank.deferred.is_empty() || !bank.inbox.is_empty() {
                lines.push(format!(
                    "bank {b}: {} busy and {} deferred blocks, {} delayed messages",
                    bank.busy.len(),
                    bank.deferred.len(),
                    bank.inbox.len()
                ));
            }
        }
        lines
    }

    /// Functionally pre-warms the caches and directory by replaying
    /// `warm` traces instantly (no timing, no network traffic) — the
    /// standard architecture-simulation warm-up so measurement starts from
    /// a steady state instead of being dominated by cold DRAM misses.
    ///
    /// Loads install the block shared (L1 S + sharer bit); stores install
    /// it modified (L1 M, other copies invalidated). L2 lines are installed
    /// clean at the home bank with normal LRU replacement.
    ///
    /// # Panics
    /// Panics if the trace count does not match the node count.
    pub fn prewarm(&mut self, warm: Vec<Box<dyn TraceSource + Send>>) {
        assert_eq!(warm.len(), self.l1s.len(), "one warm trace per node");
        let nbanks = self.banks.len() as u64;
        let block_bytes = self.mem.block_bytes as u64;
        for (c, mut t) in warm.into_iter().enumerate() {
            while let Some(rec) = t.next_record() {
                let block = rec.addr / block_bytes;
                let home = (block % nbanks) as usize;
                let store = rec.op == MemOp::Store;
                // L2 at home (clean; victims silently dropped along with
                // their directory state).
                let key = block / nbanks;
                if !self.banks[home].cache.contains(key) {
                    if let Some((vk, _)) = self.banks[home].cache.insert(key, L2Line::default()) {
                        let vb = vk * nbanks + home as u64;
                        self.banks[home].dir.remove(&vb);
                        for l1 in &mut self.l1s {
                            l1.cache.invalidate(vb);
                        }
                    }
                }
                let dir = self.banks[home].dir.entry(block).or_default();
                if store {
                    // Invalidate all other copies; this core becomes owner.
                    let prev_sharers = dir.sharers;
                    let prev_owner = dir.owner;
                    dir.sharers = 0;
                    dir.owner = Some(c as u16);
                    for s in 0..self.l1s.len() {
                        let had = prev_sharers & (1 << s) != 0 || prev_owner == Some(s as u16);
                        if had && s != c {
                            self.l1s[s].cache.invalidate(block);
                        }
                    }
                    set_l1_warm(&mut self.l1s[c], block, L1State::M);
                } else {
                    if let Some(owner) = dir.owner.take() {
                        // Downgrade the owner to a sharer.
                        if let Some(st) = self.l1s[owner as usize].cache.get_mut(block) {
                            *st = L1State::S;
                        }
                        dir.sharers |= 1 << owner;
                    }
                    dir.sharers |= 1 << c;
                    set_l1_warm(&mut self.l1s[c], block, L1State::S);
                }
            }
        }
        // Warming must not count as cache activity.
        for l1 in &mut self.l1s {
            l1.hits = 0;
            l1.misses = 0;
        }
    }

    /// Runs until every trace drains, the core clock reaches `until`, or
    /// no core commits an instruction for [`WATCHDOG_CYCLES`] cycles.
    /// Returns the core cycle it stopped at. A stalled system is left
    /// unfinished: [`CmpSystem::finished`] and [`CmpSystem::drain_report`]
    /// say so, and [`CmpSystem::try_run`] returns the typed error. Network
    /// statistics are collected for the whole run.
    pub fn run(&mut self, until: Cycle) -> Cycle {
        let _stalled = self.try_run(until, None);
        self.now
    }

    /// Runs until every trace drains or the core clock reaches `until`,
    /// and returns the core cycle it stopped at.
    ///
    /// # Errors
    /// [`SimError::Stalled`] when no core commits an instruction for
    /// [`WATCHDOG_CYCLES`] cycles, its report naming the stuck cores and
    /// banks; [`SimError::Interrupted`] once `shutdown` is raised.
    pub fn try_run(
        &mut self,
        until: Cycle,
        shutdown: Option<Arc<AtomicBool>>,
    ) -> Result<Cycle, SimError> {
        self.net.start_measuring();
        let mut hooks = Hooks::new(Some(WATCHDOG_CYCLES));
        hooks.until = until;
        hooks.shutdown = shutdown;
        let result = drive(self, hooks);
        self.finalize_stats();
        result.map(|()| self.now)
    }

    fn home_of(&self, block: u64) -> usize {
        (block % self.banks.len() as u64) as usize
    }

    /// L2 banks are indexed with the home-bank bits stripped, so bank sets
    /// are used uniformly (block = key * nbanks + bank).
    fn l2_key(&self, block: u64) -> u64 {
        block / self.banks.len() as u64
    }

    fn l2_block(&self, key: u64, bank: usize) -> u64 {
        key * self.banks.len() as u64 + bank as u64
    }

    /// Index into `mc_list`/`mcs` of the controller serving `block`.
    /// Deterministic: low-order block bits select the controller from the
    /// sorted node list (§6).
    fn mc_slot(&self, block: u64) -> usize {
        (block % self.mc_list.len() as u64) as usize
    }

    fn mc_of(&self, block: u64) -> usize {
        self.mc_list[self.mc_slot(block)]
    }

    fn send(&mut self, src: usize, dst: usize, msg: Msg) {
        let class = if self.expedited[src] || self.expedited[dst] {
            PacketClass::Expedited
        } else if msg.kind.is_data() {
            PacketClass::Data
        } else {
            PacketClass::Control
        };
        self.net.enqueue(
            NodeId(src),
            NodeId(dst),
            msg.kind.packet_bits(),
            class,
            msg.encode(),
        );
    }

    /// Ends a core cycle after its network steps: controllers, then
    /// banks, then cores.
    fn tick(&mut self) {
        let now = self.now;

        // 1. Memory controllers complete DRAM accesses.
        let mut done = std::mem::take(&mut self.mc_done);
        for i in 0..self.mcs.len() {
            let m = self.mc_list[i];
            self.mcs[i].completed(now, &mut done);
            for token in done.drain(..) {
                if token >> 63 == 1 {
                    continue; // completed write: no reply needed
                }
                // Read token encodes (home, block).
                let home = ((token >> 47) & 0xFFF) as usize;
                let block = token & ((1 << 47) - 1);
                self.send(
                    m,
                    home,
                    Msg::new(MsgKind::MemData, block, home).with_memory_flag(true),
                );
            }
        }
        self.mc_done = done;

        // 2. Banks process delayed messages.
        for b in 0..self.banks.len() {
            loop {
                match self.banks[b].inbox.front() {
                    Some((ready, _)) if *ready <= now => {
                        let (_, msg) = self.banks[b].inbox.pop_front().expect("front");
                        self.bank_process(b, msg);
                    }
                    _ => break,
                }
            }
        }

        // 3. Cores commit and issue.
        let mut issues = std::mem::take(&mut self.issues);
        {
            let Self {
                cores,
                l1s,
                txn_counter,
                mem,
                ..
            } = self;
            let block_bytes = mem.block_bytes as u64;
            let l1_latency = mem.l1_latency;
            for (c, core) in cores.iter_mut().enumerate() {
                let l1 = &mut l1s[c];
                // `done` is consumed by one closure while the other mutates
                // the rest of the L1, so take it out for the duration.
                let mut done_map = std::mem::take(&mut l1.done);
                core.tick(
                    now,
                    |iss| {
                        let block = iss.record.addr / block_bytes;
                        let store = iss.record.op == MemOp::Store;
                        l1_issue(
                            l1,
                            c,
                            block,
                            store,
                            now,
                            l1_latency,
                            txn_counter,
                            &mut issues,
                        )
                    },
                    |t| {
                        // A cycle <= now commits the instruction in this
                        // call, which is the last time `t` is asked about.
                        let cyc = *done_map.get(&t)?;
                        if cyc <= now {
                            done_map.remove(&t);
                        }
                        Some(cyc)
                    },
                );
                l1.done = done_map;
            }
        }
        for &(c, block, store) in &issues {
            let home = self.home_of(block);
            let kind = if store { MsgKind::GetM } else { MsgKind::GetS };
            self.send(c, home, Msg::new(kind, block, c));
        }
        issues.clear();
        self.issues = issues;

        self.now += 1;
    }

    /// Routes a delivered network message to the right component.
    fn dispatch(&mut self, dst: usize, src: usize, msg: Msg) {
        match msg.kind {
            // L1-bound messages.
            MsgKind::DataS | MsgKind::DataE | MsgKind::DataM => self.l1_fill(dst, msg),
            MsgKind::FwdS | MsgKind::FwdM | MsgKind::Inv => self.l1_probe(dst, msg),
            // Bank-bound messages go through the bank access latency.
            MsgKind::GetS
            | MsgKind::GetM
            | MsgKind::PutM
            | MsgKind::WbData
            | MsgKind::InvAck
            | MsgKind::MemData => {
                let _ = src;
                let ready = self.now + self.mem.bank_latency;
                self.banks[dst].inbox.push_back((ready, msg));
            }
            // Memory-controller messages reach `mc_of(block)`, the
            // controller in slot `mc_slot(block)`.
            MsgKind::MemRead => {
                self.stats.mem_reads += 1;
                // The requester's MSHR lives from the miss's issue until its
                // fill, and the fill cannot precede this read.
                let requester = &self.l1s[msg.requester as usize];
                if let Some(mshr) = requester.mshrs.get(&msg.block) {
                    let leg = self.now - mshr.start;
                    self.stats.mem_request_leg.add(leg as f64);
                }
                let token = ((src as u64) << 47) | msg.block;
                let slot = self.mc_slot(msg.block);
                self.mcs[slot].request(self.now, token);
            }
            MsgKind::MemWrite => {
                // Fire-and-forget writeback: consumes DRAM bandwidth. The
                // top token bit marks writes so no reply is generated.
                self.stats.mem_writes += 1;
                let token = (1u64 << 63) | msg.block;
                let slot = self.mc_slot(msg.block);
                self.mcs[slot].request(self.now, token);
            }
        }
    }

    /// Data reply arriving at an L1.
    fn l1_fill(&mut self, node: usize, msg: Msg) {
        let now = self.now;
        let mem = self.mem;
        let state = match msg.kind {
            MsgKind::DataS => L1State::S,
            MsgKind::DataE => L1State::E,
            MsgKind::DataM => L1State::M,
            _ => unreachable!("l1_fill only handles data"),
        };
        let mut evict: Option<(u64, L1State)> = None;
        {
            let l1 = &mut self.l1s[node];
            if let Some(st) = l1.cache.get_mut(msg.block) {
                // Upgrade (was S, got M).
                *st = state;
            } else {
                evict = l1.cache.insert(msg.block, state);
            }
            let Some(mshr) = l1.mshrs.remove(&msg.block) else {
                debug_assert!(false, "data without MSHR");
                return;
            };
            for t in mshr.txns {
                l1.done.insert(t, now + mem.l1_latency);
            }
            let latency = now - mshr.start;
            self.stats.l1_miss_latency.add(latency as f64);
            if msg.from_memory {
                self.stats.mem_round_trip.add(latency as f64);
            }
        }
        if let Some((vblock, vstate)) = evict {
            if vstate == L1State::M {
                let home = self.home_of(vblock);
                self.send(node, home, Msg::new(MsgKind::PutM, vblock, node));
            }
        }
    }

    /// Forward/invalidate probe arriving at an L1.
    fn l1_probe(&mut self, node: usize, msg: Msg) {
        let home = self.home_of(msg.block);
        match msg.kind {
            MsgKind::FwdS => {
                if let Some(st) = self.l1s[node].cache.get_mut(msg.block) {
                    *st = L1State::S;
                }
                // Reply even when the block was already evicted (the
                // crossing PutM is ignored at the home; see bank_process).
                self.send(
                    node,
                    home,
                    Msg::new(MsgKind::WbData, msg.block, msg.requester as usize),
                );
            }
            MsgKind::FwdM => {
                self.l1s[node].cache.invalidate(msg.block);
                self.send(
                    node,
                    home,
                    Msg::new(MsgKind::WbData, msg.block, msg.requester as usize),
                );
            }
            MsgKind::Inv => {
                self.l1s[node].cache.invalidate(msg.block);
                self.send(
                    node,
                    home,
                    Msg::new(MsgKind::InvAck, msg.block, msg.requester as usize),
                );
            }
            _ => unreachable!("l1_probe only handles probes"),
        }
    }

    /// Directory/L2 processing after the bank access latency. The message's
    /// `src` was stashed in the requester field for unsolicited messages —
    /// see [`Msg::with_src`] for the convention.
    fn bank_process(&mut self, bank: usize, msg: Msg) {
        let block = msg.block;
        if self.banks[bank].busy.contains_key(&block) {
            match msg.kind {
                // Writebacks complete the in-flight transaction.
                MsgKind::WbData | MsgKind::PutM => self.bank_writeback(bank, msg),
                MsgKind::InvAck => self.bank_inv_ack(bank, msg),
                MsgKind::MemData => self.bank_mem_data(bank, msg),
                // New requests wait.
                MsgKind::GetS | MsgKind::GetM => {
                    self.banks[bank]
                        .deferred
                        .entry(block)
                        .or_default()
                        .push_back(msg);
                }
                _ => unreachable!("unexpected bank message {:?}", msg.kind),
            }
            return;
        }
        match msg.kind {
            MsgKind::GetS | MsgKind::GetM => self.bank_request(bank, msg),
            MsgKind::PutM | MsgKind::WbData => self.bank_writeback(bank, msg),
            MsgKind::InvAck => { /* stale ack for an aborted race: drop */ }
            MsgKind::MemData => self.bank_mem_data(bank, msg),
            _ => unreachable!("unexpected bank message {:?}", msg.kind),
        }
    }

    fn bank_request(&mut self, bank: usize, msg: Msg) {
        let block = msg.block;
        let req = msg.requester;
        let store = msg.kind == MsgKind::GetM;
        let dir = self.banks[bank].dir.entry(block).or_default();

        if let Some(owner) = dir.owner {
            if owner == req {
                // Owner re-requesting (e.g. store on an E line after a
                // silent upgrade race): just grant.
                dir.owner = Some(req);
                self.send(
                    bank,
                    req as usize,
                    Msg::new(MsgKind::DataM, block, req as usize),
                );
                return;
            }
            let fwd = if store { MsgKind::FwdM } else { MsgKind::FwdS };
            self.banks[bank].busy.insert(
                block,
                Busy::WaitWb {
                    requester: req,
                    store,
                },
            );
            self.send(bank, owner as usize, Msg::new(fwd, block, req as usize));
            return;
        }

        if dir.sharers != 0 {
            if store {
                let others = dir.sharers & !(1u64 << req);
                let pending = others.count_ones();
                if pending == 0 {
                    // Upgrade by the sole sharer.
                    dir.sharers = 0;
                    dir.owner = Some(req);
                    self.send(
                        bank,
                        req as usize,
                        Msg::new(MsgKind::DataM, block, req as usize),
                    );
                } else {
                    self.banks[bank].busy.insert(
                        block,
                        Busy::WaitAcks {
                            requester: req,
                            pending,
                        },
                    );
                    for s in 0..64u16 {
                        if others & (1 << s) != 0 {
                            self.send(
                                bank,
                                s as usize,
                                Msg::new(MsgKind::Inv, block, req as usize),
                            );
                        }
                    }
                }
                return;
            }
            // GetS with sharers: serve from L2 if resident, else memory.
            let key = self.l2_key(block);
            if self.banks[bank].cache.get_mut(key).is_some() {
                let dir = self.banks[bank].dir.get_mut(&block).expect("entry");
                dir.sharers |= 1 << req;
                self.send(
                    bank,
                    req as usize,
                    Msg::new(MsgKind::DataS, block, req as usize),
                );
            } else {
                self.bank_fetch_memory(bank, block, req, store);
            }
            return;
        }

        // Idle: L2 hit or memory fetch.
        let key = self.l2_key(block);
        if self.banks[bank].cache.get_mut(key).is_some() {
            let dir = self.banks[bank].dir.get_mut(&block).expect("entry");
            dir.owner = Some(req);
            let kind = if store {
                MsgKind::DataM
            } else {
                MsgKind::DataE
            };
            self.send(bank, req as usize, Msg::new(kind, block, req as usize));
        } else {
            self.bank_fetch_memory(bank, block, req, store);
        }
    }

    fn bank_fetch_memory(&mut self, bank: usize, block: u64, req: u16, store: bool) {
        self.banks[bank].busy.insert(
            block,
            Busy::WaitMem {
                requester: req,
                store,
            },
        );
        let mc = self.mc_of(block);
        self.send(bank, mc, Msg::new(MsgKind::MemRead, block, req as usize));
    }

    fn bank_writeback(&mut self, bank: usize, msg: Msg) {
        let block = msg.block;
        match self.banks[bank].busy.get(&block).copied() {
            Some(Busy::WaitWb { requester, store }) => {
                self.banks[bank].busy.remove(&block);
                {
                    let key = self.l2_key(block);
                    let victim = {
                        let cache = &mut self.banks[bank].cache;
                        if let Some(line) = cache.get_mut(key) {
                            line.dirty = true;
                            None
                        } else {
                            cache.insert(key, L2Line { dirty: true })
                        }
                    };
                    if let Some((vk, vl)) = victim {
                        let vb = self.l2_block(vk, bank);
                        self.l2_victim(bank, vb, vl);
                    }
                }
                let dir = self.banks[bank].dir.entry(block).or_default();
                let old_owner = dir.owner.take();
                if store {
                    dir.sharers = 0;
                    dir.owner = Some(requester);
                    self.send(
                        bank,
                        requester as usize,
                        Msg::new(MsgKind::DataM, block, requester as usize),
                    );
                } else {
                    dir.sharers = (1 << requester) | old_owner.map(|o| 1u64 << o).unwrap_or(0);
                    self.send(
                        bank,
                        requester as usize,
                        Msg::new(MsgKind::DataS, block, requester as usize),
                    );
                }
                self.bank_wake(bank, block);
            }
            Some(_) => {
                // Writeback racing another transaction phase: fold the data
                // into L2 and continue.
                let key = self.l2_key(block);
                if let Some(line) = self.banks[bank].cache.get_mut(key) {
                    line.dirty = true;
                }
            }
            None => {
                // Unsolicited PutM eviction: valid only from the recorded
                // owner (PutM carries the evicting node in `requester`);
                // stale writebacks that crossed a forward are ignored.
                if msg.kind != MsgKind::PutM {
                    return;
                }
                let dir = self.banks[bank].dir.entry(block).or_default();
                if dir.owner == Some(msg.requester) {
                    dir.owner = None;
                    let key = self.l2_key(block);
                    let mut victim = None;
                    {
                        let cache = &mut self.banks[bank].cache;
                        if let Some(line) = cache.get_mut(key) {
                            line.dirty = true;
                        } else {
                            victim = cache.insert(key, L2Line { dirty: true });
                        }
                    }
                    if self.banks[bank]
                        .dir
                        .get(&block)
                        .is_some_and(DirEntry::is_idle)
                    {
                        self.banks[bank].dir.remove(&block);
                    }
                    if let Some((vk, vl)) = victim {
                        let vb = self.l2_block(vk, bank);
                        self.l2_victim(bank, vb, vl);
                    }
                }
            }
        }
    }

    fn bank_inv_ack(&mut self, bank: usize, msg: Msg) {
        let block = msg.block;
        let Some(Busy::WaitAcks { requester, pending }) =
            self.banks[bank].busy.get(&block).copied()
        else {
            return; // stale ack
        };
        if pending > 1 {
            self.banks[bank].busy.insert(
                block,
                Busy::WaitAcks {
                    requester,
                    pending: pending - 1,
                },
            );
            return;
        }
        self.banks[bank].busy.remove(&block);
        let dir = self.banks[bank].dir.entry(block).or_default();
        dir.sharers = 0;
        dir.owner = Some(requester);
        self.send(
            bank,
            requester as usize,
            Msg::new(MsgKind::DataM, block, requester as usize),
        );
        self.bank_wake(bank, block);
    }

    fn bank_mem_data(&mut self, bank: usize, msg: Msg) {
        let block = msg.block;
        let Some(Busy::WaitMem { requester, store }) = self.banks[bank].busy.get(&block).copied()
        else {
            debug_assert!(false, "MemData without WaitMem");
            return;
        };
        self.banks[bank].busy.remove(&block);
        {
            let key = self.l2_key(block);
            let victim = {
                let cache = &mut self.banks[bank].cache;
                if cache.contains(key) {
                    None
                } else {
                    cache.insert(key, L2Line { dirty: false })
                }
            };
            if let Some((vk, vl)) = victim {
                let vb = self.l2_block(vk, bank);
                self.l2_victim(bank, vb, vl);
            }
        }
        let dir = self.banks[bank].dir.entry(block).or_default();
        let kind = if store {
            dir.sharers = 0;
            dir.owner = Some(requester);
            MsgKind::DataM
        } else if dir.sharers == 0 {
            dir.owner = Some(requester);
            MsgKind::DataE
        } else {
            dir.sharers |= 1 << requester;
            MsgKind::DataS
        };
        self.send(
            bank,
            requester as usize,
            Msg::new(kind, block, requester as usize).with_memory_flag(true),
        );
        self.bank_wake(bank, block);
    }

    /// Serves deferred requests for `block` until one occupies the
    /// directory again (or none remain). Requests answered immediately
    /// (L2 hits, upgrades) must not strand the queue behind them.
    fn bank_wake(&mut self, bank: usize, block: u64) {
        loop {
            if self.banks[bank]
                .dir
                .get(&block)
                .is_some_and(DirEntry::is_idle)
                && !self.banks[bank].busy.contains_key(&block)
            {
                // Normalize: drop empty entries so `dir` stays compact.
                self.banks[bank].dir.remove(&block);
            }
            if self.banks[bank].busy.contains_key(&block) {
                return;
            }
            let next = self.banks[bank]
                .deferred
                .get_mut(&block)
                .and_then(VecDeque::pop_front);
            let Some(msg) = next else {
                self.banks[bank].deferred.remove(&block);
                return;
            };
            self.bank_request(bank, msg);
        }
    }

    /// Handles an L2 victim line: dirty lines are written to memory;
    /// the directory entry (if any) persists — the directory is
    /// non-inclusive, so no recall traffic is needed.
    fn l2_victim(&mut self, bank: usize, block: u64, line: L2Line) {
        if line.dirty {
            let mc = self.mc_of(block);
            self.send(bank, mc, Msg::new(MsgKind::MemWrite, block, bank));
        }
    }

    /// Aggregates L1 hit/miss counters into the stats snapshot.
    pub fn finalize_stats(&mut self) {
        self.stats.l1_hits = self.l1s.iter().map(|l| l.hits).sum();
        self.stats.l1_misses = self.l1s.iter().map(|l| l.misses).sum();
    }
}

/// Per core cycle: the network steps the clock ratio accumulates, each
/// followed by dispatch, then the controllers, the banks and the cores.
impl Workload for CmpSystem {
    fn net(&mut self) -> &mut Network {
        &mut self.net
    }

    fn clock(&mut self) -> &mut Clock {
        &mut self.clock
    }

    fn now(&mut self) -> Cycle {
        self.now
    }

    fn done(&self) -> bool {
        self.finished()
    }

    fn deliver(&mut self) -> Result<(), SimError> {
        for d in self.net.drain_delivered() {
            let msg = Msg::decode(d.packet.tag);
            self.dispatch(d.packet.dst.index(), d.packet.src.index(), msg);
        }
        Ok(())
    }

    /// A committed instruction is progress; an empty network is not, so a
    /// core that wedges with nothing in flight still stalls.
    fn progressed(&mut self) -> bool {
        let committed = self.cores.iter().map(Core::committed).sum();
        std::mem::replace(&mut self.committed_seen, committed) != committed
    }

    fn end_cycle(&mut self) {
        self.tick();
    }

    fn stall_report(&mut self) -> StallReport {
        let mut report = self.net.stall_report();
        report.workload = self.stuck_parts();
        report
    }
}

/// Installs `block` in an L1 during functional warming (victims dropped
/// silently; stale directory references recover through the protocol's
/// absent-block probe handling).
fn set_l1_warm(l1: &mut L1, block: u64, state: L1State) {
    if let Some(st) = l1.cache.get_mut(block) {
        *st = state;
    } else {
        let _ = l1.cache.insert(block, state);
    }
}

/// L1 access logic, free function so the core closure can borrow it
/// without capturing the whole system. A new miss is appended to `out` as
/// `(node, block, store)`.
#[allow(clippy::too_many_arguments)]
fn l1_issue(
    l1: &mut L1,
    node: usize,
    block: u64,
    store: bool,
    now: Cycle,
    l1_latency: Cycle,
    txn_counter: &mut TxnId,
    out: &mut Vec<(usize, u64, bool)>,
) -> MemResult {
    if let Some(state) = l1.cache.get_mut(block) {
        match (*state, store) {
            (_, false) | (L1State::M, true) => {
                l1.hits += 1;
                return MemResult::CompleteAt(now + l1_latency);
            }
            (L1State::E, true) => {
                *state = L1State::M; // silent E->M upgrade
                l1.hits += 1;
                return MemResult::CompleteAt(now + l1_latency);
            }
            (L1State::S, true) => { /* upgrade miss falls through */ }
        }
    }
    // Miss or S-upgrade.
    if let Some(mshr) = l1.mshrs.get_mut(&block) {
        // Coalesce loads into any pending miss; stores only into a pending
        // store miss (a store behind a GetS retries once the fill lands).
        if !store || mshr.is_store {
            let t = *txn_counter;
            *txn_counter += 1;
            mshr.txns.push(t);
            return MemResult::Pending(t);
        }
        return MemResult::Retry;
    }
    if l1.mshrs.len() >= l1.limit {
        return MemResult::Retry;
    }
    l1.misses += 1;
    let t = *txn_counter;
    *txn_counter += 1;
    l1.mshrs.insert(
        block,
        Mshr {
            txns: vec![t],
            is_store: store,
            start: now,
        },
    );
    out.push((node, block, store));
    MemResult::Pending(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc_noc::config::RouterCfg;
    use heteronoc_noc::topology::TopologyKind;
    use heteronoc_noc::types::Bits;
    use heteronoc_traffic::trace::{TraceRecord, VecTrace};

    fn tiny_net() -> NetworkConfig {
        NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 4,
                height: 4,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        )
    }

    fn cfg() -> CmpConfig {
        CmpConfig {
            net: tiny_net(),
            mem: MemParams {
                dram_latency: 50,
                ..MemParams::default()
            },
            mc_nodes: crate::memctrl::corners4(4, 4),
            core_clock_ghz: 2.2,
            expedited_nodes: Vec::new(),
        }
    }

    fn trace_of(records: Vec<TraceRecord>) -> Box<dyn TraceSource + Send> {
        Box::new(VecTrace::new(records))
    }

    fn empty_traces(n: usize) -> Vec<Box<dyn TraceSource + Send>> {
        (0..n).map(|_| trace_of(Vec::new())).collect()
    }

    fn rec(gap: u32, op: MemOp, addr: u64) -> TraceRecord {
        TraceRecord { gap, op, addr }
    }

    /// The run drained, and consuming completions on commit left no L1
    /// bookkeeping behind.
    fn assert_drained(sys: &CmpSystem) {
        assert!(sys.finished(), "{}", sys.drain_report());
        assert_eq!(
            sys.drain_report(),
            format!("drained at cycle {}", sys.now())
        );
        for (c, l1) in sys.l1s.iter().enumerate() {
            assert!(
                l1.done.is_empty(),
                "core {c}: {} completions left",
                l1.done.len()
            );
            assert!(
                l1.mshrs.is_empty(),
                "core {c}: {} MSHRs left",
                l1.mshrs.len()
            );
        }
    }

    fn run_single(records: Vec<TraceRecord>) -> (CmpSystem, Cycle) {
        let mut traces = empty_traces(16);
        traces[5] = trace_of(records);
        let mut sys = CmpSystem::new(cfg(), vec![CoreParams::OUT_OF_ORDER; 16], traces);
        let cycles = sys.run(500_000);
        assert_drained(&sys);
        (sys, cycles)
    }

    #[test]
    fn completion_older_than_any_bound_still_commits() {
        // Core 5 resolves 300 L2 hits, then waits ~12 000 cycles on a DRAM
        // miss while the L2 hit issued right behind it resolved long ago.
        // That completion must survive until the core commits it.
        let cfg = CmpConfig {
            mem: MemParams {
                dram_latency: 12_000,
                ..cfg().mem
            },
            ..cfg()
        };
        let blocks: Vec<u64> = (0..301u64).map(|i| 0x20_0000 + i * 128).collect();
        let mut warm = empty_traces(16);
        warm[1] = trace_of(blocks.iter().map(|&a| rec(0, MemOp::Load, a)).collect());
        let mut recs: Vec<TraceRecord> = blocks[..300]
            .iter()
            .map(|&a| rec(0, MemOp::Load, a))
            .collect();
        recs.push(rec(0, MemOp::Load, 0x80_0000)); // cold: DRAM
        recs.push(rec(0, MemOp::Load, blocks[300]));
        let mut traces = empty_traces(16);
        traces[5] = trace_of(recs);
        let mut sys = CmpSystem::new(cfg, vec![CoreParams::OUT_OF_ORDER; 16], traces);
        sys.prewarm(warm);
        sys.run(200_000);
        assert_drained(&sys);
        assert_eq!(sys.committed()[5], 302);
        assert_eq!(sys.stats().mem_reads, 1, "only the cold block reaches DRAM");
    }

    #[test]
    fn drain_report_names_the_waiting_core() {
        let mut traces = empty_traces(16);
        traces[5] = trace_of(vec![rec(0, MemOp::Load, 0x1000)]);
        let mut sys = CmpSystem::new(cfg(), vec![CoreParams::OUT_OF_ORDER; 16], traces);
        sys.run(20); // far short of the DRAM round trip
        let report = sys.drain_report();
        assert!(report.starts_with("not drained at cycle 20:"), "{report}");
        assert!(
            report.contains("core 5: 0 committed, head waits on txn 0, 1/16 MSHRs"),
            "{report}"
        );
        assert!(!report.contains("core 4"), "{report}");
    }

    #[test]
    fn a_core_wedged_with_nothing_in_flight_stalls_naming_the_core() {
        // Without MSHRs core 5's load never issues: the network stays
        // empty, and only the commit-counting watchdog can end the run.
        let cfg = CmpConfig {
            mem: MemParams {
                l1_mshrs: 0,
                ..cfg().mem
            },
            ..cfg()
        };
        let mut traces = empty_traces(16);
        traces[5] = trace_of(vec![rec(0, MemOp::Load, 0x1000)]);
        let mut sys = CmpSystem::new(cfg, vec![CoreParams::OUT_OF_ORDER; 16], traces);
        let err = sys.try_run(Cycle::MAX, None).unwrap_err();
        let SimError::Stalled(report) = &err else {
            panic!("expected a stall, got: {err}");
        };
        assert_eq!(
            sys.now(),
            WATCHDOG_CYCLES + 1,
            "the first cycle past the window"
        );
        assert_eq!(report.in_flight, 0);
        assert_eq!(
            report.workload,
            ["core 5: 0 committed, window empty, 0/0 MSHRs"],
            "{err}"
        );
        assert!(err.to_string().contains("core 5: 0 committed"), "{err}");
    }

    #[test]
    fn single_load_misses_to_memory_and_completes() {
        let (sys, _) = run_single(vec![rec(0, MemOp::Load, 0x1000)]);
        assert_eq!(sys.committed()[5], 1);
        assert_eq!(sys.stats().mem_reads, 1);
        assert_eq!(sys.stats().mem_round_trip.count(), 1);
        // Round trip includes two network traversals + bank + DRAM(50).
        let rt = sys.stats().mem_round_trip.mean();
        assert!(rt > 50.0 && rt < 300.0, "round trip {rt}");
    }

    #[test]
    fn second_access_hits_in_l1() {
        // Large gaps so the fill lands before the later accesses issue
        // (back-to-back accesses would coalesce into the MSHR instead).
        let (mut sys, _) = run_single(vec![
            rec(0, MemOp::Load, 0x1000),
            rec(2000, MemOp::Load, 0x1000),
            rec(2000, MemOp::Load, 0x1040), // same 128B block
        ]);
        sys.finalize_stats();
        assert_eq!(sys.committed()[5], 4003);
        assert_eq!(sys.stats().l1_misses, 1);
        assert_eq!(sys.stats().l1_hits, 2);
        assert_eq!(sys.stats().mem_reads, 1);
    }

    #[test]
    fn back_to_back_accesses_coalesce_into_mshr() {
        let (mut sys, _) = run_single(vec![
            rec(0, MemOp::Load, 0x1000),
            rec(0, MemOp::Load, 0x1000),
            rec(0, MemOp::Load, 0x1040),
        ]);
        sys.finalize_stats();
        assert_eq!(sys.committed()[5], 3);
        assert_eq!(sys.stats().l1_misses, 1);
        assert_eq!(sys.stats().l1_hits, 0, "coalesced, not hits");
        assert_eq!(sys.stats().mem_reads, 1);
    }

    #[test]
    fn store_after_load_upgrades() {
        let (mut sys, _) = run_single(vec![
            rec(0, MemOp::Load, 0x2000),
            rec(0, MemOp::Store, 0x2000),
        ]);
        sys.finalize_stats();
        assert_eq!(sys.committed()[5], 2);
        // Load fetched E (sole requester), store silently upgraded: one
        // memory read total, one miss.
        assert_eq!(sys.stats().mem_reads, 1);
        assert_eq!(sys.stats().l1_misses, 1);
    }

    #[test]
    fn read_sharing_between_two_cores() {
        let mut traces = empty_traces(16);
        traces[1] = trace_of(vec![rec(0, MemOp::Load, 0x3000)]);
        traces[9] = trace_of(vec![rec(200, MemOp::Load, 0x3000)]);
        let mut sys = CmpSystem::new(cfg(), vec![CoreParams::OUT_OF_ORDER; 16], traces);
        sys.run(500_000);
        assert_drained(&sys);
        assert_eq!(sys.committed()[1], 1);
        assert_eq!(sys.committed()[9], 201);
        // Only one memory fetch: the second GetS is served via the first
        // core's copy (FwdS) or the L2.
        assert_eq!(sys.stats().mem_reads, 1);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut traces = empty_traces(16);
        // Core 2 reads, then core 3 writes the same block, then core 2
        // reads again (must re-fetch).
        traces[2] = trace_of(vec![
            rec(0, MemOp::Load, 0x4000),
            rec(800, MemOp::Load, 0x4000),
        ]);
        traces[3] = trace_of(vec![rec(300, MemOp::Store, 0x4000)]);
        let mut sys = CmpSystem::new(cfg(), vec![CoreParams::OUT_OF_ORDER; 16], traces);
        sys.run(500_000);
        assert_drained(&sys);
        assert_eq!(sys.committed()[2], 802);
        assert_eq!(sys.committed()[3], 301);
        // Core 2's second load misses again (invalidated) and is served by
        // a forward from core 3 — still only ONE memory read overall.
        assert_eq!(sys.stats().mem_reads, 1);
        let mut s = sys;
        s.finalize_stats();
        assert!(s.stats().l1_misses >= 3, "misses {}", s.stats().l1_misses);
    }

    #[test]
    fn many_cores_shared_hot_block_drain() {
        let mut traces = empty_traces(16);
        #[allow(clippy::needless_range_loop)]
        for c in 0..16 {
            let mut recs = Vec::new();
            for i in 0..20 {
                let op = if (c + i) % 3 == 0 {
                    MemOp::Store
                } else {
                    MemOp::Load
                };
                recs.push(rec(5, op, 0x8000));
            }
            traces[c] = trace_of(recs);
        }
        let mut sys = CmpSystem::new(cfg(), vec![CoreParams::OUT_OF_ORDER; 16], traces);
        sys.run(2_000_000);
        assert_drained(&sys);
        for c in 0..16 {
            assert_eq!(sys.committed()[c], 20 * 6);
        }
    }

    #[test]
    fn ipc_reasonable_for_compute_heavy_trace() {
        let recs: Vec<TraceRecord> = (0..200)
            .map(|i| rec(30, MemOp::Load, 0x1_0000 + i * 128))
            .collect();
        let (sys, _) = run_single(recs);
        let ipc = sys.ipcs()[5];
        assert!(ipc > 0.5, "compute-heavy ipc {ipc}");
        assert!(ipc <= 3.0);
    }

    #[test]
    fn deterministic_runs() {
        let mk = || {
            let mut traces = empty_traces(16);
            #[allow(clippy::needless_range_loop)]
            for c in 0..16 {
                let recs: Vec<TraceRecord> = (0..50)
                    .map(|i| rec(3, MemOp::Load, ((c * 911 + i * 131) % 4096) as u64 * 128))
                    .collect();
                traces[c] = trace_of(recs);
            }
            let mut sys = CmpSystem::new(cfg(), vec![CoreParams::OUT_OF_ORDER; 16], traces);
            let cycles = sys.run(2_000_000);
            (cycles, sys.committed(), sys.stats().mem_reads)
        };
        assert_eq!(mk().0, mk().0);
        let a = mk();
        let b = mk();
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }
}
