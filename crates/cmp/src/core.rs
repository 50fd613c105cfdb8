//! Trace-driven core models.
//!
//! The paper's CPU model (§5.2, Table 2): a two-way out-of-order core with a
//! 64-entry instruction window, fetch/execute/commit width of 3 with at most
//! one memory operation per cycle, replaying Simics-style traces of memory
//! operations separated by non-memory instruction gaps. The asymmetric-CMP
//! study (§7) adds single-issue in-order small cores.
//!
//! The model is a standard trace-replay approximation: instructions enter a
//! reorder window with a completion time (now for non-memory work, the
//! data-return time for memory operations) and commit in order at the
//! commit width. Window-full or MSHR-full stalls fetch, exposing memory
//! latency exactly to the extent the window cannot hide it.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use heteronoc_traffic::trace::{TraceRecord, TraceSource};

/// Cycle count type (core clock domain).
pub type Cycle = u64;

/// Identifies an outstanding L1 transaction a core instruction waits on.
pub type TxnId = u64;

/// Core microarchitecture parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreParams {
    /// Reorder-window entries (in-flight instructions).
    pub window: usize,
    /// Instructions fetched/committed per cycle.
    pub width: u32,
    /// Memory operations issued per cycle.
    pub mem_per_cycle: u32,
}

impl CoreParams {
    /// The paper's large out-of-order core: 64-entry window, width 3,
    /// 1 memory op/cycle.
    pub const OUT_OF_ORDER: CoreParams = CoreParams {
        window: 64,
        width: 3,
        mem_per_cycle: 1,
    };

    /// The §7 small core: single-issue, in-order (window 2 allows the
    /// 2-cycle L1 hit to pipeline slightly; misses are fully exposed).
    pub const IN_ORDER: CoreParams = CoreParams {
        window: 2,
        width: 1,
        mem_per_cycle: 1,
    };
}

/// What a core asks its L1 to do this cycle.
#[derive(Clone, Copy, Debug)]
pub struct MemIssue {
    /// The trace record being executed.
    pub record: TraceRecord,
}

/// The L1's answer to a [`MemIssue`].
#[derive(Clone, Copy, Debug)]
pub enum MemResult {
    /// Hit: the instruction completes at the given cycle.
    CompleteAt(Cycle),
    /// Miss: the instruction completes when the transaction resolves.
    Pending(TxnId),
    /// Structural stall (MSHRs full): retry next cycle.
    Retry,
}

/// A reorder-window entry: complete at a known cycle, or waiting on an L1
/// transaction.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RobEntry {
    /// Completes (or completed) at the given cycle.
    Done(Cycle),
    /// Waits on the given L1 transaction.
    Waiting(TxnId),
}

/// A trace-driven core.
pub struct Core {
    params: CoreParams,
    trace: Box<dyn TraceSource + Send>,
    rob: VecDeque<RobEntry>,
    gap_left: u32,
    pending_mem: Option<TraceRecord>,
    committed: u64,
    trace_done: bool,
    first_commit: Option<Cycle>,
    last_commit: Cycle,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("params", &self.params)
            .field("committed", &self.committed)
            .field("rob", &self.rob.len())
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core replaying `trace`.
    pub fn new(params: CoreParams, trace: Box<dyn TraceSource + Send>) -> Core {
        Core {
            params,
            trace,
            rob: VecDeque::new(),
            gap_left: 0,
            pending_mem: None,
            committed: 0,
            trace_done: false,
            first_commit: None,
            last_commit: 0,
        }
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// True when the trace is exhausted and every instruction committed.
    pub fn finished(&self) -> bool {
        self.trace_done && self.rob.is_empty() && self.pending_mem.is_none() && self.gap_left == 0
    }

    /// The oldest uncommitted instruction, if any.
    pub(crate) fn rob_head(&self) -> Option<RobEntry> {
        self.rob.front().copied()
    }

    /// IPC over the core's active lifetime (first to last commit).
    pub fn ipc(&self) -> f64 {
        match self.first_commit {
            Some(first) if self.last_commit > first => {
                self.committed as f64 / (self.last_commit - first) as f64
            }
            _ => 0.0,
        }
    }

    /// Advances one core cycle. `issue_mem` is called for each memory
    /// operation the core issues this cycle (at most
    /// [`CoreParams::mem_per_cycle`]); `txn_done` reports whether an L1
    /// transaction has resolved and at which cycle. Once `txn_done` reports
    /// a cycle `<= now` the instruction commits in the same call and its
    /// transaction is never asked about again, so the caller may forget it.
    pub fn tick<FIss, FDone>(&mut self, now: Cycle, mut issue_mem: FIss, mut txn_done: FDone)
    where
        FIss: FnMut(MemIssue) -> MemResult,
        FDone: FnMut(TxnId) -> Option<Cycle>,
    {
        // Commit in order.
        let mut committed = 0;
        while committed < self.params.width {
            match self.rob.front() {
                Some(RobEntry::Done(c)) if *c <= now => {
                    self.rob.pop_front();
                    self.committed += 1;
                    committed += 1;
                    self.first_commit.get_or_insert(now);
                    self.last_commit = now;
                }
                Some(RobEntry::Waiting(t)) => {
                    if let Some(c) = txn_done(*t) {
                        if c <= now {
                            self.rob.pop_front();
                            self.committed += 1;
                            committed += 1;
                            self.first_commit.get_or_insert(now);
                            self.last_commit = now;
                            continue;
                        }
                    }
                    break;
                }
                _ => break,
            }
        }

        // Fetch/issue up to `width`, at most `mem_per_cycle` memory ops.
        let mut fetched = 0;
        let mut mem_issued = 0;
        while fetched < self.params.width && self.rob.len() < self.params.window {
            if self.gap_left > 0 {
                self.gap_left -= 1;
                self.rob.push_back(RobEntry::Done(now + 1));
                fetched += 1;
                continue;
            }
            if self.pending_mem.is_none() {
                match self.trace.next_record() {
                    Some(rec) => {
                        self.gap_left = rec.gap;
                        self.pending_mem = Some(rec);
                        if rec.gap > 0 {
                            continue; // start consuming the gap
                        }
                    }
                    None => {
                        self.trace_done = true;
                        break;
                    }
                }
            }
            // A memory op is next.
            if mem_issued >= self.params.mem_per_cycle {
                break;
            }
            let rec = self.pending_mem.expect("pending memory op");
            match issue_mem(MemIssue { record: rec }) {
                MemResult::CompleteAt(c) => {
                    self.rob.push_back(RobEntry::Done(c));
                    self.pending_mem = None;
                    fetched += 1;
                    mem_issued += 1;
                }
                MemResult::Pending(t) => {
                    self.rob.push_back(RobEntry::Waiting(t));
                    self.pending_mem = None;
                    fetched += 1;
                    mem_issued += 1;
                }
                MemResult::Retry => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc_traffic::trace::{MemOp, VecTrace};

    fn trace(records: Vec<(u32, u64)>) -> Box<dyn TraceSource + Send> {
        Box::new(VecTrace::new(
            records
                .into_iter()
                .map(|(gap, addr)| TraceRecord {
                    gap,
                    op: MemOp::Load,
                    addr,
                })
                .collect(),
        ))
    }

    fn run_all_hit(params: CoreParams, records: Vec<(u32, u64)>, max: u64) -> (u64, u64) {
        let mut core = Core::new(params, trace(records));
        let mut now = 0;
        while !core.finished() {
            core.tick(now, |_| MemResult::CompleteAt(now + 2), |_| None);
            now += 1;
            assert!(now < max, "core did not finish");
        }
        (core.committed(), now)
    }

    #[test]
    fn ooo_core_approaches_width_ipc_on_hits() {
        // 100 records of 9 gap + 1 mem = 1000 instructions.
        let recs = (0..100).map(|i| (9u32, i * 128)).collect();
        let (committed, cycles) = run_all_hit(CoreParams::OUT_OF_ORDER, recs, 10_000);
        assert_eq!(committed, 1000);
        let ipc = committed as f64 / cycles as f64;
        // Width 3 but only 1 mem/cycle with 10% memory: cap ~3.
        assert!(ipc > 2.0, "ipc {ipc}");
    }

    #[test]
    fn in_order_core_is_scalar() {
        let recs = (0..50).map(|i| (4u32, i * 128)).collect();
        let (committed, cycles) = run_all_hit(CoreParams::IN_ORDER, recs, 10_000);
        assert_eq!(committed, 250);
        let ipc = committed as f64 / cycles as f64;
        assert!(ipc <= 1.01, "in-order ipc {ipc} must be <= 1");
        assert!(ipc > 0.5);
    }

    #[test]
    fn ooo_hides_miss_latency_within_window() {
        // One miss of 50 cycles among plenty of independent work.
        let mut recs = vec![(0u32, 0)];
        recs.extend((1..40).map(|i| (10u32, i * 128)));
        let mut core = Core::new(CoreParams::OUT_OF_ORDER, trace(recs));
        let mut now = 0;
        let miss_done = 52u64;
        while !core.finished() && now < 10_000 {
            core.tick(
                now,
                |iss| {
                    if iss.record.addr == 0 {
                        MemResult::Pending(7)
                    } else {
                        MemResult::CompleteAt(now + 2)
                    }
                },
                |t| if t == 7 { Some(miss_done) } else { None },
            );
            now += 1;
        }
        assert!(core.finished());
        // 40 records * ~11 instrs = ~430 instructions; the 52-cycle miss
        // overlaps fetch of the following window.
        let ipc = core.ipc();
        assert!(ipc > 1.5, "window must hide most of the miss: ipc {ipc}");
    }

    #[test]
    fn in_order_core_exposes_miss_latency() {
        let mut recs = vec![(0u32, 0)];
        recs.extend((1..10).map(|i| (0u32, i * 128)));
        let run = |params: CoreParams| {
            let mut core = Core::new(params, trace(recs.clone()));
            let mut now = 0;
            while !core.finished() && now < 10_000 {
                core.tick(
                    now,
                    |iss| {
                        if iss.record.addr == 0 {
                            MemResult::Pending(1)
                        } else {
                            MemResult::CompleteAt(now + 2)
                        }
                    },
                    |t| if t == 1 { Some(200) } else { None },
                );
                now += 1;
            }
            now
        };
        let in_order = run(CoreParams::IN_ORDER);
        let ooo = run(CoreParams::OUT_OF_ORDER);
        assert!(
            in_order > ooo,
            "in-order ({in_order}) must be slower than OoO ({ooo}) under a long miss"
        );
        assert!(in_order >= 200, "miss fully exposed in order");
    }

    #[test]
    fn retry_stalls_without_losing_the_op() {
        let recs = vec![(0u32, 0), (0, 128)];
        let mut core = Core::new(CoreParams::OUT_OF_ORDER, trace(recs));
        let mut now = 0;
        let mut attempts = 0;
        while !core.finished() && now < 100 {
            core.tick(
                now,
                |_| {
                    attempts += 1;
                    if attempts <= 3 {
                        MemResult::Retry
                    } else {
                        MemResult::CompleteAt(now + 2)
                    }
                },
                |_| None,
            );
            now += 1;
        }
        assert!(core.finished());
        assert_eq!(core.committed(), 2);
        assert!(attempts >= 5, "retries plus two successes");
    }

    #[test]
    fn resolved_txn_is_never_asked_again() {
        // Load t misses as txn t; the L1 learns its completion cycle
        // 10 + 3t only at cycle 3t, so `txn_done` answers None, then a
        // future cycle, then a cycle <= now.
        for params in [CoreParams::OUT_OF_ORDER, CoreParams::IN_ORDER] {
            let recs = (0..20).map(|i| (1u32, i * 128)).collect();
            let mut core = Core::new(params, trace(recs));
            let mut next = 0;
            let mut resolved = Vec::new();
            let mut now = 0;
            while !core.finished() && now < 1_000 {
                core.tick(
                    now,
                    |_| {
                        next += 1;
                        MemResult::Pending(next - 1)
                    },
                    |t| {
                        assert!(!resolved.contains(&t), "txn {t} asked again");
                        let c = (now >= 3 * t).then_some(10 + 3 * t);
                        if c.is_some_and(|c| c <= now) {
                            resolved.push(t);
                        }
                        c
                    },
                );
                now += 1;
            }
            assert!(core.finished());
            assert_eq!(core.committed(), 40);
            assert_eq!(resolved, (0..20).collect::<Vec<_>>());
        }
    }

    #[test]
    fn mshr_width_limits_memory_issue_rate() {
        // All-memory trace: at most 1 mem op per cycle regardless of width.
        let recs: Vec<(u32, u64)> = (0..30).map(|i| (0u32, i * 128)).collect();
        let (committed, cycles) = run_all_hit(CoreParams::OUT_OF_ORDER, recs, 1_000);
        assert_eq!(committed, 30);
        assert!(cycles >= 30, "1 mem/cycle floor: {cycles}");
    }
}
