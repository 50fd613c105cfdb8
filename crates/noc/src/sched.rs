//! Active-set scheduling: the engine's wake-set layer.
//!
//! The HeteroNoC workloads that matter (the paper's §4 load sweeps, the
//! closed-loop CMP runs) operate at low-to-moderate injection rates where
//! most routers hold no flits on most cycles. The [`Scheduler`] keeps the
//! per-cycle hot loop proportional to the *active* part of the network
//! instead of its size: routers report themselves [`Quiescent`] or
//! [`Active`](RouterActivity::Active) through explicit wake notifications,
//! and [`crate::network::Network::step`] only visits the wake set.
//!
//! ## Wake-reason taxonomy
//!
//! A router can only make progress in a cycle if it holds at least one
//! buffered flit, so the wake set is exactly the set of routers with
//! non-zero buffer occupancy. Every occupancy `0 → 1` transition is a wake
//! point, classified by [`WakeReason`]:
//!
//! * [`WakeReason::FlitArrive`] — a flit event (node injection or upstream
//!   link traversal on the fault-free path) delivered into an input VC;
//! * [`WakeReason::LinkArrive`] — a flit accepted by the fault layer's
//!   link-level retransmission machinery;
//! * [`WakeReason::Restore`] — buffered flits reappearing when a checkpoint
//!   is restored (the wake set itself is *derived* state: it is never
//!   serialized, so checkpoints stay byte-identical across engine modes).
//!
//! Events that do **not** wake a router, and why skipping them is sound:
//!
//! * *Credits* arriving at an empty router cannot enable progress — there
//!   is nothing buffered to send — and merely increment a counter that the
//!   router reads the next time it is woken by a flit.
//! * *Round-robin arbiters* at a quiescent router are pure no-ops: with no
//!   requesters, [`crate::router::arbiter::RrArbiter`] neither grants nor
//!   moves its pointer, so skipping the allocation phases leaves every
//!   arbiter byte-identical to the walk-everything engine.
//! * *Source nodes* are walked every cycle in both modes (the driver must
//!   draw one RNG sample per node per cycle anyway to keep the injection
//!   schedule deterministic), so node-side wakes are unnecessary.
//! * *Fault/traffic timers* (retransmission timeouts, hard-fault kills,
//!   end-to-end acks) live in the far-event queue, which is consulted
//!   every cycle whenever a fault layer is attached.
//!
//! Dead (fail-stopped) routers with frozen flits stay in the wake set so
//! the statistics integrals keep accumulating their occupancy, but the
//! allocation phases skip them — exactly as the reference engine does.
//!
//! This layer decides only *which routers* a cycle visits. Inside a
//! visited router both engine modes touch only the input VCs and outputs
//! that hold work, read off the router's VC masks, so VC-level skipping is
//! the same exact no-op argument in either mode.
//!
//! ## Determinism argument
//!
//! The reference engine ([`EngineMode::PollAll`]) visits routers in
//! ascending index order; event-insertion order into the timing wheel (and
//! the fault layer's RNG draw order) therefore depends on that order. The
//! active list is kept **sorted ascending** before every iteration, so the
//! subsequence of routers actually visited is traversed in the identical
//! order, and every skipped router is provably a no-op. Both engines hence
//! produce byte-identical statistics, traces, checkpoints and state
//! digests — enforced by the golden-fingerprint and scheduler-equivalence
//! suites.
//!
//! [`Quiescent`]: RouterActivity::Quiescent

/// How the engine walks the network each cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// Visit only routers in the wake set, and fast-forward across
    /// globally-quiet gaps (the default).
    #[default]
    ActiveSet,
    /// Reference mode: poll every router every cycle, with no quiet-gap
    /// fast-forwarding (within a router it walks the same VC masks as
    /// [`EngineMode::ActiveSet`]). Byte-identical to
    /// [`EngineMode::ActiveSet`] (proven by the equivalence suites) and the
    /// baseline the active-set speedup is measured against.
    PollAll,
}

/// Why a router entered the wake set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeReason {
    /// A flit event was delivered into one of the router's input VCs.
    FlitArrive,
    /// The fault layer's link machinery accepted a flit into an input VC.
    LinkArrive,
    /// A checkpoint restore rebuilt the wake set from buffer occupancy.
    Restore,
}

impl WakeReason {
    fn index(self) -> usize {
        match self {
            WakeReason::FlitArrive => 0,
            WakeReason::LinkArrive => 1,
            WakeReason::Restore => 2,
        }
    }
}

/// A router's self-reported activity state for the coming cycle.
///
/// This is what replaces being polled: the engine derives it from buffer
/// occupancy at the end of each cycle and parks [`Quiescent`] routers out
/// of the hot loop until a [`WakeReason`] fires.
///
/// [`Quiescent`]: RouterActivity::Quiescent
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterActivity {
    /// No buffered flits: the router cannot make progress and is skipped.
    Quiescent,
    /// At least one buffered flit: the router is in the wake set.
    Active,
}

/// Wake-set size histogram buckets: `0, 1, 2–3, 4–7, 16–31, …, ≥64`
/// (log₂-spaced).
pub const WAKE_BUCKETS: usize = 8;

fn bucket(n: usize) -> usize {
    ((usize::BITS - n.leading_zeros()) as usize).min(WAKE_BUCKETS - 1)
}

/// Lower bound of histogram bucket `i` (for display).
pub(crate) fn bucket_lo(i: usize) -> usize {
    if i == 0 {
        0
    } else {
        1 << (i - 1)
    }
}

/// Scheduler statistics: how much work the active-set engine actually did
/// versus what a walk-everything engine would have done.
///
/// Returned by [`crate::network::Network::sched_report`] and embedded in
/// [`crate::profile::ProfileReport::sched`]; `heteronoc run --profile`
/// renders it. All counters are observability-only — they are not part of
/// the simulation state, never serialized, and never hashed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedReport {
    /// Total cycles the engine advanced (full + idle + jumped).
    pub cycles: u64,
    /// Cycles that ran the full event/allocation pipeline.
    pub full_cycles: u64,
    /// Globally-quiet cycles advanced one at a time via the idle fast path
    /// (event wheel empty, wake set empty, all sources idle).
    pub idle_cycles: u64,
    /// Cycles skipped in bulk quiet-gap jumps (injection provably off).
    pub jumped_cycles: u64,
    /// Routers visited by the allocation phases.
    pub router_visits: u64,
    /// Router visits avoided relative to polling every router every cycle.
    pub router_visits_skipped: u64,
    /// Wakes per [`WakeReason`] (flit arrival, link arrival, restore).
    pub wakes: [u64; 3],
    /// Histogram of wake-set size per cycle, log₂-spaced buckets
    /// (`0, 1, 2–3, 4–7, …, ≥64`). Idle and jumped cycles count in
    /// bucket 0.
    pub wake_hist: [u64; WAKE_BUCKETS],
}

impl SchedReport {
    /// Cycles that skipped the full pipeline (idle + jumped): the
    /// "skipped-cycle count" of the profile output.
    pub fn cycles_skipped(&self) -> u64 {
        self.idle_cycles + self.jumped_cycles
    }

    /// Mean wake-set size over full cycles.
    pub fn mean_wake_set(&self) -> f64 {
        if self.full_cycles == 0 {
            0.0
        } else {
            self.router_visits as f64 / self.full_cycles as f64
        }
    }

    /// Merges another report into this one (for summing across runs).
    pub fn merge(&mut self, other: &SchedReport) {
        self.cycles += other.cycles;
        self.full_cycles += other.full_cycles;
        self.idle_cycles += other.idle_cycles;
        self.jumped_cycles += other.jumped_cycles;
        self.router_visits += other.router_visits;
        self.router_visits_skipped += other.router_visits_skipped;
        for (a, b) in self.wakes.iter_mut().zip(&other.wakes) {
            *a += b;
        }
        for (a, b) in self.wake_hist.iter_mut().zip(&other.wake_hist) {
            *a += b;
        }
    }
}

impl std::fmt::Display for SchedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.cycles.max(1);
        writeln!(
            f,
            "  scheduler: {} cycles ({} full, {} idle, {} jumped — {:.1}% skipped)",
            self.cycles,
            self.full_cycles,
            self.idle_cycles,
            self.jumped_cycles,
            100.0 * self.cycles_skipped() as f64 / total as f64
        )?;
        let polled = self.router_visits + self.router_visits_skipped;
        writeln!(
            f,
            "  router visits: {} of {} polled-equivalent ({:.1}% skipped), mean wake-set {:.2}",
            self.router_visits,
            polled,
            100.0 * self.router_visits_skipped as f64 / polled.max(1) as f64,
            self.mean_wake_set()
        )?;
        write!(f, "  wake-set size histogram:")?;
        for (i, &count) in self.wake_hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = bucket_lo(i);
            if i + 1 < WAKE_BUCKETS {
                let hi = bucket_lo(i + 1).saturating_sub(1);
                if lo == hi {
                    write!(f, " {lo}:{count}")?;
                } else {
                    write!(f, " {lo}-{hi}:{count}")?;
                }
            } else {
                write!(f, " {lo}+:{count}")?;
            }
        }
        Ok(())
    }
}

/// The active-set scheduler: wake-set membership plus the engine-mode
/// switch and its observability counters.
///
/// Owned by [`crate::network::Network`]; the wake set is *derived* state
/// (reconstructible from buffer occupancy), so it is rebuilt on checkpoint
/// restore rather than serialized.
#[derive(Debug)]
pub(crate) struct Scheduler {
    mode: EngineMode,
    /// Per-router wake-set membership.
    members: Vec<bool>,
    /// The wake set as router indices; sorted ascending before iteration
    /// so visit order matches the reference engine's.
    active: Vec<usize>,
    sorted: bool,
    stats: SchedReport,
}

impl Scheduler {
    pub(crate) fn new(num_routers: usize) -> Self {
        Self {
            mode: EngineMode::default(),
            members: vec![false; num_routers],
            active: Vec::new(),
            sorted: true,
            stats: SchedReport::default(),
        }
    }

    pub(crate) fn mode(&self) -> EngineMode {
        self.mode
    }

    pub(crate) fn set_mode(&mut self, mode: EngineMode) {
        self.mode = mode;
    }

    /// A router's self-reported state.
    pub(crate) fn activity(&self, r: usize) -> RouterActivity {
        if self.members[r] {
            RouterActivity::Active
        } else {
            RouterActivity::Quiescent
        }
    }

    /// Adds router `r` to the wake set (idempotent).
    #[inline]
    pub(crate) fn wake(&mut self, r: usize, reason: WakeReason) {
        if !self.members[r] {
            self.members[r] = true;
            self.active.push(r);
            self.sorted = false;
            self.stats.wakes[reason.index()] += 1;
        }
    }

    /// Takes the wake set for this cycle's allocation phases, sorted
    /// ascending. Hand it back via [`Scheduler::end_cycle`].
    pub(crate) fn begin_cycle(&mut self) -> Vec<usize> {
        if !self.sorted {
            self.active.sort_unstable();
            self.sorted = true;
        }
        std::mem::take(&mut self.active)
    }

    /// Removes router `r` from the wake set (its occupancy reached zero).
    #[inline]
    pub(crate) fn sleep(&mut self, r: usize) {
        self.members[r] = false;
    }

    /// Returns the (retention-filtered) wake set after a cycle. New wakes
    /// that raced in during the cycle are appended behind it.
    pub(crate) fn end_cycle(&mut self, mut list: Vec<usize>) {
        if !self.active.is_empty() {
            list.append(&mut self.active);
            self.sorted = false;
        }
        self.active = list;
    }

    /// True when the wake set is empty (no router holds a buffered flit).
    pub(crate) fn wake_set_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Rebuilds the wake set from scratch (checkpoint restore).
    pub(crate) fn rebuild<F: Fn(usize) -> bool>(&mut self, occupied: F) {
        self.active.clear();
        for r in 0..self.members.len() {
            self.members[r] = occupied(r);
            if self.members[r] {
                self.active.push(r);
                self.stats.wakes[WakeReason::Restore.index()] += 1;
            }
        }
        self.sorted = true;
    }

    /// Accounts one cycle that ran the full pipeline and visited `visits`
    /// of `total` routers.
    #[inline]
    pub(crate) fn note_full_cycle(&mut self, visits: usize, total: usize) {
        self.stats.cycles += 1;
        self.stats.full_cycles += 1;
        self.stats.router_visits += visits as u64;
        self.stats.router_visits_skipped += (total - visits) as u64;
        self.stats.wake_hist[bucket(visits)] += 1;
    }

    /// Accounts one globally-quiet cycle advanced via the idle fast path.
    #[inline]
    pub(crate) fn note_idle_cycle(&mut self, total: usize) {
        self.stats.cycles += 1;
        self.stats.idle_cycles += 1;
        self.stats.router_visits_skipped += total as u64;
        self.stats.wake_hist[0] += 1;
    }

    /// Accounts `delta` cycles skipped in one bulk quiet-gap jump.
    #[inline]
    pub(crate) fn note_jump(&mut self, delta: u64, total: usize) {
        self.stats.cycles += delta;
        self.stats.jumped_cycles += delta;
        self.stats.router_visits_skipped += delta * total as u64;
        self.stats.wake_hist[0] += delta;
    }

    pub(crate) fn report(&self) -> SchedReport {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_is_idempotent_and_sorted() {
        let mut s = Scheduler::new(8);
        s.wake(5, WakeReason::FlitArrive);
        s.wake(2, WakeReason::FlitArrive);
        s.wake(5, WakeReason::FlitArrive);
        s.wake(7, WakeReason::LinkArrive);
        assert_eq!(s.activity(5), RouterActivity::Active);
        assert_eq!(s.activity(0), RouterActivity::Quiescent);
        let list = s.begin_cycle();
        assert_eq!(list, vec![2, 5, 7]);
        s.end_cycle(list);
        assert_eq!(s.report().wakes, [2, 1, 0]);
    }

    #[test]
    fn sleep_and_retention_shrink_the_set() {
        let mut s = Scheduler::new(4);
        s.wake(1, WakeReason::FlitArrive);
        s.wake(3, WakeReason::FlitArrive);
        let mut list = s.begin_cycle();
        list.retain(|&r| {
            if r == 1 {
                s.sleep(r);
                false
            } else {
                true
            }
        });
        s.end_cycle(list);
        assert_eq!(s.activity(1), RouterActivity::Quiescent);
        assert_eq!(s.begin_cycle(), vec![3]);
    }

    #[test]
    fn wakes_during_cycle_are_kept() {
        let mut s = Scheduler::new(4);
        s.wake(2, WakeReason::FlitArrive);
        let list = s.begin_cycle();
        s.wake(0, WakeReason::FlitArrive); // races in mid-cycle
        s.end_cycle(list);
        assert_eq!(s.begin_cycle(), vec![0, 2]);
    }

    #[test]
    fn rebuild_reflects_occupancy() {
        let mut s = Scheduler::new(4);
        s.wake(0, WakeReason::FlitArrive);
        s.rebuild(|r| r == 1 || r == 3);
        assert_eq!(s.activity(0), RouterActivity::Quiescent);
        assert_eq!(s.begin_cycle(), vec![1, 3]);
        assert_eq!(s.report().wakes[WakeReason::Restore.index()], 2);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(63), 6);
        assert_eq!(bucket(64), 7);
        assert_eq!(bucket(10_000), 7);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(7), 64);
    }

    #[test]
    fn report_accounts_cycles_and_skips() {
        let mut s = Scheduler::new(64);
        s.note_full_cycle(10, 64);
        s.note_idle_cycle(64);
        s.note_jump(100, 64);
        let r = s.report();
        assert_eq!(r.cycles, 102);
        assert_eq!(r.cycles_skipped(), 101);
        assert_eq!(r.router_visits, 10);
        assert_eq!(r.router_visits_skipped, 54 + 64 + 100 * 64);
        let text = r.to_string();
        assert!(text.contains("scheduler"), "{text}");
        assert!(text.contains("wake-set size histogram"), "{text}");
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut s = Scheduler::new(8);
        s.note_full_cycle(3, 8);
        let mut a = s.report();
        a.merge(&s.report());
        assert_eq!(a.cycles, 2);
        assert_eq!(a.router_visits, 6);
        assert!((a.mean_wake_set() - 3.0).abs() < 1e-12);
    }
}
