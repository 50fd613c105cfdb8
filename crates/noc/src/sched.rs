//! Scheduler counters: how much of the network each cycle visited.
//!
//! [`crate::network::Network::step`] walks the routers in index order and
//! runs the allocation phases only at routers that hold flits. A router
//! with no buffered flit has nothing to route, allocate or traverse, and
//! its arbiters see no requester, so skipping it changes nothing; the
//! routers that are visited run in the order of a walk over all of them.
//! Inside a visited router the allocation phases touch only the VCs and
//! outputs that hold work, read off the router's VC masks. When the whole
//! network is quiet ([`crate::network::Network::quiescent`]) the driver in
//! [`crate::sim`] skips the pipeline altogether.
//!
//! The *wake set* of a cycle is the set of live routers holding flits
//! when its allocation phases start: the routers it visits. A router *wakes* when a flit enters it while
//! it is empty, and [`WakeReason`] records how that flit came in.
//! [`SchedReport`] counts the cycles, visits and wakes, and the work done
//! inside the visits (VCs inspected, bids, flits, wheel events). Its
//! counters are observability-only: they are not simulation state, never
//! go into a checkpoint, and never feed back into the run.

/// How a flit entered an empty router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeReason {
    /// A flit event was delivered into one of the router's input VCs.
    FlitArrive,
    /// The fault layer's link machinery accepted a flit into an input VC.
    LinkArrive,
    /// A checkpoint restore refilled the router's buffers.
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

/// Wake-set size histogram buckets: `0, 1, 2–3, 4–7, 8–15, 16–31, 32–63,
/// ≥64` (log₂-spaced).
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

/// Scheduler statistics: how much work the router walk actually did
/// versus what polling every router every cycle would have done, and how
/// much work the allocation phases did per flit.
///
/// Returned by [`crate::network::Network::sched_report`] and embedded in
/// [`crate::profile::ProfileReport::sched`]; `heteronoc run --profile`
/// renders it. All counters are observability-only: they are not part of
/// the simulation state and never go into a checkpoint. They are
/// deterministic per run, though, and published: the sweep JSON carries
/// the eight cycle, visit and wake fields (and so the benchmark's
/// `ur_sweep` digest hashes them), and `heteronoc run --profile` prints
/// the work counters per flit committed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedReport {
    /// Total cycles the engine advanced (full + idle + jumped).
    pub cycles: u64,
    /// Cycles that ran the full event/allocation pipeline.
    pub full_cycles: u64,
    /// Globally-quiet cycles advanced one at a time via the idle fast path
    /// (nothing in flight, no event scheduled).
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
    /// Input VCs switch-allocation stage 1 inspected: at each visit, those
    /// whose front flit can cross the switch.
    pub sa_vcs: u64,
    /// Head-front input VCs route computation / VC allocation walked.
    pub rcva_heads: u64,
    /// VC-allocation bids: ungranted, routed heads requesting an output.
    pub va_bids: u64,
    /// Flits that crossed a switch.
    pub flits_committed: u64,
    /// Events pushed into the timing wheel (flit arrivals, credits,
    /// retirements and, with a fault layer, link-level traffic).
    pub wheel_events: u64,
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

    /// `count` per flit committed (0 when no flit was committed).
    fn per_flit(&self, count: u64) -> f64 {
        if self.flits_committed == 0 {
            0.0
        } else {
            count as f64 / self.flits_committed as f64
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
        self.sa_vcs += other.sa_vcs;
        self.rcva_heads += other.rcva_heads;
        self.va_bids += other.va_bids;
        self.flits_committed += other.flits_committed;
        self.wheel_events += other.wheel_events;
    }

    /// Accounts one wake: a flit entered an empty router for `reason`.
    #[inline]
    pub(crate) fn note_wake(&mut self, reason: WakeReason) {
        self.wakes[reason.index()] += 1;
    }

    /// Accounts one cycle that ran the full pipeline and visited `visits`
    /// of `total` routers.
    #[inline]
    pub(crate) fn note_full_cycle(&mut self, visits: usize, total: usize) {
        self.cycles += 1;
        self.full_cycles += 1;
        self.router_visits += visits as u64;
        self.router_visits_skipped += (total - visits) as u64;
        self.wake_hist[bucket(visits)] += 1;
    }

    /// Accounts one globally-quiet cycle advanced via the idle fast path.
    #[inline]
    pub(crate) fn note_idle_cycle(&mut self, total: usize) {
        self.cycles += 1;
        self.idle_cycles += 1;
        self.router_visits_skipped += total as u64;
        self.wake_hist[0] += 1;
    }

    /// Accounts `delta` cycles skipped in one bulk quiet-gap jump.
    #[inline]
    pub(crate) fn note_jump(&mut self, delta: u64, total: usize) {
        self.cycles += delta;
        self.jumped_cycles += delta;
        self.router_visits_skipped += delta * total as u64;
        self.wake_hist[0] += delta;
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
        writeln!(
            f,
            "  work per flit committed: {:.3} SA VCs, {:.3} RC/VA heads, {:.3} VA bids, \
             {:.3} wheel events, {:.3} router visits ({} flits)",
            self.per_flit(self.sa_vcs),
            self.per_flit(self.rcva_heads),
            self.per_flit(self.va_bids),
            self.per_flit(self.wheel_events),
            self.per_flit(self.router_visits),
            self.flits_committed
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut r = SchedReport::default();
        r.note_full_cycle(10, 64);
        r.note_idle_cycle(64);
        r.note_jump(100, 64);
        r.note_wake(WakeReason::LinkArrive);
        assert_eq!(r.cycles, 102);
        assert_eq!(r.cycles_skipped(), 101);
        assert_eq!(r.router_visits, 10);
        assert_eq!(r.router_visits_skipped, 54 + 64 + 100 * 64);
        assert_eq!(r.wakes, [0, 1, 0]);
        let text = r.to_string();
        assert!(text.contains("scheduler"), "{text}");
        assert!(text.contains("wake-set size histogram"), "{text}");
        assert!(text.contains("work per flit committed"), "{text}");
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut s = SchedReport {
            sa_vcs: 5,
            rcva_heads: 4,
            va_bids: 3,
            flits_committed: 2,
            wheel_events: 1,
            ..SchedReport::default()
        };
        s.note_full_cycle(3, 8);
        let mut a = s;
        a.merge(&s);
        assert_eq!(a.cycles, 2);
        assert_eq!(a.router_visits, 6);
        assert!((a.mean_wake_set() - 3.0).abs() < 1e-12);
        assert_eq!(
            (
                a.sa_vcs,
                a.rcva_heads,
                a.va_bids,
                a.flits_committed,
                a.wheel_events
            ),
            (10, 8, 6, 4, 2)
        );
        assert!((a.per_flit(a.sa_vcs) - 2.5).abs() < 1e-12);
        assert_eq!(SchedReport::default().per_flit(7), 0.0);
    }
}
