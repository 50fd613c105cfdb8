//! Engine self-profiling: wall-time per router-pipeline stage.
//!
//! A [`StageProfiler`] installed via
//! [`crate::network::Network::enable_profiling`] (or
//! [`crate::sim::SimRun::profile`]) accumulates the host wall time the
//! engine spends in each phase of [`crate::network::Network::step`]. The
//! phases map onto the canonical BW/RC/VA/SA/ST/LT pipeline-stage naming;
//! the mapping to this event-driven engine is documented per variant (in
//! particular LT covers the fault-layer link machinery — the fault-free
//! launch itself is just an event insertion, folded into ST).
//!
//! The profiler is off by default: when absent, `step` performs one
//! `Option::is_some()` check per phase and never calls
//! [`std::time::Instant::now`], so hot-path timings are unaffected.

use std::time::{Duration, Instant};

use crate::sched::SchedReport;

/// One profiled engine phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// BW — delivery of arrival events into input buffers (buffer writes,
    /// credit returns, ejection deliveries).
    BufferWrite,
    /// RC — route computation for head flits at the front of input VCs.
    RouteCompute,
    /// VA — output-VC allocation arbitration.
    VcAlloc,
    /// SA — two-phase switch allocation (nomination + output arbitration).
    SwitchAlloc,
    /// ST — crossbar traversal of the winners, including launching the
    /// flit toward its link or ejection port (the LT event insertion).
    SwitchTraverse,
    /// LT — fault-layer link machinery: hard-fault application, in-flight
    /// corruption/ACK/NACK processing and retransmission. Zero in
    /// fault-free runs.
    LinkTraverse,
    /// Source-node injection (packets leaving source queues).
    Inject,
    /// Occupancy-integral accumulation.
    Stats,
}

/// Every stage in display order.
pub const STAGES: [Stage; 8] = [
    Stage::BufferWrite,
    Stage::RouteCompute,
    Stage::VcAlloc,
    Stage::SwitchAlloc,
    Stage::SwitchTraverse,
    Stage::LinkTraverse,
    Stage::Inject,
    Stage::Stats,
];

impl Stage {
    /// Conventional short label (BW/RC/VA/SA/ST/LT, plus the two
    /// engine-specific phases).
    pub fn label(self) -> &'static str {
        match self {
            Stage::BufferWrite => "BW",
            Stage::RouteCompute => "RC",
            Stage::VcAlloc => "VA",
            Stage::SwitchAlloc => "SA",
            Stage::SwitchTraverse => "ST",
            Stage::LinkTraverse => "LT",
            Stage::Inject => "INJ",
            Stage::Stats => "STAT",
        }
    }

    /// Long descriptive name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::BufferWrite => "buffer write (event delivery)",
            Stage::RouteCompute => "route computation",
            Stage::VcAlloc => "VC allocation",
            Stage::SwitchAlloc => "switch allocation",
            Stage::SwitchTraverse => "switch traversal + link launch",
            Stage::LinkTraverse => "link fault/retransmission layer",
            Stage::Inject => "source injection",
            Stage::Stats => "occupancy statistics",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::BufferWrite => 0,
            Stage::RouteCompute => 1,
            Stage::VcAlloc => 2,
            Stage::SwitchAlloc => 3,
            Stage::SwitchTraverse => 4,
            Stage::LinkTraverse => 5,
            Stage::Inject => 6,
            Stage::Stats => 7,
        }
    }
}

/// Accumulates per-stage wall time (nanoseconds) across `step` calls.
#[derive(Clone, Debug, Default)]
pub struct StageProfiler {
    nanos: [u64; STAGES.len()],
    steps: u64,
}

impl StageProfiler {
    /// A zeroed profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `dur` to `stage`.
    #[inline]
    pub fn add(&mut self, stage: Stage, dur: Duration) {
        self.nanos[stage.index()] += dur.as_nanos() as u64;
    }

    /// Counts one completed `step` call.
    #[inline]
    pub fn note_step(&mut self) {
        self.steps += 1;
    }

    /// Counts `delta` cycles advanced at once (quiet-gap fast-forward):
    /// the profiler's cycle count stays equal to the cycles simulated, so
    /// per-cycle figures remain comparable across engine modes.
    #[inline]
    pub fn note_steps(&mut self, delta: u64) {
        self.steps += delta;
    }

    /// Snapshot of the accumulated breakdown. The scheduler section is
    /// zeroed here; [`crate::sim::SimRun`] fills it in from the network's
    /// scheduler when the run finishes.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            steps: self.steps,
            stage_nanos: self.nanos,
            sched: SchedReport::default(),
        }
    }
}

/// A finished per-stage wall-time breakdown, printable as a table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// `step` calls (simulated cycles) profiled, including cycles advanced
    /// by the quiet-gap fast paths.
    pub steps: u64,
    /// Accumulated wall nanoseconds per stage, indexed like [`STAGES`].
    pub stage_nanos: [u64; STAGES.len()],
    /// Scheduler counters for the profiled span (cycles skipped, router
    /// visits avoided, wake-set size histogram).
    pub sched: SchedReport,
}

impl ProfileReport {
    /// Accumulated nanoseconds for `stage`.
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage.index()]
    }

    /// Sum over all stages (the profiled fraction of `step`'s wall time).
    pub fn total_nanos(&self) -> u64 {
        self.stage_nanos.iter().sum()
    }

    /// Merges another report into this one (for summing across runs).
    pub fn merge(&mut self, other: &ProfileReport) {
        self.steps += other.steps;
        for (a, b) in self.stage_nanos.iter_mut().zip(&other.stage_nanos) {
            *a += b;
        }
        self.sched.merge(&other.sched);
    }
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total_nanos().max(1);
        writeln!(
            f,
            "  {:<5} {:<38} {:>12} {:>8} {:>8}",
            "stage", "phase", "wall ms", "ns/cyc", "share"
        )?;
        for stage in STAGES {
            let ns = self.nanos(stage);
            let per_cycle = if self.steps == 0 {
                0.0
            } else {
                ns as f64 / self.steps as f64
            };
            writeln!(
                f,
                "  {:<5} {:<38} {:>12.3} {:>8.1} {:>7.1}%",
                stage.label(),
                stage.name(),
                ns as f64 / 1e6,
                per_cycle,
                100.0 * ns as f64 / total as f64
            )?;
        }
        write!(
            f,
            "  total {:.3} ms over {} cycles",
            self.total_nanos() as f64 / 1e6,
            self.steps
        )?;
        if self.sched.cycles > 0 {
            write!(f, "\n{}", self.sched)?;
        }
        Ok(())
    }
}

/// Starts a stage timer iff profiling is enabled (`profiler.is_some()`).
#[inline]
pub(crate) fn maybe_now(enabled: bool) -> Option<Instant> {
    if enabled {
        Some(Instant::now())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_reports() {
        let mut p = StageProfiler::new();
        p.add(Stage::RouteCompute, Duration::from_nanos(500));
        p.add(Stage::RouteCompute, Duration::from_nanos(250));
        p.add(Stage::SwitchAlloc, Duration::from_nanos(1000));
        p.note_step();
        p.note_step();
        let r = p.report();
        assert_eq!(r.nanos(Stage::RouteCompute), 750);
        assert_eq!(r.nanos(Stage::SwitchAlloc), 1000);
        assert_eq!(r.total_nanos(), 1750);
        assert_eq!(r.steps, 2);
    }

    #[test]
    fn merge_sums_fields() {
        let mut p = StageProfiler::new();
        p.add(Stage::Inject, Duration::from_nanos(10));
        p.note_step();
        let mut a = p.report();
        let b = p.report();
        a.merge(&b);
        assert_eq!(a.nanos(Stage::Inject), 20);
        assert_eq!(a.steps, 2);
    }

    #[test]
    fn display_lists_every_stage_once() {
        let mut p = StageProfiler::new();
        p.add(Stage::BufferWrite, Duration::from_micros(3));
        p.note_step();
        let text = p.report().to_string();
        for stage in STAGES {
            assert_eq!(
                text.matches(&format!(" {:<5}", stage.label())).count(),
                1,
                "{text}"
            );
        }
        assert!(text.contains("total"));
    }

    #[test]
    fn empty_report_displays_without_dividing_by_zero() {
        let text = ProfileReport::default().to_string();
        assert!(text.contains("over 0 cycles"));
    }

    #[test]
    fn maybe_now_only_times_when_enabled() {
        assert!(maybe_now(false).is_none());
        assert!(maybe_now(true).is_some());
    }

    #[test]
    fn stage_indices_match_display_order() {
        for (i, s) in STAGES.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
