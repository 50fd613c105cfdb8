//! Epoch time-series metrics.
//!
//! The measured window collapses a whole run into end-of-run aggregates.
//! The paper's argument, however, is about *where and when* contention
//! lives (center-vs-edge utilization, Figs. 1–2), so an open-loop run can
//! also sample the network every N cycles from cycle 0, warm-up included
//! ([`crate::sim::SimRun::epochs`]):
//!
//! * per-router mean buffer occupancy and VC-busy fraction over the epoch,
//! * per-link utilization (flits launched / lane-cycles),
//! * packets injected / ejected in the epoch (rates),
//! * latency percentiles (p50/p95/p99 of total/queuing/blocking/transfer)
//!   over the packets *retired* in the epoch.
//!
//! An epoch is the difference of two snapshots of the counters the engine
//! keeps from cycle 0 ([`crate::stats`]), taken at its boundaries by the
//! workload's [`EpochSeries`]; the engine itself does no sampling work.

use serde::{Deserialize, Serialize};

use crate::stats::{Counters, LatencyPctls, NetStats};
use crate::types::Cycle;

/// One closed epoch's worth of samples.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochSample {
    /// First cycle of the epoch (inclusive).
    pub start: Cycle,
    /// One past the last cycle of the epoch.
    pub end: Cycle,
    /// Packets that entered the network in this epoch.
    pub injected: u64,
    /// Packets fully delivered in this epoch.
    pub ejected: u64,
    /// Per-router mean buffer occupancy over the epoch, as a fraction of
    /// the router's total buffer slots (0.0–1.0).
    pub buffer_occ: Vec<f64>,
    /// Per-router mean busy-VC fraction over the epoch (0.0–1.0).
    pub vc_busy: Vec<f64>,
    /// Per-link utilization over the epoch: flits launched divided by
    /// lane-cycles (0.0–1.0; a dual-lane link can absorb two flits/cycle).
    pub link_util: Vec<f64>,
    /// Latency percentiles of the packets retired in this epoch
    /// (all-zero when `ejected == 0`).
    pub latency: LatencyPctls,
}

impl EpochSample {
    /// The epoch between two readings of the from-cycle-0 counters: `from`
    /// at its first cycle, `to` one past its last. Router `r` has
    /// `slots[r]` buffer slots and `vcs[r]` input VCs; link `l` has
    /// `lanes[l]` lanes.
    pub(crate) fn between(
        from: &Counters,
        to: &Counters,
        slots: &[u32],
        vcs: &[u32],
        lanes: &[usize],
    ) -> EpochSample {
        let cycles = to.cycles - from.cycles;
        let per_cycle = |sum: u64, size: u64| ratio(sum, size * cycles);
        let buffer_occ = (0..slots.len())
            .map(|r| per_cycle(to.buffer_occ[r] - from.buffer_occ[r], u64::from(slots[r])))
            .collect();
        let vc_busy = (0..vcs.len())
            .map(|r| per_cycle(to.vc_busy[r] - from.vc_busy[r], u64::from(vcs[r])))
            .collect();
        let link_util = (0..lanes.len())
            .map(|l| per_cycle(to.links[l].flits() - from.links[l].flits(), lanes[l] as u64))
            .collect();
        EpochSample {
            start: from.cycles,
            end: to.cycles,
            injected: to.heads_injected - from.heads_injected,
            ejected: to.retired.count() - from.retired.count(),
            buffer_occ,
            vc_busy,
            link_util,
            latency: to.retired.since(&from.retired).percentiles(),
        }
    }

    /// Cycles covered by the epoch.
    pub fn cycles(&self) -> Cycle {
        self.end - self.start
    }

    /// Mean buffer occupancy across all routers (0.0–1.0).
    pub fn mean_buffer_occ(&self) -> f64 {
        mean(&self.buffer_occ)
    }

    /// Mean link utilization across all links (0.0–1.0).
    pub fn mean_link_util(&self) -> f64 {
        mean(&self.link_util)
    }

    /// Highest per-link utilization (the hottest channel).
    pub fn max_link_util(&self) -> f64 {
        self.link_util.iter().copied().fold(0.0, f64::max)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// An epoch time-series in progress: the interval, the samples closed so
/// far and the counters at the last boundary. The open-loop workload owns
/// it and checkpoints it with the rest of its run state.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct EpochSeries {
    pub(crate) every: Cycle,
    pub(crate) mark: Counters,
    pub(crate) samples: Vec<EpochSample>,
}

impl EpochSeries {
    /// A series sampling every `every` cycles from `stats`' current counts.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub(crate) fn new(every: Cycle, stats: &NetStats) -> EpochSeries {
        assert!(every > 0, "epoch length must be non-zero");
        EpochSeries {
            every,
            mark: stats.counts.clone(),
            samples: Vec::new(),
        }
    }

    /// Closes an epoch when `stats` has just counted a multiple of `every`
    /// cycles (call after every network step).
    pub(crate) fn sample(&mut self, stats: &NetStats, lanes: &[usize]) {
        if stats.counts.cycles.is_multiple_of(self.every) {
            self.close(stats, lanes);
        }
    }

    /// Closes the partial epoch in progress, if it covers at least one
    /// cycle, and returns every sample.
    pub(crate) fn finish(mut self, stats: &NetStats, lanes: &[usize]) -> Vec<EpochSample> {
        if stats.counts.cycles > self.mark.cycles {
            self.close(stats, lanes);
        }
        self.samples
    }

    fn close(&mut self, stats: &NetStats, lanes: &[usize]) {
        let s = EpochSample::between(
            &self.mark,
            &stats.counts,
            &stats.buffer_slots,
            &stats.vc_counts,
            lanes,
        );
        self.samples.push(s);
        self.mark = stats.counts.clone();
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketClass;
    use crate::stats::PacketRecord;

    /// Two routers (4 slots / 2 VCs each) and two links (1 and 2 lanes).
    const LANES: [usize; 2] = [1, 2];

    fn stats2() -> NetStats {
        NetStats::new(2, 2, vec![4, 4], vec![2, 2])
    }

    fn retired(total: Cycle) -> PacketRecord {
        PacketRecord {
            birth: 0,
            inject: 2,
            retire: 2 + total,
            ideal: 3,
            class: PacketClass::Data,
        }
    }

    /// One simulated cycle: router 0 holds `occ` flits, link `link` (if
    /// any) carries one flit.
    fn tick(s: &mut NetStats, occ: u64, link: Option<usize>) {
        s.counts.cycles += 1;
        s.counts.buffer_occ[0] += occ;
        s.counts.vc_busy[0] += u64::from(occ > 0);
        if let Some(l) = link {
            s.counts.links[l].busy_cycles += 1;
        }
    }

    #[test]
    fn epoch_closes_on_boundary_and_resets() {
        let mut s = stats2();
        let mut series = EpochSeries::new(10, &s);
        for _ in 0..10 {
            tick(&mut s, 2, Some(0));
            series.sample(&s, &LANES);
        }
        assert_eq!(series.samples.len(), 1);
        let e = &series.samples[0];
        assert_eq!((e.start, e.end), (0, 10));
        // Router 0 held 2 of 4 slots every cycle.
        assert!((e.buffer_occ[0] - 0.5).abs() < 1e-12);
        assert!((e.vc_busy[0] - 0.5).abs() < 1e-12);
        assert_eq!(e.buffer_occ[1], 0.0);
        // Link 0 (1 lane) carried one flit per cycle.
        assert!((e.link_util[0] - 1.0).abs() < 1e-12);
        assert_eq!(e.link_util[1], 0.0);

        // The next epoch starts from the boundary's counts.
        for _ in 10..20 {
            tick(&mut s, 0, None);
            series.sample(&s, &LANES);
        }
        assert_eq!(series.samples.len(), 2);
        assert_eq!(series.samples[1].buffer_occ[0], 0.0);
        assert_eq!(series.samples[1].link_util[0], 0.0);
    }

    #[test]
    fn finish_closes_a_partial_epoch() {
        let mut s = stats2();
        let mut series = EpochSeries::new(10, &s);
        for _ in 0..7 {
            tick(&mut s, 0, Some(1));
            series.sample(&s, &LANES);
        }
        let samples = series.finish(&s, &LANES);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].cycles(), 7);
        // 7 flits over 7 cycles on a 2-lane link = 0.5 utilization.
        assert!((samples[0].link_util[1] - 0.5).abs() < 1e-12);

        // A run ending on a boundary adds no empty epoch.
        let mut s = stats2();
        let mut series = EpochSeries::new(5, &s);
        for _ in 0..5 {
            tick(&mut s, 1, None);
            series.sample(&s, &LANES);
        }
        assert_eq!(series.finish(&s, &LANES).len(), 1);
    }

    #[test]
    fn latency_percentiles_cover_retired_packets() {
        let mut s = stats2();
        // A slow packet retired before the epoch opens stays out of it.
        s.counts.retired.add(&retired(1000));
        let series = EpochSeries::new(10, &s);
        for t in [4u64, 4, 4, 40] {
            s.counts.retired.add(&retired(t));
        }
        s.counts.heads_injected += 1;
        s.counts.cycles = 5;
        let e = &series.finish(&s, &LANES)[0];
        assert_eq!(e.ejected, 4);
        assert_eq!(e.injected, 1);
        assert!(e.latency.total.p50 < e.latency.total.p99);
        // p99 upper bound must cover the 40-cycle outlier, not the earlier one.
        assert!(e.latency.total.p99 >= 40 && e.latency.total.p99 < 1000);
    }

    #[test]
    fn empty_epoch_has_zero_percentiles() {
        let mut s = stats2();
        let series = EpochSeries::new(10, &s);
        s.counts.cycles = 3;
        let samples = series.finish(&s, &LANES);
        assert_eq!(samples[0].latency.total.p99, 0);
        assert_eq!(samples[0].mean_buffer_occ(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_epoch_length_panics() {
        let _ = EpochSeries::new(0, &stats2());
    }
}
