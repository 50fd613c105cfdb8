//! Simulation statistics: latency (with the paper's queuing / blocking /
//! transfer decomposition, Fig. 8a), throughput, buffer & link utilization
//! (Figs. 1-2), flit-combining rates (§3.3) and the event counts that drive
//! the power model.
//!
//! The engine keeps one set of event counters, counted from cycle 0 and
//! never reset. The measured window is those counters minus the baseline
//! [`crate::network::Network::start_measuring`] takes, and every epoch of a
//! time-series is the difference of two snapshots taken at its boundaries
//! (see [`crate::metrics`]). Only the measured-packet aggregates
//! (`packets_retired`, `latency`, …) are kept apart: they count the packets
//! born inside the window, which a difference of totals cannot separate
//! from warm-up packets retiring late.

use heteronoc_obs::LogHistogram;
use serde::{Deserialize, Serialize};

use crate::packet::PacketClass;
use crate::types::Cycle;

/// Per-router microarchitectural event counters (power-model inputs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterEvents {
    /// Flits written into input buffers.
    pub buffer_writes: u64,
    /// Flits read out of input buffers. Each read is one switch traversal:
    /// one stage-2 (p:1) switch grant and one crossbar crossing, so this
    /// counts those too.
    pub buffer_reads: u64,
    /// Stage-1 (v:1) switch arbitration decisions performed.
    pub sa1_arbs: u64,
    /// VC-allocation grants performed.
    pub va_grants: u64,
}

impl RouterEvents {
    /// The events since `earlier`, a past reading of the same counters.
    fn since(&self, earlier: &RouterEvents) -> RouterEvents {
        RouterEvents {
            buffer_writes: self.buffer_writes - earlier.buffer_writes,
            buffer_reads: self.buffer_reads - earlier.buffer_reads,
            sa1_arbs: self.sa1_arbs - earlier.sa1_arbs,
            va_grants: self.va_grants - earlier.va_grants,
        }
    }
}

/// Per-link counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkEvents {
    /// Cycles in which the link carried at least one flit.
    pub busy_cycles: u64,
    /// Cycles in which a wide link carried two combined flits.
    pub dual_cycles: u64,
}

impl LinkEvents {
    /// Flits that traversed the link: one per busy cycle, two per dual one.
    pub fn flits(&self) -> u64 {
        self.busy_cycles + self.dual_cycles
    }

    /// The events since `earlier`, a past reading of the same counters.
    fn since(&self, earlier: &LinkEvents) -> LinkEvents {
        LinkEvents {
            busy_cycles: self.busy_cycles - earlier.busy_cycles,
            dual_cycles: self.dual_cycles - earlier.dual_cycles,
        }
    }
}

/// One retired packet's latency split, as the aggregates record it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketRecord {
    /// Cycle the packet entered the source queue.
    pub birth: Cycle,
    /// Cycle the head flit left the source node.
    pub inject: Cycle,
    /// Cycle the tail flit was ejected at the destination.
    pub retire: Cycle,
    /// Contention-free reference latency for its path (see
    /// [`crate::network::Network::ideal_latency`]).
    pub ideal: u64,
    /// Message class.
    pub class: PacketClass,
}

impl PacketRecord {
    /// Total latency (queue entry to tail ejection) in cycles.
    pub fn total(&self) -> u64 {
        self.retire - self.birth
    }

    /// Source queuing component.
    pub fn queuing(&self) -> u64 {
        self.inject - self.birth
    }

    /// In-network latency (head injection to tail ejection).
    pub fn network(&self) -> u64 {
        self.retire - self.inject
    }

    /// Blocking (contention) component: network latency beyond the ideal.
    pub fn blocking(&self) -> u64 {
        self.network().saturating_sub(self.ideal)
    }
}

/// Aggregated latency sums for one packet class (or all packets).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyAgg {
    /// Packets accumulated.
    pub count: u64,
    /// Sum of total latencies (cycles).
    pub total: u64,
    /// Sum of queuing components.
    pub queuing: u64,
    /// Sum of blocking components.
    pub blocking: u64,
    /// Sum of ideal transfer components.
    pub transfer: u64,
}

impl LatencyAgg {
    /// Accumulates one packet.
    pub fn add(&mut self, rec: &PacketRecord) {
        self.count += 1;
        self.total += rec.total();
        self.queuing += rec.queuing();
        self.blocking += rec.blocking();
        self.transfer += rec.network() - rec.blocking();
    }

    /// Mean total latency in cycles (0 when empty).
    pub fn mean_total(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Mean (queuing, blocking, transfer) decomposition in cycles.
    pub fn mean_breakdown(&self) -> (f64, f64, f64) {
        if self.count == 0 {
            return (0.0, 0.0, 0.0);
        }
        let n = self.count as f64;
        (
            self.queuing as f64 / n,
            self.blocking as f64 / n,
            self.transfer as f64 / n,
        )
    }
}

/// Conservative p50/p95/p99 upper bounds read off a [`LogHistogram`]
/// (all zero when the histogram is empty).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pctls {
    /// Median upper bound (cycles).
    pub p50: u64,
    /// 95th-percentile upper bound (cycles).
    pub p95: u64,
    /// 99th-percentile upper bound (cycles).
    pub p99: u64,
}

impl Pctls {
    /// Reads the three percentiles off `h`.
    pub fn of(h: &LogHistogram) -> Self {
        Self {
            p50: h.quantile_upper_bound(0.50),
            p95: h.quantile_upper_bound(0.95),
            p99: h.quantile_upper_bound(0.99),
        }
    }
}

/// Histograms of the paper's full latency decomposition (Fig. 8a): total,
/// queuing, blocking, and transfer components each get their own
/// [`LogHistogram`], so percentiles are available per component — not
/// just the means [`LatencyAgg`] exposes.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyDist {
    /// Total latency (queue entry to tail ejection).
    pub total: LogHistogram,
    /// Source-queuing component.
    pub queuing: LogHistogram,
    /// Blocking (contention) component.
    pub blocking: LogHistogram,
    /// Contention-free transfer component.
    pub transfer: LogHistogram,
}

impl LatencyDist {
    /// Accumulates one completed packet's decomposition.
    pub fn add(&mut self, rec: &PacketRecord) {
        self.total.record(rec.total());
        self.queuing.record(rec.queuing());
        self.blocking.record(rec.blocking());
        self.transfer.record(rec.network() - rec.blocking());
    }

    /// Packets accumulated.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// The packets added since `earlier`, a past state of this
    /// distribution (exact; see [`LogHistogram::since`]).
    pub(crate) fn since(&self, earlier: &LatencyDist) -> LatencyDist {
        LatencyDist {
            total: self.total.since(&earlier.total),
            queuing: self.queuing.since(&earlier.queuing),
            blocking: self.blocking.since(&earlier.blocking),
            transfer: self.transfer.since(&earlier.transfer),
        }
    }

    /// p50/p95/p99 of every component.
    pub fn percentiles(&self) -> LatencyPctls {
        LatencyPctls {
            total: Pctls::of(&self.total),
            queuing: Pctls::of(&self.queuing),
            blocking: Pctls::of(&self.blocking),
            transfer: Pctls::of(&self.transfer),
        }
    }
}

/// The [`Pctls`] of each latency component of a [`LatencyDist`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyPctls {
    /// Total latency percentiles.
    pub total: Pctls,
    /// Queuing-component percentiles.
    pub queuing: Pctls,
    /// Blocking-component percentiles.
    pub blocking: Pctls,
    /// Transfer-component percentiles.
    pub transfer: Pctls,
}

/// The counters the engine keeps from cycle 0 on, with no gate. The
/// measured window and every epoch are differences of two readings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    /// Cycles simulated.
    pub(crate) cycles: u64,
    /// Packets entered into source queues.
    pub(crate) packets_offered: u64,
    /// Head flits that left their source node.
    pub(crate) heads_injected: u64,
    /// Latency split of every packet delivered (suppressed duplicates
    /// excluded); its count is the packets ejected.
    pub(crate) retired: LatencyDist,
    /// Σ over cycles of occupied input-buffer slots, per router.
    pub(crate) buffer_occ: Vec<u64>,
    /// Σ over cycles of non-empty input VCs, per router.
    pub(crate) vc_busy: Vec<u64>,
    /// Per-router event counters.
    pub(crate) routers: Vec<RouterEvents>,
    /// Per-link event counters.
    pub(crate) links: Vec<LinkEvents>,
}

impl Counters {
    /// True when `other` counts the same routers and links.
    pub(crate) fn same_shape(&self, other: &Counters) -> bool {
        self.buffer_occ.len() == other.buffer_occ.len()
            && self.vc_busy.len() == other.vc_busy.len()
            && self.routers.len() == other.routers.len()
            && self.links.len() == other.links.len()
    }
}

/// The engine's statistics: the counters kept from cycle 0, read over the
/// measured window through accessors, and the measured-packet aggregates.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetStats {
    /// Measured packets retired.
    pub packets_retired: u64,
    /// Measured flits ejected.
    pub flits_retired: u64,
    /// Latency aggregate over all measured packets.
    pub latency: LatencyAgg,
    /// Latency aggregate per class (Data, Control, Expedited).
    pub latency_by_class: [LatencyAgg; 3],
    /// Latency-component histograms over all measured packets (percentiles
    /// via [`LatencyDist::percentiles`]).
    pub latency_dist: LatencyDist,
    /// Counted from cycle 0.
    pub(crate) counts: Counters,
    /// `counts` when the measured window opened; `None` before.
    pub(crate) baseline: Option<Counters>,
    /// Total input VCs per router (constant).
    pub(crate) vc_counts: Vec<u32>,
    /// Total input-buffer slots per router (constant).
    pub(crate) buffer_slots: Vec<u32>,
}

impl NetStats {
    pub(crate) fn new(
        num_routers: usize,
        num_links: usize,
        slots: Vec<u32>,
        vc_counts: Vec<u32>,
    ) -> Self {
        Self {
            counts: Counters {
                buffer_occ: vec![0; num_routers],
                vc_busy: vec![0; num_routers],
                routers: vec![RouterEvents::default(); num_routers],
                links: vec![LinkEvents::default(); num_links],
                ..Counters::default()
            },
            vc_counts,
            buffer_slots: slots,
            ..Default::default()
        }
    }

    /// Opens the measured window at the current counts. Only the first
    /// call takes the baseline.
    pub(crate) fn start_measuring(&mut self) {
        if self.baseline.is_none() {
            self.baseline = Some(self.counts.clone());
        }
    }

    /// True once the measured window is open.
    pub(crate) fn measuring(&self) -> bool {
        self.baseline.is_some()
    }

    /// The counts the window starts from: before it opens, the current
    /// ones, so every window value reads zero.
    fn base(&self) -> &Counters {
        self.baseline.as_ref().unwrap_or(&self.counts)
    }

    /// Index into [`NetStats::latency_by_class`] for `class`.
    pub fn class_index(class: PacketClass) -> usize {
        match class {
            PacketClass::Data => 0,
            PacketClass::Control => 1,
            PacketClass::Expedited => 2,
        }
    }

    /// Measured cycles.
    pub fn cycles(&self) -> u64 {
        self.counts.cycles - self.base().cycles
    }

    /// Packets entered into source queues during the window.
    pub fn packets_offered(&self) -> u64 {
        self.counts.packets_offered - self.base().packets_offered
    }

    /// `router`'s events during the window.
    pub fn router_events(&self, router: usize) -> RouterEvents {
        self.counts.routers[router].since(&self.base().routers[router])
    }

    /// `link`'s events during the window.
    pub fn link_events(&self, link: usize) -> LinkEvents {
        self.counts.links[link].since(&self.base().links[link])
    }

    /// Every router's events during the window, by router index.
    pub fn routers(&self) -> impl ExactSizeIterator<Item = RouterEvents> + '_ {
        (0..self.counts.routers.len()).map(|r| self.router_events(r))
    }

    /// Every link's events during the window, by link index.
    pub fn links(&self) -> impl ExactSizeIterator<Item = LinkEvents> + '_ {
        (0..self.counts.links.len()).map(|l| self.link_events(l))
    }

    /// Mean fraction of `router`'s input VCs holding at least one flit, in
    /// `[0, 1]` — the "buffer utilization" metric of the paper's Fig. 1
    /// heat-maps (a buffer is utilized when its VC is occupied, regardless
    /// of how many of its slots are filled).
    pub fn vc_utilization(&self, router: usize) -> f64 {
        let busy = self.counts.vc_busy[router] - self.base().vc_busy[router];
        let denom = self
            .cycles()
            .saturating_mul(u64::from(self.vc_counts[router]));
        if denom == 0 {
            0.0
        } else {
            busy as f64 / denom as f64
        }
    }

    /// Mean buffer utilization of `router` in `[0, 1]`.
    pub fn buffer_utilization(&self, router: usize) -> f64 {
        let occ = self.counts.buffer_occ[router] - self.base().buffer_occ[router];
        let denom = self
            .cycles()
            .saturating_mul(u64::from(self.buffer_slots[router]));
        if denom == 0 {
            0.0
        } else {
            occ as f64 / denom as f64
        }
    }

    /// Mean utilization of `link` in `[0, 1]`: carried flit-lanes per
    /// available flit-lane-cycle.
    pub fn link_utilization(&self, link: usize, lanes: usize) -> f64 {
        let denom = self.cycles().saturating_mul(lanes as u64);
        if denom == 0 {
            0.0
        } else {
            self.link_events(link).flits() as f64 / denom as f64
        }
    }

    /// Accepted throughput in packets per node per cycle.
    pub fn throughput_ppc(&self, num_nodes: usize) -> f64 {
        let cycles = self.cycles();
        if cycles == 0 {
            0.0
        } else {
            self.packets_retired as f64 / (cycles as f64 * num_nodes as f64)
        }
    }

    /// Fraction of busy wide-link cycles that carried two combined flits
    /// (§3.3's combining rate). Returns 0 when no wide link was ever busy.
    pub fn combining_rate(&self, wide_links: &[bool]) -> f64 {
        let (mut busy, mut dual) = (0u64, 0u64);
        for (i, l) in self.links().enumerate() {
            if wide_links.get(i).copied().unwrap_or(false) {
                busy += l.busy_cycles;
                dual += l.dual_cycles;
            }
        }
        if busy == 0 {
            0.0
        } else {
            dual as f64 / busy as f64
        }
    }

    /// Mean network latency in nanoseconds at `frequency_ghz`.
    pub fn mean_latency_ns(&self, frequency_ghz: f64) -> f64 {
        self.latency.mean_total() / frequency_ghz
    }

    /// p50/p95/p99 of every latency component over all measured packets.
    pub fn percentiles(&self) -> LatencyPctls {
        self.latency_dist.percentiles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(birth: Cycle, inject: Cycle, retire: Cycle, ideal: u64) -> PacketRecord {
        PacketRecord {
            birth,
            inject,
            retire,
            ideal,
            class: PacketClass::Data,
        }
    }

    #[test]
    fn record_decomposition_sums_to_total() {
        let r = rec(10, 14, 40, 20);
        assert_eq!(r.total(), 30);
        assert_eq!(r.queuing(), 4);
        assert_eq!(r.network(), 26);
        assert_eq!(r.blocking(), 6);
        assert_eq!(
            r.queuing() + r.blocking() + (r.network() - r.blocking()),
            30
        );
    }

    #[test]
    fn blocking_saturates_at_zero() {
        // A packet can beat the "ideal" reference only if the reference is
        // conservative; blocking must not underflow.
        let r = rec(0, 0, 10, 50);
        assert_eq!(r.blocking(), 0);
    }

    #[test]
    fn latency_agg_means() {
        let mut agg = LatencyAgg::default();
        agg.add(&rec(0, 2, 22, 10));
        agg.add(&rec(0, 0, 10, 10));
        assert_eq!(agg.count, 2);
        assert!((agg.mean_total() - 16.0).abs() < 1e-9);
        let (q, b, t) = agg.mean_breakdown();
        assert!((q - 1.0).abs() < 1e-9);
        assert!((b - 5.0).abs() < 1e-9);
        assert!((t - 10.0).abs() < 1e-9);
        assert!((q + b + t - 16.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_handles_zero_cycles() {
        let s = NetStats::new(2, 3, vec![10, 10], vec![2, 2]);
        assert_eq!(s.buffer_utilization(0), 0.0);
        assert_eq!(s.link_utilization(0, 1), 0.0);
        assert_eq!(s.throughput_ppc(4), 0.0);
    }

    #[test]
    fn latency_dist_percentiles_track_the_decomposition() {
        let mut d = LatencyDist::default();
        // 9 fast packets and one slow straggler: p50 stays small while p99
        // must cover the outlier in every affected component.
        for _ in 0..9 {
            d.add(&rec(0, 1, 9, 8)); // total 9, queuing 1, blocking 0
        }
        d.add(&rec(0, 40, 140, 8)); // total 140, queuing 40, blocking 92
        assert_eq!(d.count(), 10);
        let p = d.percentiles();
        assert!(p.total.p50 <= 15, "p50 {p:?}");
        assert!(p.total.p99 >= 140, "p99 {p:?}");
        assert!(p.queuing.p99 >= 40);
        assert!(p.blocking.p50 <= 1);
        assert!(p.blocking.p99 >= 92);
        assert!(p.total.p50 <= p.total.p95 && p.total.p95 <= p.total.p99);
    }

    #[test]
    fn empty_dist_has_zero_percentiles() {
        let p = LatencyDist::default().percentiles();
        assert_eq!(p, LatencyPctls::default());
    }

    #[test]
    fn window_reads_the_counts_since_the_baseline() {
        let mut s = NetStats::new(1, 1, vec![4], vec![2]);
        s.counts.cycles = 10;
        s.counts.vc_busy[0] = 20;
        s.counts.routers[0].buffer_reads = 7;
        assert_eq!(s.cycles(), 0, "the window is empty before it opens");
        assert_eq!(s.router_events(0), RouterEvents::default());
        s.start_measuring();
        s.counts.cycles = 30;
        s.counts.vc_busy[0] = 40;
        s.counts.routers[0].buffer_reads = 9;
        // Only the first call takes the baseline.
        s.start_measuring();
        assert_eq!(s.cycles(), 20);
        assert_eq!(s.router_events(0).buffer_reads, 2);
        assert!((s.vc_utilization(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn combining_rate_counts_only_wide_links() {
        let mut s = NetStats::new(1, 2, vec![5], vec![1]);
        s.start_measuring();
        s.counts.links[0] = LinkEvents {
            busy_cycles: 20,
            dual_cycles: 10,
        };
        s.counts.links[1] = LinkEvents {
            busy_cycles: 99,
            dual_cycles: 0,
        };
        assert!((s.combining_rate(&[true, false]) - 0.5).abs() < 1e-9);
        assert_eq!(s.combining_rate(&[false, false]), 0.0);
    }
}
