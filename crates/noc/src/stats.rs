//! Simulation statistics: latency (with the paper's queuing / blocking /
//! transfer decomposition, Fig. 8a), throughput, buffer & link utilization
//! (Figs. 1-2), flit-combining rates (§3.3) and the event counts that drive
//! the power model.

use heteronoc_obs::LogHistogram;
use serde::{Deserialize, Serialize};

use crate::packet::PacketClass;
use crate::types::{Cycle, NodeId};

/// Per-router microarchitectural event counters (power-model inputs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterEvents {
    /// Flits written into input buffers.
    pub buffer_writes: u64,
    /// Flits read out of input buffers (switch traversals start with one).
    pub buffer_reads: u64,
    /// Flits that crossed the crossbar.
    pub xbar_flits: u64,
    /// Stage-1 (v:1) switch arbitration decisions performed.
    pub sa1_arbs: u64,
    /// Stage-2 (p:1) switch arbitration decisions performed.
    pub sa2_arbs: u64,
    /// VC-allocation grants performed.
    pub va_grants: u64,
}

/// Per-link counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkEvents {
    /// Flits that traversed the link.
    pub flits: u64,
    /// Cycles in which the link carried at least one flit.
    pub busy_cycles: u64,
    /// Cycles in which a wide link carried two combined flits.
    pub dual_cycles: u64,
}

/// Completed-packet latency record (kept when detailed records are enabled).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketRecord {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Cycle the packet entered the source queue.
    pub birth: Cycle,
    /// Cycle the head flit left the source node.
    pub inject: Cycle,
    /// Cycle the tail flit was ejected at the destination.
    pub retire: Cycle,
    /// Flits in the packet.
    pub flits: u32,
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

/// All statistics collected during the measurement window.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetStats {
    /// Measured cycles.
    pub cycles: u64,
    /// Packets injected into source queues during measurement.
    pub packets_offered: u64,
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
    /// Latency-component histograms per class (Data, Control, Expedited).
    pub dist_by_class: [LatencyDist; 3],
    /// Σ over measured cycles of occupied input-buffer slots, per router.
    pub buffer_occ_integral: Vec<u64>,
    /// Σ over measured cycles of non-empty input VCs, per router.
    pub vc_busy_integral: Vec<u64>,
    /// Total input VCs per router (constant).
    pub vc_counts: Vec<u32>,
    /// Total input-buffer slots per router (constant).
    pub buffer_slots: Vec<u32>,
    /// Per-link event counters.
    pub links: Vec<LinkEvents>,
    /// Per-router event counters.
    pub routers: Vec<RouterEvents>,
    /// Optional per-packet records (enabled via
    /// [`crate::network::Network::set_record_packets`]).
    pub records: Vec<PacketRecord>,
}

impl NetStats {
    pub(crate) fn new(
        num_routers: usize,
        num_links: usize,
        slots: Vec<u32>,
        vc_counts: Vec<u32>,
    ) -> Self {
        Self {
            buffer_occ_integral: vec![0; num_routers],
            vc_busy_integral: vec![0; num_routers],
            vc_counts,
            buffer_slots: slots,
            links: vec![LinkEvents::default(); num_links],
            routers: vec![RouterEvents::default(); num_routers],
            ..Default::default()
        }
    }

    /// Index into [`NetStats::latency_by_class`] for `class`.
    pub fn class_index(class: PacketClass) -> usize {
        match class {
            PacketClass::Data => 0,
            PacketClass::Control => 1,
            PacketClass::Expedited => 2,
        }
    }

    /// Mean fraction of `router`'s input VCs holding at least one flit, in
    /// `[0, 1]` — the "buffer utilization" metric of the paper's Fig. 1
    /// heat-maps (a buffer is utilized when its VC is occupied, regardless
    /// of how many of its slots are filled).
    pub fn vc_utilization(&self, router: usize) -> f64 {
        let denom = self
            .cycles
            .saturating_mul(u64::from(self.vc_counts[router]));
        if denom == 0 {
            0.0
        } else {
            self.vc_busy_integral[router] as f64 / denom as f64
        }
    }

    /// Mean buffer utilization of `router` in `[0, 1]`.
    pub fn buffer_utilization(&self, router: usize) -> f64 {
        let denom = self
            .cycles
            .saturating_mul(u64::from(self.buffer_slots[router]));
        if denom == 0 {
            0.0
        } else {
            self.buffer_occ_integral[router] as f64 / denom as f64
        }
    }

    /// Mean utilization of `link` in `[0, 1]`: carried flit-lanes per
    /// available flit-lane-cycle.
    pub fn link_utilization(&self, link: usize, lanes: usize) -> f64 {
        let denom = self.cycles.saturating_mul(lanes as u64);
        if denom == 0 {
            0.0
        } else {
            self.links[link].flits as f64 / denom as f64
        }
    }

    /// Accepted throughput in packets per node per cycle.
    pub fn throughput_ppc(&self, num_nodes: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.packets_retired as f64 / (self.cycles as f64 * num_nodes as f64)
        }
    }

    /// Fraction of busy wide-link cycles that carried two combined flits
    /// (§3.3's combining rate). Returns 0 when no wide link was ever busy.
    pub fn combining_rate(&self, wide_links: &[bool]) -> f64 {
        let (mut busy, mut dual) = (0u64, 0u64);
        for (i, l) in self.links.iter().enumerate() {
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

    /// p50/p95/p99 of every latency component for one message class
    /// (index via [`NetStats::class_index`]).
    pub fn class_percentiles(&self, class: PacketClass) -> LatencyPctls {
        self.dist_by_class[Self::class_index(class)].percentiles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(birth: Cycle, inject: Cycle, retire: Cycle, ideal: u64) -> PacketRecord {
        PacketRecord {
            src: NodeId(0),
            dst: NodeId(1),
            birth,
            inject,
            retire,
            flits: 6,
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
    fn class_percentiles_separate_classes() {
        let mut s = NetStats::new(1, 1, vec![4], vec![2]);
        let mut fast = rec(0, 1, 5, 4);
        fast.class = PacketClass::Control;
        let slow = rec(0, 1, 500, 4);
        s.dist_by_class[NetStats::class_index(fast.class)].add(&fast);
        s.dist_by_class[NetStats::class_index(slow.class)].add(&slow);
        s.latency_dist.add(&fast);
        s.latency_dist.add(&slow);
        assert!(s.class_percentiles(PacketClass::Control).total.p99 < 16);
        assert!(s.class_percentiles(PacketClass::Data).total.p99 >= 500);
        assert!(s.percentiles().total.p99 >= 500);
    }

    #[test]
    fn combining_rate_counts_only_wide_links() {
        let mut s = NetStats::new(1, 2, vec![5], vec![1]);
        s.links[0] = LinkEvents {
            flits: 30,
            busy_cycles: 20,
            dual_cycles: 10,
        };
        s.links[1] = LinkEvents {
            flits: 99,
            busy_cycles: 99,
            dual_cycles: 0,
        };
        assert!((s.combining_rate(&[true, false]) - 0.5).abs() < 1e-9);
        assert_eq!(s.combining_rate(&[false, false]), 0.0);
    }
}
