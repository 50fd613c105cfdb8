//! Network-level power evaluation: combines the fitted router model, the
//! component share model and measured per-router activity (from simulation
//! statistics) into the power numbers the paper plots (Figs. 7c, 8b, 9c,
//! 11c, 11d).
//!
//! Following the paper's footnote 3, the Table 1 router powers are profiles
//! at a 50% activity factor; during simulation each router's power is
//! computed from its *actual* utilization. Every component keeps a constant
//! leakage floor (20% of its calibration-point power) plus a dynamic part
//! that scales linearly with its measured event rate.

use serde::{Deserialize, Serialize};

use heteronoc_noc::config::NetworkConfig;
use heteronoc_noc::stats::NetStats;
use heteronoc_noc::topology::{PortKind, TopologyGraph};

use crate::breakdown::{router_shares, PowerBreakdown};
use crate::model::AnalyticModel;
use crate::table1::BASELINE;

/// Fraction of each component's calibration power that is leakage
/// (activity-independent).
pub const LEAKAGE_FRACTION: f64 = 0.20;

/// Activity factor the Table 1 profiles were taken at.
pub const CALIBRATION_ACTIVITY: f64 = 0.50;

/// Network power evaluator.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkPower {
    model: AnalyticModel,
    leakage_fraction: f64,
}

/// Result of a network power evaluation.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Power of each router (including its share of outgoing links), watts.
    pub per_router_w: Vec<f64>,
    /// Component aggregate across the network.
    pub breakdown: PowerBreakdown,
}

impl PowerReport {
    /// Total network power in watts.
    pub fn total_w(&self) -> f64 {
        self.breakdown.total()
    }
}

/// Per-component activity factors of one router (event rate per port per
/// cycle; the calibration point is 0.5 on every axis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Activity {
    /// Buffer access rate ((writes+reads)/2 per port-cycle).
    pub buffers: f64,
    /// Crossbar flit rate per port-cycle.
    pub crossbar: f64,
    /// Arbitration decision rate (normalized; ~2 decisions per flit).
    pub arbiters: f64,
    /// Outgoing-link flit rate per port-cycle.
    pub links: f64,
}

impl Activity {
    /// Uniform activity on all axes.
    pub fn uniform(a: f64) -> Self {
        Self {
            buffers: a,
            crossbar: a,
            arbiters: a,
            links: a,
        }
    }

    /// Extracts per-router activities from the measured window. Every
    /// buffer read is one switch traversal: one crossbar crossing and one
    /// stage-2 switch grant.
    pub fn from_stats(stats: &NetStats, graph: &TopologyGraph, router: usize) -> Self {
        let cycles = stats.cycles();
        if cycles == 0 {
            return Self::default();
        }
        let ports = graph.routers()[router].ports.len() as f64;
        let denom = cycles as f64 * ports;
        let ev = stats.router_events(router);
        let out_link_flits: u64 = graph.routers()[router]
            .ports
            .iter()
            .filter_map(|p| match p.kind {
                PortKind::Link { out, .. } => Some(stats.link_events(out.index()).flits()),
                PortKind::Local { .. } => None,
            })
            .sum();
        Self {
            buffers: (ev.buffer_writes + ev.buffer_reads) as f64 / (2.0 * denom),
            crossbar: ev.buffer_reads as f64 / denom,
            arbiters: (ev.sa1_arbs + ev.buffer_reads + ev.va_grants) as f64 / (2.0 * denom),
            links: out_link_flits as f64 / denom,
        }
    }
}

impl NetworkPower {
    /// Evaluator calibrated to the paper's Table 1.
    pub fn paper_calibrated() -> Self {
        Self {
            model: AnalyticModel::paper_calibrated(),
            leakage_fraction: LEAKAGE_FRACTION,
        }
    }

    /// The underlying analytical model.
    pub fn model(&self) -> &AnalyticModel {
        &self.model
    }

    /// Power of one router organization at the given per-component
    /// activity, in watts. `ports` scales the 5-port calibration linearly.
    pub fn router_power(
        &self,
        vcs: usize,
        width_bits: u32,
        depth: usize,
        ports: usize,
        freq_ghz: f64,
        activity: Activity,
    ) -> PowerBreakdown {
        let p50 = self.model.power_at_50(vcs, width_bits, freq_ghz)
            * (ports as f64 / BASELINE.ports as f64);
        let shares = router_shares(vcs, width_bits, depth);
        let lf = self.leakage_fraction;
        let dyn_scale = |a: f64| lf + (1.0 - lf) * (a / CALIBRATION_ACTIVITY);
        PowerBreakdown {
            buffers: shares[0] * p50 * dyn_scale(activity.buffers),
            crossbar: shares[1] * p50 * dyn_scale(activity.crossbar),
            arbiters: shares[2] * p50 * dyn_scale(activity.arbiters),
            links: shares[3] * p50 * dyn_scale(activity.links),
        }
    }

    /// Evaluates network power from measured statistics.
    ///
    /// Each router's crossbar/buffer width is its local-port width (192b in
    /// the homogeneous and `+B` networks; 128b/256b for small/big routers in
    /// the `+BL` networks) and its activity comes from its own counters.
    pub fn evaluate(
        &self,
        cfg: &NetworkConfig,
        graph: &TopologyGraph,
        stats: &NetStats,
    ) -> PowerReport {
        let mut per_router_w = Vec::with_capacity(graph.num_routers());
        let mut total = PowerBreakdown::default();
        for r in 0..graph.num_routers() {
            let act = Activity::from_stats(stats, graph, r);
            let bd = self.router_power(
                cfg.routers[r].vcs_per_port,
                cfg.local_width(r).get(),
                cfg.routers[r].buffer_depth,
                graph.routers()[r].ports.len(),
                cfg.frequency_ghz,
                act,
            );
            per_router_w.push(bd.total());
            total += bd;
        }
        PowerReport {
            per_router_w,
            breakdown: total,
        }
    }

    /// Static estimate at a uniform activity factor (no simulation), used
    /// for budget checks and design-space exploration.
    pub fn evaluate_at_activity(
        &self,
        cfg: &NetworkConfig,
        graph: &TopologyGraph,
        activity: f64,
    ) -> PowerReport {
        let mut per_router_w = Vec::with_capacity(graph.num_routers());
        let mut total = PowerBreakdown::default();
        for r in 0..graph.num_routers() {
            let bd = self.router_power(
                cfg.routers[r].vcs_per_port,
                cfg.local_width(r).get(),
                cfg.routers[r].buffer_depth,
                graph.routers()[r].ports.len(),
                cfg.frequency_ghz,
                Activity::uniform(activity),
            );
            per_router_w.push(bd.total());
            total += bd;
        }
        PowerReport {
            per_router_w,
            breakdown: total,
        }
    }
}

impl Default for NetworkPower {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::{BIG, SMALL};
    use heteronoc_noc::config::{LinkWidths, RouterCfg};
    use heteronoc_noc::topology::TopologyKind;
    use heteronoc_noc::types::Bits;

    #[test]
    fn router_power_at_calibration_matches_table1() {
        let np = NetworkPower::paper_calibrated();
        for p in [&BASELINE, &SMALL, &BIG] {
            let bd = np.router_power(
                p.vcs,
                p.width_bits,
                p.buffer_depth,
                p.ports,
                p.freq_ghz,
                Activity::uniform(CALIBRATION_ACTIVITY),
            );
            let err = (bd.total() - p.power_w).abs() / p.power_w;
            assert!(
                err < 0.02,
                "{}: {:.4} vs {:.4}",
                p.name,
                bd.total(),
                p.power_w
            );
        }
    }

    #[test]
    fn leakage_floor_at_zero_activity() {
        let np = NetworkPower::paper_calibrated();
        let zero = np.router_power(3, 192, 5, 5, 2.2, Activity::uniform(0.0));
        let cal = np.router_power(3, 192, 5, 5, 2.2, Activity::uniform(0.5));
        assert!((zero.total() / cal.total() - LEAKAGE_FRACTION).abs() < 1e-9);
    }

    #[test]
    fn power_scales_linearly_with_activity() {
        let np = NetworkPower::paper_calibrated();
        let p25 = np
            .router_power(3, 192, 5, 5, 2.2, Activity::uniform(0.25))
            .total();
        let p50 = np
            .router_power(3, 192, 5, 5, 2.2, Activity::uniform(0.5))
            .total();
        let p100 = np
            .router_power(3, 192, 5, 5, 2.2, Activity::uniform(1.0))
            .total();
        // Dynamic part is linear: equal increments.
        assert!(((p50 - p25) - (p50 - p25)).abs() < 1e-12);
        assert!(((p100 - p50) - 2.0 * (p50 - p25)).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_network_is_cheaper_at_equal_activity() {
        let np = NetworkPower::paper_calibrated();
        // Homogeneous baseline.
        let homo = NetworkConfig::paper_baseline();
        let homo_g = homo.build_graph();
        let homo_w = np.evaluate_at_activity(&homo, &homo_g, 0.5).total_w();

        // Diagonal-style split: 48 small + 16 big at 2.07 GHz.
        let mut big = vec![false; 64];
        for i in 0..8 {
            big[i * 8 + i] = true;
            big[i * 8 + (7 - i)] = true;
        }
        let mut hetero = NetworkConfig::paper_baseline();
        hetero.frequency_ghz = 2.07;
        hetero.flit_width = Bits(128);
        hetero.routers = big
            .iter()
            .map(|&b| if b { RouterCfg::BIG } else { RouterCfg::SMALL })
            .collect();
        hetero.link_widths = LinkWidths::ByBigRouters {
            big,
            narrow: Bits(128),
            wide: Bits(256),
        };
        let het_g = hetero.build_graph();
        let het_w = np.evaluate_at_activity(&hetero, &het_g, 0.5).total_w();

        let reduction = 1.0 - het_w / homo_w;
        // Expect roughly the paper's 20-30% power reduction band.
        assert!(
            (0.10..0.40).contains(&reduction),
            "reduction {:.1}% out of band (homo {homo_w:.1} W, hetero {het_w:.1} W)",
            reduction * 100.0
        );
    }

    #[test]
    fn evaluate_handles_empty_stats() {
        let np = NetworkPower::paper_calibrated();
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 4,
                height: 4,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        let g = cfg.build_graph();
        let stats = heteronoc_noc::stats::NetStats::default();
        // Default stats has empty vectors; build a real one via a network.
        let _ = stats;
        let net = heteronoc_noc::network::Network::new(cfg.clone()).unwrap();
        let report = np.evaluate(&cfg, &g, net.stats());
        // Zero cycles -> all leakage-floor power.
        assert!(report.total_w() > 0.0);
        let static_leak = np.evaluate_at_activity(&cfg, &g, 0.0).total_w();
        assert!((report.total_w() - static_leak).abs() < 1e-9);
    }
}
