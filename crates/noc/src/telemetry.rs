//! Telemetry exporters: the bridge from the engine's ad-hoc counter
//! structs onto the unified [`heteronoc_obs`] metrics registry.
//!
//! Each counter struct the simulator already maintains — scheduler wake/skip
//! counters ([`SchedReport`]), link-level fault/retransmission counters
//! ([`FaultCounters`]), end-to-end recovery counters ([`RecoveryCounters`]),
//! pipeline-stage profile ([`ProfileReport`]) and the measurement statistics
//! ([`NetStats`]) — implements [`Instrument`], writing its values under a
//! caller-chosen dot-separated prefix. [`Network::export_telemetry`]
//! assembles the whole live tree under `noc.*`.
//!
//! All exports are **additive** (`counter_add` / histogram merge): exporting
//! several disjoint runs into one registry sums them, which is exactly the
//! shard-merge semantics the sweep and campaign engines need. A live
//! progress snapshot therefore exports into a *fresh* registry each
//! boundary (additive-into-empty equals absolute). Exporting never mutates
//! the source structs and draws no randomness — the registry is
//! observational only and cannot perturb simulation determinism.

use heteronoc_obs::{Instrument, Registry};

use crate::fault::{FaultCounters, RecoveryCounters};
use crate::network::Network;
use crate::profile::{ProfileReport, STAGES};
use crate::sched::SchedReport;
use crate::sim::SimOutcome;
use crate::stats::NetStats;

impl Instrument for SchedReport {
    fn export(&self, reg: &mut Registry, prefix: &str) {
        reg.counter_add(&format!("{prefix}.cycles"), self.cycles);
        reg.counter_add(&format!("{prefix}.full_cycles"), self.full_cycles);
        reg.counter_add(&format!("{prefix}.idle_cycles"), self.idle_cycles);
        reg.counter_add(&format!("{prefix}.jumped_cycles"), self.jumped_cycles);
        reg.counter_add(&format!("{prefix}.router_visits"), self.router_visits);
        reg.counter_add(
            &format!("{prefix}.router_visits_skipped"),
            self.router_visits_skipped,
        );
        reg.counter_add(&format!("{prefix}.wakes.flit_arrive"), self.wakes[0]);
        reg.counter_add(&format!("{prefix}.wakes.link_arrive"), self.wakes[1]);
        reg.counter_add(&format!("{prefix}.wakes.restore"), self.wakes[2]);
        // Wake-set-size histogram: bucket 0 is size 0; bucket i >= 1 covers
        // sizes [2^(i-1), 2^i - 1]; the top bucket is unbounded. Exported
        // as per-bucket counters (b0..b7) because the zero bucket has no
        // representation in a log histogram over positive samples.
        for (i, &c) in self.wake_hist.iter().enumerate() {
            reg.counter_add(&format!("{prefix}.wake_hist.b{i}"), c);
        }
    }
}

impl Instrument for FaultCounters {
    fn export(&self, reg: &mut Registry, prefix: &str) {
        reg.counter_add(&format!("{prefix}.flits_corrupted"), self.flits_corrupted);
        reg.counter_add(&format!("{prefix}.retransmissions"), self.retransmissions);
        reg.counter_add(&format!("{prefix}.retries"), self.retries);
        reg.counter_add(&format!("{prefix}.timeouts"), self.timeouts);
        reg.counter_add(
            &format!("{prefix}.flits_lost_dead_router"),
            self.flits_lost_dead_router,
        );
        reg.counter_add(&format!("{prefix}.packets_dropped"), self.packets_dropped);
        reg.counter_add(&format!("{prefix}.links_dead"), self.links_dead);
        reg.counter_add(&format!("{prefix}.routers_dead"), self.routers_dead);
    }
}

impl Instrument for RecoveryCounters {
    fn export(&self, reg: &mut Registry, prefix: &str) {
        reg.counter_add(&format!("{prefix}.acks"), self.acks);
        reg.counter_add(&format!("{prefix}.reinjections"), self.reinjections);
        reg.counter_add(&format!("{prefix}.reinjected_flits"), self.reinjected_flits);
        reg.counter_add(
            &format!("{prefix}.duplicates_suppressed"),
            self.duplicates_suppressed,
        );
        reg.counter_add(&format!("{prefix}.recovered"), self.recovered);
        reg.counter_add(&format!("{prefix}.lost"), self.lost);
        // High-water mark, not a monotone count: gauge (merge keeps max).
        reg.set_gauge(
            &format!("{prefix}.retention_peak"),
            self.retention_peak as f64,
        );
        reg.counter_add(&format!("{prefix}.retention_stalls"), self.retention_stalls);
    }
}

impl Instrument for ProfileReport {
    fn export(&self, reg: &mut Registry, prefix: &str) {
        reg.counter_add(&format!("{prefix}.steps"), self.steps);
        for stage in STAGES {
            reg.counter_add(
                &format!("{prefix}.stage_nanos.{}", stage.label()),
                self.nanos(stage),
            );
        }
        self.sched.export(reg, &format!("{prefix}.sched"));
    }
}

impl Instrument for NetStats {
    fn export(&self, reg: &mut Registry, prefix: &str) {
        reg.counter_add(&format!("{prefix}.cycles"), self.cycles);
        reg.counter_add(&format!("{prefix}.packets_offered"), self.packets_offered);
        reg.counter_add(&format!("{prefix}.packets_retired"), self.packets_retired);
        reg.counter_add(&format!("{prefix}.flits_retired"), self.flits_retired);
        for (name, h) in [
            ("total", &self.latency_dist.total),
            ("queuing", &self.latency_dist.queuing),
            ("blocking", &self.latency_dist.blocking),
            ("transfer", &self.latency_dist.transfer),
        ] {
            reg.merge_hist(&format!("{prefix}.latency.{name}"), h);
        }
    }
}

impl Instrument for SimOutcome {
    fn export(&self, reg: &mut Registry, prefix: &str) {
        self.stats.export(reg, prefix);
        self.sched.export(reg, &format!("{prefix}.sched"));
        self.fault_counters.export(reg, &format!("{prefix}.fault"));
        if let Some(p) = &self.profile {
            p.export(reg, &format!("{prefix}.profile"));
        }
        reg.counter_add(&format!("{prefix}.sim_cycles"), self.cycles);
        reg.counter_add(&format!("{prefix}.dropped"), self.dropped);
        if self.saturated {
            reg.counter_add(&format!("{prefix}.saturated"), 1);
        }
    }
}

impl Network {
    /// Exports the live engine's whole telemetry tree into `reg` under
    /// `noc.*`: current cycle, in-flight work, scheduler, fault,
    /// recovery and measurement-statistics counters. Read-only and
    /// side-effect-free; call with a fresh registry per snapshot for
    /// absolute readings.
    pub fn export_telemetry(&self, reg: &mut Registry) {
        reg.set_counter("noc.cycle", self.now());
        reg.set_gauge("noc.in_flight", self.in_flight() as f64);
        reg.set_gauge("noc.recovery.pending", self.recovery_pending() as f64);
        self.sched_report().export(reg, "noc.sched");
        self.fault_counters().export(reg, "noc.fault");
        self.recovery_counters().export(reg, "noc.recovery");
        self.stats().export(reg, "noc.stats");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::sim::{InjectionProcess, SimParams, Stepper, UniformRandom};
    use crate::types::Rate;

    #[test]
    fn sched_report_exports_every_field() {
        let mut rep = SchedReport {
            cycles: 100,
            full_cycles: 60,
            idle_cycles: 30,
            jumped_cycles: 10,
            wakes: [5, 2, 1],
            ..SchedReport::default()
        };
        rep.wake_hist[0] = 40;
        let mut reg = Registry::new();
        rep.export(&mut reg, "sched");
        assert_eq!(reg.counter("sched.cycles"), 100);
        assert_eq!(reg.counter("sched.wakes.flit_arrive"), 5);
        assert_eq!(reg.counter("sched.wake_hist.b0"), 40);
        // Additivity: a second export doubles everything.
        rep.export(&mut reg, "sched");
        assert_eq!(reg.counter("sched.cycles"), 200);
    }

    #[test]
    fn network_export_builds_noc_tree() {
        let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let mut reg = Registry::new();
        net.export_telemetry(&mut reg);
        assert_eq!(reg.counter("noc.cycle"), 0);
        assert_eq!(reg.gauge("noc.in_flight"), Some(0.0));
        assert!(reg.get("noc.sched.cycles").is_some());
        assert!(reg.get("noc.fault.retransmissions").is_some());
        assert!(reg.get("noc.stats.latency.total").is_some());
    }

    #[test]
    fn exported_total_latency_histogram_is_exact() {
        let params = SimParams {
            injection_rate: Rate::new(0.02),
            warmup_packets: 50,
            measure_packets: 500,
            max_cycles: 200_000,
            seed: 7,
            process: InjectionProcess::Bernoulli,
            watchdog: None,
        };
        let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let mut run = Stepper::fresh(net, params, Box::new(UniformRandom));
        run.run_to(params.max_cycles).unwrap();
        let stats = run.network().stats();
        assert!(stats.packets_retired > 0);
        let mut reg = Registry::new();
        run.network().export_telemetry(&mut reg);
        let total = reg.hist("noc.stats.latency.total").unwrap();
        assert_eq!(total.count(), stats.packets_retired);
        // The exact sum, not one rebuilt from bucket lower edges. Only the
        // total is checked: a histogram counts a zero-cycle queuing
        // sample as 1.
        assert_eq!(total.sum(), stats.latency.total);
    }
}
