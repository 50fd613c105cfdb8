//! Pins the full scheduler report of four fault-free runs (a loaded mesh,
//! a near-idle one, a quiet one and a checkpoint resume), one run with
//! transient link errors, and open-loop runs at three loads.
//!
//! [`SchedReport`] is observability-only, but its counters are part of the
//! sweep JSON and of the benchmark's result digests, so every field is
//! pinned here: cycle split (full, idle, jumped), router visits and skips,
//! wakes per reason and the wake-set size histogram, and the allocation
//! work (SA stage-1 VCs, RC/VA heads, VA bids, flits committed, wheel
//! events) that `heteronoc run --profile` prints per flit.

use heteronoc_noc::config::NetworkConfig;
use heteronoc_noc::fault::FaultPlan;
use heteronoc_noc::network::Network;
use heteronoc_noc::sched::SchedReport;
use heteronoc_noc::sim::{InjectionProcess, SimParams, SimRun, Stepper, UniformRandom};
use heteronoc_noc::types::Rate;

/// The golden operating point: 8×8 baseline mesh at 0.02 packets/node/cycle.
fn baseline_params() -> SimParams {
    SimParams {
        injection_rate: Rate::new(0.02),
        warmup_packets: 200,
        measure_packets: 2_000,
        max_cycles: 500_000,
        seed: 0xFA01,
        process: InjectionProcess::Bernoulli,
        ..SimParams::default()
    }
}

fn net() -> Network {
    Network::new(NetworkConfig::paper_baseline()).expect("valid config")
}

#[test]
fn baseline_run_report_is_pinned() {
    let out = SimRun::new(net(), baseline_params())
        .run()
        .expect("simulation run");
    assert_eq!(
        out.sched,
        SchedReport {
            cycles: 1825,
            full_cycles: 1825,
            idle_cycles: 0,
            jumped_cycles: 0,
            router_visits: 74_486,
            router_visits_skipped: 42_314,
            wakes: [9_192, 0, 0],
            wake_hist: [1, 1, 2, 2, 3, 60, 1_756, 0],
            sa_vcs: 95_231,
            rcva_heads: 29_112,
            va_bids: 12_336,
            flits_committed: 86_347,
            wheel_events: 186_364,
        }
    );
    assert_eq!(out.sched.cycles, out.cycles);
    assert!(
        out.sched.router_visits_skipped > 0,
        "at rate 0.02 some routers are empty on most cycles"
    );
}

/// A near-idle mesh: long quiet stretches, which the idle fast path
/// advances one cycle at a time.
#[test]
fn near_idle_run_report_is_pinned() {
    let params = SimParams {
        injection_rate: Rate::new(0.0005),
        warmup_packets: 10,
        measure_packets: 200,
        max_cycles: 3_000_000,
        seed: 42,
        process: InjectionProcess::Bernoulli,
        watchdog: None,
    };
    let out = SimRun::new(net(), params).run().expect("simulation run");
    assert_eq!(
        out.sched,
        SchedReport {
            cycles: 6_167,
            full_cycles: 3_645,
            idle_cycles: 2_522,
            jumped_cycles: 0,
            router_visits: 9_292,
            router_visits_skipped: 385_396,
            wakes: [1_333, 0, 0],
            wake_hist: [2_807, 599, 1_963, 741, 57, 0, 0, 0],
            sa_vcs: 8_036,
            rcva_heads: 2_680,
            va_bids: 1_130,
            flits_committed: 8_028,
            wheel_events: 17_333,
        }
    );
}

/// A quiet mesh: at rate 0 no source can fire, so the whole horizon is
/// covered by one bulk jump.
#[test]
fn quiet_run_report_is_pinned() {
    let params = SimParams {
        injection_rate: Rate::ZERO,
        warmup_packets: 1,
        measure_packets: 1,
        max_cycles: 100_000,
        seed: 42,
        process: InjectionProcess::Bernoulli,
        watchdog: None,
    };
    let out = SimRun::new(net(), params).run().expect("simulation run");
    assert_eq!(
        out.sched,
        SchedReport {
            cycles: 100_000,
            full_cycles: 0,
            idle_cycles: 0,
            jumped_cycles: 100_000,
            router_visits: 0,
            router_visits_skipped: 6_400_000,
            wakes: [0, 0, 0],
            wake_hist: [100_000, 0, 0, 0, 0, 0, 0, 0],
            sa_vcs: 0,
            rcva_heads: 0,
            va_bids: 0,
            flits_committed: 0,
            wheel_events: 0,
        }
    );
}

/// Transient link errors (no hard faults): router-to-router flits enter
/// through the link layer, so they wake their router as `LinkArrive`.
#[test]
fn transient_fault_run_report_is_pinned() {
    let net = Network::with_faults(
        NetworkConfig::paper_baseline(),
        FaultPlan::transient(2e-4, 17),
    )
    .expect("valid config");
    let out = SimRun::new(net, baseline_params())
        .run()
        .expect("simulation run");
    assert_eq!(
        out.sched,
        SchedReport {
            cycles: 2_109,
            full_cycles: 2_109,
            idle_cycles: 0,
            jumped_cycles: 0,
            router_visits: 115_529,
            router_visits_skipped: 19_447,
            wakes: [406, 3_075, 0],
            wake_hist: [1, 1, 2, 2, 3, 13, 2_083, 4],
            sa_vcs: 129_512,
            rcva_heads: 89_787,
            va_bids: 53_629,
            flits_committed: 93_542,
            wheel_events: 310_268,
        }
    );
}

/// A run resumed from a mid-run checkpoint reports only the resumed
/// span, plus one `Restore` wake per router holding flits at the
/// checkpoint.
#[test]
fn resumed_run_report_is_pinned() {
    let params = baseline_params();
    let mut first = Stepper::fresh(net(), params, Box::new(UniformRandom));
    first.run_to(900).expect("first segment");
    let ckpt = first.checkpoint();
    let out = SimRun::new(net(), params)
        .resume_from(ckpt)
        .run()
        .expect("resumed run");
    assert_eq!(
        out.sched,
        SchedReport {
            cycles: 925,
            full_cycles: 925,
            idle_cycles: 0,
            jumped_cycles: 0,
            router_visits: 38_295,
            router_visits_skipped: 20_905,
            wakes: [4_788, 0, 37],
            wake_hist: [0, 0, 0, 0, 0, 22, 903, 0],
            sa_vcs: 48_550,
            rcva_heads: 14_905,
            va_bids: 6_321,
            flits_committed: 44_287,
            wheel_events: 95_407,
        }
    );
}

/// Open-loop runs at three loads, from light to near the knee (quick
/// scale, seed 42): the exact allocation work per flit grows with load
/// (SA stage-1 VCs 1.038 / 1.196 / 1.520 per flit committed, RC/VA heads
/// 0.334 / 0.345 / 0.430, VA bids 0.141 / 0.148 / 0.213, wheel events
/// 2.158 / 2.160 / 2.163). Any change to the work the engine does per
/// flit moves these counts; a change that cuts it re-pins them lower.
#[test]
fn open_loop_load_reports_are_pinned() {
    let pins = [
        (
            0.01,
            SchedReport {
                cycles: 3_579,
                full_cycles: 3_577,
                idle_cycles: 2,
                jumped_cycles: 0,
                router_visits: 86_015,
                router_visits_skipped: 143_041,
                wakes: [12_083, 0, 0],
                wake_hist: [3, 1, 2, 3, 194, 3_010, 366, 0],
                sa_vcs: 87_954,
                rcva_heads: 28_343,
                va_bids: 11_928,
                flits_committed: 84_734,
                wheel_events: 182_881,
            },
        ),
        (
            0.03,
            SchedReport {
                cycles: 1_242,
                full_cycles: 1_241,
                idle_cycles: 1,
                jumped_cycles: 0,
                router_visits: 63_787,
                router_visits_skipped: 15_701,
                wakes: [6_319, 0, 0],
                wake_hist: [2, 0, 1, 2, 4, 8, 1_225, 0],
                sa_vcs: 104_210,
                rcva_heads: 30_048,
                va_bids: 12_918,
                flits_committed: 87_107,
                wheel_events: 188_163,
            },
        ),
        (
            0.05,
            SchedReport {
                cycles: 776,
                full_cycles: 776,
                idle_cycles: 0,
                jumped_cycles: 0,
                router_visits: 46_976,
                router_visits_skipped: 2_688,
                wakes: [1_886, 0, 0],
                wake_hist: [1, 1, 0, 1, 2, 6, 695, 70],
                sa_vcs: 137_240,
                rcva_heads: 38_810,
                va_bids: 19_258,
                flits_committed: 90_307,
                wheel_events: 195_357,
            },
        ),
    ];
    for (rate, want) in pins {
        let params = SimParams {
            injection_rate: Rate::new(rate),
            warmup_packets: 200,
            measure_packets: 2_000,
            max_cycles: 3_000_000,
            seed: 42,
            process: InjectionProcess::Bernoulli,
            watchdog: None,
        };
        let out = SimRun::new(net(), params).run().expect("simulation run");
        assert_eq!(out.sched, want, "rate {rate}");
    }
}
