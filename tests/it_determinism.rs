//! Integration: every simulation layer is bit-deterministic per seed —
//! the property that makes the paper reproduction auditable.

use heteronoc::noc::network::Network;
use heteronoc::noc::sim::{InjectionProcess, SimParams, SimRun};
use heteronoc::noc::types::Rate;
use heteronoc::traffic::workloads::{Benchmark, SyntheticWorkload};
use heteronoc::traffic::TraceSource;
use heteronoc::{mesh_config, Layout};
use heteronoc_cmp::{run_closed_loop, CmpConfig, CmpSystem, CoreParams};

fn params(seed: u64) -> SimParams {
    SimParams {
        injection_rate: Rate::new(0.03),
        warmup_packets: 200,
        measure_packets: 2_000,
        max_cycles: 300_000,
        seed,
        process: InjectionProcess::Bernoulli,
        watchdog: Some(100_000),
    }
}

#[test]
fn network_runs_identical_per_seed() {
    let fingerprint = |seed| {
        let net = Network::new(mesh_config(&Layout::DiagonalBL)).expect("valid");
        let out = SimRun::new(net, params(seed))
            .run()
            .expect("simulation run");
        (
            out.cycles,
            out.stats.packets_retired,
            out.stats.latency.total,
            out.stats.latency.blocking,
            out.stats.routers().map(|r| r.buffer_reads).sum::<u64>(),
        )
    };
    assert_eq!(fingerprint(42), fingerprint(42));
    assert_ne!(fingerprint(42), fingerprint(43), "different seeds diverge");
}

#[test]
fn cmp_runs_identical_per_seed() {
    let fingerprint = || {
        let cfg = CmpConfig::paper_defaults(mesh_config(&Layout::Baseline));
        let traces = |seed| -> Vec<Box<dyn TraceSource + Send>> {
            (0..64)
                .map(|t| {
                    Box::new(SyntheticWorkload::new(Benchmark::Ferret, t, seed, 300))
                        as Box<dyn TraceSource + Send>
                })
                .collect()
        };
        let mut sys = CmpSystem::new(cfg, vec![CoreParams::OUT_OF_ORDER; 64], traces(1));
        sys.prewarm(traces(1));
        sys.run(10_000_000);
        (
            sys.now(),
            sys.committed(),
            sys.stats().mem_reads,
            sys.network().stats().packets_retired,
        )
    };
    assert_eq!(fingerprint(), fingerprint());
}

#[test]
fn closed_loop_identical_per_seed() {
    let run = || {
        let stats = run_closed_loop(
            mesh_config(&Layout::DiagonalBL),
            &heteronoc_cmp::diamond16(8, 8),
            8,
            20,
            1_000,
            77,
        );
        (stats.cycles, stats.completed, stats.round_trip.mean())
    };
    assert_eq!(run(), run());
}

#[test]
fn workload_traces_are_seed_deterministic_across_construction_order() {
    let collect = |seed| {
        let mut w = SyntheticWorkload::new(Benchmark::TpcC, 7, seed, 100);
        std::iter::from_fn(move || w.next_record()).collect::<Vec<_>>()
    };
    let a = collect(5);
    let _noise = collect(99);
    let b = collect(5);
    assert_eq!(a, b);
}
