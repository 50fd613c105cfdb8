//! Cross-crate integration: HeteroNoC layouts driving the network
//! simulator end-to-end with synthetic traffic.

use heteronoc::noc::network::Network;
use heteronoc::noc::packet::PacketClass;
use heteronoc::noc::sim::{InjectionProcess, SimParams, SimRun, Traffic, UniformRandom};
use heteronoc::noc::stats::{LatencyAgg, PacketRecord};
use heteronoc::noc::types::{Bits, NodeId, Rate};
use heteronoc::traffic::{BitComplement, NearestNeighbor, Transpose};
use heteronoc::{mesh_config, network_config, Layout};
use heteronoc_noc::topology::TopologyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn quick(rate: f64) -> SimParams {
    SimParams {
        injection_rate: Rate::new(rate),
        warmup_packets: 200,
        measure_packets: 2_000,
        max_cycles: 500_000,
        seed: 11,
        process: InjectionProcess::Bernoulli,
        watchdog: Some(100_000),
    }
}

fn run_layout(
    layout: &Layout,
    traffic: &mut dyn Traffic,
    rate: f64,
) -> heteronoc::noc::sim::SimOutcome {
    let net = Network::new(mesh_config(layout)).expect("valid layout");
    SimRun::new(net, quick(rate))
        .traffic(traffic)
        .run()
        .expect("simulation run")
}

#[test]
fn every_layout_delivers_every_pattern() {
    for layout in Layout::all_seven() {
        for (name, traffic) in [
            ("UR", Box::new(UniformRandom) as Box<dyn Traffic>),
            ("NN", Box::new(NearestNeighbor::new(8, 8))),
            ("transpose", Box::new(Transpose::new(8))),
            ("bit-complement", Box::new(BitComplement)),
        ] {
            let mut t = traffic;
            let out = run_layout(&layout, t.as_mut(), 0.01);
            assert!(
                out.stats.packets_retired >= 2_000,
                "{layout}/{name}: only {} packets",
                out.stats.packets_retired
            );
            assert!(!out.saturated, "{layout}/{name} saturated at low load");
            assert!(out.latency_ns() > 0.0);
        }
    }
}

#[test]
fn latency_decomposition_sums_to_total() {
    let out = run_layout(&Layout::DiagonalBL, &mut UniformRandom, 0.02);
    let (q, b, t) = out.stats.latency.mean_breakdown();
    let total = out.stats.latency.mean_total();
    assert!(
        (q + b + t - total).abs() < 1e-6,
        "queuing {q} + blocking {b} + transfer {t} != total {total}"
    );
    assert!(t > 0.0, "transfer component must be positive");
}

#[test]
fn heterogeneous_layouts_save_power_under_identical_traffic() {
    use heteronoc::power::NetworkPower;
    let np = NetworkPower::paper_calibrated();
    let measure = |layout: &Layout| {
        let cfg = mesh_config(layout);
        let graph = cfg.build_graph();
        let net = Network::new(cfg.clone()).expect("valid");
        let out = SimRun::new(net, quick(0.03)).run().expect("simulation run");
        np.evaluate(&cfg, &graph, &out.stats).total_w()
    };
    let base = measure(&Layout::Baseline);
    let hetero = measure(&Layout::DiagonalBL);
    assert!(
        hetero < base,
        "Diagonal+BL ({hetero:.1} W) must consume less than baseline ({base:.1} W)"
    );
}

#[test]
fn torus_shortens_average_latency_vs_mesh() {
    // Edge-symmetric wrap links halve the average hop count under UR.
    let mesh = run_layout(&Layout::Baseline, &mut UniformRandom, 0.01);
    let torus_cfg = network_config(
        &Layout::Baseline,
        TopologyKind::Torus {
            width: 8,
            height: 8,
        },
    );
    let torus = SimRun::new(Network::new(torus_cfg).expect("valid torus"), quick(0.01))
        .run()
        .expect("simulation run");
    assert!(
        torus.latency_ns() < mesh.latency_ns(),
        "torus {:.1} ns !< mesh {:.1} ns",
        torus.latency_ns(),
        mesh.latency_ns()
    );
}

#[test]
fn self_similar_traffic_has_heavier_tail_than_bernoulli() {
    let cfg = mesh_config(&Layout::Baseline);
    let run = |process| {
        let net = Network::new(cfg.clone()).expect("valid");
        let mut p = quick(0.02);
        p.process = process;
        SimRun::new(net, p).run().expect("simulation run")
    };
    let bern = run(InjectionProcess::Bernoulli);
    let ss = run(InjectionProcess::SelfSimilar {
        alpha_on: 1.9,
        alpha_off: 1.25,
    });
    // Bursty arrivals queue more: mean latency should not be lower.
    assert!(
        ss.stats.latency.mean_total() >= bern.stats.latency.mean_total() * 0.95,
        "self-similar {:.1} vs bernoulli {:.1}",
        ss.stats.latency.mean_total(),
        bern.stats.latency.mean_total()
    );
}

#[test]
fn packet_records_match_aggregates() {
    // Packets born before the window opens are not measured; each measured
    // packet's split, rebuilt from its delivery and its path's ideal
    // latency, sums to the window's aggregate.
    let mut net = Network::new(mesh_config(&Layout::CenterBL)).expect("valid");
    let flit_width = net.config().flit_width;
    let mut rng = StdRng::seed_from_u64(11);
    let mut agg = LatencyAgg::default();
    let mut add = |net: &mut Network| {
        let delivered = net.drain_delivered();
        for d in delivered.into_iter().filter(|d| d.packet.birth >= 1_000) {
            let (src, dst) = (d.packet.src, d.packet.dst);
            let flits = d.packet.size.flits(flit_width);
            agg.add(&PacketRecord {
                birth: d.packet.birth,
                inject: d.inject,
                retire: d.retire,
                ideal: net.ideal_latency(src, dst, flits),
                class: d.packet.class,
            });
        }
    };
    for cycle in 0..4_000 {
        if cycle == 1_000 {
            net.start_measuring();
        }
        for src in 0..64 {
            if rng.random::<f64>() < 0.015 {
                let dst = NodeId(rng.random_range(0..64));
                net.enqueue(NodeId(src), dst, Bits(1024), PacketClass::Data, 0);
            }
        }
        net.step();
        add(&mut net);
    }
    while net.in_flight() > 0 {
        net.step();
        add(&mut net);
    }
    assert!(agg.count > 500, "{agg:?}");
    assert_eq!(agg, net.stats().latency);
}
