//! Golden regression pin: fault-free runs must stay cycle-identical.
//!
//! The fault-injection layer (`heteronoc_noc::fault`) is wired into the
//! engine behind an `Option`; these tests pin the exact measured statistics
//! of two paper configurations so any perturbation of the fault-free fast
//! path — an extra event, a changed arbitration order, a shifted RNG draw —
//! shows up as a hard failure, not a silent drift. The numbers were captured
//! from the engine before the fault layer existed.

use heteronoc::{mesh_config, Layout};
use heteronoc_noc::network::Network;
use heteronoc_noc::sim::{InjectionProcess, SimParams, SimRun};
use heteronoc_noc::types::Rate;

fn pin_params() -> SimParams {
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

/// (packets_retired, Σ latency cycles, Σ queuing cycles, total cycles).
fn fingerprint(net: Network) -> (u64, u64, u64, u64) {
    let out = SimRun::new(net, pin_params())
        .run()
        .expect("simulation run");
    assert!(!out.saturated);
    (
        out.stats.packets_retired,
        out.stats.latency.total,
        out.stats.latency.queuing,
        out.cycles,
    )
}

#[test]
fn baseline_mesh_fingerprint_unchanged() {
    let net = Network::new(mesh_config(&Layout::Baseline)).unwrap();
    let got = fingerprint(net);
    println!("baseline fingerprint: {got:?}");
    assert_eq!(got, (2000, 57748, 626, 1825));
}

#[test]
fn diagonal_bl_fingerprint_unchanged() {
    let net = Network::new(mesh_config(&Layout::DiagonalBL)).unwrap();
    let got = fingerprint(net);
    println!("diagonal-bl fingerprint: {got:?}");
    assert_eq!(got, (2002, 65373, 1051, 1833));
}

/// The walk-everything reference engine must reproduce the exact pinned
/// fingerprints of the (default) active-set engine: the scheduler is a pure
/// scheduling optimization, never a behavioral one.
#[test]
fn reference_engine_reproduces_golden_fingerprints() {
    use heteronoc_noc::sched::EngineMode;

    for (layout, want) in [
        (Layout::Baseline, (2000, 57748, 626, 1825)),
        (Layout::DiagonalBL, (2002, 65373, 1051, 1833)),
    ] {
        let net = Network::new(mesh_config(&layout)).unwrap();
        let out = SimRun::new(net, pin_params())
            .engine(EngineMode::PollAll)
            .run()
            .expect("simulation run");
        assert!(!out.saturated);
        let got = (
            out.stats.packets_retired,
            out.stats.latency.total,
            out.stats.latency.queuing,
            out.cycles,
        );
        assert_eq!(got, want, "poll-all fingerprint drifted for {layout:?}");
    }
}

/// The observability layer (tracing + epoch metrics + self-profiling) must
/// be a pure observer: with every hook enabled, the pinned fingerprint is
/// bit-identical to the plain run above.
#[test]
fn full_observability_keeps_the_golden_fingerprint() {
    use heteronoc_noc::trace::{JsonlSink, SharedBuffer};

    let buf = SharedBuffer::new();
    let net = Network::new(mesh_config(&Layout::Baseline)).unwrap();
    let out = SimRun::new(net, pin_params())
        .trace(Box::new(JsonlSink::new(buf.clone())))
        .epochs(128)
        .profile(true)
        .run()
        .expect("simulation run");
    assert!(!out.saturated);
    let got = (
        out.stats.packets_retired,
        out.stats.latency.total,
        out.stats.latency.queuing,
        out.cycles,
    );
    assert_eq!(got, (2000, 57748, 626, 1825));

    // And the observers actually observed.
    assert!(!buf.contents().is_empty());
    assert_eq!(out.epochs.last().expect("epochs recorded").end, out.cycles);
    assert_eq!(out.profile.expect("profile recorded").steps, out.cycles);
}

// --- Allocator paths beyond the 5-port XY mesh ---------------------------
//
// The pins below cover what the two mesh goldens above never reach: torus
// dateline VC classes, routers with more than 5 ports (concentrated mesh
// and flattened butterfly, both on 2-lane links so the wide-output
// secondary arbiter runs), and table routing with a reserved escape VC and
// expedited-head diversion. Each is checked under both engines.

use heteronoc::mesh_config_with_table;
use heteronoc_noc::config::{NetworkConfig, RouterCfg};
use heteronoc_noc::packet::PacketClass;
use heteronoc_noc::sched::EngineMode;
use heteronoc_noc::sim::{Traffic, UniformRandom};
use heteronoc_noc::topology::TopologyKind;
use heteronoc_noc::types::{Bits, NodeId, RouterId};
use rand::rngs::StdRng;

/// (packets retired, Σ latency, Σ queuing, cycles, crossbar flits, VC
/// grants, dual-flit link cycles).
type AllocFingerprint = (u64, u64, u64, u64, u64, u64, u64);

fn alloc_fingerprint(
    cfg: NetworkConfig,
    rate: f64,
    traffic: &mut dyn Traffic,
    mode: EngineMode,
) -> AllocFingerprint {
    let net = Network::new(cfg).expect("valid config");
    let params = SimParams {
        injection_rate: Rate::new(rate),
        ..pin_params()
    };
    let out = SimRun::new(net, params)
        .traffic(traffic)
        .engine(mode)
        .run()
        .expect("simulation run");
    assert!(!out.saturated);
    let s = &out.stats;
    (
        s.packets_retired,
        s.latency.total,
        s.latency.queuing,
        out.cycles,
        s.routers.iter().map(|r| r.xbar_flits).sum(),
        s.routers.iter().map(|r| r.va_grants).sum(),
        s.links.iter().map(|l| l.dual_cycles).sum(),
    )
}

fn assert_pinned(
    name: &str,
    cfg: NetworkConfig,
    rate: f64,
    traffic: impl Fn() -> Box<dyn Traffic>,
    want: AllocFingerprint,
) {
    for mode in [EngineMode::ActiveSet, EngineMode::PollAll] {
        let got = alloc_fingerprint(cfg.clone(), rate, traffic().as_mut(), mode);
        println!("{name} fingerprint under {mode:?}: {got:?}");
        assert_eq!(got, want, "{name} fingerprint drifted under {mode:?}");
    }
}

/// Every link and local port two flits wide.
fn two_lane(topology: TopologyKind) -> NetworkConfig {
    let mut cfg = NetworkConfig::homogeneous(topology, RouterCfg::BASELINE, Bits(256), 2.2);
    cfg.flit_width = Bits(128);
    cfg
}

#[test]
fn torus_dateline_fingerprint_unchanged() {
    let torus = NetworkConfig::homogeneous(
        TopologyKind::Torus {
            width: 4,
            height: 4,
        },
        RouterCfg::BASELINE,
        Bits(192),
        2.2,
    );
    assert_pinned(
        "torus",
        torus,
        0.06,
        || Box::new(UniformRandom),
        (2000, 43581, 4009, 2369, 38019, 4310, 0),
    );
}

#[test]
fn cmesh_wide_fingerprint_unchanged() {
    let cmesh = two_lane(TopologyKind::CMesh {
        width: 4,
        height: 4,
        concentration: 4,
    });
    assert_pinned(
        "cmesh",
        cmesh,
        0.03,
        || Box::new(UniformRandom),
        (2005, 45670, 1486, 1195, 57939, 5207, 18553),
    );
}

#[test]
fn flattened_butterfly_wide_fingerprint_unchanged() {
    let fbfly = two_lane(TopologyKind::FlattenedButterfly {
        width: 4,
        height: 4,
        concentration: 4,
    });
    assert_pinned(
        "fbfly",
        fbfly,
        0.04,
        || Box::new(UniformRandom),
        (2001, 31247, 1294, 903, 40973, 3091, 10049),
    );
}

/// Every eighth node sends expedited packets to the far corner hub; the
/// rest send uniform-random data packets across the same routers.
struct HubExpedited;

impl HubExpedited {
    fn expedited(src: NodeId) -> bool {
        src.index().is_multiple_of(8)
    }
}

impl Traffic for HubExpedited {
    fn destination(&mut self, src: NodeId, num_nodes: usize, rng: &mut StdRng) -> NodeId {
        if !Self::expedited(src) {
            UniformRandom.destination(src, num_nodes, rng)
        } else if src.index() < num_nodes / 2 {
            NodeId(num_nodes - 1)
        } else {
            NodeId(0)
        }
    }

    fn class(&mut self, src: NodeId) -> PacketClass {
        if Self::expedited(src) {
            PacketClass::Expedited
        } else {
            PacketClass::Data
        }
    }
}

#[test]
fn table_xy_escape_fingerprint_unchanged() {
    let mut table = mesh_config_with_table(&Layout::DiagonalBL, &[RouterId(0), RouterId(63)]);
    table.escape_timeout = 4;
    assert_pinned(
        "table-xy",
        table,
        0.03,
        || Box::new(HubExpedited),
        (2000, 243062, 99824, 1545, 109107, 11654, 4742),
    );
}
