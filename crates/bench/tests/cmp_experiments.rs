//! The CMP experiments' sweep points at smoke scale: the fig11 and fig13
//! system runs (two layouts × two benchmarks, with and without prewarm),
//! the fig13 closed-loop pair at 200 round trips, and a fig14 asymmetric
//! system with idle cores and expedited large-core traffic.
//!
//! Every metric the experiment modules print is pinned to the values the
//! serial per-experiment loops produced before these experiments moved
//! onto the sweep engine; a second run from the same cache directory must
//! be served entirely from the cache and reproduce them bit for bit.

use std::path::PathBuf;

use heteronoc::noc::types::{NodeId, RouterId};
use heteronoc::noc::NetworkConfig;
use heteronoc::traffic::workloads::Benchmark;
use heteronoc::{mesh_config, mesh_config_with_table, Layout};
use heteronoc_bench::sweep::{
    run_sweep, CmpSpec, PointKind, PointMetrics, PointSpec, Sweep, SweepOptions,
};
use heteronoc_cmp::{corners4, diagonal16, CoreParams};

const LARGE_NODES: [usize; 4] = [0, 7, 56, 63];

/// Smoke-scale trace length of the fig11/fig13 points.
const REFS: u64 = 20;

fn point(label: &str, config: NetworkConfig, kind: PointKind) -> PointSpec {
    PointSpec {
        label: label.to_owned(),
        config,
        kind,
    }
}

/// fig11's system (prewarmed, four corner controllers) and fig13's
/// (cold caches, the placement under study).
fn cmp_points() -> Vec<PointSpec> {
    let mut points = Vec::new();
    for layout in [Layout::Baseline, Layout::DiagonalBL] {
        for bench in [Benchmark::Sap, Benchmark::Canneal] {
            points.push(point(
                &format!("{bench}|{}|prewarm", layout.name()),
                mesh_config(&layout),
                PointKind::Cmp(CmpSpec::uniform(bench, REFS, 0xAB, 20_000_000)),
            ));
        }
    }
    for (name, layout, mcs) in [
        ("Baseline4corner", Layout::Baseline, corners4(8, 8)),
        ("Diagonal_heteroNoC", Layout::DiagonalBL, diagonal16(8)),
    ] {
        for bench in [Benchmark::Sap, Benchmark::Canneal] {
            points.push(point(
                &format!("{bench}|{name}|cold"),
                mesh_config(&layout),
                PointKind::Cmp(CmpSpec {
                    mcs: mcs.clone(),
                    prewarm: false,
                    ..CmpSpec::uniform(bench, REFS, 0xF1613, 30_000_000)
                }),
            ));
        }
    }
    points
}

fn closed_loop_points() -> Vec<PointSpec> {
    [
        ("Baseline4corner", Layout::Baseline, corners4(8, 8)),
        ("Diagonal_heteroNoC", Layout::DiagonalBL, diagonal16(8)),
    ]
    .into_iter()
    .map(|(name, layout, mcs)| {
        point(
            &format!("closed-loop|{name}"),
            mesh_config(&layout),
            PointKind::ClosedLoop {
                mcs,
                measure: 200,
                seed: 0x13,
            },
        )
    })
    .collect()
}

/// fig14's asymmetric system on the table-routed network with seven
/// active cores (three large, four small; the other 57 idle) and
/// large-core traffic expedited, at 300 references per active core so
/// the network carries traffic after prewarm.
fn asymmetric_point() -> PointSpec {
    let active = [0usize, 7, 9, 27, 36, 54, 63];
    let large = |i: usize| LARGE_NODES.contains(&i);
    let mut spec = CmpSpec::uniform(Benchmark::SpecJbb, 300, 0xF1614, 40_000_000);
    for (i, w) in spec.workloads.iter_mut().enumerate() {
        *w = active.contains(&i).then_some(if large(i) {
            Benchmark::Libquantum
        } else {
            Benchmark::SpecJbb
        });
    }
    for (i, c) in spec.cores.iter_mut().enumerate() {
        if !large(i) {
            *c = CoreParams::IN_ORDER;
        }
    }
    spec.expedited = LARGE_NODES.iter().map(|&n| NodeId(n)).collect();
    point(
        "asymmetric|Table+XY|expedited",
        mesh_config_with_table(&Layout::DiagonalBL, &LARGE_NODES.map(RouterId)),
        PointKind::Cmp(spec),
    )
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every metric a CMP or closed-loop point carries, floats in their
/// shortest round-trip form (the per-core IPCs as a hash of that form).
fn fingerprint(p: &PointMetrics) -> String {
    let s = p.system.as_ref().expect("system metrics");
    if s.ipcs.is_empty() {
        return format!(
            "cycles {} completed {} rt {:?}/{:?} leg {:?}/{:?}",
            p.cycles,
            p.delivered,
            s.round_trip_mean,
            s.round_trip_cov,
            s.request_leg_mean,
            s.request_leg_cov
        );
    }
    let w = &s.power;
    format!(
        "cycles {} delivered {} latency_ns {:?} breakdown {:?} power_w {:?} parts {:?} mean_ipc {:?} ipcs {:016x} mem_reads {} rt {:?}/{:?} leg {:?}/{:?}",
        p.cycles,
        p.delivered,
        p.latency_ns,
        s.latency_breakdown,
        p.power_w,
        [w.buffers, w.crossbar, w.arbiters, w.links],
        p.mean_ipc,
        fnv(&format!("{:?}", s.ipcs)),
        s.mem_reads,
        s.round_trip_mean,
        s.round_trip_cov,
        s.request_leg_mean,
        s.request_leg_cov
    )
}

/// Computed by the serial loops of fig11 (`run_one`), fig13 (`run_app`
/// and `run_closed_loop`) and fig14 (`run_one`) at the same scale;
/// `mem_reads` is `CmpSystem::stats().mem_reads` of the same systems, the
/// count `heteronoc cmp` prints.
const PINNED: &[(&str, &str)] = &[
    ("SAP|Baseline|prewarm", "cycles 166 delivered 26 latency_ns 12.622377622377622 breakdown (1.3846153846153846, 1.0769230769230769, 25.307692307692307) power_w 8.457999930443407 parts [2.964899515588121, 2.541342441932673, 0.858451948826231, 2.093306024096382] mean_ipc 2.3512885706230815 ipcs 2e9b12203648457b mem_reads 0 rt 0.0/0.0 leg 0.0/0.0"),
    ("canl|Baseline|prewarm", "cycles 146 delivered 6 latency_ns 12.045454545454545 breakdown (0.0, 0.0, 26.5) power_w 7.930482417737592 parts [2.77733514475356, 2.380572981217336, 0.7964540827566717, 1.9761202090100236] mean_ipc 2.4809326169722836 ipcs bae0e59abe0d92be mem_reads 0 rt 0.0/0.0 leg 0.0/0.0"),
    ("SAP|Diagonal+BL|prewarm", "cycles 183 delivered 26 latency_ns 14.06540319583798 breakdown (1.2307692307692308, 1.8076923076923077, 26.076923076923077) power_w 6.4787160825329515 parts [2.5691577912085486, 1.700600986041438, 0.7319435094024442, 1.477013795880521] mean_ipc 2.347276453237065 ipcs 1291fb8d929f9389 mem_reads 0 rt 0.0/0.0 leg 0.0/0.0"),
    ("canl|Diagonal+BL|prewarm", "cycles 157 delivered 6 latency_ns 13.285024154589372 breakdown (0.0, 0.0, 27.5) power_w 6.084266922766967 parts [2.418867389452443, 1.5952856988957451, 0.6806865303789255, 1.3894273040398544] mean_ipc 2.479636632288451 ipcs 1609577395e0726e mem_reads 0 rt 0.0/0.0 leg 0.0/0.0"),
    ("SAP|Baseline4corner|cold", "cycles 8538 delivered 5110 latency_ns 24.15112969222558 breakdown (8.416634050880626, 20.971037181996085, 23.74481409001957) power_w 10.651044229774449 parts [3.7517932116698343, 3.2158227528598577, 1.1154217449703305, 2.568006520274426] mean_ipc 0.009899527514755636 ipcs c75b84925a94c144 mem_reads 1261 rt 3834.665344964313/0.4911668853591014 leg 130.82394924662987/0.5909913236975031"),
    ("canl|Baseline4corner|cold", "cycles 8571 delivered 5120 latency_ns 25.174183238636363 breakdown (8.8669921875, 22.4263671875, 24.08984375) power_w 10.70075977728781 parts [3.7689286026363096, 3.2305102308311215, 1.1210185258128866, 2.5803024180074927] mean_ipc 0.009733563744869419 ipcs 0565188d7bfa9c68 mem_reads 1277 rt 3915.526233359436/0.48960142539261214 leg 136.61002349256066/0.5762181904800411"),
    ("SAP|Diagonal_heteroNoC|cold", "cycles 2698 delivered 5110 latency_ns 25.778288285733193 breakdown (18.49549902152642, 12.7, 22.16555772994129) power_w 14.67987833578842 parts [5.992700306960946, 3.9244419442231204, 1.7227126844424385, 3.040023400161916] mean_ipc 0.033766743880046024 ipcs 886b1fb12ab06152 mem_reads 1261 rt 1242.9064234734324/0.3607085420559358 leg 69.44567803330685/0.4868746244098739"),
    ("canl|Diagonal_heteroNoC|cold", "cycles 2772 delivered 5120 latency_ns 25.61877264492754 breakdown (18.437109375, 12.3837890625, 22.2099609375) power_w 14.550756989844265 parts [5.946289122718582, 3.8898234198236405, 1.704440141956109, 3.010204305345933] mean_ipc 0.03242317874051602 ipcs 2d29d16d99295332 mem_reads 1277 rt 1259.5990602975735/0.37512737383969047 leg 67.92952231793257/0.45008734240543186"),
    ("closed-loop|Baseline4corner", "cycles 461 completed 200 rt 310.5049999999999/0.2797625088782362 leg 153.24790619765483/0.5702716933990624"),
    ("closed-loop|Diagonal_heteroNoC", "cycles 147 completed 200 rt 99.86000000000004/0.2736797670938812 leg 32.47637795275588/0.7283431864698684"),
    ("asymmetric|Table+XY|expedited", "cycles 10802 delivered 2874 latency_ns 13.653646384879934 breakdown (0.5274878218510787, 2.5866388308977037, 25.14892136395268) power_w 7.535524267358038 parts [3.049042791043555, 1.9946930391605484, 0.849487551569881, 1.6423008855840528] mean_ipc 0.033952588534229916 ipcs d96f7359de8dabb8 mem_reads 0 rt 0.0/0.0 leg 0.0/0.0"),
];

fn scratch_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "heteronoc-cmp-experiments-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(cache_dir: PathBuf) -> SweepOptions {
    SweepOptions {
        jobs: 2,
        use_cache: true,
        cache_dir,
        shutdown: None,
        checkpoint_every: None,
        progress: None,
    }
}

#[test]
fn ported_points_reproduce_the_serial_loops_and_survive_the_cache() {
    let mut sweep = Sweep::new("cmp_experiments");
    for p in cmp_points()
        .into_iter()
        .chain(closed_loop_points())
        .chain([asymmetric_point()])
    {
        sweep.push(p);
    }
    assert_eq!(sweep.points.len(), PINNED.len());
    let dir = scratch_cache_dir("pinned");

    let cold = run_sweep(&sweep, &opts(dir.clone())).expect("cold sweep");
    assert_eq!((cold.simulated, cold.cache_hits), (PINNED.len(), 0));
    for (p, (label, want)) in cold.points.iter().zip(PINNED) {
        assert_eq!(&p.label, label);
        assert!(p.error.is_none(), "{label}: {:?}", p.error);
        assert_eq!(fingerprint(p), *want, "{label}");
    }

    let warm = run_sweep(&sweep, &opts(dir.clone())).expect("warm sweep");
    assert_eq!((warm.simulated, warm.cache_hits), (0, PINNED.len()));
    for (c, w) in cold.points.iter().zip(&warm.points) {
        assert!(w.cached);
        assert_eq!(fingerprint(w), fingerprint(c), "{}", c.label);
        let uncached = PointMetrics {
            cached: false,
            ..w.clone()
        };
        assert_eq!(
            uncached.to_json().to_string(),
            c.to_json().to_string(),
            "{}: the cache round trip must keep every member",
            c.label
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn an_undrained_cmp_point_fails_with_its_drain_report() {
    let mut sweep = Sweep::new("cmp_undrained");
    sweep.push(point(
        "canneal|Baseline|starved",
        mesh_config(&Layout::Baseline),
        PointKind::Cmp(CmpSpec {
            prewarm: false,
            ..CmpSpec::uniform(Benchmark::Canneal, REFS, 0xAB, 300)
        }),
    ));
    sweep.push(closed_loop_points().remove(0));
    let dir = scratch_cache_dir("undrained");
    let out = run_sweep(&sweep, &opts(dir.clone())).expect("sweep runs");
    let err = out.points[0].error.as_deref().expect("budget too small");
    assert!(err.contains("did not drain within 300 cycles"), "{err}");
    assert!(err.contains("not drained at cycle 300"), "{err}");
    assert!(err.contains("MSHRs"), "stuck cores are named: {err}");
    assert!(
        out.points[1].error.is_none(),
        "the other points still run: {:?}",
        out.points[1].error
    );
    // The failure is not cached; the good point is.
    let again = run_sweep(&sweep, &opts(dir.clone())).expect("sweep runs");
    assert_eq!((again.simulated, again.cache_hits), (1, 1));
    let _ = std::fs::remove_dir_all(dir);
}
