//! Trace determinism: the observability layer must be a pure function of
//! (config, seed) — independent of worker count, wall clock, and whether
//! anyone is watching.

use heteronoc::noc::network::Network;
use heteronoc::noc::sim::{InjectionProcess, SimParams, SimRun};
use heteronoc::noc::trace::{JsonlSink, SharedBuffer};
use heteronoc::noc::types::Rate;
use heteronoc::{mesh_config, Layout};
use heteronoc_bench::sweep::{
    parallel_map, run_sweep, PointKind, PointSpec, Sweep, SweepOptions, TrafficSpec,
};
use heteronoc_bench::tracecheck::check_jsonl;

fn tiny_params(seed: u64) -> SimParams {
    SimParams {
        injection_rate: Rate::new(0.02),
        warmup_packets: 50,
        measure_packets: 300,
        max_cycles: 200_000,
        seed,
        process: InjectionProcess::Bernoulli,
        watchdog: Some(100_000),
    }
}

fn traced_jsonl(seed: u64) -> String {
    let buf = SharedBuffer::new();
    let net = Network::new(mesh_config(&Layout::Baseline)).expect("valid config");
    SimRun::new(net, tiny_params(seed))
        .trace(Box::new(JsonlSink::new(buf.clone())))
        .run()
        .expect("simulation run");
    buf.to_text()
}

#[test]
fn jsonl_traces_are_byte_identical_across_worker_counts() {
    let seeds: Vec<u64> = vec![11, 12, 13, 14];
    let serial = parallel_map(1, seeds.clone(), traced_jsonl);
    let parallel = parallel_map(4, seeds.clone(), traced_jsonl);
    assert_eq!(serial, parallel, "worker count leaked into trace bytes");

    // Re-running one seed reproduces the same bytes, and they validate.
    assert_eq!(serial[0], traced_jsonl(seeds[0]));
    for text in &serial {
        let check = check_jsonl(text).expect("trace validates");
        assert!(check.events > 0);
        assert!(check.count("inject") > 0);
        assert_eq!(check.count("sa_grant"), check.count("buffer_read"));
    }
}

fn epoch_sweep(name: &str) -> Sweep {
    let mut sweep = Sweep::new(name);
    for seed in [5u64, 6] {
        sweep.push(PointSpec {
            label: format!("baseline|ur|s{seed}"),
            config: mesh_config(&Layout::Baseline),
            kind: PointKind::OpenLoop {
                params: tiny_params(seed),
                traffic: TrafficSpec::Uniform,
                faults: None,
                epochs: Some(100),
            },
        });
    }
    sweep
}

#[test]
fn sweep_embeds_epochs_and_stays_jobs_independent() {
    let run = |jobs: usize| {
        let opts = SweepOptions {
            jobs,
            use_cache: false,
            ..SweepOptions::default()
        };
        run_sweep(&epoch_sweep("trace_determinism_epochs"), &opts).expect("sweep runs")
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial.points_json().pretty(),
        parallel.points_json().pretty(),
        "worker count leaked into the sweep JSON"
    );

    // Every point carries a non-empty epoch time-series tiling the run.
    for p in &serial.points {
        assert!(p.error.is_none(), "{:?}", p.error);
        let epochs = p.epochs.as_ref().expect("epochs recorded");
        let arr = epochs.as_arr().expect("epochs are an array");
        assert!(!arr.is_empty());
        let last_end = arr
            .last()
            .and_then(|e| e.get("end"))
            .and_then(heteronoc_bench::json::Json::as_u64)
            .expect("epoch end");
        assert_eq!(last_end, p.cycles);
        // wall_secs is run-specific and must stay out of the JSON.
        assert!(!p.to_json().pretty().contains("wall_secs"));
        assert!(p.wall_secs > 0.0);
    }
}

/// Tentpole pin: a `--progress` sink is strictly observational. Traces,
/// stats fingerprints and checkpoint bytes must be byte-identical with
/// and without progress streaming, even when the progress and checkpoint
/// boundaries interleave mid-run.
#[test]
fn progress_streaming_never_perturbs_traces_stats_or_checkpoints() {
    use heteronoc_bench::json::Json;
    use heteronoc_obs::ProgressSink;

    let dir = std::env::temp_dir().join(format!("heteronoc-progress-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // ~350 packets at 0.02/node/cycle over 64 nodes retires in a few
    // hundred cycles: checkpoint every 100 and progress every 64 give
    // several interleaved boundaries of each kind.
    let run = |progress: Option<&std::path::Path>, tag: &str| -> (String, String, Vec<u8>) {
        let buf = SharedBuffer::new();
        let ckpt = dir.join(format!("{tag}.ckpt"));
        let net = Network::new(mesh_config(&Layout::Baseline)).expect("valid config");
        let mut run = SimRun::new(net, tiny_params(9))
            .trace(Box::new(JsonlSink::new(buf.clone())))
            .checkpoint_every(&ckpt, 100);
        if let Some(p) = progress {
            let sink = ProgressSink::open(p.to_str().expect("utf8 path")).expect("progress sink");
            run = run.progress(sink, 64);
        }
        let out = run.run().expect("simulation run");
        let fingerprint = format!("{:?}", (out.cycles, out.sched, out.stats));
        let ckpt_bytes = std::fs::read(&ckpt).expect("periodic checkpoint written");
        (buf.to_text(), fingerprint, ckpt_bytes)
    };

    let progress_path = dir.join("progress.jsonl");
    let with = run(Some(&progress_path), "with");
    let without = run(None, "without");
    assert_eq!(with.0, without.0, "progress sink leaked into trace bytes");
    assert_eq!(
        with.1, without.1,
        "progress sink leaked into the stats fingerprint"
    );
    assert_eq!(
        with.2, without.2,
        "progress sink leaked into checkpoint bytes"
    );

    // And the stream itself is real: non-empty, every line a schema-1
    // "sim" snapshot with contiguous sequence numbers, final line `done`
    // with the run's final cycle.
    let text = std::fs::read_to_string(&progress_path).expect("progress file");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "expected interleaved snapshots:\n{text}");
    for (i, line) in lines.iter().enumerate() {
        let snap = heteronoc_bench::json::parse(line).expect("snapshot parses");
        assert_eq!(snap.get("schema").and_then(Json::as_u64), Some(1));
        assert_eq!(snap.get("kind").and_then(Json::as_str), Some("sim"));
        assert_eq!(snap.get("seq").and_then(Json::as_u64), Some(i as u64));
        assert!(snap.get("counters").is_some(), "{line}");
    }
    let last = heteronoc_bench::json::parse(lines.last().expect("nonempty")).expect("parses");
    assert_eq!(last.get("done").and_then(Json::as_bool), Some(true));
    let final_cycle = last.get("cycle").and_then(Json::as_u64).expect("cycle");
    assert!(final_cycle > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CLI's `sweep` parameters for `--packets 400`.
fn cli_params(rate: f64, seed: u64) -> SimParams {
    SimParams {
        injection_rate: Rate::new(rate),
        warmup_packets: 100,
        measure_packets: 400,
        max_cycles: 5_000_000,
        seed,
        process: InjectionProcess::Bernoulli,
        watchdog: Some(100_000),
    }
}

/// Pins every number an epoch series and a measured window are built
/// from: per-router occupancy and busy-VC integrals, per-link flits,
/// injections, ejections and latency percentiles per epoch, and the
/// window's power (router and link event counts), latency and
/// throughput. The grid is what
///
/// ```text
/// heteronoc sweep --layouts baseline,diagonal-bl --rates 0.02,0.09 \
///   --packets 400 --epochs 100 --no-cache --name epoch_pin
/// ```
///
/// runs (a low and a saturating rate), and `heteronoc report --name
/// epoch_pin` must print `tests/fixtures/epoch_pin_report.txt`. The
/// faulted run kills a router mid-run, so flits frozen in its buffers
/// count in the occupancy integrals until the end.
#[test]
fn epoch_sweep_and_faulted_run_are_pinned() {
    use heteronoc::noc::checkpoint::fnv1a64;
    use heteronoc::noc::fault::{FaultKind, FaultPlan, HardFault};
    use heteronoc::noc::types::RouterId;
    use heteronoc_bench::json::Json;
    use heteronoc_bench::report::render_results;

    let opts = SweepOptions {
        jobs: 2,
        use_cache: false,
        ..SweepOptions::default()
    };
    let configs: Vec<_> = [Layout::Baseline, Layout::DiagonalBL]
        .iter()
        .map(|l| (l.name().to_owned(), mesh_config(l)))
        .collect();
    let grid = Sweep::grid(
        "epoch_pin",
        &configs,
        &[TrafficSpec::Uniform],
        &[42],
        &[0.02, 0.09],
        cli_params,
    )
    .with_epochs(100);
    let out = run_sweep(&grid, &opts).expect("sweep runs");
    assert!(out.points.iter().all(|p| p.error.is_none()));
    let report = render_results(&out.to_json(), 24).expect("epochs render");
    assert_eq!(report, include_str!("fixtures/epoch_pin_report.txt"));
    assert_eq!(
        fnv1a64(out.points_json().pretty().as_bytes()),
        0xc9f1_5acb_5dfd_4a3d,
        "epoch sweep points moved"
    );

    let mut plan = FaultPlan::default();
    plan.hard.push(HardFault {
        cycle: 300,
        kind: FaultKind::Router(RouterId(27)),
    });
    let mut faulted = Sweep::new("epoch_pin_faulted");
    faulted.push(PointSpec {
        label: "baseline|ur|kill-r27@300".to_owned(),
        config: mesh_config(&Layout::Baseline),
        kind: PointKind::OpenLoop {
            params: cli_params(0.03, 7),
            traffic: TrafficSpec::Uniform,
            faults: Some(plan),
            epochs: Some(100),
        },
    });
    let out = run_sweep(&faulted, &opts).expect("sweep runs");
    let p = &out.points[0];
    assert!(p.error.is_none(), "{:?}", p.error);
    let epochs = p.epochs.as_ref().and_then(Json::as_arr).expect("epochs");
    let occ = (epochs.last().and_then(|e| e.get("buffer_occ")))
        .and_then(Json::as_arr)
        .expect("per-router occupancy");
    assert!(
        occ[27].as_f64().is_some_and(|x| x > 0.0),
        "the dead router holds frozen flits"
    );
    assert_eq!(
        fnv1a64(out.points_json().pretty().as_bytes()),
        0x0144_2b9e_1842_33d7,
        "faulted run moved"
    );
}
