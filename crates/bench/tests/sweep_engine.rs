//! Integration tests for the sweep-orchestration engine: cache-key
//! stability across spec mutations, byte-identical output regardless of
//! worker count, and full cache reuse on a second run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use heteronoc::mesh_config;
use heteronoc::noc::fault::FaultPlan;
use heteronoc::noc::sim::{InjectionProcess, SimParams};
use heteronoc::noc::types::Rate;
use heteronoc::Layout;
use heteronoc_bench::sweep::{run_sweep, PointKind, PointSpec, Sweep, SweepOptions, TrafficSpec};

/// A unique scratch cache directory per test invocation, so tests never
/// share cache state with each other or with real experiment runs.
fn scratch_cache_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "heteronoc-sweep-test-{}-{tag}-{n}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    dir
}

fn tiny_params(rate: f64, seed: u64) -> SimParams {
    SimParams {
        injection_rate: Rate::new(rate),
        warmup_packets: 20,
        measure_packets: 120,
        max_cycles: 100_000,
        seed,
        process: InjectionProcess::Bernoulli,
        watchdog: Some(50_000),
    }
}

fn tiny_spec(rate: f64, seed: u64) -> PointSpec {
    PointSpec {
        label: "tiny".into(),
        config: mesh_config(&Layout::Baseline),
        kind: PointKind::OpenLoop {
            params: tiny_params(rate, seed),
            traffic: TrafficSpec::Uniform,
            faults: None,
            epochs: None,
        },
    }
}

fn tiny_sweep(name: &str) -> Sweep {
    let configs = vec![
        ("Baseline".to_owned(), mesh_config(&Layout::Baseline)),
        ("Diagonal+BL".to_owned(), mesh_config(&Layout::DiagonalBL)),
    ];
    Sweep::grid(
        name,
        &configs,
        &[TrafficSpec::Uniform],
        &[7],
        &[0.01, 0.02],
        tiny_params,
    )
}

#[test]
fn cache_key_is_stable_and_sensitive_to_every_config_field() {
    // Identical specs (even with different display labels) share one key.
    let base = tiny_spec(0.01, 7);
    assert_eq!(base.content_key(), tiny_spec(0.01, 7).content_key());
    let mut relabeled = tiny_spec(0.01, 7);
    relabeled.label = "a different display label".into();
    assert_eq!(
        base.content_key(),
        relabeled.content_key(),
        "label must not participate in the cache key"
    );

    // Any semantic change produces a different key.
    let mut variants = vec![tiny_spec(0.02, 7), tiny_spec(0.01, 8)];
    let mut other_layout = tiny_spec(0.01, 7);
    other_layout.config = mesh_config(&Layout::DiagonalBL);
    variants.push(other_layout);
    let mut other_traffic = tiny_spec(0.01, 7);
    other_traffic.kind = PointKind::OpenLoop {
        params: tiny_params(0.01, 7),
        traffic: TrafficSpec::Transpose { side: 8 },
        faults: None,
        epochs: None,
    };
    variants.push(other_traffic);
    let mut with_faults = tiny_spec(0.01, 7);
    with_faults.kind = PointKind::OpenLoop {
        params: tiny_params(0.01, 7),
        traffic: TrafficSpec::Uniform,
        faults: Some(FaultPlan::transient(1e-7, 3)),
        epochs: None,
    };
    variants.push(with_faults);

    let mut keys: Vec<String> = variants.iter().map(|s| s.content_key()).collect();
    keys.push(base.content_key());
    let unique: std::collections::HashSet<&String> = keys.iter().collect();
    assert_eq!(
        unique.len(),
        keys.len(),
        "every semantic mutation must change the cache key: {keys:?}"
    );
}

#[test]
fn parallel_sweep_output_is_byte_identical_to_serial() {
    let sweep = tiny_sweep("jobs_determinism");
    let serial = run_sweep(
        &sweep,
        &SweepOptions {
            jobs: 1,
            use_cache: false,
            cache_dir: scratch_cache_dir("serial"),
            shutdown: None,
            checkpoint_every: None,
            progress: None,
        },
    )
    .expect("serial sweep");
    let parallel = run_sweep(
        &sweep,
        &SweepOptions {
            jobs: 4,
            use_cache: false,
            cache_dir: scratch_cache_dir("parallel"),
            shutdown: None,
            checkpoint_every: None,
            progress: None,
        },
    )
    .expect("parallel sweep");

    assert!(serial.points.iter().all(|p| p.error.is_none()));
    assert_eq!(
        serial.points_json().to_string(),
        parallel.points_json().to_string(),
        "--jobs 1 and --jobs 4 must produce byte-identical point JSON"
    );
}

#[test]
fn second_run_is_fully_cached() {
    let sweep = tiny_sweep("cache_reuse");
    let cache_dir = scratch_cache_dir("reuse");
    let opts = SweepOptions {
        jobs: 2,
        use_cache: true,
        cache_dir: cache_dir.clone(),
        shutdown: None,
        checkpoint_every: None,
        progress: None,
    };

    let first = run_sweep(&sweep, &opts).expect("first run");
    assert_eq!(first.cache_hits, 0);
    assert_eq!(first.simulated, sweep.points.len());

    let second = run_sweep(&sweep, &opts).expect("second run");
    assert_eq!(second.simulated, 0, "second run must not simulate anything");
    assert_eq!(second.cache_hits, sweep.points.len());
    assert!((second.cache_hit_rate() - 1.0).abs() < f64::EPSILON);

    // Cached metrics are the simulated metrics, modulo the `cached` flag.
    for (a, b) in first.points.iter().zip(&second.points) {
        assert!(!a.cached);
        assert!(b.cached);
        assert!(a.latency_ns > 0.0, "{}: latency {}", a.label, a.latency_ns);
        assert!(a.power_w > 0.0, "{}: power {}", a.label, a.power_w);
        assert_eq!(a.label, b.label, "labels are re-applied on cache hits");
        assert_eq!(a.latency_ns, b.latency_ns);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.power_w, b.power_w);
        assert_eq!(a.delivered, b.delivered);
    }

    std::fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn no_cache_option_forces_resimulation() {
    let mut sweep = Sweep::new("no_cache_forces_resim");
    sweep.push(tiny_spec(0.01, 7));
    let cache_dir = scratch_cache_dir("nocache");

    let warm = run_sweep(
        &sweep,
        &SweepOptions {
            jobs: 1,
            use_cache: true,
            cache_dir: cache_dir.clone(),
            shutdown: None,
            checkpoint_every: None,
            progress: None,
        },
    )
    .expect("warm-up run");
    assert_eq!(warm.simulated, 1);

    let bypass = run_sweep(
        &sweep,
        &SweepOptions {
            jobs: 1,
            use_cache: false,
            cache_dir: cache_dir.clone(),
            shutdown: None,
            checkpoint_every: None,
            progress: None,
        },
    )
    .expect("bypass run");
    assert_eq!(bypass.cache_hits, 0);
    assert_eq!(bypass.simulated, 1);

    std::fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn invalid_point_fails_fast_before_any_simulation() {
    let mut sweep = Sweep::new("invalid_point");
    let mut bad = tiny_spec(0.01, 7);
    // 8x8 mesh needs 64 router configs; truncating makes it invalid.
    bad.config.routers.truncate(3);
    sweep.push(bad);
    let err = run_sweep(
        &sweep,
        &SweepOptions {
            jobs: 1,
            use_cache: false,
            cache_dir: scratch_cache_dir("invalid"),
            shutdown: None,
            checkpoint_every: None,
            progress: None,
        },
    );
    assert!(err.is_err(), "invalid configs must be rejected up front");
}
