//! `cmp_canneal` / `cmp_vips`: one Fig. 11 point — a synthetic
//! application on every tile of the 64-tile CMP, prewarmed, then run to
//! drain on Baseline and on Diagonal+BL. Closed loop: each core keeps at
//! most its 16 L1 MSHRs outstanding.

use std::hint::black_box;
use std::time::Instant;

use heteronoc::noc::checkpoint::fnv1a64;
use heteronoc::noc::config::NetworkConfig;
use heteronoc::noc::sched::SchedReport;
use heteronoc::noc::types::Cycle;
use heteronoc::power::NetworkPower;
use heteronoc::traffic::workloads::{Benchmark, SyntheticWorkload};
use heteronoc::traffic::TraceSource;
use heteronoc::{mesh_config, Layout};
use heteronoc_cmp::{CmpConfig, CmpSystem, CoreParams};
use heteronoc_verify::verify_config;

use crate::harness::{Scale, Traced, Unit};
use crate::stats::{percentile, timed};

/// The most sharing-heavy application of Fig. 11.
pub const CANNEAL: Benchmark = Benchmark::Canneal;
/// A low-sharing, high-locality, DRAM-bound application of Fig. 11.
pub const VIPS: Benchmark = Benchmark::Vips;

const TILES: usize = 64;
/// The cycle budget `fig11_applications` gives a run to drain.
const MAX_CYCLES: Cycle = 20_000_000;

fn refs_per_core(scale: Scale) -> u64 {
    match scale {
        Scale::Bench => 2_500,
        Scale::Smoke => 20,
    }
}

/// Baseline and Diagonal+BL, each configuration proven deadlock-free.
fn configs() -> Result<Vec<(Layout, NetworkConfig)>, String> {
    [Layout::Baseline, Layout::DiagonalBL]
        .into_iter()
        .map(|l| {
            let cfg = mesh_config(&l);
            verify_config(l.name(), &cfg).map_err(|e| format!("{}: {e}", l.name()))?;
            Ok((l, cfg))
        })
        .collect()
}

fn traces(bench: Benchmark, seed: u64, refs: u64) -> Vec<Box<dyn TraceSource + Send>> {
    (0..TILES)
        .map(|t| {
            Box::new(SyntheticWorkload::new(bench, t, seed, refs)) as Box<dyn TraceSource + Send>
        })
        .collect()
}

/// A system built and prewarmed the way `fig11_applications` does, with
/// the host seconds `CmpSystem::new` and `prewarm` took.
struct Built {
    sys: CmpSystem,
    new_s: f64,
    prewarm_s: f64,
}

fn build(cfg: &NetworkConfig, bench: Benchmark, seed: u64, refs: u64) -> Built {
    let (new_s, mut sys) = timed(|| {
        CmpSystem::new(
            CmpConfig::paper_defaults(cfg.clone()),
            vec![CoreParams::OUT_OF_ORDER; TILES],
            traces(bench, seed, refs),
        )
    });
    let (prewarm_s, ()) = timed(|| sys.prewarm(traces(bench, seed, refs)));
    Built {
        sys,
        new_s,
        prewarm_s,
    }
}

/// Host seconds of one set-up: both configurations built and verified,
/// and each layout's system built and prewarmed. The systems are dropped
/// one at a time, outside the timer.
pub fn setup_s(bench: Benchmark, seed: u64, scale: Scale) -> Result<f64, String> {
    let (mut secs, cfgs) = timed(configs);
    for (_, cfg) in &cfgs? {
        let (s, built) = timed(|| build(cfg, bench, seed, refs_per_core(scale)));
        secs += s;
        drop(built);
    }
    Ok(secs)
}

/// Appends the simulated results of a drained run to `text` (the digest
/// input) and records a failure if the run did not drain.
fn record(
    layout: &Layout,
    cfg: &NetworkConfig,
    sys: &CmpSystem,
    text: &mut String,
    unit: &mut Unit,
) {
    if !sys.finished() {
        unit.failures.push(format!(
            "{}: did not drain within {MAX_CYCLES} cycles",
            layout.name()
        ));
    }
    let st = sys.stats();
    let net = sys.network().stats();
    let power = NetworkPower::paper_calibrated()
        .evaluate(cfg, &cfg.build_graph(), net)
        .total_w();
    text.push_str(&format!(
        "{}|{}|{:?}|{}|{}|{}|{}|{}|{:x}|{}|{:x}|{:x};",
        layout.name(),
        sys.now(),
        sys.committed(),
        st.l1_hits,
        st.l1_misses,
        st.mem_reads,
        st.mem_writes,
        st.mem_round_trip.count(),
        st.mem_round_trip.mean().to_bits(),
        net.packets_retired,
        net.latency.mean_total().to_bits(),
        power.to_bits(),
    ));
    unit.packets += net.packets_retired;
    unit.cycles += sys.now();
}

/// One untraced repetition: the timed phase is `CmpSystem::run` on each
/// layout; building and prewarming the systems is set-up.
pub fn unit(bench: Benchmark, seed: u64, scale: Scale) -> Unit {
    let refs = refs_per_core(scale);
    let mut unit = Unit::default();
    let cfgs = match configs() {
        Ok(cfgs) => cfgs,
        Err(e) => {
            unit.failures.push(e);
            return unit;
        }
    };
    unit.attempted = cfgs.len() as u64;
    let mut text = String::new();
    let mut committed = Vec::new();
    for (layout, cfg) in &cfgs {
        let Built { mut sys, .. } = build(cfg, bench, seed, refs);
        let (wall_s, _) = timed(|| sys.run(MAX_CYCLES));
        unit.wall_s += wall_s;
        record(layout, cfg, &sys, &mut text, &mut unit);
        committed.push(sys.committed());
    }
    // The same trace must commit the same instructions on every core
    // whatever the network: the layout changes timing only.
    if committed.windows(2).any(|w| w[0] != w[1]) {
        unit.failures
            .push("per-core committed instructions differ between layouts".to_owned());
    }
    unit.digest = fnv1a64(text.as_bytes());
    unit
}

/// One traced repetition: an untraced unit, the trace generators drained
/// on their own, then each layout rebuilt and driven one core cycle per
/// `run` call with a timer around every tick. A tick in which the network
/// clock did not advance is pure CMP-substrate cost (cores, L1s, banks,
/// controllers); its median times the core cycles estimates the
/// substrate's share of the run. The traced runs must reproduce the
/// untraced digest.
pub fn traced(bench: Benchmark, seed: u64, scale: Scale) -> Traced {
    let mut unit = unit(bench, seed, scale);
    let refs = refs_per_core(scale);

    // The run and the prewarm each drain one generator per tile.
    let (tracegen_s, records) = timed(|| {
        let mut n = 0u64;
        for _ in 0..2 {
            for mut t in traces(bench, seed, refs) {
                while let Some(r) = t.next_record() {
                    black_box(r);
                    n += 1;
                }
            }
        }
        n
    });

    let (mut new_s, mut prewarm_s, mut run_s) = (0.0, 0.0, 0.0);
    let (mut ticks, mut nostep): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    let mut sched = SchedReport::default();
    let (mut core_cycles, mut net_steps, mut committed_sum) = (0u64, 0u64, 0u64);
    let (mut l1_hits, mut l1_misses, mut mem_reads, mut mem_writes) = (0u64, 0u64, 0u64, 0u64);
    let (mut rt_count, mut rt_sum, mut ipc_sum) = (0u64, 0.0, 0.0);
    let (mut retired, mut latency_sum) = (0u64, 0.0);
    let mut text = String::new();
    let mut check = Unit::default();
    // A failed verification is already among the unit's failures.
    let cfgs = configs().unwrap_or_default();
    for (layout, cfg) in &cfgs {
        let Built {
            mut sys,
            new_s: n,
            prewarm_s: p,
        } = build(cfg, bench, seed, refs);
        new_s += n;
        prewarm_s += p;

        let run_start = Instant::now();
        while sys.now() < MAX_CYCLES {
            let (now, net_now) = (sys.now(), sys.network().now());
            let t0 = Instant::now();
            sys.run(now + 1);
            let ns = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
            if sys.now() == now {
                break; // drained: `run` had nothing left to tick
            }
            ticks.push(ns);
            if sys.network().now() == net_now {
                nostep.push(ns);
            }
        }
        run_s += run_start.elapsed().as_secs_f64();

        record(layout, cfg, &sys, &mut text, &mut check);
        let st = sys.stats();
        let net = sys.network();
        sched.merge(&net.sched_report());
        core_cycles += sys.now();
        net_steps += net.now();
        committed_sum += sys.committed().iter().sum::<u64>();
        l1_hits += st.l1_hits;
        l1_misses += st.l1_misses;
        mem_reads += st.mem_reads;
        mem_writes += st.mem_writes;
        rt_count += st.mem_round_trip.count();
        rt_sum += st.mem_round_trip.mean() * st.mem_round_trip.count() as f64;
        let ipcs = sys.ipcs();
        ipc_sum += ipcs.iter().sum::<f64>() / ipcs.len() as f64;
        retired += net.stats().packets_retired;
        latency_sum += net.stats().latency.mean_total() * net.stats().packets_retired as f64;
    }
    unit.failures.extend(check.failures);
    if fnv1a64(text.as_bytes()) != unit.digest {
        unit.failures
            .push("traced CMP runs diverged from the untraced digest".to_owned());
    }

    let tick_count = ticks.len() as f64;
    let nostep_count = nostep.len() as f64;
    let nostep_p50 = percentile(&mut nostep, 0.5);
    let mut layers = crate::noc_layers(&sched, retired, latency_sum);
    layers.extend([
        ("cmp.new_s".to_owned(), new_s),
        ("cmp.prewarm_s".to_owned(), prewarm_s),
        ("cmp.run_s".to_owned(), run_s),
        ("cmp.core_cycles".to_owned(), core_cycles as f64),
        ("cmp.net_steps".to_owned(), net_steps as f64),
        ("cmp.committed".to_owned(), committed_sum as f64),
        ("cmp.ipc_mean".to_owned(), ipc_sum / cfgs.len().max(1) as f64),
        ("cmp.l1_hits".to_owned(), l1_hits as f64),
        ("cmp.l1_misses".to_owned(), l1_misses as f64),
        (
            "cmp.l1_hit_ratio".to_owned(),
            l1_hits as f64 / (l1_hits + l1_misses).max(1) as f64,
        ),
        ("cmp.mem_reads".to_owned(), mem_reads as f64),
        ("cmp.mem_writes".to_owned(), mem_writes as f64),
        (
            "cmp.mem_round_trip_cycles".to_owned(),
            rt_sum / rt_count.max(1) as f64,
        ),
        ("cmp.tick_ns_p50".to_owned(), percentile(&mut ticks, 0.5)),
        ("cmp.tick_ns_p99".to_owned(), percentile(&mut ticks, 0.99)),
        ("cmp.ticks".to_owned(), tick_count),
        ("cmp.nostep_tick_ns_p50".to_owned(), nostep_p50),
        ("cmp.nostep_ticks".to_owned(), nostep_count),
        (
            "cmp.substrate_share_est".to_owned(),
            nostep_p50 * 1e-9 * core_cycles as f64 / run_s,
        ),
        ("traffic.tracegen_s".to_owned(), tracegen_s),
        ("traffic.records".to_owned(), records as f64),
        ("trace.overhead_frac".to_owned(), run_s / unit.wall_s - 1.0),
    ]);
    Traced { unit, layers }
}
