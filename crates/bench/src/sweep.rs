//! Parallel sweep-orchestration engine.
//!
//! A [`Sweep`] describes a grid of simulation points — each a full network
//! configuration plus a [`PointKind`] saying *what* to run on it (an
//! open-loop load point, a full CMP system, the closed-loop memory
//! request/response study, or a fault-degradation run, which is also what
//! every point of a reliability campaign ([`crate::campaign`]) is).
//! [`run_sweep`] shards the points across a
//! configurable worker pool (std threads + channels; the offline `compat/`
//! situation rules out rayon) and reassembles results in grid order, so
//! the output is byte-identical regardless of worker count:
//!
//! * **Seeding discipline** — every point carries its own RNG seed inside
//!   its `SimParams` / fault plan / workload spec. Workers never share
//!   RNG state and never derive seeds from scheduling order, so a point's
//!   result is a pure function of its spec.
//! * **Order discipline** — results are tagged with their grid index and
//!   re-sorted by the coordinator; wall-clock completion order never leaks
//!   into the output.
//!
//! Completed points are memoized in a content-addressed cache
//! (see [`crate::cache`]) as each one finishes: re-running a sweep — or
//! resuming a killed one — skips every point whose configuration hash is
//! already on disk, making iterative figure work and CI incremental.
//! [`SweepOutcome::write_json`] emits the machine-readable
//! `results/<name>.json` (points, latency/throughput/power, wall time,
//! cache hit rate) next to the human-readable text tables.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use heteronoc::noc::checkpoint::{config_hash, Checkpoint};
use heteronoc::noc::config::NetworkConfig;
use heteronoc::noc::error::ConfigError;
use heteronoc::noc::fault::FaultPlan;
use heteronoc::noc::metrics::EpochSample;
use heteronoc::noc::network::Network;
use heteronoc::noc::sched::SchedReport;
use heteronoc::noc::sim::{params_hash, SimParams, SimRun, Traffic, UniformRandom};
use heteronoc::noc::types::{Bits, Cycle, NodeId};
use heteronoc::power::{NetworkPower, PowerBreakdown};
use heteronoc::traffic::patterns::{
    BitComplement, BitReverse, Hotspot, NearestNeighbor, Shuffle, Tornado, Transpose,
};
use heteronoc::traffic::trace::VecTrace;
use heteronoc::traffic::workloads::{Benchmark, SyntheticWorkload};
use heteronoc::traffic::TraceSource;
use heteronoc_cmp::{corners4, ClosedLoop, CmpConfig, CmpSystem, CoreParams};
use heteronoc_obs::{ProgressSink, Registry, Snapshot};
use heteronoc_verify::{lint_config, run_with_degradation, Injection, LintOptions};

use crate::cache::{content_key, ResultCache, SCHEMA_VERSION};
use crate::json::Json;
use crate::results_dir;

/// A traffic pattern as *data*, so sweep points can be hashed for the
/// result cache and instantiated independently inside worker threads.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficSpec {
    /// Uniform-random destinations.
    Uniform,
    /// Nearest-neighbor on a `width x height` grid.
    NearestNeighbor {
        /// Grid width.
        width: usize,
        /// Grid height.
        height: usize,
    },
    /// Matrix-transpose on a `side x side` grid.
    Transpose {
        /// Grid side.
        side: usize,
    },
    /// Bit-complement permutation.
    BitComplement,
    /// Bit-reversal permutation.
    BitReverse,
    /// Tornado (half-ring offset) on a `width x height` grid.
    Tornado {
        /// Grid width.
        width: usize,
        /// Grid height.
        height: usize,
    },
    /// Perfect-shuffle permutation.
    Shuffle,
    /// Hotspot: a fraction of packets targets the given nodes.
    Hotspot {
        /// Hot destinations (node ids).
        hotspots: Vec<usize>,
        /// Fraction of traffic aimed at a hotspot.
        hot_fraction: f64,
    },
}

impl TrafficSpec {
    /// Short name for labels and CLI parsing.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficSpec::Uniform => "ur",
            TrafficSpec::NearestNeighbor { .. } => "nn",
            TrafficSpec::Transpose { .. } => "transpose",
            TrafficSpec::BitComplement => "bit-complement",
            TrafficSpec::BitReverse => "bit-reverse",
            TrafficSpec::Tornado { .. } => "tornado",
            TrafficSpec::Shuffle => "shuffle",
            TrafficSpec::Hotspot { .. } => "hotspot",
        }
    }

    /// Builds the live pattern this spec describes.
    pub fn instantiate(&self) -> Box<dyn Traffic> {
        match self {
            TrafficSpec::Uniform => Box::new(UniformRandom),
            TrafficSpec::NearestNeighbor { width, height } => {
                Box::new(NearestNeighbor::new(*width, *height))
            }
            TrafficSpec::Transpose { side } => Box::new(Transpose::new(*side)),
            TrafficSpec::BitComplement => Box::new(BitComplement),
            TrafficSpec::BitReverse => Box::new(BitReverse),
            TrafficSpec::Tornado { width, height } => Box::new(Tornado::new(*width, *height)),
            TrafficSpec::Shuffle => Box::new(Shuffle),
            TrafficSpec::Hotspot {
                hotspots,
                hot_fraction,
            } => Box::new(Hotspot::new(
                hotspots.iter().map(|&n| NodeId(n)).collect(),
                *hot_fraction,
            )),
        }
    }
}

/// What to run on a point's network configuration.
#[derive(Clone, Debug)]
pub enum PointKind {
    /// Open-loop synthetic-traffic load point (the paper's §4 methodology).
    OpenLoop {
        /// Simulation parameters (injection rate, batch sizes, seed …).
        params: SimParams,
        /// Traffic pattern.
        traffic: TrafficSpec,
        /// Optional fault-injection plan (transient BER and/or hard kills).
        faults: Option<FaultPlan>,
        /// Epoch length of the time-series (`None` = off). When
        /// set, the point's [`PointMetrics::epochs`] carries one sample per
        /// epoch into `results/<name>.json`.
        epochs: Option<Cycle>,
    },
    /// Full CMP system run (cores, caches, directory, memory controllers)
    /// until every trace drains.
    Cmp(CmpSpec),
    /// The §6 closed-loop request/response study ([`ClosedLoop`]):
    /// every non-controller node keeps 16 requests (its L1 MSHRs)
    /// outstanding to uniformly chosen memory controllers, which reply
    /// at once.
    ClosedLoop {
        /// Memory-controller nodes.
        mcs: Vec<NodeId>,
        /// Round trips measured (after a quarter as many warm up).
        measure: u64,
        /// Destination-choice RNG seed.
        seed: u64,
    },
    /// All-pairs fault-degradation run with CDG-verified rerouting; its
    /// [`PointMetrics::reliability`] carries the loss, latency-percentile
    /// and recovery numbers.
    Degradation {
        /// Fault plan (hard kills fire mid-campaign).
        plan: FaultPlan,
        /// Number of all-pairs bursts injected.
        bursts: u64,
        /// Cycles between consecutive injections.
        spacing: Cycle,
        /// Drain watchdog in cycles.
        stall_limit: Cycle,
    },
}

/// Everything that determines a CMP system run, indexed by node where
/// per-core.
#[derive(Clone, Debug)]
pub struct CmpSpec {
    /// Each core's application; `None` leaves the core idle.
    pub workloads: Vec<Option<Benchmark>>,
    /// Trace RNG seed.
    pub seed: u64,
    /// Memory references in each running core's trace.
    pub refs: u64,
    /// Each core's microarchitecture.
    pub cores: Vec<CoreParams>,
    /// Nodes whose traffic travels in the expedited class (§7 large cores).
    pub expedited: Vec<NodeId>,
    /// Memory-controller nodes.
    pub mcs: Vec<NodeId>,
    /// Functionally warm the caches with the same traces before timing.
    pub prewarm: bool,
}

impl CmpSpec {
    /// The paper's 64-tile CMP (Table 2: out-of-order cores, four corner
    /// memory controllers, prewarmed caches) with `benchmark` on every
    /// tile.
    pub fn uniform(benchmark: Benchmark, refs: u64, seed: u64) -> CmpSpec {
        CmpSpec {
            workloads: vec![Some(benchmark); 64],
            seed,
            refs,
            cores: vec![CoreParams::OUT_OF_ORDER; 64],
            expedited: Vec::new(),
            mcs: corners4(8, 8),
            prewarm: true,
        }
    }
}

/// One point of a sweep: a network configuration plus what to run on it.
#[derive(Clone, Debug)]
pub struct PointSpec {
    /// Display label (excluded from the cache key, so relabeling a sweep
    /// does not invalidate its cached results).
    pub label: String,
    /// The full network configuration.
    pub config: NetworkConfig,
    /// What to simulate.
    pub kind: PointKind,
}

impl PointSpec {
    /// The canonical description hashed into the cache key: the `Debug`
    /// rendering of everything that determines the result (config, params,
    /// traffic, fault plan, seeds) and nothing that doesn't.
    pub fn canonical(&self) -> String {
        format!("v{SCHEMA_VERSION}|{:?}|{:?}", self.config, self.kind)
    }

    /// Content-address of this point for the result cache.
    pub fn content_key(&self) -> String {
        content_key(&self.canonical())
    }
}

/// Measured results of one sweep point. Counters that a point kind does
/// not produce are zero; latencies a kind does not measure are NaN
/// (serialized as JSON `null`).
#[derive(Clone, Debug, PartialEq)]
pub struct PointMetrics {
    /// Display label, copied from the spec.
    pub label: String,
    /// Offered load in packets/node/cycle (NaN for the other kinds).
    pub rate: f64,
    /// Mean packet latency in nanoseconds.
    pub latency_ns: f64,
    /// Mean packet latency in cycles.
    pub latency_cycles: f64,
    /// Accepted throughput in packets/node/cycle.
    pub throughput: f64,
    /// Network power in watts (activity-based model).
    pub power_w: f64,
    /// Whether the run saturated.
    pub saturated: bool,
    /// Cycles simulated (for degradation points: drain cycle).
    pub cycles: u64,
    /// Packets retired.
    pub delivered: u64,
    /// Packets dropped by the fault layer.
    pub dropped: u64,
    /// Flit retransmissions (go-back-N replays).
    pub retransmissions: u64,
    /// Flits rejected by the link CRC.
    pub flits_corrupted: u64,
    /// CDG-verified reroutes performed (degradation points only).
    pub reroutes: u64,
    /// Mean per-core IPC (CMP points only; NaN otherwise).
    pub mean_ipc: f64,
    /// True when this result was served from the cache, not simulated.
    pub cached: bool,
    /// Execution attempts this result took (2 when the first attempt
    /// panicked and the retry ran; cached results keep the recorded count).
    pub attempts: u64,
    /// Epoch time-series, pre-serialized to the sweep-JSON schema (`None`
    /// unless the point kind asked for epochs). Deterministic per spec, so
    /// it round-trips through the cache and the jobs-independence of the
    /// sweep JSON is preserved.
    pub epochs: Option<Json>,
    /// Scheduler engine counters (full/idle/jumped cycles, router visits,
    /// wake histogram) for open-loop and CMP points; `None` for
    /// degradation points and failures. Deterministic per spec, so it is
    /// cached and serialized alongside the other metrics. The counters
    /// are observational and not checkpointed: a point resumed from a
    /// mid-run checkpoint reports only its post-restore activity.
    pub sched: Option<SchedReport>,
    /// Wall-clock seconds this point took to simulate. Run-specific by
    /// nature, so it is *not* serialized (cached points report 0.0); the
    /// CLI's `--profile` table reads it from fresh runs only.
    pub wall_secs: f64,
    /// Why the point failed, if it did.
    pub error: Option<String>,
    /// System-level results of CMP and closed-loop points; `None` for the
    /// other kinds, whose JSON therefore has no `system` member.
    pub system: Option<SystemMetrics>,
    /// Reliability results of degradation points; `None` for the other
    /// kinds, whose JSON therefore has no `reliability` member.
    pub reliability: Option<ReliabilityMetrics>,
}

/// System-level results of a CMP or closed-loop point. What a closed-loop
/// point does not measure (network latency split, power, IPCs, memory
/// reads) is NaN, empty or zero.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemMetrics {
    /// Mean packet latency split into queuing, blocking and transfer
    /// cycles.
    pub latency_breakdown: (f64, f64, f64),
    /// Network power by component, in watts.
    pub power: PowerBreakdown,
    /// Per-core IPC, by node.
    pub ipcs: Vec<f64>,
    /// Reads served by the memory controllers.
    pub mem_reads: u64,
    /// Memory round trip (request to data back) mean, in core cycles for
    /// CMP points and network cycles for closed-loop points.
    pub round_trip_mean: f64,
    /// Coefficient of variation of the round trip.
    pub round_trip_cov: f64,
    /// Request leg (request to arrival at the controller) mean.
    pub request_leg_mean: f64,
    /// Coefficient of variation of the request leg.
    pub request_leg_cov: f64,
}

impl SystemMetrics {
    /// The point's `system` member: `latency_breakdown` as [queuing,
    /// blocking, transfer], `power` as [buffers, crossbar, arbiters,
    /// links], `ipcs` by node, `mem_reads`, and `round_trip` and
    /// `request_leg` as [mean, CoV].
    fn to_json(&self) -> Json {
        let (q, b, t) = self.latency_breakdown;
        let p = &self.power;
        let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
        Json::obj(vec![
            ("latency_breakdown", nums(&[q, b, t])),
            ("power", nums(&[p.buffers, p.crossbar, p.arbiters, p.links])),
            ("ipcs", nums(&self.ipcs)),
            ("mem_reads", int(self.mem_reads)),
            (
                "round_trip",
                nums(&[self.round_trip_mean, self.round_trip_cov]),
            ),
            (
                "request_leg",
                nums(&[self.request_leg_mean, self.request_leg_cov]),
            ),
        ])
    }

    /// Reads what [`SystemMetrics::to_json`] writes (`null` reads as NaN).
    fn from_json(v: &Json) -> Option<SystemMetrics> {
        let nums = |k: &str| -> Option<Vec<f64>> {
            let xs = v.get(k)?.as_arr()?;
            Some(xs.iter().map(|x| x.as_f64().unwrap_or(f64::NAN)).collect())
        };
        let [q, b, t] = nums("latency_breakdown")?[..] else {
            return None;
        };
        let [buffers, crossbar, arbiters, links] = nums("power")?[..] else {
            return None;
        };
        let [round_trip_mean, round_trip_cov] = nums("round_trip")?[..] else {
            return None;
        };
        let [request_leg_mean, request_leg_cov] = nums("request_leg")?[..] else {
            return None;
        };
        Some(SystemMetrics {
            latency_breakdown: (q, b, t),
            power: PowerBreakdown {
                buffers,
                crossbar,
                arbiters,
                links,
            },
            ipcs: nums("ipcs")?,
            mem_reads: v.get("mem_reads")?.as_u64()?,
            round_trip_mean,
            round_trip_cov,
            request_leg_mean,
            request_leg_cov,
        })
    }
}

/// What a degradation point reports beyond the shared counters: the
/// numbers a reliability campaign's manifest and curves are built from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReliabilityMetrics {
    /// Packets permanently lost (dropped and not recovered).
    pub permanent: u64,
    /// Median delivery latency in cycles (0 when nothing was delivered).
    pub latency_p50: u64,
    /// 99th-percentile delivery latency in cycles.
    pub latency_p99: u64,
    /// End-to-end reinjections of retained packets.
    pub reinjections: u64,
    /// Flits those reinjections sent.
    pub reinjected_flits: u64,
    /// Packets delivered only thanks to a reinjection.
    pub recovered: u64,
    /// Duplicate ejections the destinations suppressed.
    pub duplicates_suppressed: u64,
}

impl ReliabilityMetrics {
    /// The point's `reliability` member: one integer per field.
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("permanent", int(self.permanent)),
            ("latency_p50", int(self.latency_p50)),
            ("latency_p99", int(self.latency_p99)),
            ("reinjections", int(self.reinjections)),
            ("reinjected_flits", int(self.reinjected_flits)),
            ("recovered", int(self.recovered)),
            ("duplicates_suppressed", int(self.duplicates_suppressed)),
        ])
    }

    /// Reads what [`ReliabilityMetrics::to_json`] writes.
    fn from_json(v: &Json) -> Option<ReliabilityMetrics> {
        let count = |k: &str| v.get(k).and_then(Json::as_u64);
        Some(ReliabilityMetrics {
            permanent: count("permanent")?,
            latency_p50: count("latency_p50")?,
            latency_p99: count("latency_p99")?,
            reinjections: count("reinjections")?,
            reinjected_flits: count("reinjected_flits")?,
            recovered: count("recovered")?,
            duplicates_suppressed: count("duplicates_suppressed")?,
        })
    }
}

/// A point that measured nothing: NaN rates, latencies and power, zero
/// counters, one attempt, no error.
impl Default for PointMetrics {
    fn default() -> PointMetrics {
        PointMetrics {
            label: String::new(),
            rate: f64::NAN,
            latency_ns: f64::NAN,
            latency_cycles: f64::NAN,
            throughput: f64::NAN,
            power_w: f64::NAN,
            saturated: false,
            cycles: 0,
            delivered: 0,
            dropped: 0,
            retransmissions: 0,
            flits_corrupted: 0,
            reroutes: 0,
            mean_ipc: f64::NAN,
            cached: false,
            attempts: 1,
            epochs: None,
            sched: None,
            wall_secs: 0.0,
            error: None,
            system: None,
            reliability: None,
        }
    }
}

impl PointMetrics {
    pub(crate) fn failed(label: String, error: String) -> PointMetrics {
        PointMetrics {
            label,
            error: Some(error),
            ..PointMetrics::default()
        }
    }

    /// Serializes to the sweep-JSON schema. `cached` is included so the
    /// sweep JSON records which points were simulated this run.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("label", Json::Str(self.label.clone())),
            ("rate", Json::Num(self.rate)),
            ("latency_ns", Json::Num(self.latency_ns)),
            ("latency_cycles", Json::Num(self.latency_cycles)),
            ("throughput", Json::Num(self.throughput)),
            ("power_w", Json::Num(self.power_w)),
            ("saturated", Json::Bool(self.saturated)),
            ("cycles", int(self.cycles)),
            ("delivered", int(self.delivered)),
            ("dropped", int(self.dropped)),
            ("retransmissions", int(self.retransmissions)),
            ("flits_corrupted", int(self.flits_corrupted)),
            ("reroutes", int(self.reroutes)),
            ("mean_ipc", Json::Num(self.mean_ipc)),
            ("cached", Json::Bool(self.cached)),
            ("attempts", int(self.attempts)),
            ("epochs", self.epochs.clone().unwrap_or(Json::Null)),
            (
                "sched",
                self.sched.as_ref().map_or(Json::Null, sched_to_json),
            ),
            (
                "error",
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
        ];
        if let Some(system) = &self.system {
            members.push(("system", system.to_json()));
        }
        if let Some(reliability) = &self.reliability {
            members.push(("reliability", reliability.to_json()));
        }
        Json::obj(members)
    }

    /// Deserializes from the sweep-JSON schema (used by the cache).
    /// Returns `None` when a required member is missing or mistyped.
    pub fn from_json(v: &Json) -> Option<PointMetrics> {
        let num = |k: &str| -> f64 { v.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN) };
        let count = |k: &str| -> Option<u64> { v.get(k).and_then(Json::as_u64) };
        Some(PointMetrics {
            label: v.get("label")?.as_str()?.to_owned(),
            rate: num("rate"),
            latency_ns: num("latency_ns"),
            latency_cycles: num("latency_cycles"),
            throughput: num("throughput"),
            power_w: num("power_w"),
            saturated: v.get("saturated")?.as_bool()?,
            cycles: count("cycles")?,
            delivered: count("delivered")?,
            dropped: count("dropped")?,
            retransmissions: count("retransmissions")?,
            flits_corrupted: count("flits_corrupted")?,
            reroutes: count("reroutes")?,
            mean_ipc: num("mean_ipc"),
            cached: false,
            attempts: count("attempts").unwrap_or(1),
            epochs: match v.get("epochs") {
                None | Some(Json::Null) => None,
                Some(j) => Some(j.clone()),
            },
            sched: v.get("sched").and_then(sched_from_json),
            wall_secs: 0.0,
            error: v.get("error").and_then(Json::as_str).map(str::to_owned),
            system: v.get("system").and_then(SystemMetrics::from_json),
            reliability: v.get("reliability").and_then(ReliabilityMetrics::from_json),
        })
    }
}

/// Serializes scheduler counters to the sweep-JSON schema.
fn sched_to_json(s: &SchedReport) -> Json {
    Json::obj(vec![
        ("cycles", int(s.cycles)),
        ("full_cycles", int(s.full_cycles)),
        ("idle_cycles", int(s.idle_cycles)),
        ("jumped_cycles", int(s.jumped_cycles)),
        ("router_visits", int(s.router_visits)),
        ("router_visits_skipped", int(s.router_visits_skipped)),
        (
            "wakes",
            Json::Arr(s.wakes.iter().map(|&w| int(w)).collect()),
        ),
        (
            "wake_hist",
            Json::Arr(s.wake_hist.iter().map(|&w| int(w)).collect()),
        ),
    ])
}

/// Deserializes scheduler counters (`None` for `null`, a missing member,
/// or a malformed object).
fn sched_from_json(v: &Json) -> Option<SchedReport> {
    if matches!(v, Json::Null) {
        return None;
    }
    let count = |k: &str| -> Option<u64> { v.get(k).and_then(Json::as_u64) };
    let mut s = SchedReport {
        cycles: count("cycles")?,
        full_cycles: count("full_cycles")?,
        idle_cycles: count("idle_cycles")?,
        jumped_cycles: count("jumped_cycles")?,
        router_visits: count("router_visits")?,
        router_visits_skipped: count("router_visits_skipped")?,
        ..SchedReport::default()
    };
    if let Some(Json::Arr(w)) = v.get("wakes") {
        for (slot, j) in s.wakes.iter_mut().zip(w.iter()) {
            *slot = j.as_u64()?;
        }
    }
    if let Some(Json::Arr(h)) = v.get("wake_hist") {
        for (slot, j) in s.wake_hist.iter_mut().zip(h.iter()) {
            *slot = j.as_u64()?;
        }
    }
    Some(s)
}

pub(crate) fn int(v: u64) -> Json {
    i64::try_from(v).map_or(Json::Num(v as f64), Json::Int)
}

/// A named grid of sweep points.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Sweep name; `results/<name>.json` is written from it.
    pub name: String,
    /// The points, in grid order.
    pub points: Vec<PointSpec>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new(name: impl Into<String>) -> Sweep {
        Sweep {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn push(&mut self, spec: PointSpec) {
        self.points.push(spec);
    }

    /// Builds the canonical open-loop grid: layout × pattern × seed ×
    /// injection rate (iterated in that nesting order). `configs` pairs a
    /// display name with a network configuration; `params` maps
    /// `(rate, seed)` to the point's simulation parameters.
    pub fn grid(
        name: impl Into<String>,
        configs: &[(String, NetworkConfig)],
        patterns: &[TrafficSpec],
        seeds: &[u64],
        rates: &[f64],
        params: impl Fn(f64, u64) -> SimParams,
    ) -> Sweep {
        let mut sweep = Sweep::new(name);
        for (cfg_name, cfg) in configs {
            for pattern in patterns {
                for &seed in seeds {
                    for &rate in rates {
                        sweep.push(PointSpec {
                            label: format!("{cfg_name}|{}|s{seed}|r{rate}", pattern.name()),
                            config: cfg.clone(),
                            kind: PointKind::OpenLoop {
                                params: params(rate, seed),
                                traffic: pattern.clone(),
                                faults: None,
                                epochs: None,
                            },
                        });
                    }
                }
            }
        }
        sweep
    }

    /// Turns on the epoch series (interval `every`) for every open-loop
    /// point. Changes the content of each point's result, so it is part of
    /// the cache key: a sweep with epochs does not collide with one without.
    #[must_use]
    pub fn with_epochs(mut self, every: Cycle) -> Sweep {
        for p in &mut self.points {
            if let PointKind::OpenLoop { epochs, .. } = &mut p.kind {
                *epochs = Some(every);
            }
        }
        self
    }
}

/// Executor knobs.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads (1 = run on the coordinator thread).
    pub jobs: usize,
    /// Whether to consult/populate the result cache.
    pub use_cache: bool,
    /// Cache directory (default `results/cache/`).
    pub cache_dir: PathBuf,
    /// Cooperative-shutdown flag (set by the CLI's signal handler). When
    /// it rises, workers stop drawing new points; in-flight points finish
    /// — or checkpoint and bail, if `checkpoint_every` is set — and the
    /// cache and result file still flush.
    pub shutdown: Option<Arc<AtomicBool>>,
    /// Auto-checkpoint open-loop points every N cycles into
    /// `<cache_dir>/<content_key>.ckpt`. A pending point with a matching
    /// valid checkpoint resumes from it instead of re-simulating from
    /// cycle 0; completed points delete their checkpoint.
    pub checkpoint_every: Option<Cycle>,
    /// Stream JSONL progress snapshots (`kind:"sweep"`, see
    /// [`heteronoc_obs::progress`]) to this sink spec — a file path, `-`
    /// for stdout, or `fd:N`. One snapshot after the cache scan, one per
    /// completed point (emitted on the coordinator thread, so the stream
    /// is totally ordered), and a final one flagged `done`. Observational
    /// only: results stay byte-identical with or without it.
    pub progress: Option<String>,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            jobs: default_jobs(),
            use_cache: !matches!(std::env::var("HETERONOC_NO_CACHE"), Ok(v) if v == "1"),
            cache_dir: results_dir().join("cache"),
            shutdown: None,
            checkpoint_every: None,
            progress: None,
        }
    }
}

/// Default worker count: `HETERONOC_JOBS` if set, else the machine's
/// available parallelism.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("HETERONOC_JOBS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Why a sweep could not run.
#[derive(Debug)]
pub enum SweepError {
    /// A point's configuration failed validation (caught before any worker
    /// is scheduled).
    InvalidPoint {
        /// The offending point's label.
        label: String,
        /// The validation failure.
        error: ConfigError,
    },
    /// Cache or result file I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::InvalidPoint { label, error } => {
                write!(f, "invalid sweep point '{label}': {error}")
            }
            SweepError::Io(e) => write!(f, "sweep I/O error: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> SweepError {
        SweepError::Io(e)
    }
}

/// Results of one sweep run.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The sweep's name.
    pub name: String,
    /// Worker threads used.
    pub jobs: usize,
    /// Per-point results, in grid order.
    pub points: Vec<PointMetrics>,
    /// Points served from the cache.
    pub cache_hits: usize,
    /// Points actually simulated this run.
    pub simulated: usize,
    /// Points never started because the shutdown flag rose (their grid
    /// slots carry an `interrupted` error and are not cached, so a re-run
    /// retries them).
    pub interrupted: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
}

impl SweepOutcome {
    /// Fraction of points served from the cache (0 for an empty sweep).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.cache_hits as f64 / self.points.len() as f64
        }
    }

    /// One line of run facts: wall time, simulated points and cache hits.
    /// They change from run to run, so they never go into a result file.
    pub fn summary(&self) -> String {
        format!(
            "wall {:.2}s · {} simulated · {} cache hit(s) ({:.0}%)",
            self.wall_secs,
            self.simulated,
            self.cache_hits,
            100.0 * self.cache_hit_rate()
        )
    }

    /// The points array alone — identical across worker counts, which is
    /// what the determinism tests compare (wall time and job count are
    /// run-specific by nature).
    pub fn points_json(&self) -> Json {
        Json::Arr(self.points.iter().map(PointMetrics::to_json).collect())
    }

    /// The results file: the schema, the sweep's name and its points.
    /// Run facts (workers, cache hits, wall time) differ from run to run,
    /// so they go to stderr through [`SweepOutcome::summary`] instead and
    /// a regenerated file differs only where a result does.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Int(i64::from(SCHEMA_VERSION))),
            ("name", Json::Str(self.name.clone())),
            ("num_points", int(self.points.len() as u64)),
            ("points", self.points_json()),
        ])
    }

    /// Writes `results/<name>.json`; returns the path.
    pub fn write_json(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json().pretty())?;
        Ok(path)
    }
}

/// Runs every point of `sweep`, using up to `opts.jobs` worker threads and
/// the result cache. Results come back in grid order; a failing point is
/// reported in its [`PointMetrics::error`] rather than aborting the sweep.
///
/// # Errors
/// [`SweepError::InvalidPoint`] when any point's configuration fails
/// validation (checked up front, before workers start);
/// [`SweepError::Io`] when the cache or result file cannot be written.
pub fn run_sweep(sweep: &Sweep, opts: &SweepOptions) -> Result<SweepOutcome, SweepError> {
    let start = Instant::now();

    // Fail fast: validate every configuration before scheduling anything.
    for p in &sweep.points {
        p.config
            .validate(&p.config.build_graph())
            .map_err(|error| SweepError::InvalidPoint {
                label: p.label.clone(),
                error,
            })?;
    }

    let mut cache = if opts.use_cache {
        Some(ResultCache::open(&opts.cache_dir)?)
    } else {
        None
    };

    let keys: Vec<String> = sweep.points.iter().map(PointSpec::content_key).collect();
    let mut results: Vec<Option<PointMetrics>> = vec![None; sweep.points.len()];
    let mut pending: Vec<(usize, &PointSpec)> = Vec::new();
    let mut cache_hits = 0usize;

    for (i, spec) in sweep.points.iter().enumerate() {
        let hit = cache
            .as_ref()
            .and_then(|c| c.get(&keys[i]))
            .and_then(PointMetrics::from_json);
        match hit {
            Some(mut m) => {
                m.label.clone_from(&spec.label);
                m.cached = true;
                results[i] = Some(m);
                cache_hits += 1;
            }
            None => pending.push((i, spec)),
        }
    }

    // Lint gate: run the static-analysis suite over each distinct pending
    // configuration before burning simulation time on it. Error-level
    // diagnostics (deadlock cycles, broken tables, partitioning fault
    // plans) fail the point fast; gate failures are never cached, so a
    // fixed configuration re-runs cleanly. Cached points passed the gate
    // when they were first simulated.
    let gate_opts = LintOptions {
        // Rates are point-specific and `HN-W005` is warning-level anyway;
        // the gate only acts on errors.
        rates: Vec::new(),
        ..LintOptions::default()
    };
    let mut gate_verdicts: HashMap<String, Option<String>> = HashMap::new();
    let mut gated: Vec<(usize, &PointSpec)> = Vec::with_capacity(pending.len());
    for (i, spec) in pending {
        let verdict = gate_verdicts
            .entry(format!("{:?}", spec.config))
            .or_insert_with(|| {
                lint_config(&spec.label, &spec.config, &gate_opts)
                    .errors()
                    .next()
                    .map(ToString::to_string)
            });
        match verdict {
            Some(e) => {
                results[i] = Some(PointMetrics::failed(
                    spec.label.clone(),
                    format!("lint: {e}"),
                ));
            }
            None => gated.push((i, spec)),
        }
    }
    let pending = gated;

    let scheduled = pending.len();
    let stop = opts.shutdown.clone();
    let labels: Vec<(usize, String)> = pending
        .iter()
        .map(|&(i, spec)| (i, spec.label.clone()))
        .collect();

    // Progress stream: the coordinator thread owns the sink; workers never
    // touch it (per-point snapshots ride the result channel's delivery on
    // the coordinator), so the stream is totally ordered and the workers'
    // determinism is untouched.
    let mut progress = match &opts.progress {
        Some(spec) => {
            let mut p = SweepProgress::open(spec, &sweep.name, sweep.points.len())
                .map_err(SweepError::Io)?;
            p.cached = cache_hits;
            // Lint-gate failures are already resolved before any worker runs.
            p.failed = results
                .iter()
                .flatten()
                .filter(|m| m.error.is_some())
                .count();
            p.resolved = p.failed;
            p.emit(false);
            Some(p)
        }
        None => None,
    };
    // Each point is cached the moment it arrives, so a sweep killed even
    // by SIGKILL keeps every point it finished. Failures are not cached: a
    // re-run should retry them.
    let mut cache_error = None;
    let computed = parallel_map_observed(
        opts.jobs,
        pending,
        stop.as_deref(),
        |(i, spec)| (i, run_point_ctx(spec, &point_ctx(&keys[i], opts))),
        |_, (i, m)| {
            if let (Some(c), None) = (cache.as_mut(), &m.error) {
                if let Err(e) = c.insert(keys[*i].clone(), m.to_json()) {
                    cache_error.get_or_insert(e);
                }
            }
            if let Some(p) = progress.as_mut() {
                p.note_point(m);
                p.emit(false);
            }
        },
    );
    if let Some(e) = cache_error {
        return Err(SweepError::Io(e));
    }
    let mut simulated = 0usize;
    for (i, metrics) in computed.into_iter().flatten() {
        simulated += 1;
        results[i] = Some(metrics);
    }
    // Points the shutdown flag kept from starting: record them as
    // interrupted so the grid stays complete; never cached.
    let interrupted = scheduled - simulated;
    for (i, label) in labels {
        if results[i].is_none() {
            results[i] = Some(PointMetrics::failed(label, INTERRUPTED.to_owned()));
        }
    }
    if let Some(p) = progress.as_mut() {
        p.interrupted = interrupted;
        p.emit(true);
    }

    Ok(SweepOutcome {
        name: sweep.name.clone(),
        jobs: opts.jobs,
        points: results
            .into_iter()
            .map(|r| r.expect("every point resolved"))
            .collect(),
        cache_hits,
        simulated,
        interrupted,
        wall_secs: start.elapsed().as_secs_f64(),
    })
}

/// The error of a point the shutdown flag kept from starting.
pub(crate) const INTERRUPTED: &str = "interrupted: shutdown requested before the point started";

/// Coordinator-side progress accounting for one sweep run, behind
/// [`SweepOptions::progress`]. Counts live here (not in the registry) so
/// each snapshot rebuilds a fresh registry — absolute readings, with
/// counter deltas against the previous snapshot.
struct SweepProgress {
    sink: ProgressSink,
    name: String,
    total: usize,
    cached: usize,
    /// Points resolved without the cache (simulated, lint-gated, failed).
    resolved: usize,
    failed: usize,
    interrupted: usize,
    seq: u64,
    started: Instant,
    prev: Registry,
    warned: bool,
}

impl SweepProgress {
    fn open(spec: &str, name: &str, total: usize) -> std::io::Result<SweepProgress> {
        Ok(SweepProgress {
            sink: ProgressSink::open(spec)?,
            name: name.to_owned(),
            total,
            cached: 0,
            resolved: 0,
            failed: 0,
            interrupted: 0,
            seq: 0,
            started: Instant::now(),
            prev: Registry::new(),
            warned: false,
        })
    }

    fn note_point(&mut self, m: &PointMetrics) {
        self.resolved += 1;
        if m.error.is_some() {
            self.failed += 1;
        }
    }

    fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.set_counter("sweep.points.total", self.total as u64);
        reg.set_counter("sweep.points.cached", self.cached as u64);
        reg.set_counter("sweep.points.resolved", self.resolved as u64);
        reg.set_counter("sweep.points.failed", self.failed as u64);
        reg.set_counter("sweep.points.interrupted", self.interrupted as u64);
        reg.set_counter("sweep.cache.hits", self.cached as u64);
        reg.set_counter("sweep.cache.misses", (self.total - self.cached) as u64);
        reg
    }

    fn emit(&mut self, done: bool) {
        let reg = self.registry();
        let elapsed = self.started.elapsed().as_secs_f64();
        let done_points = self.cached + self.resolved;
        let remaining = self.total.saturating_sub(done_points);
        let eta = if done {
            0.0
        } else if self.resolved > 0 && elapsed > 0.0 {
            remaining as f64 / (self.resolved as f64 / elapsed)
        } else {
            f64::NAN
        };
        let mut snap = Snapshot::new("sweep", self.seq);
        snap.field_str("name", &self.name)
            .field_u64("points_total", self.total as u64)
            .field_u64("points_done", done_points as u64)
            .field_u64("points_cached", self.cached as u64)
            .field_u64("points_failed", self.failed as u64)
            .field_u64("points_interrupted", self.interrupted as u64)
            .field_f64("elapsed_secs", elapsed)
            .field_f64("eta_secs", eta)
            .field_bool("done", done)
            .deltas("deltas", &reg, &self.prev)
            .registry("counters", &reg);
        if self.sink.emit(&snap).is_err() && !self.warned {
            eprintln!("warning: sweep progress sink write failed; further snapshots dropped");
            self.warned = true;
        }
        self.seq += 1;
        self.prev = reg;
    }
}

/// Per-point execution context: where to checkpoint (if anywhere) and the
/// cooperative-shutdown flag to hand the simulator.
#[derive(Clone, Debug, Default)]
struct PointCtx {
    ckpt: Option<(PathBuf, Cycle)>,
    shutdown: Option<Arc<AtomicBool>>,
}

fn point_ctx(key: &str, opts: &SweepOptions) -> PointCtx {
    PointCtx {
        ckpt: opts
            .checkpoint_every
            .map(|every| (opts.cache_dir.join(format!("{key}.ckpt")), every)),
        shutdown: opts.shutdown.clone(),
    }
}

/// Maximum execution attempts per point: a panicking first attempt gets
/// exactly one retry under a fresh `catch_unwind` (transient poison —
/// e.g. an allocation failure mid-run — should not cost the whole sweep a
/// point), then the panic is recorded as the point's error.
const MAX_POINT_ATTEMPTS: u64 = 2;

/// Runs one point, converting panics and typed errors into
/// [`PointMetrics::error`]. A panic is retried once; typed errors are
/// deterministic and fail immediately.
pub fn run_point(spec: &PointSpec) -> PointMetrics {
    run_point_ctx(spec, &PointCtx::default())
}

/// [`run_point`] with a checkpoint/shutdown context (the sweep engine's
/// entry point).
fn run_point_ctx(spec: &PointSpec, ctx: &PointCtx) -> PointMetrics {
    run_point_with(spec, || execute(&spec.config, &spec.kind, ctx))
}

/// [`run_point`] with the execution body injected (unit tests substitute
/// a panicking body to exercise the retry path).
fn run_point_with(
    spec: &PointSpec,
    body: impl Fn() -> Result<PointMetrics, String>,
) -> PointMetrics {
    let started = Instant::now();
    let mut attempts = 0u64;
    let mut m = loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(&body)) {
            Ok(Ok(mut m)) => {
                m.label.clone_from(&spec.label);
                break m;
            }
            Ok(Err(e)) => break PointMetrics::failed(spec.label.clone(), e),
            Err(_payload) if attempts < MAX_POINT_ATTEMPTS => continue,
            Err(payload) => {
                break PointMetrics::failed(spec.label.clone(), panic_message(payload.as_ref()))
            }
        }
    };
    m.attempts = attempts;
    m.wall_secs = started.elapsed().as_secs_f64();
    m
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_owned()
    }
}

fn execute(
    config: &NetworkConfig,
    kind: &PointKind,
    ctx: &PointCtx,
) -> Result<PointMetrics, String> {
    match kind {
        PointKind::OpenLoop {
            params,
            traffic,
            faults,
            epochs,
        } => {
            let graph = config.build_graph();
            let nodes = graph.num_nodes();
            let cfg_hash = config_hash(config);
            let net = match faults {
                Some(plan) => Network::with_faults(config.clone(), plan.clone()),
                None => Network::new(config.clone()),
            }
            .map_err(|e| e.to_string())?;
            let mut pattern = traffic.instantiate();
            let mut run = SimRun::new(net, *params).traffic(pattern.as_mut());
            if let Some(every) = epochs {
                run = run.epochs(*every);
            }
            let mut ckpt_path = None;
            if let Some((path, every)) = &ctx.ckpt {
                run = run.checkpoint_every(path.clone(), *every);
                ckpt_path = Some(path.clone());
                // Resume a prior interrupted attempt when its checkpoint
                // still matches this spec; anything incompatible or
                // unreadable is ignored (a fresh run overwrites it).
                if let Ok(c) = Checkpoint::load(path) {
                    if c.check_compat(cfg_hash, params_hash(params)).is_ok() {
                        run = run.resume_from(c);
                    }
                }
            }
            if let Some(flag) = &ctx.shutdown {
                run = run.shutdown_flag(Arc::clone(flag));
            }
            let out = run.run().map_err(|e| e.to_string())?;
            // The point finished: its checkpoint (if any) is dead weight.
            if let Some(path) = ckpt_path {
                let _ = std::fs::remove_file(path);
            }
            let power_w = NetworkPower::paper_calibrated()
                .evaluate(config, &graph, &out.stats)
                .total_w();
            Ok(PointMetrics {
                rate: params.injection_rate.get(),
                latency_ns: out.latency_ns(),
                latency_cycles: out.stats.latency.mean_total(),
                throughput: out.stats.throughput_ppc(nodes),
                power_w,
                saturated: out.saturated,
                cycles: out.cycles,
                delivered: out.stats.packets_retired,
                dropped: out.dropped,
                retransmissions: out.fault_counters.retransmissions,
                flits_corrupted: out.fault_counters.flits_corrupted,
                epochs: if out.epochs.is_empty() {
                    None
                } else {
                    Some(epochs_to_json(&out.epochs))
                },
                sched: Some(out.sched),
                ..PointMetrics::default()
            })
        }
        PointKind::Cmp(spec) => run_cmp(config, spec, ctx),
        PointKind::ClosedLoop { mcs, measure, seed } => {
            let mut run = ClosedLoop::new(config.clone(), mcs, 16, 0, *measure, *seed);
            run.run(ctx.shutdown.clone()).map_err(|e| e.to_string())?;
            let s = run.stats();
            let nan = f64::NAN;
            Ok(PointMetrics {
                cycles: s.cycles,
                delivered: s.completed,
                system: Some(SystemMetrics {
                    latency_breakdown: (nan, nan, nan),
                    power: PowerBreakdown {
                        buffers: nan,
                        crossbar: nan,
                        arbiters: nan,
                        links: nan,
                    },
                    ipcs: Vec::new(),
                    mem_reads: 0,
                    round_trip_mean: s.round_trip.mean(),
                    round_trip_cov: s.round_trip.cov(),
                    request_leg_mean: s.request_leg.mean(),
                    request_leg_cov: s.request_leg.cov(),
                }),
                ..PointMetrics::default()
            })
        }
        PointKind::Degradation {
            plan,
            bursts,
            spacing,
            stall_limit,
        } => {
            let nodes = config.build_graph().num_nodes();
            let injections = all_pairs_injections(nodes, *bursts, *spacing);
            let r = run_with_degradation(config.clone(), plan.clone(), &injections, *stall_limit)
                .map_err(|e| e.to_string())?;
            let (lat_sum, del_sum): (u64, u64) = r
                .phases
                .iter()
                .fold((0, 0), |(l, d), p| (l + p.latency_cycles, d + p.delivered));
            let latency_cycles = if del_sum == 0 {
                f64::NAN
            } else {
                lat_sum as f64 / del_sum as f64
            };
            Ok(PointMetrics {
                latency_ns: latency_cycles / config.frequency_ghz,
                latency_cycles,
                cycles: r.finished_at,
                delivered: r.delivered,
                dropped: r.dropped.len() as u64,
                retransmissions: r.counters.retransmissions,
                flits_corrupted: r.counters.flits_corrupted,
                reroutes: u64::from(r.reroutes),
                reliability: Some(ReliabilityMetrics {
                    permanent: r.permanent_losses(),
                    latency_p50: r.latency_percentile(0.50),
                    latency_p99: r.latency_percentile(0.99),
                    reinjections: r.recovery.reinjections,
                    reinjected_flits: r.recovery.reinjected_flits,
                    recovered: r.recovery.recovered,
                    duplicates_suppressed: r.recovery.duplicates_suppressed,
                }),
                ..PointMetrics::default()
            })
        }
    }
}

/// Every ordered (source, destination) pair of `nodes`, `bursts` times
/// over, one 512-bit packet every `spacing` cycles: the offered traffic of
/// degradation points.
pub fn all_pairs_injections(nodes: usize, bursts: u64, spacing: Cycle) -> Vec<Injection> {
    let mut injections = Vec::new();
    for _ in 0..bursts {
        for s in 0..nodes {
            for d in (0..nodes).filter(|&d| d != s) {
                injections.push(Injection {
                    cycle: injections.len() as Cycle * spacing,
                    src: NodeId(s),
                    dst: NodeId(d),
                    size: Bits(512),
                });
            }
        }
    }
    injections
}

/// Builds and runs the CMP system `spec` describes on `config`.
fn run_cmp(config: &NetworkConfig, spec: &CmpSpec, ctx: &PointCtx) -> Result<PointMetrics, String> {
    let graph = config.build_graph();
    let nodes = graph.num_nodes();
    if spec.workloads.len() != nodes || spec.cores.len() != nodes {
        return Err(format!(
            "CMP spec has {} workloads and {} cores for a {nodes}-node network",
            spec.workloads.len(),
            spec.cores.len()
        ));
    }
    let traces = || -> Vec<Box<dyn TraceSource + Send>> {
        spec.workloads
            .iter()
            .enumerate()
            .map(|(tile, w)| match *w {
                Some(b) => Box::new(SyntheticWorkload::new(b, tile, spec.seed, spec.refs))
                    as Box<dyn TraceSource + Send>,
                None => Box::new(VecTrace::default()),
            })
            .collect()
    };
    let mut cmp_cfg = CmpConfig::paper_defaults(config.clone());
    cmp_cfg.mc_nodes.clone_from(&spec.mcs);
    cmp_cfg.expedited_nodes.clone_from(&spec.expedited);
    let mut sys = CmpSystem::new(cmp_cfg, spec.cores.clone(), traces());
    if spec.prewarm {
        sys.prewarm(traces());
    }
    let cycles = sys
        .try_run(Cycle::MAX, ctx.shutdown.clone())
        .map_err(|e| format!("CMP system did not drain: {e}"))?;
    let ipcs = sys.ipcs();
    let stats = sys.network().stats();
    let power = NetworkPower::paper_calibrated().evaluate(config, &graph, stats);
    let mem = sys.stats();
    Ok(PointMetrics {
        latency_ns: stats.mean_latency_ns(config.frequency_ghz),
        latency_cycles: stats.latency.mean_total(),
        throughput: stats.throughput_ppc(nodes),
        power_w: power.total_w(),
        cycles,
        delivered: stats.packets_retired,
        mean_ipc: ipcs.iter().sum::<f64>() / ipcs.len() as f64,
        sched: Some(sys.network().sched_report()),
        system: Some(SystemMetrics {
            latency_breakdown: stats.latency.mean_breakdown(),
            power: power.breakdown,
            ipcs,
            mem_reads: mem.mem_reads,
            round_trip_mean: mem.mem_round_trip.mean(),
            round_trip_cov: mem.mem_round_trip.cov(),
            request_leg_mean: mem.mem_request_leg.mean(),
            request_leg_cov: mem.mem_request_leg.cov(),
        }),
        ..PointMetrics::default()
    })
}

/// Serializes an epoch time-series to the sweep-JSON schema: one object
/// per epoch, percentiles nested per latency component.
pub fn epochs_to_json(samples: &[EpochSample]) -> Json {
    let pctls = |p: &heteronoc::noc::stats::Pctls| {
        Json::obj(vec![
            ("p50", int(p.p50)),
            ("p95", int(p.p95)),
            ("p99", int(p.p99)),
        ])
    };
    Json::Arr(
        samples
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("start", int(s.start)),
                    ("end", int(s.end)),
                    ("injected", int(s.injected)),
                    ("ejected", int(s.ejected)),
                    (
                        "buffer_occ",
                        Json::Arr(s.buffer_occ.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                    (
                        "vc_busy",
                        Json::Arr(s.vc_busy.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                    (
                        "link_util",
                        Json::Arr(s.link_util.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                    (
                        "latency",
                        Json::obj(vec![
                            ("total", pctls(&s.latency.total)),
                            ("queuing", pctls(&s.latency.queuing)),
                            ("blocking", pctls(&s.latency.blocking)),
                            ("transfer", pctls(&s.latency.transfer)),
                        ]),
                    ),
                ])
            })
            .collect(),
    )
}

/// Maps `f` over `items` with up to `jobs` worker threads, preserving the
/// input order of the results. With `jobs <= 1` (or one item) everything
/// runs on the calling thread — bit-identical to the parallel path because
/// each item is processed independently.
///
/// Work is distributed through a shared queue (fast items don't idle a
/// worker that drew them), results return through a channel tagged with
/// their input index, and the coordinator reassembles them in order.
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_observed(jobs, items, None, f, |_, _| {})
        .into_iter()
        .map(|r| r.expect("no stop flag: every item runs"))
        .collect()
}

/// [`parallel_map`] with a cooperative stop flag and a completion
/// observer. Workers check `stop` before drawing each item and quit once
/// it rises, so in-flight items always finish while undrawn ones come
/// back as `None` (in input order). `on_each(i, &r)` runs on the
/// *coordinator* thread as each item's result arrives (in completion
/// order, not input order) — the hook the sweep's cache inserts and live
/// progress reporting hang off. The observer sees each result exactly
/// once and cannot change it.
fn parallel_map_observed<T, R, F, O>(
    jobs: usize,
    items: Vec<T>,
    stop: Option<&AtomicBool>,
    f: F,
    mut on_each: O,
) -> Vec<Option<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    O: FnMut(usize, &R),
{
    let stopped = || stop.is_some_and(|s| s.load(Ordering::SeqCst));
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                (!stopped()).then(|| {
                    let r = f(item);
                    on_each(i, &r);
                    r
                })
            })
            .collect();
    }
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            let stopped = &stopped;
            s.spawn(move || {
                loop {
                    if stopped() {
                        return;
                    }
                    let next = queue.lock().expect("queue lock").pop_front();
                    let Some((i, item)) = next else { return };
                    // A disconnected receiver means the coordinator gave
                    // up; stop quietly.
                    if tx.send((i, f(item))).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            on_each(i, &r);
            out[i] = Some(r);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use heteronoc::noc::types::Rate;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 4, 7] {
            assert_eq!(parallel_map(jobs, items.clone(), |x| x * x), expect);
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_singleton() {
        assert_eq!(parallel_map(4, Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(parallel_map(4, vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn traffic_specs_instantiate() {
        for spec in [
            TrafficSpec::Uniform,
            TrafficSpec::NearestNeighbor {
                width: 8,
                height: 8,
            },
            TrafficSpec::Transpose { side: 8 },
            TrafficSpec::BitComplement,
            TrafficSpec::BitReverse,
            TrafficSpec::Tornado {
                width: 8,
                height: 8,
            },
            TrafficSpec::Shuffle,
            TrafficSpec::Hotspot {
                hotspots: vec![0, 63],
                hot_fraction: 0.2,
            },
        ] {
            let _pattern = spec.instantiate();
            assert!(!spec.name().is_empty());
        }
    }

    #[test]
    fn lint_gate_fails_broken_points_without_simulating() {
        use heteronoc::noc::routing::{RouteTable, RoutingKind};
        use heteronoc::noc::types::RouterId;

        // A one-way route table passes `validate` but is a lint error
        // (HN-E011): the gate must fail the point before any simulation.
        let mut cfg = NetworkConfig::paper_baseline();
        let mut tbl = RouteTable::new();
        tbl.insert(
            RouterId(0),
            RouterId(2),
            vec![RouterId(0), RouterId(1), RouterId(2)],
        );
        cfg.routing = RoutingKind::TableXy(tbl);
        let mut sweep = Sweep::new("lint-gate-test");
        sweep.push(PointSpec {
            label: "broken|ur|s1|r0.01".into(),
            config: cfg,
            kind: PointKind::OpenLoop {
                params: SimParams {
                    injection_rate: Rate::new(0.01),
                    warmup_packets: 10,
                    measure_packets: 10,
                    max_cycles: 1_000,
                    seed: 1,
                    process: heteronoc::noc::sim::InjectionProcess::Bernoulli,
                    watchdog: None,
                },
                traffic: TrafficSpec::Uniform,
                faults: None,
                epochs: None,
            },
        });
        let opts = SweepOptions {
            jobs: 1,
            use_cache: false,
            cache_dir: std::env::temp_dir(),
            shutdown: None,
            checkpoint_every: None,
            progress: None,
        };
        let outcome = run_sweep(&sweep, &opts).unwrap();
        assert_eq!(outcome.simulated, 0, "gate must fire before simulation");
        let err = outcome.points[0].error.as_deref().unwrap();
        assert!(err.starts_with("lint:"), "{err}");
        assert!(err.contains("HN-E011"), "{err}");
    }

    fn open_loop_spec(tag: &str) -> PointSpec {
        PointSpec {
            label: format!("{tag}|ur|s7|r0.02"),
            config: NetworkConfig::paper_baseline(),
            kind: PointKind::OpenLoop {
                params: SimParams {
                    injection_rate: Rate::new(0.02),
                    warmup_packets: 20,
                    measure_packets: 100,
                    max_cycles: 100_000,
                    seed: 7,
                    process: heteronoc::noc::sim::InjectionProcess::Bernoulli,
                    watchdog: None,
                },
                traffic: TrafficSpec::Uniform,
                faults: None,
                epochs: None,
            },
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("heteronoc-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn raised_shutdown_flag_interrupts_undrawn_points() {
        let mut sweep = Sweep::new("shutdown-probe");
        sweep.push(open_loop_spec("a"));
        sweep.push(open_loop_spec("b"));
        let flag = Arc::new(AtomicBool::new(true));
        let opts = SweepOptions {
            jobs: 1,
            use_cache: false,
            cache_dir: scratch_dir("shutdown"),
            shutdown: Some(Arc::clone(&flag)),
            checkpoint_every: None,
            progress: None,
        };
        let out = run_sweep(&sweep, &opts).unwrap();
        assert_eq!(out.simulated, 0);
        assert_eq!(out.interrupted, 2);
        for p in &out.points {
            let err = p.error.as_deref().unwrap();
            assert!(err.contains("interrupted"), "{err}");
        }
        // Lowering the flag lets the same sweep complete.
        flag.store(false, Ordering::SeqCst);
        let out = run_sweep(&sweep, &opts).unwrap();
        assert_eq!(out.simulated, 2);
        assert_eq!(out.interrupted, 0);
        assert!(out.points.iter().all(|p| p.error.is_none()));
    }

    #[test]
    fn sweep_resumes_a_point_from_its_checkpoint_and_deletes_it_on_completion() {
        use heteronoc::noc::sim::{Stepper, UniformRandom};

        let spec = open_loop_spec("ckpt");
        let PointKind::OpenLoop { params, .. } = &spec.kind else {
            unreachable!()
        };

        // Reference: the point simulated fresh, no checkpointing.
        let mut fresh = Sweep::new("ckpt-fresh");
        fresh.push(spec.clone());
        let fresh_out = run_sweep(
            &fresh,
            &SweepOptions {
                jobs: 1,
                use_cache: false,
                cache_dir: scratch_dir("ckpt-fresh"),
                shutdown: None,
                checkpoint_every: None,
                progress: None,
            },
        )
        .unwrap();

        // Plant a genuine mid-run checkpoint at the key the sweep derives.
        let cache_dir = scratch_dir("ckpt-resume");
        std::fs::create_dir_all(&cache_dir).unwrap();
        let net = Network::new(spec.config.clone()).unwrap();
        let mut stepper = Stepper::fresh(net, *params, Box::new(UniformRandom));
        stepper.run_to(150).unwrap();
        let ckpt_path = cache_dir.join(format!("{}.ckpt", spec.content_key()));
        stepper.checkpoint().save(&ckpt_path).unwrap();

        let mut resumed = Sweep::new("ckpt-resumed");
        resumed.push(spec);
        let resumed_out = run_sweep(
            &resumed,
            &SweepOptions {
                jobs: 1,
                use_cache: false,
                cache_dir,
                shutdown: None,
                checkpoint_every: Some(1_000_000), // periodic saves never fire
                progress: None,
            },
        )
        .unwrap();

        // Resuming mid-run must not change the measured physics one bit.
        // Scheduler telemetry is excluded: it is observational and not
        // part of the checkpoint, so a resumed point only counts its
        // post-restore scheduler activity.
        let strip_sched = |out: &SweepOutcome| {
            let pts: Vec<Json> = out
                .points
                .iter()
                .map(|p| {
                    let mut p = p.clone();
                    p.sched = None;
                    p.to_json()
                })
                .collect();
            Json::Arr(pts).to_string()
        };
        assert_eq!(
            strip_sched(&fresh_out),
            strip_sched(&resumed_out),
            "a resumed point must be byte-identical to a fresh one"
        );
        assert!(resumed_out.points[0].sched.is_some());
        // …and the completed point cleans its checkpoint up.
        assert!(!ckpt_path.exists(), "completed point must delete its .ckpt");
    }

    #[test]
    fn point_metrics_round_trip_json() {
        let m = PointMetrics {
            label: "baseline|ur|s7|r0.01".into(),
            rate: 0.01,
            latency_ns: 23.5,
            latency_cycles: 48.6,
            throughput: 0.0099,
            power_w: 31.2,
            saturated: false,
            cycles: 123_456,
            delivered: 15_000,
            dropped: 0,
            retransmissions: 0,
            flits_corrupted: 0,
            reroutes: 0,
            mean_ipc: f64::NAN,
            cached: false,
            attempts: 1,
            epochs: Some(Json::Arr(vec![])),
            sched: Some(SchedReport {
                cycles: 123_456,
                full_cycles: 100_000,
                idle_cycles: 23_456,
                router_visits: 9_999,
                ..SchedReport::default()
            }),
            wall_secs: 1.25,
            error: None,
            system: None,
            reliability: None,
        };
        let j = m.to_json();
        let back = PointMetrics::from_json(&j).unwrap();
        assert_eq!(back.label, m.label);
        assert_eq!(back.delivered, m.delivered);
        assert!((back.latency_ns - m.latency_ns).abs() < 1e-12);
        assert!(back.mean_ipc.is_nan());
        assert!(back.error.is_none());
        // Epochs round-trip; wall time is run-specific and does not.
        assert_eq!(back.epochs, m.epochs);
        assert_eq!(back.attempts, m.attempts);
        assert_eq!(back.wall_secs, 0.0);
        assert!(!j.pretty().contains("wall_secs"));
        // Only CMP and closed-loop points carry a `system` member, and
        // only degradation points a `reliability` member.
        assert!(j.get("system").is_none());
        assert!(back.system.is_none());
        assert!(j.get("reliability").is_none());
        assert!(back.reliability.is_none());

        let system = SystemMetrics {
            latency_breakdown: (1.5, 0.25, f64::NAN),
            power: PowerBreakdown {
                buffers: 1.0 / 3.0,
                crossbar: 2.0,
                arbiters: 0.1,
                links: 7.125,
            },
            ipcs: vec![0.0, 0.1 + 0.2, 1e-300],
            mem_reads: 5_110,
            round_trip_mean: 612.75,
            round_trip_cov: 0.46,
            request_leg_mean: f64::NAN,
            request_leg_cov: 0.0,
        };
        let m = PointMetrics {
            system: Some(system.clone()),
            ..m
        };
        let back = PointMetrics::from_json(&json::parse(&m.to_json().to_string()).unwrap())
            .unwrap()
            .system
            .unwrap();
        assert!(back.latency_breakdown.2.is_nan() && back.request_leg_mean.is_nan());
        let strip = |s: &SystemMetrics| SystemMetrics {
            latency_breakdown: (s.latency_breakdown.0, s.latency_breakdown.1, 0.0),
            request_leg_mean: 0.0,
            ..s.clone()
        };
        assert_eq!(
            strip(&back),
            strip(&system),
            "finite values round-trip exactly"
        );

        let reliability = ReliabilityMetrics {
            permanent: 3,
            latency_p50: 17,
            latency_p99: 40,
            reinjections: 9,
            reinjected_flits: 45,
            recovered: 2,
            duplicates_suppressed: 1,
        };
        let m = PointMetrics {
            system: None,
            reliability: Some(reliability.clone()),
            ..m
        };
        let back = PointMetrics::from_json(&json::parse(&m.to_json().to_string()).unwrap());
        assert_eq!(back.unwrap().reliability, Some(reliability));
    }

    fn trivial_spec() -> PointSpec {
        PointSpec {
            label: "retry-probe".into(),
            config: NetworkConfig::paper_baseline(),
            kind: PointKind::Cmp(CmpSpec::uniform(Benchmark::Sap, 1, 1)),
        }
    }

    #[test]
    fn panicking_point_is_retried_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let spec = trivial_spec();
        let m = run_point_with(&spec, || {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient poison");
            }
            Ok(PointMetrics::default())
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(m.attempts, 2);
        assert!(m.error.is_none(), "{:?}", m.error);
        assert_eq!(m.label, "retry-probe");
    }

    #[test]
    fn persistent_panic_fails_after_the_retry() {
        let spec = trivial_spec();
        let m = run_point_with(&spec, || -> Result<PointMetrics, String> {
            panic!("hard poison")
        });
        assert_eq!(m.attempts, MAX_POINT_ATTEMPTS);
        let err = m.error.as_deref().unwrap();
        assert!(err.contains("hard poison"), "{err}");
    }

    #[test]
    fn typed_errors_are_deterministic_and_not_retried() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let spec = trivial_spec();
        let m = run_point_with(&spec, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err("config rejected".to_owned())
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(m.attempts, 1);
        assert_eq!(m.error.as_deref(), Some("config rejected"));
    }
}
