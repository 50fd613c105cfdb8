//! Resumable Monte Carlo reliability campaigns.
//!
//! A [`CampaignSpec`] describes a grid of *cells* — one per
//! (layout × dead-link count) — and every cell is populated with
//! `plans_per_cell` independently sampled fault plans: `kills` distinct
//! links chosen uniformly at random, each with a uniformly random kill
//! cycle inside the injection window. Each sampled plan becomes one
//! simulation point run through the CDG-verified degradation engine
//! ([`run_with_degradation`]), and the cells aggregate into reliability
//! curves: delivery ratio, p99 latency degradation versus the fault-free
//! baseline, reconfiguration downtime (drain-time inflation) and
//! recovery-traffic overhead, all as functions of the dead-link count.
//!
//! Three layers make a campaign cheap to re-run and safe to kill:
//!
//! * **Seeding discipline** — a point's fault plan is a pure function of
//!   (master seed, layout index, kill count, sample index); scheduling
//!   order never leaks into sampling.
//! * **Content-addressed caching** — every point shares the sweep result
//!   cache ([`crate::cache`]); a re-run resolves completed points from
//!   `results/cache/` without simulating.
//! * **A periodically-written atomic manifest** — after every batch the
//!   full campaign state is written to `results/campaigns/<name>.json`
//!   via a temp-file rename. A killed campaign resumes from the manifest:
//!   points recorded `done` are restored, only the remainder simulates.
//!   The manifest is fingerprinted by the spec's content key, so editing
//!   the spec invalidates stale state instead of silently mixing results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use heteronoc::noc::config::NetworkConfig;
use heteronoc::noc::fault::{FaultKind, FaultPlan, HardFault, RecoveryPolicy};
use heteronoc::noc::types::{Cycle, LinkId};
use heteronoc_obs::{ProgressSink, Registry, Snapshot};
use heteronoc_verify::{run_with_degradation, DegradedRunReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cache::{content_key, ResultCache, SCHEMA_VERSION};
use crate::json::{self, Json};
use crate::sweep::{all_pairs_injections, int, panic_message, parallel_map_until};

/// A Monte Carlo reliability-campaign description: the full grid of
/// (layout × kill count × sample) points is a pure function of this spec.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Campaign name; the manifest lands at `results/campaigns/<name>.json`.
    pub name: String,
    /// Evaluated layouts as `(display name, configuration)`.
    pub layouts: Vec<(String, NetworkConfig)>,
    /// Dead-link counts per cell (zero entries are ignored — the
    /// fault-free baseline cell is always included per layout).
    pub kills: Vec<usize>,
    /// Sampled fault plans per (layout × kill count) cell.
    pub plans_per_cell: usize,
    /// Master seed; every plan derives its own seed from it.
    pub seed: u64,
    /// All-pairs injection bursts per point.
    pub bursts: u64,
    /// Cycles between consecutive injections.
    pub spacing: Cycle,
    /// Drain watchdog in cycles.
    pub stall_limit: Cycle,
    /// End-to-end delivery guarantees for every sampled plan (`None`
    /// leaves the recovery layer off — losses at a cut go unaccounted).
    pub recovery: Option<RecoveryPolicy>,
}

impl CampaignSpec {
    /// Canonical description of everything that determines the results —
    /// the name is excluded, so renaming a campaign keeps its cache.
    pub fn canonical(&self) -> String {
        format!(
            "campaign-v{SCHEMA_VERSION}|{:?}|{:?}|{}|{}|{}|{}|{}|{:?}",
            self.layouts,
            self.kills,
            self.plans_per_cell,
            self.seed,
            self.bursts,
            self.spacing,
            self.stall_limit,
            self.recovery,
        )
    }

    /// Content-address of the spec; stamped into the manifest so resume
    /// never mixes state from a different campaign definition.
    pub fn fingerprint(&self) -> String {
        content_key(&self.canonical())
    }

    /// Expands the grid into points: per layout, one fault-free baseline
    /// cell (a single sample — it is deterministic) followed by
    /// `plans_per_cell` sampled plans per non-zero kill count.
    pub fn points(&self) -> Result<Vec<CampaignPoint>, String> {
        let mut out = Vec::new();
        for (li, (name, cfg)) in self.layouts.iter().enumerate() {
            let graph = cfg.build_graph();
            let links = graph.num_links();
            let routers = graph.num_routers();
            let nodes = graph.nodes().len();
            let horizon = injection_window(nodes, self.bursts, self.spacing);
            let mut cells: Vec<usize> = vec![0];
            cells.extend(self.kills.iter().copied().filter(|&k| k > 0));
            for k in cells {
                let samples = if k == 0 { 1 } else { self.plans_per_cell };
                for s in 0..samples {
                    let plan = self.sample_plan(li, k, s, links, horizon);
                    plan.validate(links, routers).map_err(|e| {
                        format!("{name} k={k} sample {s}: invalid sampled plan: {e}")
                    })?;
                    out.push(CampaignPoint {
                        layout: name.clone(),
                        kills: k,
                        sample: s,
                        config: cfg.clone(),
                        plan,
                        bursts: self.bursts,
                        spacing: self.spacing,
                        stall_limit: self.stall_limit,
                    });
                }
            }
        }
        Ok(out)
    }

    /// Samples the fault plan for one point: `kills` distinct links, each
    /// dying at a uniformly random cycle inside the injection window. The
    /// RNG is seeded from (master, layout, kills, sample) only.
    fn sample_plan(
        &self,
        layout: usize,
        kills: usize,
        sample: usize,
        links: usize,
        horizon: Cycle,
    ) -> FaultPlan {
        let seed = plan_seed(self.seed, layout, kills, sample);
        let mut plan = FaultPlan {
            seed,
            recovery: self.recovery,
            ..FaultPlan::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chosen: Vec<usize> = Vec::with_capacity(kills);
        while chosen.len() < kills.min(links) {
            let l = rng.random_range(0..links);
            if !chosen.contains(&l) {
                chosen.push(l);
            }
        }
        for l in chosen {
            let cycle = rng.random_range(1..horizon.max(2));
            plan.hard.push(HardFault {
                cycle,
                kind: FaultKind::Link(LinkId(l)),
            });
        }
        plan
    }
}

/// Last injection cycle of an all-pairs campaign run, plus one spacing of
/// slack — sampled kill cycles stay inside this window so every fault
/// lands while traffic is still being offered.
fn injection_window(nodes: usize, bursts: u64, spacing: Cycle) -> Cycle {
    let per_burst = (nodes * nodes.saturating_sub(1)) as u64;
    (bursts * per_burst).max(1) * spacing.max(1)
}

/// Derives a point's plan seed from the campaign coordinates (FNV-1a over
/// the coordinate words, offset by the master seed).
fn plan_seed(master: u64, layout: usize, kills: usize, sample: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ master;
    for v in [layout as u64, kills as u64, sample as u64] {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// One simulation point of a campaign: a layout configuration plus its
/// sampled fault plan and run parameters.
#[derive(Clone, Debug)]
pub struct CampaignPoint {
    /// Layout display name.
    pub layout: String,
    /// Dead-link count of the point's cell (0 = fault-free baseline).
    pub kills: usize,
    /// Sample index within the cell.
    pub sample: usize,
    /// The network configuration.
    pub config: NetworkConfig,
    /// The sampled fault plan.
    pub plan: FaultPlan,
    /// All-pairs bursts injected.
    pub bursts: u64,
    /// Cycles between consecutive injections.
    pub spacing: Cycle,
    /// Drain watchdog in cycles.
    pub stall_limit: Cycle,
}

impl CampaignPoint {
    /// Canonical description hashed into the shared result cache.
    pub fn canonical(&self) -> String {
        format!(
            "campaign-v{SCHEMA_VERSION}|{:?}|{:?}|{}|{}|{}",
            self.config, self.plan, self.bursts, self.spacing, self.stall_limit
        )
    }

    /// Content-address of this point for the result cache.
    pub fn content_key(&self) -> String {
        content_key(&self.canonical())
    }
}

/// Runs one campaign point to a metrics object. Typed engine errors and
/// panics both land in the `error` member — a lost point never loses the
/// campaign.
pub fn run_campaign_point(point: &CampaignPoint) -> Json {
    let r = catch_unwind(AssertUnwindSafe(|| execute_point(point)));
    match r {
        Ok(Ok(report)) => point_metrics(&report),
        Ok(Err(e)) => error_metrics(&e),
        Err(payload) => error_metrics(&panic_message(payload.as_ref())),
    }
}

fn execute_point(point: &CampaignPoint) -> Result<DegradedRunReport, String> {
    let nodes = point.config.build_graph().nodes().len();
    let injections = all_pairs_injections(nodes, point.bursts, point.spacing);
    run_with_degradation(
        point.config.clone(),
        point.plan.clone(),
        &injections,
        point.stall_limit,
    )
    .map_err(|e| e.to_string())
}

fn point_metrics(r: &DegradedRunReport) -> Json {
    Json::obj(vec![
        ("delivered", int(r.delivered)),
        ("permanent", int(r.permanent_losses())),
        ("delivery_ratio", Json::Num(r.delivery_ratio())),
        ("latency_p50", int(r.latency_percentile(0.50))),
        ("latency_p99", int(r.latency_percentile(0.99))),
        ("finished_at", int(r.finished_at)),
        ("reroutes", int(u64::from(r.reroutes))),
        ("retransmissions", int(r.counters.retransmissions)),
        ("reinjections", int(r.recovery.reinjections)),
        ("reinjected_flits", int(r.recovery.reinjected_flits)),
        ("recovered", int(r.recovery.recovered)),
        (
            "duplicates_suppressed",
            int(r.recovery.duplicates_suppressed),
        ),
        ("error", Json::Null),
    ])
}

fn error_metrics(e: &str) -> Json {
    Json::obj(vec![
        ("delivered", int(0)),
        ("permanent", int(0)),
        ("delivery_ratio", Json::Num(f64::NAN)),
        ("error", Json::Str(e.to_owned())),
    ])
}

/// Execution options for [`run_campaign`].
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Worker threads for the point shards.
    pub jobs: usize,
    /// Whether to consult / populate the shared result cache.
    pub use_cache: bool,
    /// Directory of the shared result cache (`results/cache`).
    pub cache_dir: PathBuf,
    /// Directory of the campaign manifests (`results/campaigns`).
    pub manifest_dir: PathBuf,
    /// Simulate at most this many pending points this invocation, then
    /// stop with the manifest partially complete (CI uses this to test
    /// resume; `None` = run to completion).
    pub max_points: Option<usize>,
    /// Cooperative-shutdown flag (set by the CLI's signal handler). When
    /// it rises, workers stop drawing new points, in-flight points finish,
    /// their results land in the manifest (flushed atomically), and the
    /// campaign returns with [`CampaignOutcome::interrupted`] set — a
    /// re-run resumes from the manifest exactly like after a crash.
    pub shutdown: Option<Arc<AtomicBool>>,
    /// Live-progress sink spec (a path, `-` for stdout, or `fd:N`). When
    /// set, the campaign streams JSONL snapshots (kind `"campaign"`): one
    /// after the manifest/cache restore scan, one after every flushed
    /// batch, and a final `done` snapshot. Purely observational — the
    /// manifest, cache, and point results are byte-identical either way.
    pub progress: Option<String>,
}

/// Outcome of a campaign invocation: where each point's result came from
/// and the final manifest document (points + reliability curves).
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Manifest location (`results/campaigns/<name>.json`).
    pub manifest_path: PathBuf,
    /// Total points in the campaign grid.
    pub total: usize,
    /// Points simulated by this invocation.
    pub simulated: usize,
    /// Points restored from the result cache.
    pub from_cache: usize,
    /// Points restored from a prior manifest of the same fingerprint.
    pub from_manifest: usize,
    /// Points left pending by `max_points`.
    pub deferred: usize,
    /// True when the shutdown flag rose mid-campaign: the run stopped
    /// early with the manifest flushed, and undrawn points stayed pending.
    pub interrupted: bool,
    /// The full manifest document as last written.
    pub doc: Json,
}

/// Runs (or resumes) a campaign: restores completed points from the
/// manifest and the result cache, shards the remainder over the sweep
/// worker pool in batches, and rewrites the manifest atomically after
/// every batch so a kill at any moment loses at most one batch of work.
///
/// # Errors
/// Returns an error when a sampled plan fails validation or the manifest
/// or cache directories cannot be written. Point-level failures do *not*
/// error — they are recorded per point and surface in the curves.
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, String> {
    if spec.layouts.is_empty() {
        return Err("campaign has no layouts".to_owned());
    }
    let points = spec.points()?;
    let keys: Vec<String> = points.iter().map(CampaignPoint::content_key).collect();
    let fingerprint = spec.fingerprint();
    let manifest_path = opts.manifest_dir.join(format!("{}.json", spec.name));

    let mut results: Vec<Option<Json>> = vec![None; points.len()];
    let mut from_manifest = 0usize;
    if let Some(prior) = load_manifest(&manifest_path, &fingerprint) {
        for (i, key) in keys.iter().enumerate() {
            if let Some(m) = prior.get(key) {
                results[i] = Some(m.clone());
                from_manifest += 1;
            }
        }
    }

    let mut cache = if opts.use_cache {
        Some(ResultCache::open(&opts.cache_dir).map_err(|e| format!("cache: {e}"))?)
    } else {
        None
    };
    let mut from_cache = 0usize;
    if let Some(c) = &cache {
        for (i, key) in keys.iter().enumerate() {
            if results[i].is_none() {
                if let Some(m) = c.get(key) {
                    results[i] = Some(m.clone());
                    from_cache += 1;
                }
            }
        }
    }

    let mut pending: Vec<usize> = (0..points.len())
        .filter(|&i| results[i].is_none())
        .collect();
    let deferred = match opts.max_points {
        Some(max) if pending.len() > max => {
            let d = pending.len() - max;
            pending.truncate(max);
            d
        }
        _ => 0,
    };
    std::fs::create_dir_all(&opts.manifest_dir).map_err(|e| format!("manifest dir: {e}"))?;
    // Write an initial manifest so even a campaign killed inside its
    // first batch leaves a resumable fingerprinted state behind.
    let mut doc = manifest_doc(spec, &fingerprint, &points, &keys, &results);
    write_atomic(&manifest_path, &doc)?;

    let mut progress = match &opts.progress {
        Some(sink) => {
            let mut p = CampaignProgress::open(sink, &spec.name, points.len())
                .map_err(|e| format!("progress: {e}"))?;
            p.from_manifest = from_manifest;
            p.from_cache = from_cache;
            p.deferred = deferred;
            p.emit(false);
            Some(p)
        }
        None => None,
    };

    let stop = opts.shutdown.as_deref();
    let stopped = || stop.is_some_and(|s| s.load(Ordering::SeqCst));
    let mut interrupted = false;
    let mut simulated = 0usize;
    let batch = opts.jobs.max(2) * 2;
    for chunk in pending.chunks(batch) {
        if stopped() {
            interrupted = true;
            break;
        }
        let specs: Vec<&CampaignPoint> = chunk.iter().map(|&i| &points[i]).collect();
        let metrics = parallel_map_until(opts.jobs, specs, stop, run_campaign_point);
        for (&i, m) in chunk.iter().zip(metrics) {
            // `None` = the shutdown flag rose before the point was drawn;
            // it stays pending in the manifest and a re-run retries it.
            let Some(m) = m else {
                interrupted = true;
                continue;
            };
            simulated += 1;
            if let Some(p) = progress.as_mut() {
                p.simulated += 1;
                if m.get("error") != Some(&Json::Null) {
                    p.failed += 1;
                }
            }
            if let Some(c) = &mut cache {
                // Failed points are never cached: a re-run retries them.
                if m.get("error") == Some(&Json::Null) {
                    c.insert(keys[i].clone(), m.clone())
                        .map_err(|e| format!("cache: {e}"))?;
                }
            }
            results[i] = Some(m);
        }
        // Flush even (especially) when interrupted: every finished
        // in-flight point must land in the manifest before we return.
        doc = manifest_doc(spec, &fingerprint, &points, &keys, &results);
        write_atomic(&manifest_path, &doc)?;
        if let Some(p) = progress.as_mut() {
            p.emit(false);
        }
    }
    if let Some(p) = progress.as_mut() {
        p.interrupted = interrupted;
        p.emit(true);
    }

    Ok(CampaignOutcome {
        manifest_path,
        total: points.len(),
        simulated,
        from_cache,
        from_manifest,
        deferred,
        interrupted,
        doc,
    })
}

/// Coordinator-side progress accounting for one campaign invocation,
/// behind [`CampaignOptions::progress`]. Mirrors the sweep's pattern:
/// counts live here, every snapshot rebuilds a fresh registry (absolute
/// readings) and carries counter deltas against the previous snapshot.
struct CampaignProgress {
    sink: ProgressSink,
    name: String,
    total: usize,
    from_manifest: usize,
    from_cache: usize,
    deferred: usize,
    simulated: usize,
    failed: usize,
    interrupted: bool,
    seq: u64,
    started: Instant,
    prev: Registry,
    warned: bool,
}

impl CampaignProgress {
    fn open(spec: &str, name: &str, total: usize) -> std::io::Result<CampaignProgress> {
        Ok(CampaignProgress {
            sink: ProgressSink::open(spec)?,
            name: name.to_owned(),
            total,
            from_manifest: 0,
            from_cache: 0,
            deferred: 0,
            simulated: 0,
            failed: 0,
            interrupted: false,
            seq: 0,
            started: Instant::now(),
            prev: Registry::new(),
            warned: false,
        })
    }

    fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.set_counter("campaign.points.total", self.total as u64);
        reg.set_counter("campaign.points.from_manifest", self.from_manifest as u64);
        reg.set_counter("campaign.points.from_cache", self.from_cache as u64);
        reg.set_counter("campaign.points.simulated", self.simulated as u64);
        reg.set_counter("campaign.points.failed", self.failed as u64);
        reg.set_counter("campaign.points.deferred", self.deferred as u64);
        reg.set_counter("campaign.cache.hits", self.from_cache as u64);
        reg
    }

    fn emit(&mut self, done: bool) {
        let reg = self.registry();
        let elapsed = self.started.elapsed().as_secs_f64();
        let done_points = self.from_manifest + self.from_cache + self.simulated;
        let remaining = self
            .total
            .saturating_sub(done_points)
            .saturating_sub(self.deferred);
        let eta = if done {
            0.0
        } else if self.simulated > 0 && elapsed > 0.0 {
            remaining as f64 / (self.simulated as f64 / elapsed)
        } else {
            f64::NAN
        };
        let mut snap = Snapshot::new("campaign", self.seq);
        snap.field_str("name", &self.name)
            .field_u64("points_total", self.total as u64)
            .field_u64("points_done", done_points as u64)
            .field_u64("points_from_manifest", self.from_manifest as u64)
            .field_u64("points_from_cache", self.from_cache as u64)
            .field_u64("points_simulated", self.simulated as u64)
            .field_u64("points_failed", self.failed as u64)
            .field_u64("points_deferred", self.deferred as u64)
            .field_f64("elapsed_secs", elapsed)
            .field_f64("eta_secs", eta)
            .field_bool("interrupted", self.interrupted)
            .field_bool("done", done)
            .deltas("deltas", &reg, &self.prev)
            .registry("counters", &reg);
        if self.sink.emit(&snap).is_err() && !self.warned {
            eprintln!("warning: campaign progress sink write failed; further snapshots dropped");
            self.warned = true;
        }
        self.seq += 1;
        self.prev = reg;
    }
}

/// Loads `key -> metrics` of every `done` point from a manifest, or
/// `None` when it is absent, unreadable, or fingerprinted differently.
fn load_manifest(
    path: &Path,
    fingerprint: &str,
) -> Option<std::collections::HashMap<String, Json>> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = json::parse(&text).ok()?;
    if doc.get("fingerprint").and_then(Json::as_str) != Some(fingerprint) {
        return None;
    }
    let mut out = std::collections::HashMap::new();
    for p in doc.get("points").and_then(Json::as_arr)? {
        if p.get("status").and_then(Json::as_str) != Some("done") {
            continue;
        }
        let key = p.get("key").and_then(Json::as_str)?;
        let metrics = p.get("metrics")?;
        out.insert(key.to_owned(), metrics.clone());
    }
    Some(out)
}

fn write_atomic(path: &Path, doc: &Json) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, doc.pretty()).map_err(|e| format!("manifest: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("manifest: {e}"))
}

fn manifest_doc(
    spec: &CampaignSpec,
    fingerprint: &str,
    points: &[CampaignPoint],
    keys: &[String],
    results: &[Option<Json>],
) -> Json {
    let completed = results.iter().filter(|r| r.is_some()).count();
    let point_objs: Vec<Json> = points
        .iter()
        .zip(keys)
        .zip(results)
        .map(|((p, key), r)| {
            Json::obj(vec![
                ("layout", Json::Str(p.layout.clone())),
                ("kills", int(p.kills as u64)),
                ("sample", int(p.sample as u64)),
                ("key", Json::Str(key.clone())),
                (
                    "status",
                    Json::Str(if r.is_some() { "done" } else { "pending" }.to_owned()),
                ),
                ("metrics", r.clone().unwrap_or(Json::Null)),
            ])
        })
        .collect();
    let recovery = spec.recovery.as_ref().map_or(Json::Null, |r| {
        Json::Str(format!(
            "{} {} {}",
            r.retry.max_attempts, r.retry.timeout, r.retention
        ))
    });
    let doc = Json::obj(vec![
        ("schema_version", int(u64::from(SCHEMA_VERSION))),
        ("kind", Json::Str("campaign".to_owned())),
        ("name", Json::Str(spec.name.clone())),
        ("fingerprint", Json::Str(fingerprint.to_owned())),
        (
            "spec",
            Json::obj(vec![
                (
                    "layouts",
                    Json::Arr(
                        spec.layouts
                            .iter()
                            .map(|(n, _)| Json::Str(n.clone()))
                            .collect(),
                    ),
                ),
                (
                    "kills",
                    Json::Arr(spec.kills.iter().map(|&k| int(k as u64)).collect()),
                ),
                ("plans_per_cell", int(spec.plans_per_cell as u64)),
                ("seed", int(spec.seed)),
                ("bursts", int(spec.bursts)),
                ("spacing", int(spec.spacing)),
                ("stall_limit", int(spec.stall_limit)),
                ("recovery", recovery),
            ]),
        ),
        ("total", int(points.len() as u64)),
        ("completed", int(completed as u64)),
        ("points", Json::Arr(point_objs)),
    ]);
    let curves = curves_from(&doc);
    match doc {
        Json::Obj(mut members) => {
            members.push(("curves".to_owned(), curves));
            Json::Obj(members)
        }
        other => other,
    }
}

/// Aggregates a manifest's `done` points into reliability-curve rows, one
/// per (layout × kill count): delivery ratio (mean and worst sample), p99
/// latency degradation versus the layout's fault-free baseline,
/// reconfiguration downtime (mean drain-time inflation in cycles) and
/// recovery-traffic overhead (reinjected flits per delivered packet).
/// Pure function of the document, so `heteronoc report` renders partial
/// manifests identically.
pub fn curves_from(doc: &Json) -> Json {
    let Some(points) = doc.get("points").and_then(Json::as_arr) else {
        return Json::Arr(Vec::new());
    };
    // Cell order follows first appearance, which is grid order.
    let mut order: Vec<(String, u64)> = Vec::new();
    for p in points {
        let layout = p.get("layout").and_then(Json::as_str).unwrap_or("?");
        let kills = p.get("kills").and_then(Json::as_u64).unwrap_or(0);
        if !order.iter().any(|(l, k)| l == layout && *k == kills) {
            order.push((layout.to_owned(), kills));
        }
    }
    // Fault-free reference per layout: mean finished_at / p99 of its k=0
    // cell (a single deterministic sample in practice).
    let baseline = |layout: &str, field: &str| -> Option<f64> {
        let (sum, n) = points
            .iter()
            .filter(|p| {
                p.get("layout").and_then(Json::as_str) == Some(layout)
                    && p.get("kills").and_then(Json::as_u64) == Some(0)
                    && p.get("status").and_then(Json::as_str) == Some("done")
            })
            .filter_map(|p| p.get("metrics")?.get(field)?.as_f64())
            .fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
        (n > 0).then(|| sum / f64::from(n))
    };
    let rows = order
        .iter()
        .map(|(layout, kills)| {
            let cell: Vec<&Json> = points
                .iter()
                .filter(|p| {
                    p.get("layout").and_then(Json::as_str) == Some(layout.as_str())
                        && p.get("kills").and_then(Json::as_u64) == Some(*kills)
                })
                .collect();
            let done: Vec<&Json> = cell
                .iter()
                .filter(|p| p.get("status").and_then(Json::as_str) == Some("done"))
                .copied()
                .collect();
            let metric = |p: &Json, f: &str| p.get("metrics").and_then(|m| m.get(f))?.as_f64();
            let oks: Vec<&Json> = done
                .iter()
                .filter(|p| {
                    p.get("metrics")
                        .and_then(|m| m.get("error"))
                        .is_some_and(|e| *e == Json::Null)
                })
                .copied()
                .collect();
            let failed = done.len() - oks.len();
            let mean = |f: &str| -> f64 {
                if oks.is_empty() {
                    return f64::NAN;
                }
                #[allow(clippy::cast_precision_loss)]
                let n = oks.len() as f64;
                oks.iter().filter_map(|p| metric(p, f)).sum::<f64>() / n
            };
            let delivery_min = oks
                .iter()
                .filter_map(|p| metric(p, "delivery_ratio"))
                .fold(f64::INFINITY, f64::min);
            let p99 = mean("latency_p99");
            let p99_x = baseline(layout, "latency_p99")
                .filter(|&b| b > 0.0)
                .map_or(f64::NAN, |b| p99 / b);
            let downtime = baseline(layout, "finished_at")
                .map_or(f64::NAN, |b| (mean("finished_at") - b).max(0.0));
            let delivered = mean("delivered");
            let overhead = if delivered > 0.0 {
                mean("reinjected_flits") / delivered
            } else {
                f64::NAN
            };
            Json::obj(vec![
                ("layout", Json::Str(layout.clone())),
                ("kills", int(*kills)),
                ("plans", int(cell.len() as u64)),
                ("done", int(done.len() as u64)),
                ("failed", int(failed as u64)),
                ("delivery_mean", Json::Num(mean("delivery_ratio"))),
                (
                    "delivery_min",
                    Json::Num(if delivery_min.is_finite() {
                        delivery_min
                    } else {
                        f64::NAN
                    }),
                ),
                ("latency_p99_mean", Json::Num(p99)),
                ("p99_x_baseline", Json::Num(p99_x)),
                ("downtime_cycles", Json::Num(downtime)),
                ("recovery_overhead", Json::Num(overhead)),
                ("reroutes_mean", Json::Num(mean("reroutes"))),
            ])
        })
        .collect();
    Json::Arr(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc::noc::config::RouterCfg;
    use heteronoc::noc::topology::TopologyKind;
    use heteronoc::noc::types::Bits;

    fn mesh3() -> NetworkConfig {
        NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 3,
                height: 3,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        )
    }

    fn tiny_spec(name: &str) -> CampaignSpec {
        CampaignSpec {
            name: name.to_owned(),
            layouts: vec![("mesh3".to_owned(), mesh3())],
            kills: vec![1],
            plans_per_cell: 2,
            seed: 7,
            bursts: 1,
            spacing: 8,
            stall_limit: 20_000,
            recovery: Some(RecoveryPolicy::default()),
        }
    }

    fn tmp_dirs(tag: &str) -> (PathBuf, PathBuf) {
        let base =
            std::env::temp_dir().join(format!("heteronoc-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        (base.join("cache"), base.join("campaigns"))
    }

    fn opts(tag: &str) -> CampaignOptions {
        let (cache_dir, manifest_dir) = tmp_dirs(tag);
        CampaignOptions {
            jobs: 2,
            use_cache: true,
            cache_dir,
            manifest_dir,
            max_points: None,
            shutdown: None,
            progress: None,
        }
    }

    #[test]
    fn progress_stream_emits_valid_snapshots_and_a_final_done() {
        let spec = tiny_spec("progress");
        let shared = opts("progress");
        let progress_path = shared
            .manifest_dir
            .parent()
            .unwrap()
            .join("campaign-progress.jsonl");
        std::fs::create_dir_all(progress_path.parent().unwrap()).unwrap();
        let with_progress = CampaignOptions {
            use_cache: false,
            progress: Some(progress_path.to_string_lossy().into_owned()),
            ..shared
        };
        let outcome = run_campaign(&spec, &with_progress).unwrap();
        assert_eq!(outcome.simulated, 3);

        let text = std::fs::read_to_string(&progress_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // One restore-scan snapshot, >=1 batch snapshot, one final done.
        assert!(lines.len() >= 3, "expected >=3 snapshots, got {lines:?}");
        for (i, line) in lines.iter().enumerate() {
            let snap = json::parse(line).unwrap();
            assert_eq!(snap.get("schema").and_then(Json::as_u64), Some(1));
            assert_eq!(snap.get("kind").and_then(Json::as_str), Some("campaign"));
            assert_eq!(snap.get("seq").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(snap.get("points_total").and_then(Json::as_u64), Some(3));
        }
        let last = json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("done").and_then(Json::as_bool), Some(true));
        assert_eq!(last.get("points_done").and_then(Json::as_u64), Some(3));
        assert_eq!(last.get("eta_secs").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            last.get("counters")
                .and_then(|c| c.get("campaign.points.simulated"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }

    #[test]
    fn raised_shutdown_flag_stops_before_dispatch_and_flushes_the_manifest() {
        let spec = tiny_spec("shutdown");
        let flag = Arc::new(AtomicBool::new(true));
        let first = CampaignOptions {
            use_cache: false,
            shutdown: Some(Arc::clone(&flag)),
            ..opts("shutdown")
        };
        let o1 = run_campaign(&spec, &first).unwrap();
        assert!(o1.interrupted);
        assert_eq!(o1.simulated, 0);
        // The fingerprinted manifest flushed with every point pending.
        assert!(o1.manifest_path.exists());
        assert_eq!(o1.doc.get("completed").and_then(Json::as_u64), Some(0));
        // Lowering the flag resumes from that manifest and completes.
        let second = CampaignOptions {
            shutdown: None,
            ..first.clone()
        };
        let o2 = run_campaign(&spec, &second).unwrap();
        assert!(!o2.interrupted);
        assert_eq!(o2.simulated, 3);
        assert_eq!(o2.doc.get("completed").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let spec = tiny_spec("det");
        let a = spec.points().unwrap();
        let b = spec.points().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.plan, y.plan, "sampling must be a pure function");
        }
        // Baseline cell first, fault-free, then two distinct samples.
        assert_eq!(a[0].kills, 0);
        assert!(a[0].plan.hard.is_empty());
        assert_eq!(a.len(), 3);
        assert_ne!(a[1].plan.hard, a[2].plan.hard, "samples must differ");
        assert_eq!(a[1].plan.hard.len(), 1);
    }

    #[test]
    fn survivable_campaign_delivers_everything() {
        let spec = tiny_spec("full");
        let o = run_campaign(&spec, &opts("full")).unwrap();
        assert_eq!(o.total, 3);
        assert_eq!(o.simulated, 3);
        let curves = o.doc.get("curves").and_then(Json::as_arr).unwrap();
        // Single-link kills never partition a 3x3 mesh; with end-to-end
        // recovery enabled every cell must report full delivery.
        for row in curves {
            let d = row.get("delivery_mean").and_then(Json::as_f64).unwrap();
            assert!((d - 1.0).abs() < 1e-12, "delivery {d} in {}", row.pretty());
            assert_eq!(row.get("failed").and_then(Json::as_u64), Some(0));
        }
        let killed = curves
            .iter()
            .find(|r| r.get("kills").and_then(Json::as_u64) == Some(1))
            .unwrap();
        assert!(
            killed.get("reroutes_mean").and_then(Json::as_f64).unwrap() > 0.0,
            "a mid-run link kill must trigger a reroute"
        );
    }

    #[test]
    fn interrupted_campaign_resumes_from_the_manifest() {
        let spec = tiny_spec("resume");
        let shared = opts("resume");
        // Simulate a kill after one point: cap the first invocation.
        let first = CampaignOptions {
            max_points: Some(1),
            use_cache: false,
            ..shared.clone()
        };
        let o1 = run_campaign(&spec, &first).unwrap();
        assert_eq!(o1.simulated, 1);
        assert_eq!(o1.deferred, 2);
        assert_eq!(o1.doc.get("completed").and_then(Json::as_u64), Some(1));
        // Second invocation restores the completed point from the
        // manifest and simulates only the remainder.
        let second = CampaignOptions {
            use_cache: false,
            ..shared.clone()
        };
        let o2 = run_campaign(&spec, &second).unwrap();
        assert_eq!(o2.from_manifest, 1);
        assert_eq!(o2.simulated, 2);
        assert_eq!(o2.doc.get("completed").and_then(Json::as_u64), Some(3));
        // Third invocation is a pure manifest replay.
        let o3 = run_campaign(&spec, &second).unwrap();
        assert_eq!(o3.from_manifest, 3);
        assert_eq!(o3.simulated, 0);
    }

    #[test]
    fn cache_resolves_points_across_campaign_names() {
        let spec = tiny_spec("cache-a");
        let shared = opts("cache");
        let o1 = run_campaign(&spec, &shared).unwrap();
        assert_eq!(o1.simulated, 3);
        // Renaming the campaign keeps the cache keys (name is excluded
        // from the canonical form), so nothing re-simulates.
        let renamed = CampaignSpec {
            name: "cache-b".to_owned(),
            ..spec
        };
        let o2 = run_campaign(&renamed, &shared).unwrap();
        assert_eq!(o2.simulated, 0);
        assert_eq!(o2.from_cache, 3);
    }

    #[test]
    fn editing_the_spec_invalidates_the_manifest() {
        let spec = tiny_spec("fp");
        let shared = CampaignOptions {
            use_cache: false,
            ..opts("fp")
        };
        run_campaign(&spec, &shared).unwrap();
        let edited = CampaignSpec {
            seed: spec.seed + 1,
            ..spec
        };
        let o = run_campaign(&edited, &shared).unwrap();
        assert_eq!(o.from_manifest, 0, "stale fingerprint must be ignored");
        assert_eq!(o.simulated, 3);
    }
}
