//! Monte Carlo reliability campaigns, run as sweeps.
//!
//! A [`CampaignSpec`] describes a grid of *cells* — one per
//! (layout × dead-link count) — and every cell is populated with
//! `plans_per_cell` independently sampled fault plans: `kills` distinct
//! links chosen uniformly at random, each with a uniformly random kill
//! cycle inside the injection window. Each sampled plan becomes one
//! [`PointKind::Degradation`] point of a [`Sweep`], so [`run_sweep`]
//! executes, caches, retries, lint-gates, interrupts and streams progress
//! for the campaign like for any other grid. The cells aggregate into
//! reliability curves ([`curves_from`]): delivery ratio, p99 latency
//! degradation versus the fault-free baseline, reconfiguration downtime
//! (drain-time inflation) and recovery-traffic overhead, all as functions
//! of the dead-link count.
//!
//! A point's fault plan is a pure function of (master seed, layout index,
//! kill count, sample index), so scheduling order never leaks into
//! sampling, and growing `plans_per_cell` keeps every earlier sample. The
//! sweep caches each point as it finishes, so a campaign killed at any
//! moment resumes from the result cache. [`run_campaign`] writes the
//! manifest `results/campaigns/<name>.json` atomically when the
//! invocation ends; it is an output document, never read back.

use std::path::{Path, PathBuf};

use heteronoc::noc::checkpoint::{fnv1a64_from, FNV_OFFSET};
use heteronoc::noc::config::NetworkConfig;
use heteronoc::noc::fault::{FaultKind, FaultPlan, HardFault, RecoveryPolicy};
use heteronoc::noc::types::{Cycle, LinkId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cache::SCHEMA_VERSION;
use crate::json::Json;
use crate::sweep::{
    int, run_sweep, PointKind, PointMetrics, PointSpec, Sweep, SweepOptions, SweepOutcome,
    INTERRUPTED,
};

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

/// A campaign point's place in the grid: (layout index, kill count,
/// sample index).
pub type Coord = (usize, usize, usize);

impl CampaignSpec {
    /// Expands the grid into sweep points, each with its coordinates: per
    /// layout, one fault-free baseline cell (a single sample — it is
    /// deterministic) followed by `plans_per_cell` sampled plans per
    /// non-zero kill count.
    ///
    /// # Errors
    /// A message naming the first sampled plan that fails validation.
    pub fn points(&self) -> Result<Vec<(Coord, PointSpec)>, String> {
        let mut out = Vec::new();
        for (li, (name, cfg)) in self.layouts.iter().enumerate() {
            let graph = cfg.build_graph();
            let links = graph.num_links();
            let horizon = injection_window(graph.nodes().len(), self.bursts, self.spacing);
            let mut cells: Vec<usize> = vec![0];
            cells.extend(self.kills.iter().copied().filter(|&k| k > 0));
            for k in cells {
                let samples = if k == 0 { 1 } else { self.plans_per_cell };
                for s in 0..samples {
                    let plan = self.sample_plan(li, k, s, links, horizon);
                    plan.validate(links, graph.num_routers()).map_err(|e| {
                        format!("{name} k={k} sample {s}: invalid sampled plan: {e}")
                    })?;
                    let point = PointSpec {
                        label: format!("{name}|k{k}|s{s}"),
                        config: cfg.clone(),
                        kind: PointKind::Degradation {
                            plan,
                            bursts: self.bursts,
                            spacing: self.spacing,
                            stall_limit: self.stall_limit,
                        },
                    };
                    out.push(((li, k, s), point));
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
    let bytes: Vec<u8> = [layout, kills, sample]
        .iter()
        .flat_map(|&v| (v as u64).to_le_bytes())
        .collect();
    fnv1a64_from(FNV_OFFSET ^ master, &bytes)
}

/// Outcome of a campaign invocation: the sweep that ran its points and the
/// manifest document it wrote.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The points' sweep outcome (run facts: wall time, cache hits,
    /// simulated and interrupted counts).
    pub sweep: SweepOutcome,
    /// Manifest location (`<manifest_dir>/<name>.json`).
    pub manifest_path: PathBuf,
    /// The manifest document: per-point reliability numbers and curves.
    pub doc: Json,
}

/// Runs a campaign's points on the sweep engine, then writes its manifest
/// atomically to `<manifest_dir>/<name>.json` — also when the shutdown
/// flag stopped the sweep early, with the points that never started
/// marked `pending`.
///
/// # Errors
/// A message when a sampled plan fails validation, the sweep fails (an
/// invalid configuration, cache I/O), or the manifest cannot be written.
/// Point-level failures do *not* error — they are recorded per point and
/// surface in the curves.
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &SweepOptions,
    manifest_dir: &Path,
) -> Result<CampaignOutcome, String> {
    let (coords, points): (Vec<Coord>, Vec<PointSpec>) = spec.points()?.into_iter().unzip();
    let sweep = Sweep {
        name: spec.name.clone(),
        points,
    };
    let outcome = run_sweep(&sweep, opts).map_err(|e| e.to_string())?;
    let doc = manifest_doc(spec, &coords, &sweep, &outcome);
    std::fs::create_dir_all(manifest_dir).map_err(|e| format!("manifest dir: {e}"))?;
    let manifest_path = manifest_dir.join(format!("{}.json", spec.name));
    let tmp = manifest_path.with_extension("json.tmp");
    std::fs::write(&tmp, doc.pretty()).map_err(|e| format!("manifest: {e}"))?;
    std::fs::rename(&tmp, &manifest_path).map_err(|e| format!("manifest: {e}"))?;
    Ok(CampaignOutcome {
        sweep: outcome,
        manifest_path,
        doc,
    })
}

/// A finished point's manifest `metrics`: its reliability numbers, or
/// its error.
fn point_metrics(m: &PointMetrics) -> Json {
    let (Some(r), None) = (&m.reliability, &m.error) else {
        return Json::obj(vec![
            ("delivered", int(0)),
            ("permanent", int(0)),
            ("delivery_ratio", Json::Num(f64::NAN)),
            ("error", Json::Str(m.error.clone().unwrap_or_default())),
        ]);
    };
    let settled = m.delivered + r.permanent;
    #[allow(clippy::cast_precision_loss)]
    let delivery_ratio = if settled == 0 {
        1.0
    } else {
        m.delivered as f64 / settled as f64
    };
    Json::obj(vec![
        ("delivered", int(m.delivered)),
        ("permanent", int(r.permanent)),
        ("delivery_ratio", Json::Num(delivery_ratio)),
        ("latency_p50", int(r.latency_p50)),
        ("latency_p99", int(r.latency_p99)),
        ("finished_at", int(m.cycles)),
        ("reroutes", int(m.reroutes)),
        ("retransmissions", int(m.retransmissions)),
        ("reinjections", int(r.reinjections)),
        ("reinjected_flits", int(r.reinjected_flits)),
        ("recovered", int(r.recovered)),
        ("duplicates_suppressed", int(r.duplicates_suppressed)),
        ("error", Json::Null),
    ])
}

fn manifest_doc(
    spec: &CampaignSpec,
    coords: &[Coord],
    sweep: &Sweep,
    outcome: &SweepOutcome,
) -> Json {
    let point_objs: Vec<Json> = coords
        .iter()
        .zip(&sweep.points)
        .zip(&outcome.points)
        .map(|((&(li, kills, sample), p), m)| {
            let done = m.error.as_deref() != Some(INTERRUPTED);
            Json::obj(vec![
                ("layout", Json::Str(spec.layouts[li].0.clone())),
                ("kills", int(kills as u64)),
                ("sample", int(sample as u64)),
                ("key", Json::Str(p.content_key())),
                (
                    "status",
                    Json::Str(if done { "done" } else { "pending" }.to_owned()),
                ),
                ("metrics", if done { point_metrics(m) } else { Json::Null }),
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
        ("total", int(coords.len() as u64)),
        (
            "completed",
            int((coords.len() - outcome.interrupted) as u64),
        ),
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
    use crate::json;
    use heteronoc::noc::config::RouterCfg;
    use heteronoc::noc::topology::TopologyKind;
    use heteronoc::noc::types::Bits;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

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

    /// Cached sweep options over a fresh scratch cache, and a fresh
    /// manifest directory.
    fn opts(tag: &str) -> (SweepOptions, PathBuf) {
        let base =
            std::env::temp_dir().join(format!("heteronoc-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let opts = SweepOptions {
            jobs: 2,
            use_cache: true,
            cache_dir: base.join("cache"),
            shutdown: None,
            checkpoint_every: None,
            progress: None,
        };
        (opts, base.join("campaigns"))
    }

    fn counts(o: &CampaignOutcome) -> (usize, usize) {
        (o.sweep.simulated, o.sweep.cache_hits)
    }

    #[test]
    fn progress_stream_emits_valid_snapshots_and_a_final_done() {
        let spec = tiny_spec("progress");
        let sweep = Sweep {
            name: spec.name.clone(),
            points: spec.points().unwrap().into_iter().map(|(_, p)| p).collect(),
        };
        let (shared, manifest_dir) = opts("progress");
        let progress_path = manifest_dir.with_file_name("progress.jsonl");
        std::fs::create_dir_all(progress_path.parent().unwrap()).unwrap();
        let with_progress = SweepOptions {
            use_cache: false,
            progress: Some(progress_path.to_string_lossy().into_owned()),
            ..shared
        };
        let outcome = run_sweep(&sweep, &with_progress).unwrap();
        assert_eq!(outcome.simulated, 3);

        let text = std::fs::read_to_string(&progress_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // One snapshot after the cache scan, one per point, one final done.
        assert_eq!(lines.len(), 5, "{lines:?}");
        for (i, line) in lines.iter().enumerate() {
            let snap = json::parse(line).unwrap();
            assert_eq!(snap.get("schema").and_then(Json::as_u64), Some(1));
            assert_eq!(snap.get("kind").and_then(Json::as_str), Some("sweep"));
            assert_eq!(snap.get("seq").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(snap.get("points_total").and_then(Json::as_u64), Some(3));
        }
        let last = json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("done").and_then(Json::as_bool), Some(true));
        assert_eq!(last.get("points_done").and_then(Json::as_u64), Some(3));
        assert_eq!(last.get("eta_secs").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            last.get("counters")
                .and_then(|c| c.get("sweep.points.resolved"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }

    #[test]
    fn raised_shutdown_flag_stops_before_dispatch_and_flushes_the_manifest() {
        let spec = tiny_spec("shutdown");
        let flag = Arc::new(AtomicBool::new(true));
        let (shared, manifest_dir) = opts("shutdown");
        let first = SweepOptions {
            use_cache: false,
            shutdown: Some(Arc::clone(&flag)),
            ..shared
        };
        let o1 = run_campaign(&spec, &first, &manifest_dir).unwrap();
        assert_eq!(o1.sweep.interrupted, 3);
        assert_eq!(o1.sweep.simulated, 0);
        // The manifest is written with every point pending.
        assert!(o1.manifest_path.exists());
        assert_eq!(o1.doc.get("completed").and_then(Json::as_u64), Some(0));
        let points = o1.doc.get("points").and_then(Json::as_arr).unwrap();
        assert!(points
            .iter()
            .all(|p| p.get("status").and_then(Json::as_str) == Some("pending")));
        // Lowering the flag lets the same campaign complete.
        let second = SweepOptions {
            shutdown: None,
            ..first.clone()
        };
        let o2 = run_campaign(&spec, &second, &manifest_dir).unwrap();
        assert_eq!(o2.sweep.interrupted, 0);
        assert_eq!(o2.sweep.simulated, 3);
        assert_eq!(o2.doc.get("completed").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let spec = tiny_spec("det");
        let plan = |p: &(Coord, PointSpec)| match &p.1.kind {
            PointKind::Degradation { plan, .. } => plan.clone(),
            other => panic!("not a degradation point: {other:?}"),
        };
        let a = spec.points().unwrap();
        let b = spec.points().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(plan(x), plan(y), "sampling must be a pure function");
        }
        // Baseline cell first, fault-free, then two distinct samples.
        assert_eq!(a[0].0, (0, 0, 0));
        assert!(plan(&a[0]).hard.is_empty());
        assert_eq!(a.len(), 3);
        assert_ne!(plan(&a[1]).hard, plan(&a[2]).hard, "samples must differ");
        assert_eq!(plan(&a[1]).hard.len(), 1);
        // Pinned: a campaign's plans must not move between builds.
        assert_eq!(plan_seed(7, 0, 1, 2), 0x1ee3_cbd9_c534_e7e1);
    }

    #[test]
    fn survivable_campaign_delivers_everything() {
        let spec = tiny_spec("full");
        let (opts, manifest_dir) = opts("full");
        let o = run_campaign(&spec, &opts, &manifest_dir).unwrap();
        assert_eq!(o.doc.get("total").and_then(Json::as_u64), Some(3));
        assert_eq!(o.sweep.simulated, 3);
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
    fn partitioned_campaign_curves_match_the_reference() {
        let spec = CampaignSpec {
            kills: vec![3],
            plans_per_cell: 3,
            ..tiny_spec("partitioned")
        };
        let (opts, manifest_dir) = opts("partitioned");
        let o = run_campaign(&spec, &opts, &manifest_dir).unwrap();
        let curves = o.doc.get("curves").unwrap();
        let row = &curves.as_arr().unwrap()[1];
        let num = |k: &str| row.get(k).and_then(Json::as_f64).unwrap();
        assert!(
            num("delivery_min") < 1.0,
            "a sample must partition the mesh"
        );
        assert!(num("downtime_cycles") > 0.0 && num("recovery_overhead") > 0.0);
        // The rows the campaign wrote before it ran on the sweep engine.
        assert_eq!(
            curves.to_string(),
            concat!(
                r#"[{"layout":"mesh3","kills":0,"plans":1,"done":1,"failed":0,"#,
                r#""delivery_mean":1.0,"delivery_min":1.0,"latency_p99_mean":18.0,"#,
                r#""p99_x_baseline":1.0,"downtime_cycles":0.0,"recovery_overhead":0.0,"#,
                r#""reroutes_mean":0.0},"#,
                r#"{"layout":"mesh3","kills":3,"plans":3,"done":3,"failed":0,"#,
                r#""delivery_mean":0.7962962962962963,"delivery_min":0.3888888888888889,"#,
                r#""latency_p99_mean":19.0,"p99_x_baseline":1.0555555555555556,"#,
                r#""downtime_cycles":87037.33333333333,"recovery_overhead":5.372093023255814,"#,
                r#""reroutes_mean":3.0}]"#,
            )
        );
    }

    #[test]
    fn a_grown_campaign_simulates_only_its_new_point() {
        let (shared, manifest_dir) = opts("grow");
        let one = CampaignSpec {
            plans_per_cell: 1,
            ..tiny_spec("grow")
        };
        let o1 = run_campaign(&one, &shared, &manifest_dir).unwrap();
        assert_eq!(counts(&o1), (2, 0));
        // A second plan per cell keeps the first sample, so only the new
        // sample simulates.
        let two = tiny_spec("grow");
        let o2 = run_campaign(&two, &shared, &manifest_dir).unwrap();
        assert_eq!(counts(&o2), (1, 2));
        assert_eq!(o2.doc.get("completed").and_then(Json::as_u64), Some(3));
        // A third run simulates nothing and writes the same manifest.
        let o3 = run_campaign(&two, &shared, &manifest_dir).unwrap();
        assert_eq!(counts(&o3), (0, 3));
        assert_eq!(o3.doc.to_string(), o2.doc.to_string());
    }

    #[test]
    fn cache_resolves_points_across_campaign_names() {
        let spec = tiny_spec("cache-a");
        let (shared, manifest_dir) = opts("cache");
        let o1 = run_campaign(&spec, &shared, &manifest_dir).unwrap();
        assert_eq!(o1.sweep.simulated, 3);
        // Renaming the campaign keeps the cache keys (the name is only a
        // label), so nothing re-simulates.
        let renamed = CampaignSpec {
            name: "cache-b".to_owned(),
            ..spec
        };
        let o2 = run_campaign(&renamed, &shared, &manifest_dir).unwrap();
        assert_eq!(o2.sweep.simulated, 0);
        assert_eq!(o2.sweep.cache_hits, 3);
    }

    #[test]
    fn a_changed_seed_simulates_every_point_again() {
        let spec = tiny_spec("seed");
        let (shared, manifest_dir) = opts("seed");
        run_campaign(&spec, &shared, &manifest_dir).unwrap();
        let edited = CampaignSpec {
            seed: spec.seed + 1,
            ..spec
        };
        let o = run_campaign(&edited, &shared, &manifest_dir).unwrap();
        assert_eq!(counts(&o), (3, 0), "every plan derives from the seed");
    }
}
