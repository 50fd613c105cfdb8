//! Text rendering of epoch time-series embedded in sweep results.
//!
//! `heteronoc report <name>` loads `results/<name>.json` (written by
//! [`crate::sweep::SweepOutcome::write_json`]) and, for every point that
//! carries an epoch time-series, prints a per-epoch table plus a
//! router-grid heatmap of mean buffer occupancy — the textual analogue of
//! the paper's center-vs-edge utilization figures (Figs. 1–2).

use crate::json::Json;

/// Shade ramp for heatmaps, darkest last.
const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Maps a 0.0–1.0 value onto the shade ramp. Values that are nonzero but
/// would round to blank get the lightest visible mark, so a near-idle
/// router is distinguishable from a dead one.
pub fn shade(v: f64) -> char {
    let v = if v.is_finite() {
        v.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let i = (v * (SHADES.len() - 1) as f64).round() as usize;
    if i == 0 && v > 1e-3 {
        return SHADES[1];
    }
    SHADES[i.min(SHADES.len() - 1)]
}

/// Renders `values` (one per router, row-major) as a `side`-wide grid of
/// shade characters, one router per cell.
pub fn heatmap_grid(values: &[f64], side: usize) -> String {
    let mut out = String::new();
    for row in values.chunks(side.max(1)) {
        out.push_str("    ");
        for &v in row {
            out.push(shade(v));
            out.push(' ');
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    out
}

fn nums(v: Option<&Json>) -> Vec<f64> {
    v.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn pctl(epoch: &Json, component: &str, p: &str) -> u64 {
    epoch
        .get("latency")
        .and_then(|l| l.get(component))
        .and_then(|c| c.get(p))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Renders one point's epoch time-series: a per-epoch table followed by a
/// heatmap of mean buffer occupancy over the whole run. `label` heads the
/// section; rows beyond `max_rows` are elided with a note.
pub fn render_epochs(label: &str, epochs: &[Json], max_rows: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("point {label}: {} epochs\n", epochs.len()));
    out.push_str(&format!(
        "  {:>5} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
        "epoch", "start", "end", "inj", "ej", "occ", "util", "maxutl", "p50", "p99"
    ));
    let shown = epochs.len().min(max_rows);
    for (i, e) in epochs.iter().take(shown).enumerate() {
        let occ = nums(e.get("buffer_occ"));
        let util = nums(e.get("link_util"));
        let max_util = util.iter().copied().fold(0.0, f64::max);
        out.push_str(&format!(
            "  {:>5} {:>9} {:>9} {:>7} {:>7} {:>7.3} {:>7.3} {:>7.3} {:>7} {:>7}\n",
            i,
            e.get("start").and_then(Json::as_u64).unwrap_or(0),
            e.get("end").and_then(Json::as_u64).unwrap_or(0),
            e.get("injected").and_then(Json::as_u64).unwrap_or(0),
            e.get("ejected").and_then(Json::as_u64).unwrap_or(0),
            mean(&occ),
            mean(&util),
            max_util,
            pctl(e, "total", "p50"),
            pctl(e, "total", "p99"),
        ));
    }
    if shown < epochs.len() {
        out.push_str(&format!(
            "  … {} more epochs elided\n",
            epochs.len() - shown
        ));
    }

    // Run-wide mean occupancy per router, drawn as a square grid when the
    // router count is a perfect square (meshes/tori), one row otherwise.
    let mut totals: Vec<f64> = Vec::new();
    for e in epochs {
        let occ = nums(e.get("buffer_occ"));
        if totals.is_empty() {
            totals = vec![0.0; occ.len()];
        }
        for (t, v) in totals.iter_mut().zip(&occ) {
            *t += v;
        }
    }
    if !totals.is_empty() {
        for t in &mut totals {
            *t /= epochs.len() as f64;
        }
        let n = totals.len();
        let side = (n as f64).sqrt().round() as usize;
        let side = if side * side == n { side } else { n };
        out.push_str("  mean buffer occupancy (router grid, ' '=0 '@'=1):\n");
        out.push_str(&heatmap_grid(&totals, side));
    }
    out
}

/// Renders every epoch-carrying point of a sweep-results document
/// (`results/<name>.json` parsed into [`Json`]).
///
/// # Errors
/// A message when the document has no `points` array or no point carries
/// an epoch time-series.
pub fn render_results(doc: &Json, max_rows: usize) -> Result<String, String> {
    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("results file has no \"points\" array")?;
    let mut out = String::new();
    let mut rendered = 0usize;
    for p in points {
        let label = p.get("label").and_then(Json::as_str).unwrap_or("?");
        if let Some(epochs) = p.get("epochs").and_then(Json::as_arr) {
            if !epochs.is_empty() {
                out.push_str(&render_epochs(label, epochs, max_rows));
                rendered += 1;
            }
        }
    }
    if rendered == 0 {
        return Err(
            "no point carries an epoch time-series (re-run the sweep with --epochs N)".into(),
        );
    }
    Ok(out)
}

/// Renders a campaign manifest (`results/campaigns/<name>.json`) as
/// per-layout reliability-curve tables — one row per dead-link count with
/// delivery ratio (mean and worst sample), p99 latency relative to the
/// fault-free baseline, reconfiguration downtime and recovery-traffic
/// overhead. Partial manifests (a campaign killed mid-run) render the
/// completed cells and show the remaining count.
///
/// # Errors
/// A message when the document is not a campaign manifest.
pub fn render_campaign(doc: &Json) -> Result<String, String> {
    if doc.get("kind").and_then(Json::as_str) != Some("campaign") {
        return Err("document is not a campaign manifest (no kind: \"campaign\")".into());
    }
    let name = doc.get("name").and_then(Json::as_str).unwrap_or("?");
    let total = doc.get("total").and_then(Json::as_u64).unwrap_or(0);
    let completed = doc.get("completed").and_then(Json::as_u64).unwrap_or(0);
    let curves = doc
        .get("curves")
        .and_then(Json::as_arr)
        .ok_or("campaign manifest has no \"curves\" array")?;

    let fnum = |row: &Json, key: &str, width: usize, prec: usize| -> String {
        match row.get(key).and_then(Json::as_f64) {
            Some(v) if v.is_finite() => format!("{v:>width$.prec$}"),
            _ => format!("{:>width$}", "-"),
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "campaign {name}: {completed}/{total} points complete\n"
    ));
    let mut current = String::new();
    for row in curves {
        let layout = row.get("layout").and_then(Json::as_str).unwrap_or("?");
        if layout != current {
            current = layout.to_owned();
            out.push_str(&format!(
                "\n{layout}\n{:>6}{:>7}{:>7}{:>10}{:>10}{:>9}{:>11}{:>10}{:>9}\n",
                "kills",
                "plans",
                "failed",
                "deliv",
                "worst",
                "p99x",
                "downtime",
                "ovh f/p",
                "reroute"
            ));
        }
        let kills = row.get("kills").and_then(Json::as_u64).unwrap_or(0);
        let plans = row.get("plans").and_then(Json::as_u64).unwrap_or(0);
        let failed = row.get("failed").and_then(Json::as_u64).unwrap_or(0);
        out.push_str(&format!(
            "{kills:>6}{plans:>7}{failed:>7}{}{}{}{}{}{}\n",
            fnum(row, "delivery_mean", 10, 4),
            fnum(row, "delivery_min", 10, 4),
            fnum(row, "p99_x_baseline", 9, 2),
            fnum(row, "downtime_cycles", 11, 0),
            fnum(row, "recovery_overhead", 10, 3),
            fnum(row, "reroutes_mean", 9, 1),
        ));
    }
    if completed < total {
        out.push_str(&format!(
            "\n{} points pending — re-run `heteronoc campaign` to resume\n",
            total - completed
        ));
    }
    Ok(out)
}

/// Renders two sweep-results documents (`results/<name>.json`) side by
/// side: one row per point label present in both, with latency, power and
/// throughput from each file and the relative deltas, followed by a list
/// of unmatched labels. Backs `heteronoc report --compare a.json b.json`.
/// A delta is `(b - a) / a`, so a negative latency/power delta is an
/// improvement.
///
/// # Errors
/// A message when either document has no `points` array or the two sweeps
/// share no point labels.
pub fn compare_sweeps(a: &Json, b: &Json) -> Result<String, String> {
    let points = |doc: &Json, which: &str| -> Result<Vec<Json>, String> {
        doc.get("points")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| format!("{which} document has no \"points\" array (not a sweep result)"))
    };
    let a_name = a.get("name").and_then(Json::as_str).unwrap_or("a");
    let b_name = b.get("name").and_then(Json::as_str).unwrap_or("b");
    let a_points = points(a, "first")?;
    let b_points = points(b, "second")?;

    let label = |p: &Json| p.get("label").and_then(Json::as_str).map(str::to_owned);
    let metric = |p: &Json, key: &str| -> Option<f64> {
        p.get(key).and_then(Json::as_f64).filter(|v| v.is_finite())
    };
    let pct = |old: Option<f64>, new: Option<f64>| -> String {
        match (old, new) {
            (Some(o), Some(n)) if o.abs() > f64::EPSILON => {
                format!("{:>+8.1}%", 100.0 * (n - o) / o)
            }
            _ => format!("{:>9}", "-"),
        }
    };
    let num = |v: Option<f64>, width: usize, prec: usize| -> String {
        match v {
            Some(v) => format!("{v:>width$.prec$}"),
            None => format!("{:>width$}", "-"),
        }
    };

    let mut out = format!("sweep compare: {a_name} (old) vs {b_name} (new)\n");
    out.push_str(&format!(
        "{:<28} {:>9} {:>9} {:>9}  {:>8} {:>8} {:>9}  {:>8} {:>8} {:>9}\n",
        "point",
        "lat_ns A",
        "lat_ns B",
        "Δlat",
        "pwr_w A",
        "pwr_w B",
        "Δpwr",
        "thr A",
        "thr B",
        "Δthr"
    ));
    let mut matched = 0usize;
    let mut only_a: Vec<String> = Vec::new();
    for pa in &a_points {
        let Some(l) = label(pa) else { continue };
        let Some(pb) = b_points.iter().find(|p| label(p).as_deref() == Some(&l)) else {
            only_a.push(l);
            continue;
        };
        matched += 1;
        let (la, lb) = (metric(pa, "latency_ns"), metric(pb, "latency_ns"));
        let (wa, wb) = (metric(pa, "power_w"), metric(pb, "power_w"));
        let (ta, tb) = (metric(pa, "throughput"), metric(pb, "throughput"));
        let sat = |p: &Json| p.get("saturated").and_then(Json::as_bool) == Some(true);
        let mark = match (sat(pa), sat(pb)) {
            (true, true) => " [sat both]",
            (true, false) => " [sat A]",
            (false, true) => " [sat B]",
            (false, false) => "",
        };
        out.push_str(&format!(
            "{l:<28} {} {} {}  {} {} {}  {} {} {}{mark}\n",
            num(la, 9, 2),
            num(lb, 9, 2),
            pct(la, lb),
            num(wa, 8, 2),
            num(wb, 8, 2),
            pct(wa, wb),
            num(ta, 8, 4),
            num(tb, 8, 4),
            pct(ta, tb),
        ));
    }
    if matched == 0 {
        return Err("the two sweeps share no point labels — nothing to compare".into());
    }
    let only_b: Vec<String> = b_points
        .iter()
        .filter_map(&label)
        .filter(|l| !a_points.iter().any(|p| label(p).as_deref() == Some(l)))
        .collect();
    for l in &only_a {
        out.push_str(&format!("{l:<28} (first sweep only)\n"));
    }
    for l in &only_b {
        out.push_str(&format!("{l:<28} (second sweep only)\n"));
    }
    out.push_str(&format!(
        "{matched} matched point(s), {} unmatched\n",
        only_a.len() + only_b.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(start: u64, end: u64, occ: Vec<f64>) -> Json {
        Json::obj(vec![
            ("start", Json::Int(start as i64)),
            ("end", Json::Int(end as i64)),
            ("injected", Json::Int(4)),
            ("ejected", Json::Int(3)),
            (
                "buffer_occ",
                Json::Arr(occ.into_iter().map(Json::Num).collect()),
            ),
            ("vc_busy", Json::Arr(vec![])),
            (
                "link_util",
                Json::Arr(vec![Json::Num(0.25), Json::Num(0.75)]),
            ),
            (
                "latency",
                Json::obj(vec![(
                    "total",
                    Json::obj(vec![
                        ("p50", Json::Int(15)),
                        ("p95", Json::Int(31)),
                        ("p99", Json::Int(63)),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn shade_ramp_is_monotone() {
        assert_eq!(shade(0.0), ' ');
        assert_eq!(shade(1.0), '@');
        assert_eq!(shade(f64::NAN), ' ');
        let mut last = 0usize;
        for i in 0..=10 {
            let c = shade(i as f64 / 10.0);
            let pos = SHADES.iter().position(|&s| s == c).unwrap();
            assert!(pos >= last);
            last = pos;
        }
    }

    #[test]
    fn grid_is_square_for_square_counts() {
        let g = heatmap_grid(&[0.0, 0.5, 0.9, 1.0], 2);
        assert_eq!(g.lines().count(), 2);
        assert!(g.contains('@'));
    }

    #[test]
    fn renders_table_and_heatmap() {
        let e = vec![
            epoch(0, 100, vec![0.1, 0.9, 0.2, 0.4]),
            epoch(100, 200, vec![0.3, 0.7, 0.2, 0.4]),
        ];
        let text = render_epochs("mesh|ur|s1|r0.02", &e, 64);
        assert!(text.contains("2 epochs"));
        assert!(text.contains("p99"));
        assert!(text.contains("63"));
        assert!(text.contains("mean buffer occupancy"));
    }

    #[test]
    fn elides_long_series() {
        let e: Vec<Json> = (0..10)
            .map(|i| epoch(i * 10, (i + 1) * 10, vec![0.5]))
            .collect();
        let text = render_epochs("p", &e, 3);
        assert!(text.contains("7 more epochs elided"));
    }

    #[test]
    fn render_results_requires_epochs() {
        let doc = Json::obj(vec![(
            "points",
            Json::Arr(vec![Json::obj(vec![
                ("label", Json::Str("a".into())),
                ("epochs", Json::Null),
            ])]),
        )]);
        assert!(render_results(&doc, 10).is_err());

        let doc = Json::obj(vec![(
            "points",
            Json::Arr(vec![Json::obj(vec![
                ("label", Json::Str("a".into())),
                ("epochs", Json::Arr(vec![epoch(0, 50, vec![0.2])])),
            ])]),
        )]);
        let text = render_results(&doc, 10).unwrap();
        assert!(text.contains("point a"));
    }
    fn sweep_doc(name: &str, pts: Vec<(&str, f64, f64, f64, bool)>) -> Json {
        Json::obj(vec![
            ("name", Json::Str(name.into())),
            (
                "points",
                Json::Arr(
                    pts.into_iter()
                        .map(|(l, lat, pwr, thr, sat)| {
                            Json::obj(vec![
                                ("label", Json::Str(l.into())),
                                ("latency_ns", Json::Num(lat)),
                                ("power_w", Json::Num(pwr)),
                                ("throughput", Json::Num(thr)),
                                ("saturated", Json::Bool(sat)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn compare_sweeps_renders_matched_deltas_and_unmatched_labels() {
        let a = sweep_doc(
            "old",
            vec![
                ("m|r0.01", 20.0, 10.0, 0.01, false),
                ("m|r0.05", 80.0, 30.0, 0.05, true),
                ("gone", 1.0, 1.0, 0.001, false),
            ],
        );
        let b = sweep_doc(
            "new",
            vec![
                ("m|r0.01", 22.0, 9.0, 0.01, false),
                ("m|r0.05", 80.0, 30.0, 0.05, true),
                ("fresh", 1.0, 1.0, 0.001, false),
            ],
        );
        let text = compare_sweeps(&a, &b).unwrap();
        assert!(text.contains("old (old) vs new (new)"), "{text}");
        // +10% latency, -10% power on the matched low-rate point.
        assert!(text.contains("+10.0%"), "{text}");
        assert!(text.contains("-10.0%"), "{text}");
        assert!(text.contains("[sat both]"), "{text}");
        assert!(text.contains("gone") && text.contains("(first sweep only)"));
        assert!(text.contains("fresh") && text.contains("(second sweep only)"));
        assert!(text.contains("2 matched point(s), 2 unmatched"), "{text}");
    }

    #[test]
    fn compare_sweeps_rejects_non_sweeps_and_disjoint_labels() {
        let a = sweep_doc("a", vec![("x", 1.0, 1.0, 0.01, false)]);
        let b = sweep_doc("b", vec![("y", 1.0, 1.0, 0.01, false)]);
        assert!(compare_sweeps(&a, &b)
            .unwrap_err()
            .contains("no point labels"));
        let bad = Json::obj(vec![("name", Json::Str("n".into()))]);
        assert!(compare_sweeps(&bad, &a).unwrap_err().contains("points"));
    }
}
