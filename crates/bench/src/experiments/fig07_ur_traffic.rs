//! Figure 7: performance and network power with uniform-random traffic.
//!
//! (a) load-latency curves for Baseline, Center+B, Diagonal+B, Center+BL,
//!     Diagonal+BL;
//! (b) throughput improvement, average-latency reduction and zero-load
//!     latency reduction of all six HeteroNoC layouts over the baseline;
//! (c) power vs load for Baseline, Row2_5+BL, Center+BL, Diagonal+BL.
//!
//! Runs on the sweep engine: the 7 layouts × 10 rates grid is sharded
//! across worker threads, memoized in `results/cache/`, and also emitted
//! machine-readably as `results/fig07_ur_traffic.json`.

use crate::experiments::run_facts;
use crate::sweep::{run_sweep, PointMetrics, Sweep, SweepOptions, TrafficSpec};
use crate::{
    default_params, mean_unsaturated_latency_ns, mean_unsaturated_power_w, pct_gain, pct_reduction,
    saturation_throughput, zero_load_latency_ns, Report,
};
use heteronoc::{mesh_config, Layout};

const SEED: u64 = 0xF1607;

pub fn run() {
    let mut rep = Report::new("fig07_ur_traffic");
    // The paper sweeps 0.004 .. 0.076 packets/node/cycle (Fig. 7a).
    let rates: Vec<f64> = (1..=10).map(|i| 0.008 * i as f64).collect();

    rep.line("# Figure 7 — uniform random traffic, 8x8 mesh");
    rep.line(format!(
        "# measurement batch: {} packets/load point",
        crate::measure_packets()
    ));

    let layouts = Layout::all_seven();
    let configs: Vec<(String, _)> = layouts
        .iter()
        .map(|l| (l.name().to_owned(), mesh_config(l)))
        .collect();
    let sweep = Sweep::grid(
        "fig07_ur_traffic",
        &configs,
        &[TrafficSpec::Uniform],
        &[SEED],
        &rates,
        default_params,
    );
    let opts = SweepOptions::default();
    let outcome = run_sweep(&sweep, &opts).expect("fig07 sweep");
    outcome.write_json().expect("write fig07 json");
    run_facts(&outcome);

    // Grid order is layout-major: one chunk of `rates` per layout.
    let results: Vec<(String, &[PointMetrics])> = layouts
        .iter()
        .zip(outcome.points.chunks(rates.len()))
        .map(|(l, pts)| (l.name().to_owned(), pts))
        .collect();

    rep.line("");
    rep.line("## (a) Load-latency curves [ns]");
    let mut header = String::from("rate      ");
    for (name, _) in &results {
        header.push_str(&format!("{name:>12}"));
    }
    rep.line(header);
    for (i, &rate) in rates.iter().enumerate() {
        let mut row = format!("{rate:<10.3}");
        for (_, pts) in &results {
            let p = &pts[i];
            if p.saturated || p.error.is_some() {
                row.push_str(&format!("{:>12}", "sat"));
            } else {
                row.push_str(&format!("{:>12.2}", p.latency_ns));
            }
        }
        rep.line(row);
    }

    let base = results[0].1;
    let base_thr = saturation_throughput(base);
    let base_lat = mean_unsaturated_latency_ns(base);
    let base_zl = zero_load_latency_ns(base);
    let base_pow = mean_unsaturated_power_w(base);

    rep.line("");
    rep.line("## (b) Percentage over baseline design");
    rep.line(format!(
        "{:<14}{:>12}{:>14}{:>12}",
        "config", "throughput", "avg latency", "zero load"
    ));
    for (name, pts) in results.iter().skip(1) {
        rep.line(format!(
            "{:<14}{:>+11.1}%{:>+13.1}%{:>+11.1}%",
            name,
            pct_gain(base_thr, saturation_throughput(pts)),
            pct_reduction(base_lat, mean_unsaturated_latency_ns(pts)),
            pct_reduction(base_zl, zero_load_latency_ns(pts)),
        ));
    }

    rep.line("");
    rep.line("## (c) Power vs load [W]");
    let mut header = String::from("rate      ");
    for (name, _) in &results {
        header.push_str(&format!("{name:>12}"));
    }
    rep.line(header);
    for (i, &rate) in rates.iter().enumerate() {
        let mut row = format!("{rate:<10.3}");
        for (_, pts) in &results {
            let p = &pts[i];
            if p.saturated || p.error.is_some() {
                row.push_str(&format!("{:>12}", "sat"));
            } else {
                row.push_str(&format!("{:>12.2}", p.power_w));
            }
        }
        rep.line(row);
    }

    // SVG renditions of (a) and (c).
    let dir = crate::results_dir();
    let mut lat_chart = crate::plot::LineChart::new(
        "Fig 7a — UR load-latency",
        "packets/node/cycle",
        "latency [ns]",
    );
    let mut pow_chart = crate::plot::LineChart::new(
        "Fig 7c — UR network power",
        "packets/node/cycle",
        "power [W]",
    );
    for (name, pts) in &results {
        lat_chart.series(
            name.clone(),
            pts.iter()
                .map(|p| (p.rate, if p.saturated { f64::NAN } else { p.latency_ns }))
                .collect(),
        );
        pow_chart.series(
            name.clone(),
            pts.iter()
                .map(|p| (p.rate, if p.saturated { f64::NAN } else { p.power_w }))
                .collect(),
        );
    }
    lat_chart.write(dir.join("fig07_latency.svg"));
    pow_chart.write(dir.join("fig07_power.svg"));
    rep.line("");
    rep.line(
        "(SVG: results/fig07_latency.svg, results/fig07_power.svg; \
         JSON: results/fig07_ur_traffic.json)",
    );

    rep.line("");
    rep.line("## Summary vs paper");
    let diag = results
        .iter()
        .find(|(n, _)| n == "Diagonal+BL")
        .expect("Diagonal+BL swept")
        .1;
    rep.line(format!(
        "Diagonal+BL vs baseline: latency reduction {:+.1}% (paper ~+24%), throughput gain {:+.1}% (paper ~+22%), power reduction {:+.1}% (paper ~+28%)",
        pct_reduction(base_lat, mean_unsaturated_latency_ns(diag)),
        pct_gain(base_thr, saturation_throughput(diag)),
        pct_reduction(base_pow, mean_unsaturated_power_w(diag)),
    ));
}
