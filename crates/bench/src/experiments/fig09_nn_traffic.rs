//! Figure 9: performance and power with nearest-neighbour traffic — the
//! paper's anomaly case. With NN traffic every packet travels one hop, so
//! the peripheral small routers carry traffic they were stripped to
//! de-provision: HeteroNoC saturates earlier than the baseline (+7% average
//! latency, -9.5% throughput in the paper) and Center+BL beats Diagonal+BL.
//!
//! Runs on the sweep engine, like Fig. 7: the 7 layouts × 10 rates grid is
//! sharded across worker threads and memoized in `results/cache/`.

use crate::sweep::{run_sweep, PointMetrics, Sweep, SweepOptions, TrafficSpec};
use crate::{
    default_params, mean_unsaturated_latency_ns, mean_unsaturated_power_w, pct_gain, pct_reduction,
    saturation_throughput, zero_load_latency_ns, Report,
};
use heteronoc::{mesh_config, Layout};

const SEED: u64 = 0xF1609;

pub fn run() {
    let mut rep = Report::new("fig09_nn_traffic");
    rep.line("# Figure 9 — nearest-neighbour traffic, 8x8 mesh");
    // NN saturates much later than UR (1-hop paths): sweep a wider range.
    let rates: Vec<f64> = (1..=10).map(|i| 0.0125 * i as f64).collect();

    let layouts = Layout::all_seven();
    let configs: Vec<(String, _)> = layouts
        .iter()
        .map(|l| (l.name().to_owned(), mesh_config(l)))
        .collect();
    let sweep = Sweep::grid(
        "fig09_nn_traffic",
        &configs,
        &[TrafficSpec::NearestNeighbor {
            width: 8,
            height: 8,
        }],
        &[SEED],
        &rates,
        default_params,
    );
    let outcome = run_sweep(&sweep, &SweepOptions::default()).expect("fig09 sweep");
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
    rep.line(header.clone());
    for (i, &rate) in rates.iter().enumerate() {
        let mut row = format!("{rate:<10.4}");
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
        "{:<14}{:>12}{:>14}{:>12}{:>12}",
        "config", "throughput", "avg latency", "zero load", "power"
    ));
    for (name, pts) in results.iter().skip(1) {
        rep.line(format!(
            "{:<14}{:>+11.1}%{:>+13.1}%{:>+11.1}%{:>+11.1}%",
            name,
            pct_gain(base_thr, saturation_throughput(pts)),
            pct_reduction(base_lat, mean_unsaturated_latency_ns(pts)),
            pct_reduction(base_zl, zero_load_latency_ns(pts)),
            pct_reduction(base_pow, mean_unsaturated_power_w(pts)),
        ));
    }
    rep.line("");
    rep.line("paper: HeteroNoC loses on NN (+7% latency, -9.5% throughput, only 7% power),");
    rep.line("and Center+BL performs better than Diagonal+BL under NN.");

    let lat = |name: &str| {
        mean_unsaturated_latency_ns(results.iter().find(|(n, _)| n == name).unwrap().1)
    };
    rep.line(format!(
        "measured: Center+BL {:.2} ns vs Diagonal+BL {:.2} ns ({})",
        lat("Center+BL"),
        lat("Diagonal+BL"),
        if lat("Center+BL") <= lat("Diagonal+BL") {
            "consistent with the paper"
        } else {
            "NOT consistent with the paper"
        }
    ));
}
