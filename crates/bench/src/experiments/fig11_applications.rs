//! Figures 11 and 12: system-level evaluation with the ten application
//! workloads on the 64-tile CMP.
//!
//! Fig. 11 (a) network latency reduction per layout, (b) latency breakdown,
//! (c) network power reduction, (d) power breakdown. Fig. 12: IPC
//! improvement for (a) commercial and (b) PARSEC workloads. Both figures
//! come from the same simulations, so this experiment writes
//! `results/fig11_applications.txt` and `results/fig12_ipc.txt`.
//!
//! The 10 workloads × 7 layouts grid runs on the sweep engine as CMP
//! points, in parallel and memoized in `results/cache/`.

use crate::experiments::{run_grid, system};
use crate::sweep::{CmpSpec, PointKind, PointMetrics, PointSpec, Sweep};
use crate::{full_scale, pct_gain, pct_reduction, Report};
use heteronoc::traffic::workloads::Benchmark;
use heteronoc::{mesh_config, Layout};

fn trace_len() -> u64 {
    if full_scale() {
        20_000
    } else {
        2_500
    }
}

#[allow(clippy::needless_range_loop)] // parallel layout/result indexing
pub fn run() {
    let mut rep = Report::new("fig11_applications");
    let mut rep12 = Report::new("fig12_ipc");
    let layouts = Layout::all_seven();
    let benches = Benchmark::ALL;
    rep.line("# Figure 11 — application latency & power on the 64-tile CMP");
    rep.line(format!("# {} memory references per core", trace_len()));

    let mut sweep = Sweep::new("fig11_applications");
    for &bench in &benches {
        for layout in &layouts {
            sweep.push(PointSpec {
                label: format!("{bench}|{}", layout.name()),
                config: mesh_config(layout),
                kind: PointKind::Cmp(CmpSpec::uniform(bench, trace_len(), 0xAB, 20_000_000)),
            });
        }
    }
    let outcome = run_grid(&sweep);
    // results[b][l]
    let results: Vec<&[PointMetrics]> = outcome.points.chunks(layouts.len()).collect();

    rep.line("");
    rep.line("## (a) Network latency reduction over baseline [%]");
    let mut head = format!("{:<10}", "workload");
    for l in layouts.iter().skip(1) {
        head.push_str(&format!("{:>13}", l.name()));
    }
    rep.line(head.clone());
    for (bi, bench) in benches.iter().enumerate() {
        let base = results[bi][0].latency_ns;
        let mut row = format!("{:<10}", bench.to_string());
        for li in 1..layouts.len() {
            row.push_str(&format!(
                "{:>12.1}%",
                pct_reduction(base, results[bi][li].latency_ns)
            ));
        }
        rep.line(row);
    }

    rep.line("");
    rep.line("## (b) Latency breakdown [% of baseline total: queuing/blocking/transfer]");
    for (bi, bench) in benches.iter().enumerate() {
        let base_total: f64 = {
            let (q, b, t) = system(&results[bi][0]).latency_breakdown;
            q + b + t
        };
        let mut row = format!("{:<10}", bench.to_string());
        for li in 0..layouts.len() {
            let (q, b, t) = system(&results[bi][li]).latency_breakdown;
            row.push_str(&format!(
                "  {:>4.0}/{:<4.0}/{:<4.0}",
                100.0 * q / base_total,
                100.0 * b / base_total,
                100.0 * t / base_total
            ));
        }
        rep.line(row);
    }

    rep.line("");
    rep.line("## (c) Network power reduction over baseline [%]");
    rep.line(head.clone());
    for (bi, bench) in benches.iter().enumerate() {
        let base = results[bi][0].power_w;
        let mut row = format!("{:<10}", bench.to_string());
        for li in 1..layouts.len() {
            row.push_str(&format!(
                "{:>12.1}%",
                pct_reduction(base, results[bi][li].power_w)
            ));
        }
        rep.line(row);
    }

    rep.line("");
    rep.line("## (d) Power breakdown [% of baseline: links/xbar/arb/buffers]");
    for (bi, bench) in benches.iter().enumerate() {
        let base = system(&results[bi][0]).power.total();
        let mut row = format!("{:<10}", bench.to_string());
        for li in [0usize, 4, 6] {
            // Baseline, Center+BL, Diagonal+BL (as in the paper's Fig 11d).
            let p = &system(&results[bi][li]).power;
            row.push_str(&format!(
                "  {:>3.0}/{:<3.0}/{:<3.0}/{:<3.0}",
                100.0 * p.links / base,
                100.0 * p.crossbar / base,
                100.0 * p.arbiters / base,
                100.0 * p.buffers / base
            ));
        }
        rep.line(row);
    }

    // --- Figure 12 -----------------------------------------------------
    rep12.line("# Figure 12 — IPC improvement over baseline [%]");
    rep12.line(head);
    for (group, set) in [
        ("(a) commercial", &Benchmark::COMMERCIAL[..]),
        ("(b) PARSEC", &Benchmark::PARSEC[..]),
    ] {
        rep12.line(format!("## {group}"));
        let mut means = vec![0.0f64; layouts.len()];
        for bench in set {
            let bi = benches.iter().position(|b| b == bench).unwrap();
            let base = results[bi][0].mean_ipc;
            let mut row = format!("{:<10}", bench.to_string());
            for li in 1..layouts.len() {
                let g = pct_gain(base, results[bi][li].mean_ipc);
                means[li] += g / set.len() as f64;
                row.push_str(&format!("{:>12.1}%", g));
            }
            rep12.line(row);
        }
        let mut row = format!("{:<10}", "mean");
        for li in 1..layouts.len() {
            row.push_str(&format!("{:>12.1}%", means[li]));
        }
        rep12.line(row);
        rep12.line("");
    }

    // Summary.
    let avg = |li: usize, f: &dyn Fn(&PointMetrics) -> f64| -> f64 {
        results.iter().map(|r| f(&r[li])).sum::<f64>() / results.len() as f64
    };
    let base_lat = avg(0, &|r| r.latency_ns);
    let dbl_lat = avg(6, &|r| r.latency_ns);
    let base_pow = avg(0, &|r| r.power_w);
    let dbl_pow = avg(6, &|r| r.power_w);
    let base_ipc = avg(0, &|r| r.mean_ipc);
    let dbl_ipc = avg(6, &|r| r.mean_ipc);
    rep.line("");
    rep.line(format!(
        "## Summary (Diagonal+BL vs baseline): latency reduction {:+.1}% (paper +18.5%), power reduction {:+.1}% (paper +22%), IPC gain {:+.1}% (paper +10-12%)",
        pct_reduction(base_lat, dbl_lat),
        pct_reduction(base_pow, dbl_pow),
        pct_gain(base_ipc, dbl_ipc),
    ));
}
