//! §2 footnote 4: exhaustive design-space exploration on a 4x4 network.
//!
//! The paper enumerated every placement of big routers for three splits —
//! (12 small, 4 big): C(16,4)=1820, (10,6): 8008 and (8,8): 12870 raw
//! configurations — and extrapolated the winners to 8x8. We reduce each
//! space by D4 grid symmetry and score every canonical placement with a
//! short uniform-random simulation, reporting the best and worst layouts.
//!
//! Each split's placement grid runs on the sweep engine: canonical
//! placements are scored in parallel across worker threads and memoized
//! in `results/cache/`, so re-runs (and the 8x8 extrapolation work that
//! iterates on this experiment) only pay for new placements.

use crate::experiments::run_facts;
use crate::sweep::{run_sweep, PointKind, PointSpec, Sweep, SweepOptions, TrafficSpec};
use crate::{full_scale, Report};
use heteronoc::dse;
use heteronoc::dse::ScoredPlacement;
use heteronoc::noc::config::{LinkWidths, NetworkConfig, RouterCfg};
use heteronoc::noc::routing::RoutingKind;
use heteronoc::noc::sim::{InjectionProcess, SimParams};
use heteronoc::noc::topology::TopologyKind;
use heteronoc::noc::types::Bits;
use heteronoc::noc::types::Rate;
use heteronoc::Placement;

fn placement_config(p: &Placement) -> NetworkConfig {
    NetworkConfig {
        topology: TopologyKind::Mesh {
            width: p.width(),
            height: p.height(),
        },
        flit_width: Bits(128),
        routers: p
            .mask()
            .iter()
            .map(|&b| if b { RouterCfg::BIG } else { RouterCfg::SMALL })
            .collect(),
        link_widths: LinkWidths::ByBigRouters {
            big: p.mask().to_vec(),
            narrow: Bits(128),
            wide: Bits(256),
        },
        routing: RoutingKind::DimensionOrder,
        frequency_ghz: 2.07,
        escape_timeout: 16,
    }
}

fn score_params(packets: u64) -> SimParams {
    SimParams {
        injection_rate: Rate::new(0.05),
        warmup_packets: packets / 10,
        measure_packets: packets,
        max_cycles: 200_000,
        seed: 0xD5E,
        process: InjectionProcess::Bernoulli,
        watchdog: Some(100_000),
    }
}

fn describe(p: &Placement) -> String {
    let mut grid = String::new();
    for y in 0..p.height() {
        for x in 0..p.width() {
            grid.push(if p.is_big(heteronoc::noc::RouterId(y * p.width() + x)) {
                'B'
            } else {
                '.'
            });
        }
        grid.push(' ');
    }
    grid
}

pub fn run() {
    let mut rep = Report::new("dse_4x4");
    rep.line("# §2 footnote 4 — exhaustive 4x4 design-space exploration");
    rep.line("");
    rep.line("raw placement counts (paper):");
    for k in [4u64, 6, 8] {
        rep.line(format!("  C(16,{k}) = {}", dse::binomial(16, k)));
    }

    // Full scale sweeps all three splits; quick mode the 4-big split only.
    let splits: Vec<usize> = if full_scale() { vec![4, 6, 8] } else { vec![4] };
    let packets: u64 = if full_scale() { 4_000 } else { 1_200 };

    for k in splits {
        let canon = dse::enumerate_canonical(4, k);
        rep.line("");
        rep.line(format!(
            "## split: {} small / {k} big — {} raw placements, {} after D4 symmetry",
            16 - k,
            dse::binomial(16, k as u64),
            canon.len()
        ));

        let mut sweep = Sweep::new(format!("dse_4x4_k{k}"));
        for p in &canon {
            sweep.push(PointSpec {
                label: describe(p),
                config: placement_config(p),
                kind: PointKind::OpenLoop {
                    params: score_params(packets),
                    traffic: TrafficSpec::Uniform,
                    faults: None,
                    epochs: None,
                },
            });
        }
        let outcome = run_sweep(&sweep, &SweepOptions::default()).expect("dse sweep");
        outcome.write_json().expect("write dse json");
        run_facts(&outcome);

        let mut scored: Vec<ScoredPlacement> = canon
            .iter()
            .zip(&outcome.points)
            .map(|(p, m)| ScoredPlacement {
                placement: p.clone(),
                score: if m.saturated || m.error.is_some() {
                    1e9
                } else {
                    m.latency_cycles
                },
            })
            .collect();
        scored.sort_by(|a, b| a.score.partial_cmp(&b.score).expect("finite scores"));

        rep.line("best five placements (mean latency in cycles; B = big router):");
        for s in scored.iter().take(5) {
            rep.line(format!("  {:8.2}  {}", s.score, describe(&s.placement)));
        }
        rep.line("worst three:");
        for s in scored.iter().rev().take(3) {
            rep.line(format!("  {:8.2}  {}", s.score, describe(&s.placement)));
        }
        // Where do the structured layouts rank?
        let diag = Placement::diagonals(4, 4);
        if k == 8 {
            let rank = scored
                .iter()
                .position(|s| s.placement == diag)
                .map(|i| i + 1);
            if let Some(r) = rank {
                rep.line(format!(
                    "diagonal placement ranks {r} of {} canonical layouts",
                    scored.len()
                ));
            }
        }
    }
}
