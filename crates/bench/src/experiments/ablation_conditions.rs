//! Ablation study: under which conditions does heterogeneous resource
//! redistribution win in this simulator?
//!
//! The paper's synthetic-traffic gains could not be reproduced under its
//! stated constraints (see EXPERIMENTS.md); this experiment isolates the
//! three mechanisms that penalize HeteroNoC in a first-principles model and
//! quantifies each:
//!
//! 1. **Flit-width tax**: 128b flits turn a 1024b line into 8 flits and
//!    halve narrow-link packet capacity relative to 192b links.
//! 2. **Clock tax**: the worst-case 2.07 GHz network clock (§3.4).
//! 3. **VC asymmetry**: stripping edge routers to 2 VCs costs more than
//!    6-VC centre routers gain.
//!
//! Each variant removes one tax from Diagonal+BL and re-measures UR latency
//! at a moderate load; a "no-tax" variant (192b flits everywhere, wide
//! centre links as an *additive* upgrade, baseline clock) shows the upside
//! the paper's intuition points at when the conservation constraints are
//! relaxed.

use crate::{default_params, Report};
use heteronoc::noc::config::{LinkWidths, NetworkConfig, RouterCfg};
use heteronoc::noc::network::Network;
use heteronoc::noc::sim::SimRun;
use heteronoc::noc::types::Bits;
use heteronoc::{mesh_config, Layout, Placement};

fn measure(cfg: NetworkConfig, rate: f64) -> (f64, bool) {
    let f = cfg.frequency_ghz;
    let net = Network::new(cfg).expect("valid");
    let out = SimRun::new(net, default_params(rate, 0xAB1A))
        .run()
        .expect("simulation run");
    (out.stats.latency.mean_total() / f, out.saturated)
}

pub fn run() {
    let mut rep = Report::new("ablation_conditions");
    rep.line("# Ablation — decomposing the HeteroNoC taxes (UR @ 0.04 and 0.055)");
    rep.line(format!(
        "{:<34}{:>14}{:>14}",
        "variant", "lat@0.04", "lat@0.055"
    ));

    let diag = Placement::diagonals(8, 8);
    let routers_hetero: Vec<RouterCfg> = diag
        .mask()
        .iter()
        .map(|&b| if b { RouterCfg::BIG } else { RouterCfg::SMALL })
        .collect();

    let mut variants: Vec<(&str, NetworkConfig)> = Vec::new();
    variants.push(("Baseline (homogeneous)", mesh_config(&Layout::Baseline)));
    variants.push((
        "Diagonal+BL (paper constraints)",
        mesh_config(&Layout::DiagonalBL),
    ));

    // Remove the clock tax.
    let mut v = mesh_config(&Layout::DiagonalBL);
    v.frequency_ghz = 2.2;
    variants.push(("Diagonal+BL @ 2.2 GHz", v));

    // Remove the flit-width tax: buffer-only redistribution (192b links).
    variants.push((
        "Diagonal+B (192b, buffers only)",
        mesh_config(&Layout::DiagonalB),
    ));

    // Buffer-only at the baseline clock.
    let mut v = mesh_config(&Layout::DiagonalB);
    v.frequency_ghz = 2.2;
    variants.push(("Diagonal+B @ 2.2 GHz", v));

    // Relax conservation: keep every router/link at baseline provisioning
    // and *additionally* widen the diagonal routers' links to 384b
    // (2 x 192b lanes) and their buffers to 6 VCs. This is the "what the
    // intuition buys without the taxes" upper bound.
    let mut v = mesh_config(&Layout::Baseline);
    v.routers = diag
        .mask()
        .iter()
        .map(|&b| {
            if b {
                RouterCfg::BIG
            } else {
                RouterCfg::BASELINE
            }
        })
        .collect();
    v.link_widths = LinkWidths::ByBigRouters {
        big: diag.mask().to_vec(),
        narrow: Bits(192),
        wide: Bits(384),
    };
    variants.push(("Additive big diagonals @ 2.2 GHz", v));

    // Width tax alone: homogeneous 3-VC routers but 128b flits/links at the
    // baseline clock (8-flit packets over narrow channels, no VC changes).
    let mut v = mesh_config(&Layout::Baseline);
    v.flit_width = Bits(128);
    v.link_widths = LinkWidths::Uniform(Bits(128));
    variants.push(("128b width tax only @ 2.2 GHz", v));
    let _ = routers_hetero;

    for (name, cfg) in variants {
        let (l1, s1) = measure(cfg.clone(), 0.04);
        let (l2, s2) = measure(cfg, 0.055);
        let fmt = |l: f64, s: bool| {
            if s {
                "sat".to_owned()
            } else {
                format!("{l:.2}ns")
            }
        };
        rep.line(format!(
            "{:<34}{:>14}{:>14}",
            name,
            fmt(l1, s1),
            fmt(l2, s2)
        ));
    }
    rep.line("");
    rep.line("Reading: each removed tax closes part of the gap; the additive variant");
    rep.line("(no conservation constraints) is the only one that beats the baseline,");
    rep.line("quantifying how much of the paper's claim rests on its cost model.");
}
