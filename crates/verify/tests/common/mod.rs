//! Fixtures shared by the `heteronoc-verify` integration tests.

use heteronoc::noc::config::{NetworkConfig, RouterCfg};
use heteronoc::noc::topology::TopologyKind;
use heteronoc::noc::types::{Bits, RouterId};
use heteronoc::{mesh_config, mesh_config_with_table, Layout};

/// The configurations `heteronoc lint` checks by default: the paper's
/// seven mesh layouts, the best layout with a hub route table, and the
/// three alternative-topology homogeneous networks.
pub fn shipped_set() -> Vec<(String, NetworkConfig)> {
    let mut out: Vec<(String, NetworkConfig)> = Layout::all_seven()
        .into_iter()
        .map(|l| (l.name().to_owned(), mesh_config(&l)))
        .collect();
    let corners = [RouterId(0), RouterId(7), RouterId(56), RouterId(63)];
    out.push((
        "Diagonal+BL (table)".to_owned(),
        mesh_config_with_table(&Layout::DiagonalBL, &corners),
    ));
    for (name, kind) in [
        (
            "torus-8x8",
            TopologyKind::Torus {
                width: 8,
                height: 8,
            },
        ),
        (
            "cmesh-4x4x4",
            TopologyKind::CMesh {
                width: 4,
                height: 4,
                concentration: 4,
            },
        ),
        (
            "fbfly-4x4x4",
            TopologyKind::FlattenedButterfly {
                width: 4,
                height: 4,
                concentration: 4,
            },
        ),
    ] {
        out.push((
            name.to_owned(),
            NetworkConfig::homogeneous(kind, RouterCfg::BASELINE, Bits(192), 2.2),
        ));
    }
    out
}
