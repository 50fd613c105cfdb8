//! # heteronoc — heterogeneous on-chip interconnects for CMPs
//!
//! A from-scratch reproduction of *"A Case for Heterogeneous On-Chip
//! Interconnects for CMPs"* (Mishra, Vijaykrishnan, Das — ISCA 2011).
//!
//! The paper observes that deterministic X-Y routing makes resource demand
//! non-uniform across a mesh (hot centre, cool edges) and proposes
//! **HeteroNoC**: redistribute buffers and link bandwidth from a homogeneous
//! design into two router classes — *small* (2 VCs, 128b) and *big* (6 VCs,
//! 256b) — while conserving total VCs and bisection bandwidth. Placing the
//! big routers along the mesh diagonals (`Diagonal+BL`) wins: ~23% lower
//! latency, ~24% higher throughput and ~26% less power on synthetic
//! traffic.
//!
//! This crate is the design layer: router classes, the six paper layouts,
//! conversion to simulator configurations, resource accounting and the 4x4
//! design-space exploration. The substrates live in sibling crates
//! ([`heteronoc_noc`], [`heteronoc_power`], [`heteronoc_traffic`], and the
//! CMP simulator `heteronoc-cmp`), re-exported here for convenience.
//!
//! ## Quick start
//!
//! ```
//! use heteronoc::{Layout, mesh_config};
//! use heteronoc::noc::network::Network;
//! use heteronoc::noc::sim::{SimParams, SimRun};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's best layout: big routers along both diagonals, with
//! // combined buffer + link redistribution.
//! let cfg = mesh_config(&Layout::DiagonalBL);
//! let net = Network::new(cfg)?;
//! let out = SimRun::new(net, SimParams {
//!     injection_rate: heteronoc::noc::types::Rate::new(0.02), warmup_packets: 100,
//!     measure_packets: 1_000, ..SimParams::default()
//! }).run()?;
//! println!("Diagonal+BL latency: {:.2} ns", out.latency_ns());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dse;
pub mod layout;
pub mod netgen;
pub mod resources;
pub mod router_class;

pub use layout::{Layout, ParseLayoutError, Placement};
pub use netgen::{
    mesh_config, mesh_config_with_table, network_config, packet_flits, shipped_configs,
};
pub use resources::{audit_mesh_layout, ResourceAudit};
pub use router_class::{heteronoc_frequency_ghz, RouterClass};

/// Re-export of the network-simulator substrate.
pub use heteronoc_noc as noc;
/// Re-export of the power/area/frequency models.
pub use heteronoc_power as power;
/// Re-export of the traffic patterns and synthetic workloads.
pub use heteronoc_traffic as traffic;
