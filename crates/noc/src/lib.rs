//! # heteronoc-noc — a cycle-accurate on-chip-network simulator
//!
//! This crate is the network substrate of the HeteroNoC (ISCA 2011)
//! reproduction: a wormhole-switched, virtual-channel, credit-flow-controlled
//! network-on-chip simulator with a two-stage router pipeline, supporting
//! *heterogeneous* per-router buffer organizations and per-link widths —
//! including the paper's dual-flit transmission over wide links.
//!
//! ## Quick start
//!
//! ```
//! use heteronoc_noc::config::NetworkConfig;
//! use heteronoc_noc::network::Network;
//! use heteronoc_noc::sim::{SimParams, SimRun};
//! use heteronoc_noc::types::Rate;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Network::new(NetworkConfig::paper_baseline())?;
//! let params = SimParams {
//!     injection_rate: Rate::new(0.01),
//!     warmup_packets: 100,
//!     measure_packets: 1_000,
//!     ..SimParams::default()
//! };
//! let out = SimRun::new(net, params).run()?;
//! println!(
//!     "latency {:.1} ns, throughput {:.4} packets/node/cycle",
//!     out.latency_ns(),
//!     out.throughput(64),
//! );
//! # Ok(())
//! # }
//! ```
//!
//! ## Layout
//!
//! * [`topology`] — mesh, torus, concentrated mesh, flattened butterfly;
//! * [`routing`] — X-Y dimension order, torus datelines, table routing with
//!   escape VCs;
//! * [`config`] — per-router/per-link heterogeneous configuration;
//! * [`network`] — the cycle-accurate engine;
//! * [`sched`] — scheduler counters (router visits, wakes, quiet-gap
//!   fast-path cycles);
//! * [`sim`] — the one driver loop every workload runs on ([`sim::drive`]
//!   over [`sim::Workload`]) and the open-loop synthetic-traffic workload;
//! * [`stats`] — latency decomposition, utilizations, power-model events;
//! * [`trace`] — flit-level event tracing (JSONL / Chrome `trace_event`);
//! * [`metrics`] — epoch time-series sampling of the live network;
//! * [`profile`] — per-pipeline-stage wall-time self-profiling;
//! * [`telemetry`] — exporters onto the unified `heteronoc-obs` metrics
//!   registry, and live progress-snapshot streaming via
//!   [`sim::SimRun::progress`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod config;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod network;
pub mod packet;
pub mod profile;
pub mod replay;
pub mod router;
pub mod routing;
pub mod sched;
pub mod sim;
pub mod stats;
pub mod telemetry;
pub mod topology;
pub mod trace;
pub mod types;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::{NetworkConfig, NetworkConfigBuilder, RouterCfg};
pub use fault::{
    DropReason, DroppedPacket, FaultCounters, FaultKind, FaultPlan, HardFault, RetryPolicy,
    UnrecoverableFault,
};
pub use metrics::EpochSample;
pub use network::snapshot::Divergence;
pub use network::{BlockedChannel, Delivered, Diagnostics, Network, StallReport, StuckPacket};
pub use packet::{Flit, Packet, PacketClass};
pub use profile::{ProfileReport, Stage, StageProfiler};
pub use replay::{DivergenceReport, ReplayDriver, Trajectory};
pub use sched::{SchedReport, WakeReason};
pub use trace::{ChromeTraceSink, JsonlSink, SharedBuffer, TraceEvent, TraceSink};
pub use types::{Bits, Coord, Cycle, NodeId, PacketId, PortId, Rate, RouterId, VcId};
