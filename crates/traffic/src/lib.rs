//! # heteronoc-traffic — traffic patterns and synthetic workloads
//!
//! Workload layer of the HeteroNoC reproduction:
//!
//! * [`patterns`] — the paper's synthetic traffic patterns (uniform random,
//!   nearest neighbour, transpose, bit-complement; plus bit-reverse, tornado
//!   and shuffle), all pluggable into the network simulator's open-loop
//!   driver;
//! * [`trace`] — the load/store + instruction-gap trace format the paper's
//!   CMP methodology replays;
//! * [`workloads`] — deterministic synthetic trace generators for the ten
//!   application benchmarks of Table 2 and `libquantum` (substituting the
//!   paper's proprietary Simics traces — see DESIGN.md).
//!
//! ```
//! use heteronoc_traffic::patterns::Transpose;
//! use heteronoc_noc::sim::{SimParams, SimRun};
//! use heteronoc_noc::{config::NetworkConfig, network::Network};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Network::new(NetworkConfig::paper_baseline())?;
//! let mut pattern = Transpose::new(8);
//! let params = SimParams { injection_rate: heteronoc_noc::types::Rate::new(0.01),
//!     warmup_packets: 50, measure_packets: 300,
//!                          ..SimParams::default() };
//! let out = SimRun::new(net, params).traffic(&mut pattern).run()?;
//! assert!(out.stats.packets_retired >= 300);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod patterns;
pub mod trace;
pub mod trace_io;
pub mod workloads;

pub use patterns::{
    BitComplement, BitReverse, NearestNeighbor, Shuffle, Tornado, Transpose, UniformRandom,
};
pub use trace::{MemOp, TraceRecord, TraceSource, VecTrace};
pub use trace_io::{read_trace, write_trace};
pub use workloads::{Benchmark, SyntheticWorkload, WorkloadProfile};
