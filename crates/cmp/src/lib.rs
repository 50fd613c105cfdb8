//! # heteronoc-cmp — a trace-driven CMP simulator on the HeteroNoC network
//!
//! The system-level substrate of the HeteroNoC (ISCA 2011) reproduction:
//! a 64-tile CMP with per-tile cores, private L1 caches, a shared
//! distributed L2 with a two-level directory MESI protocol, and memory
//! controllers with a fixed-latency DRAM — all request/response/coherence
//! traffic travelling through the cycle-accurate `heteronoc-noc` network
//! exactly as the paper's methodology describes (§5.2, Table 2).
//!
//! * [`system`] — the full CMP ([`CmpSystem`]);
//! * [`core`] — trace-driven out-of-order / in-order core models;
//! * [`cache`] — set-associative LRU caches;
//! * [`msg`] — the coherence/memory message vocabulary;
//! * [`memctrl`] — controller placements (corners/diamond/diagonal), DRAM
//!   timing and the closed-loop request-response experiment of Fig. 13;
//! * [`metrics`] — IPC and weighted/harmonic speedups (§7).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod core;
pub mod memctrl;
pub mod metrics;
pub mod msg;
pub mod system;

pub use core::{Core, CoreParams};
pub use memctrl::{corners4, diagonal16, diamond16, run_closed_loop, ClosedLoop, MemCtrl};
pub use metrics::{harmonic_speedup, weighted_speedup, Welford};
pub use msg::{Msg, MsgKind};
pub use system::{CmpConfig, CmpStats, CmpSystem, MemParams};
