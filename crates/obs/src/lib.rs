//! # heteronoc-obs — unified telemetry for the HeteroNoC simulator
//!
//! This crate is the *observational* layer of the workspace: a hierarchical
//! metrics registry (counters, gauges, and mergeable log-bucketed latency
//! histograms) cheap enough to be always-on, plus a JSONL progress-stream
//! sink that long-running jobs (simulations, sweeps, Monte Carlo campaigns)
//! write periodic snapshots to so `heteronoc top` can render a live
//! dashboard.
//!
//! Design constraints, in order:
//!
//! 1. **Observational only.** Nothing in this crate may influence the
//!    simulation: no RNG draws, no feedback into scheduling, no shared
//!    mutable state with the engine. Golden fingerprints and the
//!    cross-engine equivalence proptests must stay byte-identical whether
//!    or not a registry is exported or a progress sink is attached.
//! 2. **Exactly mergeable.** Sweep and campaign shards each build their own
//!    [`Registry`]; [`Registry::merge`] combines them without loss —
//!    counters add, histogram buckets add — so aggregate telemetry is
//!    independent of how work was sharded (`--jobs` never changes totals).
//! 3. **Deterministic rendering.** The registry iterates and serializes in
//!    sorted path order, and floats render via the shortest round-trip form
//!    (`{:?}`), so identical states produce identical bytes.
//!
//! The crate is dependency-free (it sits *below* `heteronoc-noc` in the
//! dependency graph) and holds the workspace's one JSON module, [`json`]:
//! the registry, progress snapshots and histograms write through it, the
//! trace checker in `heteronoc-noc` parses with it, and `heteronoc-bench`
//! re-exports it for its result files, its cache and the benchmark.
//!
//! ## Quick start
//!
//! ```
//! use heteronoc_obs::{Registry, Snapshot, PROGRESS_SCHEMA};
//!
//! let mut reg = Registry::new();
//! reg.counter_add("sim.packets.retired", 128);
//! reg.set_gauge("sim.flits_in_flight", 7.0);
//! reg.observe("sim.latency_cycles", 42);
//!
//! let mut snap = Snapshot::new("sim", 0);
//! snap.field_u64("cycle", 10_000).registry("counters", &reg);
//! let line = snap.render();
//! assert!(line.starts_with(&format!("{{\"schema\":{PROGRESS_SCHEMA}")));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hist;
pub mod json;
pub mod progress;
pub mod registry;

pub use hist::LogHistogram;
pub use progress::{ProgressSink, Snapshot, PROGRESS_SCHEMA};
pub use registry::{Metric, Registry};

/// Something that can export its state into a metrics [`Registry`].
///
/// Implementations write their values under `prefix` using dot-separated
/// hierarchical paths (e.g. an exporter called with prefix `"noc.sched"`
/// writes `noc.sched.full_cycles`, `noc.sched.wake_set` …). Exporting must
/// be side-effect-free with respect to `self`: it reads counters, it never
/// resets them.
pub trait Instrument {
    /// Write this component's metrics into `reg` under `prefix`.
    fn export(&self, reg: &mut Registry, prefix: &str);
}
