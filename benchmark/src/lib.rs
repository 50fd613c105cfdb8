//! Benchmark of the HeteroNoC reproduction, driven from outside the
//! program: it times calls into the public APIs of the sweep engine, the
//! NoC, the CMP, the traffic generators, the power model and the lint
//! engine, and adds no tracing, option or environment variable to them.
//!
//! Four workloads (see `BENCHMARK.json` and `README.md`): the Fig. 7
//! open-loop grid, two Fig. 11 CMP points and the Fig. 13 closed loop.
//! An untraced run reports the end-to-end metrics; a separate traced run
//! reports per-layer metrics, measured around the calls into each layer.

pub mod cmp;
pub mod compare;
pub mod harness;
pub mod mc;
pub mod spec;
pub mod stats;
pub mod ur;

#[cfg(test)]
mod selftest;

use heteronoc::noc::sched::SchedReport;

/// The NoC layer's scheduler counters and delivery statistics, shared by
/// the workloads whose network is reachable from outside.
fn noc_layers(sched: &SchedReport, retired: u64, latency_sum: f64) -> Vec<(String, f64)> {
    [
        ("noc.full_cycles", sched.full_cycles as f64),
        ("noc.router_visits", sched.router_visits as f64),
        ("noc.mean_wake_set", sched.mean_wake_set()),
        ("noc.packets_retired", retired as f64),
        (
            "noc.latency_cycles_mean",
            latency_sum / retired.max(1) as f64,
        ),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_owned(), v))
    .collect()
}
