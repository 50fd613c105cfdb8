//! Every paper experiment as an in-process function, run by
//! `heteronoc experiment <id>` or, for the whole suite,
//! `heteronoc experiment all` ([`run_blocks`]: sharded across the sweep
//! executor's worker pool, a panic in one experiment caught and reported).
//!
//! Eight experiments — `fig07_ur_traffic`, `fig09_nn_traffic`,
//! `fig10_torus`, `fig11_applications`, `fig13_memctrl`,
//! `fig14_asymmetric`, `dse_4x4` and `fault_degradation` — run their
//! simulations as points on the sweep-orchestration engine
//! ([`crate::sweep`]), so the points run in parallel, pass the lint gate
//! and are memoized in `results/cache/`. The rest simulate a few points
//! directly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::sweep::{
    parallel_map, run_sweep, PointMetrics, Sweep, SweepOptions, SweepOutcome, SystemMetrics,
};
use crate::{capture_output, full_scale};
use heteronoc::traffic::workloads::Benchmark;

pub mod ablation_conditions;
pub mod dse_4x4;
pub mod dse_8x8_heuristic;
pub mod extra_patterns;
pub mod fault_degradation;
pub mod fig01_mesh_utilization;
pub mod fig02_other_topologies;
pub mod fig07_ur_traffic;
pub mod fig08_breakdowns;
pub mod fig09_nn_traffic;
pub mod fig10_torus;
pub mod fig11_applications;
pub mod fig13_memctrl;
pub mod fig14_asymmetric;
pub mod stat_combining;
pub mod table1_router_costs;

/// Registry of every experiment, in the canonical run order (cheap static
/// accounting first, the long closed-loop runs last).
pub const ALL: &[(&str, fn())] = &[
    ("table1_router_costs", table1_router_costs::run),
    ("fig01_mesh_utilization", fig01_mesh_utilization::run),
    ("fig02_other_topologies", fig02_other_topologies::run),
    ("fig07_ur_traffic", fig07_ur_traffic::run),
    ("fig08_breakdowns", fig08_breakdowns::run),
    ("fig09_nn_traffic", fig09_nn_traffic::run),
    ("extra_patterns", extra_patterns::run),
    ("stat_combining", stat_combining::run),
    ("dse_4x4", dse_4x4::run),
    ("dse_8x8_heuristic", dse_8x8_heuristic::run),
    ("fig11_applications", fig11_applications::run),
    ("fig10_torus", fig10_torus::run),
    ("fig13_memctrl", fig13_memctrl::run),
    ("fig14_asymmetric", fig14_asymmetric::run),
    ("ablation_conditions", ablation_conditions::run),
    ("fault_degradation", fault_degradation::run),
];

/// Runs `list` sharded over `jobs` worker threads. Each experiment's
/// output is captured and printed as one contiguous `=== name ===` block
/// when it finishes; a panic is caught and flagged in its block. Returns
/// the names of the experiments that panicked, in list order.
pub fn run_blocks(list: &[(&'static str, fn())], jobs: usize) -> Vec<&'static str> {
    let results = parallel_map(jobs, list.to_vec(), |(name, entry)| {
        let (outcome, output) = capture_output(|| catch_unwind(AssertUnwindSafe(entry)));
        // One `print!` per experiment holds the stdout lock for the whole
        // block, so blocks stay contiguous even when several finish close
        // together.
        let status = if outcome.is_err() {
            format!("!!! {name} panicked\n")
        } else {
            String::new()
        };
        print!("=== {name} ===\n{output}{status}\n");
        (name, outcome.is_ok())
    });
    results
        .into_iter()
        .filter(|&(_, ok)| !ok)
        .map(|(name, _)| name)
        .collect()
}

/// Runs `sweep` with the default options. Every point runs, and every
/// successful one is cached, before failed points fail the experiment,
/// each named with its error (for a CMP point that did not drain, its
/// drain report).
pub(crate) fn run_grid(sweep: &Sweep) -> SweepOutcome {
    let outcome = run_sweep(sweep, &SweepOptions::default()).expect("sweep I/O");
    let failed: Vec<String> = outcome
        .points
        .iter()
        .filter_map(|p| Some(format!("{}: {}", p.label, p.error.as_ref()?)))
        .collect();
    if !failed.is_empty() {
        panic!(
            "{} of {} points failed:\n{}",
            failed.len(),
            outcome.points.len(),
            failed.join("\n")
        );
    }
    outcome
}

/// Prints a sweep's run facts (wall time, simulated points, cache hits,
/// workers) to stderr: they change from run to run, so they stay out of
/// the result files.
pub(crate) fn run_facts(o: &SweepOutcome) {
    eprintln!("# {}: {} on {} worker(s)", o.name, o.summary(), o.jobs);
}

/// The workloads of the fig10 and fig13 CMP grids: all ten at full scale,
/// a representative five at quick scale (two commercial, three PARSEC
/// spanning the sharing/locality range).
pub(crate) fn cmp_benchmarks() -> Vec<Benchmark> {
    if full_scale() {
        Benchmark::ALL.to_vec()
    } else {
        vec![
            Benchmark::Sap,
            Benchmark::SpecJbb,
            Benchmark::Vips,
            Benchmark::Canneal,
            Benchmark::StreamCluster,
        ]
    }
}

/// The system-level results of a CMP or closed-loop point.
pub(crate) fn system(p: &PointMetrics) -> &SystemMetrics {
    p.system
        .as_ref()
        .expect("CMP and closed-loop points carry system metrics")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_blocks_reports_the_experiments_that_panic() {
        fn fine() {}
        fn broken() {
            panic!("deliberate failure");
        }
        let list: [(&'static str, fn()); 3] = [("a", fine), ("b", broken), ("c", fine)];
        for jobs in [1, 2] {
            assert_eq!(run_blocks(&list, jobs), vec!["b"]);
        }
    }

    #[test]
    fn experiment_ids_are_unique() {
        let mut ids: Vec<&str> = ALL.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len());
        assert!(!ids.contains(&"all"), "`all` selects the whole suite");
    }
}
