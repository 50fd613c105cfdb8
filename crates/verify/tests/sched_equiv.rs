//! Resume equivalence over random configurations.
//!
//! For random (layout × traffic × seed × injection rate × bit-error rate ×
//! checkpoint interval) draws, a traced run that writes periodic
//! checkpoints is resumed from its last checkpoint. The resumed run must
//! reach the uninterrupted run's statistics fingerprint, and its trace
//! must continue the uninterrupted trace byte for byte from the
//! checkpoint's cursor. Nothing the router walk skips is serialized: VC
//! masks and scheduler counters are rebuilt or restarted on restore.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use heteronoc::noc::checkpoint::Checkpoint;
use heteronoc::noc::fault::FaultPlan;
use heteronoc::noc::network::Network;
use heteronoc::noc::sim::{
    checkpoint_trace_cursor, InjectionProcess, SimOutcome, SimParams, SimRun, Traffic,
};
use heteronoc::noc::trace::{JsonlSink, SharedBuffer};
use heteronoc::noc::types::Rate;
use heteronoc::traffic::{BitComplement, Tornado, Transpose, UniformRandom};
use heteronoc::{mesh_config, Layout};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("heteronoc_sched_eq_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn traffic_by_index(i: usize) -> Box<dyn Traffic> {
    match i % 4 {
        0 => Box::new(UniformRandom),
        1 => Box::new(Transpose::new(8)),
        2 => Box::new(BitComplement),
        _ => Box::new(Tornado::new(8, 8)),
    }
}

fn fingerprint(out: &SimOutcome) -> (u64, u64, u64, u64, u64, u64) {
    (
        out.cycles,
        out.stats.packets_retired,
        out.stats.latency.total,
        out.stats.latency.blocking,
        out.dropped,
        out.stats.routers().map(|r| r.buffer_reads).sum::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Resuming from the last periodic checkpoint reproduces the
    /// uninterrupted run's statistics and the rest of its trace.
    #[test]
    fn resumed_run_matches_the_uninterrupted_one(
        layout_idx in 0usize..7,
        traffic_idx in 0usize..4,
        seed in 1u64..10_000,
        rate_idx in 0usize..3,
        ber_idx in 0usize..3,
        fault_seed in 1u64..1_000,
        every in 60u64..400,
    ) {
        let layout = Layout::all_seven()[layout_idx].clone();
        let cfg = mesh_config(&layout);
        let plan = FaultPlan::transient([0.0, 5e-5, 2e-4][ber_idx], fault_seed);
        let params = SimParams {
            injection_rate: Rate::new([0.005, 0.02, 0.05][rate_idx]),
            warmup_packets: 30,
            measure_packets: 250,
            max_cycles: 200_000,
            seed,
            process: InjectionProcess::Bernoulli,
            watchdog: Some(100_000),
        };
        let mk_net = || Network::with_faults(cfg.clone(), plan.clone()).expect("valid config");
        let dir = scratch(&format!(
            "{layout_idx}_{traffic_idx}_{seed}_{rate_idx}_{ber_idx}_{every}"
        ));
        let ckpt_path = dir.join("run.ckpt");

        // The uninterrupted run, traced, leaves its last periodic
        // checkpoint behind.
        let full = SharedBuffer::new();
        let mut traffic = traffic_by_index(traffic_idx);
        let uninterrupted = SimRun::new(mk_net(), params)
            .traffic(traffic.as_mut())
            .trace(Box::new(JsonlSink::new(full.clone())))
            .checkpoint_every(&ckpt_path, every)
            .run()
            .expect("simulation run");

        // A run that finished by its first boundary wrote no checkpoint.
        if uninterrupted.cycles > every {
            let ckpt = Checkpoint::load(&ckpt_path).expect("load checkpoint");
            prop_assert!(ckpt.cycle >= every && ckpt.cycle < uninterrupted.cycles);
            let cursor = checkpoint_trace_cursor(&ckpt)
                .expect("run checkpoint")
                .expect("traced run");
            let rest = SharedBuffer::new();
            let mut traffic = traffic_by_index(traffic_idx);
            let resumed = SimRun::new(mk_net(), params)
                .traffic(traffic.as_mut())
                .trace(Box::new(JsonlSink::resumed(rest.clone(), cursor)))
                .resume_from(ckpt)
                .run()
                .expect("resumed run");
            prop_assert_eq!(fingerprint(&resumed), fingerprint(&uninterrupted),
                "resumed run diverged from the uninterrupted one");
            let full = full.contents();
            prop_assert!(full[cursor as usize..] == rest.contents()[..],
                "resumed trace does not continue the uninterrupted one");
        }

        fs::remove_dir_all(&dir).ok();
    }
}
