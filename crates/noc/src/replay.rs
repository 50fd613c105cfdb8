//! Divergence-bisecting replay.
//!
//! When a resumed run does *not* reproduce the original — a checkpoint was
//! taken under a buggy codec, a traffic pattern forgot to save its state, a
//! nondeterministic code path slipped into the engine — the failure usually
//! surfaces thousands of cycles later as a mismatched fingerprint, which
//! says nothing about where determinism was lost. This module pinpoints the
//! exact cycle instead.
//!
//! [`ReplayDriver`] replays two trajectories of the same configured run —
//! each either fresh from cycle 0 or resumed from a [`Checkpoint`] — and
//! binary-searches the first cycle boundary at which their state
//! fingerprints ([`crate::network::Network::state_digest`]) differ. Because
//! the engine is a deterministic function of its complete state, equal
//! fingerprints at cycle *t* imply equal trajectories up to *t*; the
//! "diverged by cycle *t*" predicate is therefore monotone in *t* and the
//! bisection is sound. At the first diverging cycle the driver walks both
//! networks field by field ([`crate::network::Network::divergences`]) and
//! reports *which router, VC and field* first went wrong.
//!
//! Cost: `O(log T)` probe pairs, each a deterministic replay of at most
//! `T` cycles — no stored digest trajectories, no giant traces.

use crate::checkpoint::{Checkpoint, Divergence};
use crate::network::Network;
use crate::sim::{SimError, SimParams, Stepper, Traffic};
use crate::types::Cycle;

/// Where a replay trajectory starts.
#[derive(Clone, Debug, Default)]
pub enum Trajectory {
    /// A fresh run from cycle 0.
    #[default]
    Fresh,
    /// Resume from a checkpoint (the trajectory is undefined before its
    /// capture cycle).
    Resumed(Checkpoint),
}

impl Trajectory {
    /// Earliest cycle the trajectory is defined at.
    pub fn start(&self) -> Cycle {
        match self {
            Trajectory::Fresh => 0,
            Trajectory::Resumed(c) => c.cycle,
        }
    }
}

/// Outcome of a divergence search: the first diverging cycle and the
/// field-level differences there.
#[derive(Clone, Debug)]
pub struct DivergenceReport {
    /// First cycle boundary at which the two trajectories' fingerprints
    /// differ.
    pub cycle: Cycle,
    /// Fingerprint of trajectory A at that cycle.
    pub digest_a: u64,
    /// Fingerprint of trajectory B at that cycle.
    pub digest_b: u64,
    /// Field-level differences at that cycle (trajectory A as "expected",
    /// B as "actual"), capped by the search's `max_fields`.
    pub fields: Vec<Divergence>,
    /// Probe pairs the bisection replayed.
    pub probes: u32,
}

impl std::fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "first divergence at cycle {} (digests {:016x} vs {:016x}, {} probe pairs):",
            self.cycle, self.digest_a, self.digest_b, self.probes
        )?;
        if self.fields.is_empty() {
            writeln!(f, "  (no field-level differences captured)")?;
        }
        for d in &self.fields {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Binary search for the smallest `t` in `(lo, hi]` with `differs(t)`,
/// given a monotone predicate with `!differs(lo)` and `differs(hi)`.
fn bisect_first<E>(
    mut lo: Cycle,
    mut hi: Cycle,
    mut differs: impl FnMut(Cycle) -> Result<bool, E>,
) -> Result<Cycle, E> {
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if differs(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

/// Replays trajectories of one configured run and bisects their first
/// divergence.
///
/// The driver owns factories for the network and the traffic pattern so
/// every probe replays from pristine state; both trajectories always use
/// the same configuration and [`SimParams`] (checkpoints are additionally
/// validated against them via their header hashes).
pub struct ReplayDriver<'a> {
    params: SimParams,
    make_net: Box<dyn Fn() -> Network + 'a>,
    make_traffic: Box<dyn Fn() -> Box<dyn Traffic> + 'a>,
}

impl std::fmt::Debug for ReplayDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayDriver")
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl<'a> ReplayDriver<'a> {
    /// A driver replaying runs of `make_net()` under `params` with
    /// `make_traffic()` patterns.
    pub fn new(
        params: SimParams,
        make_net: impl Fn() -> Network + 'a,
        make_traffic: impl Fn() -> Box<dyn Traffic> + 'a,
    ) -> Self {
        Self {
            params,
            make_net: Box::new(make_net),
            make_traffic: Box::new(make_traffic),
        }
    }

    /// A stepper for `src`, positioned at the trajectory's start cycle.
    fn stepper(&self, src: &Trajectory) -> Result<Stepper, SimError> {
        let net = (self.make_net)();
        let traffic = (self.make_traffic)();
        match src {
            Trajectory::Fresh => Ok(Stepper::fresh(net, self.params, traffic)),
            Trajectory::Resumed(ckpt) => Stepper::resumed(net, self.params, traffic, ckpt),
        }
    }

    /// Replays `src` to cycle `t` and returns the fingerprint there.
    fn digest_at(&self, src: &Trajectory, t: Cycle) -> Result<u64, SimError> {
        let mut s = self.stepper(src)?;
        s.run_to(t)?;
        Ok(s.digest())
    }

    /// Finds the first cycle boundary in `[start, horizon]` at which
    /// trajectories `a` and `b` diverge, where `start` is the later of the
    /// two trajectories' start cycles. Returns `None` when the
    /// trajectories agree over the whole window (the resumption is
    /// faithful).
    ///
    /// `max_fields` caps the field-level differences collected at the
    /// diverging cycle.
    ///
    /// # Errors
    /// Propagates checkpoint-restore failures and any [`SimError`] the
    /// replays themselves hit.
    pub fn first_divergence(
        &self,
        a: &Trajectory,
        b: &Trajectory,
        horizon: Cycle,
        max_fields: usize,
    ) -> Result<Option<DivergenceReport>, SimError> {
        let start = a.start().max(b.start());
        let horizon = horizon.max(start);
        let mut probes: u32 = 0;
        let mut differs = |t: Cycle| -> Result<bool, SimError> {
            probes += 1;
            Ok(self.digest_at(a, t)? != self.digest_at(b, t)?)
        };

        let cycle = if differs(start)? {
            // The trajectories disagree at the common start already (e.g. a
            // perturbed or stale checkpoint): that *is* the first boundary.
            start
        } else if !differs(horizon)? {
            return Ok(None);
        } else {
            bisect_first(start, horizon, &mut differs)?
        };

        let mut sa = self.stepper(a)?;
        sa.run_to(cycle)?;
        let mut sb = self.stepper(b)?;
        sb.run_to(cycle)?;
        Ok(Some(DivergenceReport {
            cycle,
            digest_a: sa.digest(),
            digest_b: sb.digest(),
            fields: sa.network().divergences(sb.network(), max_fields),
            probes,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointError, Dec, Enc};
    use crate::config::NetworkConfig;
    use crate::packet::PacketClass;
    use crate::sim::{InjectionProcess, UniformRandom};
    use crate::types::{Bits, NodeId};

    fn params() -> SimParams {
        SimParams {
            injection_rate: crate::types::Rate::new(0.02),
            warmup_packets: 50,
            measure_packets: 400,
            max_cycles: 200_000,
            seed: 7,
            process: InjectionProcess::Bernoulli,
            watchdog: Some(100_000),
        }
    }

    fn driver<'a>(make_traffic: impl Fn() -> Box<dyn Traffic> + 'a) -> ReplayDriver<'a> {
        ReplayDriver::new(
            params(),
            || Network::new(NetworkConfig::paper_baseline()).unwrap(),
            make_traffic,
        )
    }

    #[test]
    fn bisect_finds_every_threshold() {
        for threshold in 1..=50u64 {
            let found = bisect_first(0, 50, |t| Ok::<_, ()>(t >= threshold)).unwrap();
            assert_eq!(found, threshold);
        }
    }

    #[test]
    fn faithful_resume_has_no_divergence() {
        let d = driver(|| Box::new(UniformRandom));
        let mut s = d.stepper(&Trajectory::Fresh).unwrap();
        s.run_to(120).unwrap();
        let ckpt = s.checkpoint();
        let report = d
            .first_divergence(&Trajectory::Fresh, &Trajectory::Resumed(ckpt), 1_000, 16)
            .unwrap();
        assert!(
            report.is_none(),
            "faithful resume must not diverge: {report:?}"
        );
    }

    #[test]
    fn perturbed_checkpoint_diverges_at_its_own_cycle() {
        let d = driver(|| Box::new(UniformRandom));
        // Build a perturbed fixture: the checkpointed run carries one extra
        // packet the reference run never saw.
        let mut net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        net.enqueue(NodeId(0), NodeId(63), Bits(1024), PacketClass::Data, 0);
        let mut s = Stepper::fresh(net, params(), Box::new(UniformRandom));
        s.run_to(120).unwrap();
        let ckpt = s.checkpoint();

        let report = d
            .first_divergence(&Trajectory::Fresh, &Trajectory::Resumed(ckpt), 1_000, 16)
            .unwrap()
            .expect("perturbed fixture must diverge");
        assert_eq!(report.cycle, 120, "already wrong at the checkpoint cycle");
        assert_ne!(report.digest_a, report.digest_b);
        assert!(!report.fields.is_empty(), "fields must be named");
        let text = report.to_string();
        assert!(text.contains("first divergence at cycle 120"), "{text}");
    }

    /// A traffic pattern with internal state: sends every K-th packet to a
    /// hotspot node. The `faithful` flag controls whether that state is
    /// checkpointed — `false` models the real-world bug class this tool
    /// exists for (a pattern that forgot `save_state`).
    struct CountingHotspot {
        sent: u64,
        faithful: bool,
    }

    impl Traffic for CountingHotspot {
        fn destination(
            &mut self,
            src: NodeId,
            num_nodes: usize,
            rng: &mut rand::rngs::StdRng,
        ) -> NodeId {
            self.sent += 1;
            if self.sent.is_multiple_of(5) {
                NodeId(0)
            } else {
                UniformRandom.destination(src, num_nodes, rng)
            }
        }

        fn save_state(&self, e: &mut Enc) {
            if self.faithful {
                e.u64(self.sent);
            }
        }

        fn load_state(&mut self, d: &mut Dec) -> Result<(), CheckpointError> {
            if self.faithful {
                self.sent = d.u64()?;
            }
            Ok(())
        }
    }

    #[test]
    fn lost_traffic_state_is_bisected_to_a_cycle_after_the_checkpoint() {
        let mk = |faithful: bool| {
            move || -> Box<dyn Traffic> { Box::new(CountingHotspot { sent: 0, faithful }) }
        };

        // Faithful pattern: resume reproduces the run exactly.
        let d = driver(mk(true));
        let mut s = d.stepper(&Trajectory::Fresh).unwrap();
        s.run_to(100).unwrap();
        let good = s.checkpoint();
        assert!(d
            .first_divergence(&Trajectory::Fresh, &Trajectory::Resumed(good), 800, 16)
            .unwrap()
            .is_none());

        // Unfaithful pattern: the packet counter resets to 0 on resume, so
        // the resumed trajectory starts picking different destinations —
        // identical AT the checkpoint, provably diverging after it.
        let d = driver(mk(false));
        let mut s = d.stepper(&Trajectory::Fresh).unwrap();
        s.run_to(100).unwrap();
        let bad = s.checkpoint();
        let report = d
            .first_divergence(&Trajectory::Fresh, &Trajectory::Resumed(bad), 800, 16)
            .unwrap()
            .expect("lost pattern state must diverge");
        assert!(
            report.cycle > 100,
            "states agree at the checkpoint; divergence begins later (got {})",
            report.cycle
        );
        assert!(!report.fields.is_empty());
        assert!(report.probes >= 2, "bisection must actually probe");
    }

    #[test]
    fn two_checkpoints_of_the_same_run_agree() {
        let d = driver(|| Box::new(UniformRandom));
        let mut s = d.stepper(&Trajectory::Fresh).unwrap();
        s.run_to(60).unwrap();
        let early = s.checkpoint();
        s.run_to(180).unwrap();
        let late = s.checkpoint();
        let report = d
            .first_divergence(
                &Trajectory::Resumed(early),
                &Trajectory::Resumed(late),
                600,
                16,
            )
            .unwrap();
        assert!(report.is_none(), "{report:?}");
    }
}
