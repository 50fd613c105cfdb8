//! The driver loop and the open-loop synthetic-traffic workload.
//!
//! [`drive`] advances any [`Workload`] (open-loop traffic here; the CMP,
//! the closed loop and the fault campaign in their own crates) and owns
//! the clock ratio, the quiet-gap fast path, the invariant observer, the
//! profiler, the shutdown flag, checkpoint and progress boundaries and the
//! watchdog.
//!
//! [`SimRun`] reproduces the paper's measurement methodology (§4): warm
//! the network up with a fixed number of packets, then collect statistics
//! for a measurement batch, reporting latency/throughput/utilization as a
//! function of the offered load in packets/node/cycle.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use heteronoc_obs::{ProgressSink, Registry, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::{
    codec_struct, config_hash, fnv1a64, Checkpoint, CheckpointError, Codec, Dec, Enc,
};
use crate::fault::{FaultCounters, UnrecoverableFault};
use crate::metrics::{EpochSample, EpochSeries};
use crate::network::{Network, StallReport};
use crate::packet::PacketClass;
use crate::profile::ProfileReport;
use crate::sched::SchedReport;
use crate::stats::NetStats;
use crate::trace::TraceSink;
use crate::types::{Bits, Cycle, NodeId, Rate};

/// Per-cycle hook over the live network state (cargo feature `verify`).
///
/// [`drive`] runs the default [`StrictInvariants`] observer for every
/// workload; pass a custom implementation via [`SimRun::observer`] to
/// record, sample or tolerate violations of an open-loop run instead.
/// With the feature disabled the driver loop contains no observer call at
/// all.
#[cfg(feature = "verify")]
pub trait InvariantObserver {
    /// Called after every network step, before deliveries are drained.
    fn after_cycle(&mut self, net: &Network);
}

/// The default observer: runs [`Network::check_invariants`] every cycle and
/// panics on the first violation, naming the cycle and the broken state.
#[cfg(feature = "verify")]
#[derive(Clone, Copy, Debug, Default)]
pub struct StrictInvariants;

#[cfg(feature = "verify")]
impl InvariantObserver for StrictInvariants {
    fn after_cycle(&mut self, net: &Network) {
        if let Err(v) = net.check_invariants() {
            panic!("engine invariant violated at cycle {}: {v}", net.now());
        }
    }
}

/// A synthetic traffic source: picks a destination (and packet kind) for
/// each generated packet.
pub trait Traffic {
    /// Destination for a packet generated at `src`. Returning `src` itself
    /// is allowed (the packet ejects locally).
    fn destination(&mut self, src: NodeId, num_nodes: usize, rng: &mut StdRng) -> NodeId;

    /// Packet size in bits (defaults to the paper's 1024-bit data packet).
    fn size(&mut self, _src: NodeId, _rng: &mut StdRng) -> Bits {
        Bits(1024)
    }

    /// Message class (defaults to [`PacketClass::Data`]).
    fn class(&mut self, _src: NodeId) -> PacketClass {
        PacketClass::Data
    }

    /// Appends any internal pattern state to a checkpoint body. Stateless
    /// patterns (all the built-ins — their draws come entirely from the
    /// driver RNG, which is checkpointed separately) need not override
    /// this.
    fn save_state(&self, _e: &mut Enc) {}

    /// Restores state written by [`Traffic::save_state`]. Must consume
    /// exactly the bytes `save_state` wrote.
    ///
    /// # Errors
    /// [`CheckpointError`] when the recorded state cannot be decoded.
    fn load_state(&mut self, _d: &mut Dec) -> Result<(), CheckpointError> {
        Ok(())
    }
}

/// How packet generation times are drawn.
#[derive(Clone, Copy, Debug)]
pub enum InjectionProcess {
    /// Independent Bernoulli trial per node per cycle.
    Bernoulli,
    /// Self-similar (bursty) traffic: Pareto-distributed ON/OFF periods with
    /// the given shape parameter; packets are generated each cycle of an ON
    /// period with a compensated probability so the long-run rate matches
    /// the configured injection rate.
    SelfSimilar {
        /// Pareto shape (1 < alpha < 2 gives long-range dependence; the
        /// classic value is 1.9 for ON and 1.25 for OFF periods).
        alpha_on: f64,
        /// Pareto shape of the OFF periods.
        alpha_off: f64,
    },
}

/// Simulation parameters for one load point.
#[derive(Clone, Copy, Debug)]
pub struct SimParams {
    /// Offered load in packets/node/cycle. Validity (a probability in
    /// `[0, 1]`) is checked by [`SimRun::run`], which returns
    /// [`SimError::Config`] for out-of-range values.
    pub injection_rate: Rate,
    /// Packets to deliver before statistics collection starts (paper: 1000).
    pub warmup_packets: u64,
    /// Packets to measure (paper: 100,000).
    pub measure_packets: u64,
    /// Hard cycle limit; when the network saturates and cannot deliver the
    /// measurement batch, the run stops here and is flagged saturated.
    pub max_cycles: Cycle,
    /// RNG seed (simulations are deterministic per seed).
    pub seed: u64,
    /// Injection process.
    pub process: InjectionProcess,
    /// Progress watchdog: abort with a [`StallReport`] when packets are in
    /// flight but none has been delivered or dropped for this many cycles.
    /// `None` disables the watchdog (a wedged network then runs to
    /// `max_cycles`).
    pub watchdog: Option<Cycle>,
}

impl Default for SimParams {
    fn default() -> Self {
        Self {
            injection_rate: Rate::new(0.01),
            warmup_packets: 1_000,
            measure_packets: 100_000,
            max_cycles: 2_000_000,
            seed: 0xC0FFEE,
            process: InjectionProcess::Bernoulli,
            watchdog: Some(WATCHDOG_CYCLES),
        }
    }
}

/// Why a simulation run could not complete.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The watchdog saw no forward progress with packets in flight; the
    /// report names the stuck packets and blocked channels.
    Stalled(Box<StallReport>),
    /// A link exhausted its retransmission attempts (fault injection).
    Unrecoverable(UnrecoverableFault),
    /// The shutdown flag ([`SimRun::shutdown_flag`]) was raised; the run
    /// stopped at an iteration boundary, writing a final checkpoint first
    /// when one was configured.
    Interrupted {
        /// Cycle the run stopped at.
        cycle: Cycle,
        /// Where the final checkpoint went (`None` without
        /// [`SimRun::checkpoint_every`]).
        checkpoint: Option<PathBuf>,
    },
    /// Writing a checkpoint failed, or the checkpoint passed to
    /// [`SimRun::resume_from`] could not be restored.
    Checkpoint(Arc<CheckpointError>),
    /// The run was configured inconsistently (out-of-range injection
    /// rate, zero epoch or checkpoint interval). Builder methods never
    /// panic; every configuration error is deferred to [`SimRun::run`]
    /// and reported through this variant.
    Config(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled(report) => write!(f, "simulation stalled: {report}"),
            SimError::Unrecoverable(e) => write!(f, "unrecoverable fault: {e}"),
            SimError::Interrupted { cycle, checkpoint } => match checkpoint {
                Some(path) => write!(
                    f,
                    "interrupted at cycle {cycle}; checkpoint written to {}",
                    path.display()
                ),
                None => write!(f, "interrupted at cycle {cycle} (no checkpoint configured)"),
            },
            SimError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            SimError::Config(msg) => write!(f, "invalid run configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Checkpoint(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        SimError::Checkpoint(Arc::new(e))
    }
}

/// Hash of the simulation parameters, as recorded in checkpoint headers:
/// a resumed run must use the same parameters or the checkpointed loop
/// state (warmup thresholds, RNG stream, injection schedule) would not
/// describe it.
pub fn params_hash(p: &SimParams) -> u64 {
    fnv1a64(format!("{p:?}").as_bytes())
}

/// Byte cursor of the trace sink recorded in a run checkpoint, without
/// decoding the rest of the body.
///
/// A resuming caller truncates its trace file to this length (the bytes the
/// interrupted run had durably emitted by the checkpointed cycle) and
/// installs the reopened writer via
/// [`crate::trace::JsonlSink::resumed`], making the combined trace
/// byte-identical to an uninterrupted run's.
///
/// # Errors
/// [`CheckpointError`] when the body does not start with a sim section
/// (not a run checkpoint).
pub fn checkpoint_trace_cursor(ckpt: &Checkpoint) -> Result<Option<u64>, CheckpointError> {
    let mut d = Dec::new(&ckpt.body);
    d.sec(SEC_SIM, "sim")?;
    Codec::dec(&mut d)
}

/// Result of one open-loop run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Collected statistics (measurement window only).
    pub stats: NetStats,
    /// True when the run hit `max_cycles` before delivering the batch, or
    /// source queues grew without bound (offered load above saturation).
    pub saturated: bool,
    /// Total cycles simulated (warmup + measurement).
    pub cycles: Cycle,
    /// Network frequency, echoed for ns conversions.
    pub frequency_ghz: f64,
    /// Packets dropped by the fault layer (zero without fault injection).
    pub dropped: u64,
    /// Fault-campaign counters (all zero without fault injection).
    pub fault_counters: FaultCounters,
    /// Epoch time-series (empty unless [`SimRun::epochs`] was called).
    pub epochs: Vec<EpochSample>,
    /// Per-stage wall-time breakdown (`None` unless [`SimRun::profile`]
    /// enabled it).
    pub profile: Option<ProfileReport>,
    /// Scheduler counters for the whole run (always collected — they are
    /// observability-only and cost a handful of increments per cycle).
    /// Deterministic per run.
    pub sched: SchedReport,
}

impl SimOutcome {
    /// Mean packet latency in nanoseconds.
    pub fn latency_ns(&self) -> f64 {
        self.stats.mean_latency_ns(self.frequency_ghz)
    }

    /// Accepted throughput in packets/node/cycle.
    pub fn throughput(&self, num_nodes: usize) -> f64 {
        self.stats.throughput_ppc(num_nodes)
    }
}

/// Per-node state for the self-similar ON/OFF process.
#[derive(Clone, Copy, Debug)]
struct OnOff {
    on: bool,
    remaining: u64,
}

codec_struct!(OnOff { on, remaining });

/// Draws a Pareto-distributed period length with shape `alpha`, minimum 1.
fn pareto(rng: &mut StdRng, alpha: f64) -> u64 {
    let u: f64 = rng.random::<f64>().max(1e-12);
    (u.powf(-1.0 / alpha)).min(1e6) as u64 + 1
}

/// One configured open-loop simulation run: the unified entry point that
/// replaced the `run_open_loop` / `run_open_loop_result` /
/// `run_open_loop_observed` trio.
///
/// Packets are generated per node per cycle according to
/// [`SimParams::process`]; destinations come from the configured traffic
/// pattern ([`UniformRandom`] unless [`SimRun::traffic`] is called). Stall
/// and unrecoverable-fault conditions come back as typed [`SimError`]s.
///
/// # Examples
/// ```
/// use heteronoc_noc::config::NetworkConfig;
/// use heteronoc_noc::network::Network;
/// use heteronoc_noc::sim::{SimParams, SimRun, UniformRandom};
/// let net = Network::new(NetworkConfig::paper_baseline())?;
/// let params = SimParams {
///     injection_rate: heteronoc_noc::types::Rate::new(0.005),
///     warmup_packets: 50,
///     measure_packets: 500,
///     ..SimParams::default()
/// };
/// let out = SimRun::new(net, params).traffic(&mut UniformRandom).run()?;
/// assert!(!out.saturated);
/// assert!(out.stats.packets_retired >= 500);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SimRun<'a> {
    net: Network,
    params: SimParams,
    traffic: Option<&'a mut dyn Traffic>,
    trace: Option<Box<dyn TraceSink>>,
    epoch_every: Option<Cycle>,
    /// The profiler, checkpoint and shutdown hooks the builder sets.
    hooks: Hooks,
    resume: Option<Checkpoint>,
    progress: Option<(ProgressSink, Cycle)>,
    #[cfg(feature = "verify")]
    observer: Option<&'a mut dyn InvariantObserver>,
}

impl std::fmt::Debug for SimRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRun")
            .field("params", &self.params)
            .field("traffic", &self.traffic.is_some())
            .field("trace", &self.trace.is_some())
            .field("epoch_every", &self.epoch_every)
            .field("hooks", &self.hooks)
            .field("resume", &self.resume.as_ref().map(|c| c.cycle))
            .field("progress", &self.progress.as_ref().map(|(_, every)| *every))
            .finish_non_exhaustive()
    }
}

impl<'a> SimRun<'a> {
    /// Prepares a run of `net` (which should be freshly built) under
    /// `params`. Without further configuration the run uses
    /// [`UniformRandom`] traffic and, with the `verify` feature, the
    /// panicking [`StrictInvariants`] observer.
    pub fn new(net: Network, params: SimParams) -> Self {
        let mut hooks = Hooks::new(params.watchdog);
        hooks.until = params.max_cycles;
        Self {
            net,
            params,
            traffic: None,
            trace: None,
            epoch_every: None,
            hooks,
            resume: None,
            progress: None,
            #[cfg(feature = "verify")]
            observer: None,
        }
    }

    /// Sets the traffic pattern drawing each generated packet's
    /// destination, size and class.
    #[must_use]
    pub fn traffic(mut self, traffic: &'a mut dyn Traffic) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Streams every flit-lifecycle event of the run into `sink`
    /// (see [`crate::trace`]). The sink's `finish` runs before the
    /// [`SimOutcome`] is built, so buffered sinks are complete on return.
    #[must_use]
    pub fn trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Records an epoch time-series sample every `every` cycles
    /// (see [`crate::metrics`]); the samples come back in
    /// [`SimOutcome::epochs`]. A zero interval is reported as
    /// [`SimError::Config`] by [`SimRun::run`].
    #[must_use]
    pub fn epochs(mut self, every: Cycle) -> Self {
        self.epoch_every = Some(every);
        self
    }

    /// Enables per-pipeline-stage wall-time self-profiling
    /// (see [`crate::profile`]); the breakdown comes back in
    /// [`SimOutcome::profile`].
    #[must_use]
    pub fn profile(mut self, on: bool) -> Self {
        self.hooks.profile = on;
        self
    }

    /// Writes a checkpoint of the complete run state to `path` every
    /// `every` cycles (atomically — the previous checkpoint at `path` is
    /// replaced only by a complete new one), and a final one when the
    /// shutdown flag interrupts the run. Resuming from any of these
    /// checkpoints reproduces the uninterrupted run byte-for-byte.
    /// A zero interval is reported as [`SimError::Config`] by
    /// [`SimRun::run`].
    #[must_use]
    pub fn checkpoint_every(mut self, path: impl Into<PathBuf>, every: Cycle) -> Self {
        self.hooks.checkpoint = Some((path.into(), every));
        self
    }

    /// Resumes the run from `ckpt` instead of starting at cycle 0. The
    /// network passed to [`SimRun::new`] must be freshly built from the
    /// same configuration, and `params` must equal the original run's
    /// (both are enforced via the checkpoint header hashes).
    ///
    /// When the original run traced, install the reopened sink (truncated
    /// to [`checkpoint_trace_cursor`]) via [`SimRun::trace`] before
    /// running; the trace then continues byte-identically.
    #[must_use]
    pub fn resume_from(mut self, ckpt: Checkpoint) -> Self {
        self.resume = Some(ckpt);
        self
    }

    /// Installs a cooperative shutdown flag (typically raised from a
    /// SIGINT/SIGTERM handler). The run polls it at every iteration
    /// boundary; once raised, a final checkpoint is written (when
    /// configured) and the run returns [`SimError::Interrupted`].
    #[must_use]
    pub fn shutdown_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.hooks.shutdown = Some(flag);
        self
    }

    /// Streams one progress snapshot line (JSONL, see
    /// [`heteronoc_obs::progress`]) into `sink` every `every` cycles, plus
    /// one at the start of the run and a final one flagged `done`. Each
    /// snapshot carries the cycle, in-flight work, delivered/retired
    /// counts, a wall-clock ETA for the measurement batch, the full
    /// `noc.*` telemetry registry and counter deltas since the previous
    /// snapshot.
    ///
    /// Strictly observational: the snapshot boundary folds into the same
    /// loop-boundary mechanism checkpoints use, so traces, statistics
    /// fingerprints and checkpoint bytes are byte-identical with or
    /// without a progress sink (pinned by the trace-determinism suite).
    /// Sink write failures are reported to stderr once and otherwise
    /// ignored — a full disk must not kill a long run. A zero interval is
    /// reported as [`SimError::Config`] by [`SimRun::run`].
    #[must_use]
    pub fn progress(mut self, sink: ProgressSink, every: Cycle) -> Self {
        self.progress = Some((sink, every));
        self
    }

    /// Installs a caller-supplied [`InvariantObserver`] instead of the
    /// panicking [`StrictInvariants`] default (cargo feature `verify`).
    #[cfg(feature = "verify")]
    #[must_use]
    pub fn observer(mut self, observer: &'a mut dyn InvariantObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Executes the run.
    ///
    /// # Errors
    /// [`SimError::Config`] when the parameters or builder calls are
    /// inconsistent (out-of-range injection rate, zero epoch or
    /// checkpoint interval); [`SimError::Stalled`] when the progress
    /// watchdog fires with packets in flight; [`SimError::Unrecoverable`]
    /// when a faulty link exhausts its retransmission attempts;
    /// [`SimError::Interrupted`] when the shutdown flag is raised;
    /// [`SimError::Checkpoint`] when a checkpoint cannot be written or
    /// restored.
    pub fn run(self) -> Result<SimOutcome, SimError> {
        let SimRun {
            mut net,
            params,
            traffic,
            trace,
            epoch_every,
            mut hooks,
            resume,
            progress,
            #[cfg(feature = "verify")]
            observer,
        } = self;
        if !params.injection_rate.is_valid() {
            return Err(SimError::Config(format!(
                "injection rate {} is not a probability in [0, 1]",
                params.injection_rate
            )));
        }
        if epoch_every == Some(0) {
            return Err(SimError::Config("epoch interval must be non-zero".into()));
        }
        if let Some((_, 0)) = &hooks.checkpoint {
            return Err(SimError::Config(
                "checkpoint interval must be non-zero".into(),
            ));
        }
        if let Some((_, 0)) = &progress {
            return Err(SimError::Config(
                "progress interval must be non-zero".into(),
            ));
        }
        if let Some(sink) = trace {
            net.set_trace_sink(sink);
        }
        let mut default_traffic = UniformRandom;
        let traffic = traffic.unwrap_or(&mut default_traffic);
        let mut core = SimCore::new(net, params);
        core.epochs = epoch_every.map(|every| EpochSeries::new(every, core.net.stats()));
        hooks.progress = progress.map(|(sink, every)| ProgressState::new(sink, every));
        if let Some(ckpt) = resume {
            core.restore(&ckpt, traffic)?;
            hooks.last_saved = Some(ckpt.cycle);
        }
        let mut run = OpenLoop {
            core: &mut core,
            traffic,
        };
        #[cfg(feature = "verify")]
        {
            let mut strict = StrictInvariants;
            drive_observed(&mut run, hooks, observer.unwrap_or(&mut strict))?;
        }
        #[cfg(not(feature = "verify"))]
        drive(&mut run, hooks)?;
        Ok(core.finish())
    }
}

/// The progress watchdog window of [`SimParams::default`], in workload
/// cycles. CMP and closed-loop runs use it too.
pub const WATCHDOG_CYCLES: Cycle = 100_000;

/// A system [`drive`] advances: open-loop traffic, a CMP, a closed
/// request/response loop or a fault campaign. The workload keeps its own
/// traffic, its completion test and the order of its per-cycle work; the
/// driver owns everything else (clock ratio, quiet-gap fast path,
/// invariant observer, profiler, shutdown flag, checkpoint and progress
/// boundaries, watchdog).
///
/// One workload cycle runs [`Workload::inject`], then as many network
/// steps as the [`Clock`] ratio accumulates, each followed by
/// [`Workload::deliver`], then the watchdog over
/// [`Workload::progressed`], then [`Workload::end_cycle`].
pub trait Workload {
    /// The network the driver steps.
    fn net(&mut self) -> &mut Network;
    /// The driver's state for this workload (it outlives one
    /// [`drive`] call).
    fn clock(&mut self) -> &mut Clock;
    /// The workload's cycle: network cycles unless it says otherwise (a
    /// CMP counts core cycles).
    fn now(&mut self) -> Cycle {
        self.net().now()
    }
    /// True once the run is complete; checked before every cycle.
    fn done(&self) -> bool;
    /// Starts a cycle before its network steps: new traffic enters.
    fn inject(&mut self) {}
    /// Consumes what one network step delivered or dropped.
    ///
    /// # Errors
    /// Whatever ends the run at this step, such as
    /// [`SimError::Unrecoverable`].
    fn deliver(&mut self) -> Result<(), SimError>;
    /// True when the cycle so far made forward progress. The watchdog
    /// fails the run after [`Hooks::watchdog`] cycles without.
    fn progressed(&mut self) -> bool;
    /// Ends the cycle after the watchdog.
    fn end_cycle(&mut self) {}
    /// True when nothing would enter a quiescent network before the next
    /// boundary, so the driver may jump there in one go. Only a workload
    /// whose cycle is the network's may say so.
    fn may_skip_quiet(&self) -> bool {
        false
    }
    /// The report a stalled run ends with.
    fn stall_report(&mut self) -> StallReport {
        self.net().stall_report()
    }
    /// The run state a checkpoint captures; `None` when the workload
    /// cannot be checkpointed.
    fn checkpoint(&mut self) -> Option<Checkpoint> {
        None
    }
    /// Adds the workload's fields to a progress snapshot. Returns the
    /// packets retired and, once known, the number the run waits for
    /// (the ETA divides one by the other's rate).
    fn progress(&mut self, _snap: &mut Snapshot) -> (u64, Option<u64>) {
        (0, None)
    }
}

/// The driver's per-workload state across [`drive`] calls: how many
/// network steps one workload cycle takes, and when progress was last
/// seen.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    ratio: f64,
    acc: f64,
    last_progress: Cycle,
}

impl Clock {
    /// `ratio` network steps per workload cycle (network clock over the
    /// workload's). A fractional ratio accumulates, so steps need not
    /// line up with workload cycles.
    pub fn new(ratio: f64) -> Clock {
        Clock {
            ratio,
            acc: 0.0,
            last_progress: 0,
        }
    }

    /// The network steps of the next workload cycle.
    fn steps(&mut self) -> u32 {
        self.acc += self.ratio;
        let mut n = 0;
        while self.acc >= 1.0 {
            self.acc -= 1.0;
            n += 1;
        }
        n
    }
}

/// What one [`drive`] call attaches to its workload.
#[derive(Debug)]
pub struct Hooks {
    /// The run stops before this workload cycle (`Cycle::MAX`: only when
    /// the workload is done).
    pub until: Cycle,
    /// Cycles without progress before the run fails with
    /// [`SimError::Stalled`] (`None`: never).
    pub watchdog: Option<Cycle>,
    /// Once raised, the run stops at the next cycle boundary with
    /// [`SimError::Interrupted`].
    pub shutdown: Option<Arc<AtomicBool>>,
    /// Turns on the network's per-stage profiler.
    profile: bool,
    checkpoint: Option<(PathBuf, Cycle)>,
    last_saved: Option<Cycle>,
    progress: Option<ProgressState>,
}

impl Hooks {
    /// Runs to completion under `watchdog`, with nothing else attached.
    pub fn new(watchdog: Option<Cycle>) -> Hooks {
        Hooks {
            until: Cycle::MAX,
            watchdog,
            shutdown: None,
            profile: false,
            checkpoint: None,
            last_saved: None,
            progress: None,
        }
    }

    /// Writes the workload's checkpoint to the configured path.
    fn save(&mut self, w: &mut (impl Workload + ?Sized), now: Cycle) -> Result<(), SimError> {
        if let (Some((path, _)), Some(ckpt)) = (&self.checkpoint, w.checkpoint()) {
            ckpt.save(path)?;
        }
        self.last_saved = Some(now);
        Ok(())
    }
}

/// Runs `w` until it is done, `hooks.until`, the watchdog fires or the
/// shutdown flag is raised. With the `verify` feature every network step
/// is checked by `StrictInvariants`.
///
/// # Errors
/// [`SimError::Stalled`] from the watchdog, with the workload's
/// [`Workload::stall_report`]; [`SimError::Interrupted`] from the
/// shutdown flag; whatever [`Workload::deliver`] returns.
pub fn drive(w: &mut (impl Workload + ?Sized), hooks: Hooks) -> Result<(), SimError> {
    drive_observed(
        w,
        hooks,
        #[cfg(feature = "verify")]
        &mut StrictInvariants,
    )
}

/// [`drive`] with the invariant observer chosen by the caller.
fn drive_observed(
    w: &mut (impl Workload + ?Sized),
    mut hooks: Hooks,
    #[cfg(feature = "verify")] observer: &mut dyn InvariantObserver,
) -> Result<(), SimError> {
    if hooks.profile {
        w.net().enable_profiling();
    }
    while !w.done() {
        let now = w.now();
        if hooks
            .shutdown
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
        {
            if hooks.checkpoint.is_some() && hooks.last_saved != Some(now) {
                hooks.save(w, now)?;
            }
            return Err(SimError::Interrupted {
                cycle: now,
                checkpoint: hooks.checkpoint.map(|(path, _)| path),
            });
        }
        let due = |every: Cycle| now > 0 && now.is_multiple_of(every);
        if hooks.checkpoint.as_ref().is_some_and(|c| due(c.1)) && hooks.last_saved != Some(now) {
            hooks.save(w, now)?;
        }
        if let Some(p) = hooks.progress.as_mut() {
            if p.last_emitted.is_none() || (due(p.every) && p.last_emitted != Some(now)) {
                p.emit(w, false);
            }
        }
        if now >= hooks.until {
            break;
        }
        // The first cycle the loop needs control back at. A quiet-gap
        // jump never crosses it.
        let next = |e: Cycle| (now - now % e).saturating_add(e);
        let boundary = (hooks.checkpoint.as_ref())
            .map_or(Cycle::MAX, |c| next(c.1))
            .min(
                hooks
                    .progress
                    .as_ref()
                    .map_or(Cycle::MAX, |p| next(p.every)),
            )
            .min(hooks.until);

        w.inject();
        for _ in 0..w.clock().steps() {
            // A quiescent network cannot change state this step, so the
            // pipeline walk becomes bookkeeping, or a jump to the boundary
            // when nothing can enter before it.
            if w.net().quiescent() {
                let skip = w.may_skip_quiet();
                let net = w.net();
                let t = net.now();
                if skip && net.can_skip_quiet() && boundary > t + 1 {
                    net.skip_quiet(boundary - t);
                } else {
                    net.idle_step();
                }
            } else {
                w.net().step();
            }
            #[cfg(feature = "verify")]
            observer.after_cycle(w.net());
            w.deliver()?;
        }
        let now = w.now();
        if w.progressed() {
            w.clock().last_progress = now;
        } else if let Some(limit) = hooks.watchdog {
            if now.saturating_sub(w.clock().last_progress) > limit {
                return Err(SimError::Stalled(Box::new(w.stall_report())));
            }
        }
        w.end_cycle();
    }
    if let Some(p) = hooks.progress.as_mut() {
        p.emit(w, true);
    }
    Ok(())
}

/// Section tag of the driver-loop state at the start of every run
/// checkpoint body (trace cursor first — see [`checkpoint_trace_cursor`]).
const SEC_SIM: u8 = 11;
/// Section tag of the traffic-pattern state at the end of the body.
const SEC_TRAFFIC: u8 = 12;
/// Section tag of the epoch time-series, between the network state and
/// the traffic-pattern state.
const SEC_EPOCHS: u8 = 13;

/// The open-loop run state: the network plus the generator and
/// measurement counters, factored into a struct so a checkpoint can
/// capture it mid-run and the replay bisector can single-step it.
struct SimCore {
    net: Network,
    params: SimParams,
    clock: Clock,
    rng: StdRng,
    onoff: Vec<OnOff>,
    on_prob: f64,
    delivered_total: u64,
    dropped_total: u64,
    saturated: bool,
    /// The epoch time-series, when the run records one.
    epochs: Option<EpochSeries>,
    /// The current cycle delivered or dropped a packet.
    moved: bool,
    /// The batch retired, or saturation bailed out.
    done: bool,
}

impl SimCore {
    fn new(net: Network, params: SimParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed);
        let n = net.graph().num_nodes();
        let onoff = vec![
            OnOff {
                on: false,
                remaining: 0,
            };
            n
        ];
        // For the ON/OFF process the per-cycle ON probability is scaled so
        // the long-run rate equals `injection_rate`:
        // rate_on = rate * (E[on]+E[off])/E[on].
        let on_prob = match params.process {
            InjectionProcess::Bernoulli => params.injection_rate.get(),
            InjectionProcess::SelfSimilar {
                alpha_on,
                alpha_off,
            } => {
                let e_on = alpha_on / (alpha_on - 1.0);
                let e_off = alpha_off / (alpha_off - 1.0);
                (params.injection_rate.get() * (e_on + e_off) / e_on).min(1.0)
            }
        };
        Self {
            net,
            params,
            clock: Clock::new(1.0),
            rng,
            onoff,
            on_prob,
            delivered_total: 0,
            dropped_total: 0,
            saturated: false,
            epochs: None,
            moved: false,
            done: false,
        }
    }

    /// Applies the end-of-run saturation checks and builds the outcome.
    fn finish(mut self) -> SimOutcome {
        if self.net.now() >= self.params.max_cycles {
            self.saturated = true;
        }
        // A backlog larger than the measurement batch at the end of the run
        // means the offered load exceeded the accepted throughput.
        if self.net.in_flight() as u64 > self.params.measure_packets.max(100) {
            self.saturated = true;
        }

        let cycles = self.net.now();
        let frequency_ghz = self.net.config().frequency_ghz;
        self.net.finish_trace();
        let epochs = (self.epochs.take())
            .map(|e| e.finish(self.net.stats(), self.net.link_lanes()))
            .unwrap_or_default();
        let profile = self.net.take_profile();
        SimOutcome {
            stats: self.net.stats().clone(),
            saturated: self.saturated,
            cycles,
            frequency_ghz,
            dropped: self.dropped_total,
            fault_counters: self.net.fault_counters(),
            epochs,
            profile,
            sched: self.net.sched_report(),
        }
    }

    /// Captures the complete run state (driver loop + network + traffic
    /// pattern) as an in-memory checkpoint.
    fn make_checkpoint(&self, traffic: &dyn Traffic) -> Checkpoint {
        let mut e = Enc::new();
        e.sec(SEC_SIM);
        self.net.trace_bytes_written().enc(&mut e);
        self.rng.enc(&mut e);
        self.onoff.enc(&mut e);
        (
            self.delivered_total,
            self.dropped_total,
            self.saturated,
            self.clock.last_progress,
        )
            .enc(&mut e);
        self.net.encode_state(&mut e);
        e.sec(SEC_EPOCHS);
        self.epochs.enc(&mut e);
        e.sec(SEC_TRAFFIC);
        traffic.save_state(&mut e);
        Checkpoint {
            config_hash: config_hash(self.net.config()),
            params_hash: params_hash(&self.params),
            cycle: self.net.now(),
            body: e.into_bytes(),
        }
    }

    /// Restores the run state from `ckpt` after validating its header
    /// against this run's configuration and parameters.
    fn restore(&mut self, ckpt: &Checkpoint, traffic: &mut dyn Traffic) -> Result<(), SimError> {
        ckpt.check_compat(config_hash(self.net.config()), params_hash(&self.params))
            .map_err(SimError::from)?;
        let mut d = Dec::new(&ckpt.body);
        let mut inner = |d: &mut Dec| -> Result<(), CheckpointError> {
            d.sec(SEC_SIM, "sim")?;
            let _trace_cursor = Option::<u64>::dec(d)?;
            self.rng = Codec::dec(d)?;
            let onoff: Vec<OnOff> = Codec::dec(d)?;
            if onoff.len() != self.onoff.len() {
                return Err(CheckpointError::Malformed("onoff count"));
            }
            self.onoff = onoff;
            (
                self.delivered_total,
                self.dropped_total,
                self.saturated,
                self.clock.last_progress,
            ) = Codec::dec(d)?;
            self.net.decode_state(d)?;
            // The checkpoint's series, or its absence, carries on.
            d.sec(SEC_EPOCHS, "epochs")?;
            self.epochs = Codec::dec(d)?;
            if let Some(ep) = &self.epochs {
                if ep.every == 0 {
                    return Err(CheckpointError::Malformed("epoch length"));
                }
                if !ep.mark.same_shape(&self.net.stats().counts) {
                    return Err(CheckpointError::Malformed("epoch counters"));
                }
            }
            d.sec(SEC_TRAFFIC, "traffic")?;
            traffic.load_state(d)?;
            if !d.is_done() {
                return Err(CheckpointError::Malformed("trailing bytes"));
            }
            Ok(())
        };
        inner(&mut d).map_err(SimError::from)
    }
}

/// Open-loop traffic as a [`Workload`]: [`SimCore`] with its pattern.
struct OpenLoop<'c, 't> {
    core: &'c mut SimCore,
    traffic: &'t mut dyn Traffic,
}

impl Workload for OpenLoop<'_, '_> {
    fn net(&mut self) -> &mut Network {
        &mut self.core.net
    }

    fn clock(&mut self) -> &mut Clock {
        &mut self.core.clock
    }

    fn done(&self) -> bool {
        self.core.done
    }

    /// Draws this cycle's packets (the index is both the ON/OFF state
    /// and the `NodeId`). A Bernoulli source at rate zero makes no RNG
    /// draws, so walking a quiet gap and jumping it leave the same RNG
    /// state.
    fn inject(&mut self) {
        let c = &mut *self.core;
        let n = c.onoff.len();
        #[allow(clippy::needless_range_loop)]
        for node in 0..n {
            let fire = match c.params.process {
                InjectionProcess::Bernoulli => c.on_prob > 0.0 && c.rng.random::<f64>() < c.on_prob,
                InjectionProcess::SelfSimilar {
                    alpha_on,
                    alpha_off,
                } => {
                    let s = &mut c.onoff[node];
                    if s.remaining == 0 {
                        s.on = !s.on;
                        s.remaining = pareto(&mut c.rng, if s.on { alpha_on } else { alpha_off });
                    }
                    s.remaining -= 1;
                    s.on && c.rng.random::<f64>() < c.on_prob
                }
            };
            if fire {
                let src = NodeId(node);
                let dst = self.traffic.destination(src, n, &mut c.rng);
                let size = self.traffic.size(src, &mut c.rng);
                let class = self.traffic.class(src);
                c.net.enqueue(src, dst, size, class, 0);
            }
        }
    }

    fn deliver(&mut self) -> Result<(), SimError> {
        let c = &mut *self.core;
        if let Some(e) = c.net.fault_error() {
            return Err(SimError::Unrecoverable(e));
        }
        let newly = c.net.drain_delivered().len() as u64;
        c.delivered_total += newly;
        let newly_dropped = c.net.drain_dropped().len() as u64;
        c.dropped_total += newly_dropped;
        c.moved = newly + newly_dropped > 0;
        if let Some(ep) = c.epochs.as_mut() {
            ep.sample(c.net.stats(), c.net.link_lanes());
        }
        Ok(())
    }

    /// Completions and typed drops count as progress; an idle network is
    /// not stalled.
    fn progressed(&mut self) -> bool {
        self.core.moved || self.core.net.in_flight() == 0
    }

    /// The warm-up and measurement checks, then the saturation bail-out:
    /// queues holding several times the batch mean unbounded latency.
    fn end_cycle(&mut self) {
        let c = &mut *self.core;
        if !c.net.stats().measuring() && c.delivered_total >= c.params.warmup_packets {
            c.net.start_measuring();
        }
        if c.net.stats().measuring() && c.net.stats().packets_retired >= c.params.measure_packets {
            c.done = true;
        } else if c.net.now().is_multiple_of(4096)
            && c.net.in_flight() as u64 > 4 * c.params.measure_packets.max(1_000)
        {
            c.saturated = true;
            c.done = true;
        }
    }

    /// Only a Bernoulli source at rate zero injects nothing. A pending
    /// warm-up or measurement transition must fire at its exact cycle,
    /// and so must every epoch boundary, so both rule the jump out too.
    fn may_skip_quiet(&self) -> bool {
        let c = &*self.core;
        let measuring = c.net.stats().measuring();
        let phase_exit_pending = (!measuring && c.delivered_total >= c.params.warmup_packets)
            || (measuring && c.net.stats().packets_retired >= c.params.measure_packets);
        matches!(c.params.process, InjectionProcess::Bernoulli)
            && c.on_prob == 0.0
            && !phase_exit_pending
            && c.epochs.is_none()
    }

    fn checkpoint(&mut self) -> Option<Checkpoint> {
        Some(self.core.make_checkpoint(&*self.traffic))
    }

    fn progress(&mut self, snap: &mut Snapshot) -> (u64, Option<u64>) {
        let c = &*self.core;
        let retired = c.net.stats().packets_retired;
        let measuring = c.net.stats().measuring();
        snap.field_u64("max_cycles", c.params.max_cycles)
            .field_u64("in_flight", c.net.in_flight() as u64)
            .field_u64("delivered", c.delivered_total)
            .field_u64("retired", retired)
            .field_u64("measure_packets", c.params.measure_packets)
            .field_u64("dropped", c.dropped_total)
            .field_bool("measuring", measuring);
        (retired, measuring.then_some(c.params.measure_packets))
    }
}

/// Progress-stream state carried across the driver loop: the sink, the
/// reporting interval, and enough history (previous registry, wall-clock
/// and retired count) to compute deltas and an ETA. Lives entirely outside
/// the simulation state — building a snapshot reads the network, never
/// writes it, and draws no randomness.
#[derive(Debug)]
struct ProgressState {
    sink: ProgressSink,
    every: Cycle,
    seq: u64,
    started: Instant,
    prev: Registry,
    prev_elapsed: f64,
    prev_retired: u64,
    last_emitted: Option<Cycle>,
    warned: bool,
}

impl ProgressState {
    fn new(sink: ProgressSink, every: Cycle) -> Self {
        Self {
            sink,
            every,
            seq: 0,
            started: Instant::now(),
            prev: Registry::new(),
            prev_elapsed: 0.0,
            prev_retired: 0,
            last_emitted: None,
            warned: false,
        }
    }

    /// Emits one `kind:"sim"` snapshot of the workload. Write failures
    /// warn on stderr once and are otherwise swallowed.
    fn emit(&mut self, w: &mut (impl Workload + ?Sized), done: bool) {
        let now = w.now();
        let mut reg = Registry::new();
        w.net().export_telemetry(&mut reg);
        let elapsed = self.started.elapsed().as_secs_f64();
        let mut snap = Snapshot::new("sim", self.seq);
        snap.field_u64("cycle", now);
        let (retired, target) = w.progress(&mut snap);

        // ETA from the retirement rate since the previous snapshot (NaN
        // renders as null while unknown).
        let rate = (retired.saturating_sub(self.prev_retired)) as f64
            / (elapsed - self.prev_elapsed).max(1e-9);
        let eta = match target {
            _ if done => 0.0,
            Some(t) if rate > 0.0 => t.saturating_sub(retired) as f64 / rate,
            _ => f64::NAN,
        };
        snap.field_f64("elapsed_secs", elapsed)
            .field_f64("eta_secs", eta)
            .field_bool("done", done)
            .deltas("deltas", &reg, &self.prev)
            .registry("counters", &reg);
        if self.sink.emit(&snap).is_err() && !self.warned {
            eprintln!("warning: progress sink write failed; further snapshots dropped");
            self.warned = true;
        }
        self.seq += 1;
        self.prev = reg;
        self.prev_elapsed = elapsed;
        self.prev_retired = retired;
        self.last_emitted = Some(now);
    }
}

/// Deterministic single-stepping harness over the run loop, for replay
/// tooling: where [`SimRun::run`] drives the loop to completion, a
/// `Stepper` advances it to arbitrary cycle boundaries
/// ([`Stepper::run_to`]) and exposes the state fingerprint there
/// ([`Stepper::digest`]) — the primitive the divergence bisector in
/// [`crate::replay`] probes trajectories with.
///
/// A stepper owns its traffic pattern (checkpoint restore needs to feed
/// pattern state back into it) and never checkpoints, traces or profiles;
/// it replays the bare deterministic schedule.
pub struct Stepper {
    core: SimCore,
    traffic: Box<dyn Traffic>,
}

impl std::fmt::Debug for Stepper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stepper")
            .field("now", &self.core.net.now())
            .field("done", &self.core.done)
            .finish_non_exhaustive()
    }
}

impl Stepper {
    /// A stepper over a fresh run of `net` (cycle 0) under `params`.
    pub fn fresh(net: Network, params: SimParams, traffic: Box<dyn Traffic>) -> Self {
        Self {
            core: SimCore::new(net, params),
            traffic,
        }
    }

    /// A stepper resuming from `ckpt`; `net` must be freshly built from
    /// the checkpointed configuration and `params` must match (enforced
    /// via the header hashes).
    ///
    /// # Errors
    /// [`SimError::Checkpoint`] when the checkpoint does not belong to
    /// this configuration/parameter pair or fails to decode.
    pub fn resumed(
        net: Network,
        params: SimParams,
        traffic: Box<dyn Traffic>,
        ckpt: &Checkpoint,
    ) -> Result<Self, SimError> {
        let mut s = Self::fresh(net, params, traffic);
        s.core.restore(ckpt, s.traffic.as_mut())?;
        Ok(s)
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.core.net.now()
    }

    /// The network at the current boundary.
    pub fn network(&self) -> &Network {
        &self.core.net
    }

    /// State fingerprint at the current boundary (see
    /// [`Network::state_digest`]).
    pub fn digest(&self) -> u64 {
        self.core.net.state_digest()
    }

    /// Captures an in-memory checkpoint at the current boundary,
    /// equivalent to what [`SimRun::checkpoint_every`] writes to disk.
    pub fn checkpoint(&self) -> Checkpoint {
        self.core.make_checkpoint(self.traffic.as_ref())
    }

    /// Advances the loop until `target` (a cycle boundary), `max_cycles`
    /// or run completion, whichever comes first.
    ///
    /// # Errors
    /// Propagates [`SimError::Stalled`] / [`SimError::Unrecoverable`] from
    /// the underlying run loop.
    pub fn run_to(&mut self, target: Cycle) -> Result<(), SimError> {
        let mut hooks = Hooks::new(self.core.params.watchdog);
        hooks.until = target.min(self.core.params.max_cycles);
        let mut run = OpenLoop {
            core: &mut self.core,
            traffic: self.traffic.as_mut(),
        };
        drive(&mut run, hooks)
    }
}

/// Uniform-random traffic: every other node equally likely.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformRandom;

impl Traffic for UniformRandom {
    fn destination(&mut self, src: NodeId, num_nodes: usize, rng: &mut StdRng) -> NodeId {
        loop {
            let d = rng.random_range(0..num_nodes);
            if d != src.index() {
                return NodeId(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;

    fn quick_params(rate: f64) -> SimParams {
        SimParams {
            injection_rate: Rate::new(rate),
            warmup_packets: 50,
            measure_packets: 400,
            max_cycles: 200_000,
            seed: 7,
            process: InjectionProcess::Bernoulli,
            watchdog: Some(100_000),
        }
    }

    #[test]
    fn low_load_run_completes_unsaturated() {
        let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let out = SimRun::new(net, quick_params(0.005)).run().unwrap();
        assert!(!out.saturated);
        assert!(out.stats.packets_retired >= 400);
        assert!(out.latency_ns() > 0.0);
    }

    #[test]
    fn latency_grows_with_load() {
        let lat = |rate| {
            let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
            SimRun::new(net, quick_params(rate))
                .run()
                .unwrap()
                .latency_ns()
        };
        let low = lat(0.002);
        let high = lat(0.05);
        assert!(
            high > low,
            "latency must grow with load: low={low}ns high={high}ns"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
            let out = SimRun::new(net, quick_params(0.02)).run().unwrap();
            (
                out.stats.packets_retired,
                out.stats.latency.total,
                out.cycles,
            )
        };
        assert_eq!(run(), run());
    }

    // --- quiet-gap fast-forward ------------------------------------------

    #[test]
    fn config_errors_are_deferred_to_run() {
        let mk = || Network::new(NetworkConfig::paper_baseline()).unwrap();
        for bad_rate in [1.5, -0.1, f64::NAN] {
            let err = SimRun::new(mk(), quick_params(bad_rate)).run().unwrap_err();
            assert!(matches!(err, SimError::Config(_)), "{err}");
        }
        let err = SimRun::new(mk(), quick_params(0.01))
            .epochs(0)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err}");
        let err = SimRun::new(mk(), quick_params(0.01))
            .checkpoint_every("/nonexistent/never-written.ckpt", 0)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err}");
    }

    #[test]
    fn idle_run_fast_forwards_and_still_counts_every_cycle() {
        let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let params = SimParams {
            injection_rate: Rate::ZERO,
            max_cycles: 200_000,
            ..quick_params(0.0)
        };
        let out = SimRun::new(net, params).profile(true).run().unwrap();
        assert!(out.saturated, "no traffic ever retires the batch");
        assert_eq!(out.cycles, 200_000);
        let prof = out.profile.expect("profiling was enabled");
        assert_eq!(prof.steps, 200_000);
        assert_eq!(prof.sched.cycles, 200_000);
        assert!(
            prof.sched.jumped_cycles > 190_000,
            "an idle mesh must be covered by bulk jumps: {:?}",
            prof.sched
        );
    }

    #[test]
    fn quiet_gap_jump_matches_single_stepping_exactly() {
        let params = SimParams {
            injection_rate: Rate::ZERO,
            max_cycles: 10_000,
            ..quick_params(0.0)
        };
        let mk = || Network::new(NetworkConfig::paper_baseline()).unwrap();
        let mut jumped = Stepper::fresh(mk(), params, Box::new(UniformRandom));
        jumped.run_to(2_500).unwrap();
        let mut walked = Stepper::fresh(mk(), params, Box::new(UniformRandom));
        while walked.now() < 2_500 {
            walked.run_to(walked.now() + 1).unwrap();
        }
        assert_eq!(jumped.now(), 2_500);
        assert_eq!(jumped.now(), walked.now());
        assert_eq!(jumped.digest(), walked.digest());
        // RNG stream, loop counters and network state all byte-identical.
        assert_eq!(jumped.checkpoint().body, walked.checkpoint().body);
    }

    #[test]
    fn oversaturated_run_flags_saturation() {
        let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let mut p = quick_params(0.9);
        p.max_cycles = 20_000;
        let out = SimRun::new(net, p).run().unwrap();
        assert!(out.saturated);
    }

    #[test]
    fn self_similar_process_delivers() {
        let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let mut p = quick_params(0.01);
        p.process = InjectionProcess::SelfSimilar {
            alpha_on: 1.9,
            alpha_off: 1.25,
        };
        let out = SimRun::new(net, p).run().unwrap();
        assert!(out.stats.packets_retired >= 400);
    }

    #[test]
    fn pareto_draws_are_positive() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(pareto(&mut rng, 1.9) >= 1);
        }
    }

    // --- observability ---------------------------------------------------

    #[test]
    fn observability_run_produces_trace_epochs_and_profile() {
        use crate::trace::{check_jsonl, JsonlSink, SharedBuffer};
        let buf = SharedBuffer::new();
        let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let out = SimRun::new(net, quick_params(0.01))
            .trace(Box::new(JsonlSink::new(buf.clone())))
            .epochs(100)
            .profile(true)
            .run()
            .unwrap();

        let snap = check_jsonl(&buf.to_text()).expect("trace validates");
        // Every retired packet was injected and ejected exactly once, and
        // the ejects are visible whole (head..tail => eject >= inject).
        assert!(snap.count("inject") > 0);
        assert!(snap.count("eject") >= snap.count("inject"));
        assert!(snap.count("link_traverse") > 0);
        assert!(snap.count("vc_alloc") > 0);
        assert_eq!(snap.count("sa_grant"), snap.count("buffer_read"));
        assert_eq!(snap.count("fault"), 0);

        // Epochs tile the run: contiguous, 100 cycles each except the tail.
        assert!(!out.epochs.is_empty());
        assert_eq!(out.epochs[0].start, 0);
        for w in out.epochs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert_eq!(w[0].cycles(), 100);
        }
        assert_eq!(out.epochs.last().unwrap().end, out.cycles);
        let injected: u64 = out.epochs.iter().map(|e| e.injected).sum();
        let ejected: u64 = out.epochs.iter().map(|e| e.ejected).sum();
        assert_eq!(injected, snap.count("inject"));
        assert!(ejected <= injected);
        assert!(out.epochs.iter().any(|e| e.max_link_util() > 0.0));

        // The profiler saw every cycle and spent time somewhere.
        let prof = out.profile.expect("profiling was enabled");
        assert_eq!(prof.steps, out.cycles);
        assert!(prof.total_nanos() > 0);
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        let fingerprint = |traced: bool| {
            let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
            let mut run = SimRun::new(net, quick_params(0.02));
            if traced {
                run = run
                    .trace(Box::new(crate::trace::JsonlSink::new(std::io::sink())))
                    .epochs(64)
                    .profile(true);
            }
            let out = run.run().unwrap();
            (
                out.stats.packets_retired,
                out.stats.latency.total,
                out.stats.latency.queuing,
                out.cycles,
            )
        };
        assert_eq!(fingerprint(false), fingerprint(true));
    }

    // --- checkpoint / resume ---------------------------------------------

    fn ckpt_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("heteronoc-sim-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn resumed_run_matches_uninterrupted_run_exactly() {
        let dir = ckpt_dir("resume");
        let path = dir.join("run.ckpt");
        let params = quick_params(0.02);

        let base_buf = crate::trace::SharedBuffer::new();
        let base = SimRun::new(
            Network::new(NetworkConfig::paper_baseline()).unwrap(),
            params,
        )
        .trace(Box::new(crate::trace::JsonlSink::new(base_buf.clone())))
        .epochs(64)
        .run()
        .unwrap();

        // Same run, checkpointing along the way; `path` ends up holding the
        // last periodic checkpoint.
        let seg1_buf = crate::trace::SharedBuffer::new();
        let seg1 = SimRun::new(
            Network::new(NetworkConfig::paper_baseline()).unwrap(),
            params,
        )
        .trace(Box::new(crate::trace::JsonlSink::new(seg1_buf.clone())))
        .epochs(64)
        .checkpoint_every(&path, 100)
        .run()
        .unwrap();
        assert_eq!(base.stats, seg1.stats, "checkpointing must not perturb");
        assert_eq!(base_buf.contents(), seg1_buf.contents());

        // Resume from the mid-run checkpoint and compare everything.
        let ckpt = Checkpoint::load(&path).unwrap();
        assert!(ckpt.cycle > 0 && ckpt.cycle < base.cycles);
        let cursor = checkpoint_trace_cursor(&ckpt).unwrap().unwrap();
        let seg2_buf = crate::trace::SharedBuffer::new();
        let resumed = SimRun::new(
            Network::new(NetworkConfig::paper_baseline()).unwrap(),
            params,
        )
        .trace(Box::new(crate::trace::JsonlSink::resumed(
            seg2_buf.clone(),
            cursor,
        )))
        .epochs(64)
        .resume_from(ckpt)
        .run()
        .unwrap();

        assert_eq!(base.stats, resumed.stats, "stats must be byte-identical");
        assert_eq!(base.cycles, resumed.cycles);
        assert_eq!(base.saturated, resumed.saturated);
        assert_eq!(base.epochs, resumed.epochs, "epoch series must match");
        let full = base_buf.contents();
        assert_eq!(
            &full[cursor as usize..],
            &seg2_buf.contents()[..],
            "resumed trace must continue byte-identically from the cursor"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Matrix transpose on the 8x8 mesh: node (x, y) sends to (y, x).
    struct Transpose8;

    impl Traffic for Transpose8 {
        fn destination(&mut self, src: NodeId, _: usize, _: &mut StdRng) -> NodeId {
            NodeId(src.index() % 8 * 8 + src.index() / 8)
        }
    }

    /// Pins the whole run-checkpoint body, driver section included, to its
    /// schema 3 digest.
    #[test]
    fn checkpoint_bytes_are_pinned_for_a_self_similar_transpose_run() {
        let mut p = quick_params(0.03);
        p.process = InjectionProcess::SelfSimilar {
            alpha_on: 1.9,
            alpha_off: 1.25,
        };
        let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let mut s = Stepper::fresh(net, p, Box::new(Transpose8));
        s.run_to(300).unwrap();
        assert!(s.core.net.stats().measuring() && s.core.onoff.iter().any(|o| o.on));
        assert!(s.network().in_flight() > 0);
        assert_eq!(fnv1a64(&s.checkpoint().body), 0x3f97_bfe1_cc54_33b9);
    }

    #[test]
    fn shutdown_flag_interrupts_with_a_final_checkpoint() {
        let dir = ckpt_dir("interrupt");
        let path = dir.join("run.ckpt");
        let params = quick_params(0.02);
        let flag = Arc::new(AtomicBool::new(true)); // raised before cycle 0
        let err = SimRun::new(
            Network::new(NetworkConfig::paper_baseline()).unwrap(),
            params,
        )
        .checkpoint_every(&path, 100)
        .shutdown_flag(flag)
        .run()
        .unwrap_err();
        match err {
            SimError::Interrupted { cycle, checkpoint } => {
                assert_eq!(cycle, 0);
                let p = checkpoint.expect("final checkpoint must be written");
                let ckpt = Checkpoint::load(&p).unwrap();
                assert_eq!(ckpt.cycle, 0);
                // The interrupted run resumes to the same result as a fresh one.
                let resumed = SimRun::new(
                    Network::new(NetworkConfig::paper_baseline()).unwrap(),
                    params,
                )
                .resume_from(ckpt)
                .run()
                .unwrap();
                let fresh = SimRun::new(
                    Network::new(NetworkConfig::paper_baseline()).unwrap(),
                    params,
                )
                .run()
                .unwrap();
                assert_eq!(resumed.stats, fresh.stats);
            }
            other => panic!("expected Interrupted, got: {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_config_and_params() {
        let dir = ckpt_dir("mismatch");
        let path = dir.join("run.ckpt");
        let params = quick_params(0.02);
        SimRun::new(
            Network::new(NetworkConfig::paper_baseline()).unwrap(),
            params,
        )
        .checkpoint_every(&path, 100)
        .run()
        .unwrap();
        let ckpt = Checkpoint::load(&path).unwrap();

        // Different params: same config, different seed.
        let mut p2 = params;
        p2.seed = 8;
        let err = SimRun::new(Network::new(NetworkConfig::paper_baseline()).unwrap(), p2)
            .resume_from(ckpt.clone())
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, SimError::Checkpoint(e)
                if matches!(**e, CheckpointError::ParamsMismatch { .. })),
            "{err}"
        );

        // Different network configuration.
        let cfg = NetworkConfig::homogeneous(
            crate::topology::TopologyKind::Mesh {
                width: 4,
                height: 4,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        let err = SimRun::new(Network::new(cfg).unwrap(), params)
            .resume_from(ckpt)
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, SimError::Checkpoint(e)
                if matches!(**e, CheckpointError::ConfigMismatch { .. })),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_run_resumes_identically() {
        let dir = ckpt_dir("faulted");
        let path = dir.join("run.ckpt");
        let params = quick_params(0.02);
        let plan = || {
            let mut plan = FaultPlan::transient(1e-5, 99);
            plan.retry = RetryPolicy {
                max_attempts: 8,
                timeout: 64,
            };
            plan
        };
        let mk = || {
            let cfg = NetworkConfig::homogeneous(
                TopologyKind::Mesh {
                    width: 4,
                    height: 4,
                },
                RouterCfg::BASELINE,
                Bits(192),
                2.2,
            );
            Network::with_faults(cfg, plan()).unwrap()
        };
        let base = SimRun::new(mk(), params).run().unwrap();
        SimRun::new(mk(), params)
            .checkpoint_every(&path, 300)
            .run()
            .unwrap();
        let ckpt = Checkpoint::load(&path).unwrap();
        assert!(ckpt.cycle > 0);
        let resumed = SimRun::new(mk(), params).resume_from(ckpt).run().unwrap();
        assert_eq!(base.stats, resumed.stats);
        assert_eq!(base.fault_counters, resumed.fault_counters);
        assert_eq!(base.dropped, resumed.dropped);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- watchdog & fault propagation -----------------------------------

    use crate::config::RouterCfg;
    use crate::fault::{FaultKind, FaultPlan, HardFault, RetryPolicy};
    use crate::topology::TopologyKind;
    use crate::types::RouterId;

    fn faulted_mesh(plan: FaultPlan) -> Network {
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Mesh {
                width: 4,
                height: 4,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        Network::with_faults(cfg, plan).expect("valid")
    }

    #[test]
    fn watchdog_reports_wedged_packets() {
        // Two packets in flight toward routers that die mid-delivery: the
        // run must abort with a report naming both, not spin to max_cycles.
        let mut plan = FaultPlan::default();
        for r in [15, 12] {
            plan.hard.push(HardFault {
                cycle: 3,
                kind: FaultKind::Router(RouterId(r)),
            });
        }
        let mut net = faulted_mesh(plan);
        let a = net.enqueue(NodeId(0), NodeId(15), Bits(1024), PacketClass::Data, 0);
        let b = net.enqueue(NodeId(3), NodeId(12), Bits(1024), PacketClass::Data, 0);
        let params = SimParams {
            injection_rate: Rate::ZERO,
            watchdog: Some(400),
            ..SimParams::default()
        };
        let err = SimRun::new(net, params).run().unwrap_err();
        match err {
            SimError::Stalled(report) => {
                let ids: Vec<_> = report.stuck.iter().map(|s| s.packet).collect();
                assert!(ids.contains(&a) && ids.contains(&b), "{report}");
                assert!(report.cycle < 2_000, "watchdog must fire promptly");
                assert_eq!(report.in_flight, 2);
            }
            other => panic!("expected a stall report, got: {other}"),
        }
    }

    #[test]
    fn watchdog_stays_quiet_on_healthy_high_load() {
        let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let mut p = quick_params(0.08);
        p.watchdog = Some(2_000);
        let out = SimRun::new(net, p)
            .run()
            .expect("a healthy loaded network must never trip the watchdog");
        assert!(out.stats.packets_retired >= 400);
    }

    /// A workload that injects nothing, never finishes and never makes
    /// progress: only the watchdog can end its run.
    struct Wedged {
        net: Network,
        clock: Clock,
        now: Cycle,
        delivers: u64,
    }

    impl Workload for Wedged {
        fn net(&mut self) -> &mut Network {
            &mut self.net
        }
        fn clock(&mut self) -> &mut Clock {
            &mut self.clock
        }
        fn now(&mut self) -> Cycle {
            self.now
        }
        fn done(&self) -> bool {
            false
        }
        fn deliver(&mut self) -> Result<(), SimError> {
            self.delivers += 1;
            Ok(())
        }
        fn progressed(&mut self) -> bool {
            false
        }
        fn end_cycle(&mut self) {
            self.now += 1;
        }
    }

    #[test]
    fn a_workload_without_progress_stalls_and_every_network_step_is_observed() {
        // Diagonal+BL's network clock against the 2.2 GHz cores: the
        // steps do not line up with workload cycles.
        let ratio = 2.07 / 2.2;
        let mut w = Wedged {
            net: Network::new(NetworkConfig::paper_baseline()).unwrap(),
            clock: Clock::new(ratio),
            now: 0,
            delivers: 0,
        };
        let hooks = Hooks::new(Some(1_000));
        #[cfg(feature = "verify")]
        let err = {
            struct Counting(u64);
            impl InvariantObserver for Counting {
                fn after_cycle(&mut self, _net: &Network) {
                    self.0 += 1;
                }
            }
            let mut seen = Counting(0);
            let err = drive_observed(&mut w, hooks, &mut seen).unwrap_err();
            assert_eq!(seen.0, w.net.now(), "one observer call per network step");
            err
        };
        #[cfg(not(feature = "verify"))]
        let err = drive(&mut w, hooks).unwrap_err();
        assert!(matches!(err, SimError::Stalled(_)), "{err}");
        // The watchdog fires in the first cycle more than 1 000 cycles
        // past the last progress (cycle 0), before that cycle ends.
        assert_eq!(w.now, 1_001);
        let mut acc = 0.0;
        let mut steps = 0;
        for _ in 0..=w.now {
            acc += ratio;
            while acc >= 1.0 {
                acc -= 1.0;
                steps += 1;
            }
        }
        assert_eq!(w.net.now(), steps);
        assert_eq!(w.delivers, steps, "one delivery pass per network step");
        assert!(steps < w.now);
    }

    #[test]
    fn unrecoverable_fault_surfaces_through_the_runner() {
        let mut plan = FaultPlan::transient(1.0, 1);
        plan.retry = RetryPolicy {
            max_attempts: 2,
            timeout: 4,
        };
        let net = faulted_mesh(plan);
        let err = SimRun::new(net, quick_params(0.05)).run().unwrap_err();
        assert!(matches!(err, SimError::Unrecoverable(_)), "{err}");
    }
}
