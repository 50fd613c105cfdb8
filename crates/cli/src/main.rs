//! `heteronoc` — command-line front end for the HeteroNoC simulator.
//!
//! ```text
//! heteronoc sweep    --layouts all --pattern ur --rates 0.01,0.02,0.04 --jobs 4
//! heteronoc heatmap  --rate 0.05
//! heteronoc cmp      --layout baseline --workload sap --refs 1500
//! heteronoc campaign --layouts baseline --kills 1,2,4 --plans 8
//! heteronoc experiment fig11_applications
//! heteronoc lint     --layout diagonal-bl --hubs 0,7,56,63
//! ```

mod args;
mod signals;

use std::process::ExitCode;

use heteronoc::noc::network::Network;
use heteronoc::noc::sim::{InjectionProcess, SimParams, SimRun};
use heteronoc::noc::types::Rate;
use heteronoc::traffic::workloads::Benchmark;
use heteronoc::{mesh_config, Layout};
use heteronoc_bench::sweep::{default_jobs, run_sweep, Sweep, SweepOptions, TrafficSpec};

use args::Args;

const USAGE: &str = "\
heteronoc — HeteroNoC (ISCA'11) network simulator

USAGE: heteronoc <command> [options]

COMMANDS
  sweep      parallel load sweep on the sweep engine (with result caching)
               --layouts a,b,c      comma-separated, or 'all' (default diagonal-bl)
               --pattern <name>     ur|nn|transpose|bit-complement|bit-reverse|tornado|shuffle
               --rates a,b,c        packets/node/cycle (default 0.01,0.02,0.03,0.04,0.05)
               --seeds a,b,c        RNG seeds, one sub-sweep per seed (default 42)
               --packets N          measured packets per point (default 5000)
               --jobs N             worker threads (default: all cores, or $HETERONOC_JOBS)
               --no-cache           re-simulate every point, ignore results/cache/
               --name <name>        sweep name; JSON goes to results/<name>.json
                                    (default cli_sweep)
               --epochs N           record an epoch time-series every N cycles per
                                    point, embedded in results/<name>.json
               --checkpoint-every N checkpoint long points every N cycles so an
                                    interrupted sweep resumes mid-point
                                    (default 200000; 0 disables)
               --profile            print per-point wall-time breakdown
               --progress <sink>    stream per-point JSONL progress snapshots
                                    to a file, '-' (stdout) or fd:N
  run        one crash-safe open-loop run with periodic checkpointing and
             cooperative SIGINT/SIGTERM shutdown (exit code 130/143; the
             final checkpoint is flushed first, so `--resume` continues the
             run byte-identically)
               --layout <name>      (default baseline)
               --pattern, --rate, --packets, --seed as for sweep
               --checkpoint-dir <d> checkpoint directory
                                    (default results/checkpoints)
               --checkpoint-every N checkpoint interval in cycles
                                    (default 50000)
               --resume             resume from this run's checkpoint if one
                                    exists (deleted again on completion)
               --trace <file>       JSONL flit trace; on --resume the file is
                                    truncated to the checkpointed cursor and
                                    continued byte-identically
               --profile            print the per-stage wall-time table plus
                                    scheduler statistics (cycles skipped,
                                    router visits avoided, wake-set size
                                    histogram)
               --progress <sink>    stream live JSONL progress snapshots to a
                                    file, '-' (stdout) or fd:N; observational
                                    only — results stay byte-identical
               --progress-every N   snapshot interval in cycles (default 10000)
  replay     bisect the first diverging cycle between two trajectories of
             one configured run: two checkpoints, or a checkpoint vs a
             fresh replay from cycle 0 (exits non-zero on divergence and
             prints a field-level report)
               --a <file>           checkpoint for trajectory A
               --b <file>           checkpoint for trajectory B (omit either
                                    for a fresh-from-0 trajectory)
               --layout/--pattern/--rate/--packets/--seed
                                    must match the checkpoints' original run
                                    (enforced via the header hashes)
               --horizon N          search window end cycle
                                    (default: later start + 50000)
               --max-fields N       field diffs reported at the diverging
                                    cycle (default 16)
  heatmap    ASCII buffer-utilization heat-map of the baseline mesh
               --rate, --packets, --seed as above
  cmp        full 64-tile CMP run
               --layout <name>, --workload <name>, --refs N (default 1000)
  trace      flit-level event tracing of one open-loop run
               --layout <name>      (default baseline)
               --rate, --packets, --seed as above (default 2000 packets)
               --out <file>         JSONL trace (default results/trace.jsonl)
               --chrome <file>      Chrome trace_event JSON for chrome://tracing
                                    or https://ui.perfetto.dev
               --epochs N           also print an epoch table every N cycles
               --profile            print per-pipeline-stage wall-time table
               --check <file>       validate a JSONL trace instead of simulating
               --overhead           run untraced and observed (JSONL trace plus
                                    --epochs/--profile) in 3 alternating pairs,
                                    report median wall times and their ratio
  report     render epoch time-series from a sweep's results JSON, or the
             reliability curves of a campaign manifest
               --name <name>        reads results/<name>.json, falling back to
                                    results/campaigns/<name>.json (default
                                    cli_sweep)
               --rows N             epochs per point before eliding (default 24)
               --compare <a> <b>    instead: side-by-side latency/power/
                                    throughput deltas of two sweep results files
  lint       full static-analysis suite: structure, CDG deadlock, protocol
             (message-class) deadlock, credit-loop sizing, starvation, and
             fault-plan reachability, reported as stable-coded diagnostics
               --layout <name>      lint one layout (default: every shipped
                                    configuration, incl. torus/cmesh/fbfly and
                                    the table-routed case study)
               --hubs a,b,c         add table routing through these routers
               --rates a,b,c        injection rates for the credit-sizing pass
                                    (default 0.01,0.02,0.03,0.04,0.05)
               --plan <file>        also run fault-plan reachability on this plan
               --checkpoint-every N with --watchdog: warn (HN-W008) when the
               --watchdog N         checkpoint interval exceeds the
                                    progress-watchdog window
               --baseline           also lint iso-resource budgets against the
                                    homogeneous baseline (paper layouts only)
               --json               emit a JSON array of per-config reports
               --deny-warnings      exit non-zero when any warning is reported
               --explain <CODE>     print the registry entry for a diagnostic
                                    code (e.g. --explain HN-E010) and exit
  faults     fault-injection campaign with graceful-degradation rerouting
             (every regenerated route table is CDG-verified before install)
               --layout <name>      (default diagonal-bl)
               --plan <file>        fault-plan file (seed/ber/retry/link-ber/
                                    kill-link/kill-router directives)
               --ber <p>            uniform per-link bit-error rate (default 0)
               --fault-seed N       fault RNG seed (default 1)
               --kill-link L@C      hard-kill link L at cycle C
               --kill-router R@C    hard-kill router R at cycle C
               --bursts N           all-pairs injection bursts (default 1)
               --spacing N          cycles between injections (default 2)
               --stall-limit N      drain watchdog in cycles (default 100000)
  campaign   Monte Carlo reliability campaign on the sweep engine: sampled
             random link-kill plans per (layout x kill-count) cell, each
             point cached as it finishes (kill it any time; a re-run
             resumes from results/cache/); writes the manifest and its
             reliability curves when it ends
               --layouts a,b,c      comma-separated, or 'all' (default
                                    baseline,diagonal-bl)
               --kills a,b,c        dead-link counts (default 1,2,4); the
                                    fault-free baseline cell is always run
               --plans N            sampled plans per cell (default 8)
               --seed N             master seed (default 42)
               --bursts, --spacing, --stall-limit as for faults
                                    (defaults 1, 2, 100000)
               --recover A,T,R      e2e recovery: attempts,timeout,retention
                                    (default 4,512,16)
               --no-recover         disable end-to-end delivery guarantees
               --jobs N             worker threads (default: all cores)
               --no-cache           re-simulate every point, ignore
                                    results/cache/
               --name <name>        manifest results/campaigns/<name>.json
                                    (default cli_campaign)
               --progress <sink>    stream per-point JSONL progress snapshots
                                    (kind sweep) to a file, '-' (stdout) or
                                    fd:N
  cache      result-cache maintenance for results/cache/
               --verify             audit every cache file line by line, CRC-
                                    check every *.ckpt checkpoint, and exit
                                    non-zero when anything is invalid
               --gc                 quarantine undecodable files (renamed to
                                    *.corrupt), prune stale-schema lines, and
                                    sweep checkpoints: corrupt ones are
                                    quarantined; orphaned (point already
                                    completed) and stale-named ones deleted
  top        refreshing terminal dashboard over a progress JSONL stream
             (from run/sweep/campaign --progress); exits when every stream
             reports done, or immediately with --once
               <file>               the progress stream to tail
               --once               render the latest snapshot(s) once and exit
               --interval-ms N      refresh interval (default 500)
  experiment run a paper experiment by id (e.g. fig11_applications), or
             'all' for the suite (one output block each; exits non-zero if
             any fails); writes results/<id>.txt. HETERONOC_FULL=1 selects
             paper scale, HETERONOC_JOBS=N caps workers, HETERONOC_NO_CACHE=1
             ignores results/cache/

LAYOUTS  baseline, center-b, row25-b, diagonal-b, center-bl, row25-bl, diagonal-bl
WORKLOADS sap, specjbb, tpcc, sjas, ferret, facesim, vips, canneal, dedup,
          streamcluster, libquantum
";

fn layout_by_name(name: &str) -> Result<Layout, String> {
    name.parse()
        .map_err(|e: heteronoc::layout::ParseLayoutError| e.to_string())
}

fn traffic_spec_by_name(name: &str) -> Result<TrafficSpec, String> {
    Ok(match name {
        "ur" | "uniform" => TrafficSpec::Uniform,
        "nn" | "nearest-neighbor" => TrafficSpec::NearestNeighbor {
            width: 8,
            height: 8,
        },
        "transpose" => TrafficSpec::Transpose { side: 8 },
        "bit-complement" => TrafficSpec::BitComplement,
        "bit-reverse" => TrafficSpec::BitReverse,
        "tornado" => TrafficSpec::Tornado {
            width: 8,
            height: 8,
        },
        "shuffle" => TrafficSpec::Shuffle,
        other => return Err(format!("unknown pattern '{other}' (see --help)")),
    })
}

fn workload_by_name(name: &str) -> Result<Benchmark, String> {
    Ok(match name {
        "sap" => Benchmark::Sap,
        "specjbb" => Benchmark::SpecJbb,
        "tpcc" | "tpc-c" => Benchmark::TpcC,
        "sjas" => Benchmark::Sjas,
        "ferret" => Benchmark::Ferret,
        "facesim" => Benchmark::Facesim,
        "vips" => Benchmark::Vips,
        "canneal" => Benchmark::Canneal,
        "dedup" => Benchmark::Dedup,
        "streamcluster" => Benchmark::StreamCluster,
        "libquantum" => Benchmark::Libquantum,
        other => return Err(format!("unknown workload '{other}' (see --help)")),
    })
}

/// `--rates a,b,c`, each element an injection probability in [0, 1].
///
/// # Errors
/// A message naming the flag and the first element that does not parse
/// or lies outside [0, 1] (NaN included).
fn rates_arg(a: &Args) -> Result<Option<Vec<f64>>, String> {
    let Some(rates) = a.get_list::<f64>("rates")? else {
        return Ok(None);
    };
    let texts = a.get("rates").unwrap_or_default().split(',');
    if let Some((_, text)) = rates
        .iter()
        .zip(texts)
        .find(|(&r, _)| !Rate::new(r).is_valid())
    {
        return Err(format!(
            "invalid value '{}' for --rates: an injection rate is a probability in [0, 1]",
            text.trim()
        ));
    }
    Ok(Some(rates))
}

fn params(rate: f64, packets: u64, seed: u64) -> SimParams {
    SimParams {
        injection_rate: Rate::new(rate),
        warmup_packets: (packets / 10).max(100),
        measure_packets: packets,
        max_cycles: 5_000_000,
        seed,
        process: InjectionProcess::Bernoulli,
        watchdog: Some(100_000),
    }
}

/// `heteronoc sweep`: a (layout × pattern × seed × rate) grid on the
/// parallel sweep engine, with content-addressed result caching.
fn cmd_sweep(a: &Args) -> Result<(), String> {
    // `--layouts a,b,c` (or 'all'); `--layout` kept as a synonym.
    let layout_arg = a
        .get("layouts")
        .or_else(|| a.get("layout"))
        .unwrap_or("diagonal-bl");
    let layouts: Vec<Layout> = if layout_arg == "all" {
        Layout::all_seven().to_vec()
    } else {
        layout_arg
            .split(',')
            .map(|n| layout_by_name(n.trim()))
            .collect::<Result<_, _>>()?
    };
    let pattern = a.get("pattern").unwrap_or("ur").to_owned();
    let spec = traffic_spec_by_name(&pattern)?;
    let rates = rates_arg(a)?.unwrap_or_else(|| vec![0.01, 0.02, 0.03, 0.04, 0.05]);
    let seeds = match a.get_list::<u64>("seeds")? {
        Some(seeds) => seeds,
        None => vec![a.get_or("seed", 42u64)?],
    };
    let packets = a.get_or("packets", 5_000u64)?;
    let jobs = a.get_or("jobs", default_jobs())?.max(1);
    let name = a.get("name").unwrap_or("cli_sweep").to_owned();

    let configs: Vec<(String, _)> = layouts
        .iter()
        .map(|l| (l.name().to_owned(), mesh_config(l)))
        .collect();
    let mut sweep = Sweep::grid(name, &configs, &[spec], &seeds, &rates, |rate, seed| {
        params(rate, packets, seed)
    });
    if let Some(every) = a.get("epochs") {
        let every: u64 = every
            .parse()
            .map_err(|_| format!("invalid value '{every}' for --epochs"))?;
        if every == 0 {
            return Err("--epochs must be positive".into());
        }
        sweep = sweep.with_epochs(every);
    }
    // Long points checkpoint periodically into the cache dir; an
    // interrupted sweep (SIGINT/SIGTERM) resumes them mid-point next run.
    let ckpt_every = a.get_or("checkpoint-every", 200_000u64)?;
    let opts = SweepOptions {
        jobs,
        use_cache: !a.flag("no-cache"),
        shutdown: Some(signals::install()),
        checkpoint_every: (ckpt_every > 0).then_some(ckpt_every),
        progress: a.get("progress").map(str::to_owned),
        ..SweepOptions::default()
    };
    println!(
        "sweep '{}': {} point(s) · pattern {pattern} · {packets} packets/point · {jobs} worker(s) · cache {}",
        sweep.name,
        sweep.points.len(),
        if opts.use_cache { "on" } else { "off" },
    );
    let outcome = run_sweep(&sweep, &opts).map_err(|e| e.to_string())?;

    // One line per cache hit, keyed so a hit can be traced to its entry in
    // results/cache/.
    for (spec, p) in sweep.points.iter().zip(&outcome.points) {
        if p.cached {
            let key = spec.content_key();
            println!("[cached {}] {}", &key[..key.len().min(12)], p.label);
        }
    }

    let per_layout = rates.len() * seeds.len();
    for (l, chunk) in layouts.iter().zip(outcome.points.chunks(per_layout)) {
        println!();
        println!("layout {}", l.name());
        println!(
            "{:<8}{:>8}{:>12}{:>14}{:>12}{:>8}",
            "rate", "seed", "latency", "throughput", "power", "cache"
        );
        for (i, p) in chunk.iter().enumerate() {
            // The requested rate: a failed point measured none.
            let (rate, seed) = (rates[i % rates.len()], seeds[i / rates.len()]);
            let cached = if p.cached { "hit" } else { "run" };
            match &p.error {
                Some(e) => println!("{rate:<8.4}{seed:>8}  error: {e}"),
                None if p.saturated => println!(
                    "{rate:<8.4}{seed:>8}{:>12}{:>14.4}{:>10.1} W{cached:>8}",
                    "sat", p.throughput, p.power_w
                ),
                None => println!(
                    "{rate:<8.4}{seed:>8}{:>9.2} ns{:>14.4}{:>10.1} W{cached:>8}",
                    p.latency_ns, p.throughput, p.power_w
                ),
            }
        }
    }

    if a.flag("profile") {
        println!();
        println!("per-point wall time (simulated points only; cached points cost ~0):");
        for p in &outcome.points {
            if !p.cached {
                println!("  {:>9.3}s  {}", p.wall_secs, p.label);
            }
        }
    }

    let json_path = outcome.write_json().map_err(|e| e.to_string())?;
    println!();
    println!("{}", outcome.summary());
    if outcome.interrupted > 0 {
        println!(
            "{} point(s) interrupted by shutdown; completed work is cached and \
             in-flight points checkpointed — re-run the same sweep to resume",
            outcome.interrupted
        );
    }
    println!("json: {}", json_path.display());
    // Interrupted points are reported above and resume on a re-run.
    let failed = outcome.points.iter().filter(|p| p.error.is_some()).count() - outcome.interrupted;
    if failed > 0 {
        return Err(format!(
            "{failed} of {} sweep point(s) failed",
            outcome.points.len()
        ));
    }
    Ok(())
}

/// `heteronoc run`: one crash-safe open-loop run — periodic atomic
/// checkpoints, cooperative SIGINT/SIGTERM shutdown (final checkpoint
/// flushed, exit 130/143), and `--resume` continuing byte-identically.
fn cmd_run(a: &Args) -> Result<(), String> {
    use heteronoc::noc::checkpoint::{config_hash, Checkpoint};
    use heteronoc::noc::sim::{checkpoint_trace_cursor, params_hash, SimError};
    use heteronoc::noc::trace::JsonlSink;
    use std::io::{BufWriter, Seek, SeekFrom};

    let layout = layout_by_name(a.get("layout").unwrap_or("baseline"))?;
    let pattern = a.get("pattern").unwrap_or("ur").to_owned();
    let rate = a.get_or("rate", 0.02f64)?;
    let packets = a.get_or("packets", 5_000u64)?;
    let seed = a.get_or("seed", 42u64)?;
    let p = params(rate, packets, seed);
    let cfg = mesh_config(&layout);

    let dir = a
        .get("checkpoint-dir")
        .unwrap_or("results/checkpoints")
        .to_owned();
    let every: u64 = a.get_or("checkpoint-every", 50_000u64)?;
    if every == 0 {
        return Err("--checkpoint-every must be positive".into());
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create '{dir}': {e}"))?;
    // One deterministic checkpoint path per run identity, so `--resume`
    // finds the interrupted run's file without bookkeeping.
    let ckpt_path = std::path::Path::new(&dir).join(format!(
        "run-{}-{pattern}-r{rate}-p{packets}-s{seed}.ckpt",
        layout.name()
    ));

    // Load the checkpoint (if resuming) before building the run: the trace
    // sink's continuation cursor comes out of the checkpoint body.
    let resume = if a.flag("resume") && ckpt_path.exists() {
        let ckpt =
            Checkpoint::load(&ckpt_path).map_err(|e| format!("{}: {e}", ckpt_path.display()))?;
        ckpt.check_compat(config_hash(&cfg), params_hash(&p))
            .map_err(|e| {
                format!(
                    "{}: {e} (pass the same --layout/--pattern/--rate/--packets/--seed \
                 as the original run)",
                    ckpt_path.display()
                )
            })?;
        Some(ckpt)
    } else {
        if a.flag("resume") {
            println!("no checkpoint at {}; starting fresh", ckpt_path.display());
        }
        None
    };

    let net = Network::new(cfg).map_err(|e| e.to_string())?;
    let mut traffic = traffic_spec_by_name(&pattern)?.instantiate();
    let flag = signals::install();
    let mut run = SimRun::new(net, p)
        .traffic(traffic.as_mut())
        .checkpoint_every(&ckpt_path, every)
        .shutdown_flag(flag);
    if a.flag("profile") {
        run = run.profile(true);
    }
    if let Some(spec) = a.get("progress") {
        let every: u64 = a.get_or("progress-every", 10_000u64)?;
        if every == 0 {
            return Err("--progress-every must be positive".into());
        }
        let sink = heteronoc_obs::ProgressSink::open(spec)
            .map_err(|e| format!("cannot open progress sink '{spec}': {e}"))?;
        run = run.progress(sink, every);
    }

    if let Some(trace_path) = a.get("trace") {
        make_parent(trace_path)?;
        let cursor = match &resume {
            Some(ckpt) => checkpoint_trace_cursor(ckpt)
                .map_err(|e| format!("{}: {e}", ckpt_path.display()))?,
            None => None,
        };
        let sink: Box<dyn heteronoc::noc::trace::TraceSink> = match cursor {
            Some(cursor) => {
                // Truncate to the bytes the interrupted run had durably
                // emitted by the checkpointed cycle, then append: the
                // combined trace equals an uninterrupted run's.
                let mut f = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(trace_path)
                    .map_err(|e| format!("cannot open '{trace_path}': {e}"))?;
                f.set_len(cursor)
                    .map_err(|e| format!("cannot truncate '{trace_path}': {e}"))?;
                f.seek(SeekFrom::End(0)).map_err(|e| e.to_string())?;
                Box::new(JsonlSink::resumed(BufWriter::new(f), cursor))
            }
            None => {
                let f = std::fs::File::create(trace_path)
                    .map_err(|e| format!("cannot create '{trace_path}': {e}"))?;
                Box::new(JsonlSink::new(BufWriter::new(f)))
            }
        };
        run = run.trace(sink);
    }

    let resumed_at = resume.as_ref().map(|c| c.cycle);
    if let Some(ckpt) = resume {
        run = run.resume_from(ckpt);
    }

    match run.run() {
        Ok(out) => {
            println!(
                "layout {} · pattern {pattern} · rate {rate}{} · {} packets · {} cycles · latency {:.2} ns",
                layout.name(),
                resumed_at.map_or(String::new(), |c| format!(" · resumed from cycle {c}")),
                out.stats.packets_retired,
                out.cycles,
                out.latency_ns()
            );
            if let Some(prof) = &out.profile {
                println!("self-profile:");
                println!("{prof}");
            }
            // The run completed; its checkpoint is dead weight now.
            if ckpt_path.exists() {
                std::fs::remove_file(&ckpt_path).map_err(|e| e.to_string())?;
                println!("checkpoint {} removed (run complete)", ckpt_path.display());
            }
            Ok(())
        }
        Err(SimError::Interrupted { cycle, checkpoint }) => {
            // Not an error for the harness: the state is durable. `main`
            // still exits 130/143 via the recorded signal.
            match checkpoint {
                Some(path) => println!(
                    "interrupted at cycle {cycle}; checkpoint {} (re-run with --resume to continue)",
                    path.display()
                ),
                None => println!("interrupted at cycle {cycle}"),
            }
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

/// `heteronoc replay`: bisect the first diverging cycle between two
/// trajectories of one configured run and print the field-level report.
fn cmd_replay(a: &Args) -> Result<(), String> {
    use heteronoc::noc::checkpoint::{config_hash, Checkpoint};
    use heteronoc::noc::replay::{ReplayDriver, Trajectory};
    use heteronoc::noc::sim::params_hash;

    let layout = layout_by_name(a.get("layout").unwrap_or("baseline"))?;
    let pattern = a.get("pattern").unwrap_or("ur").to_owned();
    let spec = traffic_spec_by_name(&pattern)?;
    let rate = a.get_or("rate", 0.02f64)?;
    let packets = a.get_or("packets", 5_000u64)?;
    let seed = a.get_or("seed", 42u64)?;
    let p = params(rate, packets, seed);
    let cfg = mesh_config(&layout);

    let load = |key: &str| -> Result<Trajectory, String> {
        match a.get(key) {
            None => Ok(Trajectory::Fresh),
            Some(path) => {
                let ckpt = Checkpoint::load(std::path::Path::new(path))
                    .map_err(|e| format!("{path}: {e}"))?;
                ckpt.check_compat(config_hash(&cfg), params_hash(&p))
                    .map_err(|e| {
                        format!(
                            "{path}: {e} (pass the same --layout/--pattern/--rate/\
                         --packets/--seed as the checkpoint's original run)"
                        )
                    })?;
                Ok(Trajectory::Resumed(ckpt))
            }
        }
    };
    let ta = load("a")?;
    let tb = load("b")?;
    if matches!((&ta, &tb), (Trajectory::Fresh, Trajectory::Fresh)) {
        return Err("replay wants at least one checkpoint (--a <file> and/or --b <file>)".into());
    }
    let start = ta.start().max(tb.start());
    let horizon = a.get_or("horizon", start + 50_000)?.max(start);
    let max_fields = a.get_or("max-fields", 16usize)?;

    println!(
        "replay: layout {} · pattern {pattern} · rate {rate} · seed {seed} · \
         window [{start}, {horizon}]",
        layout.name()
    );
    let driver = ReplayDriver::new(
        p,
        || Network::new(mesh_config(&layout)).expect("the same configuration built above"),
        || spec.instantiate(),
    );
    match driver
        .first_divergence(&ta, &tb, horizon, max_fields)
        .map_err(|e| e.to_string())?
    {
        None => {
            println!("no divergence: the trajectories agree over the whole window");
            Ok(())
        }
        Some(report) => {
            print!("{report}");
            Err(format!("trajectories diverge at cycle {}", report.cycle))
        }
    }
}

/// Creates the directory a file at `path` will be written in.
fn make_parent(path: &str) -> Result<(), String> {
    let dir = std::path::Path::new(path).parent();
    std::fs::create_dir_all(dir.unwrap_or(std::path::Path::new(""))).map_err(|e| e.to_string())
}

/// `heteronoc trace`: one traced open-loop run (or `--check` validation of
/// an existing JSONL trace, or `--overhead` measurement).
fn cmd_trace(a: &Args) -> Result<(), String> {
    use heteronoc::noc::trace::{
        check_jsonl, ChromeTraceSink, JsonlSink, TraceEvent, TraceSink, EVENT_KINDS,
    };

    if let Some(path) = a.get("check") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read trace '{path}': {e}"))?;
        let check = check_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "ok: {} event(s) over {} cycle(s)",
            check.events, check.last_cycle
        );
        for kind in EVENT_KINDS {
            let n = check.count(kind);
            if n > 0 {
                println!("  {kind:<14} {n}");
            }
        }
        return Ok(());
    }

    let layout = layout_by_name(a.get("layout").unwrap_or("baseline"))?;
    let rate = a.get_or("rate", 0.02f64)?;
    let packets = a.get_or("packets", 2_000u64)?;
    let seed = a.get_or("seed", 42u64)?;
    let p = params(rate, packets, seed);
    let cfg = mesh_config(&layout);
    let epoch_every: u64 = a.get_or("epochs", 0u64)?;
    if a.get("epochs").is_some() && epoch_every == 0 {
        return Err("--epochs must be positive".into());
    }
    let profile = a.flag("profile");

    if a.flag("overhead") {
        // Alternating pairs of the same run, observability off then on (a
        // JSONL trace plus any `--epochs`/`--profile`). Each pair's
        // identical stats demonstrate the zero-perturbation property; the
        // ratio of the two sides' median wall times prices the
        // observability with the host's noise spread over both.
        const PAIRS: usize = 3;
        let run_once = |observed: bool| -> Result<(f64, (u64, u64)), String> {
            let net = Network::new(cfg.clone()).map_err(|e| e.to_string())?;
            let mut run = SimRun::new(net, p);
            if observed {
                run = run
                    .trace(Box::new(JsonlSink::new(std::io::sink())))
                    .profile(profile);
                if epoch_every > 0 {
                    run = run.epochs(epoch_every);
                }
            }
            let start = std::time::Instant::now();
            let out = run.run().map_err(|e| e.to_string())?;
            let wall = start.elapsed().as_secs_f64();
            Ok((wall, (out.stats.packets_retired, out.cycles)))
        };
        let (mut walls, mut results) = ([vec![], vec![]], vec![]);
        for i in 0..2 * PAIRS {
            let (wall, result) = run_once(i % 2 == 1)?;
            walls[i % 2].push(wall);
            results.push(result);
        }
        let (pkts, cycles) = results[0];
        if results.iter().any(|&r| r != results[0]) {
            return Err(format!(
                "tracing perturbed the run: (packets, cycles) {results:?}, untraced first"
            ));
        }
        let [off, on] = walls.map(|mut v| {
            v.sort_by(f64::total_cmp);
            v[PAIRS / 2]
        });
        let observed = [
            "traced",
            if epoch_every > 0 { "+epochs" } else { "" },
            if profile { "+profile" } else { "" },
        ]
        .concat();
        println!(
            "overhead: untraced {off:.3}s · {observed} {on:.3}s (medians of {PAIRS} alternating pairs) \
             · ratio {:.2} · identical results ({pkts} packets, {cycles} cycles)",
            on / off.max(1e-9)
        );
        return Ok(());
    }

    let jsonl_path = a.get("out").unwrap_or("results/trace.jsonl").to_owned();
    make_parent(&jsonl_path)?;
    let jsonl_file = std::fs::File::create(&jsonl_path)
        .map_err(|e| format!("cannot create '{jsonl_path}': {e}"))?;

    // Fan one event stream out to the JSONL sink and (optionally) the
    // Chrome trace_event sink so a single run feeds both formats.
    struct Fan(Vec<Box<dyn TraceSink>>);
    impl TraceSink for Fan {
        fn event(&mut self, ev: &TraceEvent) {
            for s in &mut self.0 {
                s.event(ev);
            }
        }
        fn finish(&mut self) {
            for s in &mut self.0 {
                s.finish();
            }
        }
    }
    let mut sinks: Vec<Box<dyn TraceSink>> = vec![Box::new(JsonlSink::new(
        std::io::BufWriter::new(jsonl_file),
    ))];
    if let Some(chrome_path) = a.get("chrome") {
        make_parent(chrome_path)?;
        let f = std::fs::File::create(chrome_path)
            .map_err(|e| format!("cannot create '{chrome_path}': {e}"))?;
        sinks.push(Box::new(ChromeTraceSink::new(std::io::BufWriter::new(f))));
    }

    let net = Network::new(cfg).map_err(|e| e.to_string())?;
    let mut run = SimRun::new(net, p).trace(Box::new(Fan(sinks)));
    if epoch_every > 0 {
        run = run.epochs(epoch_every);
    }
    let out = run.profile(profile).run().map_err(|e| e.to_string())?;

    println!(
        "layout {} · rate {rate} · {} packets · {} cycles · latency {:.2} ns",
        layout.name(),
        out.stats.packets_retired,
        out.cycles,
        out.latency_ns()
    );
    println!("jsonl: {jsonl_path}");
    if let Some(chrome_path) = a.get("chrome") {
        println!(
            "chrome trace: {chrome_path} (load in chrome://tracing or https://ui.perfetto.dev)"
        );
    }
    if !out.epochs.is_empty() {
        let rows = a.get_or("rows", 24usize)?;
        let json = heteronoc_bench::sweep::epochs_to_json(&out.epochs);
        let arr = json.as_arr().expect("epochs serialize to an array");
        print!(
            "{}",
            heteronoc_bench::report::render_epochs("this run", arr, rows)
        );
    }
    if let Some(prof) = out.profile {
        println!("self-profile:");
        println!("{prof}");
    }
    Ok(())
}

/// `heteronoc report`: render the epoch time-series embedded in a sweep's
/// `results/<name>.json`.
fn cmd_report(a: &Args) -> Result<(), String> {
    use heteronoc_bench::report::{compare_sweeps, render_campaign, render_results};
    use heteronoc_bench::results_dir;
    use heteronoc_obs::json::{parse, Json};

    // `report --compare a.json b.json`: side-by-side latency/power/
    // throughput deltas of two sweep results files.
    if let Some(old_path) = a.get("compare") {
        let [new_path] = a.rest.as_slice() else {
            return Err(
                "report --compare takes exactly two files: --compare old.json new.json".into(),
            );
        };
        let load = |path: &str| -> Result<Json, String> {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
            parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        let old_doc = load(old_path)?;
        let new_doc = load(new_path)?;
        print!("{}", compare_sweeps(&old_doc, &new_doc)?);
        return Ok(());
    }
    a.no_rest()?;
    let name = a.get("name").unwrap_or("cli_sweep");
    // Sweep results live at results/<name>.json, campaign manifests at
    // results/campaigns/<name>.json; take whichever exists.
    let candidates = [
        results_dir().join(format!("{name}.json")),
        results_dir().join("campaigns").join(format!("{name}.json")),
    ];
    let path = candidates
        .iter()
        .find(|p| p.exists())
        .ok_or_else(|| format!("no results named '{name}' (looked for results/{name}.json and results/campaigns/{name}.json)"))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read '{}': {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rendered = if doc.get("kind").and_then(Json::as_str) == Some("campaign") {
        render_campaign(&doc)?
    } else {
        let rows = a.get_or("rows", 24usize)?;
        render_results(&doc, rows)?
    };
    print!("{rendered}");
    Ok(())
}

/// Renders one progress snapshot as a dashboard block: a kind-specific
/// headline, the shared wall-clock line, and the fastest-moving counter
/// deltas since the previous snapshot.
fn render_top_block(snap: &heteronoc_obs::json::Json) -> String {
    use heteronoc_obs::json::Json;

    let kind = snap.get("kind").and_then(Json::as_str).unwrap_or("?");
    let u = |k: &str| snap.get(k).and_then(Json::as_u64).unwrap_or(0);
    let f = |k: &str| snap.get(k).and_then(Json::as_f64);
    let done = snap.get("done").and_then(Json::as_bool) == Some(true);
    let eta = match f("eta_secs") {
        Some(v) if v.is_finite() && !done => format!("eta {v:.0}s"),
        _ if done => "done".to_owned(),
        _ => "eta ?".to_owned(),
    };
    let mut out = format!(
        "[{kind}] seq {}  elapsed {:.1}s  {eta}\n",
        u("seq"),
        f("elapsed_secs").unwrap_or(0.0),
    );
    match kind {
        "sim" => {
            out.push_str(&format!(
                "  cycle {:>12} / {}  in-flight {:>6}  retired {:>8} / {}{}\n",
                u("cycle"),
                u("max_cycles"),
                u("in_flight"),
                u("retired"),
                u("measure_packets"),
                if snap.get("measuring").and_then(Json::as_bool) == Some(true) {
                    "  [measuring]"
                } else {
                    ""
                },
            ));
        }
        "sweep" => {
            out.push_str(&format!(
                "  {}  points {:>5} / {}  cached {}  failed {}\n",
                snap.get("name").and_then(Json::as_str).unwrap_or("?"),
                u("points_done"),
                u("points_total"),
                u("points_cached"),
                u("points_failed"),
            ));
        }
        _ => {}
    }
    if let Some(Json::Obj(deltas)) = snap.get("deltas") {
        let mut rows: Vec<(&str, u64)> = deltas
            .iter()
            .filter_map(|(k, v)| v.as_u64().map(|n| (k.as_str(), n)))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (k, n) in rows.iter().take(8) {
            out.push_str(&format!("  {k:<44} +{n}\n"));
        }
    }
    out
}

/// `heteronoc top`: terminal dashboard tailing a progress JSONL stream
/// (written by `run --progress`, `sweep --progress` or `campaign
/// --progress`). Re-reads the file each refresh and renders the latest
/// snapshot of every stream kind; exits when all streams are done, on
/// SIGINT/SIGTERM, or after a single render with `--once`.
fn cmd_top(a: &Args) -> Result<(), String> {
    use heteronoc_obs::json::{parse, Json};
    use heteronoc_obs::PROGRESS_SCHEMA;

    let path = a
        .get("file")
        .or_else(|| a.rest.first().map(String::as_str))
        .ok_or("top wants a progress stream: heteronoc top <progress.jsonl>")?
        .to_owned();
    let once = a.flag("once");
    let interval = a.get_or("interval-ms", 500u64)?.max(50);
    let flag = signals::install();

    let mut rendered_before = false;
    loop {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        // Latest snapshot per kind, kinds in first-seen order.
        let mut kinds: Vec<String> = Vec::new();
        let mut latest: Vec<Json> = Vec::new();
        let mut bad = 0usize;
        for line in text.lines() {
            let Ok(snap) = parse(line) else {
                bad += 1;
                continue;
            };
            if snap.get("schema").and_then(Json::as_u64) != Some(u64::from(PROGRESS_SCHEMA)) {
                bad += 1;
                continue;
            }
            let Some(kind) = snap.get("kind").and_then(Json::as_str).map(str::to_owned) else {
                bad += 1;
                continue;
            };
            match kinds.iter().position(|k| *k == kind) {
                Some(i) => latest[i] = snap,
                None => {
                    kinds.push(kind);
                    latest.push(snap);
                }
            }
        }
        if latest.is_empty() {
            return Err(format!(
                "'{path}' contains no valid schema-v{PROGRESS_SCHEMA} progress snapshots"
            ));
        }
        let mut screen = String::new();
        for snap in &latest {
            screen.push_str(&render_top_block(snap));
        }
        if bad > 0 {
            screen.push_str(&format!("  ({bad} unparsable line(s) skipped)\n"));
        }
        if rendered_before {
            // Repaint in place: clear screen, home the cursor.
            print!("\x1b[2J\x1b[H");
        }
        print!("{screen}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        rendered_before = true;

        let all_done = latest
            .iter()
            .all(|s| s.get("done").and_then(Json::as_bool) == Some(true));
        if once || all_done || flag.load(std::sync::atomic::Ordering::SeqCst) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval));
    }
}

fn cmd_heatmap(a: &Args) -> Result<(), String> {
    let rate = a.get_or("rate", 0.05f64)?;
    let packets = a.get_or("packets", 8_000u64)?;
    let seed = a.get_or("seed", 42u64)?;
    let net = Network::new(mesh_config(&Layout::Baseline)).map_err(|e| e.to_string())?;
    let out = SimRun::new(net, params(rate, packets, seed))
        .run()
        .map_err(|e| e.to_string())?;
    println!("baseline 8x8 mesh, UR @ {rate}: buffer (VC) utilization [%]");
    for y in 0..8 {
        let row: Vec<String> = (0..8)
            .map(|x| format!("{:5.1}", 100.0 * out.stats.vc_utilization(y * 8 + x)))
            .collect();
        println!("  {}", row.join(" "));
    }
    Ok(())
}

fn cmd_cmp(a: &Args) -> Result<(), String> {
    use heteronoc_bench::sweep::{run_point, CmpSpec, PointKind, PointSpec};

    let layout = layout_by_name(a.get("layout").unwrap_or("baseline"))?;
    let bench = workload_by_name(a.get("workload").unwrap_or("specjbb"))?;
    let refs = a.get_or("refs", 1_000u64)?;
    let seed = a.get_or("seed", 42u64)?;
    let m = run_point(&PointSpec {
        label: String::new(),
        config: mesh_config(&layout),
        kind: PointKind::Cmp(CmpSpec::uniform(bench, refs, seed)),
    });
    if let Some(e) = m.error {
        return Err(e);
    }
    println!(
        "layout {} · workload {bench} · {refs} refs/core",
        layout.name()
    );
    println!("  cycles            {}", m.cycles);
    println!("  mean IPC          {:.3}", m.mean_ipc);
    println!("  network latency   {:.2} ns", m.latency_ns);
    println!("  network power     {:.1} W", m.power_w);
    println!("  packets           {}", m.delivered);
    println!(
        "  memory reads      {}",
        m.system.map_or(0, |s| s.mem_reads)
    );
    Ok(())
}

/// `heteronoc lint`: the full static-analysis suite over one or all
/// shipped configurations, reported as stable-coded diagnostics.
fn cmd_lint(a: &Args) -> Result<(), String> {
    use heteronoc::noc::config::NetworkConfig;
    use heteronoc::noc::fault::FaultPlan;
    use heteronoc::noc::types::RouterId;
    use heteronoc::{mesh_config_with_table, shipped_configs};
    use heteronoc_verify::{lint_config, Code, LintOptions};

    if let Some(code) = a.get("explain") {
        let Some(c) = Code::parse(code) else {
            let known: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
            return Err(format!(
                "unknown diagnostic code '{code}'; known codes: {}",
                known.join(", ")
            ));
        };
        println!("{} {} ({})", c.as_str(), c.name(), c.severity());
        println!("  {}", c.summary());
        println!();
        println!("{}", c.explanation());
        return Ok(());
    }

    let hubs: Option<Vec<usize>> = a.get_list::<usize>("hubs")?;
    if let Some(h) = &hubs {
        if let Some(&r) = h.iter().find(|&&r| r >= 64) {
            return Err(format!(
                "--hubs router {r} is out of range for the 8x8 mesh (0..=63)"
            ));
        }
    }

    let mut opts = LintOptions::default();
    if let Some(rates) = rates_arg(a)? {
        opts.rates = rates;
    }
    if let Some(path) = a.get("plan") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fault plan '{path}': {e}"))?;
        opts.fault_plan = Some(FaultPlan::from_text(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    if let Some(v) = a.get("checkpoint-every") {
        opts.checkpoint_every = Some(
            v.parse()
                .map_err(|_| format!("invalid value '{v}' for --checkpoint-every"))?,
        );
    }
    if let Some(v) = a.get("watchdog") {
        opts.watchdog = Some(
            v.parse()
                .map_err(|_| format!("invalid value '{v}' for --watchdog"))?,
        );
    }
    let against_baseline = a.flag("baseline");

    // (name, config, is a paper mesh layout) — the budget lint only makes
    // sense against the Fig. 3 mesh baseline.
    let targets: Vec<(String, NetworkConfig, bool)> = match a.get("layout") {
        Some(name) => {
            let layout = layout_by_name(name)?;
            match &hubs {
                Some(h) => {
                    let hubs: Vec<RouterId> = h.iter().map(|&r| RouterId(r)).collect();
                    vec![(
                        format!("{} (table)", layout.name()),
                        mesh_config_with_table(&layout, &hubs),
                        true,
                    )]
                }
                None => vec![(layout.name().to_owned(), mesh_config(&layout), true)],
            }
        }
        None => {
            let corners: Vec<RouterId> = hubs
                .unwrap_or_else(|| vec![0, 7, 56, 63])
                .into_iter()
                .map(RouterId)
                .collect();
            shipped_configs(&corners)
        }
    };

    let reports: Vec<_> = targets
        .iter()
        .map(|(name, cfg, is_mesh_layout)| {
            let mut o = opts.clone();
            if against_baseline && *is_mesh_layout {
                o.baseline = Some(mesh_config(&Layout::Baseline));
            }
            lint_config(name, cfg, &o)
        })
        .collect();

    let errors: usize = reports.iter().map(|r| r.errors().count()).sum();
    let warnings: usize = reports.iter().map(|r| r.warnings().count()).sum();

    if a.flag("json") {
        let objs: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        println!("[{}]", objs.join(","));
    } else {
        for r in &reports {
            print!("{}", r.render_human());
        }
        println!(
            "{} configuration(s) linted: {errors} error(s), {warnings} warning(s)",
            reports.len()
        );
        if errors == 0 && warnings == 0 {
            println!("all configurations pass the static-analysis suite");
        }
    }

    if errors > 0 {
        return Err(format!("{errors} error-level diagnostic(s)"));
    }
    if a.flag("deny-warnings") && warnings > 0 {
        return Err(format!(
            "{warnings} warning-level diagnostic(s) denied by --deny-warnings"
        ));
    }
    Ok(())
}

/// Parses `--kill-link 12@5000` / `--kill-router 9@5000` style values.
fn parse_at(flag: &str, v: &str) -> Result<(usize, u64), String> {
    let (id, cycle) = v
        .split_once('@')
        .ok_or_else(|| format!("--{flag} wants ID@CYCLE, got '{v}'"))?;
    let id = id
        .parse()
        .map_err(|_| format!("--{flag}: invalid id '{id}'"))?;
    let cycle = cycle
        .parse()
        .map_err(|_| format!("--{flag}: invalid cycle '{cycle}'"))?;
    Ok((id, cycle))
}

/// `heteronoc faults`: run a fault-injection campaign over an all-pairs
/// burst, rerouting around hard faults with the deadlock proof in the loop.
fn cmd_faults(a: &Args) -> Result<(), String> {
    use heteronoc::noc::fault::{DropReason, FaultKind, FaultPlan, HardFault};
    use heteronoc::noc::types::{Cycle, LinkId, RouterId};
    use heteronoc_bench::sweep::all_pairs_injections;
    use heteronoc_verify::run_with_degradation;

    let layout = layout_by_name(a.get("layout").unwrap_or("diagonal-bl"))?;
    let mut plan = match a.get("plan") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read fault plan '{path}': {e}"))?;
            FaultPlan::from_text(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => FaultPlan::default(),
    };
    if let Some(ber) = a.get("ber") {
        plan.ber = ber
            .parse()
            .map_err(|_| format!("invalid value '{ber}' for --ber"))?;
    }
    plan.seed = a.get_or("fault-seed", plan.seed)?;
    if let Some(v) = a.get("kill-link") {
        let (l, c) = parse_at("kill-link", v)?;
        plan.hard.push(HardFault {
            cycle: c,
            kind: FaultKind::Link(LinkId(l)),
        });
    }
    if let Some(v) = a.get("kill-router") {
        let (r, c) = parse_at("kill-router", v)?;
        plan.hard.push(HardFault {
            cycle: c,
            kind: FaultKind::Router(RouterId(r)),
        });
    }

    let cfg = mesh_config(&layout);
    let graph = cfg.build_graph();
    plan.validate(graph.num_links(), graph.num_routers())
        .map_err(|e| e.to_string())?;

    let bursts = a.get_or("bursts", 1u64)?;
    let spacing: Cycle = a.get_or("spacing", 2u64)?;
    let stall_limit: Cycle = a.get_or("stall-limit", 100_000u64)?;
    let injections = all_pairs_injections(graph.num_nodes(), bursts, spacing);

    println!(
        "layout {} · {} packets · ber {:e} · {} hard fault(s) · fault seed {}",
        layout.name(),
        injections.len(),
        plan.ber,
        plan.hard.len(),
        plan.seed
    );
    let report =
        run_with_degradation(cfg, plan, &injections, stall_limit).map_err(|e| e.to_string())?;

    println!(
        "{:<7}{:>16}{:>12}{:>10}{:>16}",
        "phase", "cycles", "delivered", "dropped", "latency (cyc)"
    );
    for (i, p) in report.phases.iter().enumerate() {
        println!(
            "{i:<7}{:>16}{:>12}{:>10}{:>16.1}",
            format!("{}..{}", p.from_cycle, p.to_cycle),
            p.delivered,
            p.dropped,
            p.mean_latency()
        );
    }
    let c = report.counters;
    println!(
        "reroutes {} (CDG-verified) · delivered {} · dropped {} · drained at cycle {}",
        report.reroutes,
        report.delivered,
        report.dropped.len(),
        report.finished_at
    );
    println!(
        "faults: corrupted {} · retries {} · retransmissions {} · timeouts {} · links dead {} · routers dead {}",
        c.flits_corrupted, c.retries, c.retransmissions, c.timeouts, c.links_dead, c.routers_dead
    );
    if !report.dropped.is_empty() {
        let count = |r: DropReason| report.dropped.iter().filter(|d| d.reason == r).count();
        println!(
            "drops: source-dead {} · destination-dead {} · unreachable {}",
            count(DropReason::SourceDead),
            count(DropReason::DestinationDead),
            count(DropReason::Unreachable)
        );
    }
    Ok(())
}

/// `heteronoc campaign`: Monte Carlo reliability campaign over sampled
/// random link-kill plans, run on the sweep engine (every point cached as
/// it finishes, so kill + re-run resumes), ending in its manifest.
fn cmd_campaign(a: &Args) -> Result<(), String> {
    use heteronoc::noc::fault::{RecoveryPolicy, RetryPolicy};
    use heteronoc_bench::campaign::{run_campaign, CampaignSpec};
    use heteronoc_bench::report::render_campaign;
    use heteronoc_bench::results_dir;

    let layout_arg = a
        .get("layouts")
        .or_else(|| a.get("layout"))
        .unwrap_or("baseline,diagonal-bl");
    let layouts: Vec<Layout> = if layout_arg == "all" {
        Layout::all_seven().to_vec()
    } else {
        layout_arg
            .split(',')
            .map(|n| layout_by_name(n.trim()))
            .collect::<Result<_, _>>()?
    };
    let kills = a
        .get_list::<usize>("kills")?
        .unwrap_or_else(|| vec![1, 2, 4]);
    let recovery = if a.flag("no-recover") {
        None
    } else {
        let spec = a
            .get_list::<u64>("recover")?
            .unwrap_or_else(|| vec![4, 512, 16]);
        let [attempts, timeout, retention] = spec[..] else {
            return Err("--recover takes exactly attempts,timeout,retention".into());
        };
        Some(RecoveryPolicy {
            retry: RetryPolicy {
                max_attempts: u32::try_from(attempts)
                    .map_err(|_| "--recover attempts out of range".to_owned())?,
                timeout,
            },
            retention: usize::try_from(retention)
                .map_err(|_| "--recover retention out of range".to_owned())?,
        })
    };
    let spec = CampaignSpec {
        name: a.get("name").unwrap_or("cli_campaign").to_owned(),
        layouts: layouts
            .iter()
            .map(|l| (l.name().to_owned(), mesh_config(l)))
            .collect(),
        kills,
        plans_per_cell: a.get_or("plans", 8usize)?.max(1),
        seed: a.get_or("seed", 42u64)?,
        bursts: a.get_or("bursts", 1u64)?.max(1),
        spacing: a.get_or("spacing", 2u64)?.max(1),
        stall_limit: a.get_or("stall-limit", 100_000u64)?,
        recovery,
    };
    let opts = SweepOptions {
        jobs: a.get_or("jobs", default_jobs())?.max(1),
        use_cache: !a.flag("no-cache"),
        shutdown: Some(signals::install()),
        progress: a.get("progress").map(str::to_owned),
        ..SweepOptions::default()
    };
    println!(
        "campaign '{}': {} layout(s) x kills {:?} x {} plan(s)/cell · recovery {} · {} worker(s) · cache {}",
        spec.name,
        spec.layouts.len(),
        spec.kills,
        spec.plans_per_cell,
        spec.recovery
            .as_ref()
            .map_or("off".to_owned(), |r| format!(
                "{}/{}/{}",
                r.retry.max_attempts, r.retry.timeout, r.retention
            )),
        opts.jobs,
        if opts.use_cache { "on" } else { "off" },
    );
    let outcome = run_campaign(&spec, &opts, &results_dir().join("campaigns"))?;
    println!("{}", outcome.sweep.summary());
    if outcome.sweep.interrupted > 0 {
        println!(
            "campaign interrupted by shutdown: {} point(s) never started and stay \
             pending — re-run the same campaign to resume from the result cache",
            outcome.sweep.interrupted
        );
    }
    print!("{}", render_campaign(&outcome.doc)?);
    println!("manifest: {}", outcome.manifest_path.display());
    Ok(())
}

/// `heteronoc cache`: result-cache maintenance (audit and garbage
/// collection of `results/cache/`).
fn cmd_cache(a: &Args) -> Result<(), String> {
    use heteronoc_bench::cache::{gc_dir, verify_checkpoints, verify_dir, CkptVerdict, GcAction};
    use heteronoc_bench::results_dir;

    let dir = results_dir().join("cache");
    if a.flag("gc") {
        let actions = gc_dir(&dir).map_err(|e| format!("cache gc: {e}"))?;
        if actions.is_empty() {
            println!("cache is empty: {}", dir.display());
        }
        for act in actions {
            match act {
                GcAction::Clean(p) => println!("clean       {}", p.display()),
                GcAction::Quarantined { from, to } => {
                    println!("quarantined {} -> {}", from.display(), to.display());
                }
                GcAction::Pruned {
                    path,
                    kept,
                    dropped,
                } => println!(
                    "pruned      {} ({kept} kept, {dropped} dropped)",
                    path.display()
                ),
                GcAction::RemovedCheckpoint { path, reason } => {
                    println!("removed     {} ({reason})", path.display());
                }
            }
        }
        return Ok(());
    }
    let reports = verify_dir(&dir).map_err(|e| format!("cache verify: {e}"))?;
    let ckpts = verify_checkpoints(&dir).map_err(|e| format!("cache verify: {e}"))?;
    if reports.is_empty() && ckpts.is_empty() {
        println!("cache is empty: {}", dir.display());
        return Ok(());
    }
    let mut dirty = false;
    if !reports.is_empty() {
        println!(
            "{:<40}{:>8}{:>8}{:>10}{:>12}",
            "file", "valid", "stale", "bad-shape", "undecodable"
        );
        for r in &reports {
            let name = r.path.file_name().map_or_else(
                || r.path.display().to_string(),
                |n| n.to_string_lossy().into_owned(),
            );
            println!(
                "{name:<40}{:>8}{:>8}{:>10}{:>12}",
                r.valid, r.stale, r.bad_shape, r.undecodable
            );
            dirty |= !r.is_clean();
        }
    }
    for r in &ckpts {
        let name = r.path.file_name().map_or_else(
            || r.path.display().to_string(),
            |n| n.to_string_lossy().into_owned(),
        );
        match &r.verdict {
            CkptVerdict::Resumable { cycle } => {
                println!("ckpt {name:<40} resumable (cycle {cycle})");
            }
            CkptVerdict::Orphaned { cycle } => {
                println!("ckpt {name:<40} orphaned: point already completed (cycle {cycle})");
                dirty = true;
            }
            CkptVerdict::StaleName => {
                println!("ckpt {name:<40} stale or malformed content key");
                dirty = true;
            }
            CkptVerdict::StaleSchema { found } => {
                println!("ckpt {name:<40} stale: written under checkpoint schema v{found}");
                dirty = true;
            }
            CkptVerdict::Corrupt(e) => {
                println!("ckpt {name:<40} corrupt: {e}");
                dirty = true;
            }
        }
    }
    if dirty {
        if a.flag("verify") {
            return Err("cache contains invalid entries (run `heteronoc cache --gc`)".into());
        }
        println!("cache contains invalid entries (run `heteronoc cache --gc`)");
    }
    Ok(())
}

/// `heteronoc experiment <id>|all`: one paper experiment, its report
/// printed line by line as it runs, or the whole suite sharded over the
/// worker pool, each experiment's output printed as one block.
fn cmd_experiment(a: &Args) -> Result<(), String> {
    use heteronoc_bench::experiments::{run_blocks, ALL};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let ids: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
    let valid = format!("valid ids: all, {}", ids.join(", "));
    let [id] = a.rest.as_slice() else {
        return Err(format!("usage: heteronoc experiment <id>; {valid}"));
    };
    if id != "all" {
        let Some(&(_, entry)) = ALL.iter().find(|(name, _)| name == id) else {
            return Err(format!("unknown experiment '{id}'; {valid}"));
        };
        return catch_unwind(AssertUnwindSafe(entry)).map_err(|_| format!("{id} panicked"));
    }
    let jobs = default_jobs();
    println!(
        "running {} experiments on {jobs} worker thread(s)",
        ALL.len()
    );
    let failed = run_blocks(ALL, jobs);
    if !failed.is_empty() {
        return Err(format!("failed experiments: {failed:?}"));
    }
    println!("all {} experiments completed; see results/", ALL.len());
    Ok(())
}

/// One subcommand: its entry point and what it takes on the command line.
struct Command {
    name: &'static str,
    run: fn(&Args) -> Result<(), String>,
    /// `--key value` options.
    options: &'static [&'static str],
    /// Boolean `--flag`s.
    flags: &'static [&'static str],
    /// Positional arguments after the command, at most.
    positionals: usize,
}

/// Every subcommand. A flag a command does not list here is an error
/// before the command starts.
const COMMANDS: &[Command] = &[
    Command {
        name: "run",
        run: cmd_run,
        options: &[
            "layout",
            "pattern",
            "rate",
            "packets",
            "seed",
            "checkpoint-dir",
            "checkpoint-every",
            "trace",
            "progress",
            "progress-every",
        ],
        flags: &["resume", "profile"],
        positionals: 0,
    },
    Command {
        name: "replay",
        run: cmd_replay,
        options: &[
            "a",
            "b",
            "layout",
            "pattern",
            "rate",
            "packets",
            "seed",
            "horizon",
            "max-fields",
        ],
        flags: &[],
        positionals: 0,
    },
    Command {
        name: "sweep",
        run: cmd_sweep,
        options: &[
            "layouts",
            "layout",
            "pattern",
            "rates",
            "seeds",
            "seed",
            "packets",
            "jobs",
            "name",
            "epochs",
            "checkpoint-every",
            "progress",
        ],
        flags: &["no-cache", "profile"],
        positionals: 0,
    },
    Command {
        name: "heatmap",
        run: cmd_heatmap,
        options: &["rate", "packets", "seed"],
        flags: &[],
        positionals: 0,
    },
    Command {
        name: "cmp",
        run: cmd_cmp,
        options: &["layout", "workload", "refs", "seed"],
        flags: &[],
        positionals: 0,
    },
    Command {
        name: "trace",
        run: cmd_trace,
        options: &[
            "layout", "rate", "packets", "seed", "out", "chrome", "epochs", "check", "rows",
        ],
        flags: &["profile", "overhead"],
        positionals: 0,
    },
    Command {
        name: "report",
        run: cmd_report,
        options: &["name", "rows", "compare"],
        flags: &[],
        // The second file of `--compare <a> <b>`.
        positionals: 1,
    },
    Command {
        name: "lint",
        run: cmd_lint,
        options: &[
            "layout",
            "hubs",
            "rates",
            "plan",
            "checkpoint-every",
            "watchdog",
            "explain",
        ],
        flags: &["baseline", "json", "deny-warnings"],
        positionals: 0,
    },
    Command {
        name: "faults",
        run: cmd_faults,
        options: &[
            "layout",
            "plan",
            "ber",
            "fault-seed",
            "kill-link",
            "kill-router",
            "bursts",
            "spacing",
            "stall-limit",
        ],
        flags: &[],
        positionals: 0,
    },
    Command {
        name: "campaign",
        run: cmd_campaign,
        options: &[
            "layouts",
            "layout",
            "kills",
            "plans",
            "seed",
            "bursts",
            "spacing",
            "stall-limit",
            "recover",
            "jobs",
            "name",
            "progress",
        ],
        flags: &["no-recover", "no-cache"],
        positionals: 0,
    },
    Command {
        name: "cache",
        run: cmd_cache,
        options: &[],
        flags: &["verify", "gc"],
        positionals: 0,
    },
    Command {
        name: "top",
        run: cmd_top,
        options: &["file", "interval-ms"],
        flags: &["once"],
        positionals: 1,
    },
    Command {
        name: "experiment",
        run: cmd_experiment,
        options: &[],
        flags: &[],
        positionals: 1,
    },
];

/// Parses a command line against the command its first word names, so
/// that command's boolean flags never take the next word as a value.
fn parse_args(argv: Vec<String>) -> Args {
    let command = argv
        .first()
        .and_then(|w| COMMANDS.iter().find(|c| c.name == w));
    Args::parse(argv, command.map_or(&[], |c| c.flags))
}

fn run() -> Result<(), String> {
    let a = parse_args(std::env::args().skip(1).collect());
    let name = match a.command.as_deref() {
        Some(name) if name != "help" && !a.flag("help") => name,
        _ => {
            print!("{USAGE}");
            return Ok(());
        }
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command '{name}'\n\n{USAGE}"))?;
    a.check(command.options, command.flags, command.positionals)?;
    (command.run)(&a)
}

fn main() -> ExitCode {
    signals::default_sigpipe();
    let result = run();
    if let Err(e) = &result {
        eprintln!("error: {e}");
    }
    // A graceful SIGINT/SIGTERM shutdown already flushed checkpoints and
    // manifests on the cooperative path; report it with the conventional
    // 128 + signo exit code (130 / 143) so callers can tell "interrupted
    // but resumable" from ordinary failure.
    if let Some(sig) = signals::received() {
        return ExitCode::from(signals::exit_code(sig));
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        parse_args(line.split_whitespace().map(String::from).collect())
    }

    /// What `run` checks before the command starts.
    fn check(line: &str) -> Result<(), String> {
        let a = args(line);
        let name = a.command.as_deref().expect("a command");
        let c = COMMANDS.iter().find(|c| c.name == name).expect("known");
        a.check(c.options, c.flags, c.positionals)
    }

    #[test]
    fn a_flag_the_command_does_not_take_is_named() {
        for (line, flag) in [
            ("lint --layot baseline", "--layot"),
            ("sweep --rate 0.05", "--rate"),
            ("run --rates 0.05", "--rates"),
            ("cache --verbose", "--verbose"),
        ] {
            let e = check(line).unwrap_err();
            assert!(e.contains(flag), "{line}: {e}");
        }
    }

    #[test]
    fn a_positional_is_rejected_where_the_command_takes_none() {
        let e = check("lint baseline").unwrap_err();
        assert!(e.contains("'baseline'"), "{e}");
        assert!(check("sweep 0.05").is_err());
        // The three commands that take one positional take no second.
        assert!(check("report --compare a.json b.json").is_ok());
        assert!(check("top progress.jsonl --once").is_ok());
        assert!(check("top --once progress.jsonl").is_ok());
        assert!(check("experiment table1_router_costs").is_ok());
        assert!(check("experiment table1_router_costs fig07_ur_traffic").is_err());
        assert!(check("top a.jsonl b.jsonl").is_err());
    }

    /// Every `--flag` the usage text lists under a command is one that
    /// command takes.
    #[test]
    fn every_flag_in_the_usage_is_taken_by_its_command() {
        let body = &USAGE[USAGE.find("COMMANDS").unwrap()..USAGE.find("LAYOUTS").unwrap()];
        let mut command: Option<&Command> = None;
        for line in body.lines().skip(1) {
            if let Some(name) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                let name = name.split_whitespace().next().unwrap();
                command = COMMANDS.iter().find(|c| c.name == name);
                assert!(command.is_some(), "usage lists unknown command {name}");
                continue;
            }
            if !line.trim_start().starts_with("--") {
                continue;
            }
            let c = command.expect("options follow a command");
            for word in line.split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '-')) {
                if let Some(key) = word.strip_prefix("--") {
                    assert!(
                        c.options.contains(&key) || c.flags.contains(&key),
                        "usage lists --{key} under {}",
                        c.name
                    );
                }
            }
        }
    }

    #[test]
    fn rates_outside_zero_one_are_rejected_with_the_flag_and_value() {
        assert_eq!(rates_arg(&args("sweep")).unwrap(), None);
        assert_eq!(
            rates_arg(&args("sweep --rates 0,0.5,1")).unwrap(),
            Some(vec![0.0, 0.5, 1.0])
        );
        for bad in ["1.5", "-0.5", "nan", "inf"] {
            let e = rates_arg(&args(&format!("lint --rates 0.01,{bad}"))).unwrap_err();
            assert!(
                e.contains("--rates") && e.contains(&format!("'{bad}'")),
                "{e}"
            );
        }
        assert!(rates_arg(&args("sweep --rates 0.1,x"))
            .unwrap_err()
            .contains("--rates"));
    }

    #[test]
    fn replay_rejects_an_unknown_pattern_before_loading_a_checkpoint() {
        let e = cmd_replay(&args("replay --pattern nosuch --a missing.ckpt")).unwrap_err();
        assert!(e.contains("unknown pattern 'nosuch'"), "{e}");
    }
}
