//! Command line of the HeteroNoC benchmark. Run it from the repository
//! root:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- <args>
//! ```

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use heteronoc_bench::json::{self, Json};
use heteronoc_benchmark::compare::{self, Claim, TRACED, UNTRACED};
use heteronoc_benchmark::harness::{measure, report, Scale, Workload};
use heteronoc_benchmark::spec::Spec;

const USAGE: &str = "\
usage:
  --workload W [--seed N] [--seconds S] [--trace 0|1]
      one run of workload W; the last stdout line is its JSON result
  run   [--workload W] [--seed N] [--seconds S] [--out DIR]
      untraced runs of every workload (or W), each in a child process;
      prints `workload metric value unit` lines and appends the results
      to DIR/untraced.jsonl
  trace [--workload W] [--seed N] [--seconds S] [--out DIR]
      the same with tracing, printing the per-layer metrics
      (DIR/traced.jsonl)
  compare PARENT_DIR CHANGE_DIR [--claim metric@workload]
      judge a change's recorded runs against its parent's
Seeds default to each workload's pinned seed, seconds to run_seconds.";

#[derive(Debug, Default)]
struct Opts {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    claim: Option<Claim>,
    positional: Vec<String>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            o.positional.push(a.clone());
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
        let bad = || format!("bad value for {a}: {v}");
        match a.as_str() {
            "--workload" => {
                o.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => o.seed = Some(parse_u64(v).ok_or_else(bad)?),
            "--seconds" => o.seconds = Some(parse_u64(v).ok_or_else(bad)?),
            "--trace" => {
                o.trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => o.out = Some(PathBuf::from(v)),
            "--claim" => o.claim = Some(Claim::parse(v).ok_or_else(bad)?),
            _ => return Err(format!("unknown option {a}")),
        }
    }
    Ok(o)
}

/// One run of one workload in this process.
fn single(spec: &Spec, o: &Opts) -> Result<ExitCode, String> {
    let w = o.workload.ok_or("--workload is required")?;
    let trace = o.trace.unwrap_or(false);
    let per_layer: Vec<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
    let outcome = measure(
        w,
        o.seed.unwrap_or(w.pinned_seed()),
        o.seconds.unwrap_or(spec.run_seconds) as f64,
        trace,
        Scale::Bench,
        &per_layer,
    );
    for e in &outcome.errors {
        eprintln!("{}: {e}", w.name());
    }
    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!("{}", report(&outcome, declared)?);
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every selected workload, each in a fresh child process so its peak
/// memory is its own.
fn run_all(spec: &Spec, o: &Opts, trace: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let workloads = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let seconds = o.seconds.unwrap_or(spec.run_seconds);
    let mut ok = true;
    for w in workloads {
        let seed = o.seed.unwrap_or(w.pinned_seed());
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let Some(Ok(result @ Json::Obj(_))) = stdout.lines().last().map(json::parse) else {
            eprintln!("{}: no result ({})", w.name(), child.status);
            ok = false;
            continue;
        };
        let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
        ok &= correct && child.status.success();
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{} {name} {value} {unit}", w.name());
            }
        }
        println!(
            "{} correct={correct} attempted={} failed={}",
            w.name(),
            result.get("attempted").unwrap_or(&Json::Null),
            result.get("failed").unwrap_or(&Json::Null)
        );
        if let (Some(dir), Json::Obj(members)) = (&o.out, result) {
            let mut line = vec![
                ("workload".to_owned(), Json::Str(w.name().to_owned())),
                (
                    "seed".to_owned(),
                    Json::Int(i64::try_from(seed).unwrap_or(-1)),
                ),
                ("trace".to_owned(), Json::Int(i64::from(trace))),
            ];
            line.extend(members);
            append(dir, if trace { TRACED } else { UNTRACED }, &Json::Obj(line))?;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn append(dir: &Path, file: &str, line: &Json) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_dirs(spec: &Spec, o: &Opts) -> Result<ExitCode, String> {
    let [parent, change] = o.positional.as_slice() else {
        return Err("compare takes PARENT_DIR and CHANGE_DIR".to_owned());
    };
    let parent = compare::load(Path::new(parent))?;
    let change = compare::load(Path::new(change))?;
    let verdict = compare::compare(spec, &parent, &change, o.claim.as_ref());
    for line in &verdict.lines {
        println!("{line}");
    }
    Ok(if verdict.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Spec::load().and_then(|spec| {
        let (cmd, rest) = match args.first().map(String::as_str) {
            Some(c @ ("run" | "trace" | "compare")) => (c, &args[1..]),
            _ => ("", &args[..]),
        };
        let o = parse_opts(rest)?;
        if !o.positional.is_empty() && cmd != "compare" {
            return Err(format!("unexpected argument {}", o.positional[0]));
        }
        match cmd {
            "run" => run_all(&spec, &o, false),
            "trace" => run_all(&spec, &o, true),
            "compare" => compare_dirs(&spec, &o),
            _ => single(&spec, &o),
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
