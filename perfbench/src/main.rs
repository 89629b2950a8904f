//! `perfbench` — the repository's benchmark: serving, online mitigation
//! and crash campaigns, with an outside-in layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` runs the same workload untraced and
//! then traced from the same seed, builds the layer ledger
//! ([`ledger`]) and reports the per-layer metrics plus the tracing
//! overhead. See `perfbench/README.md` for what each workload and
//! metric means.

mod campaign;
mod client;
mod ledger;
mod model;
mod report;
mod serving;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use arthas::AnalysisCache;

use report::{cpu_seconds, median, peak_rss_mb, Outcome};

/// An untraced run sets up at least [`SETUP_MIN_REPS`] times, and
/// keeps setting up (to at most [`SETUP_MAX_REPS`]) until
/// [`SETUP_MIN_SECONDS`] have passed; `setup_s` is the median. Short
/// set-ups get more repetitions, so their median stays steady.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// How long a campaign's traced run drives its serving probe.
const PROBE_SECONDS: f64 = 8.0;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <kv-hot|kv-wide|f4-online|campaign> \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into()),
    )
    .join(format!("perfbench-scratch-{}", std::process::id()));
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(out) => println!("{}", out.to_json()),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let spec = match args.workload.as_str() {
        "kv-hot" => serving::kv_hot(),
        "kv-wide" => serving::kv_wide(),
        "f4-online" => serving::f4_online(),
        "campaign" => {
            return if args.trace {
                campaign_traced(args, scratch)
            } else {
                campaign_untraced(args)
            }
        }
        other => return Err(format!("unknown workload {other}")),
    };
    if args.trace {
        serving_traced(&spec, args, scratch)
    } else {
        serving_untraced(&spec, args)
    }
}

/// Adds the median latency of one unit of work.
fn push_p50(out: &mut Outcome, mut samples: Vec<f64>) -> Result<(), String> {
    out.push(
        "p50_us",
        median(&mut samples).ok_or("no latency samples")?,
        "us",
    );
    Ok(())
}

fn report_errors(errors: &[String]) {
    for e in errors.iter().take(20) {
        eprintln!("perfbench: check failed: {e}");
    }
    if errors.len() > 20 {
        eprintln!("perfbench: ... {} more", errors.len() - 20);
    }
}

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]) and returns the
/// last result with the median set-up time in seconds.
fn timed_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && t0.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        if let Some(old) = last.take() {
            discard(old);
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = median(&mut times).expect("set-ups ran");
    Ok((last.expect("set-ups ran"), median))
}

fn serving_untraced(spec: &serving::Spec, args: &Args) -> Result<Outcome, String> {
    let (mut live, setup_s) =
        timed_setup(|| serving::setup(spec, args.seed), serving::Live::shutdown)?;
    let phase = serving::measure(&mut live, spec, args.seed, args.seconds, false)?;
    live.shutdown();
    report_errors(&phase.errors);
    let mut out = Outcome {
        correct: phase.errors.is_empty(),
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: Vec::new(),
    };
    out.push("setup_s", setup_s, "s");
    let t = phase.trace;
    push_p50(&mut out, t.get_us.into_iter().chain(t.set_us).collect())?;
    out.push("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(out)
}

fn serving_traced(spec: &serving::Spec, args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut phases = Vec::with_capacity(2);
    let mut preload = Vec::new();
    for traced in [false, true] {
        let mut live = serving::setup(spec, args.seed)?;
        phases.push(serving::measure(
            &mut live,
            spec,
            args.seed,
            args.seconds,
            traced,
        )?);
        preload = live.preload.clone();
        live.shutdown();
    }
    let traced = phases.pop().expect("traced phase");
    let untraced = phases.pop().expect("untraced phase");
    let mut out = Outcome {
        correct: true,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: Vec::new(),
    };
    let mut errors: Vec<String> = untraced
        .errors
        .iter()
        .chain(&traced.errors)
        .cloned()
        .collect();
    ledger::serving(&mut out, &preload, &traced.trace)?;
    let f4 = campaign::queue(&[campaign::F4_PASS], args.seed)?;
    let cache = campaign::setup(&f4);
    let round = campaign::round(&f4, &cache)?;
    errors.extend(round.errors.iter().cloned());
    ledger::recovery(
        &mut out,
        &campaign::distinct(&f4),
        scratch,
        campaign::figures(&[round]),
    )?;
    out.push(
        "process.cpu_us_per_op",
        untraced.cpu_s * 1e6 / untraced.attempted as f64,
        "us",
    );
    out.push(
        "trace.overhead_pct",
        (untraced.ops_s() / traced.ops_s() - 1.0) * 100.0,
        "%",
    );
    report_errors(&errors);
    out.correct = errors.is_empty();
    Ok(out)
}

/// Whole rounds until `seconds` have passed.
fn campaign_rounds(
    queue: &[campaign::Queued],
    cache: &Arc<AnalysisCache>,
    seconds: f64,
) -> Result<Vec<campaign::Round>, String> {
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        rounds.push(campaign::round(queue, cache)?);
    }
    Ok(rounds)
}

fn campaign_ops_s(rounds: &[campaign::Round]) -> f64 {
    let trials: u64 = rounds.iter().map(|r| r.trials).sum();
    let wall: f64 = rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
    trials as f64 / wall
}

fn campaign_check(
    rounds: &[campaign::Round],
    cache: &Arc<AnalysisCache>,
) -> Result<Vec<String>, String> {
    let mut errors: Vec<String> = rounds.iter().flat_map(|r| r.errors.clone()).collect();
    if let Some(e) = campaign::check_runner_independence(cache, &rounds[0])? {
        errors.push(e);
    }
    Ok(errors)
}

fn campaign_untraced(args: &Args) -> Result<Outcome, String> {
    let queue = campaign::queue(&campaign::PASSES, args.seed)?;
    let (cache, setup_s) = timed_setup(|| Ok(campaign::setup(&queue)), drop)?;
    let rounds = campaign_rounds(&queue, &cache, args.seconds)?;
    let errors = campaign_check(&rounds, &cache)?;
    report_errors(&errors);
    let mut out = Outcome {
        correct: errors.is_empty(),
        attempted: rounds.iter().map(|r| r.trials).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        metrics: Vec::new(),
    };
    out.push("setup_s", setup_s, "s");
    push_p50(
        &mut out,
        rounds
            .iter()
            .flat_map(|r| r.trial_us.iter().copied())
            .collect(),
    )?;
    out.push("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(out)
}

fn campaign_traced(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let queue = campaign::queue(&campaign::PASSES, args.seed)?;
    let cache = campaign::setup(&queue);
    let cpu0 = cpu_seconds()?;
    let untraced = campaign_rounds(&queue, &cache, args.seconds)?;
    let cpu = cpu_seconds()? - cpu0;
    let traced = campaign_rounds(&queue, &cache, args.seconds)?;
    let mut errors = campaign_check(&untraced, &cache)?;
    errors.extend(campaign_check(&traced, &cache)?);
    let all = untraced.iter().chain(&traced);
    let mut out = Outcome {
        correct: true,
        attempted: all.clone().map(|r| r.trials).sum(),
        failed: all.map(|r| r.failed).sum(),
        metrics: Vec::new(),
    };
    // The campaign has no wire traffic of its own; the serving layers
    // are measured on a short kv-hot probe from the same seed.
    let spec = serving::kv_hot();
    let mut live = serving::setup(&spec, args.seed)?;
    let probe = serving::measure(&mut live, &spec, args.seed, PROBE_SECONDS, true)?;
    let preload = live.preload.clone();
    live.shutdown();
    errors.extend(probe.errors.iter().cloned());
    ledger::serving(&mut out, &preload, &probe.trace)?;
    ledger::recovery(
        &mut out,
        &campaign::distinct(&queue),
        scratch,
        campaign::figures(&traced),
    )?;
    let trials: u64 = untraced.iter().map(|r| r.trials).sum();
    out.push("process.cpu_us_per_op", cpu * 1e6 / trials as f64, "us");
    out.push(
        "trace.overhead_pct",
        (campaign_ops_s(&untraced) / campaign_ops_s(&traced) - 1.0) * 100.0,
        "%",
    );
    report_errors(&errors);
    out.correct = errors.is_empty();
    Ok(out)
}
