//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload reveal|serve_hits|fleet_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload generates its inputs from `--seed`, drives the system
//! only through its public entry points, checks every output, and prints
//! as its last stdout line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. The line
//! before it carries the base count behind every ratio and percentile.
//! Temporary stores and span dumps go under `.perfbench/` in the working
//! directory.

mod fleet;
mod inputs;
mod layers;
mod report;
mod reveal;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured-phase length.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// When the process started, for the first set-up's `setup_s`.
    pub started: Instant,
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Where this run keeps its temporary stores.
pub fn work_dir() -> PathBuf {
    Path::new(".perfbench").join(format!("run-{}", std::process::id()))
}

/// Where a traced run writes its spans (kept after the run).
pub fn trace_path(args: &Args) -> PathBuf {
    Path::new(".perfbench").join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
}

/// Sets the workload up [`SETUPS`] times (once when traced), tearing
/// down every set-up but the last, and returns the last one with the
/// median set-up wall time and every sample. The first set-up is timed
/// from process start, later ones from the previous teardown.
pub fn set_up<S>(
    args: &Args,
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, f64, Vec<f64>) {
    let rounds = if args.trace { 1 } else { SETUPS };
    let mut samples = Vec::with_capacity(rounds);
    let mut from = args.started;
    let mut state = None;
    for round in 0..rounds {
        let s = setup();
        samples.push(from.elapsed().as_secs_f64());
        if round + 1 < rounds {
            teardown(s);
            from = Instant::now();
        } else {
            state = Some(s);
        }
    }
    let median = stats::median(&samples);
    (state.expect("at least one set-up"), median, samples)
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["reveal", "serve_hits", "fleet_mixed"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (reveal, serve_hits, fleet_mixed)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
        started,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = work_dir();
    std::fs::create_dir_all(&dir).expect("work directory is creatable");
    let outcome: Option<Outcome> = match args.workload.as_str() {
        "reveal" => reveal::run(&args, &dir),
        "serve_hits" => serve::run(&args, &dir),
        _ => fleet::run(&args, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let Some(outcome) = outcome else {
        eprintln!("perfbench: no result");
        return ExitCode::from(3);
    };
    println!("{}", outcome.detail_line());
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
