//! `sqda_benchmark` — the repo benchmark's only load generator.
//!
//! Two ways in (both through `benchmark/run.sh`, which builds first):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last stdout line is the result object `BENCHMARK.json`
//!   describes.
//! * no `--trace` — the whole set (`suite.rs`): every workload untraced
//!   then traced, `--repeat R` times, each run a child process of the
//!   first kind; every metric printed and `out/result.json` written; with
//!   `R >= 2` the repeats must agree within the bounds.
//!
//! The driver is one process with at most two load threads. It feeds the
//! program under test generated files and protocol lines only; everything
//! it measures inside the program's layers it measures from decorators in
//! `trace.rs`, never from code added to the program.

mod build;
mod client;
mod metrics;
mod oracle;
mod proc;
mod rng;
mod serve;
mod sim;
mod stats;
mod suite;
mod trace;

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use proc::Res;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// What every workload needs to know about this invocation.
pub struct Ctx {
    pub sqda: PathBuf,
    pub out: PathBuf,
    pub seed: u64,
    /// Length of the measured part of a run, in seconds.
    pub seconds: f64,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not `correct` (wrong answers, a workload that did
    /// not stress its layer, a ledger that did not close).
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Samples behind a metric, where it is a statistic of many.
    pub samples: BTreeMap<&'static str, usize>,
    /// Free-form lines for the human reading the suite output.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, value);
        self.samples.insert(name, samples);
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

fn run_workload(ctx: &Ctx, workload: &str, traced: bool) -> Res<RunResult> {
    match workload {
        "serve_hot" => serve::run(ctx, &serve::HOT, traced),
        "serve_miss" => serve::run(ctx, &serve::MISS, traced),
        "build_external" => build::run(ctx, traced),
        "sim_multiuser" => sim::run(ctx, traced),
        other => Err(format!("unknown workload {other:?}").into()),
    }
}

/// The contract's result line. Every declared metric of the mode is
/// present; a per-layer metric a workload does not exercise reads 0.
fn result_line(result: &RunResult, traced: bool) -> Res<String> {
    let mut fields = Vec::new();
    for m in if traced { PER_LAYER } else { END_TO_END } {
        let name = m.name;
        let value = match result.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is {v}").into()),
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured").into()),
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0 && result.problems.is_empty(),
        result.attempted.max(1),
        result.failed,
        fields.join(", ")
    ))
}

pub struct Options {
    pub ctx: Ctx,
    pub build_mode: String,
    pub workload: Option<String>,
    trace: Option<bool>,
    pub repeat: usize,
    /// Where a single run leaves its per-metric sample counts (the suite
    /// asks for them; the result line has no room).
    samples: Option<PathBuf>,
}

fn parse_args() -> Res<Options> {
    let mut args = std::env::args().skip(1);
    let mut sqda = None;
    let mut out = None;
    let mut build_mode = "unknown".to_string();
    let mut workload = None;
    let mut trace = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut repeat = 1usize;
    let mut samples = None;
    while let Some(flag) = args.next() {
        if flag == "--manifest" {
            print!("{}", metrics::manifest());
            std::process::exit(0);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--sqda" => sqda = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--build-mode" => build_mode = value,
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse()?,
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--repeat" => repeat = value.parse()?,
            "--samples" => samples = Some(PathBuf::from(value)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}").into()),
                })
            }
            other => return Err(format!("unknown option {other}").into()),
        }
    }
    if let Some(w) = &workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w:?}").into());
        }
    }
    let seconds = seconds.unwrap_or(metrics::RUN_SECONDS as f64);
    if !(1.0..=60.0).contains(&seconds) || repeat == 0 {
        return Err("--seconds wants 1..=60 and --repeat at least 1".into());
    }
    Ok(Options {
        ctx: Ctx {
            sqda: sqda.ok_or("--sqda <path to the sqda binary> is required (use run.sh)")?,
            out: out.ok_or("--out <dir> is required (use run.sh)")?,
            seed,
            seconds,
        },
        build_mode,
        workload,
        trace,
        repeat,
        samples,
    })
}

fn write_samples(path: &Path, result: &RunResult) -> Res<()> {
    let lines: Vec<String> = result
        .samples
        .iter()
        .map(|(name, n)| format!("{name} {n}\n"))
        .collect();
    Ok(std::fs::write(path, lines.concat())?)
}

fn real_main() -> Res<bool> {
    let opts = parse_args()?;
    std::fs::create_dir_all(&opts.ctx.out)?;
    match (opts.trace, &opts.workload) {
        (Some(traced), Some(workload)) => {
            let result = run_workload(&opts.ctx, workload, traced)?;
            for problem in &result.problems {
                eprintln!("! {workload}: {problem}");
            }
            for note in &result.notes {
                eprintln!("# {workload}: {note}");
            }
            if let Some(path) = &opts.samples {
                write_samples(path, &result)?;
            }
            println!("{}", result_line(&result, traced)?);
            // The result line carries `correct`; the run itself succeeded.
            Ok(true)
        }
        (Some(_), None) => Err("--trace needs --workload".into()),
        (None, _) => suite::run(&opts),
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("sqda_benchmark: {e}");
            std::process::exit(2);
        }
    }
}
