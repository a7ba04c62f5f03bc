//! The whole set in one command: every workload, untraced then traced,
//! `--repeat` times. Each run is a child process started exactly as the
//! benchmark driver starts one (`--workload W --seed N --seconds S --trace
//! T`), so the suite's numbers are the driver's numbers — a fresh
//! process per run, no heap or page-cache state carried between workloads.

use crate::metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::proc::Res;
use crate::Options;
use sqda_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

struct Run {
    workload: &'static str,
    traced: bool,
    repeat: usize,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    samples: BTreeMap<String, u64>,
}

fn defs(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One run in a child process; its notes and problems pass through on
/// stderr, its result line and sample counts are parsed.
fn run_child(opts: &Options, workload: &'static str, traced: bool, repeat: usize) -> Res<Run> {
    let samples_path = opts.ctx.out.join("samples.tmp");
    let output = Command::new(std::env::current_exe()?)
        .arg("--sqda")
        .arg(&opts.ctx.sqda)
        .arg("--out")
        .arg(&opts.ctx.out)
        .args(["--workload", workload])
        .args(["--seed", &opts.ctx.seed.to_string()])
        .args(["--seconds", &opts.ctx.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--samples")
        .arg(&samples_path)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(format!("{workload} run exited with {}", output.status).into());
    }
    let stdout = String::from_utf8(output.stdout)?;
    let line = stdout.lines().last().ok_or("run printed no result line")?;
    let doc = json::parse(line)?;
    let field = |key: &str| doc.get(key).ok_or(format!("result line has no {key}"));
    let Value::Obj(metric_map) = field("metrics")? else {
        return Err("result line's metrics is not an object".into());
    };
    let metrics = metric_map
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric without a value")?;
            Ok((name.clone(), value))
        })
        .collect::<Res<_>>()?;
    let samples = std::fs::read_to_string(&samples_path)?
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(name, n)| Ok((name.to_string(), n.parse()?)))
        .collect::<Res<_>>()?;
    std::fs::remove_file(&samples_path)?;
    Ok(Run {
        workload,
        traced,
        repeat,
        correct: field("correct")? == &Value::Bool(true),
        attempted: field("attempted")?
            .as_u64()
            .ok_or("attempted is not a count")?,
        failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
        metrics,
        samples,
    })
}

/// Self-consistency: repeats of one commit on the same inputs. Counts
/// made with one client and no timers must repeat exactly, end-to-end
/// timings within their bound; unbounded layer timings are not compared.
fn compare_repeats(runs: &[Run]) -> bool {
    println!("# self-consistency: workload metric first other rel_diff limit verdict");
    let mut ok = true;
    for first in runs.iter().filter(|r| r.repeat == 0) {
        for m in defs(first.traced) {
            let Some(limit) = (if m.exact { Some(0.0) } else { m.bound }) else {
                continue;
            };
            let a = first.metrics[m.name];
            let others = runs.iter().filter(|r| {
                r.repeat > 0 && r.workload == first.workload && r.traced == first.traced
            });
            for b in others.map(|r| r.metrics[m.name]) {
                if a == 0.0 && b == 0.0 {
                    continue; // a layer this workload does not exercise
                }
                let rel = if a == b {
                    0.0
                } else {
                    (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
                };
                let pass = rel <= limit;
                println!(
                    "{} {} {a} {b} {rel:.4} {limit} {}",
                    first.workload,
                    m.name,
                    if pass { "ok" } else { "DIFFERS" }
                );
                ok &= pass;
            }
        }
    }
    ok
}

fn result_json(opts: &Options, runs: &[Run], ok: bool) -> String {
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(name, v)| match r.samples.get(name) {
                    Some(n) => format!("      \"{name}\": {{\"value\": {v}, \"samples\": {n}}}"),
                    None => format!("      \"{name}\": {{\"value\": {v}}}"),
                })
                .collect();
            format!(
                "    {{\"workload\": \"{}\", \"traced\": {}, \"repeat\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{\n{}\n    }}}}",
                r.workload,
                r.traced,
                r.repeat,
                r.correct,
                r.attempted,
                r.failed,
                metrics.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"build_mode\": \"{}\",\n  \"git_sha\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"nproc\": {},\n  \"repeat\": {},\n  \"ok\": {ok},\n  \"runs\": [\n{}\n  ]\n}}\n",
        opts.build_mode,
        sqda_obs::discover_git_sha(),
        opts.ctx.seed,
        opts.ctx.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        opts.repeat,
        entries.join(",\n")
    )
}

/// Runs the set; returns whether every run was correct and, with two or
/// more repeats, consistent.
pub fn run(opts: &Options) -> Res<bool> {
    let mut runs = Vec::new();
    let mut ok = true;
    let selected = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| opts.workload.as_deref().is_none_or(|w| w == *name));
    for workload in selected {
        for traced in [false, true] {
            for repeat in 0..opts.repeat {
                let mode = if traced { "traced" } else { "end to end" };
                eprintln!("== {workload}, {mode}, repeat {repeat}");
                let run = run_child(opts, workload, traced, repeat)?;
                for m in defs(traced) {
                    // A layer the workload does not exercise reads 0.
                    let v = run.metrics[m.name];
                    if v != 0.0 || !traced {
                        let n = run
                            .samples
                            .get(m.name)
                            .map_or(String::new(), |n| format!("  (n={n})"));
                        println!("{workload} {} {v} {}{n}", m.name, m.unit);
                    }
                }
                println!(
                    "{workload} error_rate {} ratio  ({} failed of {} attempted, correct: {})",
                    run.failed as f64 / run.attempted.max(1) as f64,
                    run.failed,
                    run.attempted,
                    run.correct
                );
                ok &= run.correct;
                runs.push(run);
            }
        }
    }
    if opts.repeat >= 2 {
        ok &= compare_repeats(&runs);
    }
    let path = opts.ctx.out.join("result.json");
    std::fs::write(&path, result_json(opts, &runs, ok))?;
    println!("# wrote {}", path.display());
    Ok(ok)
}
