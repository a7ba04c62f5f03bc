//! CI gate: diffs the current `BENCH_summary.json` against the committed
//! `results/BASELINE.json` with the noise-aware rule from
//! `sqda_bench::report` — a metric fails only when its 95% confidence
//! band separates from the baseline's in the bad direction *and* the
//! relative change clears `--rel-threshold` (default 5%). Point-estimate
//! jitter inside overlapping bands never fails.
//!
//! `--scale <file>` adds the external build's scaling band, read from
//! `experiment bench_scale`'s fragment or from a summary holding it under
//! `benches`: the build time per point at the largest population may be
//! at most 1.5× that at the smallest, so a super-linear term cannot come
//! back unnoticed (the build was 3.8× before it was made linear) — and
//! its file-call budget: no build in that sweep may make more than half
//! a positional call per page it moved (it made one before scratch I/O
//! went by extents; the count is exact, so there is no band).
//!
//! ```text
//! check_regression [--current results/BENCH_summary.json]
//!                  [--baseline results/BASELINE.json]
//!                  [--rel-threshold 0.05]
//!                  [--scale results/bench/bench_scale.json]
//! ```
//!
//! Exit status: 0 clean, 1 findings (regressions or missing metrics),
//! 2 usage/parse errors.

#![forbid(unsafe_code)]

use sqda_bench::report::{
    build_scaling, compare_summary_text, FindingKind, BUILD_SCALING_BAND, IO_CALL_SHARE_LIMIT,
};
use std::path::PathBuf;

fn fail(msg: &str) -> ! {
    eprintln!("check_regression: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut current = PathBuf::from("results/BENCH_summary.json");
    let mut baseline = PathBuf::from("results/BASELINE.json");
    let mut rel_threshold = 0.05f64;
    let mut scale: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| fail(&format!("{a} needs a value")));
        match a.as_str() {
            "--current" => current = value.into(),
            "--baseline" => baseline = value.into(),
            "--scale" => scale = Some(value.into()),
            "--rel-threshold" => {
                rel_threshold = value.parse().unwrap_or(-1.0);
                if !(0.0..=10.0).contains(&rel_threshold) {
                    fail("--rel-threshold needs a fraction in [0, 10]");
                }
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    let cur_text = std::fs::read_to_string(&current)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", current.display())));
    let base_text = std::fs::read_to_string(&baseline)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", baseline.display())));
    let cmp =
        compare_summary_text(&cur_text, &base_text, rel_threshold).unwrap_or_else(|e| fail(&e));

    println!(
        "check_regression: {} metric(s) compared against {}, \
         {} improvement(s), {} finding(s) [rel-threshold {:.1}%]",
        cmp.compared,
        baseline.display(),
        cmp.improvements,
        cmp.findings.len(),
        rel_threshold * 100.0
    );
    for f in &cmp.findings {
        match f.kind {
            FindingKind::Regression => println!(
                "  REGRESSION {} :: {} — baseline {:.6} ±{:.6}, current {:.6} ±{:.6} \
                 ({:+.1}% in the bad direction)",
                f.bench,
                f.metric,
                f.base.mean,
                f.base.ci95,
                f.cur.mean,
                f.cur.ci95,
                f.rel_change * 100.0
            ),
            FindingKind::Missing => println!(
                "  MISSING    {} :: {} — present in baseline (mean {:.6}), absent now",
                f.bench, f.metric, f.base.mean
            ),
        }
    }
    let mut scaling_ok = true;
    if let Some(path) = scale {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
        let (ratio, calls) = build_scaling(&text).unwrap_or_else(|e| fail(&e));
        scaling_ok = ratio <= BUILD_SCALING_BAND && calls <= IO_CALL_SHARE_LIMIT;
        println!(
            "check_regression: external build costs {ratio:.2}x per point at the largest \
             scale of {} vs the smallest (band {BUILD_SCALING_BAND}x), at up to {calls:.3} \
             file calls per page moved (limit {IO_CALL_SHARE_LIMIT}){}",
            path.display(),
            if scaling_ok { "" } else { " — OUT OF BAND" }
        );
    }
    if cmp.findings.is_empty() && scaling_ok {
        println!("check_regression: OK");
    } else {
        std::process::exit(1);
    }
}
