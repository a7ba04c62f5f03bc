//! `experiment <name> [flags]` runs one experiment of the paper's
//! evaluation, ablations and extensions; `experiment all` runs every one
//! of them, producing the full set of tables and CSVs.
//!
//! ```text
//! cargo run --release -p sqda-bench --bin experiment -- all [--quick]
//! ```
//!
//! Every experiment accepts the flags of [`ExpOptions`]. Under `all` the
//! experiments run as child processes of this same executable, fanned
//! across `--jobs <n>` workers (default: one per core; `--serial` forces
//! one at a time). Each child gets `--serial` so parallelism lives at
//! exactly one level, and its stdout/stderr are captured and replayed in
//! the fixed experiment order — the bytes `all` emits are identical
//! whether the children ran serially or concurrently.
//!
//! After the experiments `all` runs a small canonical simulation (all
//! four algorithms, gaussian 2-d, 10 disks, λ = 5) and writes
//! `<out>/BENCH_summary.json`, the schema-v2 unified summary: the run's
//! options and each experiment's exit status and wall time under
//! `experiments`, a `benches` object merging the fragment each
//! experiment (and the headline run) wrote under `<out>/bench/` (each
//! metric as mean ± 95% CI over `--reps` replications), and the
//! generator's `rng_fingerprint` as provenance. It is the only
//! `BENCH_*.json` a run writes.
//! Any other file in that directory — say one left by an earlier run of
//! an experiment that no longer exists — stays out of the summary. With
//! `--trace <file>` / `--metrics <file>` the canonical run is recorded
//! through the observability layer (see `sqda-obs`); these two flags are
//! not passed to the children.

mod explain;
mod hotpath;
mod more;
mod paper;
mod scale;

use sqda_bench::claims::{self, Section};
use sqda_bench::sweep::{AlgorithmKind, Col, Measure, Panel, Row, Seeds, Setup};
use sqda_bench::{parallel_map, ExpOptions};
use sqda_obs::json::parse;
use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// An experiment: it reads its options and writes its results.
type Experiment = fn(&ExpOptions);

/// Every experiment, in the order `all` runs and replays them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig08_nodes_vs_k", paper::fig08),
    ("fig09_nodes_10d", paper::fig09),
    ("fig10_resp_vs_lambda", paper::fig10),
    ("fig11_resp_vs_disks", paper::fig11),
    ("fig12_resp_vs_k", paper::fig12),
    ("table3_scaleup_population", paper::table3),
    ("table4_scaleup_k", paper::table4),
    ("table5_summary", paper::table5),
    ("ablation_declustering", more::ablation_declustering),
    ("ablation_crss_bound", more::ablation_crss_bound),
    ("ablation_split_policy", more::ablation_split_policy),
    ("ablation_packing", more::ablation_packing),
    ("ext_future_work", more::ext_future_work),
    ("ext_tighter_threshold", more::ext_tighter_threshold),
    ("ext_sstree", more::ext_sstree),
    ("analysis_validation", more::analysis_validation),
    ("fault_sweep", more::fault_sweep),
    ("bench_hotpath", hotpath::run),
    ("bench_scale", scale::run),
    ("bench_explain", explain::run),
];

fn main() {
    let opts = ExpOptions::from_args().unwrap_or_else(|e| usage(&e));
    match opts.name.as_str() {
        "all" => return all(&opts),
        "report" => return report(&opts),
        _ => {}
    }
    let Some((_, run)) = EXPERIMENTS.iter().find(|(name, _)| *name == opts.name) else {
        let problem = match opts.name.as_str() {
            "" => "no experiment named".to_string(),
            name => format!("no experiment {name:?}"),
        };
        usage(&problem)
    };
    run(&opts);
}

/// Prints `problem`, the usage and every experiment's name, and exits 2.
fn usage(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "experiment: {problem}\n\
         usage: experiment <name> [--quick] [--out <dir>] [--jobs <n> | --serial] \
         [--reps <n>] [--warmup <fraction>] [--trace <file>] [--metrics <file>]\n\
         experiments: all report {}",
        names.join(" ")
    );
    std::process::exit(2);
}

/// `experiment report [--quick] [--out <dir>]`: `<dir>/REPORT.md` from
/// the CSVs in `<dir>`; exits 1 when a claim required at that scale
/// fails.
fn report(opts: &ExpOptions) {
    let sections: Vec<&Section> = paper::SECTIONS.iter().chain(&more::SECTIONS).collect();
    let path = opts.out_dir.join("REPORT.md");
    let written = claims::report(&sections, &opts.out_dir, opts.quick).and_then(|(md, ok)| {
        std::fs::write(&path, md).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ok)
    });
    let failure = match written {
        Ok(true) => return eprintln!("  wrote {}", path.display()),
        Ok(false) => format!(
            "a claim required at this scale fails: see {}",
            path.display()
        ),
        Err(e) => e,
    };
    eprintln!("experiment report: {failure}");
    std::process::exit(1);
}

/// Merges the fragments of [`EXPERIMENTS`] and the headline run from
/// `<out>/bench/` into one deterministic `"name":{fragment}` JSON object
/// body, sorted by bench name. Other files there are ignored; fragments
/// that are missing or fail to parse are skipped with a warning rather
/// than corrupting the summary.
fn merge_fragments(out_dir: &Path) -> String {
    let mut names: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|e| e.0)
        .chain(["headline"])
        .collect();
    names.sort_unstable();
    let mut merged = Vec::new();
    for name in names {
        let path = out_dir.join("bench").join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
        match text.and_then(|t| parse(t.trim()).map(|_| t).map_err(|e| e.to_string())) {
            Ok(text) => merged.push(format!("\"{name}\":{}", text.trim())),
            Err(e) => eprintln!("  skipping unreadable fragment {}: {e}", path.display()),
        }
    }
    format!("{{{}}}", merged.join(","))
}

/// `experiment all`: every experiment as a child process, then the
/// headline run and the summary.
fn all(opts: &ExpOptions) {
    // One level of parallelism: `all` fans processes out, so each child
    // runs its own sweeps serially.
    let mut args = vec![
        "--serial".to_string(),
        "--out".into(),
        opts.out_dir.display().to_string(),
    ];
    if opts.quick {
        args.push("--quick".into());
    }
    if let Some(reps) = opts.reps {
        args.extend(["--reps".into(), reps.to_string()]);
    }
    if opts.warmup > 0.0 {
        args.extend(["--warmup".into(), opts.warmup.to_string()]);
    }
    let exe = std::env::current_exe().expect("current exe");

    let total_start = Instant::now();
    let runs = parallel_map(
        EXPERIMENTS,
        opts.jobs,
        || (),
        |_, &(name, _)| {
            let start = Instant::now();
            let output = Command::new(&exe).arg(name).args(&args).output();
            let output = output.unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
            (name, start.elapsed().as_secs_f64(), output)
        },
    );
    let total_wall_s = total_start.elapsed().as_secs_f64();

    let mut failed = Vec::new();
    for (name, _, output) in &runs {
        println!("\n########## {name} ##########");
        std::io::stdout().write_all(&output.stdout).expect("stdout");
        std::io::stderr().write_all(&output.stderr).expect("stderr");
        if !output.status.success() {
            eprintln!("experiment {name} FAILED: {}", output.status);
            failed.push(*name);
        }
    }

    // Canonical headline run: small enough to be negligible next to the
    // experiments, stable enough to track response times across commits.
    // With --trace / --metrics its first algorithm's replication 0 is
    // recorded.
    std::fs::create_dir_all(&opts.out_dir).expect("create results dir");
    let demo = ExpOptions {
        quick: true,
        ..opts.clone()
    };
    let dataset = sqda_datasets::gaussian(2000, 2, 4242);
    let setup = Setup::build(&dataset, 10, 4243, 4244, &demo);
    let cols = AlgorithmKind::ALL
        .map(|a| Col::run(a, Measure::Response(Seeds::One(4245))).label("algorithm", a));
    Panel {
        title: format!(
            "headline (set: {}, n=2000, disks: 10, k=10, λ=5)",
            dataset.name
        ),
        csv: String::new(),
        labels: &[],
        keys: &[],
        cols: cols.into(),
        rows: vec![Row::new(&setup, 10, 5.0, &[])],
    }
    .run("headline", 4244, &demo);

    let experiments_json: Vec<String> = runs
        .iter()
        .map(|(name, wall_s, out)| {
            let ok = out.status.success();
            format!("{{\"name\":\"{name}\",\"ok\":{ok},\"wall_s\":{wall_s:.3}}}")
        })
        .collect();
    let summary = format!(
        "{{\"schema\":2,\"quick\":{},\"jobs\":{},\"total_wall_s\":{total_wall_s:.3},\
         \"reps\":{},\"warmup_fraction\":{},\
         \"rng_fingerprint\":\"{}\",\
         \"experiments\":[{}],\"benches\":{}}}\n",
        opts.quick,
        opts.jobs,
        opts.reps(),
        opts.warmup,
        sqda_bench::report::rng_fingerprint(),
        experiments_json.join(","),
        merge_fragments(&opts.out_dir)
    );
    let summary_path = opts.out_dir.join("BENCH_summary.json");
    std::fs::write(&summary_path, summary).expect("write BENCH_summary.json");
    eprintln!("  wrote {}", summary_path.display());

    if failed.is_empty() {
        println!("\nall {} experiments completed", EXPERIMENTS.len());
    } else {
        eprintln!("\nFAILED experiments: {failed:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqda_obs::json::Value;

    #[test]
    fn committed_report_regenerates_from_the_committed_csvs() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let sections: Vec<&Section> = paper::SECTIONS.iter().chain(&more::SECTIONS).collect();
        let (md, ok) = claims::report(&sections, &results, false).expect("report");
        let committed = std::fs::read_to_string(results.join("REPORT.md")).expect("REPORT.md");
        assert!(
            md == committed,
            "results/REPORT.md is stale: run `experiment report`"
        );
        assert!(ok, "a full-scale claim fails on the committed results");
    }

    #[test]
    fn merge_fragments_leaves_out_stale_files() {
        let out = std::env::temp_dir().join(format!("sqda_merge_test_{}", std::process::id()));
        let dir = out.join("bench");
        let _ = std::fs::remove_dir_all(&out);
        std::fs::create_dir_all(&dir).expect("create bench dir");
        for name in [
            "fig08_nodes_vs_k",
            "headline",
            "bench_serve",
            "scratch_probe",
        ] {
            let frag = format!("{{\"bench\":\"{name}\",\"metrics\":[]}}\n");
            std::fs::write(dir.join(format!("{name}.json")), frag).expect("write fragment");
        }
        let Ok(Value::Obj(benches)) = parse(&merge_fragments(&out)) else {
            panic!("merged body is not an object");
        };
        // A deleted experiment's leftover and a foreign file stay out.
        let names: Vec<&String> = benches.keys().collect();
        assert_eq!(names, ["fig08_nodes_vs_k", "headline"]);
        let _ = std::fs::remove_dir_all(&out);
    }
}
