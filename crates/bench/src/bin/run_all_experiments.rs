//! Runs every experiment binary, producing the full set of tables and
//! CSVs. Pass `--quick` for a fast smoke run.
//!
//! ```text
//! cargo run --release -p sqda-bench --bin run_all_experiments [-- --quick]
//! ```
//!
//! Experiments run as child processes fanned across `--jobs <n>` workers
//! (default: one per core; `--serial` forces one at a time). Each child
//! gets `--serial` appended so parallelism lives at exactly one level,
//! and its stdout/stderr are captured and replayed in the fixed
//! experiment order — the bytes this driver emits are identical whether
//! the children ran serially or concurrently.
//!
//! After the experiments the driver runs a small canonical simulation
//! (all four algorithms, gaussian 2-d, 10 disks, λ = 5) and writes
//! `<out>/BENCH_summary.json`, the schema-v2 unified summary: the legacy
//! `experiments` / `headline` keys, plus a `benches` object merging the
//! fragment each experiment (and the headline run) wrote under
//! `<out>/bench/` (each metric as mean ± 95% CI over `--reps`
//! replications), plus the generator's `rng_fingerprint` as provenance.
//! Any other file in that directory — say one left by an earlier run of a
//! bin that no longer exists — stays out of the summary. With
//! `--trace <file>` / `--metrics <file>` the canonical run is recorded
//! through the observability layer (see `sqda-obs`): `--trace` emits
//! Chrome/Perfetto `trace_event` JSON (or a raw JSONL event log if the
//! path ends in `.jsonl`), `--metrics` a metrics snapshot + per-query
//! profiles. These two flags are consumed here, not passed to children.

use sqda_bench::{
    build_tree, mean_response, parallel_map, rep_seed, report::BinReport, simulate_observed,
    ExpOptions, DEFAULT_REPS,
};
use sqda_core::AlgorithmKind;
use sqda_obs::json::parse;
use sqda_obs::MetricSummary;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "fig08_nodes_vs_k",
    "fig09_nodes_10d",
    "fig10_resp_vs_lambda",
    "fig11_resp_vs_disks",
    "fig12_resp_vs_k",
    "table3_scaleup_population",
    "table4_scaleup_k",
    "table5_summary",
    "ablation_declustering",
    "ablation_crss_bound",
    "ablation_split_policy",
    "ablation_packing",
    "ext_future_work",
    "ext_tighter_threshold",
    "ext_sstree",
    "analysis_validation",
    "fault_sweep",
    "bench_hotpath",
    "bench_scale",
    "bench_explain",
];

struct Finished {
    name: &'static str,
    ok: bool,
    status: String,
    wall_s: f64,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
}

/// Merges the fragments of [`EXPERIMENTS`] and the headline run from
/// `<out>/bench/` into one deterministic `"name":{fragment}` JSON object
/// body, sorted by bench name. Other files there are ignored; fragments
/// that are missing or fail to parse are skipped with a warning rather
/// than corrupting the summary.
fn merge_fragments(out_dir: &Path) -> String {
    let dir = out_dir.join("bench");
    let mut names: Vec<&str> = EXPERIMENTS.iter().copied().chain(["headline"]).collect();
    names.sort_unstable();
    let mut body = String::from("{");
    let mut first = true;
    for name in names {
        let path = dir.join(format!("{name}.json"));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("  skipping unreadable fragment {}: {e}", path.display());
                continue;
            }
        };
        if let Err(e) = parse(text.trim()) {
            eprintln!("  skipping malformed fragment {}: {e}", path.display());
            continue;
        }
        if !first {
            body.push(',');
        }
        first = false;
        sqda_obs::json::write_str(&mut body, name);
        body.push(':');
        body.push_str(text.trim());
    }
    body.push('}');
    body
}

fn main() {
    // Strip this driver's own flags (fan-out control and the
    // observability sinks, which belong to the canonical run below);
    // everything else (--quick, --out <dir>, --reps <n>, --warmup <f>)
    // passes through to the children — the replication flags are
    // additionally parsed here because the canonical headline run
    // honours them too.
    let mut jobs = sqda_bench::default_jobs();
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut trace: Option<PathBuf> = None;
    let mut metrics: Option<PathBuf> = None;
    let mut reps = DEFAULT_REPS;
    let mut warmup = 0.0f64;
    let mut pass_through: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => {
                jobs = args
                    .next()
                    .expect("--jobs needs a count")
                    .parse()
                    .expect("--jobs needs a positive integer");
                assert!(jobs > 0, "--jobs needs a positive integer");
            }
            "--serial" => jobs = 1,
            "--trace" => {
                trace = Some(PathBuf::from(args.next().expect("--trace needs a file")));
            }
            "--metrics" => {
                metrics = Some(PathBuf::from(args.next().expect("--metrics needs a file")));
            }
            "--quick" => {
                quick = true;
                pass_through.push(a);
            }
            "--reps" => {
                let n = args.next().expect("--reps needs a count");
                reps = n.parse().expect("--reps needs a positive integer");
                assert!(reps > 0, "--reps needs a positive integer");
                pass_through.push(a);
                pass_through.push(n);
            }
            "--warmup" => {
                let f = args.next().expect("--warmup needs a fraction");
                warmup = f.parse().expect("--warmup needs a fraction in [0, 1)");
                assert!(
                    (0.0..1.0).contains(&warmup),
                    "--warmup needs a fraction in [0, 1)"
                );
                pass_through.push(a);
                pass_through.push(f);
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().expect("--out needs a directory"));
                pass_through.push(a);
                pass_through.push(out_dir.display().to_string());
            }
            _ => pass_through.push(a),
        }
    }
    // One level of parallelism: this driver fans processes out, so each
    // child runs its own sweeps serially.
    pass_through.push("--serial".to_string());

    let exe_dir = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();

    let total_start = Instant::now();
    let runs = parallel_map(EXPERIMENTS, jobs, |&exp| {
        let path = exe_dir.join(exp);
        let start = Instant::now();
        let output = Command::new(&path)
            .args(&pass_through)
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        Finished {
            name: exp,
            ok: output.status.success(),
            status: output.status.to_string(),
            wall_s: start.elapsed().as_secs_f64(),
            stdout: output.stdout,
            stderr: output.stderr,
        }
    });
    let total_wall_s = total_start.elapsed().as_secs_f64();

    let mut failed = Vec::new();
    for run in &runs {
        println!("\n########## {} ##########", run.name);
        std::io::stdout().write_all(&run.stdout).expect("stdout");
        std::io::stderr().write_all(&run.stderr).expect("stderr");
        if !run.ok {
            eprintln!("experiment {} FAILED: {}", run.name, run.status);
            failed.push(run.name);
        }
    }

    // Canonical headline run: small enough to be negligible next to the
    // experiments, stable enough to track response times across commits.
    // With --trace / --metrics its first configuration is recorded.
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let demo_opts = ExpOptions {
        quick: true,
        out_dir: out_dir.clone(),
        jobs: 1,
        trace,
        metrics,
        reps,
        warmup,
    };
    let dataset = sqda_datasets::gaussian(2000, 2, 4242);
    let tree = build_tree(&dataset, 10, 4243);
    let query_sets: Vec<_> = (0..reps)
        .map(|rep| dataset.sample_queries(20, rep_seed(4244, rep)))
        .collect();
    let mut headline_report = BinReport::new("headline", &demo_opts);
    headline_report
        .param("dataset", dataset.name.clone())
        .param("disks", 10)
        .param("k", 10)
        .param("lambda", 5)
        .param("queries", 20)
        .param("sim_seed", 4245)
        .master_seed(4244);
    let headline: Vec<String> = AlgorithmKind::ALL
        .iter()
        .map(|&kind| {
            // Replication 0 is the legacy canonical run (and the one the
            // trace/metrics sinks record); further reps feed the CI only.
            let start = Instant::now();
            let r = simulate_observed(&tree, &query_sets[0], 10, 5.0, kind, 4245, &demo_opts);
            let legacy = format!(
                "{{\"algorithm\":\"{}\",\"mean_response_s\":{:.6},\"p95_response_s\":{:.6},\
                 \"mean_nodes_per_query\":{:.2},\"mean_disk_utilization\":{:.4},\
                 \"sim_wall_s\":{:.4}}}",
                r.algorithm,
                r.mean_response_s,
                r.p95_response_s,
                r.mean_nodes_per_query,
                r.mean_disk_utilization,
                start.elapsed().as_secs_f64()
            );
            let mut responses = vec![mean_response(&r, &demo_opts)];
            for (rep, queries) in query_sets.iter().enumerate().take(reps).skip(1) {
                let rr = simulate_observed(
                    &tree,
                    queries,
                    10,
                    5.0,
                    kind,
                    rep_seed(4245, rep),
                    &demo_opts,
                );
                responses.push(mean_response(&rr, &demo_opts));
            }
            headline_report.metric(
                "mean_response_s",
                &[("algorithm", kind.name().to_string())],
                MetricSummary::from_samples(&responses),
            );
            legacy
        })
        .collect();
    headline_report.finish(&demo_opts);

    let experiments_json: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"ok\":{},\"wall_s\":{:.3}}}",
                r.name, r.ok, r.wall_s
            )
        })
        .collect();
    let summary = format!(
        "{{\"schema\":2,\"quick\":{quick},\"jobs\":{jobs},\"total_wall_s\":{total_wall_s:.3},\
         \"reps\":{reps},\"warmup_fraction\":{warmup},\
         \"rng_fingerprint\":\"{}\",\
         \"experiments\":[{}],\"headline\":[{}],\"benches\":{}}}\n",
        sqda_bench::report::rng_fingerprint(),
        experiments_json.join(","),
        headline.join(","),
        merge_fragments(&out_dir)
    );
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let summary_path = out_dir.join("BENCH_summary.json");
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
        // A deleted bin's leftover and a foreign file stay out.
        let names: Vec<&String> = benches.keys().collect();
        assert_eq!(names, ["fig08_nodes_vs_k", "headline"]);
        let _ = std::fs::remove_dir_all(&out);
    }
}
