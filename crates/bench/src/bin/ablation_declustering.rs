//! Ablation 1 (Section 2.2's claim): the Proximity-Index declustering
//! heuristic beats random, round-robin, data-balance and area-balance
//! placement for similarity queries on the parallel R\*-tree.
//!
//! We build the same tree under each heuristic and compare (a) CRSS
//! response time and (b) the read-imbalance across disks during query
//! processing.

use sqda_bench::{
    build_tree_with, f4, rep_query_sets, rep_seed,
    report::{BinReport, Direction},
    simulate, ExpOptions, ResultsTable,
};
use sqda_core::AlgorithmKind;
use sqda_datasets::california_like;
use sqda_obs::MetricSummary;
use sqda_rstar::decluster;
use sqda_storage::IoStats;

fn main() {
    let opts = ExpOptions::from_args();
    let dataset = california_like(opts.population(62_173), 1601);
    let query_sets = rep_query_sets(&dataset, &opts, 1611);
    let k = 20;
    let mut report = BinReport::new("ablation_declustering", &opts);
    report
        .param("dataset", dataset.name.clone())
        .param("disks", 10)
        .param("k", k)
        .param("lambda", 5)
        .param("queries", opts.queries())
        .param("sim_seed", 1612)
        .master_seed(1611);
    let mut table = ResultsTable::new(
        format!(
            "Ablation — declustering heuristics (set: {}, n={}, disks: 10, k={k}, λ=5)",
            dataset.name,
            dataset.len()
        ),
        &[
            "heuristic",
            "CRSS resp (s)",
            "FPSS resp (s)",
            "read imbalance (cv)",
        ],
    );
    for heuristic in decluster::all_heuristics(1620) {
        let name = heuristic.name();
        let tree = build_tree_with(&dataset, 10, 1610, heuristic);
        let mut crss_resp = Vec::with_capacity(opts.reps);
        let mut fpss_resp = Vec::with_capacity(opts.reps);
        // The cv accumulates over every replication's simulated reads: a
        // placement property of the tree, not a per-rep random variable.
        let mut reads = IoStats::default();
        let mut simulated = |kind, queries, seed| {
            let run = simulate(&tree, queries, k, 5.0, kind, seed);
            let io = run.io_stats();
            reads.reads += io.reads;
            reads.reads_per_disk.resize(io.reads_per_disk.len(), 0);
            for (total, r) in reads.reads_per_disk.iter_mut().zip(io.reads_per_disk) {
                *total += r;
            }
            run.mean_response_s
        };
        for (rep, queries) in query_sets.iter().enumerate().take(opts.reps) {
            let seed = rep_seed(1612, rep);
            crss_resp.push(simulated(AlgorithmKind::Crss, queries, seed));
            fpss_resp.push(simulated(AlgorithmKind::Fpss, queries, seed));
        }
        let imbalance = reads.read_imbalance();
        let crss = MetricSummary::from_samples(&crss_resp);
        let fpss = MetricSummary::from_samples(&fpss_resp);
        let labels = |algo: &str| {
            [
                ("heuristic", name.to_string()),
                ("algorithm", algo.to_string()),
            ]
        };
        report.metric("mean_response_s", &labels("CRSS"), crss);
        report.metric("mean_response_s", &labels("FPSS"), fpss);
        report.metric_dir(
            "read_imbalance_cv",
            &[("heuristic", name.to_string())],
            MetricSummary::from_samples(&[imbalance]),
            Direction::Info,
        );
        table.row(vec![
            name.to_string(),
            f4(crss.mean),
            f4(fpss.mean),
            format!("{imbalance:.3}"),
        ]);
    }
    table.print();
    table.write_csv(&opts.out_dir, "ablation_declustering");
    report.finish(&opts);
}
