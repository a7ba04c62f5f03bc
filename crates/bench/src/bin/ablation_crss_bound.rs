//! Ablation 2: sensitivity of CRSS to the activation upper bound `u`.
//!
//! The paper fixes `u = NumOfDisks`, arguing it balances parallelism and
//! wasted fetches. This experiment sweeps `u` on a 10-disk array:
//! `u = 1` degenerates towards BBSS (serial), large `u` towards FPSS
//! (flooding); the sweet spot should sit near the disk count.

use sqda_bench::{
    build_tree, f2, f4, rep_query_sets, rep_seed,
    report::{BinReport, Direction},
    ExpOptions, ResultsTable,
};
use sqda_core::{exec::run_query, Crss, RunOptions, Simulation, Workload};
use sqda_datasets::gaussian;
use sqda_obs::MetricSummary;
use sqda_simkernel::SystemParams;

fn main() {
    let opts = ExpOptions::from_args();
    let dataset = gaussian(opts.population(50_000), 5, 1701);
    let tree = build_tree(&dataset, 10, 1710);
    let query_sets = rep_query_sets(&dataset, &opts, 1711);
    let k = 20;
    let lambda = 5.0;
    let mut report = BinReport::new("ablation_crss_bound", &opts);
    report
        .param("dataset", dataset.name.clone())
        .param("disks", 10)
        .param("k", k)
        .param("lambda", lambda)
        .param("queries", opts.queries())
        .param("sim_seed", 1713)
        .master_seed(1711);
    let mut table = ResultsTable::new(
        format!(
            "Ablation — CRSS activation bound u (set: {}, n={}, disks: 10, k={k}, λ={lambda})",
            dataset.name,
            dataset.len()
        ),
        &["u", "mean resp (s)", "nodes/query", "max batch"],
    );
    let params = SystemParams::with_disks(10);
    let sim = Simulation::new(&tree, params).expect("simulation");
    for u in [1usize, 2, 5, 10, 20, 40] {
        // Response time under the simulator.
        // The simulator builds its own algorithm instances via
        // AlgorithmKind, so for the u-sweep we run the logical executor
        // for node counts and a custom simulated run via a bespoke
        // workload of identical queries per u.
        let mut resp = Vec::with_capacity(opts.reps);
        let mut nodes_per_query = Vec::with_capacity(opts.reps);
        let mut max_batch = 0usize;
        for (rep, queries) in query_sets.iter().enumerate().take(opts.reps) {
            let mut nodes = 0u64;
            for q in queries {
                let mut algo = Crss::with_activation_bound(&tree, q.clone(), k, u);
                let run = run_query(&tree, &mut algo).expect("query");
                nodes += run.nodes_visited;
                if rep == 0 {
                    max_batch = max_batch.max(run.max_batch);
                }
            }
            nodes_per_query.push(nodes as f64 / queries.len() as f64);
            let sim_report = sim
                .run_with(
                    &Workload::poisson(queries.clone(), k, lambda, rep_seed(1712, rep)),
                    rep_seed(1713, rep),
                    RunOptions::factory("CRSS", &mut |_, point, kk| {
                        Box::new(Crss::with_activation_bound(&tree, point, kk, u))
                    }),
                )
                .expect("simulation");
            resp.push(sim_report.mean_response_s);
        }
        let resp_sum = MetricSummary::from_samples(&resp);
        let nodes_sum = MetricSummary::from_samples(&nodes_per_query);
        let labels = [("u", u.to_string())];
        report.metric("mean_response_s", &labels, resp_sum);
        report.metric("mean_nodes", &labels, nodes_sum);
        report.metric_dir(
            "max_batch_pages",
            &labels,
            MetricSummary::from_samples(&[max_batch as f64]),
            Direction::Info,
        );
        table.row(vec![
            u.to_string(),
            f4(resp_sum.mean),
            f2(nodes_sum.mean),
            max_batch.to_string(),
        ]);
    }
    table.print();
    table.write_csv(&opts.out_dir, "ablation_crss_bound");
    report.finish(&opts);
}
