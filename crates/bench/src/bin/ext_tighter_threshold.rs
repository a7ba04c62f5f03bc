//! Extension — MINMAXDIST threshold tightening for CRSS.
//!
//! Beyond the paper: besides Lemma 1 (the count-weighted `D_max` prefix),
//! the k-th smallest MINMAXDIST over a wavefront's MBRs also provably
//! upper-bounds `D_k` (each sibling MBR guarantees one distinct object
//! within its `D_mm`). Taking the minimum of the two bounds shrinks the
//! initial query sphere; this experiment measures how many node accesses
//! and how much response time that saves across dimensionalities.

use sqda_bench::{
    build_tree, f2, f4, rep_query_sets, rep_seed,
    report::{BinReport, Direction},
    ExpOptions, ResultsTable,
};
use sqda_core::{exec::run_query, Crss, RunOptions, Simulation, Workload};
use sqda_datasets::{gaussian, uniform};
use sqda_obs::MetricSummary;
use sqda_simkernel::SystemParams;
use sqda_storage::PageStore;

fn main() {
    let opts = ExpOptions::from_args();
    let lambda = 5.0;
    let datasets = [
        uniform(opts.population(50_000), 2, 2101),
        gaussian(opts.population(50_000), 5, 2102),
        gaussian(opts.population(50_000), 10, 2103),
    ];
    let mut report = BinReport::new("ext_tighter_threshold", &opts);
    report
        .param("disks", 10)
        .param("lambda", lambda)
        .param("queries", opts.queries())
        .param("sim_seed", 2113)
        .master_seed(2111);
    let mut table = ResultsTable::new(
        format!("Extension — CRSS with MINMAXDIST threshold (λ={lambda}, 10 disks)"),
        &[
            "dataset",
            "k",
            "stock nodes",
            "tight nodes",
            "saved",
            "stock resp (s)",
            "tight resp (s)",
        ],
    );
    for dataset in datasets {
        let tree = build_tree(&dataset, 10, 2110);
        let query_sets = rep_query_sets(&dataset, &opts, 2111);
        for k in [1usize, 2, 5, 20] {
            let mut stock_nodes = Vec::with_capacity(opts.reps);
            let mut tight_nodes = Vec::with_capacity(opts.reps);
            let mut saved_pct = Vec::with_capacity(opts.reps);
            let mut stock_resp = Vec::with_capacity(opts.reps);
            let mut tight_resp = Vec::with_capacity(opts.reps);
            for (rep, queries) in query_sets.iter().enumerate().take(opts.reps) {
                let mut stock_sum = 0u64;
                let mut tight_sum = 0u64;
                for q in queries {
                    let mut stock = Crss::new(&tree, q.clone(), k);
                    let mut tight = Crss::new(&tree, q.clone(), k).with_minmax_threshold();
                    stock_sum += run_query(&tree, &mut stock).expect("query").nodes_visited;
                    tight_sum += run_query(&tree, &mut tight).expect("query").nodes_visited;
                }
                let n = queries.len() as f64;
                stock_nodes.push(stock_sum as f64 / n);
                tight_nodes.push(tight_sum as f64 / n);
                saved_pct.push((1.0 - tight_sum as f64 / stock_sum as f64) * 100.0);
                let params = SystemParams::with_disks(tree.store().num_disks());
                let sim = Simulation::new(&tree, params).expect("simulation");
                let w = Workload::poisson(queries.clone(), k, lambda, rep_seed(2112, rep));
                let sim_seed = rep_seed(2113, rep);
                stock_resp.push(
                    sim.run_with(
                        &w,
                        sim_seed,
                        RunOptions::factory("CRSS", &mut |_, p, kk| {
                            Box::new(Crss::new(&tree, p, kk))
                        }),
                    )
                    .expect("simulation")
                    .mean_response_s,
                );
                tight_resp.push(
                    sim.run_with(
                        &w,
                        sim_seed,
                        RunOptions::factory("CRSS+mm", &mut |_, p, kk| {
                            Box::new(Crss::new(&tree, p, kk).with_minmax_threshold())
                        }),
                    )
                    .expect("simulation")
                    .mean_response_s,
                );
            }
            let stock_nodes = MetricSummary::from_samples(&stock_nodes);
            let tight_nodes = MetricSummary::from_samples(&tight_nodes);
            let saved = MetricSummary::from_samples(&saved_pct);
            let stock_resp = MetricSummary::from_samples(&stock_resp);
            let tight_resp = MetricSummary::from_samples(&tight_resp);
            let labels = |variant: &str| {
                [
                    ("dataset", dataset.name.clone()),
                    ("k", k.to_string()),
                    ("variant", variant.to_string()),
                ]
            };
            report.metric("mean_nodes", &labels("stock"), stock_nodes);
            report.metric("mean_nodes", &labels("tight"), tight_nodes);
            report.metric("mean_response_s", &labels("stock"), stock_resp);
            report.metric("mean_response_s", &labels("tight"), tight_resp);
            report.metric_dir(
                "nodes_saved_pct",
                &[("dataset", dataset.name.clone()), ("k", k.to_string())],
                saved,
                Direction::Higher,
            );
            table.row(vec![
                dataset.name.clone(),
                k.to_string(),
                f2(stock_nodes.mean),
                f2(tight_nodes.mean),
                format!("{:.1}%", saved.mean),
                f4(stock_resp.mean),
                f4(tight_resp.mean),
            ]);
        }
    }
    table.print();
    table.write_csv(&opts.out_dir, "ext_tighter_threshold");
    report.finish(&opts);
}
