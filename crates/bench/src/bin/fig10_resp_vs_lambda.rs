//! Figure 10: mean response time (s) vs. query arrival rate λ.
//!
//! Left graph: Long Beach stand-in, 5 disks, k = 10, λ = 1..10.
//! Right graph: California stand-in, 10 disks, k = 100, λ = 1..20.
//!
//! Paper shape: FPSS is the most load-sensitive (no control over fetched
//! pages); for small loads and many disks it can be marginally better
//! than CRSS, but degrades fastest as λ grows; WOPTSS is the floor.

use sqda_bench::sweep::{AlgorithmKind, Columns, ExpOptions, Measure, Panel, Row, Setup, Sweep};
use sqda_datasets::{california_like, long_beach_like, CP_CARDINALITY, LB_CARDINALITY};
use std::iter::zip;

/// Disks and k of the left (Long Beach) and right (California) graphs.
const GRAPHS: [(u32, usize); 2] = [(5, 10), (10, 100)];
/// Their λ values.
const QUICK: [&[f64]; 2] = [&[1.0, 5.0, 10.0], &[1.0, 10.0, 20.0]];
const FULL: [&[f64]; 2] = [
    &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
    &[1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0],
];

fn main() {
    let opts = ExpOptions::from_args();
    let lambdas = if opts.quick { QUICK } else { FULL };
    let datasets = [
        long_beach_like(opts.population(LB_CARDINALITY), 1001),
        california_like(opts.population(CP_CARDINALITY), 1002),
    ];
    let panels = zip(datasets, zip(GRAPHS, lambdas)).map(|(d, ((disks, k), lambdas))| {
        let setup = Setup::build(&d, disks, 1010, 1011, &opts);
        let (name, n) = (&d.name, d.len());
        let row = |l: &f64| Row::new(&setup, k, *l, &[name, &disks, &k, l]);
        Panel {
            title: format!(
                "Figure 10 — response time (s) vs λ (set: {name}, n={n}, disks: {disks}, k={k})"
            ),
            csv: format!("fig10_{name}_{disks}disks"),
            rows: lambdas.iter().map(row).collect(),
        }
    });
    Sweep {
        bench: "fig10_resp_vs_lambda",
        master_seed: 1011,
        params: &[],
        measure: Measure::Response { sim_seed: 1012 },
        columns: Columns::Means(AlgorithmKind::ALL),
        labels: &["dataset", "disks", "k", "lambda"],
        keys: &["lambda"],
        panels: panels.collect(),
    }
    .run(&opts);
}
