//! Figure 8: number of visited nodes vs. query size (k = 1..700) on the
//! 2-d real-data stand-ins (California Places, Long Beach), 10 disks.
//!
//! Paper shape: BBSS visits fewest nodes for small k but deteriorates as
//! k grows; CRSS overtakes it past a crossover; FPSS visits the most;
//! WOPTSS is the floor.

use sqda_bench::sweep::{AlgorithmKind, Columns, ExpOptions, Measure, Panel, Row, Setup, Sweep};
use sqda_datasets::{california_like, long_beach_like, CP_CARDINALITY, LB_CARDINALITY};

const QUICK_KS: &[usize] = &[1, 100, 400, 700];
const FULL_KS: &[usize] = &[1, 50, 100, 200, 300, 400, 500, 600, 700];

fn main() {
    let opts = ExpOptions::from_args();
    let ks = if opts.quick { QUICK_KS } else { FULL_KS };
    let datasets = [
        california_like(opts.population(CP_CARDINALITY), 801),
        long_beach_like(opts.population(LB_CARDINALITY), 802),
    ];
    let panels = datasets.map(|d| {
        let setup = Setup::build(&d, 10, 810, 811, &opts);
        let (name, n) = (&d.name, d.len());
        Panel {
            title: format!("Figure 8 — visited nodes vs k (set: {name}, n={n}, disks: 10)"),
            csv: format!("fig08_{name}"),
            rows: Vec::from_iter(ks.iter().map(|k| Row::new(&setup, *k, 0.0, &[name, k]))),
        }
    });
    Sweep {
        bench: "fig08_nodes_vs_k",
        master_seed: 811,
        params: &[("disks", &10)],
        measure: Measure::Nodes,
        columns: Columns::Means(AlgorithmKind::ALL),
        labels: &["dataset", "k"],
        keys: &["k"],
        panels: panels.into(),
    }
    .run(&opts);
}
