//! Figure 9: visited nodes (normalized to WOPTSS) vs. query size for
//! synthetic 10-d data (Gaussian n=60,030 and Uniform n=60,000), 10
//! disks.
//!
//! Paper shape: in high dimensions MBR overlap grows, BBSS's D_min-guided
//! descent degrades with k, and CRSS stays closest to the WOPTSS floor
//! (ratios within a few percent).

use sqda_bench::sweep::{Columns, ExpOptions, Measure, Panel, Row, Setup, Sweep};
use sqda_datasets::{gaussian, uniform};

const QUICK_KS: &[usize] = &[1, 200, 700];
const FULL_KS: &[usize] = &[1, 50, 100, 200, 300, 400, 500, 600, 700];

fn main() {
    let opts = ExpOptions::from_args();
    let ks = if opts.quick { QUICK_KS } else { FULL_KS };
    let datasets = [
        gaussian(opts.population(60_030), 10, 901),
        uniform(opts.population(60_000), 10, 902),
    ];
    let panels = datasets.map(|d| {
        let setup = Setup::build(&d, 10, 910, 911, &opts);
        let (name, n) = (&d.name, d.len());
        Panel {
            title: format!(
                "Figure 9 — visited nodes normalized to WOPTSS (set: {name}, n={n}, 10-d, disks: 10)"
            ),
            csv: format!("fig09_{name}"),
            rows: Vec::from_iter(ks.iter().map(|k| Row::new(&setup, *k, 0.0, &[name, k]))),
        }
    });
    Sweep {
        bench: "fig09_nodes_10d",
        master_seed: 911,
        params: &[("disks", &10), ("dim", &10)],
        measure: Measure::Nodes,
        columns: Columns::OverWoptss,
        labels: &["dataset", "k"],
        keys: &["k"],
        panels: panels.into(),
    }
    .run(&opts);
}
