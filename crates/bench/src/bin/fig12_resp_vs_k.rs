//! Figure 12: response time normalized to WOPTSS vs. number of nearest
//! neighbours (1–100), Uniform 80,000 points, 5-d, 10 disks, at λ = 1
//! (left) and λ = 20 (right) queries/s.
//!
//! Paper shape: CRSS is the best real algorithm across the whole k range,
//! outperforming BBSS by 3–4×.

use sqda_bench::sweep::{Columns, ExpOptions, Measure, Panel, Row, Setup, Sweep};
use sqda_datasets::uniform;

const QUICK_KS: &[usize] = &[1, 40, 100];
const FULL_KS: &[usize] = &[1, 10, 20, 40, 60, 80, 100];

fn main() {
    let opts = ExpOptions::from_args();
    let ks = if opts.quick { QUICK_KS } else { FULL_KS };
    let d = uniform(opts.population(80_000), 5, 1201);
    let setup = Setup::build(&d, 10, 1210, 1211, &opts);
    let (name, n) = (&d.name, d.len());
    let panels = [1.0f64, 20.0].map(|lambda| Panel {
        title: format!(
            "Figure 12 — response time normalized to WOPTSS vs k (set: {name}, n={n}, 5-d, disks: 10, λ={lambda})"
        ),
        csv: format!("fig12_lambda{lambda}"),
        rows: Vec::from_iter(ks.iter().map(|k| Row::new(&setup, *k, lambda, &[&lambda, k]))),
    });
    Sweep {
        bench: "fig12_resp_vs_k",
        master_seed: 1211,
        params: &[("dataset", name), ("disks", &10)],
        measure: Measure::Response { sim_seed: 1212 },
        columns: Columns::OverWoptss,
        labels: &["lambda", "k"],
        keys: &["k"],
        panels: panels.into(),
    }
    .run(&opts);
}
