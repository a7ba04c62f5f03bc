//! Figure 11: response time normalized to WOPTSS vs. number of disks
//! (5–30), Gaussian 50,000 points, 5-d, λ = 5 queries/s, k = 10 and
//! k = 100.
//!
//! Paper shape: CRSS's speed-up with added disks is far better than
//! BBSS's — CRSS lands 2–4× faster than BBSS and about 2× the WOPTSS
//! floor. (FPSS is dropped from this figure in the paper due to its load
//! sensitivity; we keep it in the CSV for completeness.)

use sqda_bench::sweep::{Columns, ExpOptions, Measure, Panel, Row, Setup, Sweep};
use sqda_datasets::gaussian;
use std::iter::zip;

const QUICK_DISKS: &[u32] = &[5, 15, 30];
const FULL_DISKS: &[u32] = &[5, 10, 15, 20, 25, 30];

fn main() {
    let opts = ExpOptions::from_args();
    let disk_counts = if opts.quick { QUICK_DISKS } else { FULL_DISKS };
    let d = gaussian(opts.population(50_000), 5, 1101);
    let setups: Vec<_> = disk_counts
        .iter()
        .map(|&disks| Setup::build(&d, disks, 1110 + disks as u64, 1111, &opts))
        .collect();
    let (name, n) = (&d.name, d.len());
    let panels = [10usize, 100].map(|k| Panel {
        title: format!(
            "Figure 11 — response time normalized to WOPTSS vs #disks (set: {name}, n={n}, 5-d, k={k}, λ=5)"
        ),
        csv: format!("fig11_k{k}"),
        rows: zip(&setups, disk_counts)
            .map(|(s, disks)| Row::new(s, k, 5.0, &[disks, &k]))
            .collect(),
    });
    Sweep {
        bench: "fig11_resp_vs_disks",
        master_seed: 1111,
        params: &[("dataset", name), ("lambda", &5)],
        measure: Measure::Response { sim_seed: 1112 },
        columns: Columns::OverWoptss,
        labels: &["disks", "k"],
        keys: &["disks"],
        panels: panels.into(),
    }
    .run(&opts);
}
