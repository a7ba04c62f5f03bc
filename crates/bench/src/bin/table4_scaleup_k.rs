//! Table 4: scalability with respect to query size growth — response
//! time (s) as k and disks grow together.
//!
//! Gaussian, 5-d, population 80,000, λ = 5 queries/s.
//!
//! | k  | disks |
//! |---:|------:|
//! | 10 |     5 |
//! | 20 |    10 |
//! | 40 |    20 |
//! | 80 |    40 |
//!
//! Paper shape: CRSS is stable and ~4× faster than BBSS on average.

use sqda_bench::sweep::{AlgorithmKind, Columns, ExpOptions, Measure, Panel, Row, Setup, Sweep};
use sqda_datasets::gaussian;
use AlgorithmKind::{Bbss, Crss, Fpss, Woptss};

const STEPS: [(usize, u32); 4] = [(10, 5), (20, 10), (40, 20), (80, 40)];

fn main() {
    let opts = ExpOptions::from_args();
    let d = gaussian(opts.population(80_000), 5, 1401);
    let rows = STEPS.map(|(k, disks)| {
        let setup = Setup::build(&d, disks, 1410 + disks as u64, 1411, &opts);
        Row::new(&setup, k, 5.0, &[&k, &disks])
    });
    let n = d.len();
    Sweep {
        bench: "table4_scaleup_k",
        master_seed: 1411,
        params: &[("dataset", &d.name), ("population", &n), ("lambda", &5)],
        measure: Measure::Response { sim_seed: 1412 },
        columns: Columns::Means([Bbss, Crss, Woptss, Fpss]),
        labels: &["k", "disks"],
        keys: &["k", "disks"],
        panels: vec![Panel {
            title: format!("Table 4 — scale-up with query size (gaussian, 5-d, n={n}, λ=5)"),
            csv: "table4_scaleup_k".into(),
            rows: rows.into(),
        }],
    }
    .run(&opts);
}
