//! Table 3: scalability with respect to population growth — response
//! time (s) as population and disks grow together.
//!
//! Gaussian, 5-d, k = 20, λ = 5 queries/s.
//!
//! | population | disks |
//! |-----------:|------:|
//! |     10,000 |     5 |
//! |     20,000 |    10 |
//! |     40,000 |    20 |
//! |     80,000 |    40 |
//!
//! Paper shape: CRSS stays flat (good scale-up) and is ~4× faster than
//! BBSS on average; BBSS *degrades* as the system grows because it cannot
//! use the added disks within a query.

use sqda_bench::sweep::{AlgorithmKind, Columns, ExpOptions, Measure, Panel, Row, Setup, Sweep};
use sqda_datasets::gaussian;
use AlgorithmKind::{Bbss, Crss, Fpss, Woptss};

const STEPS: [(usize, u32); 4] = [(10_000, 5), (20_000, 10), (40_000, 20), (80_000, 40)];

fn main() {
    let opts = ExpOptions::from_args();
    let rows = STEPS.map(|(pop, disks)| {
        let d = gaussian(opts.population(pop), 5, 1301 + pop as u64);
        let setup = Setup::build(&d, disks, 1310 + disks as u64, 1311, &opts);
        Row::new(&setup, 20, 5.0, &[&d.len(), &disks])
    });
    Sweep {
        bench: "table3_scaleup_population",
        master_seed: 1311,
        params: &[("k", &20), ("lambda", &5)],
        measure: Measure::Response { sim_seed: 1312 },
        columns: Columns::Means([Bbss, Crss, Woptss, Fpss]),
        labels: &["population", "disks"],
        keys: &["population", "disks"],
        panels: vec![Panel {
            title: "Table 3 — scale-up with population (gaussian, 5-d, k=20, λ=5)".into(),
            csv: "table3_scaleup_population".into(),
            rows: rows.into(),
        }],
    }
    .run(&opts);
}
