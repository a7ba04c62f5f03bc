//! The one driver behind the paper's Figures 8–12 and Tables 3–4.
//!
//! Those seven experiments share one shape: the algorithms as columns,
//! one swept parameter (k, λ, disks or population) as rows, and one
//! number per cell — mean visited nodes or mean simulated response time.
//! Each bin states only its data: [`Setup`]s (tree + query sets) and
//! [`Panel`]s of [`Row`]s inside one [`Sweep`]. [`Sweep::run`] owns the
//! replicated grid, the measurement, one summary metric per cell, the
//! cell format, the printed + CSV tables and the report.

use crate::report::BinReport;
// Re-exported so a sweep bin names everything it needs in one import.
pub use crate::ExpOptions;
use crate::{build_tree, f2, f4, mean_nodes_with, mean_response, rep_query_sets, rep_seed};
use crate::{simulate_observed, sweep_replicated_with, RepSummary, ResultsTable};
pub use sqda_core::AlgorithmKind;
use sqda_core::QueryScratch;
use sqda_datasets::Dataset;
use sqda_geom::Point;
use sqda_rstar::RStarTree;
use sqda_storage::ArrayStore;
use std::{fmt::Display, iter::zip, sync::Arc};

/// A cell formatter.
type Fmt = fn(f64) -> String;

/// What one cell measures.
pub enum Measure {
    /// Mean visited nodes per query (logical executor): metric
    /// `mean_nodes`, cells with two decimals, WOPTSS ratios with four.
    Nodes,
    /// Mean simulated response time (s) under Poisson arrivals: metric
    /// `mean_response_s`, cells with four decimals, WOPTSS ratios with
    /// two. Replication `r` simulates with `rep_seed(sim_seed, r)`.
    Response { sim_seed: u64 },
}

/// The algorithm columns of every row.
pub enum Columns {
    /// One plain mean per algorithm, left to right.
    Means([AlgorithmKind; 4]),
    /// [`AlgorithmKind::ALL`]: BBSS, FPSS and CRSS as ratios to WOPTSS,
    /// then WOPTSS's own mean.
    OverWoptss,
}

/// One declustered tree and its replicated query sets, built once and
/// shared by every row that names it.
pub struct Setup {
    tree: RStarTree<ArrayStore>,
    queries: Vec<Vec<Point>>,
}

impl Setup {
    /// Builds `d`'s tree over `disks` disks from `seed` and samples one
    /// query set per replication from `qseed` ([`rep_query_sets`]).
    pub fn build(d: &Dataset, disks: u32, seed: u64, qseed: u64, opts: &ExpOptions) -> Arc<Self> {
        let tree = build_tree(d, disks, seed);
        let queries = rep_query_sets(d, opts, qseed);
        Arc::new(Self { tree, queries })
    }
}

/// One table row: its setup, `k`, the arrival rate λ in queries/s
/// (unused by [`Measure::Nodes`]) and the values of the sweep's `labels`.
pub struct Row(Arc<Setup>, usize, f64, Vec<String>);

impl Row {
    /// A row of `k`-NN queries arriving at `lambda` on `setup`.
    pub fn new(setup: &Arc<Setup>, k: usize, lambda: f64, labels: &[&dyn Display]) -> Self {
        let labels = labels.iter().map(|v| v.to_string()).collect();
        Self(Arc::clone(setup), k, lambda, labels)
    }
}

/// One printed table and CSV file.
pub struct Panel {
    /// Printed title.
    pub title: String,
    /// CSV file stem under `--out`.
    pub csv: String,
    /// Rows, top to bottom.
    pub rows: Vec<Row>,
}

/// One experiment bin: every panel's rows × `columns`.
pub struct Sweep<'a> {
    /// Bin name, of the report and its summary fragment.
    pub bench: &'static str,
    /// Master seed the replication seeds derive from.
    pub master_seed: u64,
    /// Bin-specific manifest parameters; `queries` (and `sim_seed` when
    /// simulating) follow them.
    pub params: &'a [(&'static str, &'a dyn Display)],
    /// What every cell measures.
    pub measure: Measure,
    /// Algorithm columns and their format.
    pub columns: Columns,
    /// Names of every row's labels, in metric-label order; each cell's
    /// metric adds its column's `algorithm`.
    pub labels: &'static [&'static str],
    /// The labels whose values lead each CSV row, and their header cells.
    pub keys: &'static [&'static str],
    /// Tables, in output order.
    pub panels: Vec<Panel>,
}

impl Sweep<'_> {
    /// Measures every (row, column) point over `--reps` replications —
    /// all panels in one replicated grid, fanned over `--jobs` workers —
    /// records one metric per cell in row-major order, prints and writes
    /// each panel, then writes the report.
    pub fn run(self, opts: &ExpOptions) {
        let kinds = match self.columns {
            Columns::Means(kinds) => kinds,
            Columns::OverWoptss => AlgorithmKind::ALL,
        };
        let rows: Vec<&Row> = self.panels.iter().flat_map(|p| &p.rows).collect();
        let grid: Vec<_> = rows.iter().flat_map(|&r| kinds.map(|c| (r, c))).collect();
        // One query scratch per worker: heaps and batch buffers are
        // allocated once per thread, not once per point and query.
        let sums = sweep_replicated_with(&grid, opts, QueryScratch::new, |s, &(row, kind), rep| {
            let Row(setup, k, lambda, _) = row;
            let (tree, queries) = (&setup.tree, &setup.queries[rep]);
            match self.measure {
                Measure::Nodes => mean_nodes_with(tree, queries, *k, kind, s),
                Measure::Response { sim_seed } => {
                    let seed = rep_seed(sim_seed, rep);
                    let r = simulate_observed(tree, queries, *k, *lambda, kind, seed, opts);
                    mean_response(&r, opts)
                }
            }
        });
        let mut report = BinReport::new(self.bench, opts);
        for (key, value) in self.params {
            report.param(key, value);
        }
        report.param("queries", opts.queries());
        let (metric, abs, value, ratio): (_, _, Fmt, Fmt) = match self.measure {
            Measure::Nodes => ("mean_nodes", "WOPTSS(abs)", f2, f4),
            Measure::Response { sim_seed } => {
                report.param("sim_seed", sim_seed);
                ("mean_response_s", "WOPTSS(s)", f4, f2)
            }
        };
        report.master_seed(self.master_seed);
        let at = |key: &&str| self.labels.iter().position(|l| l == key);
        let key_at: Option<Vec<usize>> = self.keys.iter().map(at).collect();
        let key_at = key_at.expect("every key names a label");
        let mut header: Vec<String> = self.keys.iter().map(|k| k.to_string()).collect();
        match self.columns {
            Columns::Means(_) => header.extend(kinds.map(|c| c.name().to_string())),
            Columns::OverWoptss => {
                header.extend(kinds[..3].iter().map(|c| format!("{}/WOPTSS", c.name())));
                header.push(abs.to_string());
            }
        }
        let mut cells = sums.chunks(kinds.len());
        for panel in &self.panels {
            let mut table = ResultsTable::new(panel.title.clone(), &header);
            for Row(.., values) in &panel.rows {
                let sums = cells.next().expect("one cell per grid point");
                let named: Vec<_> = zip(self.labels.iter().copied(), values.clone()).collect();
                for (kind, sum) in zip(kinds, sums) {
                    let algorithm = ("algorithm", kind.name().to_string());
                    let labels: Vec<_> = named.iter().cloned().chain([algorithm]).collect();
                    report.metric(metric, &labels, sum.summary);
                }
                let means: Vec<f64> = sums.iter().map(RepSummary::mean).collect();
                let mut line: Vec<String> = key_at.iter().map(|&i| values[i].clone()).collect();
                match self.columns {
                    Columns::Means(_) => line.extend(means.iter().map(|&m| value(m))),
                    Columns::OverWoptss => {
                        line.extend(means[..3].iter().map(|m| ratio(m / means[3])));
                        line.push(value(means[3]));
                    }
                }
                table.row(line);
            }
            table.print();
            table.write_csv(&opts.out_dir, &panel.csv);
        }
        report.finish(opts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqda_obs::json::{parse, Value};
    use std::path::{Path, PathBuf};
    use AlgorithmKind::{Bbss, Crss, Fpss, Woptss};

    fn read_csv(out: &Path, name: &str) -> Vec<Vec<String>> {
        let text = std::fs::read_to_string(out.join(format!("{name}.csv"))).expect("csv");
        text.lines()
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect()
    }

    /// The fragment's metrics as (labels JSON, mean), in file order.
    fn read_metrics(out: &Path, bench: &str) -> Vec<(String, f64)> {
        let path = out.join("bench").join(format!("{bench}.json"));
        let text = std::fs::read_to_string(path).expect("fragment");
        let v = parse(text.trim()).expect("fragment parses");
        let metrics = v.get("metrics").and_then(Value::as_arr).expect("metrics");
        // Labels keep their order in the raw text, which the parsed map
        // would not; cut each metric's `"labels":{...}` out of it.
        let raw: Vec<&str> = text.split("\"labels\":").skip(1).collect();
        assert_eq!(raw.len(), metrics.len());
        zip(raw, metrics)
            .map(|(r, m)| {
                let labels = &r[..=r.find('}').expect("labels close")];
                let mean = m.get("mean").and_then(Value::as_f64).expect("mean");
                (labels.to_string(), mean)
            })
            .collect()
    }

    #[test]
    fn sweep_writes_grid_cells_and_labels_in_row_major_order() {
        let out: PathBuf = std::env::temp_dir().join(format!("sqda_sweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let opts = ExpOptions {
            quick: true,
            out_dir: out.clone(),
            jobs: 2,
            trace: None,
            metrics: None,
            reps: 2,
            warmup: 0.0,
        };
        let d = sqda_datasets::uniform(300, 2, 7);
        let setup = Setup::build(&d, 2, 8, 9, &opts);
        let name = &d.name;
        let kinds = [Bbss, Crss, Woptss, Fpss];

        // Nodes, plain means, a custom column order.
        Sweep {
            bench: "unit_sweep_nodes",
            master_seed: 9,
            params: &[("disks", &2)],
            measure: Measure::Nodes,
            columns: Columns::Means(kinds),
            labels: &["dataset", "k"],
            keys: &["k"],
            panels: vec![Panel {
                title: "nodes".into(),
                csv: "unit_nodes".into(),
                rows: Vec::from_iter(
                    [1usize, 5]
                        .iter()
                        .map(|k| Row::new(&setup, *k, 0.0, &[name, k])),
                ),
            }],
        }
        .run(&opts);
        let csv = read_csv(&out, "unit_nodes");
        assert_eq!(csv[0], ["k", "BBSS", "CRSS", "WOPTSS", "FPSS"]);
        assert_eq!(csv.len(), 3);
        let metrics = read_metrics(&out, "unit_sweep_nodes");
        assert_eq!(metrics.len(), 2 * 4, "rows × columns");
        for (i, (labels, mean)) in metrics.iter().enumerate() {
            let (row, kind) = (i / 4, kinds[i % 4]);
            let k = ["1", "5"][row];
            let expect = format!(
                "{{\"dataset\":\"{name}\",\"k\":\"{k}\",\"algorithm\":\"{}\"}}",
                kind.name()
            );
            assert_eq!(labels, &expect);
            assert_eq!(csv[row + 1].len(), 5, "row arity");
            assert_eq!(csv[row + 1][0], k);
            assert_eq!(csv[row + 1][1 + i % 4], f2(*mean));
        }

        // Simulated responses, normalised to WOPTSS, two panels.
        let panel = |lambda: f64| Panel {
            title: format!("response at {lambda}"),
            csv: format!("unit_resp_{lambda}"),
            rows: Vec::from_iter(
                [2usize, 4]
                    .iter()
                    .map(|k| Row::new(&setup, *k, lambda, &[&lambda, k])),
            ),
        };
        Sweep {
            bench: "unit_sweep_resp",
            master_seed: 9,
            params: &[],
            measure: Measure::Response { sim_seed: 10 },
            columns: Columns::OverWoptss,
            labels: &["lambda", "k"],
            keys: &["k"],
            panels: vec![panel(1.0), panel(20.0)],
        }
        .run(&opts);
        let metrics = read_metrics(&out, "unit_sweep_resp");
        assert_eq!(metrics.len(), 2 * 2 * 4, "panels × rows × columns");
        for (p, lambda) in ["1", "20"].iter().enumerate() {
            let csv = read_csv(&out, &format!("unit_resp_{lambda}"));
            let header = [
                "k",
                "BBSS/WOPTSS",
                "FPSS/WOPTSS",
                "CRSS/WOPTSS",
                "WOPTSS(s)",
            ];
            assert_eq!(csv[0], header);
            assert_eq!(csv.len(), 3);
            for (r, k) in ["2", "4"].iter().enumerate() {
                let cells = &metrics[(p * 2 + r) * 4..][..4];
                for (c, kind) in AlgorithmKind::ALL.iter().enumerate() {
                    let expect = format!(
                        "{{\"lambda\":\"{lambda}\",\"k\":\"{k}\",\"algorithm\":\"{}\"}}",
                        kind.name()
                    );
                    assert_eq!(cells[c].0, expect);
                }
                let line = &csv[r + 1];
                assert_eq!(line.len(), 5, "row arity");
                assert_eq!(line[0], *k);
                let wopt = cells[3].1;
                assert!(wopt > 0.0);
                for c in 0..3 {
                    assert_eq!(line[1 + c], f2(cells[c].1 / wopt), "ratio to WOPTSS");
                }
                assert_eq!(line[4], f4(wopt), "WOPTSS absolute");
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
