//! The one driver behind every experiment.
//!
//! Every experiment is a grid: [`Row`]s × [`Col`]s, replicated and
//! tabulated. An experiment states only data — [`Setup`]s (an index and
//! its replicated query sets) and [`Panel`]s of rows and columns inside
//! one [`Sweep`] — and [`Sweep::run`] owns the rest: the replicated grid
//! of measured cells fanned over `--jobs` workers, the derived and
//! informational cells, one summary metric per cell in row-major order,
//! the cell formats, the printed + CSV tables, the report and the
//! `--trace` / `--metrics` sinks.
//!
//! A measured cell runs one [`Arm`] (a search algorithm) under one
//! [`Measure`] on the row's setup, `k`, arrival rate and [`Sys`]tem; its
//! column may override the setup, the arrival rate or the system. A [`Cell::Derived`] value is
//! computed at every replication from that replication's samples of the
//! row (a ratio, a saved %), a [`Cell::Info`] value once per row from
//! the row's info values and all of its samples (tree nodes, read
//! imbalance, largest batch).

use crate::report::BinReport;
use crate::{build_tree, mean_response, rep_query_sets, rep_seed, sweep_replicated};
// Re-exported so an experiment names everything it needs in one import.
pub use crate::{f2, f4, report::Direction, ExpOptions, ResultsTable};
pub use sqda_core::AlgorithmKind;
use sqda_core::{
    exec::run_query_with, AccessMethod, Crss, QueryScratch, RunOptions, SimilaritySearch,
    Simulation, SimulationReport, Workload,
};
use sqda_datasets::Dataset;
use sqda_geom::Point;
use sqda_obs::{write_observability, CollectingRecorder, MetricSummary};
use sqda_rstar::decluster::ProximityIndex;
pub use sqda_simkernel::{FaultPlan, SystemParams};
use std::{fmt::Display, iter::zip, sync::Arc, time::Instant};

/// A cell formatter.
pub type Fmt = fn(f64) -> String;

/// An index and its replicated query sets, built once and shared by
/// every row and column that names it.
pub struct Setup {
    /// The index.
    pub index: Box<dyn AccessMethod>,
    /// One query set per replication.
    pub queries: Vec<Vec<Point>>,
}

impl Setup {
    /// Any index over one query set per replication.
    pub fn new(index: impl AccessMethod + 'static, queries: Vec<Vec<Point>>) -> Arc<Self> {
        Arc::new(Self {
            index: Box::new(index),
            queries,
        })
    }

    /// `d`'s Proximity-Index R\*-tree over `disks` disks from `seed`,
    /// with one query set per replication sampled from `qseed`.
    pub fn build(d: &Dataset, disks: u32, seed: u64, qseed: u64, opts: &ExpOptions) -> Arc<Self> {
        let tree = build_tree(d, disks, seed, Box::new(ProximityIndex), |c| c);
        Self::new(tree, rep_query_sets(d, opts, qseed))
    }
}

/// How a CRSS variant is built from (index, query, k).
pub type BuildCrss = Arc<dyn Fn(&dyn AccessMethod, Point, usize) -> Crss + Send + Sync>;
/// A derived cell's value from one replication's samples of its row.
pub type DerivedFn = Box<dyn Fn(&[Sample]) -> f64 + Sync>;
/// An info cell's value from its row's info values and all its samples.
pub type InfoFn = Box<dyn Fn(&[f64], &[Vec<Sample>]) -> f64 + Sync>;

/// The search algorithm a measured cell runs.
#[derive(Clone)]
pub enum Arm {
    /// One of the four algorithms.
    Kind(AlgorithmKind),
    /// A CRSS variant, reported under its name, built by its fn from
    /// (index, query, k).
    Crss(&'static str, BuildCrss),
    /// Whatever the row names (a row of one algorithm, or of one variant).
    Row,
}

impl Arm {
    /// A named CRSS variant.
    pub fn crss(
        name: &'static str,
        build: impl Fn(&dyn AccessMethod, Point, usize) -> Crss + Send + Sync + 'static,
    ) -> Self {
        Arm::Crss(name, Arc::new(build))
    }
}

impl From<AlgorithmKind> for Arm {
    fn from(kind: AlgorithmKind) -> Self {
        Arm::Kind(kind)
    }
}

/// The system a simulated cell runs on. Its disk count is always the
/// index's; the empty fault plan is the fault-free run.
#[derive(Clone, Default)]
pub struct Sys {
    /// CPUs, MIPS, mirrored reads, … (`num_disks` is ignored).
    pub params: SystemParams,
    /// Faults injected into the array.
    pub faults: FaultPlan,
}

/// Seeds of a simulated cell's replication `r`.
#[derive(Clone, Copy)]
pub enum Seeds {
    /// Arrivals from `rep_seed(s, r)`, the disks from that `^ 0x5eed`.
    One(u64),
    /// Arrivals from `rep_seed(a, r)`, the disks from `rep_seed(d, r)`.
    Two(u64, u64),
}

/// What a measured cell measures at each replication.
#[derive(Clone, Copy)]
pub enum Measure {
    /// Mean visited nodes per query (logical executor).
    Nodes,
    /// Mean simulated response time (s) under Poisson arrivals, under
    /// the `--warmup` policy.
    Response(Seeds),
}

/// One replication of one cell.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// The cell's value: mean nodes, mean response or a derived value.
    pub value: f64,
    /// [`Measure::Nodes`]: total visited nodes and the largest batch.
    pub nodes: u64,
    /// See `nodes`.
    pub max_batch: usize,
    /// [`Measure::Response`]: the simulation's report and wall time.
    pub sim: Option<SimulationReport>,
    /// See `sim`.
    pub wall_s: f64,
}

impl Sample {
    /// The report of a simulated cell.
    pub fn sim(&self) -> &SimulationReport {
        self.sim.as_ref().expect("a simulated cell")
    }
}

/// Mean over replications of column `c` of a row's samples (indexed
/// `[rep][col]`), as its metric summarizes it.
pub fn mean(samples: &[Vec<Sample>], c: usize) -> f64 {
    let values: Vec<f64> = samples.iter().map(|s| s[c].value).collect();
    MetricSummary::from_samples(&values).mean
}

/// Where a column's values come from.
pub enum Cell {
    /// `arm` measured by the measure at every replication.
    Run(Arm, Measure),
    /// Computed at every replication from that replication's samples of
    /// the row, once its measured cells are in.
    Derived(DerivedFn),
    /// Computed once per row from its info values and all its samples
    /// (`[rep][col]`), once its derived cells are in. Not replicated; a
    /// NaN (no value) records no metric and shows as `—`.
    Info(InfoFn),
}

/// One column: a cell source, its table cell and its metric, and what a
/// measured column overrides of its rows.
pub struct Col {
    head: String,
    fmt: Fmt,
    metric: &'static str,
    dir: Direction,
    label: Option<(&'static str, String)>,
    cell: Cell,
    setup: Option<Arc<Setup>>,
    lambda: Option<f64>,
    sys: Option<Sys>,
}

impl Col {
    fn new(metric: &'static str, cell: Cell) -> Self {
        let (head, fmt, dir, label) = (String::new(), f2 as Fmt, Direction::Lower, None);
        let (setup, lambda, sys) = (None, None, None);
        Self {
            head,
            fmt,
            metric,
            dir,
            label,
            cell,
            setup,
            lambda,
            sys,
        }
    }

    /// `arm` measured by `measure`: metric `mean_nodes` or
    /// `mean_response_s`.
    pub fn run(arm: impl Into<Arm>, measure: Measure) -> Self {
        let metric = match measure {
            Measure::Nodes => "mean_nodes",
            Measure::Response(_) => "mean_response_s",
        };
        Self::new(metric, Cell::Run(arm.into(), measure))
    }

    /// A value derived at every replication; no metric until named.
    pub fn derived(f: impl Fn(&[Sample]) -> f64 + Sync + 'static) -> Self {
        Self::new("", Cell::Derived(Box::new(f)))
    }

    /// An unreplicated per-row value; no metric until named.
    pub fn info(f: impl Fn(&[f64], &[Vec<Sample>]) -> f64 + Sync + 'static) -> Self {
        Self::new("", Cell::Info(Box::new(f)))
    }

    /// Shows the column in the table under `head`, formatted by `fmt`.
    pub fn show(mut self, head: impl Display, fmt: Fmt) -> Self {
        (self.head, self.fmt) = (head.to_string(), fmt);
        self
    }

    /// Records the column as metric `name` (`""`: none).
    pub fn metric(mut self, name: &'static str, dir: Direction) -> Self {
        (self.metric, self.dir) = (name, dir);
        self
    }

    /// Adds `key=value` to the metric's row labels.
    pub fn label(mut self, key: &'static str, value: impl Display) -> Self {
        self.label = Some((key, value.to_string()));
        self
    }

    /// Runs on `setup` instead of the row's.
    pub fn on(mut self, setup: &Arc<Setup>) -> Self {
        self.setup = Some(Arc::clone(setup));
        self
    }

    /// Runs at arrival rate `lambda` instead of the row's.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = Some(lambda);
        self
    }

    /// Runs on `sys` instead of the row's.
    pub fn sys(mut self, sys: Sys) -> Self {
        self.sys = Some(sys);
        self
    }
}

/// An integer cell.
pub fn f0(x: f64) -> String {
    format!("{x:.0}")
}

/// A three-decimal cell.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// A percentage cell with one decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// One column per algorithm of `kinds`: its mean, shown under its name
/// (two decimals for nodes, four for seconds).
pub fn means(kinds: [AlgorithmKind; 4], measure: Measure) -> Vec<Col> {
    let fmt = match measure {
        Measure::Nodes => f2,
        Measure::Response(_) => f4,
    };
    let col = |a: AlgorithmKind| Col::run(a, measure).label("algorithm", a).show(a, fmt);
    kinds.map(col).into()
}

/// [`AlgorithmKind::ALL`]'s means as metrics, shown as BBSS, FPSS and
/// CRSS over WOPTSS (four decimals for nodes, two for seconds), then
/// WOPTSS's own mean.
pub fn over_woptss(measure: Measure) -> Vec<Col> {
    let mut cols = means(AlgorithmKind::ALL, measure);
    let (abs, ratio): (_, Fmt) = match measure {
        Measure::Nodes => ("WOPTSS(abs)", f4),
        Measure::Response(_) => ("WOPTSS(s)", f2),
    };
    let woptss = cols.pop().expect("four columns");
    let over = |c: usize| Col::info(move |_, s| mean(s, c) / mean(s, 6));
    for col in &mut cols {
        col.head.clear();
    }
    for (c, kind) in AlgorithmKind::REAL.iter().enumerate() {
        cols.push(over(c).show(format!("{kind}/WOPTSS"), ratio));
    }
    cols.push(Col {
        head: abs.into(),
        ..woptss
    });
    cols
}

/// One table row: its setup, `k`, the arrival rate λ in queries/s
/// (unused by [`Measure::Nodes`]), its system, the values of its
/// panel's `labels`, and optionally an arm and info values.
pub struct Row {
    setup: Arc<Setup>,
    k: usize,
    lambda: f64,
    sys: Sys,
    arm: Arm,
    labels: Vec<String>,
    info: Vec<f64>,
}

impl Row {
    /// A row of `k`-NN queries arriving at `lambda` on `setup`.
    pub fn new(setup: &Arc<Setup>, k: usize, lambda: f64, labels: &[&dyn Display]) -> Self {
        let labels = labels.iter().map(|v| v.to_string()).collect();
        let (sys, arm, info) = (Sys::default(), Arm::Row, Vec::new());
        Self {
            setup: Arc::clone(setup),
            k,
            lambda,
            sys,
            arm,
            labels,
            info,
        }
    }

    /// The arm of the row's [`Arm::Row`] columns.
    pub fn arm(mut self, arm: impl Into<Arm>) -> Self {
        self.arm = arm.into();
        self
    }

    /// Simulates the row on `sys`.
    pub fn sys(mut self, sys: Sys) -> Self {
        self.sys = sys;
        self
    }

    /// Values the row's [`Cell::Info`] columns read.
    pub fn info(mut self, info: Vec<f64>) -> Self {
        self.info = info;
        self
    }
}

/// One printed table and CSV file.
pub struct Panel {
    /// Printed title.
    pub title: String,
    /// CSV file stem under `--out`; empty: neither printed nor written.
    pub csv: String,
    /// Names of every row's labels, in metric-label order.
    pub labels: &'static [&'static str],
    /// The labels whose values lead each table row, and their headers.
    pub keys: &'static [&'static str],
    /// Columns, left to right: metrics are recorded in this order.
    pub cols: Vec<Col>,
    /// Rows, top to bottom.
    pub rows: Vec<Row>,
}

/// Every row's samples of one panel, indexed `[row][rep][col]`.
pub type Grid = Vec<Vec<Vec<Sample>>>;

/// One experiment: every panel's rows × columns.
pub struct Sweep {
    /// Experiment name, of the report and its summary fragment.
    pub bench: &'static str,
    /// Master seed the replication seeds derive from.
    pub master_seed: u64,
    /// Tables, in output order.
    pub panels: Vec<Panel>,
}

impl Panel {
    /// The sweep of this one panel.
    pub fn run(self, bench: &'static str, master_seed: u64, opts: &ExpOptions) -> Grid {
        let panels = vec![self];
        Sweep {
            bench,
            master_seed,
            panels,
        }
        .run(opts)
        .remove(0)
    }
}

impl Sweep {
    /// Measures every (row, measured column) point over `--reps`
    /// replications — all panels in one replicated grid, fanned over
    /// `--jobs` workers — then fills the derived and info cells, records
    /// one metric per cell in row-major order, prints and writes each
    /// panel, writes the report and returns every panel's [`Grid`]. The
    /// first simulated point in grid order feeds `--trace` / `--metrics`
    /// at its replication 0, at any `--jobs`. The manifest records every
    /// panel's title and the query count.
    pub fn run(self, opts: &ExpOptions) -> Vec<Grid> {
        let probes = |p: &Panel| -> Vec<usize> {
            let run = |(c, col): (usize, &Col)| matches!(col.cell, Cell::Run(..)).then_some(c);
            p.cols.iter().enumerate().filter_map(run).collect()
        };
        let mut points: Vec<(&Row, &Col, bool)> = Vec::new();
        for panel in &self.panels {
            for row in &panel.rows {
                points.extend(
                    probes(panel)
                        .into_iter()
                        .map(|c| (row, &panel.cols[c], false)),
                );
            }
        }
        let simulated = points
            .iter_mut()
            .find(|p| matches!(p.1.cell, Cell::Run(_, Measure::Response(_))));
        if let Some(first) = simulated.filter(|_| opts.trace.is_some() || opts.metrics.is_some()) {
            first.2 = true;
        }
        // Started before the grid runs, so the manifest's wall time is
        // the measurement's.
        let mut report = BinReport::new(self.bench, opts);
        // One query scratch per worker: heaps and batch buffers are
        // allocated once per thread, not once per point and query.
        let mut runs = sweep_replicated(
            &points,
            opts,
            QueryScratch::new,
            |s, &(row, col, traced), rep| measure(row, col, rep, s, opts, traced && rep == 0),
        )
        .into_iter();
        for (p, panel) in self.panels.iter().enumerate() {
            report.param(&format!("panel{p}"), &panel.title);
        }
        report
            .param("queries", opts.queries())
            .master_seed(self.master_seed);
        let mut grids = Vec::new();
        for panel in &self.panels {
            let at = |key: &&str| panel.labels.iter().position(|l| l == key);
            let key_at: Option<Vec<usize>> = panel.keys.iter().map(at).collect();
            let key_at = key_at.expect("every key names a label");
            let shown = || panel.cols.iter().filter(|c| !c.head.is_empty());
            let mut header: Vec<String> = panel.keys.iter().map(|k| k.to_string()).collect();
            header.extend(shown().map(|c| c.head.clone()));
            let mut table = ResultsTable::new(panel.title.clone(), &header);
            let mut grid = Vec::new();
            for row in &panel.rows {
                let blank = || vec![Sample::default(); panel.cols.len()];
                let mut samples: Vec<Vec<Sample>> = (0..opts.reps()).map(|_| blank()).collect();
                for c in probes(panel) {
                    let reps = runs.next().expect("one run per grid point");
                    for (rep, sample) in zip(&mut samples, reps) {
                        rep[c] = sample;
                    }
                }
                for (c, col) in panel.cols.iter().enumerate() {
                    if let Cell::Derived(f) = &col.cell {
                        for rep in &mut samples {
                            rep[c].value = f(rep);
                        }
                    }
                }
                let named: Vec<_> = zip(panel.labels.iter().copied(), row.labels.clone()).collect();
                let mut line: Vec<String> = key_at.iter().map(|&i| row.labels[i].clone()).collect();
                for (c, col) in panel.cols.iter().enumerate() {
                    let values = match &col.cell {
                        Cell::Info(f) => vec![f(&row.info, &samples)],
                        _ => samples.iter().map(|s| s[c].value).collect(),
                    };
                    let value = match values[..] {
                        [v] => v,
                        _ => MetricSummary::from_samples(&values).mean,
                    };
                    if !col.metric.is_empty() && !value.is_nan() {
                        let labels: Vec<_> =
                            named.iter().cloned().chain(col.label.clone()).collect();
                        report.metric(col.metric, &labels, &values, col.dir);
                    }
                    if !col.head.is_empty() && value.is_nan() {
                        line.push("—".into());
                    } else if !col.head.is_empty() {
                        line.push((col.fmt)(value));
                    }
                }
                table.row(line);
                grid.push(samples);
            }
            if !panel.csv.is_empty() {
                table.print();
                table.write_csv(&opts.out_dir, &panel.csv);
            }
            grids.push(grid);
        }
        report.finish(opts);
        grids
    }
}

/// Replication `rep` of one measured point; `traced` records the run
/// into the `--trace` / `--metrics` sinks.
fn measure(
    row: &Row,
    col: &Col,
    rep: usize,
    scratch: &mut QueryScratch,
    opts: &ExpOptions,
    traced: bool,
) -> Sample {
    let setup = col.setup.as_ref().unwrap_or(&row.setup);
    let (am, queries, k) = (&*setup.index, &setup.queries[rep], row.k);
    let Cell::Run(arm, measure) = &col.cell else {
        unreachable!("only measured cells run")
    };
    let arm = match arm {
        Arm::Row => &row.arm,
        arm => arm,
    };
    let build = |q: Point, scratch: &mut QueryScratch| -> Box<dyn SimilaritySearch> {
        match arm {
            Arm::Kind(kind) => kind.build_with(am, q, k, scratch).expect("algorithm"),
            Arm::Crss(_, build) => Box::new(build(am, q, k)),
            Arm::Row => panic!("an Arm::Row column needs a row arm"),
        }
    };
    let seeds = match *measure {
        Measure::Response(seeds) => seeds,
        Measure::Nodes => {
            let mut s = Sample::default();
            for q in queries {
                let mut algo = build(q.clone(), scratch);
                let run = run_query_with(am, algo.as_mut(), scratch).expect("query");
                s.nodes += run.nodes_visited;
                s.max_batch = s.max_batch.max(run.max_batch);
            }
            s.value = s.nodes as f64 / queries.len() as f64;
            return s;
        }
    };
    let sys = col.sys.as_ref().unwrap_or(&row.sys);
    let lambda = col.lambda.unwrap_or(row.lambda);
    let (arrivals, disks) = match seeds {
        Seeds::One(s) => (rep_seed(s, rep), rep_seed(s, rep) ^ 0x5eed),
        Seeds::Two(a, d) => (rep_seed(a, rep), rep_seed(d, rep)),
    };
    let params = SystemParams {
        num_disks: am.num_disks(),
        ..sys.params.clone()
    };
    let (num_disks, num_cpus) = (params.num_disks, params.num_cpus);
    let sim = Simulation::new(am, params).expect("simulation");
    let workload = Workload::poisson(queries.clone(), k, lambda, arrivals);
    let mut factory = |_: usize, q: Point, _: usize| build(q, &mut QueryScratch::new());
    let options = match arm {
        Arm::Kind(kind) => RunOptions::kind(*kind),
        Arm::Crss(name, _) => RunOptions::factory(name, &mut factory),
        Arm::Row => unreachable!(),
    };
    let mut recorder = CollectingRecorder::default();
    let options = options.faults(&sys.faults);
    let options = if traced {
        options.recorded(&mut recorder)
    } else {
        options
    };
    let start = Instant::now();
    let report = sim.run_with(&workload, disks, options).expect("simulation");
    let wall_s = start.elapsed().as_secs_f64();
    if traced {
        let io = report.io_stats();
        let (trace, metrics) = (opts.trace.as_deref(), opts.metrics.as_deref());
        write_observability(
            recorder.events(),
            num_disks,
            num_cpus,
            Some(&io),
            trace,
            metrics,
        )
        .expect("write trace/metrics sinks");
        eprintln!(
            "  recorded {} into the trace/metrics sinks",
            report.algorithm
        );
    }
    let value = mean_response(&report, opts);
    Sample {
        value,
        sim: Some(report),
        wall_s,
        ..Sample::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqda_core::exec::run_query;
    use sqda_obs::json::{parse, Value};
    use sqda_rstar::{SsConfig, SsTree};
    use sqda_storage::{ArrayStore, PageStore};
    use std::path::{Path, PathBuf};
    use AlgorithmKind::{Bbss, Crss as CrssKind, Fpss, Woptss};
    use Measure::{Nodes, Response};
    use Seeds::{One, Two};

    fn read_csv(out: &Path, name: &str) -> Vec<Vec<String>> {
        let text = std::fs::read_to_string(out.join(format!("{name}.csv"))).expect("csv");
        text.lines()
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect()
    }

    /// The fragment's metrics as (name, labels JSON, mean), in file order.
    fn read_metrics(out: &Path, bench: &str) -> Vec<(String, String, f64)> {
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
                let name = m.get("name").and_then(Value::as_str).expect("name");
                let mean = m.get("mean").and_then(Value::as_f64).expect("mean");
                (name.to_string(), labels.to_string(), mean)
            })
            .collect()
    }

    /// The three sweeps of the test into `out` at `jobs` workers, with
    /// each simulating sweep's first point recorded to `<bench>.jsonl` /
    /// `<bench>.metrics.json`; returns the generalised sweep's grid.
    fn run_sweeps(out: &Path, jobs: usize) -> Grid {
        let _ = std::fs::remove_dir_all(out);
        let opts = ExpOptions {
            quick: true,
            out_dir: out.to_path_buf(),
            jobs,
            reps: Some(2),
            ..ExpOptions::default()
        };
        let sinks = |bench: &str| ExpOptions {
            trace: Some(out.join(format!("{bench}.jsonl"))),
            metrics: Some(out.join(format!("{bench}.metrics.json"))),
            ..opts.clone()
        };
        let d = sqda_datasets::uniform(300, 2, 7);
        let setup = Setup::build(&d, 2, 8, 9, &opts);
        let name = &d.name;

        // Nodes, plain means, a custom column order.
        Panel {
            title: "nodes".into(),
            csv: "unit_nodes".into(),
            labels: &["dataset", "k"],
            keys: &["k"],
            cols: means([Bbss, CrssKind, Woptss, Fpss], Nodes),
            rows: Vec::from_iter(
                [1usize, 5]
                    .iter()
                    .map(|k| Row::new(&setup, *k, 0.0, &[name, k])),
            ),
        }
        .run("unit_sweep_nodes", 9, &opts);

        // Simulated responses, normalised to WOPTSS, two panels.
        let panel = |lambda: f64| Panel {
            title: format!("response at {lambda}"),
            csv: format!("unit_resp_{lambda}"),
            labels: &["lambda", "k"],
            keys: &["k"],
            cols: over_woptss(Response(One(10))),
            rows: Vec::from_iter(
                [2usize, 4]
                    .iter()
                    .map(|k| Row::new(&setup, *k, lambda, &[&lambda, k])),
            ),
        };
        let panels = vec![panel(1.0), panel(20.0)];
        Sweep {
            bench: "unit_sweep_resp",
            master_seed: 9,
            panels,
        }
        .run(&sinks("unit_sweep_resp"));

        // The generalised grid: a row per index (an R*-tree, then an
        // SS-tree through `&dyn AccessMethod`) with its own CRSS bound
        // as its arm and an info value; variant, overridden, derived,
        // info and copied columns.
        let store = Arc::new(ArrayStore::with_page_size(2, 1449, 1024, 8));
        let mut ss = SsTree::create(store, SsConfig::with_page_size(2, 1024)).expect("SS-tree");
        for (i, p) in d.points.iter().enumerate() {
            ss.insert(p.clone(), i as u64).expect("insert");
        }
        ss.store().reset_stats();
        let ss = Setup::new(ss, setup.queries.clone());
        let bound = |u: usize| {
            Arm::crss("CRSS", move |am, q, k| {
                Crss::with_activation_bound(am, q, k, u)
            })
        };
        let tight = Arm::crss("CRSS+mm", |am, q, k| {
            Crss::new(am, q, k).with_minmax_threshold()
        });
        let mirrored = Sys {
            params: SystemParams {
                mirrored_reads: true,
                ..SystemParams::default()
            },
            faults: FaultPlan::none(),
        };
        let cols = vec![
            Col::run(Arm::Row, Nodes).show("row nodes", f2),
            Col::run(tight, Nodes)
                .label("variant", "tight")
                .show("tight nodes", f2),
            Col::run(Bbss, Response(Two(11, 12)))
                .on(&setup)
                .label("algorithm", Bbss),
            Col::run(CrssKind, Response(One(13)))
                .lambda(4.0)
                .sys(mirrored)
                .label("algorithm", CrssKind)
                .show("mirrored CRSS (s)", f4),
            Col::derived(|s| s[0].nodes as f64 - s[1].nodes as f64)
                .show("saved", f0)
                .metric("nodes_saved", Direction::Higher),
            Col::info(|i, s| i[0] + s[0][0].max_batch as f64)
                .show("info", f0)
                .metric("info_value", Direction::Info),
            Col::info(|_, s| mean(s, 2)).show("BBSS (s)", f4),
        ];
        let rows = vec![
            Row::new(&setup, 3, 2.0, &[&"rstar", &1])
                .arm(bound(1))
                .info(vec![10.0]),
            Row::new(&ss, 3, 2.0, &[&"sstree", &2])
                .arm(bound(2))
                .info(vec![f64::NAN]),
        ];
        let panel = Panel {
            title: "general".into(),
            csv: "unit_general".into(),
            labels: &["index", "u"],
            keys: &["index"],
            cols,
            rows,
        };
        panel.run("unit_sweep_general", 9, &sinks("unit_sweep_general"))
    }

    #[test]
    fn sweep_writes_grid_cells_and_labels_in_row_major_order() {
        let base: PathBuf = std::env::temp_dir().join(format!("sqda_sweep_{}", std::process::id()));
        let out = base.join("jobs1");
        let grid = run_sweeps(&out, 1);
        // The parallel grid writes the same bytes as the serial one:
        // every CSV, fragment, trace and metrics file.
        let fanned = base.join("jobs3");
        run_sweeps(&fanned, 3);
        let csvs = ["unit_nodes", "unit_resp_1", "unit_resp_20", "unit_general"];
        let mut files: Vec<String> = csvs.iter().map(|c| format!("{c}.csv")).collect();
        for bench in ["unit_sweep_nodes", "unit_sweep_resp", "unit_sweep_general"] {
            files.push(format!("bench/{bench}.json"));
        }
        for bench in ["unit_sweep_resp", "unit_sweep_general"] {
            files.extend([format!("{bench}.jsonl"), format!("{bench}.metrics.json")]);
        }
        for file in &files {
            let read = |dir: &Path| std::fs::read(dir.join(file)).expect(file);
            assert!(
                read(&out) == read(&fanned),
                "{file} differs between --jobs 1 and 3"
            );
        }
        assert!(
            !out.join("unit_sweep_nodes.jsonl").exists(),
            "no simulated point, no trace"
        );

        let name = "uniform-2d";
        let kinds = [Bbss, CrssKind, Woptss, Fpss];
        let csv = read_csv(&out, "unit_nodes");
        assert_eq!(csv[0], ["k", "BBSS", "CRSS", "WOPTSS", "FPSS"]);
        assert_eq!(csv.len(), 3);
        let metrics = read_metrics(&out, "unit_sweep_nodes");
        assert_eq!(metrics.len(), 2 * 4, "rows × columns");
        for (i, (_, labels, mean)) in metrics.iter().enumerate() {
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
                    assert_eq!(cells[c].1, expect);
                }
                let line = &csv[r + 1];
                assert_eq!(line.len(), 5, "row arity");
                assert_eq!(line[0], *k);
                let wopt = cells[3].2;
                assert!(wopt > 0.0);
                for c in 0..3 {
                    assert_eq!(line[1 + c], f2(cells[c].2 / wopt), "ratio to WOPTSS");
                }
                assert_eq!(line[4], f4(wopt), "WOPTSS absolute");
            }
        }

        // The generalised grid: metrics in column order, the NaN info
        // value recording none; table cells in column order.
        let csv = read_csv(&out, "unit_general");
        let header = [
            "index",
            "row nodes",
            "tight nodes",
            "mirrored CRSS (s)",
            "saved",
            "info",
            "BBSS (s)",
        ];
        assert_eq!(csv[0], header);
        let metrics = read_metrics(&out, "unit_sweep_general");
        let names: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
        let row = [
            "mean_nodes",
            "mean_nodes",
            "mean_response_s",
            "mean_response_s",
            "nodes_saved",
        ];
        assert_eq!(names, [&row[..], &["info_value"], &row[..]].concat());
        let labels = |index: &str, u: &str, extra: &str| {
            format!("{{\"index\":\"{index}\",\"u\":\"{u}\"{extra}}}")
        };
        assert_eq!(metrics[1].1, labels("rstar", "1", ",\"variant\":\"tight\""));
        assert_eq!(
            metrics[3].1,
            labels("rstar", "1", ",\"algorithm\":\"CRSS\"")
        );
        assert_eq!(metrics[5].1, labels("rstar", "1", ""));
        assert_eq!(metrics[10].1, labels("sstree", "2", ""));
        for (r, (line, m)) in zip(&csv[1..], [&metrics[..6], &metrics[6..]]).enumerate() {
            assert_eq!(line[0], ["rstar", "sstree"][r]);
            assert_eq!(line[1..4], [f2(m[0].2), f2(m[1].2), f4(m[3].2)]);
            assert_eq!(line[4], f0(m[4].2), "derived cell");
            assert_eq!(line[6], f4(m[2].2), "copied cell");
        }
        let info = 10.0 + grid[0][0][0].max_batch as f64;
        assert_eq!(
            (csv[1][5].as_str(), metrics[5].2),
            (f0(info).as_str(), info)
        );
        assert_eq!(csv[2][5], "—", "a NaN info value shows as a dash");
        // Per-rep derived values, from the same replication's samples.
        for rep in &grid[1] {
            assert_eq!(rep[4].value, rep[0].nodes as f64 - rep[1].nodes as f64);
        }

        // Row arms, column overrides and the per-row index, against
        // direct runs of replication 0.
        let setup = Setup::build(
            &sqda_datasets::uniform(300, 2, 7),
            2,
            8,
            9,
            &ExpOptions {
                quick: true,
                reps: Some(2),
                ..ExpOptions::default()
            },
        );
        let (am, queries) = (&*setup.index, &setup.queries[0]);
        let nodes: u64 = queries
            .iter()
            .map(|q| {
                let mut crss = Crss::with_activation_bound(am, q.clone(), 3, 1);
                run_query(am, &mut crss).expect("query").nodes_visited
            })
            .sum();
        assert_eq!(
            grid[0][0][0].nodes, nodes,
            "the row's arm on the row's index"
        );
        assert_ne!(
            grid[1][0][0].nodes, nodes,
            "the second row runs on its SS-tree"
        );
        let bbss = |r: usize| grid[r][0][2].value;
        assert_eq!(bbss(0), bbss(1), "a column's setup overrides the row's");
        let params = SystemParams {
            num_disks: 2,
            mirrored_reads: true,
            ..SystemParams::default()
        };
        let sim = Simulation::new(am, params).expect("simulation");
        let w = Workload::poisson(queries.clone(), 3, 4.0, rep_seed(13, 0));
        let r = sim
            .run_with(&w, rep_seed(13, 0) ^ 0x5eed, RunOptions::kind(CrssKind))
            .expect("run");
        assert_eq!(
            grid[0][0][3].value, r.mean_response_s,
            "λ and system overrides"
        );

        // The sinks record grid point 0 of the simulated points at
        // replication 0: the BBSS column of the first row.
        let text =
            std::fs::read_to_string(out.join("unit_sweep_general.metrics.json")).expect("metrics");
        let snapshot = parse(&text).expect("metrics parse");
        let reads = snapshot
            .get("snapshot")
            .and_then(|s| s.get("store_reads_per_disk"));
        let reads: Vec<u64> = reads
            .and_then(Value::as_arr)
            .expect("reads")
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(reads, grid[0][0][2].sim().reads_per_disk);
        let _ = std::fs::remove_dir_all(&base);
    }
}
