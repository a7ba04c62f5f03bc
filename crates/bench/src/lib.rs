//! Shared harness of the `experiment` binary.
//!
//! Every experiment regenerates one figure or table of the paper, or one
//! ablation or extension of it. They share this harness: dataset →
//! declustered tree → replicated query sets → the [`sweep`] driver's
//! grid of (logical node counts | simulated response times) → printed
//! table + CSV under `results/` and a [`report`] fragment.
//!
//! Every experiment accepts `--quick` to run a scaled-down configuration
//! (smaller populations, fewer queries) with the same code paths — used
//! by CI and the smoke tests; the default configuration is paper scale.

#![forbid(unsafe_code)]

use sqda_core::SimulationReport;
use sqda_datasets::Dataset;
use sqda_geom::Point;
use sqda_obs::truncate_warmup;
use sqda_rstar::{Declusterer, RStarConfig, RStarTree};
use sqda_simkernel::SeedSequence;
use sqda_storage::{ArrayStore, PageStore};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub mod claims;
pub mod report;
pub mod sweep;

/// Number of queries per measurement point (the paper executes 100
/// queries and averages).
pub const QUERIES_PER_POINT: usize = 100;

/// Default independent replications per data point. Five replications
/// give a meaningful 95% CI while keeping the full sweep tractable;
/// override with `--reps`.
pub const DEFAULT_REPS: usize = 5;

/// The `experiment` binary's command line: an experiment name and the
/// flags every experiment shares.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// The experiment to run (the one positional argument; empty if none).
    pub name: String,
    /// Scale down populations/queries for a fast smoke run.
    pub quick: bool,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Worker threads for [`parallel_map`] sweeps (1 = serial).
    pub jobs: usize,
    /// Trace sink for the sweep's first simulated grid point at
    /// replication 0: Chrome/Perfetto `trace_event` JSON, or a raw JSONL
    /// event log if the path ends in `.jsonl`.
    pub trace: Option<PathBuf>,
    /// Metrics sink for that same run: JSON
    /// [`sqda_obs::MetricsSnapshot`] + per-query profiles.
    pub metrics: Option<PathBuf>,
    /// Independent replications per data point, if `--reps` was given
    /// (see [`Self::reps`]).
    pub reps: Option<usize>,
    /// Fraction of each response-time series (in arrival order) deleted
    /// as warm-up before averaging (default 0 = keep everything).
    pub warmup: f64,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            name: String::new(),
            quick: false,
            out_dir: PathBuf::from("results"),
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            trace: None,
            metrics: None,
            reps: None,
            warmup: 0.0,
        }
    }
}

impl ExpOptions {
    /// Reads the experiment name and `--quick`, `--out <dir>`,
    /// `--jobs <n>`, `--serial`, `--trace <file>`, `--metrics <file>`,
    /// `--reps <n>` and `--warmup <fraction>` from `std::env::args`.
    /// `--jobs` defaults to the machine's available parallelism (one
    /// worker per core);
    /// `--serial` is shorthand for `--jobs 1`.
    ///
    /// # Errors
    ///
    /// A flag with a missing or meaningless value, an unknown flag or a
    /// second positional argument, described in one line.
    pub fn from_args() -> Result<Self, String> {
        let mut o = Self::default();
        let mut args = std::env::args().skip(1);
        let positive = |v: String, flag: &str| match v.parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("{flag} needs a positive integer, not {v:?}")),
        };
        while let Some(a) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
            match a.as_str() {
                "--quick" => o.quick = true,
                "--serial" => o.jobs = 1,
                "--out" => o.out_dir = value()?.into(),
                "--trace" => o.trace = Some(value()?.into()),
                "--metrics" => o.metrics = Some(value()?.into()),
                "--jobs" => o.jobs = positive(value()?, "--jobs")?,
                "--reps" => o.reps = Some(positive(value()?, "--reps")?),
                "--warmup" => {
                    let v = value()?;
                    o.warmup = match v.parse() {
                        Ok(w) if (0.0..1.0).contains(&w) => w,
                        _ => return Err(format!("--warmup needs a fraction in [0,1), not {v:?}")),
                    };
                }
                name if o.name.is_empty() && !name.starts_with('-') => o.name = a.clone(),
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        Ok(o)
    }

    /// Independent replications per data point: `--reps`, else
    /// [`DEFAULT_REPS`]. Replication 0 reuses the historical seed;
    /// `--reps 1` therefore reproduces the pre-replication single-run
    /// numbers exactly.
    pub fn reps(&self) -> usize {
        self.reps.unwrap_or(DEFAULT_REPS)
    }

    /// `quick` under `--quick`, else `full`.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Scales a population for quick mode.
    pub fn population(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(2000)
        } else {
            full
        }
    }

    /// Scales the query count for quick mode.
    pub fn queries(&self) -> usize {
        if self.quick {
            20
        } else {
            QUERIES_PER_POINT
        }
    }
}

/// Fans `f` over `items` across `jobs` scoped worker threads, returning
/// the results **in input order** regardless of completion order.
///
/// `make_state` runs once on each worker thread (once total on the
/// serial path) and the state is handed mutably to every item that
/// worker claims — how sweeps thread one reusable
/// [`sqda_core::QueryScratch`] per worker through thousands of queries.
/// Workers claim items through a shared atomic cursor (work stealing at
/// item granularity), so an expensive point does not stall the whole
/// sweep behind a fixed chunking. With `jobs == 1` (or a single item)
/// the closure runs on the caller's thread.
///
/// Panics in `f` propagate to the caller once all workers have stopped.
pub fn parallel_map<T, St, R, M, F>(items: &[T], jobs: usize, make_state: M, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    M: Fn() -> St + Sync,
    F: Fn(&mut St, &T) -> R + Sync,
{
    assert!(jobs > 0, "parallel_map needs at least one worker");
    if jobs == 1 || items.len() <= 1 {
        let mut state = make_state();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let workers = jobs.min(items.len());
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = make_state();
                    let mut got = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        got.push((i, f(&mut state, &items[i])));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Replicated sweep: runs `f(state, item, rep)` for every item and
/// replication `0..opts.reps()`, fanned over `opts.jobs` workers at
/// (item × rep) granularity with per-worker state as in
/// [`parallel_map`], and returns each item's results in replication
/// order (items in input order).
pub fn sweep_replicated<T, St, R, M, F>(
    items: &[T],
    opts: &ExpOptions,
    make_state: M,
    f: F,
) -> Vec<Vec<R>>
where
    T: Sync,
    R: Send,
    M: Fn() -> St + Sync,
    F: Fn(&mut St, &T, usize) -> R + Sync,
{
    let reps = opts.reps();
    let grid: Vec<(usize, usize)> = (0..items.len())
        .flat_map(|i| (0..reps).map(move |r| (i, r)))
        .collect();
    let mut values = parallel_map(&grid, opts.jobs, make_state, |state, &(i, r)| {
        f(state, &items[i], r)
    })
    .into_iter();
    (0..items.len())
        .map(|_| values.by_ref().take(reps).collect())
        .collect()
}

/// Page size per dimensionality.
///
/// The 2-d experiments use 1 KiB, matching the late-90s hardware the
/// paper models (the striping unit is one disk block; the HP-C2200A era
/// block is far below today's 4 KiB default). This yields 2-d fan-outs
/// of ~21/42 (internal/leaf) — trees of height 4 for the paper's
/// populations, which is where the paper's BBSS-vs-CRSS node crossover
/// (Figure 8) manifests.
///
/// Higher-dimensional entries are ~2.5–5× larger, so the same physical
/// block would hold single-digit fan-outs and produce degenerate trees
/// whose every query touches thousands of pages — a regime where λ = 5
/// queries/s cannot reach steady state on any algorithm. 4 KiB pages
/// restore the fan-outs (5-d: 42/85, 10-d: 23/46) that make the paper's
/// response-time magnitudes (0.1–3 s) attainable.
pub fn experiment_page_size(dim: usize) -> usize {
    if dim <= 2 {
        1024
    } else {
        4096
    }
}

/// Builds a declustered tree from a dataset by incremental insertion,
/// with `config` adjusting the experiment's page-size default.
pub fn build_tree(
    dataset: &Dataset,
    disks: u32,
    seed: u64,
    declusterer: Box<dyn Declusterer>,
    config: impl FnOnce(RStarConfig) -> RStarConfig,
) -> RStarTree<ArrayStore> {
    let start = Instant::now();
    let page_size = experiment_page_size(dataset.dim);
    let store = Arc::new(ArrayStore::with_page_size(disks, 1449, page_size, seed));
    let config = config(RStarConfig::with_page_size(dataset.dim, page_size));
    let mut tree = RStarTree::create(store, config, declusterer).expect("tree creation");
    for (i, p) in dataset.points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).expect("insert");
    }
    tree.store().reset_stats();
    eprintln!(
        "  built {}: {} pts, {}-d, {} disks, height {} in {:.1?}",
        dataset.name,
        dataset.len(),
        dataset.dim,
        disks,
        tree.height(),
        start.elapsed()
    );
    tree
}

/// Seed for replication `rep` of a measurement whose historical
/// single-run seed was `legacy`. Replication 0 **is** the legacy seed
/// (so `--reps 1` runs draw exactly the pre-replication numbers);
/// higher replications get independent SplitMix64-derived streams.
pub fn rep_seed(legacy: u64, rep: usize) -> u64 {
    SeedSequence::new(legacy).stream(rep as u64)
}

/// One query set per replication: replication `r` samples with
/// [`rep_seed`]`(legacy_seed, r)`, so set 0 is the historical set and
/// the others are independent draws from the same dataset.
pub fn rep_query_sets(dataset: &Dataset, opts: &ExpOptions, legacy_seed: u64) -> Vec<Vec<Point>> {
    (0..opts.reps())
        .map(|r| dataset.sample_queries(opts.queries(), rep_seed(legacy_seed, r)))
        .collect()
}

/// Mean response time of a simulation report under the `--warmup`
/// policy: with a zero fraction this is exactly the report's own
/// `mean_response_s` (legacy behaviour); otherwise the first
/// `⌊n·warmup⌋` responses (arrival order) are deleted before averaging.
pub fn mean_response(report: &SimulationReport, opts: &ExpOptions) -> f64 {
    if opts.warmup <= 0.0 {
        return report.mean_response_s;
    }
    let kept = truncate_warmup(&report.responses, opts.warmup);
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// A printed + CSV'd results table.
pub struct ResultsTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultsTable {
    /// Creates a table with a title and column names.
    pub fn new(title: impl Into<String>, header: &[impl AsRef<str>]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (formatted values).
    pub fn row(&mut self, values: Vec<String>) {
        assert_eq!(values.len(), self.header.len(), "row arity mismatch");
        self.rows.push(values);
    }

    /// Prints the table to stdout with aligned columns.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, v) in widths.iter_mut().zip(row) {
                *w = (*w).max(v.len());
            }
        }
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        for cells in [&self.header, &rule].into_iter().chain(&self.rows) {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect();
            println!("  {}", line.join("  "));
        }
    }

    /// Writes the table as CSV into `dir/name.csv`.
    pub fn write_csv(&self, dir: &Path, name: &str) {
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = dir.join(format!("{name}.csv"));
        let mut f = std::fs::File::create(&path).expect("create csv");
        writeln!(f, "{}", self.header.join(",")).expect("write header");
        for row in &self.rows {
            writeln!(f, "{}", row.join(",")).expect("write row");
        }
        eprintln!("  wrote {}", path.display());
    }
}

/// Formats a float with 2 decimals (tables) — helper for row building.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 4 decimals (response times in seconds).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqda_obs::MetricSummary;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..137).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = parallel_map(&items, jobs, || (), |_, x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_map_matches_serial_for_simulation_like_work() {
        // Uneven per-item cost exercises the work-stealing cursor: late
        // items finish before early ones, yet output order must hold.
        let items: Vec<usize> = (0..24).collect();
        let serial = parallel_map(
            &items,
            1,
            || (),
            |_, &i| {
                let mut acc = 0u64;
                for j in 0..(24 - i) * 10_000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(j as u64);
                }
                (i, acc)
            },
        );
        let fanned = parallel_map(
            &items,
            4,
            || (),
            |_, &i| {
                let mut acc = 0u64;
                for j in 0..(24 - i) * 10_000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(j as u64);
                }
                (i, acc)
            },
        );
        assert_eq!(serial, fanned);
    }

    #[test]
    fn parallel_map_with_reuses_worker_state() {
        // Each worker's state counts the items it processed; totals must
        // cover every item exactly once and results stay in input order.
        let items: Vec<u64> = (0..61).collect();
        for jobs in [1, 3, 8] {
            let got = parallel_map(
                &items,
                jobs,
                || 0u64,
                |seen, &x| {
                    *seen += 1;
                    (x * 2, *seen)
                },
            );
            let values: Vec<u64> = got.iter().map(|(v, _)| *v).collect();
            let expect: Vec<u64> = items.iter().map(|x| x * 2).collect();
            assert_eq!(values, expect, "jobs={jobs}");
            // Per-worker counters are monotone along each worker's claim
            // sequence; in serial mode the counter sweeps 1..=n.
            if jobs == 1 {
                let counters: Vec<u64> = got.iter().map(|(_, c)| *c).collect();
                assert_eq!(counters, (1..=61).collect::<Vec<u64>>());
            }
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 8, || (), |_, x| *x).is_empty());
        assert_eq!(parallel_map(&[7u32], 8, || (), |_, x| x + 1), vec![8]);
    }

    fn opts_with(reps: usize, jobs: usize) -> ExpOptions {
        ExpOptions {
            quick: true,
            jobs,
            reps: Some(reps),
            ..ExpOptions::default()
        }
    }

    #[test]
    fn rep_seed_stream_zero_is_legacy() {
        for legacy in [801u64, 1001, 4242] {
            assert_eq!(rep_seed(legacy, 0), legacy);
            let derived: Vec<u64> = (0..8).map(|r| rep_seed(legacy, r)).collect();
            let mut uniq = derived.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), derived.len(), "seed collision: {derived:?}");
        }
    }

    #[test]
    fn sweep_replicated_folds_reps_in_order() {
        let items = [10.0f64, 20.0, 30.0];
        let add = |_: &mut (), &x: &f64, rep: usize| x + rep as f64;
        let got = sweep_replicated(&items, &opts_with(3, 1), || (), add);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], vec![10.0, 11.0, 12.0]);
        assert_eq!(got[2], vec![30.0, 31.0, 32.0]);
        let summary = MetricSummary::from_samples(&got[1]);
        assert!((summary.mean - 21.0).abs() < 1e-12);
        assert_eq!(summary.count, 3);
        // Parallel fan-out produces the same per-item replication values.
        assert_eq!(sweep_replicated(&items, &opts_with(3, 4), || (), add), got);
        // reps == 1 degenerates to the single-run sweep.
        let single = sweep_replicated(
            &items,
            &opts_with(1, 1),
            || (),
            |_, &x, rep| {
                assert_eq!(rep, 0);
                x
            },
        );
        assert_eq!(single, items.map(|x| vec![x]));
    }

    #[test]
    fn replication_is_deterministic_same_master_seed_same_bytes() {
        // The satellite contract: same master seed → identical summary
        // bytes. Simulated metrics are pure functions of seeds, so two
        // fragment serializations of the same sweep must agree exactly.
        let opts = opts_with(4, 2);
        let run = || {
            let sums = sweep_replicated(
                &[1u64, 2, 3],
                &opts,
                || (),
                |_, &item, rep| {
                    // Seed-dependent deterministic "measurement".
                    let s = rep_seed(item * 1000, rep);
                    (s % 1_000_003) as f64 / 1_000_003.0
                },
            );
            let mut report = report::BinReport::new("determinism_probe", &opts);
            report.master_seed(1000);
            for (i, s) in sums.iter().enumerate() {
                let labels = [("item", i.to_string())];
                report.metric("metric", &labels, s, report::Direction::Lower);
            }
            report.fragment_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mean_response_warmup_policy() {
        let mut report = SimulationReport {
            algorithm: "CRSS",
            completed: 4,
            mean_response_s: 2.5,
            std_response_s: 0.0,
            max_response_s: 4.0,
            p95_response_s: 4.0,
            mean_nodes_per_query: 0.0,
            reads_per_disk: Vec::new(),
            mean_disk_utilization: 0.0,
            bus_utilization: 0.0,
            cpu_utilization: 0.0,
            makespan_s: 0.0,
            failed: 0,
            degraded_reads: 0,
            read_retries: 0,
            failures: Vec::new(),
            responses: vec![1.0, 2.0, 3.0, 4.0],
        };
        // warmup 0 returns the report's own (legacy) mean verbatim.
        report.mean_response_s = 2.5000001;
        assert_eq!(mean_response(&report, &opts_with(1, 1)), 2.5000001);
        let mut warm = opts_with(1, 1);
        warm.warmup = 0.5;
        assert_eq!(mean_response(&report, &warm), 3.5);
        report.responses.clear();
        assert_eq!(mean_response(&report, &warm), 0.0);
    }
}
