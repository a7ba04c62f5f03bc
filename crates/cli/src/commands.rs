//! The CLI command handlers.

use crate::args::{parse_point, parse_query_point, Args};
use crate::meta::TreeMeta;
use sqda_analysis::{predict_knn, DeviceCalibration, TreeProfile};
use sqda_core::{exec::run_query, AlgorithmKind, RealTimeEngine, RunOptions, Simulation, Workload};
use sqda_datasets::Dataset;
use sqda_geom::Point;
use sqda_obs::{metrics_document, trace_document, CollectingRecorder, Event, Prediction};
use sqda_rstar::decluster::{
    AreaBalance, DataBalance, Declusterer, ProximityIndex, RandomAssign, RoundRobin,
};
use sqda_rstar::{ExternalBuildOptions, Node, PointSource, RStarConfig, RStarTree, SplitPolicy};
use sqda_simkernel::{FaultPlan, SimTime, SystemParams};
use sqda_storage::{FileStore, NodeCache, PageId, PageStore, ThreadedFileBackend};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;

type CmdResult = Result<(), Box<dyn Error + Send + Sync>>;

fn declusterer_by_name(
    name: &str,
    seed: u64,
) -> Result<Box<dyn Declusterer>, Box<dyn Error + Send + Sync>> {
    Ok(match name {
        "pi" | "proximity-index" => Box::new(ProximityIndex),
        "rr" | "round-robin" => Box::new(RoundRobin::new()),
        "random" => Box::new(RandomAssign::new(seed)),
        "data" | "data-balance" => Box::new(DataBalance),
        "area" | "area-balance" => Box::new(AreaBalance),
        other => return Err(format!("unknown declusterer {other:?}").into()),
    })
}

fn split_by_name(name: &str) -> Result<SplitPolicy, Box<dyn Error + Send + Sync>> {
    Ok(match name {
        "rstar" => SplitPolicy::RStar,
        "quadratic" => SplitPolicy::GuttmanQuadratic,
        "linear" => SplitPolicy::GuttmanLinear,
        other => return Err(format!("unknown split policy {other:?}").into()),
    })
}

pub(crate) fn algo_by_name(name: &str) -> Result<AlgorithmKind, Box<dyn Error + Send + Sync>> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "bbss" => AlgorithmKind::Bbss,
        "fpss" => AlgorithmKind::Fpss,
        "crss" => AlgorithmKind::Crss,
        "woptss" => AlgorithmKind::Woptss,
        other => return Err(format!("unknown algorithm {other:?}").into()),
    })
}

/// Loads `calibration.json` beside the store (unless `--uncalibrated`)
/// and applies it to the paper-default parameters, so analytical
/// commands predict with the service terms a previous `sqda serve` run
/// measured. A malformed file is reported and ignored.
pub(crate) fn calibrated_params(
    store_dir: &str,
    num_disks: u32,
    args: &Args,
) -> (SystemParams, Option<DeviceCalibration>) {
    let base = SystemParams::with_disks(num_disks);
    if args.flag("uncalibrated") {
        return (base, None);
    }
    let path = DeviceCalibration::path_for(Path::new(store_dir));
    if !path.exists() {
        return (base, None);
    }
    match DeviceCalibration::load(&path) {
        Ok(cal) => {
            let params = cal.apply(&base);
            (params, Some(cal))
        }
        Err(e) => {
            eprintln!("warning: ignoring calibration: {e}");
            (base, None)
        }
    }
}

pub(crate) fn open_tree(
    store_dir: &str,
) -> Result<(RStarTree<FileStore>, TreeMeta), Box<dyn Error + Send + Sync>> {
    let dir = Path::new(store_dir);
    let meta = TreeMeta::load(dir)?;
    let store = Arc::new(FileStore::open(dir)?);
    let tree = RStarTree::attach(
        store,
        RStarConfig::with_page_size(meta.dim, meta.page_size),
        Box::new(ProximityIndex),
        PageId::from_raw(meta.root),
    )?;
    Ok((tree, meta))
}

/// `sqda generate`
pub fn generate(args: &Args) -> CmdResult {
    let kind = args.required("kind")?.to_string();
    let n: usize = args.required_parsed("n")?;
    let dim: usize = args.get_or("dim", 2)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let out = args.required("out")?.to_string();
    let dataset = match kind.as_str() {
        "uniform" => sqda_datasets::uniform(n, dim, seed),
        "gaussian" => sqda_datasets::gaussian(n, dim, seed),
        "california" => sqda_datasets::california_like(n, seed),
        "longbeach" => sqda_datasets::long_beach_like(n, seed),
        other => return Err(format!("unknown dataset kind {other:?}").into()),
    };
    dataset.write_csv(Path::new(&out))?;
    println!(
        "wrote {} {}-d points ({}) to {out}",
        dataset.len(),
        dataset.dim,
        dataset.name
    );
    Ok(())
}

/// What is wrong with a CSV input and where: `line` is 1-based, 0 when
/// the file could not be opened.
#[derive(Debug)]
struct CsvError {
    path: PathBuf,
    line: u64,
    problem: CsvProblem,
}

#[derive(Debug)]
enum CsvProblem {
    Io(std::io::Error),
    NotANumber(String),
    /// A row with another number of fields than the first row.
    Ragged {
        expected: usize,
        got: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: ", self.path.display(), self.line)?;
        match &self.problem {
            CsvProblem::Io(e) => write!(f, "{e}"),
            CsvProblem::NotANumber(field) => write!(f, "{field:?} is not a number"),
            CsvProblem::Ragged { expected, got } => {
                write!(f, "{got} fields, but the first row has {expected}")
            }
        }
    }
}

impl Error for CsvError {}

/// The non-blank lines of a CSV file through one reused line buffer.
struct CsvLines {
    path: PathBuf,
    reader: std::io::BufReader<std::fs::File>,
    buf: String,
    line: u64,
}

impl CsvLines {
    fn open(path: &Path) -> Result<Self, CsvError> {
        let path = path.to_path_buf();
        match std::fs::File::open(&path) {
            Ok(file) => Ok(CsvLines {
                path,
                reader: std::io::BufReader::new(file),
                buf: String::new(),
                line: 0,
            }),
            Err(e) => Err(CsvError {
                path,
                line: 0,
                problem: CsvProblem::Io(e),
            }),
        }
    }

    /// `problem`, found on the line last read.
    fn error(&self, problem: CsvProblem) -> CsvError {
        CsvError {
            path: self.path.clone(),
            line: self.line,
            problem,
        }
    }

    /// Reads the next non-blank line into `buf`; `false` at the end of
    /// the file.
    fn next_line(&mut self) -> Result<bool, CsvError> {
        use std::io::BufRead;
        loop {
            self.buf.clear();
            self.line += 1;
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => return Ok(false),
                Ok(_) if self.buf.trim().is_empty() => {}
                Ok(_) => return Ok(true),
                Err(e) => return Err(self.error(CsvProblem::Io(e))),
            }
        }
    }

    /// The next row as a point of `dim` coordinates.
    fn next_point(&mut self, dim: usize) -> Result<Option<Point>, CsvError> {
        if !self.next_line()? {
            return Ok(None);
        }
        let mut coords = Vec::with_capacity(dim);
        for field in self.buf.split(',') {
            let field = field.trim();
            match field.parse::<f64>() {
                Ok(c) => coords.push(c),
                Err(_) => return Err(self.error(CsvProblem::NotANumber(field.to_string()))),
            }
        }
        if coords.len() != dim {
            return Err(self.error(CsvProblem::Ragged {
                expected: dim,
                got: coords.len(),
            }));
        }
        Ok(Some(Point::new(coords)))
    }
}

/// A [`PointSource`] that re-reads a CSV file on every pass, so the
/// external builder never materializes the dataset: resident memory is
/// one line buffer plus the builder's bounded sort runs. Object ids are
/// the zero-based row positions, matching the in-memory build.
///
/// Construction scans the file once for the cardinality and the
/// dimensionality of the first row. [`PointSource::iter`] cannot return
/// an error, so a pass that meets a bad row (or a file that changed
/// under it) ends there and leaves the [`CsvError`] in `error`; `build`
/// reports that in place of the builder's point-count mismatch.
struct CsvSource {
    path: PathBuf,
    len: u64,
    dim: usize,
    error: std::cell::RefCell<Option<CsvError>>,
}

impl CsvSource {
    fn scan(path: &Path) -> Result<Self, CsvError> {
        let mut lines = CsvLines::open(path)?;
        let mut len = 0u64;
        let mut dim = 0usize;
        while lines.next_line()? {
            if dim == 0 {
                dim = lines.buf.split(',').count();
            }
            len += 1;
        }
        Ok(CsvSource {
            path: path.to_path_buf(),
            len,
            dim,
            error: None.into(),
        })
    }

    /// Keeps the first error of a pass for `build` to report.
    fn fail(&self, e: CsvError) {
        self.error.borrow_mut().get_or_insert(e);
    }
}

impl PointSource for CsvSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (Point, u64)> + '_> {
        // Any error ends the pass and is kept for `build`.
        let mut lines = CsvLines::open(&self.path).map_err(|e| self.fail(e)).ok();
        let mut ids = 0u64..;
        Box::new(std::iter::from_fn(move || {
            let row = lines.as_mut()?.next_point(self.dim);
            let point = row.map_err(|e| self.fail(e)).ok()??;
            Some((point, ids.next()?))
        }))
    }
}

/// `sqda build`
pub fn build(args: &Args) -> CmdResult {
    let input = args.required("input")?.to_string();
    let store_dir = args.required("store")?.to_string();
    let disks: u32 = args.get_or("disks", 10)?;
    let page_size: usize = args.get_or("page-size", 4096)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let decluster_name = args.get("decluster").unwrap_or("pi").to_string();
    let split = split_by_name(args.get("split").unwrap_or("rstar"))?;
    let bulk = args.flag("bulk");
    let external = args.flag("external");
    let run_capacity: usize = args.get_or("run-capacity", 1 << 18)?;
    let jobs: usize = args.get_or("jobs", 1)?;

    let declusterer = declusterer_by_name(&decluster_name, seed)?;
    let start = std::time::Instant::now();
    let (tree, dim, kind) = if external {
        // Out-of-core build: stream the CSV per pass, spill bounded sort
        // runs through a scratch store that lives (and dies) next to the
        // destination directory.
        let source = CsvSource::scan(Path::new(&input))?;
        if source.is_empty() {
            return Err("input dataset is empty".into());
        }
        let store = Arc::new(FileStore::create(
            Path::new(&store_dir),
            disks,
            1449,
            page_size,
            seed,
        )?);
        let config = RStarConfig::with_page_size(source.dim(), page_size).with_split_policy(split);
        let scratch_dir = Path::new(&store_dir).join("scratch");
        let scratch = Arc::new(FileStore::create(
            &scratch_dir,
            disks,
            1449,
            page_size,
            seed,
        )?);
        let opts = ExternalBuildOptions {
            run_capacity,
            jobs,
            ..ExternalBuildOptions::default()
        };
        let built = RStarTree::bulk_load_external_stats(
            store.clone(),
            config,
            declusterer,
            &source,
            &scratch,
            &opts,
        );
        // A pass cut short by a bad row is the cause of whatever the
        // builder made of it.
        if let Some(e) = source.error.take() {
            return Err(e.into());
        }
        let (tree, report) = built?;
        drop(scratch);
        std::fs::remove_dir_all(&scratch_dir)?;
        store.sync()?;
        println!(
            "external build: {} runs, {} merge passes, {} pages spilled (peak {} resident)",
            report.runs, report.merge_passes, report.spilled_pages, report.peak_scratch_pages
        );
        (tree, source.dim(), "external bulk-loaded")
    } else {
        let dataset = Dataset::read_csv("input", Path::new(&input))?;
        if dataset.is_empty() {
            return Err("input dataset is empty".into());
        }
        let store = Arc::new(FileStore::create(
            Path::new(&store_dir),
            disks,
            1449,
            page_size,
            seed,
        )?);
        let config = RStarConfig::with_page_size(dataset.dim, page_size).with_split_policy(split);
        let tree = if bulk {
            RStarTree::bulk_load(
                store.clone(),
                config,
                declusterer,
                dataset
                    .points
                    .iter()
                    .cloned()
                    .enumerate()
                    .map(|(i, p)| (p, i as u64))
                    .collect(),
            )?
        } else {
            let mut tree = RStarTree::create(store.clone(), config, declusterer)?;
            for (i, p) in dataset.points.iter().enumerate() {
                tree.insert(p.clone(), i as u64)?;
            }
            tree
        };
        store.sync()?;
        (
            tree,
            dataset.dim,
            if bulk { "bulk-loaded" } else { "incremental" },
        )
    };
    TreeMeta {
        root: tree.root_page().as_raw(),
        dim,
        page_size,
        decluster: decluster_name,
    }
    .save(Path::new(&store_dir))?;
    let stats = tree.stats()?;
    println!(
        "built {} tree: {} objects, height {}, {} nodes, avg fill {:.2}, {} disks, in {:.1?}",
        kind,
        tree.num_objects(),
        tree.height(),
        stats.total_nodes(),
        stats.avg_fill,
        disks,
        start.elapsed()
    );
    Ok(())
}

/// Writes the `--trace` / `--metrics` sinks shared by `query` and
/// `simulate`: the trace file is Chrome/Perfetto `trace_event` JSON
/// (raw JSONL event log instead when the path ends in `.jsonl`), the
/// metrics file a JSON document with the [`MetricsSnapshot`] and the
/// per-query [`sqda_obs::QueryProfile`]s.
fn write_observability(
    events: &[(u64, Event)],
    num_disks: u32,
    num_cpus: u32,
    io: &sqda_storage::IoStats,
    trace: Option<&str>,
    metrics: Option<&str>,
) -> CmdResult {
    if let Some(path) = trace {
        let body = trace_document(Path::new(path), events, num_disks, num_cpus);
        std::fs::write(path, body)?;
        println!("trace written    : {path} ({} events)", events.len());
    }
    if let Some(path) = metrics {
        std::fs::write(path, metrics_document(events, Some(io)))?;
        println!("metrics written  : {path}");
    }
    Ok(())
}

/// `sqda query`
pub fn query(args: &Args) -> CmdResult {
    let (tree, _) = open_tree(args.required("store")?)?;
    let point = parse_query_point(args.required("point")?)?;
    let k: usize = args.get_or("k", 10)?;
    let kind = algo_by_name(args.get("algo").unwrap_or("crss"))?;
    let trace = args.get("trace").map(str::to_string);
    let metrics = args.get("metrics").map(str::to_string);
    let mut algo = kind.build(&tree, point.clone(), k)?;
    let run = run_query(&tree, algo.as_mut())?;
    println!(
        "{} found {} neighbours in {} node reads ({} batches, max batch {}):",
        kind.name(),
        run.results.len(),
        run.nodes_visited,
        run.batches,
        run.max_batch
    );
    for n in &run.results {
        println!("  {}  {}  distance {:.6}", n.object, n.point, n.dist());
    }
    if trace.is_some() || metrics.is_some() {
        // Re-run the query as a single-user simulation on the modelled
        // array so the trace carries the full timing breakdown.
        let params = SystemParams::with_disks(tree.store().num_disks());
        let (num_disks, num_cpus) = (params.num_disks, params.num_cpus);
        let workload = Workload::single(point, k);
        let seed: u64 = args.get_or("seed", 0)?;
        let mut recorder = CollectingRecorder::default();
        let report =
            Simulation::new(&tree, params)?.run_recorded(kind, &workload, seed, &mut recorder)?;
        println!("simulated latency: {:.4} s", report.mean_response_s);
        write_observability(
            recorder.events(),
            num_disks,
            num_cpus,
            &tree.io_stats(),
            trace.as_deref(),
            metrics.as_deref(),
        )?;
    }
    Ok(())
}

/// `sqda range`
pub fn range(args: &Args) -> CmdResult {
    let (tree, _) = open_tree(args.required("store")?)?;
    let coords = parse_point(args.required("point")?)?;
    let radius: f64 = args.required_parsed("radius")?;
    let point = Point::try_new(coords)?;
    let hits = tree.range_query(&point, radius)?;
    println!("{} objects within {radius} of {point}:", hits.len());
    for e in hits.iter().take(20) {
        println!("  {}  {}", e.object, e.point);
    }
    if hits.len() > 20 {
        println!("  ... and {} more", hits.len() - 20);
    }
    Ok(())
}

/// `sqda stats`
pub fn stats(args: &Args) -> CmdResult {
    let (tree, meta) = open_tree(args.required("store")?)?;
    let stats = tree.stats()?;
    println!("dimensionality : {}", tree.dim());
    println!("objects        : {}", tree.num_objects());
    println!("height         : {}", stats.height);
    println!("nodes          : {}", stats.total_nodes());
    println!("nodes per level: {:?}", stats.nodes_per_level);
    println!("avg fill       : {:.3}", stats.avg_fill);
    println!("pages per disk : {:?}", stats.pages_per_disk);
    println!("page size      : {}", meta.page_size);
    println!("declusterer    : {}", meta.decluster);
    match tree.validate()? {
        Ok(()) => println!("invariants     : OK"),
        Err(e) => println!("invariants     : VIOLATED — {e}"),
    }
    Ok(())
}

/// `sqda simulate`
pub fn simulate(args: &Args) -> CmdResult {
    let store_dir = args.required("store")?.to_string();
    let (tree, _) = open_tree(&store_dir)?;
    let k: usize = args.get_or("k", 10)?;
    let lambda: f64 = args.get_or("lambda", 5.0)?;
    let num_queries: usize = args.get_or("queries", 100)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let kind = algo_by_name(args.get("algo").unwrap_or("crss"))?;
    let (base, calibration) = calibrated_params(&store_dir, tree.store().num_disks(), args);
    if let Some(cal) = &calibration {
        println!(
            "calibration      : {} samples ({})",
            cal.samples, cal.source
        );
    }
    let params = SystemParams {
        mirrored_reads: args.flag("mirrored"),
        num_cpus: args.get_or("cpus", 1)?,
        ..base
    };
    let trace = args.get("trace").map(str::to_string);
    let metrics = args.get("metrics").map(str::to_string);
    let (num_disks, num_cpus) = (params.num_disks, params.num_cpus);
    // Fault injection: --fail-disks picks that many distinct disks
    // (seed-driven) and fail-stops them at --fail-at seconds. With 0
    // the plan is empty and the run is byte-identical to fault-free.
    let fail_disks: usize = args.get_or("fail-disks", 0)?;
    let fail_at: f64 = args.get_or("fail-at", 0.0)?;
    if fail_disks > num_disks as usize {
        return Err(
            format!("--fail-disks {fail_disks} exceeds the array's {num_disks} disks").into(),
        );
    }
    if !fail_at.is_finite() || fail_at < 0.0 {
        return Err(format!("--fail-at must be a non-negative time, got {fail_at}").into());
    }
    let plan = FaultPlan::fail_disks(
        fail_disks,
        SimTime::from_secs_f64(fail_at),
        num_disks,
        seed ^ 0xFA17,
    );
    let faulted = !plan.is_empty();
    if faulted && !params.mirrored_reads {
        eprintln!(
            "warning: injecting faults without --mirrored — failed disks \
             have no shadow replica, so every query touching them aborts"
        );
    }
    // Queries follow the data distribution: sample indexed points.
    let sample = sample_data_points(&tree, num_queries, seed)?;
    let workload = Workload::poisson(sample, k, lambda, seed ^ 0xABCD);
    let sim = Simulation::new(&tree, params)?;
    let mut recorder = CollectingRecorder::default();
    let mut options = RunOptions::kind(kind).faults(&plan);
    if trace.is_some() || metrics.is_some() {
        options = options.recorded(&mut recorder);
    }
    let report = sim.run_with(&workload, seed ^ 0x1234, options)?;
    println!("algorithm        : {}", report.algorithm);
    println!("queries          : {}", report.completed);
    println!("mean response    : {:.4} s", report.mean_response_s);
    println!("p95 response     : {:.4} s", report.p95_response_s);
    println!("max response     : {:.4} s", report.max_response_s);
    println!("nodes per query  : {:.1}", report.mean_nodes_per_query);
    println!(
        "disk utilization : {:.1}%",
        report.mean_disk_utilization * 100.0
    );
    println!("bus utilization  : {:.1}%", report.bus_utilization * 100.0);
    println!("cpu utilization  : {:.1}%", report.cpu_utilization * 100.0);
    if faulted {
        println!(
            "failed disks     : {:?} at {fail_at} s",
            plan.failed_disks()
        );
        println!("degraded reads   : {}", report.degraded_reads);
        println!("read retries     : {}", report.read_retries);
        println!("aborted queries  : {}", report.failed);
        for (q, err) in report.failures.iter().take(5) {
            println!("  query {q}: {err}");
        }
        if report.failures.len() > 5 {
            println!("  ... and {} more", report.failures.len() - 5);
        }
    }
    if trace.is_some() || metrics.is_some() {
        write_observability(
            recorder.events(),
            num_disks,
            num_cpus,
            &tree.io_stats(),
            trace.as_deref(),
            metrics.as_deref(),
        )?;
    }
    Ok(())
}

/// `sqda estimate`
pub fn estimate(args: &Args) -> CmdResult {
    let store_dir = args.required("store")?.to_string();
    let (tree, _) = open_tree(&store_dir)?;
    let k: usize = args.get_or("k", 10)?;
    let lambda: f64 = args.get_or("lambda", 5.0)?;
    let profile = TreeProfile::measure(&tree)?;
    let (params, calibration) = calibrated_params(&store_dir, tree.store().num_disks(), args);
    let Some(p) = predict_knn(&profile, &params, tree.height(), k, lambda) else {
        return Err("degenerate data space; no analytical estimate".into());
    };
    if let Some(cal) = &calibration {
        println!(
            "calibration            : {} samples ({})",
            cal.samples, cal.source
        );
    }
    println!("expected node accesses : {:.1} (weak-optimal)", p.accesses);
    println!("assumed batches        : {:.1}", p.batches);
    println!("disk utilization ρ     : {:.3}", p.utilization);
    match p.response_s {
        Some(r) => println!("predicted response     : {r:.4} s"),
        None => println!("predicted response     : UNSTABLE (ρ ≥ 1)"),
    }
    Ok(())
}

/// `sqda explain` — run one k-NN query through the real-clock engine
/// with the introspection probe armed and print its [`sqda_obs::
/// QueryExplain`] record as one-line JSON: observed per-level node
/// accesses, batch sizes, threshold trajectory, per-disk reads, cache
/// split and timing breakdown next to the analytical prediction
/// (calibrated when the store carries a `calibration.json`) and the
/// observed-minus-predicted residuals.
pub fn explain(args: &Args) -> CmdResult {
    let store_dir = args.required("store")?.to_string();
    let (mut tree, _) = open_tree(&store_dir)?;
    let point = parse_query_point(args.required("point")?)?;
    let k: usize = args.get_or("k", 10)?;
    let lambda: f64 = args.get_or("lambda", 1.0)?;
    let kind = algo_by_name(args.get("algo").unwrap_or("crss"))?;
    let cache: usize = args.get_or("cache", 4096)?;
    if cache > 0 {
        tree.set_node_cache(Arc::new(NodeCache::<Node>::new(cache)));
    }
    if point.dim() != tree.dim() {
        return Err(format!("query dim {} but tree dim {}", point.dim(), tree.dim()).into());
    }
    let profile = TreeProfile::measure(&tree)?;
    let (params, calibration) = calibrated_params(&store_dir, tree.store().num_disks(), args);
    let predicted = predict_knn(&profile, &params, tree.height(), k, lambda).map(|p| Prediction {
        accesses: p.accesses,
        batches: p.batches,
        utilization: p.utilization,
        response_ms: p.response_s.map(|r| r * 1e3).unwrap_or(f64::INFINITY),
    });
    let backend = Arc::new(ThreadedFileBackend::new(Arc::clone(tree.store())));
    let engine = RealTimeEngine::new(&tree, backend)?;
    let (record, _) =
        engine.explain_query(kind, point, k, lambda, calibration.is_some(), predicted)?;
    println!("{}", record.to_json());
    Ok(())
}

/// Samples query points from the indexed data (window queries over random
/// leaf pages keep this O(sample) instead of a full scan).
fn sample_data_points<S: PageStore>(
    tree: &RStarTree<S>,
    n: usize,
    seed: u64,
) -> Result<Vec<Point>, Box<dyn Error + Send + Sync>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Walk random root-to-leaf paths.
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut page = tree.root_page();
        loop {
            let node = tree.read_node(page)?;
            if node.is_leaf() {
                if node.is_empty() {
                    return Err("tree is empty".into());
                }
                out.push(Point::from(node.leaf_point(rng.gen_range(0..node.len()))));
                break;
            }
            page = node.internal_child(rng.gen_range(0..node.len()));
        }
    }
    Ok(out)
}
