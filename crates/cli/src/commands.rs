//! The CLI command handlers.

use crate::args::{checked, parse_query_point, Args, ArgsError};
use crate::meta::TreeMeta;
use sqda_analysis::{predict_knn, DeviceCalibration, TreeProfile};
use sqda_core::{
    exec::run_query, AlgorithmKind, RangeSearch, RealTimeEngine, RunOptions, Simulation, Workload,
};
use sqda_datasets::{CsvRows, Dataset};
use sqda_geom::Point;
use sqda_obs::{CollectingRecorder, Event, Prediction};
use sqda_rstar::decluster::{
    AreaBalance, DataBalance, Declusterer, ProximityIndex, RandomAssign, RoundRobin,
};
use sqda_rstar::{
    ExternalBuildOptions, Node, PointSource, RStarConfig, RStarError, RStarTree, SplitPolicy,
};
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
        RStarConfig::try_with_page_size(meta.dim, meta.page_size)?,
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

/// A [`PointSource`] that re-reads a CSV file on every pass, so the
/// external builder never materializes the dataset: resident memory is
/// one line buffer plus the builder's bounded sort runs. Object ids are
/// the zero-based row positions, matching the in-memory build.
///
/// Construction scans the file once for the cardinality and the
/// dimensionality of the first row. A pass that meets a bad row fails
/// the build with that row's `path:line: problem` error.
struct CsvSource {
    input: PathBuf,
    len: u64,
    dim: usize,
}

impl PointSource for CsvSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn visit(
        &self,
        f: &mut dyn FnMut(&[f64], u64) -> Result<(), RStarError>,
    ) -> Result<(), RStarError> {
        let source = |e: std::io::Error| RStarError::Source(Box::new(e));
        let mut rows = CsvRows::open(&self.input).map_err(source)?;
        let mut ids = 0u64..;
        while let Some(coords) = rows.next_row().map_err(source)? {
            f(coords, ids.next().expect("unbounded"))?;
        }
        Ok(())
    }
}

/// `sqda build`
pub fn build(args: &Args) -> CmdResult {
    let input = PathBuf::from(args.required("input")?);
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
    let dir = Path::new(&store_dir);
    let scratch_dir = dir.join("scratch");
    let (fresh_dir, fresh_scratch) = (!dir.exists(), !scratch_dir.exists());
    // Set once `FileStore::create` has succeeded: it refuses a directory
    // that holds a store before touching it.
    let mut store_made = false;
    let built = (|| -> CmdResult {
        let (tree, dim, kind) = if external {
            // Out-of-core build: stream the CSV per pass, spill bounded sort
            // runs through a scratch store that lives (and dies) next to the
            // destination directory.
            let (len, dim) = CsvRows::scan(&input)?;
            if len == 0 {
                return Err("input dataset is empty".into());
            }
            let source = CsvSource { input, len, dim };
            let config = RStarConfig::try_with_page_size(dim, page_size)?.with_split_policy(split);
            let store = Arc::new(FileStore::create(dir, disks, 1449, page_size, seed)?);
            store_made = true;
            let scratch = FileStore::create(&scratch_dir, disks, 1449, page_size, seed)?;
            let opts = ExternalBuildOptions {
                run_capacity,
                jobs,
                ..ExternalBuildOptions::default()
            };
            let (tree, report) = RStarTree::bulk_load_external_stats(
                store.clone(),
                config,
                declusterer,
                &source,
                &Arc::new(scratch),
                &opts,
            )?;
            std::fs::remove_dir_all(&scratch_dir)?;
            store.sync()?;
            println!(
                "external build: {} runs, {} merge passes, {} pages spilled (peak {} resident)",
                report.runs, report.merge_passes, report.spilled_pages, report.peak_scratch_pages
            );
            (tree, dim, "external bulk-loaded")
        } else {
            let dataset = Dataset::read_csv("input", &input)?;
            if dataset.is_empty() {
                return Err("input dataset is empty".into());
            }
            let dim = dataset.dim;
            let config = RStarConfig::try_with_page_size(dim, page_size)?.with_split_policy(split);
            let store = Arc::new(FileStore::create(dir, disks, 1449, page_size, seed)?);
            store_made = true;
            let points = dataset.points.into_iter().zip(0u64..);
            let tree = if bulk {
                RStarTree::bulk_load(store.clone(), config, declusterer, points.collect())?
            } else {
                let mut tree = RStarTree::create(store.clone(), config, declusterer)?;
                for (p, id) in points {
                    tree.insert(p, id)?;
                }
                tree
            };
            store.sync()?;
            (tree, dim, if bulk { "bulk-loaded" } else { "incremental" })
        };
        TreeMeta {
            root: tree.root_page().as_raw(),
            dim,
            page_size,
            decluster: decluster_name,
        }
        .save(dir)?;
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
    })();
    if built.is_err() {
        // A failed build takes back what it made — half a store would
        // refuse the corrected re-run — and nothing the directory held.
        if fresh_dir {
            let _ = std::fs::remove_dir_all(dir);
        } else {
            if fresh_scratch {
                let _ = std::fs::remove_dir_all(&scratch_dir);
            }
            let disk_files = (0..disks).map(|d| format!("disk{d:04}.sqda"));
            let sidecars =
                ["meta.sqda", "meta.sqda.tmp", "tree.meta", "tree.meta.tmp"].map(String::from);
            for name in disk_files.chain(sidecars).filter(|_| store_made) {
                let _ = std::fs::remove_file(dir.join(name));
            }
        }
    }
    built
}

/// Writes the `--trace` / `--metrics` sinks shared by `query` and
/// `simulate` ([`sqda_obs::write_observability`]) and names them. `io` is
/// the simulated run's reads ([`sqda_core::SimulationReport::io_stats`]),
/// not the store's: the simulator decodes each page once per run.
fn write_observability(
    events: &[(u64, Event)],
    num_disks: u32,
    num_cpus: u32,
    io: &sqda_storage::IoStats,
    trace: Option<&str>,
    metrics: Option<&str>,
) -> CmdResult {
    let (trace_path, metrics_path) = (trace.map(Path::new), metrics.map(Path::new));
    sqda_obs::write_observability(
        events,
        num_disks,
        num_cpus,
        Some(io),
        trace_path,
        metrics_path,
    )?;
    if let Some(path) = trace {
        println!("trace written    : {path} ({} events)", events.len());
    }
    if let Some(path) = metrics {
        println!("metrics written  : {path}");
    }
    Ok(())
}

/// Parses `--point` as a query point of the tree's dimensionality.
fn query_point<S: PageStore>(
    args: &Args,
    tree: &RStarTree<S>,
) -> Result<Point, Box<dyn Error + Send + Sync>> {
    let point = parse_query_point(args.required("point")?)?;
    if point.dim() != tree.dim() {
        return Err(format!("query dim {} but tree dim {}", point.dim(), tree.dim()).into());
    }
    Ok(point)
}

/// `--k`: neighbours per query (default 10), at least one.
fn k_arg(args: &Args) -> Result<usize, ArgsError> {
    checked("k", args.get_or("k", 10)?, "at least 1", |k| *k > 0)
}

/// `--lambda`: a Poisson arrival rate, positive and finite.
fn lambda_arg(args: &Args, default: f64) -> Result<f64, ArgsError> {
    let lambda = args.get_or("lambda", default)?;
    checked("lambda", lambda, "a positive, finite rate", |l| {
        *l > 0.0 && l.is_finite()
    })
}

/// `sqda query`
pub fn query(args: &Args) -> CmdResult {
    let (tree, _) = open_tree(args.required("store")?)?;
    let point = query_point(args, &tree)?;
    let k = k_arg(args)?;
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
            &report.io_stats(),
            trace.as_deref(),
            metrics.as_deref(),
        )?;
    }
    Ok(())
}

/// `sqda range`: every object within `--radius` of `--point`, nearest
/// first.
pub fn range(args: &Args) -> CmdResult {
    let (tree, _) = open_tree(args.required("store")?)?;
    let point = query_point(args, &tree)?;
    let radius = args.required_parsed("radius")?;
    let radius = checked("radius", radius, "a non-negative distance", |r| *r >= 0.0)?;
    let hits = run_query(&tree, &mut RangeSearch::new(&tree, point.clone(), radius))?.results;
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
    let k = k_arg(args)?;
    let lambda = lambda_arg(args, 5.0)?;
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
    let fail_at = checked("fail-at", fail_at, "a non-negative time", |t| {
        *t >= 0.0 && t.is_finite()
    })?;
    if fail_disks > num_disks as usize {
        return Err(
            format!("--fail-disks {fail_disks} exceeds the array's {num_disks} disks").into(),
        );
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
            &report.io_stats(),
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
    let k = k_arg(args)?;
    let lambda = lambda_arg(args, 5.0)?;
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
    let point = query_point(args, &tree)?;
    let k = k_arg(args)?;
    let lambda = lambda_arg(args, 1.0)?;
    let kind = algo_by_name(args.get("algo").unwrap_or("crss"))?;
    let cache: usize = args.get_or("cache", 4096)?;
    if cache > 0 {
        tree.set_node_cache(Arc::new(NodeCache::<Node>::new(cache)));
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
    let mut rng = sqda_geom::rng::Rng::seed_from_u64(seed);
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
