//! Execution-backend equivalence: the same persisted tree and query set
//! must yield byte-identical k-NN answers under the logical executor,
//! the simulated engine and the real-clock engine, in every mode.
//!
//! *Work* — which pages are read, from which disks, and which of those
//! reads the shared node cache absorbs (`IoStats`) — is a deterministic
//! function of where reads were served. The logical executor and the
//! simulator treat every read as a disk access. The real engine narrows
//! CRSS and the best-first frontier to one branch per round after a round
//! that memory served, since parallel reads from memory overlap nothing. The simulator decodes each
//! page once per run, so its work is not what its store saw but the
//! reads its disks served (`SimulationReport::reads_per_disk`): those are
//! the logical executor's reads over a tree without a node cache, where
//! every read reaches the store. So:
//!
//! * BBSS, FPSS and WOPTSS do the same work under every executor;
//! * real CRSS or frontier whose every read is served from memory does
//!   the logical executor's work at activation bound 1;
//! * real CRSS or frontier whose every read waits on a disk does the
//!   simulator's.
//!
//! This is what makes wall-clock measurements from `sqda serve`
//! comparable to the simulator's predictions: the engines may disagree
//! about *time*, and about a width only where reads cost nothing.

use sqda_core::{
    batch_knn_with, exec::run_query, AccessMethod, AlgorithmKind, BatchResult, BatchScratch, Crss,
    Frontier, IndexNode, Neighbor, QueryError, QueryScratch, RealTimeEngine, RunOptions,
    SimilaritySearch, Simulation, Step, Workload, WorkloadQuery,
};
use sqda_geom::Point;
use sqda_obs::{Event, MetricsSnapshot};
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{Node, RStarConfig, RStarTree};
use sqda_simkernel::{SimTime, SystemParams};
use sqda_storage::{
    Bytes, FileStore, InlineBackend, IoBackend, IoStats, NodeCache, PageId, PageStore, Placement,
    ReadCompletion, ReadObserver, StorageError, ThreadedFileBackend,
};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

const NUM_DISKS: u32 = 4;
const PAGE_SIZE: usize = 1024;

/// The paper's four algorithms and the best-first frontier.
const KINDS: [AlgorithmKind; 5] = [
    AlgorithmKind::Bbss,
    AlgorithmKind::Fpss,
    AlgorithmKind::Crss,
    AlgorithmKind::Woptss,
    AlgorithmKind::Frontier,
];

/// Whether `kind` listens to the executor's width: its work then follows
/// where each round's reads were served.
fn listens_to_width(kind: AlgorithmKind) -> bool {
    matches!(kind, AlgorithmKind::Crss | AlgorithmKind::Frontier)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sqda-backend-parity-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> RStarConfig {
    RStarConfig::with_page_size(2, PAGE_SIZE)
}

/// Persists a deterministic tree and returns its root page.
fn build_store(dir: &Path) -> PageId {
    let store = Arc::new(FileStore::create(dir, NUM_DISKS, 100, PAGE_SIZE, 11).unwrap());
    let mut tree = RStarTree::create(store.clone(), config(), Box::new(ProximityIndex)).unwrap();
    for i in 0..400u64 {
        let x = (i % 23) as f64 + (i as f64) * 1e-3;
        let y = (i % 17) as f64;
        tree.insert(Point::new(vec![x, y]), i).unwrap();
    }
    let root = tree.root_page();
    store.sync().unwrap();
    root
}

/// A fresh handle on the persisted tree with zeroed I/O counters and no
/// node cache: every page a query wants reaches the store.
fn attach(dir: &Path, root: PageId) -> RStarTree<FileStore> {
    let store = Arc::new(FileStore::open(dir).unwrap());
    let tree = RStarTree::attach(store, config(), Box::new(ProximityIndex), root).unwrap();
    tree.store().reset_stats();
    tree
}

/// [`attach`] with a cold, eviction-free node cache — each execution
/// mode starts from the identical state.
fn open_tree(dir: &Path, root: PageId) -> RStarTree<FileStore> {
    let mut tree = attach(dir, root);
    tree.set_node_cache(Arc::new(NodeCache::<Node>::new(4096)));
    tree
}

fn queries() -> Vec<(Point, usize)> {
    (0..6)
        .map(|i| {
            (
                Point::new(vec![(i * 3 % 20) as f64 + 0.4, (i * 5 % 15) as f64 + 0.7]),
                5,
            )
        })
        .collect()
}

fn workload() -> Workload {
    Workload {
        queries: queries()
            .into_iter()
            .enumerate()
            .map(|(i, (point, k))| WorkloadQuery {
                arrival: SimTime::from_millis_f64(i as f64 * 5.0),
                point,
                k,
            })
            .collect(),
    }
}

/// Answers of every query plus the run's I/O statistics, for one mode.
struct ModeRun {
    answers: Vec<Vec<Neighbor>>,
    io: IoStats,
    /// Backend reads that waited on a disk: the threaded backend's worker
    /// reads, 0 where nothing decides (the logical executor, the
    /// simulator, `InlineBackend`).
    waited: u64,
}

/// Whether two runs must have done the same work: always, but for CRSS
/// and the frontier only when no read of either waited on a disk (such a
/// run that had some reads wait did what its rounds' residency made of
/// it).
fn same_work_expected(kind: AlgorithmKind, a: &ModeRun, b: &ModeRun) -> bool {
    !listens_to_width(kind) || a.waited + b.waited == 0
}

/// The logical executor's run of `build`'s algorithm over every query.
fn run_logical_with(
    tree: RStarTree<FileStore>,
    build: impl Fn(&RStarTree<FileStore>, Point, usize) -> Box<dyn SimilaritySearch>,
) -> ModeRun {
    let answers = queries()
        .into_iter()
        .map(|(point, k)| {
            run_query(&tree, build(&tree, point, k).as_mut())
                .unwrap()
                .results
        })
        .collect();
    ModeRun {
        answers,
        io: tree.io_stats(),
        waited: 0,
    }
}

fn run_logical(dir: &Path, root: PageId, kind: AlgorithmKind) -> ModeRun {
    run_logical_with(open_tree(dir, root), |tree, point, k| {
        kind.build(tree, point, k).unwrap()
    })
}

/// [`run_logical`] over a tree without a node cache, with the WOPTSS
/// oracle's preparatory reads taken back out of the counters: its store
/// sees every read the queries made, which is the simulator's work.
fn run_logical_uncached(dir: &Path, root: PageId, kind: AlgorithmKind) -> ModeRun {
    let tree = attach(dir, root);
    let mut oracle = vec![0u64; NUM_DISKS as usize];
    let answers = queries()
        .into_iter()
        .map(|(point, k)| {
            let before = tree.io_stats().reads_per_disk;
            let mut algo = kind.build(&tree, point, k).unwrap();
            for ((o, after), before) in oracle
                .iter_mut()
                .zip(tree.io_stats().reads_per_disk)
                .zip(before)
            {
                *o += after - before;
            }
            run_query(&tree, algo.as_mut()).unwrap().results
        })
        .collect();
    let mut io = tree.io_stats();
    for (reads, o) in io.reads_per_disk.iter_mut().zip(oracle) {
        *reads -= o;
        io.reads -= o;
    }
    ModeRun {
        answers,
        io,
        waited: 0,
    }
}

/// What real CRSS or frontier does when memory serves every read: the
/// logical executor's run at activation bound 1.
fn run_logical_narrow(dir: &Path, root: PageId, kind: AlgorithmKind) -> ModeRun {
    run_logical_with(open_tree(dir, root), |tree, point, k| match kind {
        AlgorithmKind::Crss => Box::new(Crss::with_activation_bound(tree, point, k, 1)),
        AlgorithmKind::Frontier => Box::new(Frontier::with_activation_bound(tree, point, k, 1)),
        _ => unreachable!("{kind} ignores the width"),
    })
}

/// Stashes the inner algorithm's answers on `Done`; the simulated
/// executor never reads answers itself, so this is the capture seam.
struct Spy {
    inner: Box<dyn SimilaritySearch>,
    query: usize,
    sink: Arc<Mutex<BTreeMap<usize, Vec<Neighbor>>>>,
}

impl SimilaritySearch for Spy {
    fn start(&mut self) -> Step {
        self.inner.start()
    }
    fn on_fetched(&mut self, nodes: &mut Vec<(PageId, IndexNode)>) -> BatchResult {
        let result = self.inner.on_fetched(nodes);
        if matches!(result.next, Step::Done) {
            self.sink
                .lock()
                .unwrap()
                .insert(self.query, self.inner.results());
        }
        result
    }
    fn results(&self) -> Vec<Neighbor> {
        self.inner.results()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The simulator's run of `w`, answers captured per workload index; its
/// work is the reads its disks served.
fn run_simulated_on(tree: &RStarTree<FileStore>, kind: AlgorithmKind, w: &Workload) -> ModeRun {
    let sim = Simulation::new(tree, SystemParams::with_disks(NUM_DISKS)).unwrap();
    let sink: Arc<Mutex<BTreeMap<usize, Vec<Neighbor>>>> = Arc::default();
    let factory_sink = Arc::clone(&sink);
    let mut factory = |query, point, k| -> Box<dyn SimilaritySearch> {
        Box::new(Spy {
            inner: kind.build(tree, point, k).unwrap(),
            query,
            sink: Arc::clone(&factory_sink),
        })
    };
    let options = RunOptions::factory(kind.name(), &mut factory);
    let report = sim.run_with(w, 13, options).unwrap();
    assert_eq!(report.failed, 0, "{kind}");
    let captured = sink.lock().unwrap();
    assert_eq!(captured.len(), w.queries.len(), "{kind}");
    let answers = (0..captured.len()).map(|q| captured[&q].clone()).collect();
    ModeRun {
        answers,
        io: report.io_stats(),
        waited: 0,
    }
}

fn run_simulated(tree: &RStarTree<FileStore>, kind: AlgorithmKind) -> ModeRun {
    run_simulated_on(tree, kind, &workload())
}

/// The real-clock engine's run over `backend`, one worker; `waited` is
/// left for the caller, who knows the backend's type.
fn run_engine(
    tree: &RStarTree<FileStore>,
    backend: Arc<dyn IoBackend>,
    kind: AlgorithmKind,
) -> ModeRun {
    let engine = RealTimeEngine::new(tree, backend).unwrap();
    let report = engine.run(kind, &workload(), 1).unwrap();
    assert_eq!(report.failed, 0, "{kind}");
    assert_eq!(report.completed, queries().len(), "{kind}");
    ModeRun {
        answers: report.answers,
        io: tree.io_stats(),
        waited: 0,
    }
}

fn run_real(dir: &Path, root: PageId, kind: AlgorithmKind, threaded: bool) -> ModeRun {
    let tree = open_tree(dir, root);
    if !threaded {
        let backend = Arc::new(InlineBackend::new(Arc::clone(tree.store())));
        return run_engine(&tree, backend, kind);
    }
    let backend = Arc::new(ThreadedFileBackend::new(Arc::clone(tree.store())));
    let run = run_engine(&tree, Arc::<ThreadedFileBackend>::clone(&backend), kind);
    ModeRun {
        waited: backend.worker_reads(),
        ..run
    }
}

/// Like [`run_real`] (threaded backend), but with the full telemetry
/// plane armed: a `LiveTelemetry` registry observing the engine, a
/// `ReadObserver` on the backend's disk workers, a flight-recorder ring
/// and the sliding window — the configuration `sqda serve` runs with.
fn run_real_observed(
    dir: &Path,
    root: PageId,
    kind: AlgorithmKind,
) -> (
    ModeRun,
    Arc<sqda_obs::LiveTelemetry>,
    sqda_core::RealTimeReport,
) {
    let tree = open_tree(dir, root);
    let live = Arc::new(sqda_obs::LiveTelemetry::new(NUM_DISKS).with_flight_recorder(8192));
    let observer: Arc<dyn sqda_storage::ReadObserver> = Arc::clone(&live) as _;
    let backend = Arc::new(ThreadedFileBackend::with_observer(
        Arc::clone(tree.store()),
        observer,
    ));
    let engine = RealTimeEngine::new(&tree, Arc::<ThreadedFileBackend>::clone(&backend))
        .unwrap()
        .with_telemetry(Arc::clone(&live))
        .unwrap();
    let report = engine.run(kind, &workload(), 1).unwrap();
    assert_eq!(report.failed, 0, "{kind}");
    let run = ModeRun {
        answers: report.answers.clone(),
        io: tree.io_stats(),
        waited: backend.worker_reads(),
    };
    (run, live, report)
}

fn assert_answers_identical(kind: AlgorithmKind, a: &ModeRun, b: &ModeRun, what: &str) {
    assert_eq!(a.answers.len(), b.answers.len(), "{kind}: {what}");
    for (q, (want, got)) in a.answers.iter().zip(&b.answers).enumerate() {
        assert_eq!(want.len(), got.len(), "{kind} query {q}: {what}");
        for (x, y) in want.iter().zip(got) {
            assert_eq!(x.object, y.object, "{kind} query {q}: {what}");
            // Bit-exact, not approximate: both engines must do the same
            // arithmetic on the same decoded bytes.
            assert_eq!(
                x.dist_sq.to_bits(),
                y.dist_sq.to_bits(),
                "{kind} query {q}: {what}"
            );
            assert_eq!(
                x.point.coords(),
                y.point.coords(),
                "{kind} query {q}: {what}"
            );
        }
    }
}

/// [`assert_io_identical`] where [`same_work_expected`] says so.
fn assert_work_identical(kind: AlgorithmKind, a: &ModeRun, b: &ModeRun, what: &str) {
    if same_work_expected(kind, a, b) {
        assert_io_identical(kind, a, b, what);
    }
}

fn assert_io_identical(kind: AlgorithmKind, a: &ModeRun, b: &ModeRun, what: &str) {
    assert_eq!(a.io.reads, b.io.reads, "{kind} reads: {what}");
    assert_eq!(
        a.io.reads_per_disk, b.io.reads_per_disk,
        "{kind} per-disk reads: {what}"
    );
    assert_eq!(
        a.io.cache_hits, b.io.cache_hits,
        "{kind} cache hits: {what}"
    );
    assert_eq!(
        a.io.cache_misses, b.io.cache_misses,
        "{kind} cache misses: {what}"
    );
}

/// The acceptance pin: logical, simulated, and real-clock execution
/// agree bit-for-bit on answers for all four algorithms and the frontier,
/// and on I/O work as the module docs state it: the simulator's disks
/// always serve the logical executor's reads, and the real engine over
/// the just-written store — whose pages the OS holds in memory — does the
/// logical executor's work too, with CRSS and the frontier at activation
/// bound 1.
#[test]
fn three_execution_modes_agree_on_answers_and_io() {
    let dir = tmpdir("modes");
    let root = build_store(&dir);
    for kind in KINDS {
        let logical = run_logical(&dir, root, kind);
        let simulated = run_simulated(&open_tree(&dir, root), kind);
        let real = run_real(&dir, root, kind, true);
        assert!(
            logical.io.reads > 0 && logical.io.cache_hits > 0,
            "{kind}: the workload must exercise both the store and the cache"
        );
        assert_answers_identical(kind, &logical, &simulated, "logical vs simulated");
        assert_answers_identical(kind, &logical, &real, "logical vs real");
        assert_io_identical(
            kind,
            &run_logical_uncached(&dir, root, kind),
            &simulated,
            "logical reads vs simulated disk reads",
        );
        let from_memory = if listens_to_width(kind) {
            run_logical_narrow(&dir, root, kind)
        } else {
            logical
        };
        assert_work_identical(kind, &from_memory, &real, "logical vs real");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The simulator builds each query's algorithm when the query arrives,
/// so in arrival order; the factory is told which query it builds for.
/// With arrivals in reverse index order, two at a time, every captured
/// answer still lands on its own query.
#[test]
fn factory_answers_land_on_their_queries_whatever_the_arrival_order() {
    let dir = tmpdir("arrival-order");
    let root = build_store(&dir);
    let n = queries().len();
    let mut reversed = workload();
    for (i, wq) in reversed.queries.iter_mut().enumerate() {
        wq.arrival = SimTime::from_millis_f64(((n - 1 - i) / 2) as f64 * 5.0);
    }
    for kind in KINDS {
        let logical = run_logical(&dir, root, kind);
        let simulated = run_simulated_on(&attach(&dir, root), kind, &reversed);
        assert_answers_identical(kind, &logical, &simulated, "reversed arrivals");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Both halves of the work contract of CRSS and the frontier, pinned
/// without depending on the OS page cache: through an `InlineBackend`
/// (every read served from memory) the real run does the logical
/// executor's work at activation bound 1; behind a backend that reports
/// every read as having waited on a disk, over a tree with no node cache
/// to serve a round from memory, it does the simulator's. Answers are the
/// same throughout, and the two halves are different work.
#[test]
fn crss_work_follows_where_reads_were_served() {
    let dir = tmpdir("crss-width");
    let root = build_store(&dir);
    for kind in [AlgorithmKind::Crss, AlgorithmKind::Frontier] {
        work_follows_where_reads_were_served(&dir, root, kind);
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn work_follows_where_reads_were_served(dir: &Path, root: PageId, kind: AlgorithmKind) {
    let narrow = run_logical_narrow(dir, root, kind);
    let inline = run_real(dir, root, kind, false);
    assert_answers_identical(kind, &narrow, &inline, "bound 1 vs inline");
    assert_io_identical(kind, &narrow, &inline, "bound 1 vs inline");
    let wide = run_logical(dir, root, kind);
    assert_answers_identical(kind, &wide, &narrow, "bound u vs bound 1");
    let touched = |run: &ModeRun| run.io.reads + run.io.cache_hits;
    assert!(
        touched(&wide) > touched(&narrow),
        "narrowing must save work"
    );

    let simulated = run_simulated(&attach(dir, root), kind);
    let tree = attach(dir, root);
    let every_read_waited = Rewriting {
        inner: InlineBackend::new(Arc::clone(tree.store())),
        rewrite: |c: &mut ReadCompletion| c.waited = true,
    };
    let on_disks = run_engine(&tree, Arc::new(every_read_waited), kind);
    assert!(on_disks.io.reads > 0 && on_disks.io.cache_hits == 0);
    assert_answers_identical(kind, &wide, &on_disks, "bound u vs every read waited");
    assert_answers_identical(
        kind,
        &simulated,
        &on_disks,
        "simulated vs every read waited",
    );
    assert_io_identical(
        kind,
        &simulated,
        &on_disks,
        "simulated vs every read waited",
    );
}

/// The inline (synchronous) backend is work-equivalent to the threaded
/// per-disk backend over pages the OS holds: same answers, same I/O
/// statistics.
#[test]
fn inline_and_threaded_backends_agree() {
    let dir = tmpdir("backends");
    let root = build_store(&dir);
    for kind in [
        AlgorithmKind::Crss,
        AlgorithmKind::Bbss,
        AlgorithmKind::Frontier,
    ] {
        let inline = run_real(&dir, root, kind, false);
        let threaded = run_real(&dir, root, kind, true);
        assert_answers_identical(kind, &inline, &threaded, "inline vs threaded");
        assert_work_identical(kind, &inline, &threaded, "inline vs threaded");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A shared-traversal batch (`BATCH`) answers alike over both backends:
/// each wavefront round's reads complete in request order inline and in
/// finish order over the threaded backend (on its workers once the OS
/// has dropped the pages), and `batch_knn_with` re-assembles them into
/// the same answers and counters.
#[test]
fn batch_replies_identical_across_backends() {
    let dir = tmpdir("batch-backends");
    let root = build_store(&dir);
    let points: Vec<Point> = queries().into_iter().map(|(p, _)| p).collect();
    let batch = |threaded: bool, k: usize| {
        let tree = attach(&dir, root);
        let store = Arc::clone(tree.store());
        let backend: Arc<dyn IoBackend> = if threaded {
            store.evict_from_os_cache().unwrap();
            Arc::new(ThreadedFileBackend::new(store))
        } else {
            Arc::new(InlineBackend::new(store))
        };
        let mut scratch = BatchScratch::new();
        batch_knn_with(&tree, Some(backend.as_ref()), &points, k, &mut scratch).unwrap()
    };
    for k in [1, 4, 7] {
        let (inline, threaded) = (batch(false, k), batch(true, k));
        assert_eq!(
            (inline.unique_fetches, inline.total_interest, inline.rounds),
            (
                threaded.unique_fetches,
                threaded.total_interest,
                threaded.rounds
            ),
            "k={k}"
        );
        assert_eq!(inline.answers, threaded.answers, "k={k}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The telemetry plane observes, never steers: with a live registry,
/// read observer, and flight recorder all armed, the real-clock engine
/// produces byte-identical answers and identical `IoStats` to the bare
/// engine — and the registry's own books agree with the store's.
#[test]
fn telemetry_enabled_run_is_work_identical() {
    let dir = tmpdir("telemetry");
    let root = build_store(&dir);
    for kind in [
        AlgorithmKind::Crss,
        AlgorithmKind::Bbss,
        AlgorithmKind::Frontier,
    ] {
        let bare = run_real(&dir, root, kind, true);
        let (observed, live, _) = run_real_observed(&dir, root, kind);
        assert_answers_identical(kind, &bare, &observed, "bare vs telemetry");
        assert_work_identical(kind, &bare, &observed, "bare vs telemetry");
        // The registry saw every query and exactly the physical reads.
        let snap = live.snapshot();
        assert_eq!(snap.queries_completed.0, queries().len() as u64, "{kind}");
        assert_eq!(snap.queries_aborted.0, 0, "{kind}");
        let observed_reads: Vec<u64> = (0..NUM_DISKS as u16)
            .map(|d| snap.disks.get(&d).map_or(0, |d| d.requests.0))
            .collect();
        assert_eq!(observed_reads, observed.io.reads_per_disk, "{kind}");
        assert!(live.flight().unwrap().recorded() > 0, "{kind}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The introspection plane observes, never steers: running every query
/// through [`RealTimeEngine::explain_query`] yields byte-identical
/// answers and identical `IoStats` to the bare engine, over either
/// backend, and each record's internal books are consistent — batch
/// sizes and per-level accesses sum to the node total, the root level
/// is one page, there are no more levels than the tree has, each miss is
/// one disk read, and per-disk reads sum to the store's physical reads.
#[test]
fn explain_enabled_run_is_work_identical() {
    let dir = tmpdir("explain");
    let root = build_store(&dir);
    for (kind, threaded) in KINDS.into_iter().flat_map(|k| [(k, false), (k, true)]) {
        let what = format!("{kind} (threaded: {threaded})");
        let bare = run_real(&dir, root, kind, threaded);
        let tree = open_tree(&dir, root);
        let threaded_backend = Arc::new(ThreadedFileBackend::new(Arc::clone(tree.store())));
        let backend: Arc<dyn IoBackend> = if threaded {
            Arc::<ThreadedFileBackend>::clone(&threaded_backend)
        } else {
            Arc::new(InlineBackend::new(Arc::clone(tree.store())))
        };
        let engine = RealTimeEngine::new(&tree, backend).unwrap();
        let mut answers = Vec::new();
        let mut explained_reads = vec![0u64; NUM_DISKS as usize];
        let mut explained_hits = 0u64;
        let mut scratch = QueryScratch::new();
        for (point, k) in queries() {
            let (explain, result) = engine
                .explain_query(kind, point, k, (0.0, false, None), &mut scratch)
                .unwrap();
            assert_eq!(
                explain.nodes,
                explain.level_accesses.iter().sum::<u64>(),
                "{what}: per-level accesses must sum to the node total"
            );
            assert_eq!(
                explain.nodes,
                explain.batch_sizes.iter().map(|&b| b as u64).sum::<u64>(),
                "{what}: batch sizes must sum to the node total"
            );
            assert_eq!(explain.level_accesses[0], 1, "{what}: one root");
            assert!(
                explain.level_accesses.len() <= tree.height() as usize,
                "{what}: {:?} over a tree of height {}",
                explain.level_accesses,
                tree.height()
            );
            assert_eq!(
                explain.batches as usize,
                explain.batch_sizes.len(),
                "{what}: one recorded size per batch"
            );
            assert_eq!(
                explain.nodes,
                explain.cache_hits + explain.cache_misses,
                "{what}: every access is a hit or a miss"
            );
            assert_eq!(
                explain.reads_per_disk.iter().sum::<u64>(),
                explain.cache_misses,
                "{what}: every miss is one disk read"
            );
            for (slot, n) in explained_reads.iter_mut().zip(&explain.reads_per_disk) {
                *slot += n;
            }
            explained_hits += explain.cache_hits;
            answers.push(result);
        }
        let explained = ModeRun {
            answers,
            io: tree.io_stats(),
            waited: threaded_backend.worker_reads(),
        };
        assert_answers_identical(kind, &bare, &explained, "bare vs explain");
        assert_work_identical(kind, &bare, &explained, "bare vs explain");
        if kind == AlgorithmKind::Woptss {
            // The oracle plans with a best-first pass over the tree before
            // its first round: the store saw reads no session issued.
            continue;
        }
        assert_eq!(
            explained_reads, explained.io.reads_per_disk,
            "{what}: per-query disk distributions must sum to the store's"
        );
        assert_eq!(
            explained_hits, explained.io.cache_hits,
            "{what}: per-query cache hits must sum to the cache's"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A served query runs on the registry's clock: the flight events of two
/// queries run back to back lie within registry time and drain (in
/// timestamp order) exactly as they were recorded — the first query's
/// arrival to completion, then the second's.
#[test]
fn flight_events_are_stamped_on_the_registry_clock() {
    let dir = tmpdir("flight-clock");
    let root = build_store(&dir);
    let tree = open_tree(&dir, root);
    let live = Arc::new(sqda_obs::LiveTelemetry::new(NUM_DISKS).with_flight_recorder(8192));
    let backend = Arc::new(InlineBackend::new(Arc::clone(tree.store())));
    let engine = RealTimeEngine::new(&tree, backend)
        .unwrap()
        .with_telemetry(Arc::clone(&live))
        .unwrap();
    let mut scratch = QueryScratch::new();
    let before = live.now_ns();
    for (point, k) in queries().into_iter().take(2) {
        engine
            .query(AlgorithmKind::Crss, point, k, &mut scratch)
            .unwrap();
    }
    let after = live.now_ns();
    let events = live.flight().unwrap().drain();
    assert!(events.len() > 4, "{events:?}");
    for &(ts, _) in &events {
        assert!(
            before <= ts && ts <= after,
            "{ts} outside [{before}, {after}]"
        );
    }
    let ids: Vec<u32> = events.iter().map(|(_, e)| e.query().unwrap()).collect();
    let second = ids.iter().position(|&q| q == 1).expect("two queries");
    assert!(ids[..second].iter().all(|&q| q == 0), "{ids:?}");
    assert!(ids[second..].iter().all(|&q| q == 1), "{ids:?}");
    for span in [&events[..second], &events[second..]] {
        assert_eq!(span[0].1.kind(), "query_arrive", "{span:?}");
        assert_eq!(span[span.len() - 1].1.kind(), "query_complete", "{span:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance pin for the metrics plane: the live response-time
/// histogram (what `METRICS` exposes) brackets the exact percentiles
/// the `RealTimeReport` computes from raw samples — the two views of
/// latency agree within bucket resolution.
#[test]
fn live_histogram_brackets_report_percentiles() {
    let dir = tmpdir("percentiles");
    let root = build_store(&dir);
    let (_, live, report) = run_real_observed(&dir, root, AlgorithmKind::Crss);
    let hist = live.snapshot().response_ms;
    assert_eq!(hist.count(), report.completed as u64);
    for (q, exact_s) in [
        (0.5, report.p50_response_s),
        (0.95, report.p95_response_s),
        (0.99, report.p99_response_s),
    ] {
        let exact_ms = exact_s * 1e3;
        let (lo, hi) = hist.quantile_bracket(q);
        assert!(
            lo <= exact_ms && exact_ms <= hi,
            "q={q}: report {exact_ms} ms outside live bracket [{lo}, {hi}]"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrent real-clock sessions still return the right answers (I/O
/// totals may differ: two sessions can race to fault the same page into
/// the cache, which is benign duplicated work, not wrong work).
#[test]
fn concurrent_real_sessions_preserve_answers() {
    let dir = tmpdir("concurrent");
    let root = build_store(&dir);
    let kind = AlgorithmKind::Crss;
    let sequential = run_real(&dir, root, kind, true);
    let tree = open_tree(&dir, root);
    let backend = Arc::new(ThreadedFileBackend::new(Arc::clone(tree.store())));
    let engine = RealTimeEngine::new(&tree, Arc::<ThreadedFileBackend>::clone(&backend)).unwrap();
    let report = engine.run(kind, &workload(), 4).unwrap();
    assert_eq!(report.failed, 0);
    let concurrent = ModeRun {
        answers: report.answers,
        io: tree.io_stats(),
        waited: backend.worker_reads(),
    };
    assert_answers_identical(kind, &sequential, &concurrent, "sequential vs concurrent");
    std::fs::remove_dir_all(&dir).ok();
}

/// Notes, per backend read, the disk and the name of the thread that
/// served it.
#[derive(Default)]
struct ReadSpy(Mutex<Vec<(u32, String)>>);

impl ReadObserver for ReadSpy {
    fn on_disk_read(&self, disk: u32, _queue_ns: u64, _service_ns: u64, _queue_depth: u32) {
        let name = thread::current().name().unwrap_or("").to_string();
        self.0.lock().unwrap().push((disk, name));
    }
}

/// What one spied run did: its work, and where each read was served.
struct SpiedRun {
    run: ModeRun,
    mean_nodes: f64,
    reads: Vec<(u32, String)>,
    /// Reads the backend served on the caller / handed to a worker (the
    /// latter also `run.waited`).
    split: (u64, u64),
    /// Whether the store still attempts non-blocking reads and, for an
    /// evicted run, whether the eviction took (a RAM-backed filesystem
    /// keeps its pages). Path assertions hold only when it is set.
    kernel_decides: bool,
}

/// A threaded-backend run over the store as it is — just written, so its
/// pages sit in the OS cache — or, with `evict`, after the OS was asked
/// to drop them: the two sides of the backend's per-read choice.
fn run_threaded_spied(dir: &Path, root: PageId, kind: AlgorithmKind, evict: bool) -> SpiedRun {
    let tree = open_tree(dir, root);
    let store = Arc::clone(tree.store());
    let mut kernel_decides = true;
    if evict {
        store.evict_from_os_cache().unwrap();
        // Probe a page on another disk than the root's, so the root's
        // file stays untouched (a declined read may start read-ahead).
        let root_disk = store.placement(root).unwrap().disk;
        let probe = (0..)
            .map(PageId::from_raw)
            .find(|p| store.placement(*p).is_ok_and(|at| at.disk != root_disk))
            .unwrap();
        kernel_decides = store.read_resident(probe).unwrap().1.is_none();
        store.reset_stats();
    }
    let spy = Arc::new(ReadSpy::default());
    let backend = Arc::new(ThreadedFileBackend::with_observer(
        Arc::clone(&store),
        Arc::<ReadSpy>::clone(&spy),
    ));
    let engine = RealTimeEngine::new(&tree, Arc::<ThreadedFileBackend>::clone(&backend)).unwrap();
    let report = engine.run(kind, &workload(), 1).unwrap();
    assert_eq!(report.failed, 0, "{kind}");
    let reads = spy.0.lock().unwrap().clone();
    SpiedRun {
        run: ModeRun {
            answers: report.answers,
            io: tree.io_stats(),
            waited: backend.worker_reads(),
        },
        mean_nodes: report.mean_nodes_per_query,
        reads,
        split: (backend.inline_reads(), backend.worker_reads()),
        kernel_decides: kernel_decides && store.nowait_supported(),
    }
}

/// Where a read is served is the kernel's call and never changes an
/// answer: a run over resident pages, a run after the OS dropped them
/// and a run through `InlineBackend` return the same answers for all four
/// algorithms and the frontier. BBSS, FPSS and WOPTSS also visit the same
/// nodes and leave the same store `IoStats` in all three. CRSS and the
/// frontier do the inline run's work wherever every read stayed in memory
/// (`inline_reads == reads`); where some read waited on a disk, they
/// widened the round after it.
#[test]
fn resident_evicted_and_inline_runs_agree() {
    let dir = tmpdir("residency");
    let root = build_store(&dir);
    for kind in KINDS {
        let inline = run_real(&dir, root, kind, false);
        let resident = run_threaded_spied(&dir, root, kind, false);
        let evicted = run_threaded_spied(&dir, root, kind, true);
        for (what, spied) in [("resident", &resident), ("evicted", &evicted)] {
            assert_answers_identical(kind, &inline, &spied.run, what);
            assert_work_identical(kind, &inline, &spied.run, what);
            // (WOPTSS's oracle pre-pass reads the store past the backend.)
            assert_eq!(
                spied.split.0 + spied.split.1,
                spied.reads.len() as u64,
                "{kind} {what}: inline + worker reads account for every backend read"
            );
            assert!(
                spied.reads.len() as u64 <= spied.run.io.reads,
                "{kind} {what}"
            );
        }
        if same_work_expected(kind, &resident.run, &evicted.run) {
            assert_eq!(
                resident.mean_nodes.to_bits(),
                evicted.mean_nodes.to_bits(),
                "{kind}: nodes visited"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// At `concurrency == 1` a query over resident pages never leaves its
/// thread, reads included; once the pages are gone from the OS cache the
/// reads that would block are the disk workers' again.
#[test]
fn resident_reads_stay_on_the_caller() {
    let dir = tmpdir("read-threads");
    let root = build_store(&dir);
    let kind = AlgorithmKind::Crss;
    let on_worker = |(disk, name): &(u32, String)| *name == format!("sqda-disk{disk}");

    let resident = run_threaded_spied(&dir, root, kind, false);
    assert_eq!(resident.reads.len() as u64, resident.run.io.reads);
    if resident.kernel_decides {
        assert!(
            !resident.reads.iter().any(on_worker),
            "{:?}",
            resident.reads
        );
        assert_eq!(resident.split.1, 0, "nothing handed to a worker");
    }

    let evicted = run_threaded_spied(&dir, root, kind, true);
    assert_eq!(evicted.reads.len() as u64, evicted.run.io.reads);
    if evicted.kernel_decides {
        // The run's first read is the root, on a file nothing has
        // touched since the eviction.
        assert!(on_worker(&evicted.reads[0]), "{:?}", evicted.reads);
        assert!(evicted.split.1 >= 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Forwards to the tree and notes which threads the engine probes the
/// node cache from — the session thread of every round.
struct ThreadSpy<'a> {
    inner: &'a RStarTree<FileStore>,
    seen: Mutex<HashSet<ThreadId>>,
}

impl AccessMethod for ThreadSpy<'_> {
    fn root_page(&self) -> PageId {
        self.inner.root_page()
    }
    fn num_disks(&self) -> u32 {
        AccessMethod::num_disks(self.inner)
    }
    fn read_index_node(&self, page: PageId) -> Result<IndexNode, QueryError> {
        self.inner.read_index_node(page)
    }
    fn placement(&self, page: PageId) -> Result<Placement, QueryError> {
        AccessMethod::placement(self.inner, page)
    }
    fn cached_index_node(&self, page: PageId) -> Result<Option<IndexNode>, QueryError> {
        self.seen.lock().unwrap().insert(thread::current().id());
        self.inner.cached_index_node(page)
    }
    fn decode_index_node(&self, page: PageId, bytes: Bytes) -> Result<IndexNode, QueryError> {
        self.inner.decode_index_node(page, bytes)
    }
}

/// One worker and four run the same worker body: same answers, same
/// store `IoStats` — and the lone worker is the caller itself, so a
/// served query never leaves its connection thread, while a concurrent
/// run leaves the caller free. No node cache here: every page goes to
/// the backend, so concurrent sessions cannot race on cache fills and
/// the read counts are exact.
#[test]
fn lone_worker_runs_on_the_caller_with_identical_work() {
    let dir = tmpdir("caller-thread");
    let root = build_store(&dir);
    for kind in KINDS {
        let run = |concurrency: usize| {
            let tree = attach(&dir, root);
            let spy = ThreadSpy {
                inner: &tree,
                seen: Mutex::new(HashSet::new()),
            };
            let backend = Arc::new(ThreadedFileBackend::new(Arc::clone(tree.store())));
            let engine =
                RealTimeEngine::new(&spy, Arc::<ThreadedFileBackend>::clone(&backend)).unwrap();
            let report = engine.run(kind, &workload(), concurrency).unwrap();
            assert_eq!(report.failed, 0, "{kind} x{concurrency}");
            let run = ModeRun {
                answers: report.answers,
                io: tree.io_stats(),
                waited: backend.worker_reads(),
            };
            (run, spy.seen.into_inner().unwrap())
        };
        let (one, one_threads) = run(1);
        let (four, four_threads) = run(4);
        assert!(one.io.reads > 0, "{kind}: the runs must reach the backend");
        assert_answers_identical(kind, &one, &four, "1 worker vs 4");
        assert_work_identical(kind, &one, &four, "1 worker vs 4");
        let caller = thread::current().id();
        assert_eq!(
            one_threads,
            HashSet::from([caller]),
            "{kind}: concurrency 1 must drive its sessions on the caller's thread"
        );
        assert!(
            !four_threads.is_empty() && !four_threads.contains(&caller),
            "{kind}: concurrency 4 must drive its sessions on spawned workers"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Serves every read through an [`InlineBackend`], then hands each
/// completion to `rewrite` before the engine sees it: a backend that
/// reports what the test needs it to (a failed disk, a read that waited).
struct Rewriting<F> {
    inner: InlineBackend<FileStore>,
    rewrite: F,
}

impl<F: Fn(&mut ReadCompletion) + Send + Sync> IoBackend for Rewriting<F> {
    fn submit_batch(&self, pages: &[PageId]) -> Receiver<ReadCompletion> {
        let (tx, rx) = channel();
        for mut completion in self.inner.submit_batch(pages) {
            (self.rewrite)(&mut completion);
            tx.send(completion).unwrap();
        }
        rx
    }
    fn name(&self) -> &'static str {
        "rewriting"
    }
    fn num_disks(&self) -> u32 {
        self.inner.num_disks()
    }
}

/// A query the real-clock engine gives up on is narrated to the end:
/// every `query_arrive` in the flight ring is closed by a
/// `query_complete` or a `query_abort`, so the folded metrics count the
/// aborts the report counts and a Perfetto export keeps no unterminated
/// span. (The engine used to leave through `?` with the arrival already
/// narrated and nothing after it.)
#[test]
fn failed_real_queries_are_narrated_as_aborts() {
    let dir = tmpdir("aborts");
    let root = build_store(&dir);
    let tree = open_tree(&dir, root);
    // Not the root's disk: queries get under way, and those that never
    // need the bad disk complete.
    let root_disk = tree.store().placement(root).unwrap().disk.0;
    let bad_disk = (root_disk + 1) % NUM_DISKS;
    let backend = Arc::new(Rewriting {
        inner: InlineBackend::new(Arc::clone(tree.store())),
        rewrite: move |c: &mut ReadCompletion| {
            if c.disk == bad_disk {
                c.result = Err(StorageError::PageNotFound(c.page));
            }
        },
    });
    let live = Arc::new(sqda_obs::LiveTelemetry::new(NUM_DISKS).with_flight_recorder(8192));
    let engine = RealTimeEngine::new(&tree, backend)
        .unwrap()
        .with_telemetry(Arc::clone(&live))
        .unwrap();
    let report = engine.run(AlgorithmKind::Crss, &workload(), 1).unwrap();
    assert!(report.failed > 0, "the bad disk must be hit");
    assert_eq!(report.completed + report.failed, queries().len());
    for (_, err) in &report.failures {
        assert!(matches!(err, QueryError::Storage(_)), "{err:?}");
    }

    let count = |events: &[(u64, Event)], kind: &str| {
        events.iter().filter(|(_, e)| e.kind() == kind).count()
    };
    let flight = live.flight().unwrap().drain();
    assert_eq!(count(&flight, "query_abort"), report.failed);
    assert_eq!(count(&flight, "query_complete"), report.completed);
    assert_eq!(count(&flight, "query_arrive"), queries().len());
    let snapshot = MetricsSnapshot::from_events(&flight);
    assert_eq!(snapshot.queries_aborted.0, report.failed as u64);
    assert_eq!(live.snapshot().queries_aborted.0, report.failed as u64);
    // Folding at query end drops no round, an aborted query's included.
    let issued: Vec<f64> = flight
        .iter()
        .filter_map(|(_, e)| match *e {
            Event::BatchIssued { size, .. } => Some(size as f64),
            _ => None,
        })
        .collect();
    let batch_size = live.snapshot().batch_size;
    assert_eq!(batch_size.count(), issued.len() as u64);
    assert_eq!(batch_size.sum(), issued.iter().sum::<f64>());
    std::fs::remove_dir_all(&dir).ok();
}
