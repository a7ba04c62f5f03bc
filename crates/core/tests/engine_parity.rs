//! The SS-tree under every executor: a tree on a `FileStore` with a node
//! cache answers bit for bit alike under the logical executor, the
//! simulator and the real-clock engine (inline and threaded backends),
//! for all four algorithms and the best-first frontier, and does the same
//! I/O work — the same page
//! reads per disk and the same cache hits and misses.
//!
//! The real engine probes the cache itself and completes each miss from
//! the bytes its backend read, so a node read goes to the store once,
//! as it does under the logical executor. The work contract is the one
//! `core/tests/backend_parity.rs` states for the R\*-tree: the simulator's
//! disks serve the reads of a logical run without a cache, and real CRSS
//! or frontier served from memory does the logical run's work at
//! activation bound 1.

use sqda_core::{
    exec::run_query, AlgorithmKind, BatchResult, Crss, Frontier, IndexNode, Neighbor,
    RealTimeEngine, RunOptions, SimilaritySearch, Simulation, Step, Workload, WorkloadQuery,
};
use sqda_geom::rng::Rng;
use sqda_geom::Point;
use sqda_rstar::{SsConfig, SsTree};
use sqda_simkernel::{SimTime, SystemParams};
use sqda_storage::{
    FileStore, InlineBackend, IoBackend, IoStats, NodeCache, PageId, PageStore, ThreadedFileBackend,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const DISKS: u32 = 4;
const PAGE_SIZE: usize = 1024;

/// A deterministic 3-d SS-tree persisted in a fresh directory, counters
/// zeroed; `cached` attaches a cold node cache.
fn build(name: &str, cached: bool) -> (SsTree<FileStore>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("sqda-ss-engine-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(FileStore::create(&dir, DISKS, 100, PAGE_SIZE, 11).unwrap());
    let mut tree = SsTree::create(store, SsConfig::with_page_size(3, PAGE_SIZE)).unwrap();
    let mut rng = Rng::seed_from_u64(21);
    for i in 0..600u64 {
        let p = Point::new((0..3).map(|_| rng.gen_range(0.0..100.0)).collect());
        tree.insert(p, i).unwrap();
    }
    assert!(
        tree.height() >= 3,
        "the tree must have a directory below its root"
    );
    tree.store().sync().unwrap();
    tree.store().reset_stats();
    if cached {
        tree.set_node_cache(Arc::new(NodeCache::new(4096)));
    }
    (tree, dir)
}

fn queries() -> Vec<Point> {
    let mut rng = Rng::seed_from_u64(22);
    (0..6)
        .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..100.0)).collect()))
        .collect()
}

const K: usize = 7;

fn workload() -> Workload {
    let queries = queries().into_iter().enumerate();
    Workload {
        queries: queries
            .map(|(i, point)| WorkloadQuery {
                arrival: SimTime::from_millis_f64(i as f64 * 5.0),
                point,
                k: K,
            })
            .collect(),
    }
}

/// One mode's answers and I/O work.
struct ModeRun {
    answers: Vec<Vec<Neighbor>>,
    io: IoStats,
}

/// The logical executor's run. Without a cache, the WOPTSS oracle's
/// preparatory reads are taken back out of the counters: its store then
/// sees exactly the reads the queries made, the simulator's disk work.
fn logical(kind: AlgorithmKind, cached: bool, bound: Option<usize>) -> ModeRun {
    let (tree, dir) = build(&format!("logical-{kind}-{cached}"), cached);
    let mut oracle = vec![0u64; DISKS as usize];
    let mut answers = Vec::new();
    for q in queries() {
        let before = tree.io_stats().reads_per_disk;
        let mut algo: Box<dyn SimilaritySearch> = match (bound, kind) {
            (Some(u), AlgorithmKind::Crss) => Box::new(Crss::with_activation_bound(&tree, q, K, u)),
            (Some(u), AlgorithmKind::Frontier) => {
                Box::new(Frontier::with_activation_bound(&tree, q, K, u))
            }
            _ => kind.build(&tree, q, K).unwrap(),
        };
        let after = tree.io_stats().reads_per_disk;
        for (o, (a, b)) in oracle.iter_mut().zip(after.iter().zip(before)) {
            *o += if cached { 0 } else { a - b };
        }
        answers.push(run_query(&tree, algo.as_mut()).unwrap().results);
    }
    let mut io = tree.io_stats();
    for (reads, o) in io.reads_per_disk.iter_mut().zip(oracle) {
        *reads -= o;
        io.reads -= o;
    }
    std::fs::remove_dir_all(dir).ok();
    ModeRun { answers, io }
}

/// Stashes the inner algorithm's answers when it finishes: the capture
/// seam for the simulator, which never reads answers itself.
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
            let answers = self.inner.results();
            self.sink.lock().unwrap().insert(self.query, answers);
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

fn simulated(kind: AlgorithmKind) -> ModeRun {
    let (tree, dir) = build(&format!("sim-{kind}"), true);
    let sim = Simulation::new(&tree, SystemParams::with_disks(DISKS)).unwrap();
    let sink: Arc<Mutex<BTreeMap<usize, Vec<Neighbor>>>> = Arc::default();
    let mut factory = |query, point, k| -> Box<dyn SimilaritySearch> {
        let inner = kind.build(&tree, point, k).unwrap();
        let sink = Arc::clone(&sink);
        Box::new(Spy { inner, query, sink })
    };
    let report = sim
        .run_with(
            &workload(),
            13,
            RunOptions::factory(kind.name(), &mut factory),
        )
        .unwrap();
    assert_eq!(report.failed, 0, "{kind}");
    let answers = sink.lock().unwrap().values().cloned().collect();
    std::fs::remove_dir_all(dir).ok();
    ModeRun {
        answers,
        io: report.io_stats(),
    }
}

fn real(kind: AlgorithmKind, threaded: bool) -> ModeRun {
    let (tree, dir) = build(&format!("real-{kind}-{threaded}"), true);
    let store = Arc::clone(tree.store());
    let backend: Arc<dyn IoBackend> = if threaded {
        Arc::new(ThreadedFileBackend::new(store))
    } else {
        Arc::new(InlineBackend::new(store))
    };
    let engine = RealTimeEngine::new(&tree, backend).unwrap();
    let report = engine.run(kind, &workload(), 1).unwrap();
    assert_eq!(report.failed, 0, "{kind}");
    let answers = report.answers.clone();
    drop(engine);
    let io = tree.io_stats();
    std::fs::remove_dir_all(dir).ok();
    ModeRun { answers, io }
}

fn assert_same(kind: AlgorithmKind, a: &ModeRun, b: &ModeRun, what: &str) {
    assert_eq!(a.answers.len(), queries().len(), "{kind}: {what}");
    assert_eq!(a.answers.len(), b.answers.len(), "{kind}: {what}");
    for (q, (want, got)) in a.answers.iter().zip(&b.answers).enumerate() {
        let bits = |n: &[Neighbor]| -> Vec<(u64, u64)> {
            n.iter()
                .map(|n| (n.object.0, n.dist_sq.to_bits()))
                .collect()
        };
        assert_eq!(bits(want), bits(got), "{kind} query {q}: {what}");
    }
    let work = |io: &IoStats| {
        (
            io.reads,
            io.reads_per_disk.clone(),
            io.cache_hits,
            io.cache_misses,
        )
    };
    assert_eq!(work(&a.io), work(&b.io), "{kind} I/O work: {what}");
}

#[test]
fn sstree_answers_and_io_agree_across_executors() {
    for kind in AlgorithmKind::ALL
        .into_iter()
        .chain([AlgorithmKind::Frontier])
    {
        let cached = logical(kind, true, None);
        assert!(
            cached.io.reads > 0 && cached.io.cache_hits > 0,
            "{kind}: the workload must exercise both the store and the cache"
        );
        assert_same(
            kind,
            &logical(kind, false, None),
            &simulated(kind),
            "uncached logical vs simulated",
        );
        let from_memory = match kind {
            AlgorithmKind::Crss | AlgorithmKind::Frontier => logical(kind, true, Some(1)),
            _ => cached,
        };
        for threaded in [false, true] {
            let what = if threaded {
                "real threaded"
            } else {
                "real inline"
            };
            assert_same(kind, &from_memory, &real(kind, threaded), what);
        }
    }
}
