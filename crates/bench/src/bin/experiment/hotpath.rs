//! `experiment bench_hotpath`: quantifies the zero-copy node read path and
//! the batched distance kernels.
//!
//! Per-rep samples, written to its fragment `bench/bench_hotpath.json`
//! (each figure the mean ± CI of its samples):
//!
//! * `decode_leaf_ns` / `decode_internal_ns` — one full-page node decode
//!   (the flat layout turns this into two allocations);
//! * `warm_traversal_ns_per_node` — full-tree DFS through `read_node`
//!   with every page resident in the decoded-node cache (an `Arc` clone
//!   per node, no entry copies);
//! * `knn_warm_ns_per_query` — end-to-end best-first k-NN
//!   ([`best_first_knn_with`]) with a reused [`QueryScratch`] over a warm
//!   cache;
//! * `kernel_ns_per_entry` — ns/entry for the batched `dist_sq`, MINDIST and
//!   three-metric rectangle kernels at dims 2, 3, 5 and 8 (const-generic
//!   bodies) and 10 (runtime `dim`), batch sizes 1/8/64 (one entry, a
//!   small node, a large fanout);
//! * `batch_knn_ns_per_query` — one `RealTimeEngine::run_query_batch` of
//!   8 queries over an `InlineBackend` (8 FPSS machines reading each
//!   round's page union once), plus its deterministic fetch-sharing
//!   counters;
//! * `crss_hot_query_ns`, `allocs_per_query`, `bytes_per_query` — one
//!   `RealTimeEngine::query` of a CRSS k-NN query over a reused
//!   [`QueryScratch`] (what `sqda serve`'s `QUERY` calls) over a 100 000-point
//!   STR-packed tree that is entirely in the decoded-node cache: wall time,
//!   and what it asks of the allocator (counted by the `experiment` binary's
//!   `#[global_allocator]`; exact);
//! * `crss_hot_nodes_per_query`, `crss_hot_rounds_per_query` — that
//!   query's nodes and fetch rounds (exact). Every read is free, so CRSS
//!   takes one branch per round and the two are equal;
//! * `frontier_hot_query_ns`, `frontier_hot_nodes_per_query`,
//!   `frontier_hot_rounds_per_query` — the same query through the
//!   best-first frontier, `sqda serve`'s default: one page per round, and
//!   exactly WOPTSS's nodes, so no more than CRSS's;
//! * `insert_ns_per_object` — one object inserted into the tree every
//!   other section reads (the paper's one-at-a-time construction, 2 000
//!   objects, timed per whole build), and `insert_reads_per_object`,
//!   `insert_writes_per_object`, `insert_allocs_per_object` — the store
//!   reads and writes and the allocations one such build makes per
//!   object (exact);
//! * `telemetry_ns` — what the live telemetry plane charges: per
//!   `observe_query` fold of a served query's three-round record, alone
//!   and while seven writer threads fold records into the same registry,
//!   per flight-recorder push, and per
//!   Prometheus render of a plane that has seen 10 000 queries (off the
//!   query path).
//!
//! The trees are built deterministically (no RNG), so the byte layout
//! under measurement is identical across runs and machines; only the
//! timings vary. Of the shared flags it reads `--out <dir>` and `--reps
//! <n>` (default 30); the measurement set is fixed whatever `--quick`,
//! `--jobs` or `--warmup` say. Timings are reported in the fragment
//! as informational metrics (machine-dependent, never compared across
//! hosts); the batch traversal's fetch counters, the hot query's
//! allocation counts and the insert's reads, writes and allocations are
//! exact and Direction-tagged, so the regression gate catches a sharing,
//! pruning, allocation or re-read regression numerically.

use sqda_bench::{
    report::{BinReport, Direction},
    ExpOptions,
};
use sqda_core::{best_first_knn_with, AlgorithmKind, QueryScratch, RealTimeEngine};
use sqda_geom::{kernel, Point};
use sqda_obs::{Event, LiveTelemetry, QueryExplain};
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{codec, PackingOrder, RStarConfig, RStarTree};
use sqda_storage::{ArrayStore, InlineBackend, NodeCache, PageId, PageStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

const OBJECTS: usize = 2000;
const DEFAULT_REPS: usize = 30;
const DECODES_PER_REP: usize = 1000;
const KNN_QUERIES: usize = 20;
const K: usize = 10;
const KERNEL_DIMS: [usize; 5] = [2, 3, 5, 8, 10];
const KERNEL_BATCHES: [usize; 3] = [1, 8, 64];
const KERNELS: [&str; 3] = ["dist_sq", "min_dist", "rect_metrics"];
const BATCH_B: usize = 8;
const SERVED_OBJECTS: u64 = 100_000;
const SERVED_QUERIES: u64 = 256;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts what the process asks of the allocator while `COUNTING` is on:
/// the hot-query section turns it on around single-threaded `engine.query`
/// calls, so the sweeps of the other experiments pay one relaxed load.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statics of plain atomics, touched without allocating.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The timing loop every section uses: `reps` samples, each the
/// nanoseconds per unit of work of `calls` back-to-back `f(i)` (over
/// `i in 0..calls`) that together do `units` units.
fn sample_ns(reps: usize, calls: usize, units: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            (0..calls).for_each(&mut f);
            start.elapsed().as_nanos() as f64 / units as f64
        })
        .collect()
}

/// The tree every section but the hot query reads, built by insertion.
fn build_tree() -> RStarTree<ArrayStore> {
    let store = Arc::new(ArrayStore::with_page_size(10, 1449, 1024, 1));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::with_page_size(2, 1024),
        Box::new(ProximityIndex),
    )
    .expect("tree creation");
    for i in 0..OBJECTS {
        let x = ((i * 7919) % 2003) as f64 * 0.5;
        let y = ((i * 104_729) % 1999) as f64 * 0.25;
        tree.insert(Point::new(vec![x, y]), i as u64)
            .expect("insert");
    }
    tree
}

/// The tree the hot-query section serves from: the benchmark store's
/// geometry (2-d, 1 KiB pages, 8 disks, STR-packed) at a tenth of its
/// size, behind a node cache that holds all of it.
fn build_served_tree() -> RStarTree<ArrayStore> {
    let points = (0..SERVED_OBJECTS)
        .map(|i| {
            let x = (i % 317) as f64 + ((i * 7919) % 13) as f64 / 16.0;
            let y = (i / 317) as f64 + ((i * 104_729) % 11) as f64 / 16.0;
            (Point::new(vec![x, y]), i)
        })
        .collect();
    let store = Arc::new(ArrayStore::with_page_size(8, 1449, 1024, 1));
    let config = RStarConfig::with_page_size(2, 1024);
    let mut tree = RStarTree::bulk_load(
        store,
        config,
        Box::new(ProximityIndex),
        points,
        PackingOrder::Str,
    )
    .expect("bulk load");
    tree.set_node_cache(Arc::new(NodeCache::new(65_536)));
    tree
}

/// Nanoseconds per telemetry operation, one sample per rep, for the ops
/// `telemetry_ns` names.
fn telemetry_costs(reps: usize) -> Vec<(&'static str, Vec<f64>)> {
    // One served query's record, as the engine hands it over: 14 nodes
    // in 3 rounds. Each fold gets its own id and response time.
    let served = QueryExplain {
        algo: "CRSS".into(),
        k: 10,
        answers: 10,
        nodes: 14,
        batches: 3,
        batch_sizes: vec![1, 6, 7],
        disk_queue_ms: 0.3,
        disk_service_ms: 1.2,
        cpu_ms: 0.08,
        ..QueryExplain::default()
    };
    let observation = |record: &mut QueryExplain, i: usize| {
        record.query = i as u32;
        record.response_ms = 2.0 + i as f64 * 1e-3;
    };

    let live = LiveTelemetry::new(8);
    let mut record = served.clone();
    let observe_query = sample_ns(reps, 20_000, 20_000, |i| {
        observation(&mut record, i);
        live.observe_query(black_box(&record), false)
    });

    // Seven writer threads fold queries into the registry while this one
    // does: what a serving thread pays while others complete queries.
    let shared = LiveTelemetry::new(8);
    let stop = AtomicBool::new(false);
    let contended = std::thread::scope(|s| {
        for t in 0..7 {
            let (shared, stop, mut record) = (&shared, &stop, served.clone());
            s.spawn(move || {
                let mut i = t;
                while !stop.load(Relaxed) {
                    observation(&mut record, i);
                    shared.observe_query(&record, false);
                    i += 7;
                }
            });
        }
        let samples = sample_ns(reps, 20_000, 20_000, |i| {
            observation(&mut record, i);
            shared.observe_query(black_box(&record), false)
        });
        stop.store(true, Relaxed);
        samples
    });

    let flight = LiveTelemetry::new(8).with_flight_recorder(65_536);
    let flight_record = sample_ns(reps, 20_000, 20_000, |i| {
        flight.record_event(i as u64, black_box(Event::QueryArrive { query: i as u32 }))
    });

    let loaded = LiveTelemetry::new(8).with_flight_recorder(4096);
    for i in 0..10_000 {
        loaded.begin_query();
        loaded.observe_disk_read((i % 8) as u32, 300_000, 1_200_000, (i % 5) as u32);
        observation(&mut record, i);
        loaded.observe_query(&record, false);
    }
    let render = sample_ns(reps, 20, 20, |_| {
        black_box(loaded.prometheus(None, None).len());
    });

    vec![
        ("observe_query", observe_query),
        ("observe_query_contended", contended),
        ("flight_record", flight_record),
        ("prometheus_render", render),
    ]
}

/// DFS over the whole tree through `read_node`; returns nodes touched.
fn traverse(tree: &RStarTree<ArrayStore>) -> u64 {
    let mut nodes = 0u64;
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.read_node(page).expect("read");
        nodes += 1;
        if !node.is_leaf() {
            stack.extend(node.internal_iter().map(|e| e.child));
        }
    }
    nodes
}

/// First leaf page and first internal page (when the tree has one).
fn sample_pages(tree: &RStarTree<ArrayStore>) -> (PageId, Option<PageId>) {
    let mut page = tree.root_page();
    let mut internal = None;
    loop {
        let node = tree.read_node(page).expect("read");
        if node.is_leaf() {
            return (page, internal);
        }
        internal = Some(page);
        page = node.internal_child(0);
    }
}

/// Runs the measurements (see the module docs).
pub fn run(opts: &ExpOptions) {
    let reps = opts.reps.unwrap_or(DEFAULT_REPS);

    // Insertion: one counted build (store I/O and allocations, exact),
    // then `reps` timed ones.
    COUNTING.store(true, Relaxed);
    let allocs_from = ALLOCS.load(Relaxed);
    let mut tree = build_tree();
    COUNTING.store(false, Relaxed);
    let per_object = |total: u64| total as f64 / OBJECTS as f64;
    let insert_allocs = per_object(ALLOCS.load(Relaxed) - allocs_from);
    let insert_io = tree.store().stats();
    let insert_reps = sample_ns(reps, 1, OBJECTS, |_| {
        black_box(build_tree());
    });
    tree.set_node_cache(Arc::new(NodeCache::new(8192)));
    let dim = tree.dim();

    // Decode: ns per decode_node call on a full page.
    let (leaf_page, internal_page) = sample_pages(&tree);
    let time_decode = |page: PageId| -> Vec<f64> {
        let bytes = tree.store().read(page).expect("read page");
        sample_ns(reps, DECODES_PER_REP, DECODES_PER_REP, |_| {
            black_box(codec::decode_node(bytes.clone(), dim, page).expect("decode"));
        })
    };
    let decode_leaf_reps = time_decode(leaf_page);
    let decode_internal_reps = internal_page.map(time_decode).unwrap_or_default();

    // Warm-cache traversal: ns per node over the whole tree.
    let node_count = traverse(&tree); // warms the cache
    let traversal_reps = sample_ns(reps, 1, node_count as usize, |_| {
        black_box(traverse(&tree));
    });

    // Warm end-to-end k-NN with a reused scratch heap.
    let queries: Vec<Point> = (0..KNN_QUERIES)
        .map(|i| {
            Point::new(vec![
                (i * 53 % 101) as f64 * 9.0,
                (i * 31 % 97) as f64 * 4.7,
            ])
        })
        .collect();
    let mut scratch = QueryScratch::new();
    for q in &queries {
        best_first_knn_with(&tree, q, K, &mut scratch).expect("knn"); // warm
    }
    let knn_reps = sample_ns(reps, queries.len(), queries.len(), |i| {
        let out = best_first_knn_with(&tree, &queries[i], K, &mut scratch).expect("knn");
        black_box(out.len());
    });

    // Kernel section: ns/entry for the batched dist_sq and MINDIST
    // kernels, over deterministic synthetic entries. Each sample times
    // enough calls to make one rep ≥ tens of microseconds.
    let mut kernel_samples: Vec<(usize, usize, &'static str, Vec<f64>)> = Vec::new();
    for &kdim in &KERNEL_DIMS {
        let q: Vec<f64> = (0..kdim).map(|d| d as f64 * 0.7 + 0.1).collect();
        for &batch in &KERNEL_BATCHES {
            let points: Vec<f64> = (0..batch * kdim).map(|i| (i % 131) as f64 * 0.37).collect();
            let rects: Vec<f64> = (0..batch)
                .flat_map(|e| {
                    let lo: Vec<f64> = (0..kdim).map(|d| ((e * kdim + d) % 97) as f64).collect();
                    let hi: Vec<f64> = lo.iter().map(|l| l + 3.5).collect();
                    lo.into_iter().chain(hi)
                })
                .collect();
            let calls = (20_000 / batch).max(50);
            let mut out = [Vec::new(), Vec::new(), Vec::new()];
            let mut time_kernel = |f: &dyn Fn(&mut [Vec<f64>; 3])| -> Vec<f64> {
                sample_ns(reps, calls, calls * batch, |_| {
                    f(&mut out);
                    black_box(out[0].last());
                })
            };
            let q = black_box(&q[..]);
            let samples = [
                time_kernel(&|out| kernel::batch_dist_sq(q, &points, &mut out[0])),
                time_kernel(&|out| kernel::batch_min_dist_sq(q, &rects, &mut out[0])),
                time_kernel(&|[d_min, d_mm, d_max]| {
                    kernel::batch_rect_metrics(q, &rects, d_min, d_mm, d_max)
                }),
            ];
            for (name, samples) in KERNELS.into_iter().zip(samples) {
                kernel_samples.push((kdim, batch, name, samples));
            }
        }
    }

    // Shared-round batch k-NN: B clustered-ish queries as B FPSS machines
    // reading each round's union once; the fetch counters are exact and
    // deterministic.
    let batch_queries: Vec<Point> = (0..BATCH_B)
        .map(|i| {
            Point::new(vec![
                (i * 53 % 101) as f64 * 9.0,
                (i * 31 % 97) as f64 * 4.7,
            ])
        })
        .collect();
    let batch_backend = Arc::new(InlineBackend::new(Arc::clone(tree.store())));
    let batch_engine = RealTimeEngine::new(&tree, batch_backend).expect("engine");
    let batch = || {
        batch_engine
            .run_query_batch(&batch_queries, K)
            .expect("batch")
            .0
    };
    let batch_report = batch();
    let batch_reps = sample_ns(reps, 1, batch_queries.len(), |_| {
        black_box(batch().answers.len());
    });

    // One served CRSS query, hot: `engine.query` over one scratch, as
    // `QUERY` calls it, every node a cache hit. Two settling passes (cache
    // fill, then the scratch reaching its steady size), an exact
    // allocation count of the calls alone (their points are copied before
    // counting starts, as `QUERY` parses its own), then timed passes.
    let served = build_served_tree();
    let backend = Arc::new(InlineBackend::new(Arc::clone(served.store())));
    let engine = RealTimeEngine::new(&served, backend).expect("engine");
    let served_points: Vec<Point> = (0..SERVED_QUERIES)
        .map(|i| {
            let q = vec![(i * 37 % 311) as f64 + 0.3, (i * 53 % 311) as f64 + 0.7];
            Point::new(q)
        })
        .collect();
    let mut served_scratch = QueryScratch::new();
    let mut serve_all = |kind: AlgorithmKind, points: Vec<Point>| {
        let (mut nodes, mut rounds) = (0, 0);
        for point in points {
            let run = engine
                .query(kind, point, K, None, &mut served_scratch)
                .expect("hot query");
            assert_eq!(run.results.len(), K);
            nodes += run.nodes_visited;
            rounds += run.batches;
        }
        let n = SERVED_QUERIES as f64;
        (nodes as f64 / n, rounds as f64 / n)
    };
    serve_all(AlgorithmKind::Crss, served_points.clone());
    serve_all(AlgorithmKind::Crss, served_points.clone());
    let points = served_points.clone();
    COUNTING.store(true, Relaxed);
    let counted_from = (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
    let (crss_nodes_per_query, crss_rounds_per_query) = serve_all(AlgorithmKind::Crss, points);
    COUNTING.store(false, Relaxed);
    let per_query = |total: u64| total as f64 / served_points.len() as f64;
    let allocs_per_query = per_query(ALLOCS.load(Relaxed) - counted_from.0);
    let bytes_per_query = per_query(ALLOC_BYTES.load(Relaxed) - counted_from.1);
    let crss_reps = sample_ns(reps, 1, served_points.len(), |_| {
        black_box(serve_all(AlgorithmKind::Crss, served_points.clone()));
    });
    let (frontier_nodes_per_query, frontier_rounds_per_query) =
        serve_all(AlgorithmKind::Frontier, served_points.clone());
    let frontier_reps = sample_ns(reps, 1, served_points.len(), |_| {
        black_box(serve_all(AlgorithmKind::Frontier, served_points.clone()));
    });

    let telemetry = telemetry_costs(reps);

    // Provenance manifest + schema-v2 fragment. Timings are Info-only
    // (nanosecond means are machine facts, not regression targets);
    // the batch traversal's fetch counters are exact over the
    // deterministic tree and query set, so they carry real directions
    // and the regression gate compares them numerically.
    let opts = ExpOptions {
        quick: false,
        reps: Some(reps),
        warmup: 0.0,
        ..opts.clone()
    };
    let mut report = BinReport::new("bench_hotpath", &opts);
    report
        .param("dim", dim)
        .param("page_size", 1024)
        .param("objects", OBJECTS)
        .param("nodes", node_count)
        .param("cache_pages", 8192)
        .master_seed(0);
    for (name, reps) in [
        ("decode_leaf_ns", &decode_leaf_reps),
        ("decode_internal_ns", &decode_internal_reps),
        ("warm_traversal_ns_per_node", &traversal_reps),
        ("knn_warm_ns_per_query", &knn_reps),
        ("batch_knn_ns_per_query", &batch_reps),
        ("crss_hot_query_ns", &crss_reps),
        ("frontier_hot_query_ns", &frontier_reps),
        ("insert_ns_per_object", &insert_reps),
    ] {
        if !reps.is_empty() {
            report.metric(name, &[], reps, Direction::Info);
        }
    }
    for (op, samples) in &telemetry {
        report.metric(
            "telemetry_ns",
            &[("op", op.to_string())],
            samples,
            Direction::Info,
        );
    }
    for (kdim, batch, name, samples) in &kernel_samples {
        let labels = [
            ("kernel", name.to_string()),
            ("dim", kdim.to_string()),
            ("batch", batch.to_string()),
        ];
        report.metric("kernel_ns_per_entry", &labels, samples, Direction::Info);
    }
    for (name, exact, direction) in [
        (
            "batch_knn_unique_fetches",
            batch_report.unique_fetches as f64,
            Direction::Lower,
        ),
        (
            "batch_knn_sharing_factor",
            batch_report.sharing_factor(),
            Direction::Higher,
        ),
        (
            "batch_knn_rounds",
            batch_report.rounds as f64,
            Direction::Lower,
        ),
        ("allocs_per_query", allocs_per_query, Direction::Lower),
        ("bytes_per_query", bytes_per_query, Direction::Lower),
        (
            "crss_hot_nodes_per_query",
            crss_nodes_per_query,
            Direction::Lower,
        ),
        (
            "crss_hot_rounds_per_query",
            crss_rounds_per_query,
            Direction::Lower,
        ),
        (
            "frontier_hot_nodes_per_query",
            frontier_nodes_per_query,
            Direction::Lower,
        ),
        (
            "frontier_hot_rounds_per_query",
            frontier_rounds_per_query,
            Direction::Lower,
        ),
        (
            "insert_reads_per_object",
            per_object(insert_io.reads),
            Direction::Lower,
        ),
        (
            "insert_writes_per_object",
            per_object(insert_io.writes),
            Direction::Lower,
        ),
        ("insert_allocs_per_object", insert_allocs, Direction::Lower),
    ] {
        report.metric(name, &[], &[exact], direction);
    }
    report.finish(&opts);
}
