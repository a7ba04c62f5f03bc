//! `experiment bench_scale`: the out-of-core external bulk build at scale — build
//! wall time plus cold/warm k-NN latency, swept over population.
//!
//! Not a figure from the paper: the paper bulk-loads its largest set
//! (Table 3, 240k objects) in RAM. This run exercises the regime the
//! external builder exists for — populations whose sort state cannot be
//! resident — by streaming points from a generator (never materializing
//! the dataset), spilling bounded sort runs through a scratch store, and
//! serving k-NN afterwards through a **byte-budgeted** node cache, so
//! both build and query sides run under a fixed memory cap.
//!
//! At the smallest scale the dataset is also built with the in-RAM
//! `bulk_load` and every query's answers are asserted bit-identical —
//! the external path must change how the tree is built, never what it
//! answers.
//!
//! Wall-clock numbers are `Direction::Info` (host-dependent); the
//! deterministic shape of the build and the traversal — spilled pages,
//! cold reads per query, warm-cache hit ratio, average node fill — are
//! gated through `check_regression`. Runs, merge passes, peak scratch,
//! node count and height are recorded as `Info`, and so is the largest
//! scale rebuilt under the builder's default options (its metrics carry
//! a `run_capacity` label besides `n`); `check_regression --scale` reads
//! the fragment for the build's scaling band and file-call budget.
//!
//! Emits `bench_scale.csv` and the fragment `bench/bench_scale.json`
//! under `--out` (default `results/`).

use sqda_bench::{
    experiment_page_size, f2, f4,
    report::{BinReport, Direction},
    ExpOptions, ResultsTable,
};
use sqda_core::{best_first_knn, Neighbor};
use sqda_datasets::uniform_stream;
use sqda_geom::Point;
use sqda_obs::stats::percentile;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{ExternalBuildOptions, FnSource, Node, PackingOrder, RStarConfig, RStarTree};
use sqda_storage::{FileStore, NodeCache};
use std::sync::Arc;
use std::time::Instant;

const DISKS: u32 = 8;
const K: usize = 10;
const DIM: usize = 2;
const SEED: u64 = 7201;
/// Points per sort run: small enough that every scale point actually
/// spills, large enough that the merge tree stays shallow.
const RUN_CAPACITY: usize = 1 << 15;
/// Resident-node budget for the byte-budgeted cache (2 MiB): a few
/// thousand 2-d nodes — far below the 1M+ trees, so the cold/warm gap
/// is real.
const CACHE_BYTES: usize = 2 << 20;

/// Times one k-NN pass over `queries`, returning (sorted latencies in
/// seconds, answers).
fn knn_pass(tree: &RStarTree<FileStore>, queries: &[Point]) -> (Vec<f64>, Vec<Vec<Neighbor>>) {
    let mut lat = Vec::with_capacity(queries.len());
    let mut answers = Vec::with_capacity(queries.len());
    for q in queries {
        let t = Instant::now();
        let a = best_first_knn(tree, q, K).expect("knn");
        lat.push(t.elapsed().as_secs_f64());
        answers.push(a);
    }
    let mut sorted = lat;
    sorted.sort_by(f64::total_cmp);
    (sorted, answers)
}

/// The same objects at bit-identical distances.
fn assert_same_answer(got: &[Neighbor], want: &[Neighbor], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.object, b.object, "{what}");
        assert_eq!(a.dist_sq.to_bits(), b.dist_sq.to_bits(), "{what}");
    }
}

/// Runs the sweep (see the module docs).
pub fn run(opts: &ExpOptions) {
    let scales: &[usize] = opts.pick(&[50_000, 200_000], &[1_000_000, 10_000_000]);
    let page_size = experiment_page_size(DIM);
    let jobs = opts.jobs.clamp(1, 4);
    let n_queries = opts.queries();
    let queries: Vec<Point> = uniform_stream(n_queries, DIM, SEED ^ 0x5eed).collect();

    let root = std::env::temp_dir().join(format!("sqda-bench-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut report = BinReport::new("bench_scale", opts);
    report
        .param("dataset", format!("uniform-{DIM}d (streamed)"))
        .param("disks", DISKS)
        .param("k", K)
        .param("page_size", page_size)
        .param("run_capacity", RUN_CAPACITY)
        .param("cache_bytes", CACHE_BYTES)
        .param("queries", n_queries)
        .param("build_jobs", jobs)
        .master_seed(SEED);

    let mut table = ResultsTable::new(
        format!(
            "bench_scale — external build + byte-budget cache \
             ({DISKS} disks, k={K}, run cap {RUN_CAPACITY}, \
             cache {} KiB, {n_queries} queries)",
            CACHE_BYTES / 1024
        ),
        &[
            "n",
            "build(s)",
            "runs",
            "merges",
            "spilled_pages",
            "cold_mean(ms)",
            "cold_p95(ms)",
            "warm_mean(ms)",
            "warm_p95(ms)",
            "warm_hit_ratio",
            "avg_fill",
        ],
    );

    // One external build of the first `n` streamed points into a fresh
    // store under `root`; the scratch store is gone when it returns.
    let build_tree = |n: usize, build_opts: &ExternalBuildOptions| {
        let dest_dir = root.join(format!("tree-{n}"));
        let scratch_dir = root.join(format!("scratch-{n}"));
        let store = Arc::new(
            FileStore::create(&dest_dir, DISKS, 1449, page_size, SEED).expect("create store"),
        );
        let scratch = Arc::new(
            FileStore::create(&scratch_dir, DISKS, 1449, page_size, SEED ^ 1)
                .expect("create scratch"),
        );
        let source = FnSource::new(n as u64, DIM, move || {
            uniform_stream(n, DIM, SEED).zip(0u64..)
        });
        let t = Instant::now();
        let (tree, report) = RStarTree::bulk_load_external_stats(
            store.clone(),
            RStarConfig::with_page_size(DIM, page_size),
            Box::new(ProximityIndex),
            &source,
            &scratch,
            build_opts,
        )
        .expect("external build");
        let build_s = t.elapsed().as_secs_f64();
        // Exact: positional file calls behind every page the build moved.
        let io_calls = store.io_calls() + scratch.io_calls();
        drop(scratch);
        let _ = std::fs::remove_dir_all(&scratch_dir);
        store.sync().expect("sync store");
        eprintln!(
            "  built n={n} (runs of {}) in {build_s:.1}s: {} runs, {} merge passes, \
             {} scratch pages spilled (peak {}), {io_calls} file calls",
            build_opts.run_capacity,
            report.runs,
            report.merge_passes,
            report.spilled_pages,
            report.peak_scratch_pages
        );
        (tree, report, build_s, io_calls, dest_dir)
    };

    for (si, &n) in scales.iter().enumerate() {
        let build_opts = ExternalBuildOptions {
            run_capacity: RUN_CAPACITY,
            jobs,
            ..ExternalBuildOptions::default()
        };
        let (mut tree, build, build_s, io_calls, dest_dir) = build_tree(n, &build_opts);

        // Query under a fixed resident-node budget: cold pass (empty
        // cache, every wavefront page read from file), then the same
        // queries warm.
        tree.set_node_cache(Arc::new(NodeCache::<Node>::new_bytes(
            CACHE_BYTES,
            Node::heap_bytes,
        )));
        let io0 = tree.io_stats();
        let (cold, cold_answers) = knn_pass(&tree, &queries);
        let io1 = tree.io_stats();
        let (warm, warm_answers) = knn_pass(&tree, &queries);
        let io2 = tree.io_stats();

        // Warm answers never drift from cold ones (the cache is
        // transparent), and at the smallest scale the external tree
        // answers bit-identically to the in-RAM bulk loader.
        assert_eq!(cold_answers.len(), warm_answers.len());
        for (c, w) in cold_answers.iter().zip(&warm_answers) {
            assert_same_answer(c, w, "warm pass changed an answer");
        }
        if si == 0 {
            let ram_dir = root.join(format!("tree-ram-{n}"));
            let ram_store = Arc::new(
                FileStore::create(&ram_dir, DISKS, 1449, page_size, SEED)
                    .expect("create reference store"),
            );
            let points = uniform_stream(n, DIM, SEED).zip(0u64..).collect();
            let ram_tree = RStarTree::bulk_load(
                ram_store,
                RStarConfig::with_page_size(DIM, page_size),
                Box::new(ProximityIndex),
                points,
                PackingOrder::Str,
            )
            .expect("in-memory build");
            for (q, external) in queries.iter().zip(&cold_answers) {
                let want = best_first_knn(&ram_tree, q, K).expect("reference knn");
                assert_same_answer(external, &want, "external build changed an answer");
            }
            let _ = std::fs::remove_dir_all(&ram_dir);
            eprintln!("  n={n}: external answers match the in-memory bulk load");
        }

        let cold_reads = (io1.reads - io0.reads) as f64 / n_queries as f64;
        let warm_lookups =
            (io2.cache_hits - io1.cache_hits) + (io2.cache_misses - io1.cache_misses);
        let warm_hit_ratio = if warm_lookups == 0 {
            0.0
        } else {
            (io2.cache_hits - io1.cache_hits) as f64 / warm_lookups as f64
        };
        let stats = tree.stats().expect("tree stats");
        let cold_mean = cold.iter().sum::<f64>() / cold.len() as f64;
        let warm_mean = warm.iter().sum::<f64>() / warm.len() as f64;

        table.row(vec![
            n.to_string(),
            f2(build_s),
            build.runs.to_string(),
            build.merge_passes.to_string(),
            build.spilled_pages.to_string(),
            f4(cold_mean * 1e3),
            f4(percentile(&cold, 0.95) * 1e3),
            f4(warm_mean * 1e3),
            f4(percentile(&warm, 0.95) * 1e3),
            f4(warm_hit_ratio),
            f2(stats.avg_fill),
        ]);
        let labels = [("n", n.to_string())];
        for (name, value, direction) in [
            ("build_wall_s", build_s, Direction::Info),
            ("cold_knn_mean_s", cold_mean, Direction::Info),
            ("warm_knn_mean_s", warm_mean, Direction::Info),
            (
                "spilled_pages",
                build.spilled_pages as f64,
                Direction::Lower,
            ),
            ("io_calls", io_calls as f64, Direction::Lower),
            ("cold_reads_per_query", cold_reads, Direction::Lower),
            ("warm_cache_hit_ratio", warm_hit_ratio, Direction::Higher),
            ("avg_fill", stats.avg_fill, Direction::Higher),
            ("runs", build.runs as f64, Direction::Info),
            ("merge_passes", build.merge_passes as f64, Direction::Info),
            (
                "peak_scratch_pages",
                build.peak_scratch_pages as f64,
                Direction::Info,
            ),
            ("nodes", stats.total_nodes() as f64, Direction::Info),
            ("height", tree.height() as f64, Direction::Info),
        ] {
            report.metric(name, &labels, &[value], direction);
        }
        drop(tree);
        let _ = std::fs::remove_dir_all(&dest_dir);
    }

    // The largest scale once more the way `sqda build --external` runs
    // it when given no options: runs of 2^18 points, one sort worker.
    let n = scales[scales.len() - 1];
    let defaults = ExternalBuildOptions::default();
    let (tree, build, build_s, io_calls, dest_dir) = build_tree(n, &defaults);
    drop(tree);
    let _ = std::fs::remove_dir_all(&dest_dir);
    let labels = [
        ("n", n.to_string()),
        ("run_capacity", defaults.run_capacity.to_string()),
    ];
    for (name, value) in [
        ("build_wall_s", build_s),
        ("runs", build.runs as f64),
        ("merge_passes", build.merge_passes as f64),
        ("spilled_pages", build.spilled_pages as f64),
        ("peak_scratch_pages", build.peak_scratch_pages as f64),
        ("io_calls", io_calls as f64),
    ] {
        report.metric(name, &labels, &[value], Direction::Info);
    }

    table.print();
    table.write_csv(&opts.out_dir, "bench_scale");
    report.finish(opts);
    std::fs::remove_dir_all(&root).ok();
}
