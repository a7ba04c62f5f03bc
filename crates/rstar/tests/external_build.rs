//! Pins the out-of-core bulk builder against its own in-memory path.
//!
//! The external builder spills bounded sort runs through a scratch store
//! to change *how* the tree is built, never *what* gets built: same
//! destination store seed, same points ⇒ byte-identical pages on
//! identical disks whether the build spilled (many runs, multi-pass
//! merges, slabs sorted again) or fitted one run and went through the
//! in-memory tiler. The tiles are the in-memory [`RStarTree::bulk_load`]'s,
//! in its order; only placement differs — sibling striping puts each
//! prospective parent's children on distinct disks (up to the array
//! width). Another test holds a byte-budgeted node cache to its hard cap
//! while a k-NN sweep churns it.

use sqda_core::best_first_knn;
use sqda_geom::Point;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{
    ExternalBuildOptions, ExternalBuildReport, Node, PackingOrder, PointSource, RStarConfig,
    RStarError, RStarTree, SliceSource,
};
use sqda_storage::{
    ArrayStore, Bytes, DiskId, FileStore, IoStats, NodeCache, PageId, PageStore, Placement,
};
use std::sync::Arc;

const DISKS: u32 = 8;
const PAGE: usize = 1024;
const N: usize = 3000;

/// Deterministic, duplicate-free 2-d points with ids in insertion order.
fn points() -> Vec<(Point, u64)> {
    (0..N)
        .map(|i| {
            let x = ((i * 7919) % 4001) as f64 * 0.37;
            let y = ((i * 104_729) % 3989) as f64 * 0.61;
            (Point::new(vec![x, y]), i as u64)
        })
        .collect()
}

fn store(seed: u64) -> Arc<ArrayStore> {
    Arc::new(ArrayStore::with_page_size(DISKS, 1449, PAGE, seed))
}

/// Depth-first page walk from the root, last child first.
fn walk(tree: &RStarTree<ArrayStore>) -> Vec<PageId> {
    let mut frontier = vec![tree.root_page()];
    let mut pages = Vec::new();
    while let Some(page) = frontier.pop() {
        pages.push(page);
        let node = tree.read_node(page).unwrap();
        if !node.is_leaf() {
            frontier.extend(node.internal_iter().map(|e| e.child));
        }
    }
    pages
}

fn assert_same_tree(a: &RStarTree<ArrayStore>, b: &RStarTree<ArrayStore>, what: &str) {
    assert_eq!(a.root_page(), b.root_page(), "{what}");
    assert_eq!(a.root_level(), b.root_level(), "{what}");
    let pages = walk(a);
    assert_eq!(pages, walk(b), "{what}: page graph differs");
    for &page in &pages {
        assert_eq!(
            a.store().read(page).unwrap(),
            b.store().read(page).unwrap(),
            "{what}: page {page:?} bytes differ"
        );
        assert_eq!(
            a.store().placement(page).unwrap().disk,
            b.store().placement(page).unwrap().disk,
            "{what}: page {page:?} placed on a different disk"
        );
    }
}

/// Leaf bytes in walk order: the tiling, blind to which pages and disks
/// the nodes landed on.
fn leaves(tree: &RStarTree<ArrayStore>) -> Vec<Bytes> {
    walk(tree)
        .into_iter()
        .filter(|&page| tree.read_node(page).unwrap().is_leaf())
        .map(|page| tree.store().read(page).unwrap())
        .collect()
}

/// An external build of `source` into a fresh destination store,
/// spilling through `scratch`.
fn external(
    source: &dyn PointSource,
    dim: usize,
    scratch: &Arc<ArrayStore>,
    opts: ExternalBuildOptions,
) -> Result<(RStarTree<ArrayStore>, ExternalBuildReport), RStarError> {
    RStarTree::bulk_load_external_stats(
        store(42),
        RStarConfig::with_page_size(dim, PAGE),
        Box::new(ProximityIndex),
        source,
        scratch,
        &opts,
    )
}

/// The reference build: a run capacity of at least `n` sends the whole
/// input through the in-memory tiler, with no scratch traffic.
fn unspilled(pts: &[(Point, u64)], dim: usize) -> RStarTree<ArrayStore> {
    let opts = ExternalBuildOptions {
        run_capacity: pts.len(),
        ..ExternalBuildOptions::default()
    };
    let scratch = store(7);
    let (tree, report) = external(&SliceSource::new(pts), dim, &scratch, opts).unwrap();
    assert_eq!(report, ExternalBuildReport::default());
    assert_eq!(scratch.stats().writes, 0);
    tree
}

#[test]
fn external_build_is_byte_identical_to_in_memory() {
    let pts = points();
    let mem_tree = unspilled(&pts, 2);

    // Tiny runs and a narrow merge fan-in force real spills and at
    // least one multi-pass merge; two jobs exercise parallel run
    // formation.
    let opts = ExternalBuildOptions {
        run_capacity: 256,
        merge_fanin: 3,
        jobs: 2,
    };
    let (ext_tree, report) = external(&SliceSource::new(&pts), 2, &store(7), opts).unwrap();
    assert!(report.runs > 1, "build never spilled a run");
    assert!(report.spilled_pages > 0, "no scratch pages");
    assert!(report.merge_passes >= 1, "merge never ran");
    assert_same_tree(&mem_tree, &ext_tree, "runs of 256, fan-in 3");

    // The tiles are the in-memory STR loader's, in the same order; its
    // trailing-window placement only moves them to other pages.
    let str_tree = RStarTree::bulk_load(
        store(42),
        RStarConfig::with_page_size(2, PAGE),
        Box::new(ProximityIndex),
        pts,
        PackingOrder::Str,
    )
    .unwrap();
    assert_eq!(str_tree.root_level(), ext_tree.root_level());
    assert_eq!(leaves(&str_tree), leaves(&ext_tree));
}

#[test]
fn sibling_stripe_places_parent_groups_on_distinct_disks() {
    let pts = points();
    let opts = ExternalBuildOptions {
        run_capacity: 256,
        ..ExternalBuildOptions::default()
    };
    let (tree, _) = external(&SliceSource::new(&pts), 2, &store(7), opts).unwrap();

    // Sibling striping works in stride-aligned groups of the directory
    // fan-out, in write order: within each group the declusterer's
    // sibling-count tiebreak makes an unused disk always win, so the
    // first min(group, DISKS) pages of every group land on distinct
    // disks. Reconstruct write order per level (pages allocate
    // sequentially) and pin exactly that.
    let stride = tree.config().max_internal_entries;
    let mut levels: std::collections::BTreeMap<u32, Vec<PageId>> =
        std::collections::BTreeMap::new();
    for page in walk(&tree) {
        let node = tree.read_node(page).unwrap();
        levels.entry(node.level()).or_default().push(page);
    }
    let mut striped_groups = 0;
    for (level, mut pages) in levels {
        if level == tree.root_level() {
            continue;
        }
        pages.sort_unstable();
        for group in pages.chunks(stride) {
            let head = group.len().min(DISKS as usize);
            let mut disks: Vec<u32> = group[..head]
                .iter()
                .map(|&p| tree.store().placement(p).unwrap().disk.0)
                .collect();
            disks.sort_unstable();
            disks.dedup();
            assert_eq!(
                disks.len(),
                head,
                "level {level}: a stripe group's first {head} pages share a disk"
            );
            striped_groups += 1;
        }
    }
    assert!(striped_groups >= 4, "tree too shallow to test striping");
}

#[test]
fn byte_budget_cache_holds_its_cap_during_knn_sweep() {
    let pts = points();
    let mut tree = RStarTree::bulk_load(
        store(42),
        RStarConfig::with_page_size(2, PAGE),
        Box::new(ProximityIndex),
        pts,
        PackingOrder::Str,
    )
    .unwrap();
    // A budget of a handful of nodes, far below the tree's footprint,
    // so the sweep constantly evicts.
    let budget = 8 * 1024;
    let cache = Arc::new(NodeCache::<Node>::new_bytes(budget, Node::heap_bytes));
    tree.set_node_cache(Arc::clone(&cache));

    for i in 0..200 {
        let q = Point::new(vec![
            ((i * 53) % 4001) as f64 * 0.37,
            ((i * 31) % 3989) as f64 * 0.61,
        ]);
        let neighbors = best_first_knn(&tree, &q, 10).unwrap();
        assert_eq!(neighbors.len(), 10);
        let stats = cache.stats();
        assert!(
            stats.resident_bytes <= budget,
            "cache blew its budget after query {i}: {} > {budget}",
            stats.resident_bytes
        );
        assert_eq!(stats.byte_budget, budget);
        assert_eq!(stats.capacity, 0, "byte mode must report capacity 0");
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "sweep never hit the cache");
    assert!(stats.misses > 0, "sweep never missed the cache");
    assert!(stats.len > 0, "cache ended empty");
}

/// Deterministic, duplicate-free 3-d points.
fn points_3d(n: usize) -> Vec<(Point, u64)> {
    (0..n)
        .map(|i| {
            let x = ((i * 7919) % 6007) as f64 * 0.37;
            let y = ((i * 104_729) % 5987) as f64 * 0.61;
            let z = ((i * 1_299_709) % 5981) as f64 * 0.13;
            (Point::new(vec![x, y, z]), i as u64)
        })
        .collect()
}

#[test]
fn nested_external_sort_under_a_paused_stream_is_byte_identical() {
    // 6000 3-d points at 31 to a leaf: 194 leaves, so six first-axis
    // slabs of 1000 points and, inside each, six second-axis slabs of
    // 167. A run capacity of 256 sends every first-axis slab through a
    // nested external sort while the outer merge stream waits; 100 nests
    // once more, down to the last axis.
    const N3: usize = 6000;
    let pts = points_3d(N3);
    assert_eq!(
        RStarConfig::with_page_size(3, PAGE).max_leaf_entries,
        31,
        "the slab sizes above assume it"
    );
    let mem_tree = unspilled(&pts, 3);
    for (run_capacity, merge_fanin) in [(256, 64), (256, 3), (100, 2)] {
        let scratch = store(7);
        let opts = ExternalBuildOptions {
            run_capacity,
            merge_fanin,
            jobs: 1,
        };
        let (ext_tree, report) = external(&SliceSource::new(&pts), 3, &scratch, opts).unwrap();
        let what = format!("runs of {run_capacity}, fan-in {merge_fanin}");
        assert_same_tree(&mem_tree, &ext_tree, &what);
        let top_runs = N3.div_ceil(run_capacity) as u64;
        assert!(report.runs > top_runs, "{what}: no nested sort ran");
        // Every scratch page written was read back exactly once and
        // freed: nothing outlives the build.
        let io = scratch.stats();
        assert_eq!(io.writes, report.spilled_pages, "{what}");
        assert_eq!(io.reads, report.spilled_pages, "{what}");
        assert_eq!(scratch.allocated_pages(), 0, "{what}");
        assert!(report.peak_scratch_pages <= report.spilled_pages, "{what}");
    }
}

/// What an external sort of `n` records spills: run formation, then
/// merges written back — the oldest runs first, no more of them than it
/// takes — until `fanin` runs are left. The merge of those is streamed
/// to its consumer and writes nothing, but counts as a pass. Returns
/// `(passes, pages)`; a run is `(records, merges it has been through)`.
fn sort_spill(n: usize, run_cap: usize, fanin: usize, per_page: usize) -> (u64, u64) {
    let mut runs: Vec<(usize, u64)> = (0..n.div_ceil(run_cap))
        .map(|r| (run_cap.min(n - r * run_cap), 0))
        .collect();
    let pages = |len: usize| len.div_ceil(per_page) as u64;
    let mut spilled = runs.iter().map(|run| pages(run.0)).sum::<u64>();
    while runs.len() > fanin {
        let take = (runs.len() - fanin + 1).min(fanin);
        let group: Vec<_> = runs.drain(..take).collect();
        let len = group.iter().map(|run| run.0).sum();
        let depth = group.iter().map(|run| run.1).max().unwrap() + 1;
        spilled += pages(len);
        runs.push((len, depth));
    }
    let depth = runs.iter().map(|run| run.1).max().unwrap();
    (depth + u64::from(runs.len() > 1), spilled)
}

#[test]
fn spill_accounting_is_pinned() {
    // 2-d, 3000 points at 42 to a leaf: nine first-axis slabs of 334
    // points, each of which fits a run of 512, so the one external sort
    // of six runs is all that ever spills.
    let pts = points();
    // 40-byte records, 25 to a page.
    let per_page = PAGE / (24 + 2 * 8);
    for (merge_fanin, passes) in [(64, 1), (4, 2), (2, 3)] {
        let (scratch, dest) = (store(7), store(42));
        let opts = ExternalBuildOptions {
            run_capacity: 512,
            merge_fanin,
            jobs: 1,
        };
        let (tree, report) = RStarTree::bulk_load_external_stats(
            Arc::clone(&dest),
            RStarConfig::with_page_size(2, PAGE),
            Box::new(ProximityIndex),
            &SliceSource::new(&pts),
            &scratch,
            &opts,
        )
        .unwrap();
        let what = format!("fan-in {merge_fanin}");
        // The destination is written once per node (plus the empty root
        // `create` lays down and the build replaces) and never read.
        // Snapshot before `walk` reads it.
        let dest_io = dest.stats();
        assert_eq!(dest_io.reads, 0, "{what}");
        assert_eq!(dest_io.writes, walk(&tree).len() as u64 + 1, "{what}");

        let (want_passes, want_pages) = sort_spill(N, 512, merge_fanin, per_page);
        assert_eq!(want_passes, passes, "{what}: the test's own arithmetic");
        assert_eq!(report.runs, 6, "{what}");
        assert_eq!(report.merge_passes, passes, "{what}");
        // In particular: with fan-in 64 the 123 pages of run formation
        // are all that is ever written — the merged order goes to the
        // tiler, not back to scratch.
        assert_eq!(report.spilled_pages, want_pages, "{what}");
        let io = scratch.stats();
        assert_eq!((io.writes, io.reads), (want_pages, want_pages), "{what}");
        assert_eq!(scratch.allocated_pages(), 0, "{what}");
    }
    assert_eq!(sort_spill(N, 512, 64, per_page), (1, 123));
}

/// Forwards only the methods [`PageStore`] requires — what a counting
/// decorator outside this workspace implements — so `write_pages` and
/// `read_pages` are the trait's per-page loops.
struct RequiredOnly<S>(S);

impl<S: PageStore> PageStore for RequiredOnly<S> {
    fn num_disks(&self) -> u32 {
        self.0.num_disks()
    }
    fn num_cylinders(&self) -> u32 {
        self.0.num_cylinders()
    }
    fn page_size(&self) -> usize {
        self.0.page_size()
    }
    fn allocate(&self, disk: DiskId) -> sqda_storage::Result<PageId> {
        self.0.allocate(disk)
    }
    fn write(&self, page: PageId, data: Bytes) -> sqda_storage::Result<()> {
        self.0.write(page, data)
    }
    fn read(&self, page: PageId) -> sqda_storage::Result<Bytes> {
        self.0.read(page)
    }
    fn free(&self, page: PageId) -> sqda_storage::Result<()> {
        self.0.free(page)
    }
    fn placement(&self, page: PageId) -> sqda_storage::Result<Placement> {
        self.0.placement(page)
    }
    fn stats(&self) -> IoStats {
        self.0.stats()
    }
    fn reset_stats(&self) {
        self.0.reset_stats()
    }
    fn pages_per_disk(&self) -> Vec<usize> {
        self.0.pages_per_disk()
    }
}

/// Deterministic, duplicate-free points of any dimensionality.
fn points_nd(n: usize, dim: usize) -> Vec<(Point, u64)> {
    const STEPS: [usize; 5] = [7919, 104_729, 1_299_709, 15_485_863, 179_424_673];
    (0..n)
        .map(|i| {
            let coords = (0..dim).map(|d| ((i * STEPS[d]) % 6007) as f64 * 0.37);
            (Point::new(coords.collect()), i as u64)
        })
        .collect()
}

/// What an external build into file stores leaves behind.
#[derive(Debug, PartialEq)]
struct FileBuild {
    report: ExternalBuildReport,
    /// `disk*.sqda` then `meta.sqda`, byte for byte.
    files: Vec<Vec<u8>>,
    scratch_io: (u64, u64),
    scratch_calls: u64,
}

fn file_build(
    name: &str,
    pts: &[(Point, u64)],
    dim: usize,
    run_capacity: usize,
    required_only: bool,
) -> FileBuild {
    let dir = std::env::temp_dir().join(format!("sqda-extbuild-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dest = FileStore::create(&dir, DISKS, 1449, PAGE, 42).unwrap();
    let scratch = FileStore::create(&dir.join("scratch"), DISKS, 1449, PAGE, 7).unwrap();
    let opts = ExternalBuildOptions {
        run_capacity,
        merge_fanin: 3,
        ..ExternalBuildOptions::default()
    };
    let config = RStarConfig::with_page_size(dim, PAGE);
    let source = SliceSource::new(pts);
    let (report, scratch) = if required_only {
        let (dest, scratch) = (
            Arc::new(RequiredOnly(dest)),
            Arc::new(RequiredOnly(scratch)),
        );
        let built = RStarTree::bulk_load_external_stats(
            Arc::clone(&dest),
            config,
            Box::new(ProximityIndex),
            &source,
            &scratch,
            &opts,
        );
        let (tree, report) = built.unwrap();
        tree.store().0.sync().unwrap();
        drop(tree);
        (report, Arc::into_inner(scratch).unwrap().0)
    } else {
        let (dest, scratch) = (Arc::new(dest), Arc::new(scratch));
        let built = RStarTree::bulk_load_external_stats(
            Arc::clone(&dest),
            config,
            Box::new(ProximityIndex),
            &source,
            &scratch,
            &opts,
        );
        let (tree, report) = built.unwrap();
        tree.store().sync().unwrap();
        drop(tree);
        (report, Arc::into_inner(scratch).unwrap())
    };
    // Nothing outlives the build, and every page spilled came back once.
    assert_eq!(scratch.pages_per_disk().iter().sum::<usize>(), 0, "{name}");
    let io = scratch.stats();
    let files = (0..DISKS)
        .map(|d| format!("disk{d:04}.sqda"))
        .chain(["meta.sqda".to_string()])
        .map(|f| std::fs::read(dir.join(f)).unwrap())
        .collect();
    let scratch_calls = scratch.io_calls();
    std::fs::remove_dir_all(&dir).unwrap();
    FileBuild {
        report,
        files,
        scratch_io: (io.writes, io.reads),
        scratch_calls,
    }
}

#[test]
fn extent_io_builds_what_a_per_page_store_builds() {
    // 2-d records are 40 bytes, 25 to a page with 24 bytes of pad, so an
    // extent of 8 pages is 200 records: runs of 100 stop short of one
    // extent, runs of 400 are exactly two, runs of 460 end mid-extent and
    // mid-page. 5-d records are 64 bytes and fill the page with no pad.
    for (name, dim, n, run_capacity) in [
        ("short", 2, 3000, 100),
        ("exact", 2, 3200, 400),
        ("ragged", 2, 3000, 460),
        ("nopad", 5, 4000, 256),
    ] {
        let pts = points_nd(n, dim);
        let extents = file_build(name, &pts, dim, run_capacity, false);
        let per_page = file_build(&format!("{name}-pp"), &pts, dim, run_capacity, true);
        assert!(extents.report.runs > 3, "{name}: {:?}", extents.report);
        assert!(
            extents.report.merge_passes >= 2,
            "{name}: {:?}",
            extents.report
        );
        let spilled = extents.report.spilled_pages;
        assert_eq!(extents.scratch_io, (spilled, spilled), "{name}");
        // Same tree, same report, same page tallies; only the number of
        // file calls under the scratch pages differs.
        assert_eq!(per_page.scratch_calls, 2 * spilled, "{name}");
        assert!(extents.scratch_calls < spilled, "{name}: {extents:?}");
        assert_eq!(
            FileBuild {
                scratch_calls: per_page.scratch_calls,
                ..extents
            },
            per_page,
            "{name}"
        );
    }
}

/// Yields the first `fail_at` points, then fails with its own error.
struct FailingSource<'a> {
    points: &'a [(Point, u64)],
    fail_at: usize,
}

#[derive(Debug)]
struct RowError(usize);

impl std::fmt::Display for RowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "input went away at row {}", self.0)
    }
}

impl std::error::Error for RowError {}

impl PointSource for FailingSource<'_> {
    fn len(&self) -> u64 {
        self.points.len() as u64
    }
    fn dim(&self) -> usize {
        2
    }
    fn visit(
        &self,
        f: &mut dyn FnMut(&[f64], u64) -> Result<(), RStarError>,
    ) -> Result<(), RStarError> {
        for (p, id) in &self.points[..self.fail_at] {
            f(p.coords(), *id)?;
        }
        Err(RStarError::Source(Box::new(RowError(self.fail_at))))
    }
}

#[test]
fn a_failing_source_surfaces_its_own_error() {
    let pts = points();
    // Mid-run, mid-spill, and on the unspilled path's collecting pass.
    for (fail_at, run_capacity) in [(100, 256), (1700, 256), (1700, N)] {
        let opts = ExternalBuildOptions {
            run_capacity,
            ..ExternalBuildOptions::default()
        };
        let source = FailingSource {
            points: &pts,
            fail_at,
        };
        let Err(err) = external(&source, 2, &store(7), opts) else {
            panic!("the build must fail");
        };
        assert_eq!(err.to_string(), format!("input went away at row {fail_at}"));
        let RStarError::Source(inner) = err else {
            panic!("runs of {run_capacity}: not the source's error: {err:?}");
        };
        assert_eq!(inner.downcast_ref::<RowError>().map(|e| e.0), Some(fail_at));
    }
    // A source that merely stops early is still the builder's to report.
    let short = SliceSource::new(&pts[..N - 1]);
    struct Lying<'a>(SliceSource<'a>);
    impl PointSource for Lying<'_> {
        fn len(&self) -> u64 {
            self.0.len() + 1
        }
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn visit(
            &self,
            f: &mut dyn FnMut(&[f64], u64) -> Result<(), RStarError>,
        ) -> Result<(), RStarError> {
            self.0.visit(f)
        }
    }
    let opts = ExternalBuildOptions {
        run_capacity: 256,
        ..ExternalBuildOptions::default()
    };
    let Err(err) = external(&Lying(short), 2, &store(7), opts) else {
        panic!("the build must fail");
    };
    assert!(
        matches!(&err, RStarError::InvalidBuild(m) if m.contains("promised 3000")),
        "{err}"
    );
}
