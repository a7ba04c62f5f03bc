//! What a cache-resident query costs the allocator, pinned exactly.
//!
//! A counting `#[global_allocator]` (per-thread counters, so the harness
//! and other tests cannot leak into a measurement) brackets hot CRSS and
//! frontier `engine.query` calls over a caller's scratch — the call
//! `QUERY` makes — over a tree whose nodes are all in the decoded-node
//! cache, and a backend read. Before the per-query scratch and the shared
//! node views one query made 173 allocations and moved 72 KB on the
//! benchmark store; what is left is what the answers own and the
//! algorithm: the results vector, `k` answer points and the algorithm
//! box. An engine built with live telemetry, as `sqda serve` runs it,
//! asks for exactly as much: the query's record lives in the scratch.

use sqda_core::{AccessMethod, AlgorithmKind, IndexNode, QueryScratch, RealTimeEngine};
use sqda_geom::Point;
use sqda_obs::LiveTelemetry;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{PackingOrder, RStarConfig, RStarTree};
use sqda_storage::{ArrayStore, Bytes, DiskId, FileStore, InlineBackend, NodeCache, PageStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain thread-local cells with no destructor, so touching them inside the
// allocator neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes requested)` on this thread while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - a0, BYTES.with(Cell::get) - b0)
}

const K: usize = 10;

/// 60 000 points on a jittered grid, STR-packed into 1 KiB pages over 8
/// disks (the benchmark store's geometry: 42-entry leaves, 21-entry
/// directories, height 4), every node decoded into the cache.
fn resident_tree() -> RStarTree<ArrayStore> {
    let points: Vec<(Point, u64)> = (0..60_000u64)
        .map(|i| {
            let x = (i % 245) as f64 + ((i * 7919) % 13) as f64 / 16.0;
            let y = (i / 245) as f64 + ((i * 104_729) % 11) as f64 / 16.0;
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
    .unwrap();
    tree.set_node_cache(Arc::new(NodeCache::new(65_536)));
    tree
}

fn points() -> Vec<Point> {
    (0..64u64)
        .map(|i| {
            Point::new(vec![
                (i * 37 % 240) as f64 + 0.3,
                (i * 53 % 240) as f64 + 0.7,
            ])
        })
        .collect()
}

/// Settles `kind` over the resident tree, then counts what each hot
/// `engine.query` asks of the allocator, on an engine with live telemetry
/// attached when `served`; returns the worst `(allocations, bytes)`.
fn hot_query_costs(kind: AlgorithmKind, served: bool) -> (u64, u64) {
    let tree = resident_tree();
    let backend = Arc::new(InlineBackend::new(Arc::clone(tree.store())));
    let mut engine = RealTimeEngine::new(&tree, backend).unwrap();
    if served {
        let live = Arc::new(LiveTelemetry::new(tree.store().num_disks()));
        engine = engine.with_telemetry(live).unwrap();
    }
    let points = points();
    let mut scratch = QueryScratch::new();
    // Two settling passes: the first fills the node cache, the second
    // grows the caller's scratch to its steady size.
    for _ in 0..2 {
        for p in &points {
            engine.query(kind, p.clone(), K, &mut scratch).unwrap();
        }
    }
    let reads_before = tree.io_stats().reads;
    let (mut worst_allocs, mut worst_bytes, mut nodes) = (0, 0, 0);
    for p in &points {
        // The point is the caller's (`QUERY` parses its own).
        let point = p.clone();
        let (run, allocs, bytes) = counted(|| engine.query(kind, point, K, &mut scratch).unwrap());
        assert_eq!(run.results.len(), K);
        nodes += run.nodes_visited;
        worst_allocs = worst_allocs.max(allocs);
        worst_bytes = worst_bytes.max(bytes);
    }
    assert_eq!(
        tree.io_stats().reads,
        reads_before,
        "every node is resident"
    );
    // Every read is a cache hit, so the search takes one branch per
    // round; a query still reads more than one root-to-leaf path.
    assert!(
        nodes as f64 / points.len() as f64 > tree.height() as f64,
        "queries do real work"
    );
    let how = if served { "served" } else { "bare" };
    println!(
        "hot {kind} {how} engine.query: at most {worst_allocs} allocations, {worst_bytes} bytes"
    );
    (worst_allocs, worst_bytes)
}

/// Checks the bare engine's bounds for `kind`, and that the served
/// engine asks for exactly what the bare one does.
fn hot_query_allocates_only_what_its_reply_owns(kind: AlgorithmKind) {
    let (allocs, bytes) = hot_query_costs(kind, false);
    assert!(allocs <= 12, "{allocs} allocations in one hot query");
    assert!(bytes <= 4096, "{bytes} bytes in one hot query");
    let served = hot_query_costs(kind, true);
    assert_eq!(served, (allocs, bytes), "{kind}: telemetry allocated");
    assert_eq!(served.0, 12, "{kind}: a served hot query's allocations");
}

#[test]
fn hot_crss_query_allocates_only_what_its_reply_owns() {
    hot_query_allocates_only_what_its_reply_owns(AlgorithmKind::Crss);
}

/// The frontier's heap is recycled through the caller's scratch like
/// CRSS's candidate stack, so it holds the same bounds.
#[test]
fn hot_frontier_query_allocates_only_what_its_reply_owns() {
    hot_query_allocates_only_what_its_reply_owns(AlgorithmKind::Frontier);
}

/// A backend read of a resident page is one allocation: the page is read
/// straight into the shared block the node cache and decoder keep, not
/// into a buffer copied into it afterwards.
#[test]
fn resident_read_is_one_allocation() {
    let dir = std::env::temp_dir().join(format!("sqda-hot-allocs-read-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FileStore::create(&dir, 2, 100, 1024, 1).unwrap();
    let page = store.allocate(DiskId(0)).unwrap();
    store.write(page, Bytes::from(vec![7u8; 1000])).unwrap();
    // Just written: the OS holds the page, so the non-blocking read
    // serves it unless the platform refuses the attempt altogether.
    let ((_, data), allocs, bytes) = counted(|| store.read_resident(page).unwrap());
    if store.nowait_supported() {
        let data = data.expect("a page written moments ago is resident");
        assert_eq!(&data[..], &[7u8; 1000][..]);
        assert_eq!(allocs, 1, "{bytes} bytes");
    }
    let (data, allocs, _) = counted(|| store.read(page).unwrap());
    assert_eq!(&data[..], &[7u8; 1000][..]);
    assert_eq!(allocs, 1, "a blocking read is one allocation too");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_hit_shares_the_cached_buffers() {
    let tree = resident_tree();
    let mut stack = vec![AccessMethod::root_page(&tree)];
    let mut seen = (0, 0);
    while let Some(page) = stack.pop() {
        tree.read_index_node(page).unwrap();
        let cached = tree.cached_node(page).expect("resident after a read");
        let (view, allocs, bytes) = counted(|| tree.cached_index_node(page).unwrap().unwrap());
        assert_eq!((allocs, bytes), (0, 0), "a hit copies nothing");
        match &view {
            IndexNode::Leaf(leaf) => {
                assert!(std::ptr::eq(
                    leaf.coords().as_ptr(),
                    cached.coords().as_ptr()
                ));
                assert!(std::ptr::eq(leaf.ids().as_ptr(), cached.payload().as_ptr()));
                seen.0 += 1;
            }
            IndexNode::Internal(block) => {
                for i in 0..block.len() {
                    assert_eq!(block.child(i), cached.internal_child(i));
                    assert_eq!(block.count(i), cached.internal_count(i));
                }
                // One root-to-leaf path sees both kinds.
                stack.push(block.child(0));
                seen.1 += 1;
            }
        }
    }
    assert!(seen.0 > 0 && seen.1 > 0, "{seen:?}");
}
