//! Criterion benchmarks for the zero-copy node hot path: warm-cache
//! traversal (Arc clone per node, no entry copies), full-page node
//! decode (two allocations under the flat layout), and end-to-end k-NN
//! over a warm cache with a reused scratch heap.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use sqda_geom::{kernel, Point};
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{codec, knn_with_scratch, BestFirstScratch, RStarConfig, RStarTree};
use sqda_storage::{ArrayStore, NodeCache, PageStore};
use std::sync::Arc;

const OBJECTS: usize = 2000;

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
    tree.set_node_cache(Arc::new(NodeCache::new(8192)));
    tree
}

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

fn bench_warm_traversal(c: &mut Criterion) {
    let tree = build_tree();
    traverse(&tree); // warm the cache
    c.bench_function("hotpath/warm_traversal", |b| {
        b.iter(|| black_box(traverse(&tree)))
    });
}

fn bench_decode(c: &mut Criterion) {
    let tree = build_tree();
    let dim = tree.dim();
    // First leaf on the leftmost path, and its parent as the internal
    // sample.
    let mut page = tree.root_page();
    let mut internal = None;
    loop {
        let node = tree.read_node(page).expect("read");
        if node.is_leaf() {
            break;
        }
        internal = Some(page);
        page = node.internal_child(0);
    }
    let mut group = c.benchmark_group("hotpath/decode");
    let leaf_bytes = tree.store().read(page).expect("read page");
    group.bench_function("leaf", |b| {
        b.iter(|| black_box(codec::decode_node(black_box(leaf_bytes.clone()), dim, page).unwrap()))
    });
    if let Some(ipage) = internal {
        let internal_bytes = tree.store().read(ipage).expect("read page");
        group.bench_function("internal", |b| {
            b.iter(|| {
                black_box(
                    codec::decode_node(black_box(internal_bytes.clone()), dim, ipage).unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_knn_warm(c: &mut Criterion) {
    let tree = build_tree();
    let queries: Vec<Point> = (0..20)
        .map(|i| {
            Point::new(vec![
                (i * 53 % 101) as f64 * 9.0,
                (i * 31 % 97) as f64 * 4.7,
            ])
        })
        .collect();
    let mut scratch = BestFirstScratch::new();
    for q in &queries {
        knn_with_scratch(&tree, q, 10, &mut scratch).expect("knn"); // warm
    }
    c.bench_function("hotpath/knn_warm_k10", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            let (out, _) = knn_with_scratch(&tree, q, 10, &mut scratch).unwrap();
            black_box(out.len())
        })
    });
}

/// The batched distance kernels in isolation: ns/entry for `dist_sq`
/// (leaf filtering) and MINDIST (internal filtering) at the paper's two
/// dimensionalities, across batch sizes spanning a single entry, one
/// SIMD lane width, and a large fanout.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/kernel");
    for &dim in &[2usize, 10] {
        let q: Vec<f64> = (0..dim).map(|d| d as f64 * 0.7 + 0.1).collect();
        for &batch in &[1usize, 8, 64] {
            let points: Vec<f64> = (0..batch * dim).map(|i| (i % 131) as f64 * 0.37).collect();
            let rects: Vec<f64> = (0..batch)
                .flat_map(|e| {
                    let lo: Vec<f64> = (0..dim).map(|d| ((e * dim + d) % 97) as f64).collect();
                    let hi: Vec<f64> = lo.iter().map(|l| l + 3.5).collect();
                    lo.into_iter().chain(hi)
                })
                .collect();
            let mut out = Vec::new();
            group.throughput(Throughput::Elements(batch as u64));
            group.bench_function(format!("dist_sq/dim{dim}/b{batch}"), |b| {
                b.iter(|| {
                    kernel::batch_dist_sq(black_box(&q), black_box(&points), &mut out);
                    black_box(out[batch - 1])
                })
            });
            group.bench_function(format!("min_dist/dim{dim}/b{batch}"), |b| {
                b.iter(|| {
                    kernel::batch_min_dist_sq(black_box(&q), black_box(&rects), &mut out);
                    black_box(out[batch - 1])
                })
            });
        }
    }
    group.finish();
}

/// Shared-traversal batch k-NN versus the same queries run solo: the
/// per-query cost of the wavefront descent when B queries amortize each
/// node decode.
fn bench_batch_knn(c: &mut Criterion) {
    let tree = build_tree();
    let queries: Vec<Point> = (0..8)
        .map(|i| {
            Point::new(vec![
                (i * 53 % 101) as f64 * 9.0,
                (i * 31 % 97) as f64 * 4.7,
            ])
        })
        .collect();
    let mut scratch = sqda_core::BatchScratch::new();
    sqda_core::batch_knn_with(&tree, None, &queries, 10, &mut scratch).expect("batch knn"); // warm
    let mut group = c.benchmark_group("hotpath/batch_knn");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("b8_k10", |b| {
        b.iter(|| {
            let report =
                sqda_core::batch_knn_with(&tree, None, &queries, 10, &mut scratch).unwrap();
            black_box(report.answers.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_warm_traversal,
    bench_decode,
    bench_knn_warm,
    bench_kernels,
    bench_batch_knn
);
criterion_main!(benches);
