//! The decoded-node cache must be invisible to query semantics: answers
//! are identical with and without it, and a warm cache eliminates
//! physical reads (and decodes) for repeated queries.

use sqda_core::best_first_knn;
use sqda_geom::prop::{self, check};
use sqda_geom::{rng::Rng, Point};
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_storage::{ArrayStore, NodeCache, PageStore};
use std::sync::Arc;

fn build(points: &[(f64, f64)]) -> RStarTree<ArrayStore> {
    let store = Arc::new(ArrayStore::new(4, 1449, 11));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::new(2).with_max_entries(8),
        Box::new(ProximityIndex),
    )
    .unwrap();
    for (i, &(x, y)) in points.iter().enumerate() {
        tree.insert(Point::new(vec![x, y]), i as u64).unwrap();
    }
    tree
}

/// Up to `len.end - 1` points in `[-span, span)²`.
fn points(rng: &mut Rng, size: usize, len: std::ops::Range<usize>, span: f64) -> Vec<(f64, f64)> {
    (0..prop::len(rng, size, len))
        .map(|_| (rng.gen_range(-span..span), rng.gen_range(-span..span)))
        .collect()
}

#[test]
fn warm_cache_serves_repeated_queries_without_io() {
    let points: Vec<(f64, f64)> = (0..600)
        .map(|i| ((i % 37) as f64, (i % 53) as f64))
        .collect();
    let mut tree = build(&points);
    tree.set_node_cache(Arc::new(NodeCache::new(4096)));
    tree.store().reset_stats();

    let q = Point::new(vec![18.0, 26.0]);
    let first = best_first_knn(&tree, &q, 10).unwrap();
    let cold = tree.io_stats();
    assert!(cold.reads > 0, "cold query must hit the disks");
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_misses, cold.reads);

    for _ in 0..10 {
        let again = best_first_knn(&tree, &q, 10).unwrap();
        assert_eq!(again, first);
    }
    let warm = tree.io_stats();
    // Every node of the repeated queries came out of the cache: zero new
    // physical reads, zero new decodes.
    assert_eq!(warm.reads, cold.reads, "warm queries must not touch disks");
    assert_eq!(warm.cache_misses, cold.cache_misses);
    assert!(warm.cache_hits >= 10, "repeats must be served by the cache");
}

#[test]
fn writes_invalidate_cached_nodes() {
    let points: Vec<(f64, f64)> = (0..200)
        .map(|i| ((i % 23) as f64, (i % 29) as f64))
        .collect();
    let mut tree = build(&points);
    tree.set_node_cache(Arc::new(NodeCache::new(4096)));

    // Warm the cache along the path the insert is about to dirty. The
    // dataset only holds non-negative coordinates, so before the insert
    // the nearest neighbour of (-1, -1) is some pre-existing object.
    let q = Point::new(vec![-1.0, -1.0]);
    let before = best_first_knn(&tree, &q, 1).unwrap();
    assert_ne!(before[0].object.0, 10_000);
    tree.insert(Point::new(vec![-1.0, -1.0]), 10_000).unwrap();
    let after = best_first_knn(&tree, &q, 1).unwrap();
    // The freshly inserted point now sits exactly on the query; a stale
    // cached leaf would still answer with the old neighbour.
    assert_eq!(after[0].object.0, 10_000);
    assert_eq!(after[0].dist_sq, 0.0);
}

/// An `Arc`-cached read observes every invalidation: after an insert
/// dirties the root path, re-reading the root yields a *new* allocation
/// whose contents match a fresh decode of the on-disk bytes, while the
/// previously returned `Arc` keeps the old snapshot alive unchanged
/// (readers are never mutated under).
#[test]
fn invalidated_reads_return_fresh_decodes() {
    let gen = |rng: &mut Rng, size| {
        (
            points(rng, size, 1..120, 50.0),
            points(rng, size, 1..12, 50.0),
        )
    };
    check(
        "invalidated_reads_return_fresh_decodes",
        32,
        gen,
        |(pts, extra)| {
            let mut tree = build(&pts);
            tree.set_node_cache(Arc::new(NodeCache::new(4096)));
            let mut total = pts.len() as u64;
            for (j, &(x, y)) in extra.iter().enumerate() {
                let root = tree.root_page();
                let snapshot = tree.read_node(root).unwrap();
                assert_eq!(snapshot.object_count(), total);
                tree.insert(Point::new(vec![x, y]), 100_000 + j as u64)
                    .unwrap();
                total += 1;
                let root = tree.root_page();
                let fresh = tree.read_node(root).unwrap();
                // The stale Arc still holds the pre-insert state; the fresh
                // read is a different allocation with the new state...
                assert_eq!(snapshot.object_count(), total - 1);
                assert_eq!(fresh.object_count(), total);
                assert!(!Arc::ptr_eq(&snapshot, &fresh));
                // ...and the cached node is exactly what a cold decode of
                // the page bytes produces.
                let bytes = tree.store().read(root).unwrap();
                let decoded = sqda_rstar::codec::decode_node(bytes, 2, root).unwrap();
                assert_eq!(fresh.as_ref(), &decoded);
            }
        },
    );
}

/// k-NN answers are identical with and without the node cache, even
/// with a tiny (thrashing) capacity.
#[test]
fn cached_knn_matches_uncached() {
    let gen = |rng: &mut Rng, size| {
        let pts = points(rng, size, 1..250, 50.0);
        let queries = points(rng, size, 1..8, 60.0);
        (
            pts,
            queries,
            rng.gen_range(1..12usize),
            rng.gen_range(1..64usize),
        )
    };
    check(
        "cached_knn_matches_uncached",
        32,
        gen,
        |(pts, queries, k, capacity)| {
            let plain = build(&pts);
            let mut cached = build(&pts);
            cached.set_node_cache(Arc::new(NodeCache::new(capacity)));
            for &(x, y) in &queries {
                let q = Point::new(vec![x, y]);
                let a = best_first_knn(&plain, &q, k).unwrap();
                let b = best_first_knn(&cached, &q, k).unwrap();
                assert_eq!(a.len(), b.len());
                for (u, v) in a.iter().zip(b.iter()) {
                    assert_eq!(u.dist_sq, v.dist_sq);
                }
            }
        },
    );
}
