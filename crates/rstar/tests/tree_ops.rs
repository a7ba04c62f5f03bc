//! End-to-end tests of the R\*-tree: insertion, queries, deletion, and
//! structural invariants, against brute-force ground truth.

use sqda_core::{best_first_knn, exec::run_query, Neighbor, QueryError, RangeSearch};
use sqda_geom::rng::Rng;
use sqda_geom::Point;
use sqda_rstar::decluster::{ProximityIndex, RoundRobin};
use sqda_rstar::{RStarConfig, RStarError, RStarTree};
use sqda_storage::{ArrayStore, PageStore};
use std::collections::HashSet;
use std::sync::Arc;

fn new_tree(dim: usize, max_entries: Option<usize>) -> RStarTree<ArrayStore> {
    let store = Arc::new(ArrayStore::new(8, 1449, 99));
    let mut config = RStarConfig::new(dim);
    if let Some(m) = max_entries {
        config = config.with_max_entries(m);
    }
    RStarTree::create(store, config, Box::new(ProximityIndex)).unwrap()
}

fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen_range(0.0..100.0)).collect()))
        .collect()
}

/// Every object within `radius` of `q`, by core's range search.
fn range(
    tree: &RStarTree<ArrayStore>,
    q: &Point,
    radius: f64,
) -> Result<Vec<Neighbor>, QueryError> {
    run_query(tree, &mut RangeSearch::new(tree, q.clone(), radius)).map(|run| run.results)
}

fn brute_knn(points: &[Point], q: &Point, k: usize) -> Vec<(usize, f64)> {
    let mut d: Vec<(usize, f64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (i, q.dist_sq(p)))
        .collect();
    d.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    d.truncate(k);
    d
}

#[test]
fn insert_and_validate_small_fanout() {
    let mut tree = new_tree(2, Some(4));
    let points = random_points(500, 2, 1);
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    assert_eq!(tree.num_objects(), 500);
    assert!(tree.height() > 2, "fanout 4 with 500 points must be deep");
    tree.validate().unwrap().unwrap();
}

#[test]
fn insert_and_validate_realistic_fanout() {
    let mut tree = new_tree(2, None);
    let points = random_points(5000, 2, 2);
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    tree.validate().unwrap().unwrap();
    let stats = tree.stats().unwrap();
    assert_eq!(stats.num_objects, 5000);
    assert!(stats.avg_fill > 0.5, "avg fill {}", stats.avg_fill);
    // All pages accounted for across disks.
    assert_eq!(
        stats.pages_per_disk.iter().sum::<usize>() as u64,
        stats.total_nodes()
    );
}

#[test]
fn knn_matches_brute_force_2d() {
    let mut tree = new_tree(2, Some(8));
    let points = random_points(800, 2, 3);
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let mut rng = Rng::seed_from_u64(33);
    for _ in 0..20 {
        let q = Point::new(vec![rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
        for k in [1, 5, 17] {
            let got = best_first_knn(&tree, &q, k).unwrap();
            let want = brute_knn(&points, &q, k);
            assert_eq!(got.len(), k);
            for (g, (_, wd)) in got.iter().zip(want.iter()) {
                assert!(
                    (g.dist_sq - wd).abs() < 1e-9,
                    "kNN distance mismatch: {} vs {}",
                    g.dist_sq,
                    wd
                );
            }
        }
    }
}

#[test]
fn knn_matches_brute_force_high_dim() {
    let dim = 8;
    let mut tree = new_tree(dim, None);
    let points = random_points(1500, dim, 4);
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let q = Point::splat(dim, 50.0);
    let got = best_first_knn(&tree, &q, 25).unwrap();
    let want = brute_knn(&points, &q, 25);
    for (g, (_, wd)) in got.iter().zip(want.iter()) {
        assert!((g.dist_sq - wd).abs() < 1e-9);
    }
    // Results are sorted by distance.
    for w in got.windows(2) {
        assert!(w[0].dist_sq <= w[1].dist_sq);
    }
}

#[test]
fn knn_k_larger_than_population() {
    let mut tree = new_tree(2, Some(4));
    let points = random_points(10, 2, 5);
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let got = best_first_knn(&tree, &Point::splat(2, 0.0), 50).unwrap();
    assert_eq!(got.len(), 10, "k > n returns all objects");
}

#[test]
fn knn_on_empty_tree() {
    let tree = new_tree(3, None);
    assert!(best_first_knn(&tree, &Point::splat(3, 0.0), 5)
        .unwrap()
        .is_empty());
    assert!(range(&tree, &Point::splat(3, 0.0), 10.0)
        .unwrap()
        .is_empty());
}

#[test]
fn range_query_matches_brute_force() {
    let mut tree = new_tree(2, Some(8));
    let points = random_points(600, 2, 6);
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let q = Point::new(vec![40.0, 60.0]);
    for radius in [0.5, 5.0, 20.0, 200.0] {
        let got: HashSet<u64> = range(&tree, &q, radius)
            .unwrap()
            .into_iter()
            .map(|e| e.object.0)
            .collect();
        let want: HashSet<u64> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| q.dist(p) <= radius)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(got, want, "radius {radius}");
    }
}

#[test]
fn duplicate_points_are_kept_separately() {
    let mut tree = new_tree(2, Some(4));
    let p = Point::new(vec![1.0, 1.0]);
    for i in 0..50 {
        tree.insert(p.clone(), i).unwrap();
    }
    tree.validate().unwrap().unwrap();
    let got = best_first_knn(&tree, &p, 50).unwrap();
    assert_eq!(got.len(), 50);
    let ids: HashSet<u64> = got.iter().map(|n| n.object.0).collect();
    assert_eq!(ids.len(), 50);
}

#[test]
fn delete_removes_and_keeps_invariants() {
    let mut tree = new_tree(2, Some(6));
    let points = random_points(300, 2, 8);
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    // Delete every third point.
    for (i, p) in points.iter().enumerate() {
        if i % 3 == 0 {
            assert!(tree.delete(p, i as u64).unwrap(), "point {i} present");
        }
    }
    tree.validate().unwrap().unwrap();
    assert_eq!(tree.num_objects(), 200);
    // Deleted points are gone; others remain.
    for (i, p) in points.iter().enumerate() {
        let found = range(&tree, p, 1e-9)
            .unwrap()
            .iter()
            .any(|e| e.object.0 == i as u64);
        assert_eq!(found, i % 3 != 0, "object {i}");
    }
    // Deleting a missing object returns false.
    assert!(!tree.delete(&points[0], 0).unwrap());
}

#[test]
fn delete_everything_then_reinsert() {
    let mut tree = new_tree(2, Some(4));
    let points = random_points(120, 2, 9);
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    for (i, p) in points.iter().enumerate() {
        assert!(tree.delete(p, i as u64).unwrap());
        tree.validate().unwrap().unwrap();
    }
    assert_eq!(tree.num_objects(), 0);
    assert_eq!(tree.height(), 1);
    // Tree is fully usable again.
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    tree.validate().unwrap().unwrap();
    assert_eq!(
        best_first_knn(&tree, &points[0], 1).unwrap()[0].dist_sq,
        0.0
    );
}

#[test]
fn mixed_workload_stays_valid() {
    let mut tree = new_tree(3, Some(8));
    let mut rng = Rng::seed_from_u64(10);
    let mut live: Vec<(Point, u64)> = Vec::new();
    let mut next_id = 0u64;
    for round in 0..2000 {
        let delete = !live.is_empty() && rng.gen_bool(0.35);
        if delete {
            let idx = rng.gen_range(0..live.len());
            let (p, id) = live.swap_remove(idx);
            assert!(tree.delete(&p, id).unwrap());
        } else {
            let p = Point::new((0..3).map(|_| rng.gen_range(0.0..50.0)).collect());
            tree.insert(p.clone(), next_id).unwrap();
            live.push((p, next_id));
            next_id += 1;
        }
        if round % 400 == 399 {
            tree.validate().unwrap().unwrap();
            assert_eq!(tree.num_objects() as usize, live.len());
        }
    }
    tree.validate().unwrap().unwrap();
    // Final brute-force check on kNN.
    let q = Point::splat(3, 25.0);
    let points: Vec<Point> = live.iter().map(|(p, _)| p.clone()).collect();
    let got = best_first_knn(&tree, &q, 10).unwrap();
    let want = brute_knn(&points, &q, 10);
    for (g, (_, wd)) in got.iter().zip(want.iter()) {
        assert!((g.dist_sq - wd).abs() < 1e-9);
    }
}

#[test]
fn dimension_mismatch_is_rejected() {
    let mut tree = new_tree(2, None);
    let p3 = Point::splat(3, 1.0);
    assert!(tree.insert(p3.clone(), 0).is_err());
    assert!(best_first_knn(&tree, &p3, 1).is_err());
    assert!(range(&tree, &p3, 1.0).is_err());
    assert!(tree.delete(&p3, 0).is_err());
}

#[test]
fn non_finite_points_are_refused_without_touching_a_page() {
    // A root leaf too small to split (where a NaN used to be stored
    // silently) and a tree of height > 1 (where it used to panic in the
    // split).
    for n in [3, 500] {
        let mut tree = new_tree(2, Some(8));
        let points = random_points(n, 2, 21);
        for (i, p) in points.iter().enumerate() {
            tree.insert(p.clone(), i as u64).unwrap();
        }
        let writes = tree.store().stats().writes;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let p = Point::new(vec![bad, 0.5]);
            let err = tree.insert(p.clone(), 999).unwrap_err();
            assert!(err.to_string().contains("non-finite coordinate"), "{err}");
            assert!(tree.delete(&p, 999).is_err());
        }
        assert_eq!(tree.store().stats().writes, writes, "a refused point wrote");
        assert!(tree.validate().unwrap().is_ok());
        for (i, p) in random_points(50, 2, 22).into_iter().enumerate() {
            tree.insert(p, (n + i) as u64).unwrap();
        }
        assert_eq!(tree.num_objects(), n as u64 + 50);
        assert!(tree.delete(&points[0], 0).unwrap());
        assert!(tree.validate().unwrap().is_ok());
    }
}

#[test]
fn declustering_distributes_pages() {
    let store = Arc::new(ArrayStore::new(10, 1449, 5));
    let mut tree = RStarTree::create(
        store.clone(),
        RStarConfig::new(2).with_max_entries(8),
        Box::new(ProximityIndex),
    )
    .unwrap();
    for (i, p) in random_points(2000, 2, 11).into_iter().enumerate() {
        tree.insert(p, i as u64).unwrap();
    }
    let pages = store.pages_per_disk();
    let total: usize = pages.iter().sum();
    assert!(total > 100, "expected many pages, got {total}");
    // No disk is empty and no disk hoards more than half the pages.
    for (d, &n) in pages.iter().enumerate() {
        assert!(n > 0, "disk {d} has no pages: {pages:?}");
        assert!(n < total / 2, "disk {d} hoards pages: {pages:?}");
    }
}

#[test]
fn round_robin_build_also_valid() {
    let store = Arc::new(ArrayStore::new(4, 1449, 5));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::new(2).with_max_entries(6),
        Box::new(RoundRobin::new()),
    )
    .unwrap();
    for (i, p) in random_points(700, 2, 12).into_iter().enumerate() {
        tree.insert(p, i as u64).unwrap();
    }
    tree.validate().unwrap().unwrap();
}

#[test]
fn stats_level_structure() {
    let mut tree = new_tree(2, Some(4));
    for (i, p) in random_points(200, 2, 13).into_iter().enumerate() {
        tree.insert(p, i as u64).unwrap();
    }
    let stats = tree.stats().unwrap();
    assert_eq!(stats.height as usize, stats.nodes_per_level.len());
    // Exactly one root.
    assert_eq!(stats.nodes_per_level[stats.height as usize - 1], 1);
    // Leaves outnumber every other level.
    assert!(stats.nodes_per_level[0] >= *stats.nodes_per_level.last().unwrap());
}

#[test]
fn a_page_size_mismatch_is_refused_before_anything_is_written() {
    // An 8 KiB configuration over 4 KiB pages used to take 170 inserts
    // and then fail part-way through the build.
    let store = Arc::new(ArrayStore::new(4, 1449, 5));
    let config = RStarConfig::with_page_size(2, 8192);
    let refused = RStarTree::create(store.clone(), config, Box::new(ProximityIndex));
    assert!(
        matches!(
            refused,
            Err(RStarError::PageSizeMismatch {
                config: 8192,
                store: 4096
            })
        ),
        "{:?}",
        refused.err()
    );
    assert_eq!(store.allocated_pages(), 0);

    // Attaching reads nothing either: the sizes are compared first.
    let mut tree =
        RStarTree::create(store.clone(), RStarConfig::new(2), Box::new(ProximityIndex)).unwrap();
    for p in random_points(300, 2, 6) {
        let id = tree.num_objects();
        tree.insert(p, id).unwrap();
    }
    let reads = store.stats().reads;
    let config = RStarConfig::with_page_size(2, 1024);
    let attached = RStarTree::attach(
        store.clone(),
        config,
        Box::new(ProximityIndex),
        tree.root_page(),
    );
    assert!(matches!(
        attached,
        Err(RStarError::PageSizeMismatch {
            config: 1024,
            store: 4096
        })
    ));
    assert_eq!(store.stats().reads, reads);
    let same = RStarTree::attach(
        store,
        RStarConfig::new(2),
        Box::new(ProximityIndex),
        tree.root_page(),
    );
    assert_eq!(same.unwrap().num_objects(), 300);
}
