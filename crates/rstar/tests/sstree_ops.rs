//! SS-tree end-to-end: structural invariants, exact answers under all
//! four similarity-search algorithms, and parity with the R\*-tree.

use sqda_core::{
    best_first_knn, exec::run_query, AlgorithmKind, QueryError, RangeSearch, Simulation, Workload,
};
use sqda_geom::rng::Rng;
use sqda_geom::Point;
use sqda_rstar::{RStarError, SsConfig, SsTree};
use sqda_simkernel::SystemParams;
use sqda_storage::ArrayStore;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen_range(0.0..100.0)).collect()))
        .collect()
}

fn build(points: &[Point], dim: usize, disks: u32, fanout: usize) -> SsTree<ArrayStore> {
    let store = Arc::new(ArrayStore::new(disks, 1449, 5));
    let mut tree = SsTree::create(store, SsConfig::new(dim).with_max_entries(fanout)).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    tree
}

fn brute(points: &[Point], q: &Point, k: usize) -> Vec<f64> {
    let mut d: Vec<f64> = points.iter().map(|p| q.dist_sq(p)).collect();
    d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    d.truncate(k);
    d
}

#[test]
fn insert_and_validate() {
    let points = random_points(2000, 2, 1);
    let tree = build(&points, 2, 6, 8);
    assert_eq!(tree.num_objects(), 2000);
    assert!(tree.height() > 2);
    tree.validate().unwrap().unwrap();
}

#[test]
fn non_finite_points_are_refused_without_touching_a_page() {
    let points = random_points(300, 2, 4);
    let mut tree = build(&points, 2, 4, 8);
    let writes = tree.io_stats().writes;
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(tree.insert(Point::new(vec![bad, 0.5]), 999).is_err());
    }
    assert_eq!(tree.io_stats().writes, writes);
    assert_eq!(tree.num_objects(), 300);
    tree.insert(Point::new(vec![0.5, 0.5]), 300).unwrap();
    assert!(tree.validate().unwrap().is_ok());
}

#[test]
fn validate_high_dimensional() {
    let points = random_points(1500, 8, 2);
    let tree = build(&points, 8, 4, 12);
    tree.validate().unwrap().unwrap();
}

#[test]
fn knn_matches_brute_force() {
    let points = random_points(1200, 3, 3);
    let tree = build(&points, 3, 6, 10);
    let mut rng = Rng::seed_from_u64(4);
    for _ in 0..10 {
        let q = Point::new((0..3).map(|_| rng.gen_range(0.0..100.0)).collect());
        for k in [1usize, 7, 40] {
            let got = best_first_knn(&tree, &q, k).unwrap();
            let want = brute(&points, &q, k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.dist_sq - w).abs() < 1e-9, "k={k}");
            }
        }
    }
}

#[test]
fn all_four_algorithms_exact_over_spheres() {
    let points = random_points(3000, 2, 6);
    let tree = build(&points, 2, 10, 16);
    let mut rng = Rng::seed_from_u64(7);
    for _ in 0..8 {
        let q = Point::new(vec![rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
        for k in [1usize, 10, 60] {
            let want = brute(&points, &q, k);
            for kind in AlgorithmKind::ALL {
                let mut algo = kind.build(&tree, q.clone(), k).unwrap();
                let run = run_query(&tree, algo.as_mut()).unwrap();
                assert_eq!(run.results.len(), k, "{kind}");
                for (g, w) in run.results.iter().zip(want.iter()) {
                    assert!((g.dist_sq - w).abs() < 1e-9, "{kind} k={k}");
                }
            }
        }
    }
}

#[test]
fn woptss_remains_lower_bound_over_spheres() {
    let points = random_points(2500, 4, 8);
    let tree = build(&points, 4, 8, 12);
    let q = Point::splat(4, 50.0);
    for k in [5usize, 25] {
        let mut wopt = AlgorithmKind::Woptss.build(&tree, q.clone(), k).unwrap();
        let bound = run_query(&tree, wopt.as_mut()).unwrap().nodes_visited;
        for kind in AlgorithmKind::REAL {
            let mut algo = kind.build(&tree, q.clone(), k).unwrap();
            let run = run_query(&tree, algo.as_mut()).unwrap();
            assert!(run.nodes_visited >= bound, "{kind}");
        }
    }
}

#[test]
fn crss_batches_bounded_over_spheres() {
    let points = random_points(4000, 2, 9);
    let tree = build(&points, 2, 5, 16);
    let q = Point::splat(2, 50.0);
    let mut algo = AlgorithmKind::Crss.build(&tree, q, 30).unwrap();
    let run = run_query(&tree, algo.as_mut()).unwrap();
    assert!(
        run.max_batch <= 5,
        "batch {} exceeds 5 disks",
        run.max_batch
    );
}

#[test]
fn sstree_runs_under_the_simulator() {
    let points = random_points(3000, 5, 10);
    let tree = build(&points, 5, 8, 14);
    let sim = Simulation::new(&tree, SystemParams::with_disks(8)).unwrap();
    let queries: Vec<Point> = random_points(20, 5, 11);
    let w = Workload::poisson(queries, 10, 5.0, 12);
    let wopt = sim.run(AlgorithmKind::Woptss, &w, 13).unwrap();
    let crss = sim.run(AlgorithmKind::Crss, &w, 13).unwrap();
    let bbss = sim.run(AlgorithmKind::Bbss, &w, 13).unwrap();
    assert_eq!(crss.completed, 20);
    assert!(wopt.mean_response_s <= crss.mean_response_s * 1.001);
    // The paper's headline transfers to the SS-tree: CRSS beats BBSS.
    assert!(crss.mean_response_s < bbss.mean_response_s);
}

#[test]
fn sstree_parity_with_rstar_answers() {
    use sqda_rstar::decluster::ProximityIndex;
    use sqda_rstar::{RStarConfig, RStarTree};
    let points = random_points(1500, 3, 14);
    let ss = build(&points, 3, 4, 10);
    let store = Arc::new(ArrayStore::new(4, 1449, 15));
    let mut rs = RStarTree::create(
        store,
        RStarConfig::new(3).with_max_entries(10),
        Box::new(ProximityIndex),
    )
    .unwrap();
    for (i, p) in points.iter().enumerate() {
        rs.insert(p.clone(), i as u64).unwrap();
    }
    let q = Point::splat(3, 42.0);
    let a = best_first_knn(&ss, &q, 20).unwrap();
    let b = best_first_knn(&rs, &q, 20).unwrap();
    for (x, y) in a.iter().zip(b.iter()) {
        assert!((x.dist_sq - y.dist_sq).abs() < 1e-9);
    }
}

#[test]
fn dimension_mismatch_rejected() {
    let store = Arc::new(ArrayStore::new(2, 100, 1));
    let mut tree = SsTree::create(store, SsConfig::new(2)).unwrap();
    assert!(tree.insert(Point::splat(3, 1.0), 0).is_err());
}

#[test]
fn wrong_dimension_queries_are_typed_errors() {
    // Core's best-first and range search find the mismatch on the
    // SS-tree's root, sphere directory and leaf alike, before any panic.
    for (n, fanout) in [(5, 8), (300, 8)] {
        let tree = build(&random_points(n, 2, 16), 2, 4, fanout);
        for dim in [1, 3] {
            let q = Point::splat(dim, 50.0);
            let want = format!("query point has {dim} dimensions but the tree has 2");
            let err = best_first_knn(&tree, &q, 5).unwrap_err();
            assert!(
                matches!(&err, QueryError::Invariant(m) if *m == want),
                "{err}"
            );
            let err = run_query(&tree, &mut RangeSearch::new(&tree, q, 10.0)).unwrap_err();
            assert!(
                matches!(&err, QueryError::Invariant(m) if *m == want),
                "{err}"
            );
        }
    }
}

#[test]
fn duplicate_points() {
    let store = Arc::new(ArrayStore::new(4, 100, 2));
    let mut tree = SsTree::create(store, SsConfig::new(2).with_max_entries(6)).unwrap();
    for i in 0..100u64 {
        tree.insert(Point::new(vec![1.0, 1.0]), i).unwrap();
    }
    tree.validate().unwrap().unwrap();
    let got = best_first_knn(&tree, &Point::new(vec![1.0, 1.0]), 100).unwrap();
    assert_eq!(got.len(), 100);
}

#[test]
fn a_page_size_mismatch_is_refused_before_anything_is_written() {
    let store = Arc::new(ArrayStore::with_page_size(4, 1449, 1024, 5));
    let refused = SsTree::create(store.clone(), SsConfig::new(2));
    assert!(matches!(
        refused,
        Err(RStarError::PageSizeMismatch {
            config: 4096,
            store: 1024
        })
    ));
    assert_eq!(store.allocated_pages(), 0);

    let tree = SsTree::create(store.clone(), SsConfig::with_page_size(2, 1024)).unwrap();
    let attached = SsTree::attach(store, SsConfig::new(2), AtomicU64::new(1), tree.root_page());
    assert!(matches!(
        attached,
        Err(RStarError::PageSizeMismatch {
            config: 4096,
            store: 1024
        })
    ));
}
