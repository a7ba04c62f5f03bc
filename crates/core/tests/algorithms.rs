//! Correctness of the four similarity-search algorithms: identical
//! answers to brute force, WOPTSS as a node-access lower bound, and the
//! batch-shape properties that define each algorithm.

use sqda_core::{exec::run_query, AlgorithmKind, Crss};
use sqda_geom::rng::Rng;
use sqda_geom::Point;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_storage::ArrayStore;
use std::sync::Arc;

fn build_tree(points: &[Point], dim: usize, disks: u32, fanout: usize) -> RStarTree<ArrayStore> {
    let store = Arc::new(ArrayStore::new(disks, 1449, 42));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::new(dim).with_max_entries(fanout),
        Box::new(ProximityIndex),
    )
    .unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    tree
}

fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect()
}

fn brute_dists(points: &[Point], q: &Point, k: usize) -> Vec<f64> {
    let mut d: Vec<f64> = points.iter().map(|p| q.dist_sq(p)).collect();
    d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    d.truncate(k);
    d
}

#[test]
fn all_algorithms_match_brute_force() {
    let dim = 2;
    let points = random_points(3000, dim, 1);
    let tree = build_tree(&points, dim, 10, 16);
    let mut rng = Rng::seed_from_u64(7);
    for trial in 0..15 {
        let q = Point::new(vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
        for k in [1, 4, 20, 100] {
            let want = brute_dists(&points, &q, k);
            for kind in AlgorithmKind::ALL {
                let mut algo = kind.build(&tree, q.clone(), k).unwrap();
                let run = run_query(&tree, algo.as_mut()).unwrap();
                assert_eq!(
                    run.results.len(),
                    k,
                    "{kind} trial {trial} k {k}: wrong count"
                );
                for (got, want) in run.results.iter().zip(want.iter()) {
                    assert!(
                        (got.dist_sq - want).abs() < 1e-9,
                        "{kind} trial {trial} k {k}: {} vs {}",
                        got.dist_sq,
                        want
                    );
                }
            }
        }
    }
}

#[test]
fn all_algorithms_match_in_high_dimensions() {
    let dim = 10;
    let points = random_points(2000, dim, 2);
    let tree = build_tree(&points, dim, 10, 12);
    let q = Point::splat(dim, 0.5);
    for k in [1, 10, 50] {
        let want = brute_dists(&points, &q, k);
        for kind in AlgorithmKind::ALL {
            let mut algo = kind.build(&tree, q.clone(), k).unwrap();
            let run = run_query(&tree, algo.as_mut()).unwrap();
            let got: Vec<f64> = run.results.iter().map(|n| n.dist_sq).collect();
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g - w).abs() < 1e-9, "{kind} 10-d k={k}");
            }
        }
    }
}

#[test]
fn k_exceeding_population_returns_everything() {
    let points = random_points(25, 2, 3);
    let tree = build_tree(&points, 2, 4, 4);
    let q = Point::splat(2, 0.5);
    for kind in AlgorithmKind::ALL {
        let mut algo = kind.build(&tree, q.clone(), 100).unwrap();
        let run = run_query(&tree, algo.as_mut()).unwrap();
        assert_eq!(run.results.len(), 25, "{kind} must return all objects");
    }
}

#[test]
fn k_one_works_everywhere() {
    let points = random_points(500, 3, 4);
    let tree = build_tree(&points, 3, 5, 8);
    let q = Point::new(vec![0.25, 0.75, 0.5]);
    let want = brute_dists(&points, &q, 1)[0];
    for kind in AlgorithmKind::ALL {
        let mut algo = kind.build(&tree, q.clone(), 1).unwrap();
        let run = run_query(&tree, algo.as_mut()).unwrap();
        assert!((run.results[0].dist_sq - want).abs() < 1e-12, "{kind}");
    }
}

#[test]
fn woptss_is_node_access_lower_bound() {
    let points = random_points(4000, 2, 5);
    let tree = build_tree(&points, 2, 10, 16);
    let mut rng = Rng::seed_from_u64(11);
    for _ in 0..10 {
        let q = Point::new(vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
        for k in [1, 10, 50] {
            let mut wopt = AlgorithmKind::Woptss.build(&tree, q.clone(), k).unwrap();
            let wopt_run = run_query(&tree, wopt.as_mut()).unwrap();
            for kind in AlgorithmKind::REAL {
                let mut algo = kind.build(&tree, q.clone(), k).unwrap();
                let run = run_query(&tree, algo.as_mut()).unwrap();
                assert!(
                    run.nodes_visited >= wopt_run.nodes_visited,
                    "{kind} visited {} < WOPTSS {} (k={k})",
                    run.nodes_visited,
                    wopt_run.nodes_visited
                );
            }
        }
    }
}

#[test]
fn bbss_fetches_one_page_per_batch() {
    let points = random_points(2000, 2, 6);
    let tree = build_tree(&points, 2, 10, 16);
    let q = Point::splat(2, 0.3);
    let mut algo = AlgorithmKind::Bbss.build(&tree, q, 25).unwrap();
    let run = run_query(&tree, algo.as_mut()).unwrap();
    assert_eq!(run.max_batch, 1, "BBSS has no intra-query parallelism");
    assert_eq!(run.batches, run.nodes_visited);
}

#[test]
fn crss_batches_bounded_by_disk_count() {
    let points = random_points(5000, 2, 7);
    for disks in [2u32, 5, 10] {
        let tree = build_tree(&points, 2, disks, 16);
        let q = Point::splat(2, 0.6);
        let mut algo = AlgorithmKind::Crss.build(&tree, q, 50).unwrap();
        let run = run_query(&tree, algo.as_mut()).unwrap();
        assert!(
            run.max_batch <= disks as usize,
            "CRSS batch {} exceeds {} disks",
            run.max_batch,
            disks
        );
    }
}

#[test]
fn crss_explicit_activation_bound() {
    let points = random_points(3000, 2, 8);
    let tree = build_tree(&points, 2, 10, 16);
    let q = Point::splat(2, 0.4);
    for u in [1usize, 3, 7] {
        let mut algo = Crss::with_activation_bound(&tree, q.clone(), 20, u);
        let run = run_query(&tree, &mut algo).unwrap();
        assert!(run.max_batch <= u, "bound {u} violated: {}", run.max_batch);
        assert_eq!(run.results.len(), 20);
    }
}

#[test]
fn fpss_visits_at_least_as_many_nodes_as_crss_on_average() {
    // FPSS activates everything intersecting the sphere; CRSS defers.
    // Aggregated over queries, FPSS can't fetch less.
    let points = random_points(6000, 2, 9);
    let tree = build_tree(&points, 2, 10, 16);
    let mut rng = Rng::seed_from_u64(21);
    let mut fpss_total = 0u64;
    let mut crss_total = 0u64;
    for _ in 0..15 {
        let q = Point::new(vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
        let mut fpss = AlgorithmKind::Fpss.build(&tree, q.clone(), 20).unwrap();
        fpss_total += run_query(&tree, fpss.as_mut()).unwrap().nodes_visited;
        let mut crss = AlgorithmKind::Crss.build(&tree, q.clone(), 20).unwrap();
        crss_total += run_query(&tree, crss.as_mut()).unwrap().nodes_visited;
    }
    assert!(
        fpss_total >= crss_total,
        "FPSS {fpss_total} < CRSS {crss_total}"
    );
}

#[test]
fn duplicate_heavy_data() {
    // Many coincident points stress tie-breaking and termination.
    let mut points = Vec::new();
    for i in 0..200 {
        points.push(Point::new(vec![(i % 5) as f64, (i % 3) as f64]));
    }
    let tree = build_tree(&points, 2, 4, 6);
    let q = Point::new(vec![2.0, 1.0]);
    let want = brute_dists(&points, &q, 30);
    for kind in AlgorithmKind::ALL {
        let mut algo = kind.build(&tree, q.clone(), 30).unwrap();
        let run = run_query(&tree, algo.as_mut()).unwrap();
        assert_eq!(run.results.len(), 30, "{kind}");
        for (g, w) in run.results.iter().zip(want.iter()) {
            assert!((g.dist_sq - w).abs() < 1e-9, "{kind}");
        }
    }
}

#[test]
fn query_far_outside_data() {
    let points = random_points(1000, 2, 10);
    let tree = build_tree(&points, 2, 5, 8);
    let q = Point::new(vec![1000.0, -500.0]);
    let want = brute_dists(&points, &q, 5);
    for kind in AlgorithmKind::ALL {
        let mut algo = kind.build(&tree, q.clone(), 5).unwrap();
        let run = run_query(&tree, algo.as_mut()).unwrap();
        for (g, w) in run.results.iter().zip(want.iter()) {
            assert!((g.dist_sq - w).abs() < 1e-6, "{kind}");
        }
    }
}

#[test]
fn cpu_instructions_are_accumulated() {
    let points = random_points(2000, 2, 11);
    let tree = build_tree(&points, 2, 10, 16);
    let q = Point::splat(2, 0.5);
    for kind in AlgorithmKind::ALL {
        let mut algo = kind.build(&tree, q.clone(), 10).unwrap();
        let run = run_query(&tree, algo.as_mut()).unwrap();
        assert!(run.cpu_instructions > 0, "{kind} reported no CPU work");
    }
}

#[test]
fn results_sorted_by_distance() {
    let points = random_points(1500, 4, 12);
    let tree = build_tree(&points, 4, 8, 10);
    let q = Point::splat(4, 0.5);
    for kind in AlgorithmKind::ALL {
        let mut algo = kind.build(&tree, q.clone(), 40).unwrap();
        let run = run_query(&tree, algo.as_mut()).unwrap();
        for w in run.results.windows(2) {
            assert!(w[0].dist_sq <= w[1].dist_sq, "{kind} results unsorted");
        }
    }
}

/// A query point of the wrong dimensionality is a typed
/// `QueryError::Invariant` from every algorithm under every executor —
/// found on the root, before any kernel reads the point — never a panic
/// or an answer.
#[test]
fn wrong_dimension_is_a_typed_error_everywhere() {
    use sqda_core::{QueryError, RealTimeEngine, Simulation, Workload};
    use sqda_simkernel::SystemParams;
    use sqda_storage::InlineBackend;

    let tree = build_tree(&random_points(300, 2, 91), 2, 4, 8);
    let backend = Arc::new(InlineBackend::new(Arc::clone(tree.store())));
    let engine = RealTimeEngine::new(&tree, backend).unwrap();
    let sim = Simulation::new(&tree, SystemParams::with_disks(4)).unwrap();
    for dim in [1, 3] {
        let point = Point::splat(dim, 0.5);
        let want = format!("query point has {dim} dimensions but the tree has 2");
        let check = |e: QueryError, executor: &str, kind: AlgorithmKind| match e {
            QueryError::Invariant(msg) => assert_eq!(msg, want, "{executor} {kind}"),
            other => panic!("{executor} {kind}: expected Invariant, got {other:?}"),
        };
        for kind in AlgorithmKind::ALL {
            let logical = kind
                .build(&tree, point.clone(), 5)
                .and_then(|mut algo| run_query(&tree, algo.as_mut()));
            check(logical.unwrap_err(), "logical", kind);

            let workload = Workload::single(point.clone(), 5);
            check(sim.run(kind, &workload, 7).unwrap_err(), "simulated", kind);

            let mut real = engine.run(kind, &workload, 1).unwrap();
            assert_eq!((real.completed, real.failed), (0, 1), "real-clock {kind}");
            check(real.failures.remove(0).1, "real-clock", kind);
        }
    }
}
