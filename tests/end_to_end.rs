//! End-to-end integration tests spanning every crate: dataset generator →
//! declustered R*-tree on a simulated array → all four algorithms → both
//! executors.

use sqda::core::{best_first_knn, exec::QueryRun};
use sqda::datasets::{california_like, gaussian, long_beach_like, uniform};
use sqda::prelude::*;
use std::sync::Arc;

fn index(dataset: &Dataset, disks: u32) -> RStarTree<ArrayStore> {
    let store = Arc::new(ArrayStore::with_page_size(disks, 1449, 1024, 5));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::with_page_size(dataset.dim, 1024),
        Box::new(ProximityIndex),
    )
    .unwrap();
    for (i, p) in dataset.points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    tree
}

fn run(tree: &RStarTree<ArrayStore>, q: &Point, k: usize, kind: AlgorithmKind) -> QueryRun {
    let mut algo = kind.build(tree, q.clone(), k).unwrap();
    run_query(tree, algo.as_mut()).unwrap()
}

#[test]
fn every_generator_feeds_every_algorithm() {
    let datasets = [
        uniform(3000, 3, 1),
        gaussian(3000, 3, 2),
        california_like(3000, 3),
        long_beach_like(3000, 4),
    ];
    for dataset in &datasets {
        let tree = index(dataset, 6);
        tree.validate().unwrap().unwrap();
        let queries = dataset.sample_queries(5, 9);
        for q in &queries {
            let reference: Vec<u64> = run(&tree, q, 12, AlgorithmKind::Woptss)
                .results
                .iter()
                .map(|n| n.object.0)
                .collect();
            for kind in AlgorithmKind::REAL {
                let got: Vec<u64> = run(&tree, q, 12, kind)
                    .results
                    .iter()
                    .map(|n| n.object.0)
                    .collect();
                assert_eq!(got, reference, "{kind} on {}", dataset.name);
            }
        }
    }
}

#[test]
fn sequential_knn_agrees_with_parallel_algorithms() {
    let dataset = gaussian(4000, 4, 5);
    let tree = index(&dataset, 8);
    for q in dataset.sample_queries(8, 6) {
        let seq = best_first_knn(&tree, &q, 15).unwrap();
        let par = run(&tree, &q, 15, AlgorithmKind::Crss).results;
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(par.iter()) {
            assert!((s.dist_sq - p.dist_sq).abs() < 1e-12);
        }
    }
}

#[test]
fn full_pipeline_with_simulation() {
    let dataset = california_like(5000, 7);
    let tree = index(&dataset, 5);
    let sim = Simulation::new(&tree, SystemParams::with_disks(5)).unwrap();
    let workload = Workload::poisson(dataset.sample_queries(15, 8), 10, 5.0, 9);
    let mut means = Vec::new();
    for kind in AlgorithmKind::ALL {
        let report = sim.run(kind, &workload, 10).unwrap();
        assert_eq!(report.completed, 15, "{kind}");
        means.push((kind, report.mean_response_s));
    }
    // WOPTSS is the floor.
    let wopt = means
        .iter()
        .find(|(k, _)| *k == AlgorithmKind::Woptss)
        .unwrap()
        .1;
    for (kind, m) in &means {
        assert!(
            *m >= wopt * 0.999,
            "{kind} {m} under the WOPTSS floor {wopt}"
        );
    }
}

#[test]
fn mutations_between_queries_keep_answers_exact() {
    // The paper stresses dynamic environments: insertions/deletions mixed
    // with queries, no global reorganization.
    let dataset = uniform(2000, 2, 10);
    let mut tree = index(&dataset, 4);
    let q = Point::new(vec![0.5, 0.5]);

    let before = run(&tree, &q, 10, AlgorithmKind::Crss).results;

    // Delete the current nearest neighbour — answers must shift by one.
    let nearest = before[0].clone();
    assert!(tree.delete(&nearest.point, nearest.object.0).unwrap());
    let after = run(&tree, &q, 10, AlgorithmKind::Crss).results;
    assert!(after.iter().all(|n| n.object != nearest.object));
    assert_eq!(&after[..9], &before[1..10]);

    // Insert a new closest point — it must come back first.
    tree.insert(Point::new(vec![0.5, 0.5]), 999_999).unwrap();
    let now = run(&tree, &q, 10, AlgorithmKind::Crss).results;
    assert_eq!(now[0].object.0, 999_999);
    tree.validate().unwrap().unwrap();
}

#[test]
fn csv_roundtrip_through_index() {
    let dataset = gaussian(500, 2, 11);
    let dir = std::env::temp_dir().join("sqda-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("points.csv");
    dataset.write_csv(&path).unwrap();
    let back = Dataset::read_csv("reload", &path).unwrap();
    assert_eq!(back.len(), 500);
    let tree = index(&back, 4);
    assert_eq!(tree.num_objects(), 500);
    std::fs::remove_file(&path).ok();
}
