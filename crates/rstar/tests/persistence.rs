//! The R\*-tree over a persistent file-backed store: the index survives a
//! store close/reopen cycle with all invariants and answers intact.

use sqda_core::best_first_knn;
use sqda_geom::rng::Rng;
use sqda_geom::Point;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_storage::{FileStore, PageId};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sqda-rstar-persist-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn tree_survives_reopen() {
    let dir = tmpdir("reopen");
    let mut rng = Rng::seed_from_u64(1);
    let points: Vec<Point> = (0..800)
        .map(|_| Point::new(vec![rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]))
        .collect();

    let root: PageId;
    {
        let store = Arc::new(FileStore::create(&dir, 4, 1449, 1024, 7).unwrap());
        let mut tree = RStarTree::create(
            store.clone(),
            RStarConfig::with_page_size(2, 1024),
            Box::new(ProximityIndex),
        )
        .unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert(p.clone(), i as u64).unwrap();
        }
        tree.validate().unwrap().unwrap();
        root = tree.root_page();
        store.sync().unwrap();
    } // store dropped: everything must now come from the files

    let store = Arc::new(FileStore::open(&dir).unwrap());
    let tree = RStarTree::attach(
        store,
        RStarConfig::with_page_size(2, 1024),
        Box::new(ProximityIndex),
        root,
    )
    .unwrap();
    assert_eq!(tree.num_objects(), 800);
    tree.validate().unwrap().unwrap();

    // Queries over the reopened tree match brute force.
    let q = Point::new(vec![50.0, 50.0]);
    let got = best_first_knn(&tree, &q, 10).unwrap();
    let mut want: Vec<f64> = points.iter().map(|p| q.dist_sq(p)).collect();
    want.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (g, w) in got.iter().zip(want.iter()) {
        assert!((g.dist_sq - w).abs() < 1e-9);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reopened_tree_accepts_mutations() {
    let dir = tmpdir("mutate");
    let root: PageId;
    {
        let store = Arc::new(FileStore::create(&dir, 2, 100, 1024, 9).unwrap());
        let mut tree = RStarTree::create(
            store.clone(),
            RStarConfig::with_page_size(2, 1024).with_max_entries(6),
            Box::new(ProximityIndex),
        )
        .unwrap();
        for i in 0..150u64 {
            tree.insert(Point::new(vec![(i % 13) as f64, (i % 7) as f64]), i)
                .unwrap();
        }
        root = tree.root_page();
        store.sync().unwrap();
    }
    let store = Arc::new(FileStore::open(&dir).unwrap());
    let mut tree = RStarTree::attach(
        store,
        RStarConfig::with_page_size(2, 1024).with_max_entries(6),
        Box::new(ProximityIndex),
        root,
    )
    .unwrap();
    // Insert and delete through the reopened handle.
    for i in 150..200u64 {
        tree.insert(Point::new(vec![i as f64, i as f64]), i)
            .unwrap();
    }
    assert!(tree.delete(&Point::new(vec![0.0, 0.0]), 0).unwrap());
    tree.validate().unwrap().unwrap();
    assert_eq!(tree.num_objects(), 199);
    std::fs::remove_dir_all(&dir).ok();
}
