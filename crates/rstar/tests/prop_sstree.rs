//! Property-based tests: arbitrary insertion workloads keep the SS-tree
//! valid and its answers exact.

use sqda_core::{exec::run_query, AlgorithmKind};
use sqda_geom::prop::{self, check};
use sqda_geom::{rng::Rng, Point};
use sqda_rstar::{SsConfig, SsTree};
use sqda_storage::ArrayStore;
use std::sync::Arc;

fn build(points: &[(f64, f64)]) -> SsTree<ArrayStore> {
    let store = Arc::new(ArrayStore::new(4, 1449, 11));
    let mut tree = SsTree::create(store, SsConfig::new(2).with_max_entries(5)).unwrap();
    for (i, (x, y)) in points.iter().enumerate() {
        tree.insert(Point::new(vec![*x, *y]), i as u64).unwrap();
    }
    tree
}

const CASES: u32 = 48;

/// Up to `len.end - 1` points in [-100, 100)².
fn points(rng: &mut Rng, size: usize, len: std::ops::Range<usize>) -> Vec<(f64, f64)> {
    (0..prop::len(rng, size, len))
        .map(|_| (rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
        .collect()
}

#[test]
fn invariants_hold() {
    let gen = |rng: &mut Rng, size| points(rng, size, 1..300);
    check("invariants_hold", CASES, gen, |points| {
        let tree = build(&points);
        assert_eq!(tree.num_objects() as usize, points.len());
        tree.validate().unwrap().unwrap();
    });
}

#[test]
fn algorithms_match_brute_force() {
    let gen = |rng: &mut Rng, size| {
        let points = points(rng, size, 1..250);
        let q = (rng.gen_range(-120.0..120.0), rng.gen_range(-120.0..120.0));
        (points, q, rng.gen_range(1..25usize))
    };
    check(
        "algorithms_match_brute_force",
        CASES,
        gen,
        |(points, (qx, qy), k)| {
            let tree = build(&points);
            let q = Point::new(vec![qx, qy]);
            let mut want: Vec<f64> = points
                .iter()
                .map(|(x, y)| (qx - x) * (qx - x) + (qy - y) * (qy - y))
                .collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            want.truncate(k);
            for kind in AlgorithmKind::ALL {
                let mut algo = kind.build(&tree, q.clone(), k).unwrap();
                let run = run_query(&tree, algo.as_mut()).unwrap();
                assert_eq!(run.results.len(), want.len(), "{kind}");
                for (g, w) in run.results.iter().zip(want.iter()) {
                    assert!((g.dist_sq - w).abs() < 1e-9, "{kind}");
                }
            }
        },
    );
}
