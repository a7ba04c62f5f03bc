//! Property-based tests: for arbitrary insert/delete workloads the tree
//! keeps its invariants and answers queries exactly like brute force.

use sqda_core::{best_first_knn, exec::run_query, Neighbor, QueryError, RangeSearch};
use sqda_geom::prop::{self, check};
use sqda_geom::{rng::Rng, Point};
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_storage::ArrayStore;
use std::collections::HashSet;
use std::sync::Arc;

/// Every object within `radius` of `q`, by core's range search.
fn range(
    tree: &RStarTree<ArrayStore>,
    q: &Point,
    radius: f64,
) -> Result<Vec<Neighbor>, QueryError> {
    run_query(tree, &mut RangeSearch::new(tree, q.clone(), radius)).map(|run| run.results)
}

#[derive(Debug, Clone)]
enum Op {
    Insert([f64; 2]),
    /// Delete the i-th (mod live count) currently live object.
    DeleteNth(usize),
}

const CASES: u32 = 64;

/// Up to `len.end - 1` ops, three inserts in [-50, 50)² to one delete.
fn ops(rng: &mut Rng, size: usize, len: std::ops::Range<usize>) -> Vec<Op> {
    (0..prop::len(rng, size, len))
        .map(|_| {
            if rng.gen_range(0..4) < 3 {
                Op::Insert([rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)])
            } else {
                Op::DeleteNth(rng.gen_range(0..1000))
            }
        })
        .collect()
}

/// Ops, then a query point in [-60, 60)².
fn ops_and_query(rng: &mut Rng, size: usize) -> (Vec<Op>, Point) {
    let ops = ops(rng, size, 1..200);
    (
        ops,
        Point::new(vec![rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0)]),
    )
}

fn build(ops: &[Op], fanout: usize) -> (RStarTree<ArrayStore>, Vec<(Point, u64)>) {
    let store = Arc::new(ArrayStore::new(4, 1449, 7));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::new(2).with_max_entries(fanout),
        Box::new(ProximityIndex),
    )
    .unwrap();
    let mut live: Vec<(Point, u64)> = Vec::new();
    let mut next_id = 0u64;
    for op in ops {
        match op {
            Op::Insert([x, y]) => {
                let p = Point::new(vec![*x, *y]);
                tree.insert(p.clone(), next_id).unwrap();
                live.push((p, next_id));
                next_id += 1;
            }
            Op::DeleteNth(n) => {
                if !live.is_empty() {
                    let idx = n % live.len();
                    let (p, id) = live.swap_remove(idx);
                    assert!(tree.delete(&p, id).unwrap());
                }
            }
        }
    }
    (tree, live)
}

/// Invariants hold after arbitrary workloads.
#[test]
fn invariants_after_workload() {
    let gen = |rng: &mut Rng, size| ops(rng, size, 0..300);
    check("invariants_after_workload", CASES, gen, |ops| {
        let (tree, live) = build(&ops, 4);
        tree.validate().unwrap().unwrap();
        assert_eq!(tree.num_objects() as usize, live.len());
    });
}

/// kNN equals brute force after arbitrary workloads.
#[test]
fn knn_equals_brute_force() {
    let gen = |rng: &mut Rng, size| (ops_and_query(rng, size), rng.gen_range(1..20usize));
    check("knn_equals_brute_force", CASES, gen, |((ops, q), k)| {
        let (tree, live) = build(&ops, 5);
        let got = best_first_knn(&tree, &q, k).unwrap();
        let mut want: Vec<f64> = live.iter().map(|(p, _)| q.dist_sq(p)).collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        want.truncate(k);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist_sq - w).abs() < 1e-9, "got {} want {w}", g.dist_sq);
        }
    });
}

/// Range query equals brute force.
#[test]
fn range_equals_brute_force() {
    let gen = |rng: &mut Rng, size| (ops_and_query(rng, size), rng.gen_range(0.0..80.0));
    check(
        "range_equals_brute_force",
        CASES,
        gen,
        |((ops, q), radius)| {
            let (tree, live) = build(&ops, 6);
            let got: HashSet<u64> = range(&tree, &q, radius)
                .unwrap()
                .into_iter()
                .map(|e| e.object.0)
                .collect();
            let want: HashSet<u64> = live
                .iter()
                .filter(|(p, _)| q.dist(p) <= radius)
                .map(|(_, id)| *id)
                .collect();
            assert_eq!(got, want);
        },
    );
}

/// Every inserted object is findable at distance ~0 (no lost inserts).
#[test]
fn no_lost_objects() {
    let gen = |rng: &mut Rng, size| ops(rng, size, 1..150);
    check("no_lost_objects", CASES, gen, |ops| {
        let (tree, live) = build(&ops, 4);
        for (p, id) in &live {
            let hits = range(&tree, p, 1e-9).unwrap();
            assert!(hits.iter().any(|e| e.object.0 == *id), "object {id} lost");
        }
    });
}
