//! Property-based tests: for arbitrary data, query points and k, all four
//! algorithms return exactly the brute-force answer, and the structural
//! invariants of each algorithm hold.

use proptest::prelude::*;
use sqda_core::{
    exec::run_query, mirror_partner, AlgorithmKind, RunOptions, Simulation, Workload, WorkloadQuery,
};
use sqda_geom::Point;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_simkernel::{FaultPlan, SimTime, SystemParams};
use sqda_storage::ArrayStore;
use std::sync::Arc;

fn dataset_strategy() -> impl Strategy<Value = (Vec<(f64, f64)>, (f64, f64), usize)> {
    (
        proptest::collection::vec((-100.0..100.0f64, -100.0..100.0f64), 1..400),
        (-120.0..120.0f64, -120.0..120.0f64),
        1usize..40,
    )
}

fn build(points: &[(f64, f64)], disks: u32) -> RStarTree<ArrayStore> {
    let store = Arc::new(ArrayStore::new(disks, 1449, 3));
    let mut tree = RStarTree::create(
        store,
        RStarConfig::new(2).with_max_entries(6),
        Box::new(ProximityIndex),
    )
    .unwrap();
    for (i, (x, y)) in points.iter().enumerate() {
        tree.insert(Point::new(vec![*x, *y]), i as u64).unwrap();
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All four algorithms agree with brute force on arbitrary inputs.
    #[test]
    fn algorithms_equal_brute_force((points, (qx, qy), k) in dataset_strategy()) {
        let tree = build(&points, 4);
        let q = Point::new(vec![qx, qy]);
        let mut want: Vec<f64> = points
            .iter()
            .map(|(x, y)| {
                let dx = qx - x;
                let dy = qy - y;
                dx * dx + dy * dy
            })
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        want.truncate(k);
        for kind in AlgorithmKind::ALL {
            let mut algo = kind.build(&tree, q.clone(), k).unwrap();
            let run = run_query(&tree, algo.as_mut()).unwrap();
            prop_assert_eq!(run.results.len(), want.len(), "{} count", kind);
            for (g, w) in run.results.iter().zip(want.iter()) {
                prop_assert!((g.dist_sq - w).abs() < 1e-9,
                    "{}: got {} want {}", kind, g.dist_sq, w);
            }
        }
    }

    /// WOPTSS never visits more nodes than any real algorithm; BBSS never
    /// batches more than one page; CRSS never batches more than the disk
    /// count.
    #[test]
    fn structural_invariants((points, (qx, qy), k) in dataset_strategy()) {
        let disks = 4u32;
        let tree = build(&points, disks);
        let q = Point::new(vec![qx, qy]);
        let mut wopt = AlgorithmKind::Woptss.build(&tree, q.clone(), k).unwrap();
        let wopt_run = run_query(&tree, wopt.as_mut()).unwrap();
        for kind in AlgorithmKind::REAL {
            let mut algo = kind.build(&tree, q.clone(), k).unwrap();
            let run = run_query(&tree, algo.as_mut()).unwrap();
            prop_assert!(run.nodes_visited >= wopt_run.nodes_visited,
                "{} beat the weak-optimal bound", kind);
            match kind {
                AlgorithmKind::Bbss => prop_assert_eq!(run.max_batch, 1),
                AlgorithmKind::Crss => prop_assert!(run.max_batch <= disks as usize),
                _ => {}
            }
        }
    }

    /// Query results never change when the number of disks changes — the
    /// declustering layout affects timing, not answers.
    #[test]
    fn answers_independent_of_disk_count(
        (points, (qx, qy), k) in dataset_strategy(),
    ) {
        let q = Point::new(vec![qx, qy]);
        let tree2 = build(&points, 2);
        let tree8 = build(&points, 8);
        for kind in AlgorithmKind::ALL {
            let mut a2 = kind.build(&tree2, q.clone(), k).unwrap();
            let mut a8 = kind.build(&tree8, q.clone(), k).unwrap();
            let r2 = run_query(&tree2, a2.as_mut()).unwrap();
            let r8 = run_query(&tree8, a8.as_mut()).unwrap();
            let d2: Vec<f64> = r2.results.iter().map(|n| n.dist_sq).collect();
            let d8: Vec<f64> = r8.results.iter().map(|n| n.dist_sq).collect();
            prop_assert_eq!(d2, d8, "{} answers changed with disk count", kind);
        }
    }

    /// `mirror_partner` is a self-inverse pairing with no fixed points;
    /// only the leftover disk of an odd array is unpaired. (The old
    /// `(d + n/2) mod n` rule violated the involution for odd `n`,
    /// redirecting reads to disks that never held the replica.)
    #[test]
    fn mirror_partner_properties(n in 1usize..512, d_seed in any::<u64>()) {
        let d = (d_seed % n as u64) as usize;
        match mirror_partner(d, n) {
            Some(p) => {
                prop_assert!(p < n, "n={} d={} partner {} out of range", n, d, p);
                prop_assert_ne!(p, d, "n={} d={} self-paired", n, d);
                prop_assert_eq!(mirror_partner(p, n), Some(d), "n={} d={}", n, d);
            }
            None => prop_assert!(
                n % 2 == 1 && d == n - 1,
                "n={} d={} lost its partner", n, d
            ),
        }
    }

    /// Degraded-mode execution on a shadowed array: killing any one
    /// disk never aborts, hangs, or changes the work of a query — the
    /// shadow partner absorbs the failed disk's reads.
    #[test]
    fn degraded_reads_preserve_query_work(
        (points, (qx, qy), k) in dataset_strategy(),
        dead_seed in any::<u64>(),
    ) {
        let tree = build(&points, 4);
        let dead = (dead_seed % 4) as u32;
        let w = Workload {
            queries: vec![WorkloadQuery {
                arrival: SimTime::ZERO,
                point: Point::new(vec![qx, qy]),
                k,
            }],
        };
        let params = SystemParams {
            mirrored_reads: true,
            ..SystemParams::with_disks(4)
        };
        let sim = Simulation::new(&tree, params).unwrap();
        let crss = || RunOptions::kind(AlgorithmKind::Crss);
        let healthy = sim
            .run_with(&w, 11, crss().faults(&FaultPlan::none()))
            .unwrap();
        let plan = FaultPlan::none().fail_stop(dead, SimTime::ZERO);
        let degraded = sim.run_with(&w, 11, crss().faults(&plan)).unwrap();
        prop_assert_eq!(degraded.failed, 0, "mirrored loss must not abort");
        prop_assert_eq!(degraded.completed, 1);
        // Identical traversal: the same nodes are fetched, only their
        // serving disk (and hence timing) may differ.
        prop_assert_eq!(
            healthy.mean_nodes_per_query,
            degraded.mean_nodes_per_query
        );
    }
}
