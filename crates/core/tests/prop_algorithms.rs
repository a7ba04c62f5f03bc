//! Property-based tests: for arbitrary data, query points and k, all four
//! algorithms and the best-first frontier return exactly the brute-force
//! answer, and the structural invariants of each algorithm hold.

use sqda_core::{
    exec::run_query, mirror_partner, AccessMethod, AlgorithmKind, RunOptions, SimilaritySearch,
    Simulation, Step, Workload, WorkloadQuery,
};
use sqda_geom::prop::{self, check};
use sqda_geom::{rng::Rng, Point};
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_simkernel::{FaultPlan, SimTime, SystemParams};
use sqda_storage::ArrayStore;
use std::sync::Arc;

const CASES: u32 = 48;

type Dataset = (Vec<(f64, f64)>, (f64, f64), usize);

/// Up to 399 points in [-100, 100)², a query in [-120, 120)², k in 1..40.
fn dataset(rng: &mut Rng, size: usize) -> Dataset {
    let n = prop::len(rng, size, 1..400);
    let points = (0..n)
        .map(|_| (rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
        .collect();
    let q = (rng.gen_range(-120.0..120.0), rng.gen_range(-120.0..120.0));
    (points, q, rng.gen_range(1..40))
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

/// All four algorithms agree with brute force on arbitrary inputs.
#[test]
fn algorithms_equal_brute_force() {
    check(
        "algorithms_equal_brute_force",
        CASES,
        dataset,
        |(points, (qx, qy), k)| {
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
            for kind in AlgorithmKind::ALL
                .into_iter()
                .chain([AlgorithmKind::Frontier])
            {
                let mut algo = kind.build(&tree, q.clone(), k).unwrap();
                let run = run_query(&tree, algo.as_mut()).unwrap();
                assert_eq!(run.results.len(), want.len(), "{kind} count");
                for (g, w) in run.results.iter().zip(want.iter()) {
                    assert!(
                        (g.dist_sq - w).abs() < 1e-9,
                        "{kind}: got {} want {w}",
                        g.dist_sq
                    );
                }
            }
        },
    );
}

/// WOPTSS never visits more nodes than any real algorithm; BBSS never
/// batches more than one page; CRSS and the frontier never batch more
/// than the disk count.
#[test]
fn structural_invariants() {
    check(
        "structural_invariants",
        CASES,
        dataset,
        |(points, (qx, qy), k)| {
            let disks = 4u32;
            let tree = build(&points, disks);
            let q = Point::new(vec![qx, qy]);
            let mut wopt = AlgorithmKind::Woptss.build(&tree, q.clone(), k).unwrap();
            let wopt_run = run_query(&tree, wopt.as_mut()).unwrap();
            for kind in AlgorithmKind::REAL
                .into_iter()
                .chain([AlgorithmKind::Frontier])
            {
                let mut algo = kind.build(&tree, q.clone(), k).unwrap();
                let run = run_query(&tree, algo.as_mut()).unwrap();
                assert!(
                    run.nodes_visited >= wopt_run.nodes_visited,
                    "{kind} beat the weak-optimal bound"
                );
                match kind {
                    AlgorithmKind::Bbss => assert_eq!(run.max_batch, 1),
                    AlgorithmKind::Crss | AlgorithmKind::Frontier => {
                        assert!(run.max_batch <= disks as usize)
                    }
                    _ => {}
                }
            }
        },
    );
}

/// Points on a half-unit lattice in [-8, 8]² (equal distances and exact
/// duplicates are the rule), an off-lattice query, k, the disk count `u`
/// and the seed of the executor's per-round widths.
type NarrowedCase = (Vec<(f64, f64)>, (f64, f64), usize, u32, u64);

fn narrowed_case(rng: &mut Rng, size: usize) -> NarrowedCase {
    let n = prop::len(rng, size, 1..400);
    let mut half = || rng.gen_range(-16..=16i32) as f64 / 2.0;
    let points = (0..n).map(|_| (half(), half())).collect();
    let q = (rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
    (
        points,
        q,
        rng.gen_range(1..40),
        rng.gen_range(1..=8u32),
        rng.gen(),
    )
}

/// The logical executor with the real engine's seam in it: before each
/// batch is handed over, the algorithm is told a width from `width`, and
/// the fetch list it answers with must fit in that width. Returns the
/// answers and the nodes visited.
fn run_narrowed(
    am: &impl AccessMethod,
    algo: &mut dyn SimilaritySearch,
    mut width: impl FnMut() -> usize,
) -> (Vec<sqda_core::Neighbor>, u64) {
    let (mut nodes, mut batch) = (0, Vec::new());
    let mut step = algo.start();
    while let Step::Fetch(pages) = step {
        nodes += pages.len() as u64;
        for page in pages {
            batch.push((page, am.read_index_node(page).unwrap()));
        }
        let w = width();
        algo.set_width(w);
        step = algo.on_fetched(&mut batch).next;
        if let Step::Fetch(next) = &step {
            assert!(next.len() <= w, "{} pages after width {w}", next.len());
        }
    }
    (algo.results(), nodes)
}

/// `kind` stays exact whatever width an executor feeds it round by round:
/// for a seeded arbitrary width in `1..=u` before every batch, it returns
/// the brute-force answers bit for bit (`dist_sq` bits, object id
/// breaking ties) and never visits fewer nodes than WOPTSS. Returns the
/// nodes of the run with every width 1 and WOPTSS's count.
fn exact_under_any_width_sequence(kind: AlgorithmKind, case: NarrowedCase) -> (u64, u64) {
    let (points, (qx, qy), k, u, seed) = case;
    let tree = build(&points, u);
    let q = Point::new(vec![qx, qy]);
    let mut want: Vec<(u64, u64)> = points
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (q.dist_sq(&Point::new(vec![x, y])).to_bits(), i as u64))
        .collect();
    // Non-negative doubles order as their bit patterns do.
    want.sort_unstable();
    want.truncate(k);
    let mut wopt = AlgorithmKind::Woptss.build(&tree, q.clone(), k).unwrap();
    let floor = run_query(&tree, wopt.as_mut()).unwrap().nodes_visited;
    let mut widths = Rng::seed_from_u64(seed);
    let mut narrowest = 0;
    for all_ones in [false, true] {
        let mut algo = kind.build(&tree, q.clone(), k).unwrap();
        let (answers, nodes) = run_narrowed(&tree, algo.as_mut(), || {
            if all_ones {
                1
            } else {
                widths.gen_range(1..=u as usize)
            }
        });
        let got: Vec<(u64, u64)> = answers
            .iter()
            .map(|n| (n.dist_sq.to_bits(), n.object.0))
            .collect();
        assert_eq!(got, want, "{kind} u {u} k {k} all widths 1: {all_ones}");
        assert!(nodes >= floor, "{kind} {nodes} nodes beat WOPTSS's {floor}");
        narrowest = nodes;
    }
    (narrowest, floor)
}

/// CRSS is exact under any width sequence ([`exact_under_any_width_sequence`]).
#[test]
fn crss_is_exact_under_any_width_sequence() {
    check(
        "crss_is_exact_under_any_width_sequence",
        CASES,
        narrowed_case,
        |case| {
            exact_under_any_width_sequence(AlgorithmKind::Crss, case);
        },
    );
}

/// The frontier is exact under any width sequence, and with every width
/// 1 it is Hjaltason–Samet: it visits exactly WOPTSS's nodes, lattice
/// ties included (both descend into an entry whose `D_min` equals the
/// final `D_k`).
#[test]
fn frontier_is_exact_under_any_width_sequence() {
    check(
        "frontier_is_exact_under_any_width_sequence",
        CASES,
        narrowed_case,
        |case| {
            let (nodes, floor) = exact_under_any_width_sequence(AlgorithmKind::Frontier, case);
            assert_eq!(nodes, floor, "width 1 visits WOPTSS's nodes");
        },
    );
}

/// Query results never change when the number of disks changes — the
/// declustering layout affects timing, not answers.
#[test]
fn answers_independent_of_disk_count() {
    check(
        "answers_independent_of_disk_count",
        CASES,
        dataset,
        |(points, (qx, qy), k)| {
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
                assert_eq!(d2, d8, "{kind} answers changed with disk count");
            }
        },
    );
}

/// `mirror_partner` is a self-inverse pairing with no fixed points;
/// only the leftover disk of an odd array is unpaired. (The old
/// `(d + n/2) mod n` rule violated the involution for odd `n`,
/// redirecting reads to disks that never held the replica.)
#[test]
fn mirror_partner_properties() {
    let gen = |rng: &mut Rng, _| {
        let n = rng.gen_range(1..512usize);
        (n, rng.gen_range(0..n))
    };
    check(
        "mirror_partner_properties",
        CASES,
        gen,
        |(n, d)| match mirror_partner(d, n) {
            Some(p) => {
                assert!(p < n, "n={n} d={d} partner {p} out of range");
                assert_ne!(p, d, "n={n} d={d} self-paired");
                assert_eq!(mirror_partner(p, n), Some(d), "n={n} d={d}");
            }
            None => assert!(n % 2 == 1 && d == n - 1, "n={n} d={d} lost its partner"),
        },
    );
}

/// Degraded-mode execution on a shadowed array: killing any one
/// disk never aborts, hangs, or changes the work of a query — the
/// shadow partner absorbs the failed disk's reads.
#[test]
fn degraded_reads_preserve_query_work() {
    let gen = |rng: &mut Rng, size| (dataset(rng, size), rng.gen_range(0..4u32));
    check(
        "degraded_reads_preserve_query_work",
        CASES,
        gen,
        |((points, (qx, qy), k), dead)| {
            let tree = build(&points, 4);
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
            let healthy = sim.run_with(&w, 11, crss()).unwrap();
            let plan = FaultPlan::none().fail_stop(dead, SimTime::ZERO);
            let degraded = sim.run_with(&w, 11, crss().faults(&plan)).unwrap();
            assert_eq!(degraded.failed, 0, "mirrored loss must not abort");
            assert_eq!(degraded.completed, 1);
            // Identical traversal: the same nodes are fetched, only their
            // serving disk (and hence timing) may differ.
            assert_eq!(healthy.mean_nodes_per_query, degraded.mean_nodes_per_query);
        },
    );
}
